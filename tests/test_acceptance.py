"""Acceptance gate: seven end-to-end criteria over the full pipeline.

Each test prints one summary line through the terminal-summary hook in
conftest.py (criterion N: PASS/FAIL). Expensive builds are shared through
session-scoped fixtures.
"""

import math
import time

import numpy as np
import pytest

from fivebar import interval as iv
from fivebar import mechanism as mech
from fivebar.aspects import (
    all_mode_combos,
    compute_aspects,
    wrap_angle,
)
from fivebar.bench import (
    JOINTSPACE,
    WORKSPACE,
    run_bench,
    space_box,
    space_classifier,
)
from fivebar.interval import Box2, Interval
from fivebar.mechanism import (
    M1,
    M2,
    Ternary,
    WorkingMode,
    coincidence_configurations,
    configuration_at,
    ikp_box,
    point_classify_joint,
    point_classify_workspace,
    scalar_signs,
)
from fivebar.quadtree import (
    BLACK,
    black_area,
    build,
    collect_leaves,
    deserialize,
    label_regions,
    locate,
    refine,
    sample_black_points,
    serialize,
)

from helpers import assert_labeling_matches_flood_fill, random_models

PI = math.pi
MECHANISMS = (("m1", M1), ("m2", M2))


# ---------------------------------------------------------------------------
# Shared fixtures (combo_trees_d8 and modefree_chains live in conftest.py)
# ---------------------------------------------------------------------------


@pytest.fixture(scope="session")
def aspect_sets_d9_d10():
    """All 8 combos for both mechanisms at depths 9 and 10."""
    sets = {}
    for name, g in MECHANISMS:
        for combo in all_mode_combos():
            for d in (9, 10):
                sets[(name, str(combo), d)] = compute_aspects(g, combo, d)
    return sets


# ---------------------------------------------------------------------------
# Criterion 1: Black-box soundness against the scalar classifier
# ---------------------------------------------------------------------------


def test_criterion_1_black_box_soundness(combo_trees_d8):
    trees, build_seconds = combo_trees_d8
    t0 = time.monotonic()
    rng = np.random.default_rng(101)
    per_tree = -(-100_000 // len(trees))  # ceil division
    total = 0
    failures = 0
    for (name, space, combo), model in trees.items():
        g = M1 if name == "m1" else M2
        points = sample_black_points(model, per_tree, rng)
        classify_point = (
            point_classify_joint if space == JOINTSPACE else point_classify_workspace
        )
        for x, y in points:
            total += 1
            if classify_point(x, y, g, (combo.wm, combo.am)) != mech.VALID:
                failures += 1
    assert total >= 100_000
    assert failures == 0
    elapsed = build_seconds + (time.monotonic() - t0)
    assert elapsed < 120.0, f"soundness suite took {elapsed:.1f}s"


# ---------------------------------------------------------------------------
# Criterion 2: elbow coincidence detected by intervals, missed by the grid
# ---------------------------------------------------------------------------


def test_criterion_2_elbow_coincidence_never_certified(modefree_chains):
    for name, g in MECHANISMS:
        stars = coincidence_configurations(g)
        assert stars, f"{name} has no elbow-coincidence configuration"
        for d in range(5, 11):
            model = modefree_chains[(name, JOINTSPACE)][d]
            for t1, t2 in stars:
                kind, _ = locate(model, t1, t2)
                assert kind != BLACK, (name, d, (t1, t2))

    # the equal-length mechanism's coincidence hides inside an otherwise
    # valid neighborhood: a center-point grid up to depth 7 marks its cell
    # valid and misses the singular configuration entirely
    box = space_box(M2, JOINTSPACE)
    for d in (6, 7):
        n = 2**d
        step = box.x.width / n
        for t1, t2 in coincidence_configurations(M2):
            cx = box.x.lo + (int((t1 - box.x.lo) / step) + 0.5) * step
            cy = box.y.lo + (int((t2 - box.y.lo) / step) + 0.5) * step
            assert point_classify_joint(cx, cy, M2) == mech.VALID


# ---------------------------------------------------------------------------
# Criterion 3: the point hole stays an Undetermined minimum-size leaf
# ---------------------------------------------------------------------------


def test_criterion_3_point_hole_is_minimum_size_leaf(modefree_chains):
    leaves_by_depth = modefree_chains[("m2", WORKSPACE)]
    for d in range(5, 11):
        model = leaves_by_depth[d]
        kind, path = locate(model, 0.0, 0.0)
        assert kind == "U", f"leaf at the base point is {kind} at depth {d}"
        leaf = {l.path: l for l in collect_leaves(model)}[path]
        expected = 2.0 * (M2.L1 + M2.L3) / 2**d
        assert leaf.box.x.width == expected
        assert leaf.box.y.width == expected


# ---------------------------------------------------------------------------
# Criterion 4: cost ratio decreases with depth, within the call budget
# ---------------------------------------------------------------------------


def test_criterion_4_cost_ratio_trend():
    t0 = time.monotonic()
    for name, g in MECHANISMS:
        for space in (JOINTSPACE, WORKSPACE):
            rows = run_bench(g, space, [6, 7, 8, 9, 10], name)
            ratios = [r.k_ratio for r in rows]
            assert all(
                a > b for a, b in zip(ratios, ratios[1:])
            ), f"K not strictly decreasing for {name} {space}: {ratios}"
            if name == "m1" and space == WORKSPACE:
                n10 = rows[-1].n_quadtree
                assert 18_000 <= n10 <= 80_000, n10
    elapsed = time.monotonic() - t0
    assert elapsed < 300.0, f"cost-ratio suite took {elapsed:.1f}s"


# ---------------------------------------------------------------------------
# Criterion 5: aspect structure
# ---------------------------------------------------------------------------


def test_criterion_5_aspect_structure(aspect_sets_d9_d10):
    sets = aspect_sets_d9_d10
    combos = [str(c) for c in all_mode_combos()]

    # per-combo counts agree between the two mechanisms at depth 10
    for combo in combos:
        a, b = sets[("m1", combo, 10)], sets[("m2", combo, 10)]
        assert len(a.workspace_aspects) == len(b.workspace_aspects), combo
        assert len(a.jointspace_aspects) == len(b.jointspace_aspects), combo

    for name, _ in MECHANISMS:
        for combo in combos:
            s9, s10 = sets[(name, combo, 9)], sets[(name, combo, 10)]
            # counts stable between depths 9 and 10
            assert len(s9.workspace_aspects) == len(s10.workspace_aspects)
            assert len(s9.jointspace_aspects) == len(s10.jointspace_aspects)
            # certified area fraction converged to within 1%
            for tree9, tree10 in (
                (s9.workspace, s10.workspace),
                (s9.jointspace, s10.jointspace),
            ):
                f9 = black_area(tree9) / tree9.root_box.area
                f10 = black_area(tree10) / tree10.root_box.area
                assert abs(f10 - f9) < 0.01, (name, combo)
            # pairing is total, functional, and Black-on-Black
            for aset in (s9, s10):
                assert len(aset.pairing) == len(aset.workspace_aspects)
                parallels = [e.parallel_aspect for e in aset.pairing]
                assert len(set(parallels)) == len(parallels)
                for e in aset.pairing:
                    kind_w, _ = locate(aset.workspace, *e.witness_workspace)
                    kind_q, _ = locate(aset.jointspace, *e.witness_joint)
                    assert kind_w == BLACK and kind_q == BLACK


# ---------------------------------------------------------------------------
# Criterion 6: oracle equivalences
# ---------------------------------------------------------------------------


def test_criterion_6_labeling_matches_flood_fill(modefree_chains, combo_trees_d8):
    for chain in modefree_chains.values():
        model = chain[8]
        assert_labeling_matches_flood_fill(model, label_regions(model))
    trees, _ = combo_trees_d8
    for key in list(trees)[::5]:
        assert_labeling_matches_flood_fill(trees[key], label_regions(trees[key]))


def test_criterion_6_refine_equals_fresh_build():
    for name, g in MECHANISMS:
        classify = space_classifier(g, JOINTSPACE)
        box = space_box(g, JOINTSPACE)
        chain = refine(build(box, 5, classify), 8, classify)
        fresh = build(box, 8, classify)
        assert serialize(chain) == serialize(fresh)


def test_criterion_6_serialize_round_trip():
    for m in random_models(100, d_max=4):
        text = serialize(m)
        assert serialize(deserialize(text)) == text


def test_criterion_6_inverse_of_direct_round_trip():
    rng = np.random.default_rng(61)
    done = 0
    while done < 1000:
        g = M1 if done % 2 == 0 else M2
        t1, t2 = rng.uniform(-PI, PI, 2)
        branch = 1 if rng.random() < 0.5 else -1
        cfg = configuration_at(t1, t2, g, branch)
        if cfg is None:
            continue
        t_z, u_z, v_z = scalar_signs(cfg, g)
        if min(abs(t_z), abs(u_z), abs(v_z)) < 1e-3:
            continue
        res = ikp_box(Box2.point(*cfg.p), g)
        assert res.status is Ternary.VALID
        wm = WorkingMode(int(math.copysign(1, u_z)), int(math.copysign(1, v_z)))
        sol = res.solution_for(wm)
        assert sol is not None
        assert abs(wrap_angle(sol.theta1.mid - cfg.theta1)) < 1e-6
        assert abs(wrap_angle(sol.theta2.mid - cfg.theta2)) < 1e-6
        done += 1


# ---------------------------------------------------------------------------
# Criterion 7: inclusion isotonicity of the interval layer
# ---------------------------------------------------------------------------


def _random_interval(rng, lo=-10.0, hi=10.0) -> Interval:
    a, b = sorted(rng.uniform(lo, hi, 2))
    return Interval(float(a), float(b))


def _rows(intervals) -> tuple[np.ndarray, np.ndarray]:
    return np.array([a.lo for a in intervals]), np.array([a.hi for a in intervals])


def _same_rows(got, want) -> bool:
    exp = _rows(want)
    return all(
        np.array_equal(g.view(np.int64), e.view(np.int64)) for g, e in zip(got, exp)
    )


def test_criterion_7_inclusion_isotonicity():
    rng = np.random.default_rng(71)
    n = 10_000
    violations = 0
    drawn = []
    for _ in range(100):
        a = _random_interval(rng)
        b = _random_interval(rng)
        c = _random_interval(rng)
        d = _random_interval(rng)
        drawn.append((a, b))
        xs = rng.uniform(a.lo, a.hi, n)
        ys = rng.uniform(b.lo, b.hi, n)
        us = rng.uniform(c.lo, c.hi, n)
        vs = rng.uniform(d.lo, d.hi, n)

        checks = [
            (iv.add(a, b), xs + ys),
            (iv.sub(a, b), xs - ys),
            (iv.mul(a, b), xs * ys),
            (iv.sin(a), np.sin(xs)),
            (iv.cos(a), np.cos(xs)),
            (iv.norm2(a, b), np.hypot(xs, ys)),
            (iv.cross_z(a, b, c, d), xs * vs - ys * us),
        ]
        if not b.contains_zero():
            checks.append((iv.div(a, b), xs / ys))
        if a.hi >= 0.0:
            checks.append((iv.sqrt(a), np.sqrt(np.clip(xs, 0.0, None))))
        if a.lo <= 1.0 and a.hi >= -1.0:
            enc, _ = iv.acos(a)
            checks.append((enc, np.arccos(np.clip(xs, -1.0, 1.0))))
        enc, _ = iv.atan2(b, a)
        checks.append((enc, np.arctan2(ys, xs)))

        for enclosure, values in checks:
            violations += int((values < enclosure.lo).sum())
            violations += int((values > enclosure.hi).sum())
    assert violations == 0

    # the interval arrays of the classification kernel give the same
    # enclosures, bit for bit, so the isotonicity above covers them too
    a_s, b_s = zip(*drawn)
    a_arr, b_arr = _rows(a_s), _rows(b_s)
    for vector, scalar in ((iv.vadd, iv.add), (iv.vsub, iv.sub), (iv.vmul, iv.mul),
                           (iv.vnorm2, iv.norm2)):
        assert _same_rows(vector(a_arr, b_arr), [scalar(x, y) for x, y in drawn])
    for vector, scalar in ((iv.vsin, iv.sin), (iv.vcos, iv.cos), (iv.vsqr, iv.sqr)):
        assert _same_rows(vector(a_arr), [scalar(x) for x in a_s])
    divisible = [(x, y) for x, y in drawn if not y.contains_zero()]
    x_s, y_s = zip(*divisible)
    assert _same_rows(
        iv.vdiv(_rows(x_s), _rows(y_s)), [iv.div(x, y) for x, y in divisible]
    )
    rooted = [x for x in a_s if x.hi >= 0.0]
    assert _same_rows(iv.vsqrt(_rows(rooted)), [iv.sqrt(x) for x in rooted])
