"""Five-bar kinematics: direct/inverse box classification, scalar oracle
agreement, residual checks, and the mode-tagging invariants."""

import math

import numpy as np
import pytest

from fivebar import interval as iv
from fivebar import mechanism as mech
from fivebar.aspects import all_mode_combos
from fivebar.interval import Box2, Interval
from fivebar.mechanism import (
    M1,
    M2,
    AssemblyMode,
    FiveBarGeometry,
    WorkingMode,
    point_classify_joint,
    point_classify_workspace,
)
from fivebar.quadtree import build

import interval_reference as ref
from helpers import (
    Ternary,
    coincidence_configurations,
    configuration_at,
    dkp_box,
    ikp_box,
    scalar_signs,
)

PI = math.pi


def wrap(t: float) -> float:
    return math.remainder(t, math.tau)


# ---------------------------------------------------------------------------
# Types
# ---------------------------------------------------------------------------


def test_geometry_rejects_nonpositive_lengths():
    with pytest.raises(ValueError):
        FiveBarGeometry(0.0, 1, 1, 1, 1)
    with pytest.raises(ValueError):
        FiveBarGeometry(1, 1, 1, -2.0, 1)


@pytest.mark.parametrize(
    "lengths",
    [
        (math.nan, 1, 1, 1, 1),
        (1, math.inf, 1, 1, 1),
        (1, 1, 1, 1, -math.inf),
        (1, 1e308, 1, 1e308, 1),  # L1 + L3 overflows
        (1, 1e200, 1, 1, 1),  # L1 * L1 overflows
        (1, 1, 1e-160, 1, 1),  # below MIN_LENGTH
    ],
)
def test_geometry_rejects_non_finite_or_overflowing_lengths(lengths):
    with pytest.raises(ValueError):
        FiveBarGeometry(*lengths)


def test_geometry_accepts_lengths_up_to_the_bound():
    FiveBarGeometry(1e150, 1e150, 1e150, 1e150, 1e150)
    FiveBarGeometry(1e-150, 1e-150, 1e-150, 1e-150, 1e-150)


def test_builtin_mechanisms():
    assert M1.lengths == (9.0, 8.0, 5.0, 5.0, 8.0)
    assert M2.lengths == (2.55, 2.3, 2.3, 2.3, 2.3)
    assert M1.a1 == (0.0, 0.0)
    assert M1.a2 == (9.0, 0.0)


def test_mode_parsing_and_formatting():
    assert AssemblyMode.from_str("+") is AssemblyMode.POSITIVE
    assert str(AssemblyMode.from_str("-")) == "-"
    assert WorkingMode.from_str("+-") == WorkingMode(1, -1)
    assert str(WorkingMode(-1, 1)) == "-+"
    with pytest.raises(ValueError):
        AssemblyMode.from_str("x")
    with pytest.raises(ValueError):
        WorkingMode.from_str("+")
    with pytest.raises(ValueError):
        WorkingMode(0, 1)


# ---------------------------------------------------------------------------
# Elbow positions
# ---------------------------------------------------------------------------


def test_elbows_at_right_angles():
    box = Box2.point(PI / 2, PI / 2)
    res = dkp_box(box, M1)
    b1, b2 = res.b1, res.b2
    for component, expected in zip((*b1, *b2), (0.0, 8.0, 9.0, 5.0)):
        assert abs(component.mid - expected) < 1e-12
        assert component.width < 1e-12


def test_elbow_zero_angle():
    b1 = dkp_box(Box2.point(0.0, 0.0), M2).b1
    assert b1[0].contains(M2.L1) and b1[1].contains(0.0)


def test_elbow_full_circle_range():
    box = Box2(iv.full_angle(), iv.full_angle())
    b1 = dkp_box(box, M1).b1
    assert b1[0].lo <= -M1.L1 and b1[0].hi >= M1.L1
    assert b1[1].lo <= -M1.L1 and b1[1].hi >= M1.L1


# ---------------------------------------------------------------------------
# Direct kinematics (joint-space boxes)
# ---------------------------------------------------------------------------


def test_dkp_point_right_angles_valid_with_residuals():
    res = dkp_box(Box2.point(PI / 2, PI / 2), M1)
    assert res.status is Ternary.VALID
    assert len(res.solutions) == 2
    cfg_plus = configuration_at(PI / 2, PI / 2, M1, branch=1)
    sol = res.solution_for(AssemblyMode.POSITIVE)
    assert sol is not None
    assert sol.p[0].contains(cfg_plus.p[0])
    assert sol.p[1].contains(cfg_plus.p[1])
    # independent residual oracle at the solution midpoint
    px, py = sol.p[0].mid, sol.p[1].mid
    b1x, b1y = res.b1[0].mid, res.b1[1].mid
    b2x, b2y = res.b2[0].mid, res.b2[1].mid
    assert abs(math.hypot(px - b1x, py - b1y) - M1.L3) < 1e-6
    assert abs(math.hypot(px - b2x, py - b2y) - M1.L4) < 1e-6
    # frozen regression: position and certified sign of the + branch
    assert abs(px - 3.8832291625973387) < 1e-9
    assert abs(py - 11.149687487792015) < 1e-9
    assert sol.det_a.sign() == 1
    assert sol.det_a.contains(39.99687487792015)


def test_dkp_solution_signs_enclose_scalar_signs():
    res = dkp_box(Box2.point(PI / 2, PI / 2), M1)
    for branch in (1, -1):
        cfg = configuration_at(PI / 2, PI / 2, M1, branch=branch)
        t_z, u_z, v_z = scalar_signs(cfg, M1)
        sol = res.solution_for(AssemblyMode(1 if t_z > 0 else -1))
        assert sol.det_a.contains(t_z)
        assert sol.u_z.contains(u_z)
        assert sol.v_z.contains(v_z)


def test_dkp_box_out_of_reach_is_invalid():
    # actuators folded away from each other: b1 near (-8, 0), b2 near (14, 0)
    box = Box2.from_bounds(PI - 0.01, PI, 0.0, 0.01)
    res = dkp_box(box, M1)
    assert res.status is Ternary.INVALID
    # the elbows are certifiably farther apart than L3 + L4
    b1, b2 = res.b1, res.b2
    dist = ref.norm2(ref.sub(b2[0], b1[0]), ref.sub(b2[1], b1[1]))
    assert dist.lo > M1.L3 + M1.L4


def test_dkp_box_folded_too_close_is_invalid():
    # M1 elbows nearly coincident: distance below |L3 - L4| = 3
    t1, t2 = coincidence_configurations(M1)[0]
    res = dkp_box(Box2.from_bounds(t1 - 1e-3, t1 + 1e-3, t2 - 1e-3, t2 + 1e-3), M1)
    assert res.status is Ternary.INVALID


def test_dkp_coincidence_box_indeterminate_at_every_scale():
    (t1, t2), _ = coincidence_configurations(M2)
    for half_width in (0.1, 1e-3, 1e-6, 1e-9):
        box = Box2.from_bounds(
            t1 - half_width, t1 + half_width, t2 - half_width, t2 + half_width
        )
        assert dkp_box(box, M2).status is Ternary.INDETERMINATE
        assert dkp_box(box, M2, AssemblyMode.POSITIVE).status is Ternary.INDETERMINATE


def test_dkp_with_mode_point_valid():
    res = dkp_box(Box2.point(PI / 2, PI / 2), M1, AssemblyMode.NEGATIVE)
    assert res.status is Ternary.VALID
    assert res.solution_for(AssemblyMode.NEGATIVE) is not None


def test_dkp_shrinking_boxes_converge_to_valid():
    t1, t2 = 1.1, 2.0
    assert point_classify_joint(t1, t2, M2) == mech.VALID
    statuses = []
    for half_width in (0.5, 0.1, 0.01):
        box = Box2.from_bounds(
            t1 - half_width, t1 + half_width, t2 - half_width, t2 + half_width
        )
        statuses.append(dkp_box(box, M2).status)
    assert statuses[-1] is Ternary.VALID


# ---------------------------------------------------------------------------
# Inverse kinematics (workspace boxes)
# ---------------------------------------------------------------------------


def test_ikp_point_example_values():
    res = ikp_box(Box2.point(4.5, 6.0), M1)
    assert res.status is Ternary.VALID
    assert len(res.solutions) == 4
    dist1 = math.hypot(4.5, 6.0)
    assert abs(dist1 - 7.5) < 1e-12
    mids = sorted({round(s.theta1.mid, 5) for s in res.solutions})
    assert mids == [0.27345, 1.58114]
    # the cosine of the leg-1 triangle angle, from the law of cosines
    c1 = (M1.L1**2 + dist1**2 - M1.L3**2) / (2 * dist1 * M1.L1)
    assert abs(c1 - 0.79375) < 1e-12


def test_ikp_four_distinct_mode_tags():
    res = ikp_box(Box2.point(4.5, 6.0), M1)
    tags = {s.mode for s in res.solutions}
    assert len(tags) == 4
    assert tags == {WorkingMode(i, j) for i in (1, -1) for j in (1, -1)}


def test_ikp_solution_residuals_and_sign_enclosures():
    res = ikp_box(Box2.point(4.5, 6.0), M1)
    for sol in res.solutions:
        b1 = (sol.b1[0].mid, sol.b1[1].mid)
        b2 = (sol.b2[0].mid, sol.b2[1].mid)
        assert abs(math.hypot(*b1) - M1.L1) < 1e-6
        assert abs(math.hypot(b2[0] - M1.L0, b2[1]) - M1.L2) < 1e-6
        assert abs(math.hypot(4.5 - b1[0], 6.0 - b1[1]) - M1.L3) < 1e-6
        assert abs(math.hypot(4.5 - b2[0], 6.0 - b2[1]) - M1.L4) < 1e-6
        # elbow angles reproduce the elbows
        assert abs(M1.L1 * math.cos(sol.theta1.mid) - b1[0]) < 1e-6
        assert abs(M1.L1 * math.sin(sol.theta1.mid) - b1[1]) < 1e-6
        # cross-product enclosures contain the scalar values
        u_z = b1[0] * (6.0 - b1[1]) - b1[1] * (4.5 - b1[0])
        v_z = (b2[0] - M1.L0) * (6.0 - b2[1]) - b2[1] * (4.5 - b2[0])
        t_z = (b1[0] - 4.5) * (b2[1] - 6.0) - (b1[1] - 6.0) * (b2[0] - 4.5)
        assert sol.u_z.contains(u_z)
        assert sol.v_z.contains(v_z)
        assert sol.det_a.contains(t_z)
        assert sol.mode == WorkingMode(
            int(math.copysign(1, u_z)), int(math.copysign(1, v_z))
        )


def test_ikp_elbow_up_regression_sign():
    res = ikp_box(Box2.point(4.5, 6.0), M1)
    sol = res.solution_for(WorkingMode(1, 1))
    assert sol.u_z.sign() == 1
    assert sol.u_z.contains(36.49486632641028) or abs(sol.u_z.mid - 36.495) < 1e-2


def test_ikp_far_outside_is_invalid():
    assert ikp_box(Box2.point(50.0, 0.0), M1).status is Ternary.INVALID
    assert ikp_box(Box2.from_bounds(40, 60, -5, 5), M1).status is Ternary.INVALID


def test_ikp_hole_at_base_point_never_valid():
    # the inner leg-1 annulus of M2 degenerates to the point A1 = (0, 0)
    for half_width in (0.1, 1e-3, 1e-6):
        box = Box2.from_bounds(-half_width, half_width, -half_width, half_width)
        res = ikp_box(box, M2)
        assert res.status is not Ternary.VALID


def test_ikp_with_mode_point_valid():
    for wm_str in ("++", "+-", "-+", "--"):
        wm = WorkingMode.from_str(wm_str)
        res = ikp_box(Box2.point(4.5, 6.0), M1, wm)
        assert res.status is Ternary.VALID
        assert res.solution_for(wm) is not None


# lengths without an exact binary form, so the constants derived from them
# round (M1 and M2 derive mostly exact ones)
ODD = FiveBarGeometry(9.1, 7.9, 5.3, 4.9, 8.1)

# x of a point on the x axis where alpha1 (M1) or alpha2 (M2) lies at +-pi,
# so that the sign of a zero y changes theta. Leaf centres never have y = 0,
# and the `points` sets would merge 0.0 and -0.0.
X_AXIS = {M1: -3.5, M2: 3.0}


@pytest.mark.parametrize("g", [M1, M2, ODD], ids=["m1", "m2", "odd"])
def test_ikp_witness_matches_full_solver(g):
    # the witness depends on the working mode only: pool the leaf centres
    # of both assembly modes' trees, plus random points of the box
    box = mech.default_workspace_box(g)
    points = {}
    for combo in all_mode_combos():
        classify = mech.BoxClassifier(mech.WORKSPACE, g, combo.wm, combo.am)
        x_lo, x_hi, y_lo, y_hi = build(box, 6, classify).bounds()
        # the leaf box's Interval.mid, as pairing takes it
        xs = x_lo + (x_hi - x_lo) / 2
        ys = y_lo + (y_hi - y_lo) / 2
        points.setdefault(combo.wm, set()).update(zip(xs.tolist(), ys.tolist()))
    rng = np.random.default_rng(24)
    side = g.L1 + g.L3
    for pts in points.values():
        pts.update(map(tuple, rng.uniform(-side, side, (200, 2)).tolist()))
    axis = [(X_AXIS[g], 0.0), (X_AXIS[g], -0.0)] if g in X_AXIS else []
    outcomes = set()
    for wm, pts in points.items():
        for px, py in [*pts, *axis]:
            res = ikp_box(Box2.point(px, py), g, wm)
            expected = None
            if res.status is Ternary.VALID:
                sol = res.solution_for(wm)
                expected = (sol.theta1.mid, sol.theta2.mid)
            assert mech.ikp_witness(px, py, g, wm) == expected, (px, py, wm)
            outcomes.add(expected is None)
    assert outcomes == {True, False}
    for wm in points:
        thetas = [mech.ikp_witness(px, py, g, wm) for px, py in axis]
        assert None not in thetas and len(set(thetas)) == len(axis)


# ---------------------------------------------------------------------------
# Round trip and sampled soundness
# ---------------------------------------------------------------------------


def _random_valid_configuration(rng, g):
    while True:
        t1 = rng.uniform(-PI, PI)
        t2 = rng.uniform(-PI, PI)
        branch = 1 if rng.random() < 0.5 else -1
        cfg = configuration_at(t1, t2, g, branch)
        if cfg is None:
            continue
        t_z, u_z, v_z = scalar_signs(cfg, g)
        if min(abs(t_z), abs(u_z), abs(v_z)) < 1e-3:
            continue
        return cfg, (t_z, u_z, v_z)


def test_ikp_of_dkp_round_trip():
    rng = np.random.default_rng(21)
    for g in (M1, M2):
        for _ in range(200):
            cfg, (t_z, u_z, v_z) = _random_valid_configuration(rng, g)
            res = ikp_box(Box2.point(*cfg.p), g)
            assert res.status is Ternary.VALID
            wm = WorkingMode(
                int(math.copysign(1, u_z)), int(math.copysign(1, v_z))
            )
            sol = res.solution_for(wm)
            assert sol is not None
            assert abs(wrap(sol.theta1.mid - cfg.theta1)) < 1e-6
            assert abs(wrap(sol.theta2.mid - cfg.theta2)) < 1e-6


def test_dkp_point_solutions_enclose_scalar_oracle():
    rng = np.random.default_rng(22)
    for g in (M1, M2):
        for _ in range(200):
            cfg, (t_z, u_z, v_z) = _random_valid_configuration(rng, g)
            res = dkp_box(Box2.point(cfg.theta1, cfg.theta2), g)
            assert res.status is Ternary.VALID
            sol = res.solution_for(AssemblyMode(int(math.copysign(1, t_z))))
            assert sol is not None
            assert sol.p[0].contains(cfg.p[0]) and sol.p[1].contains(cfg.p[1])
            assert sol.det_a.contains(t_z)
            assert sol.u_z.contains(u_z)
            assert sol.v_z.contains(v_z)


def test_dkp_box_classification_sound_on_samples():
    rng = np.random.default_rng(23)
    for g in (M1, M2):
        for _ in range(150):
            cx, cy = rng.uniform(-PI, PI, 2)
            half_width = rng.uniform(1e-3, 0.4)
            box = Box2.from_bounds(
                cx - half_width, cx + half_width, cy - half_width, cy + half_width
            )
            res = dkp_box(box, g)
            if res.status is Ternary.INDETERMINATE:
                continue
            for _ in range(20):
                t1 = rng.uniform(box.x.lo, box.x.hi)
                t2 = rng.uniform(box.y.lo, box.y.hi)
                verdict = point_classify_joint(t1, t2, g)
                if res.status is Ternary.VALID:
                    assert verdict == mech.VALID
                else:
                    assert verdict != mech.VALID


def test_ikp_box_classification_sound_on_samples():
    rng = np.random.default_rng(24)
    for g in (M1, M2):
        reach = g.L1 + g.L3
        for _ in range(150):
            cx, cy = rng.uniform(-reach, reach, 2)
            half_width = rng.uniform(1e-3, 0.3 * reach)
            box = Box2.from_bounds(
                cx - half_width, cx + half_width, cy - half_width, cy + half_width
            )
            res = ikp_box(box, g)
            if res.status is Ternary.INDETERMINATE:
                continue
            for _ in range(20):
                px = rng.uniform(box.x.lo, box.x.hi)
                py = rng.uniform(box.y.lo, box.y.hi)
                verdict = point_classify_workspace(px, py, g)
                if res.status is Ternary.VALID:
                    assert verdict == mech.VALID
                else:
                    assert verdict != mech.VALID


# ---------------------------------------------------------------------------
# Scalar point classifiers
# ---------------------------------------------------------------------------


def test_point_classify_joint_examples():
    assert point_classify_joint(1.1, 2.0, M2) == mech.VALID
    # actuators folded away from each other: elbows too far apart for M1
    assert point_classify_joint(PI - 0.005, 0.005, M1) == mech.INVALID
    for t1, t2 in coincidence_configurations(M2):
        assert point_classify_joint(t1, t2, M2) == mech.SINGULAR


def test_point_classify_workspace_examples():
    assert point_classify_workspace(4.5, 6.0, M1) == mech.VALID
    assert point_classify_workspace(50.0, 0.0, M1) == mech.INVALID
    # boundary of the leg-1 annulus
    assert point_classify_workspace(M1.L1 + M1.L3, 0.0, M1) == mech.SINGULAR
    # the point hole of M2 at A1
    assert point_classify_workspace(0.0, 0.0, M2) == mech.SINGULAR


def test_point_classify_with_combo_partitions_modes():
    # at a generic valid point each working mode fixes the elbows, so it is
    # valid for exactly one assembly mode; over both assembly modes all four
    # working modes appear exactly once
    px, py = 4.5, 6.0
    total_valid = 0
    for i in (1, -1):
        for j in (1, -1):
            verdicts = [
                point_classify_workspace(px, py, M1, (WorkingMode(i, j), am))
                for am in (AssemblyMode.POSITIVE, AssemblyMode.NEGATIVE)
            ]
            assert verdicts.count(mech.VALID) == 1
            total_valid += verdicts.count(mech.VALID)
    assert total_valid == 4


def test_coincidence_configurations_elbows_coincide():
    for g in (M1, M2):
        configs = coincidence_configurations(g)
        assert len(configs) == 2
        for t1, t2 in configs:
            b1, b2 = mech._scalar_elbows(t1, t2, g)
            assert math.hypot(b1[0] - b2[0], b1[1] - b2[1]) < 1e-12
    # frozen values
    (t1, t2), (m1, m2) = coincidence_configurations(M2)
    assert abs(t1 - 0.9832171596943367) < 1e-12
    assert abs(t2 - 2.1583754938954565) < 1e-12
    assert (m1, m2) == (-t1, -t2)
    assert abs(math.cos(t1) - M2.L0 / (2 * M2.L1)) < 1e-12
    assert abs((t1 + t2) - PI) < 1e-12


def test_coincidence_configurations_empty_when_circles_disjoint():
    g = FiveBarGeometry(10.0, 1.0, 1.0, 5.0, 5.0)
    assert coincidence_configurations(g) == ()
