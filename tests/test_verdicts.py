"""Row-by-row agreement of the batch verdicts with the full solvers.

The reference is the verdict the box classifiers computed from the full
solution sets of `dkp_box` / `ikp_box` (in `helpers`), box by box with
scalar intervals, before the verdict functions existed. The batch kernel
shares no code with it. Also covered: batches that straddle the CHUNK
seams of a build, the per-box call of a classifier, builds through the
per-box fallback, and a geometry whose rounded law-of-cosines constant
once made White leaves of reachable boxes. A batch gives its boxes as
axis tables and indices into them: any tables give the verdicts of the
same boxes passed one entry per box. The joint verdict maps sin and cos
once per distinct angle endpoint of its tables: it must agree on batches
whose boxes share their edges, and a build must not map more values than
that.
"""

import math
import types

import numpy as np
import pytest

from fivebar import interval as iv
from fivebar import mechanism as mech
from fivebar import quadtree as qt
from fivebar.aspects import all_mode_combos
from fivebar.bench import JOINTSPACE, WORKSPACE, space_box, space_classifier
from fivebar.interval import Box2
from fivebar.mechanism import (
    M1,
    M2,
    AssemblyMode,
    BoxClassifier,
    WorkingMode,
    joint_verdicts,
    workspace_verdicts,
)
from fivebar.quadtree import CHUNK, build, refine, serialize

from helpers import (
    Ternary,
    box_bounds,
    box_tables,
    build_rows,
    coincidence_configurations,
    dkp_box,
    grid_rows,
    ikp_box,
)

GEOMETRIES = {"m1": M1, "m2": M2}
WORKING_MODES = [WorkingMode(s1, s2) for s1 in (1, -1) for s2 in (1, -1)]
# (am, wm) for the joint space, (wm, am) for the workspace: every mode
# setting a classifier can be built for
JOINT_MODES = (
    [(None, None)]
    + [(am, None) for am in AssemblyMode]
    + [(c.am, c.wm) for c in all_mode_combos()]
)
WORKSPACE_MODES = (
    [(None, None)]
    + [(wm, None) for wm in WORKING_MODES]
    + [(c.wm, c.am) for c in all_mode_combos()]
)
# half-widths of the boxes placed around special points (0: point boxes)
HALF_WIDTHS = (0.0, 1e-13, 1e-9, 1e-6, 1e-3, 3e-2)


def reference_joint(box, g, am, wm):
    res = dkp_box(box, g, am)
    if wm is None or res.status is not Ternary.VALID:
        return int(res.status)
    sol = res.solution_for(am)
    su, sv = sol.u_z.sign(), sol.v_z.sign()
    if su == wm.s1 and sv == wm.s2:
        return 1
    if (su != 0 and su != wm.s1) or (sv != 0 and sv != wm.s2):
        return -1
    return 0


def reference_workspace(box, g, wm, am):
    res = ikp_box(box, g, wm)
    if am is None or res.status is not Ternary.VALID:
        return int(res.status)
    sol = res.solution_for(wm)
    if sol is None:
        return 0
    s = sol.det_a.sign()
    if s == int(am):
        return 1
    if s != 0:
        return -1
    return 0


SPACES = {
    JOINTSPACE: (joint_verdicts, reference_joint, JOINT_MODES),
    WORKSPACE: (workspace_verdicts, reference_workspace, WORKSPACE_MODES),
}


def _bounds(boxes) -> tuple[np.ndarray, ...]:
    return tuple(
        np.array(col, dtype=np.float64)
        for col in zip(*((b.x.lo, b.x.hi, b.y.lo, b.y.hi) for b in boxes))
    )


def _boxes(x_lo, x_hi, y_lo, y_hi) -> list[Box2]:
    cols = (x_lo.tolist(), x_hi.tolist(), y_lo.tolist(), y_hi.tolist())
    return [Box2.from_bounds(*b) for b in zip(*cols)]


def _assert_rows_agree(space, g, a, b, bounds, verdicts) -> None:
    reference = SPACES[space][1]
    assert verdicts.dtype == np.int8 and len(verdicts) == len(bounds[0])
    for box, v in zip(_boxes(*bounds), verdicts.tolist()):
        assert v == reference(box, g, a, b), (box, a, b)


def _assert_agree(space, g, boxes) -> set[int]:
    """One batch per mode setting over all ``boxes``, row by row against
    the reference; returns the verdicts seen."""
    verdict, _, modes = SPACES[space]
    bounds = _bounds(list(boxes))
    seen = set()
    for a, b in modes:
        v = verdict(*box_tables(*bounds), g, a, b)
        _assert_rows_agree(space, g, a, b, bounds, v)
        seen.update(v.tolist())
    return seen


def _boxes_around(points, rng):
    """Boxes of every HALF_WIDTHS size centred on each point, plus one shifted
    at random so that it may also miss the point by up to twice its width."""
    for x, y in points:
        for h in HALF_WIDTHS:
            yield Box2.from_bounds(x - h, x + h, y - h, y + h)
            if h:
                fx, fy = rng.uniform(-4.0 * h, 6.0 * h, 2)
                yield Box2.from_bounds(x - fx, x - fx + 2 * h, y - fy, y - fy + 2 * h)


def _ulp_scan(points, n=64):
    """Point boxes at the 2n doubles around y of each point on a boundary
    curve: there a cosine enclosure ends within an ulp or two of +-1, where
    the sine enclosure may still reach 0."""
    for x, y in points:
        for _ in range(n):
            y = math.nextafter(y, -math.inf)
        for _ in range(2 * n):
            yield Box2.point(x, y)
            y = math.nextafter(y, math.inf)


class _CheckedBatches:
    """A batch classifier that checks every row it returns against the
    reference and records the size of each batch."""

    def __init__(self, space, g, a, b):
        self.space, self.g, self.a, self.b = space, g, a, b
        self.sizes = []

    def batch(self, *tables):
        v = SPACES[self.space][0](*tables, self.g, self.a, self.b)
        _assert_rows_agree(self.space, self.g, self.a, self.b, box_bounds(*tables), v)
        self.sizes.append(len(v))
        return v


@pytest.mark.parametrize("space", [JOINTSPACE, WORKSPACE])
@pytest.mark.parametrize("name", sorted(GEOMETRIES))
def test_verdicts_match_reference_on_every_built_box(name, space):
    g = GEOMETRIES[name]
    for a, b in SPACES[space][2]:
        classify = _CheckedBatches(space, g, a, b)
        model = build(space_box(g, space), 6, classify)
        # one batch: every box of levels 0..6, the grid of a build's top
        # levels, so every box the tree tests and the others
        assert classify.sizes == [grid_rows(6, paired=False)]
        assert model.stats.calls > 1


def test_verdicts_match_reference_at_elbow_coincidence():
    rng = np.random.default_rng(31)
    for g in (M1, M2):
        points = coincidence_configurations(g)
        assert points
        _assert_agree(JOINTSPACE, g, _boxes_around(points, rng))


def _joint_points_at_gap(g, r, t1s):
    """(t1, t2) with |B1B2| = r: B2 on the circle of radius L2 about A2."""
    out = []
    for t1 in t1s:
        bx, by = g.L1 * math.cos(t1), g.L1 * math.sin(t1)
        ex, ey = bx - g.L0, by
        d = math.hypot(ex, ey)
        if not abs(g.L2 - r) <= d <= g.L2 + r:
            continue
        a = (g.L2 * g.L2 - r * r + d * d) / (2.0 * d)
        h = math.sqrt(max(0.0, g.L2 * g.L2 - a * a))
        for sign in (1, -1):
            x = a * ex / d - sign * h * ey / d
            y = a * ey / d + sign * h * ex / d
            out.append((t1, math.atan2(y, x)))
    return out


def test_verdicts_match_reference_across_stretched_and_folded_legs():
    # cos(alpha) = +1 / -1 where the distal links are stretched / folded
    rng = np.random.default_rng(32)
    for g in (M1, M2):
        t1s = rng.uniform(-math.pi, math.pi, 24)
        seen = set()
        for r in {g.L3 + g.L4, abs(g.L3 - g.L4)} - {0.0}:
            points = _joint_points_at_gap(g, r, t1s)
            assert points
            seen |= _assert_agree(JOINTSPACE, g, _boxes_around(points, rng))
            seen |= _assert_agree(JOINTSPACE, g, _ulp_scan(points[:6]))
        assert {-1, 0, 1} <= seen


def test_verdicts_match_reference_across_annulus_radii():
    rng = np.random.default_rng(33)
    for g in (M1, M2):
        circles = [
            (0.0, r) for r in {g.L1 + g.L3, abs(g.L1 - g.L3)} - {0.0}
        ] + [(g.L0, r) for r in {g.L2 + g.L4, abs(g.L2 - g.L4)} - {0.0}]
        # the base joints themselves when an annulus degenerates to a disc
        points = [(0.0, 0.0), (g.L0, 0.0)]
        for cx, r in circles:
            points += [
                (cx + r * math.cos(phi), r * math.sin(phi))
                for phi in rng.uniform(-math.pi, math.pi, 24)
            ]
        seen = _assert_agree(WORKSPACE, g, _boxes_around(points, rng))
        seen |= _assert_agree(WORKSPACE, g, _ulp_scan(points[2::16]))
        assert {-1, 0, 1} <= seen


def test_no_white_leaf_inside_the_inner_radius_of_a_rounded_annulus():
    # L1 * L1 - L3 * L3 rounds with a relative error of about 1e-11 at
    # c1 close to -1, far beyond the widening of one operation. Once both
    # legs reach the box strictly, a c1 enclosure below -1 is that rounding
    # and leaves the box undecided: a White leaf lies wholly within the
    # inner radius L3 - L1 (exact here), at or below it on the x axis.
    g = mech.FiveBarGeometry(9.0, 5.0, 8.0, 5.000005, 8.0)
    box = Box2.from_bounds(4.99999999981e-06, 4.99999999983e-06, -1e-20, 1e-20)
    r1_in = g.L3 - g.L1
    assert box.x.lo < r1_in < box.x.hi
    plus, minus = WorkingMode(1, 1), WorkingMode(-1, 1)
    for wm, am in ((None, None), (plus, None), (minus, None),
                   (plus, AssemblyMode(1)), (minus, AssemblyMode(1))):
        m = build(box, 3, BoxClassifier(WORKSPACE, g, wm, am))
        _, x_hi, _, _ = m.bounds(m.table.kind == qt.CODE_WHITE)
        assert (x_hi <= r1_in).all(), (wm, am)


def test_boxes_a_subnormal_distance_from_a_base_joint_return_verdicts():
    # with an equal-link leg, r_in = 0 and the strict annulus test passes a
    # box whose distance to A1 or A2 is subnormal; a length times that
    # distance then rounds down to 0, and a division by it must leave the
    # box undecided rather than fail. Every point here is strictly
    # reachable, and all four working modes exist at each, so only a full
    # combo may say -1. The reference leaves a box undecided where it would
    # divide by such a divisor, as the kernel does, so every verdict must
    # agree with it.
    geometries = (
        mech.FiveBarGeometry(0.1, 0.1, 0.1, 0.1, 0.1),
        mech.FiveBarGeometry(0.001, 1.0, 0.001, 1.0, 0.001),
        M2,
    )
    tiny = 5e-324
    for g in geometries:
        beyond_a2 = math.nextafter(g.L0, math.inf)
        rows = []
        for k in range(1, 9):
            lo, hi = k * tiny, (k + 2) * tiny
            rows += [(lo, hi, lo, hi), (lo, hi, -hi, -lo), (g.L0, beyond_a2, lo, hi)]
        bounds = tuple(np.array(col) for col in zip(*rows))
        for wm, am in WORKSPACE_MODES:
            v = workspace_verdicts(*box_tables(*bounds), g, wm, am)
            assert len(v) == len(rows)
            if am is None:
                assert (v >= 0).all(), (g, wm)
            for box, verdict in zip(_boxes(*bounds), v.tolist()):
                assert verdict == reference_workspace(box, g, wm, am), (g, wm, am, box)


def _shared_edge_boxes(rng, count=600):
    """Joint-space boxes whose edges repeat across rows, as in a frontier:
    cells of a coarse grid, signed zeros, and angles a few ulps around
    k pi/2, paired at random into boxes."""
    grid = np.linspace(-math.pi, math.pi, 257).tolist()
    quarters = []
    for k in range(-4, 5):
        x = k * (math.pi / 2)
        for _ in range(3):
            x = math.nextafter(x, -math.inf)
        for _ in range(7):
            quarters.append(x)
            x = math.nextafter(x, math.inf)
    ends = sorted(set(grid + quarters))
    spans = []
    for _ in range(count // 4):
        i = int(rng.integers(0, len(ends) - 4))
        spans.append(tuple(sorted((ends[i], ends[i + int(rng.integers(0, 4))]))))
    spans += [(-0.0, 0.5), (0.0, 0.5), (-0.5, -0.0), (-0.5, 0.0), (-0.0, -0.0), (0.0, 0.0)]
    for _ in range(count):
        (a, b), (c, d) = (spans[k] for k in rng.integers(0, len(spans), 2))
        yield Box2.from_bounds(a, b, c, d)


def test_joint_verdicts_match_reference_on_shared_edges():
    rng = np.random.default_rng(35)
    for g in (M1, M2):
        boxes = list(_shared_edge_boxes(rng))
        seen = _assert_agree(JOINTSPACE, g, boxes)
        assert {-1, 0, 1} <= seen
        # one box alone: the smallest batch
        _assert_agree(JOINTSPACE, g, boxes[:1])


def test_joint_build_maps_trig_once_per_distinct_endpoint(monkeypatch):
    # mode-free, the joint verdict reads cos and sin of theta1 and theta2
    # only: per batch, math.cos may run once per distinct endpoint of the
    # axis tables of each
    box, classify = space_box(M1, JOINTSPACE), space_classifier(M1, JOINTSPACE)
    top = build(box, qt.TOP, classify).calls  # the calls of levels 0..TOP
    counting = types.SimpleNamespace(**vars(math))
    calls = []

    def cos(x):
        calls.append(x)
        return math.cos(x)

    counting.cos = cos
    monkeypatch.setattr(iv, "math", counting)
    batches = []
    real = mech.joint_verdicts

    def joint_verdicts(x, y, ix, iy, *args):
        before = len(calls)
        v = real(x, y, ix, iy, *args)
        distinct = sum(len(np.unique(np.concatenate(t).view(np.int64))) for t in (x, y))
        batches.append((len(calls) - before, distinct, len(x[0]) + len(y[0]), len(ix)))
        return v

    monkeypatch.setattr(mech, "joint_verdicts", joint_verdicts)
    model = build(box, 10, classify)
    assert model.stats.calls == 33397
    # the build classifies one box of each mirror pair below the root: in
    # the grid of levels 0..TOP, then level by level
    assert sum(boxes for *_, boxes in batches) == build_rows(10, 33397, top, paired=True) == 18407
    for mapped, distinct, _, boxes in batches:
        assert mapped <= distinct, (mapped, distinct, boxes)
    # a box's column and row are shared by the boxes beside it: the tables
    # hold each once, per-box bounds would take two entries per box
    assert 5 * sum(entries for _, _, entries, _ in batches) < model.stats.calls


def test_partial_modes_outside_their_space_are_rejected():
    bounds = _bounds([Box2.point(1.0, 2.0)])
    with pytest.raises(ValueError):
        joint_verdicts(*box_tables(*bounds), M1, None, WORKING_MODES[0])
    with pytest.raises(ValueError):
        workspace_verdicts(*box_tables(*bounds), M1, None, AssemblyMode.POSITIVE)
    with pytest.raises(ValueError):
        BoxClassifier(JOINTSPACE, M1, wm=WORKING_MODES[0])
    with pytest.raises(ValueError):
        BoxClassifier(WORKSPACE, M1, am=AssemblyMode.POSITIVE)
    with pytest.raises(ValueError):
        BoxClassifier("elsewhere", M1)


def _random_bounds(space, g, n, rng) -> tuple[np.ndarray, ...]:
    """n boxes across the space box, of widths from a point to 1/4 of it, so
    that every verdict and every stage of the kernel occurs."""
    root = space_box(g, space)
    side = root.x.width
    w = side * np.where(rng.random((2, n)) < 0.1, 0.0, 2.0 ** rng.uniform(-12, -2, (2, n)))
    x_lo = rng.uniform(root.x.lo, root.x.hi - w[0])
    y_lo = rng.uniform(root.y.lo, root.y.hi - w[1])
    return x_lo, x_lo + w[0], y_lo, y_lo + w[1]


# one (first, second) mode argument pair per space that runs every stage
FULL_COMBO = {
    JOINTSPACE: (AssemblyMode.POSITIVE, WorkingMode(1, -1)),
    WORKSPACE: (WorkingMode(1, -1), AssemblyMode.POSITIVE),
}


@pytest.mark.parametrize("n", [CHUNK - 1, CHUNK, CHUNK + 1, 2 * CHUNK + 3])
@pytest.mark.parametrize("space", [JOINTSPACE, WORKSPACE])
def test_chunked_frontier_matches_reference(space, n):
    # a build classifies a frontier CHUNK boxes at a time; the verdicts must
    # not depend on where the seams fall
    g = M1
    a, b = FULL_COMBO[space]
    bounds = _random_bounds(space, g, n, np.random.default_rng(n))
    classify = _CheckedBatches(space, g, a, b)
    v = qt._verdicts(classify, *box_tables(*bounds))
    full, rest = divmod(n, CHUNK)
    assert classify.sizes == [CHUNK] * full + ([rest] if rest else [])
    assert v.tolist() == SPACES[space][0](*box_tables(*bounds), g, a, b).tolist()
    assert {-1, 0, 1} <= set(v.tolist())


def _shuffled_tables(bounds, rng) -> tuple:
    """Axis tables of the boxes ``bounds``, then of as many more that pair
    the x of one with the y of another: each side's intervals, some twice,
    in a random table order, with unsorted and repeated indices."""
    n = len(bounds[0])
    out = []
    for lo, hi in (bounds[:2], bounds[2:]):
        entries = rng.permutation(np.concatenate([np.arange(n), rng.integers(0, n, n // 4)]))
        at = np.empty(n, dtype=np.intp)
        at[entries] = np.arange(len(entries))  # an entry of each box's interval
        index = np.concatenate([at, rng.integers(0, len(entries), n)])
        out.append(((lo[entries], hi[entries]), index))
    (x, ix), (y, iy) = out
    return x, y, ix, iy


def _special_bounds(space, g) -> tuple[np.ndarray, ...]:
    """Point boxes, boxes with edges on multiples of pi/2 and boxes a
    subnormal distance from A1 and A2."""
    tiny = 5e-324
    quarters = [k * (math.pi / 2) for k in range(-2, 3)]
    rows = [(a, a, b, b) for a in quarters for b in quarters[::2]]
    rows += [(a, a + 0.5, b - 0.25, b) for a in quarters for b in quarters[1::2]]
    rows += [(-0.0, 0.0, 0.0, 1.0), (0.0, 0.0, -0.0, -0.0)]
    if space == WORKSPACE:
        for k in (1, 3):
            lo, hi = k * tiny, (k + 2) * tiny
            rows += [(lo, hi, lo, hi), (lo, hi, -hi, -lo)]
            rows += [(g.L0, math.nextafter(g.L0, math.inf), lo, hi)]
    return tuple(np.array(col) for col in zip(*rows))


@pytest.mark.parametrize("space", [JOINTSPACE, WORKSPACE])
def test_axis_tables_give_the_verdicts_of_per_box_bounds(space):
    # a box is x[ix[k]] x y[iy[k]] wherever its intervals sit in the tables:
    # every row's verdict is that of its bounds passed one entry per box
    rng = np.random.default_rng(36)
    verdict, _, modes = SPACES[space]
    for name, g in sorted(GEOMETRIES.items()):
        random = _random_bounds(space, g, 600, rng)
        special = _special_bounds(space, g)
        bounds = tuple(np.concatenate(cols) for cols in zip(random, special))
        tables = _shuffled_tables(bounds, rng)
        per_box = box_bounds(*tables)
        n = len(bounds[0])
        for got, want in zip(per_box, bounds):
            assert np.array_equal(got[:n].view(np.int64), want.view(np.int64))
        seen = set()
        for a, b in modes:
            v = verdict(*tables, g, a, b)
            assert v.tolist() == verdict(*box_tables(*per_box), g, a, b).tolist(), (name, a, b)
            seen.update(v.tolist())
        assert {-1, 0, 1} <= seen, name


@pytest.mark.parametrize("space", [JOINTSPACE, WORKSPACE])
def test_per_box_call_equals_batch(space):
    rng = np.random.default_rng(34)
    for name, g in sorted(GEOMETRIES.items()):
        bounds = _random_bounds(space, g, 100, rng)
        boxes = _boxes(*bounds)
        for a, b in SPACES[space][2]:
            wm, am = (b, a) if space == JOINTSPACE else (a, b)
            classify = BoxClassifier(space, g, wm, am)
            v = classify.batch(*box_tables(*bounds))
            assert [classify(box) for box in boxes] == v.tolist(), (name, a, b)


@pytest.mark.parametrize("space", [JOINTSPACE, WORKSPACE])
def test_per_box_fallback_builds_the_same_trees(space):
    # a classifier without `batch` (a plain function) is called box by box;
    # a batch of one costs some 100 numpy calls, so the trees stay small
    modes = SPACES[space][2]
    for name, g in sorted(GEOMETRIES.items()):
        for a, b in (modes[0], modes[1], modes[-1]):
            wm, am = (b, a) if space == JOINTSPACE else (a, b)
            classify = BoxClassifier(space, g, wm, am)
            per_box = lambda box: classify(box)  # noqa: E731
            box = space_box(g, space)
            fresh = build(box, 4, classify)
            plain = build(box, 4, per_box)
            assert serialize(plain) == serialize(fresh), (name, a, b)
            assert plain.stats == fresh.stats
            deeper = refine(fresh, 5, classify)
            for first, then in ((fresh, per_box), (plain, classify)):
                other = refine(first, 5, then)
                assert serialize(other) == serialize(deeper), (name, a, b)
                assert other.stats == deeper.stats
