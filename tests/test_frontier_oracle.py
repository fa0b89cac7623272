"""An oracle that shares no float64 rounding: the Black frontier of the
mode-free tree and of every mode combo tree, checked in 200-bit arithmetic
with mpmath.

A full combo's Black verdict certifies three facts over the whole box: the
mode-free conditions hold strictly, det A carries the assembly-mode sign,
and u_z and v_z carry the working-mode signs. The kernel proves only one of
the two signs by a sign test; the other follows from the sine stage by an
exact identity. Here each fact is recomputed from the configuration itself
(elbows, end point and cross products) at sample points of the finest Black
leaves, where a box borders the undecided frontier: both corners and one
interior point of each.

A mode-free Black verdict certifies the first fact alone: in the joint
space |L3 - L4| < |B1B2| < L3 + L4, in the workspace the end point lies
strictly inside both annuli. Its samples are taken from the Black leaves
next to an Undetermined leaf, and from those next to a White leaf, found
by the probes of labeling: the cell just past each edge at the leaf's low
corner. A Black and a White box that share an edge would make the points
of that edge both valid and invalid, so no tree has such a pair.

The geometries are M1, M2 and M2 with its lengths scaled apart by up to
1 % (perfbench's seed 7), whose constants are not exact in float64.
"""

import mpmath
import numpy as np
import pytest

from fivebar import quadtree as qt
from fivebar.aspects import all_mode_combos
from fivebar.bench import JOINTSPACE, WORKSPACE, space_box, space_classifier
from fivebar.mechanism import M1, M2, BoxClassifier, FiveBarGeometry

GEOMETRIES = {
    "m1": M1,
    "m2": M2,
    "m2 seed 7": FiveBarGeometry(
        2.569051225715209,
        2.277242204010016,
        2.314776507245607,
        2.3136651937225943,
        2.2985250078308113,
    ),
}
DEPTH = 8
LEAVES_PER_TREE = 20
PREC = 200


def _cross(ax, ay, bx, by):
    return ax * by - ay * bx


def _sign(v) -> int:
    return 1 if v > 0 else -1 if v < 0 else 0


def _joint_facts(t1, t2, g, am=None, wm=None) -> list[str]:
    """The certified facts that fail at the base angles (t1, t2); without
    a mode, the mode-free one alone."""
    L0, L1, L2, L3, L4 = map(mpmath.mpf, g.lengths)
    b1x, b1y = L1 * mpmath.cos(t1), L1 * mpmath.sin(t1)
    b2x, b2y = L0 + L2 * mpmath.cos(t2), L2 * mpmath.sin(t2)
    dx, dy = b2x - b1x, b2y - b1y
    dist = mpmath.sqrt(dx * dx + dy * dy)
    if not abs(L3 - L4) < dist < L3 + L4:
        return ["assemblable, neither stretched nor folded"]
    if am is None:
        return []
    # the end point of branch am: B1B2 turned by am * alpha, scaled to L3
    c = (dist * dist + L3 * L3 - L4 * L4) / (2 * L3 * dist)
    s = int(am) * mpmath.sqrt(1 - c * c)
    px = b1x + L3 * (c * dx - s * dy) / dist
    py = b1y + L3 * (c * dy + s * dx) / dist
    failed = []
    if _sign(_cross(b1x - px, b1y - py, b2x - px, b2y - py)) != int(am):
        failed.append("det A")
    if _sign(_cross(b1x, b1y, px - b1x, py - b1y)) != wm.s1:
        failed.append("u_z")
    if _sign(_cross(b2x - L0, b2y, px - b2x, py - b2y)) != wm.s2:
        failed.append("v_z")
    return failed


def _workspace_facts(px, py, g, wm=None, am=None) -> list[str]:
    """The certified facts that fail at the end point (px, py); without a
    mode, the mode-free one alone."""
    L0, L1, L2, L3, L4 = map(mpmath.mpf, g.lengths)
    m1 = mpmath.sqrt(px * px + py * py)
    m2 = mpmath.sqrt((px - L0) ** 2 + py * py)
    if not (abs(L1 - L3) < m1 < L1 + L3 and abs(L2 - L4) < m2 < L2 + L4):
        return ["strictly inside both annuli"]
    if wm is None:
        return []
    beta1 = mpmath.acos((m1 * m1 + L1 * L1 - L3 * L3) / (2 * L1 * m1))
    beta2 = mpmath.acos((m2 * m2 + L2 * L2 - L4 * L4) / (2 * L2 * m2))
    # the elbow branches (i, j) = (-wm.s1, -wm.s2) of working mode wm
    t1 = mpmath.atan2(py, px) - wm.s1 * beta1
    t2 = mpmath.pi - mpmath.atan2(py, L0 - px) - wm.s2 * beta2
    b1x, b1y = L1 * mpmath.cos(t1), L1 * mpmath.sin(t1)
    b2x, b2y = L0 + L2 * mpmath.cos(t2), L2 * mpmath.sin(t2)
    failed = []
    if _sign(_cross(b1x, b1y, px - b1x, py - b1y)) != wm.s1:
        failed.append("u_z")
    if _sign(_cross(b2x - L0, b2y, px - b2x, py - b2y)) != wm.s2:
        failed.append("v_z")
    if _sign(_cross(b1x - px, b1y - py, b2x - px, b2y - py)) != int(am):
        failed.append("det A")
    return failed


def _frontier_points(model, rng):
    """Sample points of up to LEAVES_PER_TREE of the finest Black leaves."""
    t = model.table
    black = np.flatnonzero(t.kind == qt.CODE_BLACK)
    return _sample_points(model, black[t.level[black] == t.level[black].max()], rng)


def _next_to(t: qt.LeafTable, kind: int) -> np.ndarray:
    """Black rows with a leaf of ``kind`` just past one of their edges,
    probed as `qt._black_edges` does: at the cell past the edge at the
    leaf's low corner, inside the grid."""
    n = 1 << t.depth
    black = np.flatnonzero(t.kind == qt.CODE_BLACK)
    x, y = qt._compact_bits(t.keys[black]), qt._compact_bits(t.keys[black] >> 1)
    s = np.left_shift(1, t.depth - t.level[black])
    near = np.zeros(len(black), dtype=bool)
    for cx, cy in ((x + s, y), (x, y + s), (x - 1, y), (x, y - 1)):
        inside = (cx >= 0) & (cx < n) & (cy >= 0) & (cy < n)
        near[inside] |= t.kind[t.find(cx[inside], cy[inside])] == kind
    return black[near]


def _sample_points(model, candidates, rng):
    """Low corner, high corner and one interior point of up to
    LEAVES_PER_TREE of the leaves at rows ``candidates``, as exact mpf
    pairs."""
    rows = np.sort(rng.choice(candidates, min(LEAVES_PER_TREE, len(candidates)), replace=False))
    x_lo, x_hi, y_lo, y_hi = model.bounds(rows)
    fx, fy = rng.uniform(0.0, 1.0, (2, len(rows)))
    points = []
    for xl, xh, yl, yh, u, v in zip(x_lo, x_hi, y_lo, y_hi, fx, fy):
        inner = (xl + u * (xh - xl), yl + v * (yh - yl))
        for x, y in ((xl, yl), (xh, yh), inner):
            points.append((mpmath.mpf(float(x)), mpmath.mpf(float(y))))
    return points


@pytest.mark.parametrize("space", [JOINTSPACE, WORKSPACE])
@pytest.mark.parametrize("name", sorted(GEOMETRIES))
def test_finest_black_leaves_of_every_combo_hold_in_200_bits(name, space):
    g = GEOMETRIES[name]
    rng = np.random.default_rng(17)
    checked, failures = 0, []
    with mpmath.workprec(PREC):
        for combo in all_mode_combos():
            model = qt.build(
                space_box(g, space), DEPTH, BoxClassifier(space, g, combo.wm, combo.am)
            )
            assert not len(_next_to(model.table, qt.CODE_WHITE)), str(combo)
            for x, y in _frontier_points(model, rng):
                if space == JOINTSPACE:
                    failed = _joint_facts(x, y, g, combo.am, combo.wm)
                else:
                    failed = _workspace_facts(x, y, g, combo.wm, combo.am)
                checked += 1
                if failed:
                    failures.append((str(combo.wm), str(combo.am), float(x), float(y), failed))
    assert checked == 8 * 3 * LEAVES_PER_TREE
    assert not failures, failures[:5]


def _mode_free_leaves(name, space, neighbour):
    """The mode-free tree's Black rows next to a ``neighbour`` leaf, and
    the 200-bit check of their sample points: (points, failures)."""
    g = GEOMETRIES[name]
    rng = np.random.default_rng(17)
    model = qt.build(space_box(g, space), DEPTH, space_classifier(g, space))
    rows = _next_to(model.table, neighbour)
    facts = _joint_facts if space == JOINTSPACE else _workspace_facts
    with mpmath.workprec(PREC):
        points = _sample_points(model, rows, rng)
        failures = [(float(x), float(y)) for x, y in points if facts(x, y, g)]
    return points, failures


@pytest.mark.parametrize("space", [JOINTSPACE, WORKSPACE])
@pytest.mark.parametrize("name", sorted(GEOMETRIES))
def test_mode_free_black_leaves_next_to_undetermined_ones_hold_in_200_bits(name, space):
    points, failures = _mode_free_leaves(name, space, qt.CODE_UNDET)
    assert len(points) == 3 * LEAVES_PER_TREE
    assert not failures, failures[:5]


@pytest.mark.parametrize("space", [JOINTSPACE, WORKSPACE])
@pytest.mark.parametrize("name", sorted(GEOMETRIES))
def test_mode_free_black_leaves_next_to_white_ones_hold_in_200_bits(name, space):
    # a defect that decides a whole boundary band Black puts Black leaves
    # next to White ones; the points of an edge that a Black and a White
    # box share cannot be both valid and invalid, so there are none
    points, failures = _mode_free_leaves(name, space, qt.CODE_WHITE)
    assert not failures, failures[:5]
    assert not points
