"""Box-by-box agreement of the sign-only verdicts with the full solvers.

The reference is the verdict the box classifiers computed from the full
solution sets of `dkp_box` / `ikp_box` before the verdict functions existed.
"""

import math

import numpy as np
import pytest

from fivebar.aspects import all_mode_combos
from fivebar.bench import JOINTSPACE, WORKSPACE, space_box
from fivebar.interval import Box2
from fivebar.mechanism import (
    M1,
    M2,
    AssemblyMode,
    Ternary,
    WorkingMode,
    coincidence_configurations,
    dkp_box,
    ikp_box,
    joint_verdict,
    workspace_verdict,
)
from fivebar.quadtree import build

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
    JOINTSPACE: (joint_verdict, reference_joint, JOINT_MODES),
    WORKSPACE: (workspace_verdict, reference_workspace, WORKSPACE_MODES),
}


def _assert_agree(space, g, boxes) -> set[int]:
    verdict, reference, modes = SPACES[space]
    seen = set()
    for box in boxes:
        for a, b in modes:
            v = verdict(box, g, a, b)
            assert v == reference(box, g, a, b), (box, a, b)
            seen.add(v)
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


@pytest.mark.parametrize("space", [JOINTSPACE, WORKSPACE])
@pytest.mark.parametrize("name", sorted(GEOMETRIES))
def test_verdicts_match_reference_on_every_built_box(name, space):
    g = GEOMETRIES[name]
    verdict, reference, modes = SPACES[space]
    for a, b in modes:
        visited = []

        def classify(box):
            v = verdict(box, g, a, b)
            assert v == reference(box, g, a, b), (box, a, b)
            visited.append(v)
            return v

        model = build(space_box(g, space), 6, classify)
        assert len(visited) == model.stats.calls > 1


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


def test_partial_modes_outside_their_space_are_rejected():
    box = Box2.point(1.0, 2.0)
    with pytest.raises(ValueError):
        joint_verdict(box, M1, None, WORKING_MODES[0])
    with pytest.raises(ValueError):
        workspace_verdict(box, M1, None, AssemblyMode.POSITIVE)
