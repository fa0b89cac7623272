"""Five-bar linkage kinematics over intervals.

The mechanism is a planar closed chain: base joints A1 = (0, 0) and
A2 = (L0, 0), proximal links L1 and L2 to the elbows B1 and B2, distal
links L3 and L4 meeting at the end point P. Actuated variables are the
base angles (theta1, theta2); outputs are the coordinates of P.

The interval direct/inverse kinematic routines classify whole boxes of
joint angles or workspace positions as certifiably valid, certifiably
invalid, or indeterminate, including certification of the assembly mode
(sign of det A, via the cross product (B1-P) x (B2-P)) and the working
mode (signs of the elbow cross products u_z, v_z).

There are two kinds of box routine. The batch verdicts `joint_verdicts`
and `workspace_verdicts` are the classification kernel: they classify a
whole array of boxes at once with the interval arrays of `interval`, and
return only the verdict (+1 / -1 / 0) of each, computing only the
enclosures it reads. Each early return of a box-by-box verdict is a mask
over the rows still undecided, so every row gets the verdict its box
would get alone. Every quadtree classifier is a `BoxClassifier`, which
calls them. The full solvers `dkp_box` and `ikp_box` work on one box of
`Interval` objects and return every solution enclosure; they serve
witness points and inspection, and the tests hold the verdicts against
them box by box. Both kinds use the same formulas with the same float
operations, so they agree on every box.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from . import interval as iv
from .interval import Box2, Interval

IVec2 = tuple[Interval, Interval]

POINT_TOL = 1e-12
# Smallest accepted link length: below it, products of a length and a small
# distance underflow to 0, and interval divisions by them fail.
MIN_LENGTH = 1e-150


class Ternary(enum.IntEnum):
    VALID = 1
    INDETERMINATE = 0
    INVALID = -1


@dataclass(frozen=True)
class FiveBarGeometry:
    """Link lengths; the base frame is fixed at A1=(0,0), A2=(L0,0).

    Every length must be finite and at least MIN_LENGTH (1e-150), and the
    sums and squares the classifiers form from them must stay finite: with
    S = L0 + ... + L4, 2 * S * S must not overflow (S below about 9.4e153).
    ValueError otherwise.
    """

    L0: float
    L1: float
    L2: float
    L3: float
    L4: float

    def __post_init__(self):
        for name, v in zip(("L0", "L1", "L2", "L3", "L4"), self.lengths):
            if not (math.isfinite(v) and v >= MIN_LENGTH):
                raise ValueError(
                    f"{name} must be finite and at least {MIN_LENGTH}, got {v!r}"
                )
        total = sum(self.lengths)
        if not math.isfinite(2.0 * total * total):
            raise ValueError(
                f"link lengths too large: their sum {total!r} must stay below 9.4e153"
            )

    @property
    def a1(self) -> tuple[float, float]:
        return (0.0, 0.0)

    @property
    def a2(self) -> tuple[float, float]:
        return (self.L0, 0.0)

    @property
    def lengths(self) -> tuple[float, float, float, float, float]:
        return (self.L0, self.L1, self.L2, self.L3, self.L4)


M1 = FiveBarGeometry(9.0, 8.0, 5.0, 5.0, 8.0)
M2 = FiveBarGeometry(2.55, 2.3, 2.3, 2.3, 2.3)


class AssemblyMode(enum.IntEnum):
    """Sign of det(A), selecting one of the two direct-kinematic branches."""

    POSITIVE = 1
    NEGATIVE = -1

    @classmethod
    def from_str(cls, s: str) -> "AssemblyMode":
        if s == "+":
            return cls.POSITIVE
        if s == "-":
            return cls.NEGATIVE
        raise ValueError(f"assembly mode must be '+' or '-', got {s!r}")

    def __str__(self) -> str:
        return "+" if self.value > 0 else "-"


@dataclass(frozen=True)
class WorkingMode:
    """Signs of the elbow cross products u_z, v_z (4 modes total)."""

    s1: int
    s2: int

    def __post_init__(self):
        if self.s1 not in (1, -1) or self.s2 not in (1, -1):
            raise ValueError("working mode signs must be +1 or -1")

    @classmethod
    def from_str(cls, s: str) -> "WorkingMode":
        if len(s) != 2 or any(c not in "+-" for c in s):
            raise ValueError(f"working mode must be two of '+-', got {s!r}")
        return cls(1 if s[0] == "+" else -1, 1 if s[1] == "+" else -1)

    def __str__(self) -> str:
        return ("+" if self.s1 > 0 else "-") + ("+" if self.s2 > 0 else "-")


@dataclass(frozen=True)
class Configuration:
    """A fully determined point configuration (used by scalar utilities)."""

    theta1: float
    theta2: float
    theta3: float
    theta4: float
    p: tuple[float, float]
    b1: tuple[float, float]
    b2: tuple[float, float]


@dataclass(frozen=True)
class DkpSolution:
    p: IVec2
    det_a: Interval  # enclosure of the cross product (B1-P) x (B2-P)
    u_z: Interval  # elbow cross product of leg 1 at this solution
    v_z: Interval  # elbow cross product of leg 2 at this solution

    @property
    def sign(self) -> int:
        return self.det_a.sign()


@dataclass(frozen=True)
class DkpResult:
    status: Ternary
    solutions: tuple[DkpSolution, ...]
    b1: Optional[IVec2] = None
    b2: Optional[IVec2] = None

    def solution_for(self, mode: AssemblyMode) -> Optional[DkpSolution]:
        for sol in self.solutions:
            if sol.sign == int(mode):
                return sol
        return None


@dataclass(frozen=True)
class IkpSolution:
    theta1: Interval
    theta2: Interval
    u_z: Interval
    v_z: Interval
    b1: IVec2
    b2: IVec2
    det_a: Interval  # enclosure of (B1-P) x (B2-P) at this solution

    @property
    def mode(self) -> Optional[WorkingMode]:
        su, sv = self.u_z.sign(), self.v_z.sign()
        if su == 0 or sv == 0:
            return None
        return WorkingMode(su, sv)


@dataclass(frozen=True)
class IkpResult:
    status: Ternary
    solutions: tuple[IkpSolution, ...]

    def solution_for(self, mode: WorkingMode) -> Optional[IkpSolution]:
        for sol in self.solutions:
            if sol.mode == mode:
                return sol
        return None


def default_jointspace_box() -> Box2:
    return Box2(iv.full_angle(), iv.full_angle())


def default_workspace_box(g: FiveBarGeometry) -> Box2:
    s = g.L1 + g.L3
    return Box2.from_bounds(-s, s, -s, s)


def _clip_unit(a: Interval) -> Interval:
    """Intersect with [-1, 1] (the cosine range of assembled configurations)."""
    return Interval(max(a.lo, -1.0), min(a.hi, 1.0))


def _unit_sine(c: Interval) -> Interval:
    """Enclosure of sqrt(1 - c^2) for a cosine enclosure c within [-1, 1]."""
    return iv.sqrt(iv.shift(-iv.sqr(c), 1.0))


# --------------------------------------------------------------------------
# Direct kinematics over joint-space boxes
# --------------------------------------------------------------------------


def _dkp_triangle(box: Box2, g: FiveBarGeometry):
    """Front half of the DKP (`dkp_box`; `joint_verdicts` repeats it on arrays).

    Encloses the base-angle cosines/sines, the elbows B1, B2, the gap
    B2 - B1 = (dx, dy), its length |B1B2| and cos(alpha), the angle at B1 of
    the triangle (B1, B2, P) by the law of cosines. Returns
    ``(status, trig, b1, b2, dx, dy, dist, cos_alpha)``: status is INVALID
    when no point of the box can be assembled, INDETERMINATE at a possible
    B1 = B2 coincidence (cos_alpha is then None), else None.
    """
    t1, t2 = box.x, box.y
    trig = c1t, s1t, c2t, s2t = iv.cos(t1), iv.sin(t1), iv.cos(t2), iv.sin(t2)
    b1 = (iv.scale(c1t, g.L1), iv.scale(s1t, g.L1))
    b2 = (iv.shift(iv.scale(c2t, g.L2), g.L0), iv.scale(s2t, g.L2))
    dx = iv.sub(b2[0], b1[0])
    dy = iv.sub(b2[1], b1[1])
    dist = iv.norm2(dx, dy)
    if dist.lo > g.L3 + g.L4 or dist.hi < abs(g.L3 - g.L4):
        return Ternary.INVALID, trig, b1, b2, dx, dy, dist, None
    if dist.lo <= 0.0:
        # possible B1 = B2 coincidence: P would rotate freely around B1
        return Ternary.INDETERMINATE, trig, b1, b2, dx, dy, dist, None
    num = iv.shift(iv.sqr(dist), g.L3 * g.L3 - g.L4 * g.L4)
    cos_alpha = iv.div(num, iv.scale(dist, 2.0 * g.L3))
    if cos_alpha.lo > 1.0 or cos_alpha.hi < -1.0:
        return Ternary.INVALID, trig, b1, b2, dx, dy, dist, cos_alpha
    return None, trig, b1, b2, dx, dy, dist, cos_alpha


def _dkp_elbow_crosses(
    box: Box2,
    trig: tuple[Interval, Interval, Interval, Interval],
    g: FiveBarGeometry,
    dist: Interval,
    c: Interval,
    sin_alpha: Interval,
    branches: tuple[int, ...],
) -> list[tuple[Interval, Interval]]:
    """Elbow cross products (u_z, v_z) of each requested DKP branch.

    Tangential/radial projections of the base and opposite links give them
    without reconstructing the elbow angles (far tighter over wide boxes):
      u_z = L1 L3 / |B1B2| * (G1 cos a + branch H1 sin a)
      v_z = L2 L4 / |B1B2| * (-G2 cos a' + branch H2 sin a')
    where a' is the angle at B2 of the same triangle (B1, B2, P).
    """
    t1, t2 = box.x, box.y
    c1t, s1t, c2t, s2t = trig
    num2 = iv.shift(iv.sqr(dist), g.L4 * g.L4 - g.L3 * g.L3)
    c_prime = _clip_unit(iv.div(num2, iv.scale(dist, 2.0 * g.L4)))
    s_prime = iv.scale(sin_alpha, g.L3 / g.L4)
    s21, c21 = iv.sin(iv.sub(t2, t1)), iv.cos(iv.sub(t2, t1))
    g1 = iv.sub(iv.scale(s21, g.L2), iv.scale(s1t, g.L0))
    h1 = iv.shift(iv.add(iv.scale(c1t, g.L0), iv.scale(c21, g.L2)), -g.L1)
    g2 = iv.sub(iv.scale(s21, g.L1), iv.scale(s2t, g.L0))
    h2 = iv.shift(iv.sub(iv.scale(c2t, g.L0), iv.scale(c21, g.L1)), g.L2)
    crosses = []
    for branch in branches:
        u_z = iv.scale(
            iv.div(
                iv.add(iv.mul(g1, c), iv.scale(iv.mul(h1, sin_alpha), branch)), dist
            ),
            g.L1 * g.L3,
        )
        v_z = iv.scale(
            iv.div(
                iv.add(
                    -iv.mul(g2, c_prime), iv.scale(iv.mul(h2, s_prime), branch)
                ),
                dist,
            ),
            g.L2 * g.L4,
        )
        crosses.append((u_z, v_z))
    return crosses


def dkp_box(
    box: Box2, g: FiveBarGeometry, mode: Optional[AssemblyMode] = None
) -> DkpResult:
    """Solve the direct kinematic problem over a box of joint angles.

    The full solver: both branches with P, det(A), u_z and v_z, for witness
    points and for inspection. Quadtree builds use `joint_verdicts`, which
    return the same verdict without the enclosures it does not read.

    Without a mode the test is assemblability alone (the plain joint space).
    With a mode, validity additionally requires a solution branch whose
    det(A) cross-product enclosure strictly carries the requested sign.

    Enclosures are kept tight with two exact identities: P - B1 is the unit
    vector along B1->B2 rotated by +/- alpha and scaled by L3 (angle-sum
    expansion, no trig round trip), and the det(A) cross product equals
    branch * L3 * |B1B2| * sin(alpha).
    """
    status, trig, b1, b2, dx, dy, dist, cos_alpha = _dkp_triangle(box, g)
    if status is not None:
        return DkpResult(status, (), b1, b2)
    c = _clip_unit(cos_alpha)
    sin_alpha = _unit_sine(c)
    crosses = _dkp_elbow_crosses(box, trig, g, dist, c, sin_alpha, (1, -1))
    dxc, dyc = iv.mul(dx, c), iv.mul(dy, c)
    dxs, dys = iv.mul(dx, sin_alpha), iv.mul(dy, sin_alpha)
    solutions = []
    for branch, (u_z, v_z) in zip((1, -1), crosses):
        # (P - B1) = L3 / |B1B2| * Rot(branch * alpha) (dx, dy)
        ux = iv.scale(iv.div(iv.sub(dxc, iv.scale(dys, branch)), dist), g.L3)
        uy = iv.scale(iv.div(iv.add(dyc, iv.scale(dxs, branch)), dist), g.L3)
        p = (iv.add(b1[0], ux), iv.add(b1[1], uy))
        # identity: (B1-P) x (B2-P) = branch * L3 * |B1B2| * sin(alpha)
        det_a = iv.scale(iv.mul(dist, sin_alpha), branch * g.L3)
        solutions.append(DkpSolution(p, det_a, u_z, v_z))
    solutions = tuple(solutions)

    if cos_alpha.lo <= -1.0 or cos_alpha.hi >= 1.0:
        # box reaches a stretched/folded (collinear B1, P, B2) configuration
        return DkpResult(Ternary.INDETERMINATE, solutions, b1, b2)

    if mode is None:
        return DkpResult(Ternary.VALID, solutions, b1, b2)

    # both branches always exist here, with det(A) signs +branch certified
    # exactly when sin(alpha) is strictly positive over the box
    if sin_alpha.lo > 0.0:
        return DkpResult(Ternary.VALID, solutions, b1, b2)
    return DkpResult(Ternary.INDETERMINATE, solutions, b1, b2)


# --------------------------------------------------------------------------
# Inverse kinematics over workspace boxes
# --------------------------------------------------------------------------


def _ikp_legs(box: Box2, g: FiveBarGeometry):
    """Front half of the IKP (`ikp_box`; `workspace_verdicts` repeats it on arrays).

    Encloses the leg distances M1 = |A1P|, M2 = |A2P| and the cosines c1, c2
    of the angles at A1 and A2 between the base-to-P line and the proximal
    links. Returns ``(status, m1, m2, c1, c2)``: status is INVALID when no
    point of the box is reachable, INDETERMINATE when the box is not
    strictly inside both annuli (c1, c2 are then None), else None.
    """
    px, py = box.x, box.y
    m1 = iv.norm2(px, py)
    m2 = iv.norm2(iv.shift(px, -g.L0), py)
    r1_out, r1_in = g.L1 + g.L3, abs(g.L1 - g.L3)
    r2_out, r2_in = g.L2 + g.L4, abs(g.L2 - g.L4)
    if m1.lo > r1_out or m2.lo > r2_out:
        return Ternary.INVALID, m1, m2, None, None
    if m1.hi < r1_in or m2.hi < r2_in:
        return Ternary.INVALID, m1, m2, None, None
    # r_in >= 0, so strictness also keeps A1 and A2 out of the box
    strict = (
        m1.lo > r1_in and m2.lo > r2_in and m1.hi < r1_out and m2.hi < r2_out
    )
    if not strict:
        return Ternary.INDETERMINATE, m1, m2, None, None
    c1 = iv.div(iv.shift(iv.sqr(m1), g.L1 * g.L1 - g.L3 * g.L3), iv.scale(m1, 2.0 * g.L1))
    c2 = iv.div(iv.shift(iv.sqr(m2), g.L2 * g.L2 - g.L4 * g.L4), iv.scale(m2, 2.0 * g.L2))
    if c1.lo > 1.0 or c1.hi < -1.0 or c2.lo > 1.0 or c2.hi < -1.0:
        return Ternary.INVALID, m1, m2, c1, c2
    return None, m1, m2, c1, c2


def _ikp_det_a(
    box: Box2,
    g: FiveBarGeometry,
    m1: Interval,
    m2: Interval,
    s1: Interval,
    s2: Interval,
) -> Callable[[int, int], Interval]:
    """det(A) cross product of the IKP solution with elbow branches (i, j).

    Exact identity
      (B1-P) x (B2-P) = L3 L4 [L0 py (cd1 cd2 + ij sd1 sd2)
                               + S (i cd2 sd1 - j cd1 sd2)] / (M1 M2)
    where (cd1, sd1), (cd2, sd2) are the cosines/sines of the triangle
    angles at P and S = px (px - L0) + py^2 (evaluated as a sharp
    single-variable quadratic plus a sharp square).
    """
    px, py = box.x, box.y
    cd1 = _clip_unit(
        iv.div(iv.shift(iv.sqr(m1), g.L3 * g.L3 - g.L1 * g.L1), iv.scale(m1, 2.0 * g.L3))
    )
    cd2 = _clip_unit(
        iv.div(iv.shift(iv.sqr(m2), g.L4 * g.L4 - g.L2 * g.L2), iv.scale(m2, 2.0 * g.L4))
    )
    sd1 = iv.scale(s1, g.L1 / g.L3)
    sd2 = iv.scale(s2, g.L2 / g.L4)
    s_quad = iv.add(
        iv.shift(iv.sqr(iv.shift(px, -g.L0 / 2)), -g.L0 * g.L0 / 4), iv.sqr(py)
    )
    cc = iv.mul(cd1, cd2)
    ss = iv.mul(sd1, sd2)
    cs = iv.mul(cd2, sd1)
    sc = iv.mul(cd1, sd2)
    m1m2 = iv.mul(m1, m2)

    def det_at(i: int, j: int) -> Interval:
        n = iv.add(
            iv.scale(iv.mul(py, iv.add(cc, iv.scale(ss, i * j))), g.L0),
            iv.mul(s_quad, iv.sub(iv.scale(cs, i), iv.scale(sc, j))),
        )
        return iv.scale(iv.div(n, m1m2), g.L3 * g.L4)

    return det_at


def ikp_box(
    box: Box2, g: FiveBarGeometry, mode: Optional[WorkingMode] = None
) -> IkpResult:
    """Solve the inverse kinematic problem over a box of workspace positions.

    The full solver: all four solutions with joint angles, elbows, u_z, v_z
    and det(A), for witness points and for inspection. Quadtree builds use
    `workspace_verdicts`, which return the same verdict without the
    enclosures it does not read.

    Validity requires strict containment of both leg distances in their
    reachable annuli; with a mode, also a solution branch pair whose u_z and
    v_z enclosures strictly carry the requested signs.
    """
    status, m1, m2, c1, c2 = _ikp_legs(box, g)
    if status is not None:
        return IkpResult(status, ())
    px, py = box.x, box.y
    clamped = (
        c1.lo < -1.0 or c1.hi > 1.0 or c2.lo < -1.0 or c2.hi > 1.0
    )
    c1c, c2c = _clip_unit(c1), _clip_unit(c2)
    s1 = _unit_sine(c1c)
    s2 = _unit_sine(c2c)
    beta1, _ = iv.acos(c1c)
    beta2, _ = iv.acos(c2c)
    # A1 and A2 lie outside the box, so neither angle has the origin flag set
    alpha1, _ = iv.atan2(py, px)
    alpha2, _ = iv.atan2(py, iv.shift(-px, g.L0))
    pi_minus_a2 = iv.shift(-alpha2, math.pi)
    qx = iv.shift(px, -g.L0)

    # elbows via angle-sum expansion of the known direction cosines; the
    # elbow cross products collapse to the exact identities
    # u_z = -branch * L1 * |A1P| * sin(beta1), v_z = -branch * L2 * |A2P| * sin(beta2)
    legs1 = []
    for i in (1, -1):
        t1 = iv.add(alpha1, beta1) if i > 0 else iv.sub(alpha1, beta1)
        cos_t1 = iv.div(iv.sub(iv.mul(px, c1c), iv.scale(iv.mul(py, s1), i)), m1)
        sin_t1 = iv.div(iv.add(iv.mul(py, c1c), iv.scale(iv.mul(px, s1), i)), m1)
        b1 = (iv.scale(cos_t1, g.L1), iv.scale(sin_t1, g.L1))
        u_z = iv.scale(iv.mul(m1, s1), -i * g.L1)
        legs1.append((i, t1, b1, u_z))
    legs2 = []
    for j in (1, -1):
        t2 = iv.add(pi_minus_a2, beta2) if j > 0 else iv.sub(pi_minus_a2, beta2)
        cos_p2 = iv.div(iv.sub(iv.mul(qx, c2c), iv.scale(iv.mul(py, s2), j)), m2)
        sin_p2 = iv.div(iv.add(iv.mul(py, c2c), iv.scale(iv.mul(qx, s2), j)), m2)
        b2 = (iv.shift(iv.scale(cos_p2, g.L2), g.L0), iv.scale(sin_p2, g.L2))
        v_z = iv.scale(iv.mul(m2, s2), -j * g.L2)
        legs2.append((j, t2, b2, v_z))

    det_at = _ikp_det_a(box, g, m1, m2, s1, s2)
    solutions = tuple(
        IkpSolution(t1, t2, u_z, v_z, b1, b2, det_at(i, j))
        for (i, t1, b1, u_z) in legs1
        for (j, t2, b2, v_z) in legs2
    )

    if clamped:
        return IkpResult(Ternary.INDETERMINATE, solutions)
    if mode is None:
        return IkpResult(Ternary.VALID, solutions)

    # all four working modes exist at every strictly reachable point; their
    # signs are certified exactly when both sines are strictly positive
    if s1.lo > 0.0 and s2.lo > 0.0:
        return IkpResult(Ternary.VALID, solutions)
    return IkpResult(Ternary.INDETERMINATE, solutions)


# --------------------------------------------------------------------------
# Batch verdicts: the quadtree classification kernel
# --------------------------------------------------------------------------


class _Batch:
    """The verdicts of a batch of boxes, settled stage by stage.

    Every early return of a box-by-box verdict becomes one case of
    `settle`: the rows still open where the case holds get its verdict and
    leave the batch. Later stages compute only on the open rows; `rows`
    maps them to their place in the batch.
    """

    def __init__(self, n: int):
        self.verdict = np.zeros(n, dtype=np.int8)
        self.rows = np.arange(n)

    def settle(self, *cases: tuple[np.ndarray, int]) -> np.ndarray:
        """Apply the cases in order (the first that holds wins); returns the
        mask of the rows that stay open, to compress the stage's arrays."""
        done = np.zeros(len(self.rows), dtype=bool)
        for hit, v in cases:
            hit = hit & ~done
            self.verdict[self.rows[hit]] = v
            done |= hit
        keep = ~done
        self.rows = self.rows[keep]
        return keep

    def finish(self, v: int) -> np.ndarray:
        self.verdict[self.rows] = v
        return self.verdict


def _take(rows: np.ndarray, *arrays: iv.IArray) -> list[iv.IArray]:
    """The ``rows`` (a mask or indices) of each interval array."""
    return [(lo[rows], hi[rows]) for lo, hi in arrays]


def _vclip_unit(a: iv.IArray) -> iv.IArray:
    return np.maximum(a[0], -1.0), np.minimum(a[1], 1.0)


def _vunit_sine(c: iv.IArray) -> iv.IArray:
    return iv.vsqrt(iv.vshift(iv.vneg(iv.vsqr(c)), 1.0))


def joint_verdicts(
    x_lo: np.ndarray,
    x_hi: np.ndarray,
    y_lo: np.ndarray,
    y_hi: np.ndarray,
    g: FiveBarGeometry,
    am: Optional[AssemblyMode] = None,
    wm: Optional[WorkingMode] = None,
) -> np.ndarray:
    """Verdicts (+1 / -1 / 0, int8) of the joint-space boxes
    [x_lo, x_hi] x [y_lo, y_hi] of base angles (theta1, theta2).

    Mode-free: assemblable and never stretched or folded. With ``am``: the
    branch of that assembly mode is certified nonsingular. With ``am`` and
    ``wm``: in addition u_z and v_z of that branch carry the working-mode
    signs (-1 when one of them certainly carries the other sign).

    Each row is the status of `dkp_box` on its box (plus that sign test),
    from the same formulas, but only the enclosures the verdict reads are
    computed: nothing past cos(alpha) mode-free, past sin(alpha) with
    ``am`` alone, and with a full combo the one branch ``am``, without P.
    """
    if wm is not None and am is None:
        raise ValueError("a working mode in the joint space needs an assembly mode")
    b = _Batch(len(x_lo))
    t1, t2 = (x_lo, x_hi), (y_lo, y_hi)
    c1t, s1t, c2t, s2t = iv.vcos(t1), iv.vsin(t1), iv.vcos(t2), iv.vsin(t2)
    # the gap B2 - B1 between the elbows
    dx = iv.vsub(iv.vshift(iv.vscale(c2t, g.L2), g.L0), iv.vscale(c1t, g.L1))
    dy = iv.vsub(iv.vscale(s2t, g.L2), iv.vscale(s1t, g.L1))
    dist = iv.vnorm2(dx, dy)
    keep = b.settle(
        ((dist[0] > g.L3 + g.L4) | (dist[1] < abs(g.L3 - g.L4)), -1),
        # possible B1 = B2 coincidence: P would rotate freely around B1
        (dist[0] <= 0.0, 0),
    )
    (dist,) = _take(keep, dist)
    # cos(alpha), the angle at B1 of the triangle (B1, B2, P)
    num = iv.vshift(iv.vsqr(dist), g.L3 * g.L3 - g.L4 * g.L4)
    cos_a = iv.vdiv(num, iv.vscale(dist, 2.0 * g.L3))
    keep = b.settle(
        ((cos_a[0] > 1.0) | (cos_a[1] < -1.0), -1),
        # a stretched/folded configuration within the box
        ((cos_a[0] <= -1.0) | (cos_a[1] >= 1.0), 0),
    )
    if am is None:
        return b.finish(1)
    # cos(alpha) lies strictly inside (-1, 1) here: clipping is the identity
    dist, cos_a = _take(keep, dist, cos_a)
    sin_a = _vunit_sine(cos_a)
    keep = b.settle((sin_a[0] <= 0.0, 0))
    if wm is None:
        return b.finish(1)
    branch = int(am)
    dist, cos_a, sin_a = _take(keep, dist, cos_a, sin_a)
    det_a = iv.vscale(iv.vmul(dist, sin_a), branch * g.L3)
    keep = b.settle((iv.vsign(det_a) != branch, 0))
    dist, cos_a, sin_a = _take(keep, dist, cos_a, sin_a)
    u_z, v_z = _vdkp_elbow_crosses(
        *_take(b.rows, t1, t2, c1t, s1t, c2t, s2t), g, dist, cos_a, sin_a, branch
    )
    su, sv = iv.vsign(u_z), iv.vsign(v_z)
    b.settle(
        ((su == wm.s1) & (sv == wm.s2), 1),
        (((su != 0) & (su != wm.s1)) | ((sv != 0) & (sv != wm.s2)), -1),
    )
    return b.verdict


def _vdkp_elbow_crosses(t1, t2, c1t, s1t, c2t, s2t, g, dist, c, sin_a, branch):
    """Rows of `_dkp_elbow_crosses` for one branch: (u_z, v_z)."""
    num2 = iv.vshift(iv.vsqr(dist), g.L4 * g.L4 - g.L3 * g.L3)
    c_prime = _vclip_unit(iv.vdiv(num2, iv.vscale(dist, 2.0 * g.L4)))
    s_prime = iv.vscale(sin_a, g.L3 / g.L4)
    t21 = iv.vsub(t2, t1)
    s21, c21 = iv.vsin(t21), iv.vcos(t21)
    g1 = iv.vsub(iv.vscale(s21, g.L2), iv.vscale(s1t, g.L0))
    h1 = iv.vshift(iv.vadd(iv.vscale(c1t, g.L0), iv.vscale(c21, g.L2)), -g.L1)
    g2 = iv.vsub(iv.vscale(s21, g.L1), iv.vscale(s2t, g.L0))
    h2 = iv.vshift(iv.vsub(iv.vscale(c2t, g.L0), iv.vscale(c21, g.L1)), g.L2)
    u_num = iv.vadd(iv.vmul(g1, c), iv.vscale(iv.vmul(h1, sin_a), branch))
    v_num = iv.vadd(
        iv.vneg(iv.vmul(g2, c_prime)), iv.vscale(iv.vmul(h2, s_prime), branch)
    )
    u_z = iv.vscale(iv.vdiv(u_num, dist), g.L1 * g.L3)
    v_z = iv.vscale(iv.vdiv(v_num, dist), g.L2 * g.L4)
    return u_z, v_z


def workspace_verdicts(
    x_lo: np.ndarray,
    x_hi: np.ndarray,
    y_lo: np.ndarray,
    y_hi: np.ndarray,
    g: FiveBarGeometry,
    wm: Optional[WorkingMode] = None,
    am: Optional[AssemblyMode] = None,
) -> np.ndarray:
    """Verdicts (+1 / -1 / 0, int8) of the workspace boxes
    [x_lo, x_hi] x [y_lo, y_hi] of end-point positions.

    Mode-free: strictly reachable by both legs. With ``wm``: in addition the
    working-mode signs are certified. With ``wm`` and ``am``: in addition
    det(A) of the solution of working mode ``wm`` carries the assembly-mode
    sign (-1 when it certainly carries the other sign).

    Each row is the status of `ikp_box` on its box (plus that sign test),
    from the same formulas, but only the enclosures the verdict reads are
    computed: nothing past c1, c2 mode-free, past the sines with ``wm``
    alone, and with a full combo u_z, v_z and the one det(A) of elbow
    branches (-wm.s1, -wm.s2), without angles or elbows.
    """
    if am is not None and wm is None:
        raise ValueError("an assembly mode in the workspace needs a working mode")
    b = _Batch(len(x_lo))
    px, py = (x_lo, x_hi), (y_lo, y_hi)
    m1 = iv.vnorm2(px, py)
    m2 = iv.vnorm2(iv.vshift(px, -g.L0), py)
    r1_out, r1_in = g.L1 + g.L3, abs(g.L1 - g.L3)
    r2_out, r2_in = g.L2 + g.L4, abs(g.L2 - g.L4)
    # r_in >= 0, so strictness also keeps A1 and A2 out of the box
    strict = (m1[0] > r1_in) & (m2[0] > r2_in) & (m1[1] < r1_out) & (m2[1] < r2_out)
    keep = b.settle(
        ((m1[0] > r1_out) | (m2[0] > r2_out), -1),
        ((m1[1] < r1_in) | (m2[1] < r2_in), -1),
        (~strict, 0),
    )
    m1, m2 = _take(keep, m1, m2)
    c1 = iv.vdiv(
        iv.vshift(iv.vsqr(m1), g.L1 * g.L1 - g.L3 * g.L3), iv.vscale(m1, 2.0 * g.L1)
    )
    c2 = iv.vdiv(
        iv.vshift(iv.vsqr(m2), g.L2 * g.L2 - g.L4 * g.L4), iv.vscale(m2, 2.0 * g.L2)
    )
    keep = b.settle(
        ((c1[0] > 1.0) | (c1[1] < -1.0) | (c2[0] > 1.0) | (c2[1] < -1.0), -1),
        ((c1[0] < -1.0) | (c1[1] > 1.0) | (c2[0] < -1.0) | (c2[1] > 1.0), 0),
    )
    if wm is None:
        return b.finish(1)
    # c1 and c2 lie within [-1, 1] here: clipping is the identity
    m1, m2, c1, c2 = _take(keep, m1, m2, c1, c2)
    s1, s2 = _vunit_sine(c1), _vunit_sine(c2)
    keep = b.settle(((s1[0] <= 0.0) | (s2[0] <= 0.0), 0))
    if am is None:
        return b.finish(1)
    m1, m2, s1, s2 = _take(keep, m1, m2, s1, s2)
    # u_z = -i L1 |A1P| sin(beta1), v_z = -j L2 |A2P| sin(beta2)
    i, j = -wm.s1, -wm.s2
    keep = b.settle((
        (iv.vsign(iv.vscale(iv.vmul(m1, s1), -i * g.L1)) != wm.s1)
        | (iv.vsign(iv.vscale(iv.vmul(m2, s2), -j * g.L2)) != wm.s2),
        0,
    ))
    m1, m2, s1, s2 = _take(keep, m1, m2, s1, s2)
    px, py = _take(b.rows, px, py)
    s = iv.vsign(_vikp_det_a(px, py, g, m1, m2, s1, s2, i, j))
    b.settle((s == int(am), 1), (s != 0, -1))
    return b.verdict


def _vikp_det_a(px, py, g, m1, m2, s1, s2, i, j):
    """Rows of `_ikp_det_a` at elbow branches (i, j)."""
    cd1 = _vclip_unit(iv.vdiv(
        iv.vshift(iv.vsqr(m1), g.L3 * g.L3 - g.L1 * g.L1), iv.vscale(m1, 2.0 * g.L3)
    ))
    cd2 = _vclip_unit(iv.vdiv(
        iv.vshift(iv.vsqr(m2), g.L4 * g.L4 - g.L2 * g.L2), iv.vscale(m2, 2.0 * g.L4)
    ))
    sd1 = iv.vscale(s1, g.L1 / g.L3)
    sd2 = iv.vscale(s2, g.L2 / g.L4)
    s_quad = iv.vadd(
        iv.vshift(iv.vsqr(iv.vshift(px, -g.L0 / 2)), -g.L0 * g.L0 / 4), iv.vsqr(py)
    )
    cc = iv.vmul(cd1, cd2)
    ss = iv.vmul(sd1, sd2)
    cs = iv.vmul(cd2, sd1)
    sc = iv.vmul(cd1, sd2)
    n = iv.vadd(
        iv.vscale(iv.vmul(py, iv.vadd(cc, iv.vscale(ss, i * j))), g.L0),
        iv.vmul(s_quad, iv.vsub(iv.vscale(cs, i), iv.vscale(sc, j))),
    )
    return iv.vscale(iv.vdiv(n, iv.vmul(m1, m2)), g.L3 * g.L4)


JOINTSPACE = "jointspace"
WORKSPACE = "workspace"


@dataclass(frozen=True)
class BoxClassifier:
    """The quadtree classifier of one space and mode setting.

    ``batch(x_lo, x_hi, y_lo, y_hi)`` returns the verdicts of many boxes
    at once, and calling it with a `Box2` classifies one box (a batch of
    one). A working mode needs an assembly mode in the joint space, and an
    assembly mode needs a working mode in the workspace (ValueError).
    """

    space: str
    g: FiveBarGeometry
    wm: Optional[WorkingMode] = None
    am: Optional[AssemblyMode] = None

    def __post_init__(self):
        if self.space == JOINTSPACE:
            if self.wm is not None and self.am is None:
                raise ValueError("a working mode in the joint space needs an assembly mode")
        elif self.space == WORKSPACE:
            if self.am is not None and self.wm is None:
                raise ValueError("an assembly mode in the workspace needs a working mode")
        else:
            raise ValueError(f"unknown space {self.space!r}")

    def batch(
        self, x_lo: np.ndarray, x_hi: np.ndarray, y_lo: np.ndarray, y_hi: np.ndarray
    ) -> np.ndarray:
        if self.space == JOINTSPACE:
            return joint_verdicts(x_lo, x_hi, y_lo, y_hi, self.g, self.am, self.wm)
        return workspace_verdicts(x_lo, x_hi, y_lo, y_hi, self.g, self.wm, self.am)

    def __call__(self, box: Box2) -> int:
        bounds = (box.x.lo, box.x.hi, box.y.lo, box.y.hi)
        return int(self.batch(*(np.array([v]) for v in bounds))[0])


# --------------------------------------------------------------------------
# Scalar (point) kinematics: ground-truth oracle for tests and for the naive
# grid-discretization baseline.
# --------------------------------------------------------------------------

VALID = "valid"
INVALID = "invalid"
SINGULAR = "singular"


def _scalar_elbows(t1: float, t2: float, g: FiveBarGeometry):
    b1 = (g.L1 * math.cos(t1), g.L1 * math.sin(t1))
    b2 = (g.L0 + g.L2 * math.cos(t2), g.L2 * math.sin(t2))
    return b1, b2


def _cross(ux: float, uy: float, vx: float, vy: float) -> float:
    return ux * vy - uy * vx


def configuration_at(
    t1: float, t2: float, g: FiveBarGeometry, branch: int = 1
) -> Optional[Configuration]:
    """Scalar forward solve: the DKP branch (+1: beta+alpha, -1: beta-alpha).

    Returns None when the configuration cannot be assembled.
    """
    b1, b2 = _scalar_elbows(t1, t2, g)
    dx, dy = b2[0] - b1[0], b2[1] - b1[1]
    dist = math.hypot(dx, dy)
    if dist == 0.0 or dist > g.L3 + g.L4 or dist < abs(g.L3 - g.L4):
        return None
    c = (dist * dist + g.L3 * g.L3 - g.L4 * g.L4) / (2.0 * g.L3 * dist)
    if abs(c) > 1.0:
        return None
    alpha = math.acos(c)
    beta = math.atan2(dy, dx)
    ang = beta + alpha if branch > 0 else beta - alpha
    p = (b1[0] + g.L3 * math.cos(ang), b1[1] + g.L3 * math.sin(ang))
    theta3 = math.atan2(p[1] - b1[1], p[0] - b1[0])
    theta4 = math.atan2(p[1] - b2[1], p[0] - b2[0])
    return Configuration(t1, t2, theta3, theta4, p, b1, b2)


def scalar_signs(cfg: Configuration, g: FiveBarGeometry) -> tuple[float, float, float]:
    """(det-A cross product, u_z, v_z) at a point configuration."""
    p, b1, b2 = cfg.p, cfg.b1, cfg.b2
    t_z = _cross(b1[0] - p[0], b1[1] - p[1], b2[0] - p[0], b2[1] - p[1])
    u_z = _cross(b1[0], b1[1], p[0] - b1[0], p[1] - b1[1])
    v_z = _cross(b2[0] - g.L0, b2[1], p[0] - b2[0], p[1] - b2[1])
    return t_z, u_z, v_z


def point_classify_joint(
    t1: float,
    t2: float,
    g: FiveBarGeometry,
    combo: Optional[tuple[WorkingMode, AssemblyMode]] = None,
    tol: float = POINT_TOL,
) -> str:
    """Classify an exact joint-space point: valid / invalid / singular.

    With a (working mode, assembly mode) pair, validity means the requested
    assembly branch exists, is nonsingular, and carries the requested
    working-mode signs. Without one, validity means assemblable and
    nonsingular for either branch.
    """
    b1, b2 = _scalar_elbows(t1, t2, g)
    dx, dy = b2[0] - b1[0], b2[1] - b1[1]
    dist = math.hypot(dx, dy)
    if dist <= tol:
        return SINGULAR
    outer, inner = g.L3 + g.L4, abs(g.L3 - g.L4)
    if dist > outer + tol or dist < inner - tol:
        return INVALID
    if abs(dist - outer) <= tol or abs(dist - inner) <= tol:
        return SINGULAR
    c = (dist * dist + g.L3 * g.L3 - g.L4 * g.L4) / (2.0 * g.L3 * dist)
    if 1.0 - abs(c) <= tol:
        return SINGULAR
    alpha = math.acos(max(-1.0, min(1.0, c)))
    beta = math.atan2(dy, dx)
    branches = {}
    for branch in (1, -1):
        ang = beta + branch * alpha
        p = (b1[0] + g.L3 * math.cos(ang), b1[1] + g.L3 * math.sin(ang))
        t_z = _cross(b1[0] - p[0], b1[1] - p[1], b2[0] - p[0], b2[1] - p[1])
        branches[branch] = (p, t_z)
    if combo is None:
        if any(abs(t_z) <= tol for (_, t_z) in branches.values()):
            return SINGULAR
        return VALID
    wm, am = combo
    chosen = None
    for p, t_z in branches.values():
        if abs(t_z) <= tol:
            return SINGULAR
        if math.copysign(1.0, t_z) == int(am):
            chosen = p
    if chosen is None:
        return INVALID
    u_z = _cross(b1[0], b1[1], chosen[0] - b1[0], chosen[1] - b1[1])
    v_z = _cross(b2[0] - g.L0, b2[1], chosen[0] - b2[0], chosen[1] - b2[1])
    if abs(u_z) <= tol or abs(v_z) <= tol:
        return SINGULAR
    if math.copysign(1.0, u_z) == wm.s1 and math.copysign(1.0, v_z) == wm.s2:
        return VALID
    return INVALID


def point_classify_workspace(
    px: float,
    py: float,
    g: FiveBarGeometry,
    combo: Optional[tuple[WorkingMode, AssemblyMode]] = None,
    tol: float = POINT_TOL,
) -> str:
    """Classify an exact workspace point: valid / invalid / singular."""
    m1 = math.hypot(px, py)
    m2 = math.hypot(px - g.L0, py)
    r1_out, r1_in = g.L1 + g.L3, abs(g.L1 - g.L3)
    r2_out, r2_in = g.L2 + g.L4, abs(g.L2 - g.L4)
    if m1 > r1_out + tol or m2 > r2_out + tol:
        return INVALID
    if m1 < r1_in - tol or m2 < r2_in - tol:
        return INVALID
    if (
        abs(m1 - r1_out) <= tol
        or abs(m1 - r1_in) <= tol
        or abs(m2 - r2_out) <= tol
        or abs(m2 - r2_in) <= tol
        or m1 <= tol
        or m2 <= tol
    ):
        return SINGULAR
    if combo is None:
        return VALID
    wm, am = combo
    c1 = (g.L1 * g.L1 + m1 * m1 - g.L3 * g.L3) / (2.0 * m1 * g.L1)
    c2 = (g.L2 * g.L2 + m2 * m2 - g.L4 * g.L4) / (2.0 * m2 * g.L2)
    if 1.0 - abs(c1) <= tol or 1.0 - abs(c2) <= tol:
        return SINGULAR
    beta1 = math.acos(max(-1.0, min(1.0, c1)))
    beta2 = math.acos(max(-1.0, min(1.0, c2)))
    alpha1 = math.atan2(py, px)
    alpha2 = math.atan2(py, g.L0 - px)

    b1_sel = None
    for s in (1, -1):
        t1 = alpha1 + s * beta1
        b1 = (g.L1 * math.cos(t1), g.L1 * math.sin(t1))
        u_z = _cross(b1[0], b1[1], px - b1[0], py - b1[1])
        if abs(u_z) <= tol:
            return SINGULAR
        if math.copysign(1.0, u_z) == wm.s1:
            b1_sel = b1
    b2_sel = None
    for s in (1, -1):
        t2 = math.pi - alpha2 + s * beta2
        b2 = (g.L0 + g.L2 * math.cos(t2), g.L2 * math.sin(t2))
        v_z = _cross(b2[0] - g.L0, b2[1], px - b2[0], py - b2[1])
        if abs(v_z) <= tol:
            return SINGULAR
        if math.copysign(1.0, v_z) == wm.s2:
            b2_sel = b2
    if b1_sel is None or b2_sel is None:
        return INVALID
    t_z = _cross(b1_sel[0] - px, b1_sel[1] - py, b2_sel[0] - px, b2_sel[1] - py)
    if abs(t_z) <= tol:
        return SINGULAR
    if math.copysign(1.0, t_z) == int(am):
        return VALID
    return INVALID


def coincidence_configurations(
    g: FiveBarGeometry,
) -> tuple[tuple[float, float], ...]:
    """Joint angles at which the elbows B1 and B2 coincide.

    The coincidence point is the intersection of the circles of radius L1
    around A1 and L2 around A2; there are two mirror configurations (or one
    on the base line), and none when the circles do not meet.
    """
    x = (g.L0 * g.L0 + g.L1 * g.L1 - g.L2 * g.L2) / (2.0 * g.L0)
    y_sq = g.L1 * g.L1 - x * x
    if y_sq < 0.0:
        return ()
    y = math.sqrt(y_sq)
    out = []
    for yy in (y, -y):
        out.append((math.atan2(yy, x), math.atan2(yy, x - g.L0)))
        if y == 0.0:
            break
    return tuple(out)
