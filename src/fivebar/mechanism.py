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

There are two kinds of box routine. The verdict functions `joint_verdict`
and `workspace_verdict` return only the sign (+1 / -1 / 0) and compute
only the enclosures it reads; every quadtree classifier goes through them.
The full solvers `dkp_box` and `ikp_box` return every solution enclosure;
they serve witness points and inspection. Both kinds share their formulas,
so they agree on every box.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Callable, Optional

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


def elbow_positions(box: Box2, g: FiveBarGeometry) -> tuple[IVec2, IVec2]:
    """Elbow enclosures B1 = A1 + L1*(cos t1, sin t1), B2 = A2 + L2*(cos t2, sin t2)."""
    t1, t2 = box.x, box.y
    b1 = (iv.scale(iv.cos(t1), g.L1), iv.scale(iv.sin(t1), g.L1))
    b2 = (
        iv.shift(iv.scale(iv.cos(t2), g.L2), g.L0),
        iv.scale(iv.sin(t2), g.L2),
    )
    return b1, b2


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
    """Front half of the DKP, shared by `dkp_box` and `joint_verdict`.

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
    points and for inspection. Quadtree builds use `joint_verdict`, which
    returns the same verdict without the enclosures it does not read.

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


def joint_verdict(
    box: Box2,
    g: FiveBarGeometry,
    am: Optional[AssemblyMode] = None,
    wm: Optional[WorkingMode] = None,
) -> int:
    """Sign-only classification of a joint-space box: +1 / -1 / 0.

    Mode-free: assemblable and never stretched or folded. With ``am``: the
    branch of that assembly mode is certified nonsingular. With ``am`` and
    ``wm``: in addition u_z and v_z of that branch carry the working-mode
    signs (-1 when one of them certainly carries the other sign).

    The verdict equals the status of `dkp_box` (plus that sign test), from
    the same enclosures, but computes only those it reads: it stops after
    cos(alpha) when mode-free, after sin(alpha) with ``am`` alone, and with
    a full combo solves the one branch ``am``, without P.
    """
    if wm is not None and am is None:
        raise ValueError("a working mode in the joint space needs an assembly mode")
    status, trig, _, _, _, _, dist, cos_alpha = _dkp_triangle(box, g)
    if status is not None:
        return int(status)
    if cos_alpha.lo <= -1.0 or cos_alpha.hi >= 1.0:
        return 0  # stretched/folded configuration within the box
    if am is None:
        return 1
    # cos(alpha) lies strictly inside (-1, 1) here: clipping is the identity
    sin_alpha = _unit_sine(cos_alpha)
    if sin_alpha.lo <= 0.0:
        return 0
    if wm is None:
        return 1
    branch = int(am)
    if iv.scale(iv.mul(dist, sin_alpha), branch * g.L3).sign() != branch:
        return 0
    ((u_z, v_z),) = _dkp_elbow_crosses(
        box, trig, g, dist, cos_alpha, sin_alpha, (branch,)
    )
    su, sv = u_z.sign(), v_z.sign()
    if su == wm.s1 and sv == wm.s2:
        return 1
    if (su != 0 and su != wm.s1) or (sv != 0 and sv != wm.s2):
        return -1
    return 0


# --------------------------------------------------------------------------
# Inverse kinematics over workspace boxes
# --------------------------------------------------------------------------


def _ikp_legs(box: Box2, g: FiveBarGeometry):
    """Front half of the IKP, shared by `ikp_box` and `workspace_verdict`.

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
    `workspace_verdict`, which returns the same verdict without the
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


def workspace_verdict(
    box: Box2,
    g: FiveBarGeometry,
    wm: Optional[WorkingMode] = None,
    am: Optional[AssemblyMode] = None,
) -> int:
    """Sign-only classification of a workspace box: +1 / -1 / 0.

    Mode-free: strictly reachable by both legs. With ``wm``: in addition the
    working-mode signs are certified. With ``wm`` and ``am``: in addition
    det(A) of the solution of working mode ``wm`` carries the assembly-mode
    sign (-1 when it certainly carries the other sign).

    The verdict equals the status of `ikp_box` (plus that sign test), from
    the same enclosures, but computes only those it reads: it stops after
    c1, c2 when mode-free, after the sines with ``wm`` alone, and with a full
    combo evaluates u_z, v_z and the one det(A) of elbow branches
    (-wm.s1, -wm.s2), without angles or elbows.
    """
    if am is not None and wm is None:
        raise ValueError("an assembly mode in the workspace needs a working mode")
    status, m1, m2, c1, c2 = _ikp_legs(box, g)
    if status is not None:
        return int(status)
    if c1.lo < -1.0 or c1.hi > 1.0 or c2.lo < -1.0 or c2.hi > 1.0:
        return 0
    if wm is None:
        return 1
    # c1 and c2 lie within [-1, 1] here: clipping is the identity
    s1, s2 = _unit_sine(c1), _unit_sine(c2)
    if s1.lo <= 0.0 or s2.lo <= 0.0:
        return 0
    if am is None:
        return 1
    # u_z = -i L1 |A1P| sin(beta1), v_z = -j L2 |A2P| sin(beta2)
    i, j = -wm.s1, -wm.s2
    if (
        iv.scale(iv.mul(m1, s1), -i * g.L1).sign() != wm.s1
        or iv.scale(iv.mul(m2, s2), -j * g.L2).sign() != wm.s2
    ):
        return 0
    s = _ikp_det_a(box, g, m1, m2, s1, s2)(i, j).sign()
    if s == int(am):
        return 1
    if s != 0:
        return -1
    return 0


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
