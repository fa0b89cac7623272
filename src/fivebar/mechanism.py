"""Five-bar linkage kinematics over intervals.

The mechanism is a planar closed chain: base joints A1 = (0, 0) and
A2 = (L0, 0), proximal links L1 and L2 to the elbows B1 and B2, distal
links L3 and L4 meeting at the end point P. Actuated variables are the
base angles (theta1, theta2); outputs are the coordinates of P.

The interval direct/inverse kinematic verdicts classify whole boxes of
joint angles or workspace positions as certifiably valid, certifiably
invalid, or indeterminate, including certification of the assembly mode
(sign of det A, via the cross product (B1-P) x (B2-P)) and the working
mode (signs of the elbow cross products u_z, v_z).

Every mode setting runs a prefix of one list of stages: the mode-free
stages, one sine stage, one sign stage. The sine stage certifies the sign
that the first mode selects, by exact identities with distances certified
positive before it: det A = branch * L3 * |B1B2| * sin(alpha) in the joint
space, u_z = wm.s1 * L1 * |A1P| * sin(beta1) (v_z likewise) in the
workspace. The sign stage tests the other sign: u_z and v_z in the joint
space, det A in the workspace.

The classification kernel is the batch verdicts `joint_verdicts` and
`workspace_verdicts`: they classify a whole array of boxes at once with
the interval arrays of `interval`, and return only the verdict (+1 / -1 /
0) of each, computing only the enclosures it reads. A batch is given as
two axis tables, the distinct intervals of its columns and of its rows,
and an index into each per box: box k is ``x[ix[k]] x y[iy[k]]``. The
enclosures that depend on one axis alone are computed once per table
entry and gathered by row; the caller with arbitrary boxes passes
``ix = iy = arange(n)``. Each early return of a box-by-box verdict is a
mask over the rows still undecided, so every row gets the verdict its box
would get alone. Every quadtree classifier is a `BoxClassifier`, which
calls them and states the mirror symmetry of its verdicts
(`BoxClassifier.mirror`): reflecting the linkage in its base line maps
(theta1, theta2) to (-theta1, -theta2) and (px, py) to (px, -py), and a
box and its image get the same verdict mode-free and with one mode, so a
build classifies only one of them. `ikp_witness` maps a workspace point
that the kernel certifies for a working mode to its base angles, the
pairing witness of the aspects; it solves on the same interval arrays, as
a batch of one row. The law-of-cosines quotients of every stage go
through one helper, `_vlaw_cos`.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import interval as iv
from .interval import Box2

POINT_TOL = 1e-12
# Smallest accepted link length: below it, products of two lengths, and of
# a length and a distance on the order of the lengths, underflow to 0.
# Distances to A1 and A2 have no lower bound (a box may lie a subnormal
# distance from a base joint), so the verdicts divide by a product of
# distances and lengths through `_vquot`, which leaves a divisor that
# rounds to 0 undecided.
MIN_LENGTH = 1e-150


@dataclass(frozen=True)
class FiveBarGeometry:
    """Link lengths; the base frame is fixed at A1=(0,0), A2=(L0,0).

    Every length must be finite and at least MIN_LENGTH (1e-150), and the
    sums and squares the classifiers form from them must stay finite: with
    S = L0 + ... + L4, 2 * S * S must not overflow (S below about 9.4e153).
    ValueError otherwise. The lengths bound no distance to A1 or A2 from
    below (see MIN_LENGTH).
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


def default_jointspace_box() -> Box2:
    return Box2(iv.full_angle(), iv.full_angle())


def default_workspace_box(g: FiveBarGeometry) -> Box2:
    s = g.L1 + g.L3
    return Box2.from_bounds(-s, s, -s, s)


# --------------------------------------------------------------------------
# Batch verdicts: the quadtree classification kernel
# --------------------------------------------------------------------------

JOINTSPACE = "jointspace"
WORKSPACE = "workspace"


def _check_modes(space: str, wm: Optional[WorkingMode], am: Optional[AssemblyMode]):
    """ValueError unless ``space`` is known and admits the mode setting: a
    working mode needs an assembly mode in the joint space, and an assembly
    mode needs a working mode in the workspace."""
    if space == JOINTSPACE:
        if wm is not None and am is None:
            raise ValueError("a working mode in the joint space needs an assembly mode")
    elif space == WORKSPACE:
        if am is not None and wm is None:
            raise ValueError("an assembly mode in the workspace needs a working mode")
    else:
        raise ValueError(f"unknown space {space!r}")


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


def _vquot(n: iv.IArray, d: iv.IArray) -> iv.IArray:
    """n / d for a divisor d that is positive in exact arithmetic: a row
    whose lower bound of d rounds to 0 or below (a subnormal distance times
    a length) gets the whole line, which every test that reads it leaves
    undecided."""
    ok = d[0] > 0.0
    if ok.all():
        return iv.vdiv(n, d)
    lo, hi = np.full(len(ok), -np.inf), np.full(len(ok), np.inf)
    lo[ok], hi[ok] = iv.vdiv(*_take(ok, n, d))
    return lo, hi


def _vlaw_cos(m: iv.IArray, a: float, b: float) -> iv.IArray:
    """Cosine of the angle between the sides m and a of a triangle whose
    third side is b: (m^2 + a^2 - b^2) / (2 a m), the law of cosines."""
    return _vquot(iv.vshift(iv.vsqr(m), a * a - b * b), iv.vscale(m, 2.0 * a))


def joint_verdicts(
    x: iv.IArray,
    y: iv.IArray,
    ix: np.ndarray,
    iy: np.ndarray,
    g: FiveBarGeometry,
    am: Optional[AssemblyMode] = None,
    wm: Optional[WorkingMode] = None,
) -> np.ndarray:
    """Verdicts (+1 / -1 / 0, int8) of the joint-space boxes
    ``x[ix[k]] x y[iy[k]]`` of base angles (theta1, theta2), from the axis
    tables x of theta1 and y of theta2.

    Mode-free: assemblable and never stretched or folded. With ``am``: the
    branch of that assembly mode is certified nonsingular (sin(alpha) > 0,
    which fixes the sign of its det A). With ``am`` and ``wm``: in addition
    u_z and v_z of that branch carry the working-mode signs (-1 when one of
    them certainly carries the other sign).

    Only the enclosures the verdict reads are computed: nothing past
    cos(alpha) mode-free, past sin(alpha) with ``am`` alone, and with a full
    combo u_z and v_z of the one branch ``am``, without P or det A. The
    cosine and sine of each angle, and the elbow B1 or B2 they place, are
    computed once per table entry and gathered by row.
    """
    _check_modes(JOINTSPACE, wm, am)
    b = _Batch(len(ix))
    (c1t, s1t), (c2t, s2t) = iv.vcossin(x), iv.vcossin(y)
    b1x, b1y = _take(ix, iv.vscale(c1t, g.L1), iv.vscale(s1t, g.L1))
    b2x, b2y = _take(iy, iv.vshift(iv.vscale(c2t, g.L2), g.L0), iv.vscale(s2t, g.L2))
    # the gap B2 - B1 between the elbows
    dist = iv.vnorm2(iv.vsub(b2x, b1x), iv.vsub(b2y, b1y))
    keep = b.settle(
        ((dist[0] > g.L3 + g.L4) | (dist[1] < abs(g.L3 - g.L4)), -1),
        # possible B1 = B2 coincidence: P would rotate freely around B1
        (dist[0] <= 0.0, 0),
    )
    (dist,) = _take(keep, dist)
    # cos(alpha), the angle at B1 of the triangle (B1, B2, P)
    cos_a = _vlaw_cos(dist, g.L3, g.L4)
    # the |B1B2| enclosure meets [|L3 - L4|, L3 + L4], where cos(alpha) lies
    # in [-1, 1]: an enclosure wholly beyond +/-1 comes from a rounded
    # constant and is undecided, not White
    keep = b.settle(
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
    # det(A) = branch * L3 * |B1B2| * sin(alpha) carries the sign of the
    # branch: |B1B2| > 0 and sin(alpha) > 0 are certified above
    dist, cos_a, sin_a = _take(keep, dist, cos_a, sin_a)
    u_z, v_z = _vdkp_elbow_crosses(
        *_take(ix[b.rows], x, c1t, s1t), *_take(iy[b.rows], y, c2t, s2t),
        g, dist, cos_a, sin_a, int(am),
    )
    su, sv = iv.vsign(u_z), iv.vsign(v_z)
    b.settle(
        ((su == wm.s1) & (sv == wm.s2), 1),
        (((su != 0) & (su != wm.s1)) | ((sv != 0) & (sv != wm.s2)), -1),
    )
    return b.verdict


def _vdkp_elbow_crosses(t1, c1t, s1t, t2, c2t, s2t, g, dist, c, sin_a, branch):
    """Elbow cross products (u_z, v_z) of DKP branch ``branch``.

    Tangential/radial projections of the base and opposite links give them
    without reconstructing the elbow angles (far tighter over wide boxes):
      u_z = L1 L3 / |B1B2| * (G1 cos a + branch H1 sin a)
      v_z = L2 L4 / |B1B2| * (-G2 cos a' + branch H2 sin a')
    where a' is the angle at B2 of the same triangle (B1, B2, P).
    """
    c_prime = _vclip_unit(_vlaw_cos(dist, g.L4, g.L3))
    s_prime = iv.vscale(sin_a, g.L3 / g.L4)
    t21 = iv.vsub(t2, t1)
    c21, s21 = iv.vcossin(t21)
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
    x: iv.IArray,
    y: iv.IArray,
    ix: np.ndarray,
    iy: np.ndarray,
    g: FiveBarGeometry,
    wm: Optional[WorkingMode] = None,
    am: Optional[AssemblyMode] = None,
) -> np.ndarray:
    """Verdicts (+1 / -1 / 0, int8) of the workspace boxes
    ``x[ix[k]] x y[iy[k]]`` of end-point positions (px, py), from the axis
    tables x of px and y of py.

    Mode-free: strictly reachable by both legs. With ``wm``: in addition the
    working-mode signs are certified (both sines > 0, which fix the signs of
    u_z and v_z). With ``wm`` and ``am``: in addition det(A) of the solution
    of working mode ``wm`` carries the assembly-mode sign (-1 when it
    certainly carries the other sign).

    Only the enclosures the verdict reads are computed: nothing past the
    cosines c1, c2 of the angles at A1 and A2 mode-free, past the sines with
    ``wm`` alone, and with a full combo the one det(A) of elbow branches
    (-wm.s1, -wm.s2), without u_z, v_z, angles or elbows. The enclosures
    of |px|, |px - L0| and |py| are computed once per table entry and
    gathered by row.
    """
    _check_modes(WORKSPACE, wm, am)
    b = _Batch(len(ix))
    abs_x1, abs_x2 = _take(ix, iv.vabs(x), iv.vabs(iv.vshift(x, -g.L0)))
    (abs_y,) = _take(iy, iv.vabs(y))
    m1 = iv.vhypot(abs_x1, abs_y)
    m2 = iv.vhypot(abs_x2, abs_y)
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
    c1 = _vlaw_cos(m1, g.L1, g.L3)
    c2 = _vlaw_cos(m2, g.L2, g.L4)
    # strictly inside both annuli, c1 and c2 lie in (-1, 1): an enclosure
    # wholly beyond +/-1 comes from a rounded constant and is undecided, not
    # White
    keep = b.settle(
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
    # u_z = -i L1 |A1P| sin(beta1) and v_z = -j L2 |A2P| sin(beta2) carry the
    # working-mode signs in elbow branches (i, j) = (-wm.s1, -wm.s2):
    # |A1P|, |A2P| > 0 and both sines > 0 are certified above
    m1, m2, s1, s2 = _take(keep, m1, m2, s1, s2)
    (px,), (py,) = _take(ix[b.rows], x), _take(iy[b.rows], y)
    s = iv.vsign(_vikp_det_a(px, py, g, m1, m2, s1, s2, -wm.s1, -wm.s2))
    b.settle((s == int(am), 1), (s != 0, -1))
    return b.verdict


def _vikp_det_a(px, py, g, m1, m2, s1, s2, i, j):
    """det(A) cross product of the IKP solution with elbow branches (i, j).

    Exact identity
      (B1-P) x (B2-P) = L3 L4 [L0 py (cd1 cd2 + ij sd1 sd2)
                               + S (i cd2 sd1 - j cd1 sd2)] / (M1 M2)
    where (cd1, sd1), (cd2, sd2) are the cosines/sines of the triangle
    angles at P and S = px (px - L0) + py^2 (evaluated as a sharp
    single-variable quadratic plus a sharp square).
    """
    cd1 = _vclip_unit(_vlaw_cos(m1, g.L3, g.L1))
    cd2 = _vclip_unit(_vlaw_cos(m2, g.L4, g.L2))
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
    # near A1, where |A1P| |A2P| is subnormal, the bounds may overflow to
    # +-inf: outward bounds all the same, so numpy's warning is moot
    with np.errstate(over="ignore"):
        return iv.vscale(_vquot(n, iv.vmul(m1, m2)), g.L3 * g.L4)


def ikp_witness(
    px: float, py: float, g: FiveBarGeometry, wm: WorkingMode
) -> Optional[tuple[float, float]]:
    """Base angles (theta1, theta2) of working mode ``wm`` at the workspace
    point (px, py): the midpoints of their enclosures, or None unless
    `workspace_verdicts` certifies the point for ``wm``. Both the
    certificate and the solve run on one-row interval arrays.

    By u_z = -i L1 |A1P| sin(beta1) and v_z = -j L2 |A2P| sin(beta2), the
    mode is the elbow branch pair (i, j) = (-wm.s1, -wm.s2), with
    theta1 = alpha1 + i beta1 and theta2 = pi - alpha2 + j beta2.
    """
    x, y = (np.array([px]),) * 2, (np.array([py]),) * 2
    one = np.zeros(1, dtype=np.intp)
    if workspace_verdicts(x, y, one, one, g, wm)[0] != 1:
        return None
    m1 = iv.vnorm2(x, y)
    m2 = iv.vnorm2(iv.vshift(x, -g.L0), y)
    beta1 = iv.vacos(_vlaw_cos(m1, g.L1, g.L3))
    beta2 = iv.vacos(_vlaw_cos(m2, g.L2, g.L4))
    alpha1 = iv.vatan2(y, x)
    alpha2 = iv.vatan2(y, iv.vshift(iv.vneg(x), g.L0))
    pi_minus_a2 = iv.vshift(iv.vneg(alpha2), math.pi)
    t1 = iv.vsub(alpha1, beta1) if wm.s1 > 0 else iv.vadd(alpha1, beta1)
    t2 = iv.vsub(pi_minus_a2, beta2) if wm.s2 > 0 else iv.vadd(pi_minus_a2, beta2)
    # the midpoints as `Interval.mid` takes them, as Python floats
    return tuple((lo + (hi - lo) / 2).item() for lo, hi in (t1, t2))


@dataclass(frozen=True)
class BoxClassifier:
    """The quadtree classifier of one space and mode setting.

    ``batch(x, y, ix, iy)`` returns the verdicts of many boxes at once,
    box k being ``x[ix[k]] x y[iy[k]]`` of the axis tables x and y, and
    calling it with a `Box2` classifies one box (a batch of one). A working
    mode needs an assembly mode in the joint space, and an assembly mode
    needs a working mode in the workspace (ValueError).

    ``mirror`` is the XOR that reflecting the linkage in the base line, the
    x axis, applies to every quadrant digit of a box's path in a root box
    symmetric about 0: 3 in the joint space, where (theta1, theta2) becomes
    (-theta1, -theta2), and 2 in the workspace, where py becomes -py. The
    reflection keeps assembly, reachability and singularity, so a box and
    its image get the same verdict mode-free and with ``am`` alone (joint
    space) or ``wm`` alone (workspace). It turns a full combo into the
    opposite one, (-wm, -am), so a full combo has ``mirror`` 0.
    """

    space: str
    g: FiveBarGeometry
    wm: Optional[WorkingMode] = None
    am: Optional[AssemblyMode] = None

    def __post_init__(self):
        _check_modes(self.space, self.wm, self.am)

    @property
    def mirror(self) -> int:
        if self.space == JOINTSPACE:
            return 3 if self.wm is None else 0
        return 2 if self.am is None else 0

    def batch(self, x: iv.IArray, y: iv.IArray, ix: np.ndarray, iy: np.ndarray) -> np.ndarray:
        if self.space == JOINTSPACE:
            return joint_verdicts(x, y, ix, iy, self.g, self.am, self.wm)
        return workspace_verdicts(x, y, ix, iy, self.g, self.wm, self.am)

    def __call__(self, box: Box2) -> int:
        x = (np.array([box.x.lo]), np.array([box.x.hi]))
        y = (np.array([box.y.lo]), np.array([box.y.hi]))
        one = np.zeros(1, dtype=np.intp)
        return int(self.batch(x, y, one, one)[0])


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
