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
each one (2, n) interval array (anything ``np.asarray`` turns into one,
converted once on entry), and an index into each per box: box k is
``x[:, ix[k]] x y[:, iy[k]]``. The enclosures that depend on one axis
alone are computed once per table entry and gathered by row; the caller
with arbitrary boxes passes ``ix = iy = arange(n)``. What goes through the
same operations travels stacked on a leading axis: the cosines and sines
of both tables from one map, the two elbows, |A1P| and |A2P| from one
hypot. Each early return of a box-by-box verdict is a mask over the rows
still undecided, so every row gets the verdict its box would get alone.
Every quadtree classifier is a `BoxClassifier`, which calls them and
states the mirror symmetry of its verdicts (`BoxClassifier.mirror`):
reflecting the linkage in its base line maps (theta1, theta2) to
(-theta1, -theta2) and (px, py) to (px, -py), and a box and its image get
the same verdict mode-free and with one mode, so a build classifies only
one of them. `ikp_witness` maps a workspace point that the kernel
certifies for a working mode to its base angles, the pairing witness of
the aspects; it solves on the same interval arrays, as a batch of one
interval. The law-of-cosines quotients of every stage go through one
helper, `_vlaw_cos`.
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
        self.rows = self.rows.compress(keep)
        return keep

    def finish(self, v: int) -> np.ndarray:
        self.verdict[self.rows] = v
        return self.verdict


def _take(rows: np.ndarray, *arrays: iv.IArray) -> list[iv.IArray]:
    """The ``rows`` (a mask or indices) of each interval array, by
    ``compress`` or ``take`` on its last axis: cheaper than boolean or
    fancy indexing."""
    pick = np.ndarray.compress if rows.dtype == bool else np.ndarray.take
    return [pick(a, rows, axis=-1) for a in arrays]


def _stacked(*ks: float) -> np.ndarray:
    """One constant per interval array of a stack along a new first axis."""
    return np.array(ks).reshape(-1, 1, 1)


# per row, lower then upper: the whole line as an interval, and the bounds
# of `_vclip_unit`
_LINE = np.array([[-np.inf], [np.inf]])
_UNIT_LO, _UNIT_HI = np.array([[-1.0], [-np.inf]]), np.array([[np.inf], [1.0]])


def _vclip_unit(a: iv.IArray) -> iv.IArray:
    # the lower bounds up to -1 and the upper ones down to 1
    return np.clip(a, _UNIT_LO, _UNIT_HI)


def _vunit_sine(c: iv.IArray) -> iv.IArray:
    return iv.vsqrt(iv.vshift(iv.vneg(iv.vsqr(c)), 1.0))


def _vquot(n: iv.IArray, d: iv.IArray) -> iv.IArray:
    """n / d for a divisor d that is positive in exact arithmetic: an
    interval whose lower bound of d rounds to 0 or below (a subnormal
    distance times a length) gets the whole line, which every test that
    reads it leaves undecided. The others divide by d, the rest by 1."""
    if d[..., 0, :].min(initial=np.inf) > 0.0:
        return iv.vdiv(n, d)
    ok = (d[..., 0, :] > 0.0)[..., None, :]
    q = iv.vdiv(n, np.where(ok, d, 1.0))
    np.copyto(q, _LINE, where=~ok)
    return q


def _vlaw_cos(m: iv.IArray, a, b) -> iv.IArray:
    """Cosine of the angle between the sides m and a of a triangle whose
    third side is b: (m^2 + a^2 - b^2) / (2 a m), the law of cosines. For
    a stack of m, a and b hold one length per array (`_stacked`)."""
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
    ``x[:, ix[k]] x y[:, iy[k]]`` of base angles (theta1, theta2), from the
    axis tables x of theta1 and y of theta2.

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
    x, y = np.asarray(x, dtype=np.float64), np.asarray(y, dtype=np.float64)
    b = _Batch(len(ix))
    nx = x.shape[-1]
    # cos and sin of both tables' entries: (cos, sin) x (lo, hi) x entries
    cs = iv.vcossin(np.concatenate((x, y), axis=-1))
    dist = _vgap(cs, nx, ix, iy, g)
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
    z = _vdkp_elbow_crosses(
        x, y, cs, ix[b.rows], iy[b.rows], g, dist, cos_a, sin_a, int(am)
    )
    su, sv = iv.vsign(z)
    b.settle(
        ((su == wm.s1) & (sv == wm.s2), 1),
        (((su != 0) & (su != wm.s1)) | ((sv != 0) & (sv != wm.s2)), -1),
    )
    return b.verdict


def _vgap(cs, nx, ix, iy, g):
    """|B1B2| of the boxes ``x[:, ix[k]] x y[:, iy[k]]``, from the cosines
    and sines ``cs`` of the entries of the tables x and y, x's first."""
    # the elbows B1 = L1 (cos, sin)(theta1) and B2 = (L0, 0) + L2 (cos, sin)(theta2)
    elbow = iv.vscale(cs, np.repeat([g.L1, g.L2], [nx, cs.shape[-1] - nx]))
    elbow[0, :, nx:] = iv.vshift(elbow[0, :, nx:], g.L0)
    # the gap B2 - B1 between them, (x, y) stacked
    gap = iv.vsub(elbow[..., nx:].take(iy, axis=-1), elbow[..., :nx].take(ix, axis=-1))
    return iv.vhypot(*iv.vabs(gap))


def _vdkp_elbow_crosses(x, y, cs, ix, iy, g, dist, c, sin_a, branch):
    """Elbow cross products (u_z, v_z), stacked, of DKP branch ``branch``
    of the boxes ``x[:, ix[k]] x y[:, iy[k]]``, from the tables' (cos, sin)
    ``cs``.

    Tangential/radial projections of the base and opposite links give them
    without reconstructing the elbow angles (far tighter over wide boxes):
      u_z = L1 L3 / |B1B2| * (G1 cos a + branch H1 sin a)
      v_z = L2 L4 / |B1B2| * (-G2 cos a' + branch H2 sin a')
    where a' is the angle at B2 of the same triangle (B1, B2, P), and
      G1 = L2 s21 - L0 s1,   H1 = L0 c1 + L2 c21 - L1,
      G2 = L1 s21 - L0 s2,   H2 = L0 c2 - L1 c21 + L2
    with (c1, s1), (c2, s2) and (c21, s21) the cosines and sines of theta1,
    theta2 and theta2 - theta1.
    """
    nx = x.shape[-1]
    c_prime = _vclip_unit(_vlaw_cos(dist, g.L4, g.L3))
    s_prime = iv.vscale(sin_a, g.L3 / g.L4)
    # L0 (c1, s1) and L0 (c2, s2): (elbow 1, 2) x (cos, sin)
    base = iv.vscale(cs, g.L0).take(np.concatenate((ix, iy + nx)), axis=-1)
    base = base.reshape(2, 2, 2, -1).transpose(2, 0, 1, 3)
    # (L2 c21, L2 s21) and (-L1 c21, L1 s21): H2 adds -L1 c21
    t21 = iv.vsub(y.take(iy, axis=-1), x.take(ix, axis=-1))
    arms = np.array([[g.L2, g.L2], [-g.L1, g.L1]]).reshape(2, 2, 1, 1)
    opposite = iv.vscale(iv.vcossin(t21), arms)
    gg = iv.vsub(opposite[:, 1], base[:, 1])  # (G1, G2)
    hh = iv.vshift(iv.vadd(base[:, 0], opposite[:, 0]), _stacked(-g.L1, g.L2))  # (H1, H2)
    # (G1 cos a, -(G2 cos a')) + branch (H1 sin a, H2 sin a')
    gc = iv.vmul(gg, np.stack((c, c_prime)))
    gc[1] = iv.vneg(gc[1])
    num = iv.vadd(gc, iv.vscale(iv.vmul(hh, np.stack((sin_a, s_prime))), branch))
    return iv.vscale(iv.vdiv(num, dist), _stacked(g.L1 * g.L3, g.L2 * g.L4))


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
    ``x[:, ix[k]] x y[:, iy[k]]`` of end-point positions (px, py), from the
    axis tables x of px and y of py.

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
    gathered by row; the legs' quantities travel stacked, leg 1 then leg 2.
    """
    _check_modes(WORKSPACE, wm, am)
    x, y = np.asarray(x, dtype=np.float64), np.asarray(y, dtype=np.float64)
    b = _Batch(len(ix))
    # |A1P| and |A2P| from |px|, |px - L0| and |py|; the gathered rows live
    # only through the hypot (held for the whole call, they raised the peak
    # RSS of a build)
    dx = iv.vabs(np.stack((x, iv.vshift(x, -g.L0))))
    m = iv.vhypot(dx.take(ix, axis=-1), iv.vabs(y).take(iy, axis=-1))
    m1, m2 = m
    r1_out, r1_in = g.L1 + g.L3, abs(g.L1 - g.L3)
    r2_out, r2_in = g.L2 + g.L4, abs(g.L2 - g.L4)
    # r_in >= 0, so strictness also keeps A1 and A2 out of the box
    strict = (m1[0] > r1_in) & (m2[0] > r2_in) & (m1[1] < r1_out) & (m2[1] < r2_out)
    keep = b.settle(
        ((m1[0] > r1_out) | (m2[0] > r2_out), -1),
        ((m1[1] < r1_in) | (m2[1] < r2_in), -1),
        (~strict, 0),
    )
    (m,) = _take(keep, m)
    c = _vlaw_cos(m, _stacked(g.L1, g.L2), _stacked(g.L3, g.L4))
    # strictly inside both annuli, c1 and c2 lie in (-1, 1): an enclosure
    # wholly beyond +/-1 comes from a rounded constant and is undecided, not
    # White
    keep = b.settle((((c[:, 0] < -1.0) | (c[:, 1] > 1.0)).any(axis=0), 0))
    if wm is None:
        return b.finish(1)
    # c1 and c2 lie within [-1, 1] here: clipping is the identity
    m, c = _take(keep, m, c)
    s = _vunit_sine(c)
    keep = b.settle(((s[:, 0] <= 0.0).any(axis=0), 0))
    if am is None:
        return b.finish(1)
    # u_z = -i L1 |A1P| sin(beta1) and v_z = -j L2 |A2P| sin(beta2) carry the
    # working-mode signs in elbow branches (i, j) = (-wm.s1, -wm.s2):
    # |A1P|, |A2P| > 0 and both sines > 0 are certified above
    m, s = _take(keep, m, s)
    px, py = x.take(ix[b.rows], axis=-1), y.take(iy[b.rows], axis=-1)
    sign = iv.vsign(_vikp_det_a(px, py, g, m, s, -wm.s1, -wm.s2))
    b.settle((sign == int(am), 1), (sign != 0, -1))
    return b.verdict


def _vikp_det_a(px, py, g, m, s, i, j):
    """det(A) cross product of the IKP solution with elbow branches (i, j),
    from the stacked (|A1P|, |A2P|) ``m`` and sines ``s`` of the angles at
    A1 and A2.

    Exact identity
      (B1-P) x (B2-P) = L3 L4 [L0 py (cd1 cd2 + ij sd1 sd2)
                               + S (i cd2 sd1 - j cd1 sd2)] / (M1 M2)
    where (cd1, sd1), (cd2, sd2) are the cosines/sines of the triangle
    angles at P and S = px (px - L0) + py^2 (evaluated as a sharp
    single-variable quadratic plus a sharp square).
    """
    cd = _vclip_unit(_vlaw_cos(m, _stacked(g.L3, g.L4), _stacked(g.L1, g.L2)))
    sd = iv.vscale(s, _stacked(g.L1 / g.L3, g.L2 / g.L4))
    s_quad = iv.vadd(
        iv.vshift(iv.vsqr(iv.vshift(px, -g.L0 / 2)), -g.L0 * g.L0 / 4), iv.vsqr(py)
    )
    # cd1 cd2, sd1 sd2, sd1 cd2, cd1 sd2
    cc, ss, cs, sc = iv.vmul(
        np.stack((cd[0], sd[0], sd[0], cd[0])), np.stack((cd[1], sd[1], cd[1], sd[1]))
    )
    n = iv.vadd(
        iv.vscale(iv.vmul(py, iv.vadd(cc, iv.vscale(ss, i * j))), g.L0),
        iv.vmul(s_quad, iv.vsub(iv.vscale(cs, i), iv.vscale(sc, j))),
    )
    # near A1, where |A1P| |A2P| is subnormal, the bounds may overflow to
    # +-inf: outward bounds all the same, so numpy's warning is moot
    with np.errstate(over="ignore"):
        return iv.vscale(_vquot(n, iv.vmul(m[0], m[1])), g.L3 * g.L4)


def ikp_witness(
    px: float, py: float, g: FiveBarGeometry, wm: WorkingMode
) -> Optional[tuple[float, float]]:
    """Base angles (theta1, theta2) of working mode ``wm`` at the workspace
    point (px, py): the midpoints of their enclosures, or None unless
    `workspace_verdicts` certifies the point for ``wm``. Both the
    certificate and the solve run on one-interval arrays.

    By u_z = -i L1 |A1P| sin(beta1) and v_z = -j L2 |A2P| sin(beta2), the
    mode is the elbow branch pair (i, j) = (-wm.s1, -wm.s2), with
    theta1 = alpha1 + i beta1 and theta2 = pi - alpha2 + j beta2.
    """
    x, y = np.full((2, 1), float(px)), np.full((2, 1), float(py))
    one = np.zeros(1, dtype=np.intp)
    if workspace_verdicts(x, y, one, one, g, wm)[0] != 1:
        return None
    # (A1P, A2P) in x: (px, py) and (L0 - px, py)
    legs = np.stack((x, iv.vshift(iv.vneg(x), g.L0)))
    m = iv.vnorm2(legs, y)
    beta1, beta2 = iv.vacos(_vlaw_cos(m, _stacked(g.L1, g.L2), _stacked(g.L3, g.L4)))
    alpha1, alpha2 = iv.vatan2(y, legs)
    pi_minus_a2 = iv.vshift(iv.vneg(alpha2), math.pi)
    t1 = iv.vsub(alpha1, beta1) if wm.s1 > 0 else iv.vadd(alpha1, beta1)
    t2 = iv.vsub(pi_minus_a2, beta2) if wm.s2 > 0 else iv.vadd(pi_minus_a2, beta2)
    # the midpoints as `Interval.mid` takes them, as Python floats
    return tuple((lo + (hi - lo) / 2).item() for lo, hi in (t1, t2))


@dataclass(frozen=True)
class BoxClassifier:
    """The quadtree classifier of one space and mode setting.

    ``batch(x, y, ix, iy)`` returns the verdicts of many boxes at once,
    box k being ``x[:, ix[k]] x y[:, iy[k]]`` of the axis tables x and y, and
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
        x = np.array([[box.x.lo], [box.x.hi]])
        y = np.array([[box.y.lo], [box.y.hi]])
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
    if dist <= POINT_TOL:
        return SINGULAR
    outer, inner = g.L3 + g.L4, abs(g.L3 - g.L4)
    if dist > outer + POINT_TOL or dist < inner - POINT_TOL:
        return INVALID
    if abs(dist - outer) <= POINT_TOL or abs(dist - inner) <= POINT_TOL:
        return SINGULAR
    c = (dist * dist + g.L3 * g.L3 - g.L4 * g.L4) / (2.0 * g.L3 * dist)
    if 1.0 - abs(c) <= POINT_TOL:
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
        if any(abs(t_z) <= POINT_TOL for (_, t_z) in branches.values()):
            return SINGULAR
        return VALID
    wm, am = combo
    chosen = None
    for p, t_z in branches.values():
        if abs(t_z) <= POINT_TOL:
            return SINGULAR
        if math.copysign(1.0, t_z) == int(am):
            chosen = p
    if chosen is None:
        return INVALID
    u_z = _cross(b1[0], b1[1], chosen[0] - b1[0], chosen[1] - b1[1])
    v_z = _cross(b2[0] - g.L0, b2[1], chosen[0] - b2[0], chosen[1] - b2[1])
    if abs(u_z) <= POINT_TOL or abs(v_z) <= POINT_TOL:
        return SINGULAR
    if math.copysign(1.0, u_z) == wm.s1 and math.copysign(1.0, v_z) == wm.s2:
        return VALID
    return INVALID


def point_classify_workspace(
    px: float,
    py: float,
    g: FiveBarGeometry,
    combo: Optional[tuple[WorkingMode, AssemblyMode]] = None,
) -> str:
    """Classify an exact workspace point: valid / invalid / singular."""
    m1 = math.hypot(px, py)
    m2 = math.hypot(px - g.L0, py)
    r1_out, r1_in = g.L1 + g.L3, abs(g.L1 - g.L3)
    r2_out, r2_in = g.L2 + g.L4, abs(g.L2 - g.L4)
    if m1 > r1_out + POINT_TOL or m2 > r2_out + POINT_TOL:
        return INVALID
    if m1 < r1_in - POINT_TOL or m2 < r2_in - POINT_TOL:
        return INVALID
    if (
        abs(m1 - r1_out) <= POINT_TOL
        or abs(m1 - r1_in) <= POINT_TOL
        or abs(m2 - r2_out) <= POINT_TOL
        or abs(m2 - r2_in) <= POINT_TOL
        or m1 <= POINT_TOL
        or m2 <= POINT_TOL
    ):
        return SINGULAR
    if combo is None:
        return VALID
    wm, am = combo
    c1 = (g.L1 * g.L1 + m1 * m1 - g.L3 * g.L3) / (2.0 * m1 * g.L1)
    c2 = (g.L2 * g.L2 + m2 * m2 - g.L4 * g.L4) / (2.0 * m2 * g.L2)
    if 1.0 - abs(c1) <= POINT_TOL or 1.0 - abs(c2) <= POINT_TOL:
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
        if abs(u_z) <= POINT_TOL:
            return SINGULAR
        if math.copysign(1.0, u_z) == wm.s1:
            b1_sel = b1
    b2_sel = None
    for s in (1, -1):
        t2 = math.pi - alpha2 + s * beta2
        b2 = (g.L0 + g.L2 * math.cos(t2), g.L2 * math.sin(t2))
        v_z = _cross(b2[0] - g.L0, b2[1], px - b2[0], py - b2[1])
        if abs(v_z) <= POINT_TOL:
            return SINGULAR
        if math.copysign(1.0, v_z) == wm.s2:
            b2_sel = b2
    if b1_sel is None or b2_sel is None:
        return INVALID
    t_z = _cross(b1_sel[0] - px, b1_sel[1] - py, b2_sel[0] - px, b2_sel[1] - py)
    if abs(t_z) <= POINT_TOL:
        return SINGULAR
    if math.copysign(1.0, t_z) == int(am):
        return VALID
    return INVALID
