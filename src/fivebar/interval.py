"""Interval arithmetic with guaranteed enclosure.

Bounds are plain floats. Instead of switching the hardware rounding mode,
every computed bound is widened outward by two ulps, which keeps results
sound (the interval always encloses the exact range) at the cost of a
little tightness. That trade is fine here: the quadtree builder subdivides
anything it cannot certify.

The operations work on interval arrays (``vadd``, ``vmul``, ...): a pair
``(lo, hi)`` of float64 arrays, one interval per row. The classification
kernel and the pairing witness call them; `Interval` and `Box2` are the
value types of a root box, checked on construction. Each array operation
repeats the float operations of its scalar twin in the tests' reference
(``tests/interval_reference.py``), in the same order, so every row is bit
for bit the scalar result with two ``math.nextafter`` per widened bound.
The arrays widen a bound by stepping its int64 view by 2, which is what
two ``nextafter`` give for all finite floats away from zero and from the
largest finite value; the other rows (zeros, the smallest subnormals, the
largest floats, infinities and NaN) take ``np.nextafter``. The endpoint
values of sin, cos, acos and atan2 come from `math` mapped over the rows,
because numpy's own may round differently; sin and cos are mapped once per
distinct endpoint float. The values of hypot come from ``np.hypot``, one
call per bound. All of them are the platform libm's, whose error stays
under one ulp, and the two-ulp widening covers it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

HALF_PI = math.pi / 2
# outward slack of the quarter-period test of sin and cos, so that a
# borderline extremum is included rather than missed
TRIG_SLACK = 1e-9


class DomainError(ValueError):
    """An interval operation was applied outside its domain."""


def _down(x: float) -> float:
    return math.nextafter(math.nextafter(x, -math.inf), -math.inf)


def _up(x: float) -> float:
    return math.nextafter(math.nextafter(x, math.inf), math.inf)


class Interval:
    """Closed real interval [lo, hi] with finite bounds."""

    __slots__ = ("lo", "hi")

    def __init__(self, lo: float, hi: float):
        lo = float(lo)
        hi = float(hi)
        if not (math.isfinite(lo) and math.isfinite(hi)):
            raise ValueError(f"interval bounds must be finite, got [{lo}, {hi}]")
        if lo > hi:
            raise ValueError(f"inverted interval bounds [{lo}, {hi}]")
        self.lo = lo
        self.hi = hi

    @classmethod
    def point(cls, v: float) -> "Interval":
        return cls(v, v)

    @property
    def width(self) -> float:
        return self.hi - self.lo

    @property
    def mid(self) -> float:
        return self.lo + (self.hi - self.lo) / 2

    def contains(self, v: float) -> bool:
        return self.lo <= v <= self.hi

    def contains_zero(self) -> bool:
        return self.lo <= 0.0 <= self.hi

    def sign(self) -> int:
        """+1 / -1 when the interval strictly excludes 0, else 0."""
        if self.lo > 0.0:
            return 1
        if self.hi < 0.0:
            return -1
        return 0

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Interval)
            and self.lo == other.lo
            and self.hi == other.hi
        )

    def __hash__(self) -> int:
        return hash((self.lo, self.hi))

    def __repr__(self) -> str:
        return f"Interval({self.lo!r}, {self.hi!r})"

    def __neg__(self) -> "Interval":
        return Interval(-self.hi, -self.lo)


def full_angle() -> Interval:
    """Enclosure of the whole angle range [-pi, pi]."""
    return Interval(_down(-math.pi), _up(math.pi))


# --------------------------------------------------------------------------
# Interval arrays: (lo, hi) pairs of float64 arrays
# --------------------------------------------------------------------------

IArray = tuple[np.ndarray, np.ndarray]


# the magnitude bits of a float64's int64 view, the view of the largest
# finite float64, and the bound of the uint64 view of (magnitude - 2) on the
# rows that `_vstep` steps on the view
_MAGNITUDE = np.int64(0x7FFF_FFFF_FFFF_FFFF)
_MAX_BITS = 0x7FEF_FFFF_FFFF_FFFF
_STEP_SPAN = np.uint64(_MAX_BITS - 4)


def _vstep(x: np.ndarray, toward: float) -> np.ndarray:
    """Every row of x two ulps toward ``toward`` (-inf or inf), the bits of
    two ``np.nextafter``.

    The int64 view of a float steps by one per ulp of its magnitude, so a
    finite float whose magnitude bits m satisfy 2 <= m <= bits(max) - 2
    moves by -2 (toward zero) or +2 (away from it) on its view. Every other
    row, and only those, takes ``np.nextafter``: +-0 and the two smallest
    subnormals of each sign (a step toward zero would cross it), +-max and
    its neighbour (a step away from zero overflows, and ``np.nextafter``
    raises numpy's overflow RuntimeWarning), +-inf and NaN (whose view - 2
    can land on max).
    """
    b = x.view(np.int64)
    # b >> 63 is -1 on a negative float, so (b >> 63) & 4 flips the step
    if toward < 0.0:
        out = b - 2 + ((b >> 63) & 4)
    else:
        out = b + 2 - ((b >> 63) & 4)
    out = out.view(np.float64)
    odd = ((b & _MAGNITUDE) - 2).view(np.uint64) > _STEP_SPAN
    if odd.any():
        out[odd] = np.nextafter(np.nextafter(x[odd], toward), toward)
    return out


def _vdown(x: np.ndarray) -> np.ndarray:
    return _vstep(x, -np.inf)


def _vup(x: np.ndarray) -> np.ndarray:
    return _vstep(x, np.inf)


def _vmap(f, *xs: np.ndarray) -> np.ndarray:
    # a scalar math function over the rows, for results numpy may round
    # otherwise; fromiter fills the array without an intermediate list
    return np.fromiter(map(f, *(x.tolist() for x in xs)), np.float64, len(xs[0]))


def _vmap_endpoints(a: IArray, *fs) -> list[IArray]:
    """Each function of ``fs`` at the endpoints of the rows of ``a``, as
    (at lo, at hi) per function, mapped once per distinct endpoint float.

    The rows of a quadtree frontier share their edges, so the distinct
    endpoints are far fewer than the rows. They are told apart by their
    int64 views, which keeps -0.0 and 0.0 apart.
    """
    n = len(a[0])
    keys, inv = np.unique(np.concatenate(a).view(np.int64), return_inverse=True)
    ends = keys.view(np.float64)
    values = [_vmap(f, ends)[inv] for f in fs]
    return [(v[:n], v[n:]) for v in values]


def vadd(a: IArray, b: IArray) -> IArray:
    return _vdown(a[0] + b[0]), _vup(a[1] + b[1])


def vsub(a: IArray, b: IArray) -> IArray:
    return _vdown(a[0] - b[1]), _vup(a[1] - b[0])


def vshift(a: IArray, k: float) -> IArray:
    return _vdown(a[0] + k), _vup(a[1] + k)


def vscale(a: IArray, k: float) -> IArray:
    if k >= 0.0:
        return _vdown(a[0] * k), _vup(a[1] * k)
    return _vdown(a[1] * k), _vup(a[0] * k)


def vneg(a: IArray) -> IArray:
    return -a[1], -a[0]


def _corners(p1, p2, p3, p4) -> IArray:
    # np.minimum/np.maximum may pick the other zero of a tie -0.0 == 0.0,
    # which the widening maps to the same bound
    lo = np.minimum(np.minimum(p1, p2), np.minimum(p3, p4))
    hi = np.maximum(np.maximum(p1, p2), np.maximum(p3, p4))
    return _vdown(lo), _vup(hi)


def vmul(a: IArray, b: IArray) -> IArray:
    return _corners(a[0] * b[0], a[0] * b[1], a[1] * b[0], a[1] * b[1])


def vdiv(a: IArray, b: IArray) -> IArray:
    if np.any((b[0] <= 0.0) & (0.0 <= b[1])):
        raise DomainError("division by an interval containing zero")
    return _corners(a[0] / b[0], a[0] / b[1], a[1] / b[0], a[1] / b[1])


def vsqr(a: IArray) -> IArray:
    lo2 = a[0] * a[0]
    hi2 = a[1] * a[1]
    straddle = (a[0] <= 0.0) & (0.0 <= a[1])
    lo = np.where(straddle, 0.0, np.maximum(0.0, _vdown(np.minimum(lo2, hi2))))
    return lo, _vup(np.maximum(lo2, hi2))


def vsqrt(a: IArray) -> IArray:
    if np.any(a[1] < 0.0):
        raise DomainError("sqrt of a negative interval")
    pos = a[0] > 0.0
    lo = np.where(pos, np.maximum(0.0, _vdown(np.sqrt(np.where(pos, a[0], 0.0)))), 0.0)
    return lo, _vup(np.sqrt(a[1]))


def vacos(a: IArray) -> IArray:
    """Enclosures of acos over each row clamped to [-1, 1]; DomainError when
    a row does not meet that range."""
    lo = np.maximum(a[0], -1.0)
    hi = np.minimum(a[1], 1.0)
    if np.any(lo > hi):
        raise DomainError("acos argument does not intersect [-1, 1]")
    return np.maximum(0.0, _vdown(_vmap(math.acos, hi))), _vup(_vmap(math.acos, lo))


def _vmod4(k: np.ndarray) -> np.ndarray:
    """``np.mod(k, 4.0)`` of integer-valued floats, the same bits: every
    step is exact on them, and a float mod costs some ten times more."""
    return k - 4.0 * np.floor(k * 0.25)


def _vtrig(quarters, e_lo: np.ndarray, e_hi: np.ndarray, k_max: int, k_min: int) -> IArray:
    """Bounds of sin (k_max, k_min = 1, 3) or cos (0, 2) from the endpoint
    values: an extremum at k*pi/2 counts when some k with k % 4 == k_max
    (k_min) lies in k0..k1, the integers k whose k*pi/2 might lie in the
    row, widened by TRIG_SLACK. ``quarters`` holds k0 % 4, k1 - k0 and
    whether the row is 2 pi wide or more."""
    # the first k >= k0 of a residue is k0 + (r - k0 % 4) % 4; both mods are
    # exact in floats, and so is comparing that offset (0..3) with k1 - k0
    r0, span, full = quarters
    at_max = full | (_vmod4(k_max - r0) <= span)
    at_min = full | (_vmod4(k_min - r0) <= span)
    lo = np.where(at_min, -1.0, np.maximum(-1.0, _vdown(np.minimum(e_lo, e_hi))))
    hi = np.where(at_max, 1.0, np.minimum(1.0, _vup(np.maximum(e_lo, e_hi))))
    return lo, hi


def vcossin(a: IArray) -> tuple[IArray, IArray]:
    """Enclosures of cos and of sin over the rows, sharing one
    quarter-period test and one map per distinct endpoint."""
    k0 = np.ceil(a[0] / HALF_PI - TRIG_SLACK)
    k1 = np.floor(a[1] / HALF_PI + TRIG_SLACK)
    quarters = _vmod4(k0), k1 - k0, a[1] - a[0] >= math.tau
    ec, es = _vmap_endpoints(a, math.cos, math.sin)
    return _vtrig(quarters, *ec, 0, 2), _vtrig(quarters, *es, 1, 3)


def vatan2(y: IArray, x: IArray) -> IArray:
    """Enclosures of the angle of every point of the boxes (x, y).

    A box that holds the origin or straddles the branch cut (the negative x
    axis) gets the full angle; elsewhere the extreme angles sit at corners.
    """
    full = ((x[0] <= 0.0) & (0.0 <= x[1]) & (y[0] <= 0.0) & (0.0 <= y[1])) | (
        (x[0] < 0.0) & (y[0] < 0.0) & (0.0 <= y[1])
    )
    corners = [_vmap(math.atan2, y_end, x_end) for y_end in y for x_end in x]
    lo, hi = _corners(*corners)
    angle = full_angle()
    return np.where(full, angle.lo, lo), np.where(full, angle.hi, hi)


def vabs(a: IArray) -> IArray:
    """Enclosures of |a| over the rows: the mignitude and the magnitude."""
    lo, hi = np.abs(a[0]), np.abs(a[1])
    mig = np.where((a[0] <= 0.0) & (0.0 <= a[1]), 0.0, np.minimum(lo, hi))
    return mig, np.maximum(lo, hi)


def vhypot(a: IArray, b: IArray) -> IArray:
    """Enclosures of sqrt(a^2 + b^2) over the rows of the nonnegative
    interval arrays a and b (from `vabs`). A bound whose hypot overflows
    to inf is still an upper bound, so the overflow is not reported."""
    with np.errstate(over="ignore"):
        lo, hi = (np.hypot(x, y) for x, y in zip(a, b))
        return np.maximum(0.0, _vdown(lo)), _vup(hi)


def vnorm2(dx: IArray, dy: IArray) -> IArray:
    """Enclosures of sqrt(dx^2 + dy^2) over the boxes (dx, dy)."""
    return vhypot(vabs(dx), vabs(dy))


def vsign(a: IArray) -> np.ndarray:
    """Rows of `Interval.sign`: +1 / -1 where 0 is strictly excluded, else 0."""
    return np.where(a[0] > 0.0, 1, np.where(a[1] < 0.0, -1, 0))


@dataclass(frozen=True)
class Box2:
    """Axis-aligned box: a pair of intervals."""

    x: Interval
    y: Interval

    @classmethod
    def from_bounds(cls, x_lo: float, x_hi: float, y_lo: float, y_hi: float) -> "Box2":
        return cls(Interval(x_lo, x_hi), Interval(y_lo, y_hi))

    @classmethod
    def point(cls, x: float, y: float) -> "Box2":
        return cls(Interval.point(x), Interval.point(y))

    def contains(self, px: float, py: float) -> bool:
        return self.x.contains(px) and self.y.contains(py)

    @property
    def area(self) -> float:
        return self.x.width * self.y.width
