"""Interval arithmetic with guaranteed enclosure.

Bounds are plain floats. Instead of switching the hardware rounding mode,
every computed bound is widened outward by two ulps (``math.nextafter``),
which keeps results sound (the interval always encloses the exact range)
at the cost of a little tightness. That trade is fine here: the quadtree
builder subdivides anything it cannot certify.

Two forms share these rules. `Interval` and its functions work on one
interval; the quadtree classifiers use the array forms (``vadd``, ``vmul``,
...), which work on an interval array: a pair ``(lo, hi)`` of float64
arrays, one interval per row. Each array function repeats its scalar
twin's float operations in the same order, so every row is bit for bit
the scalar result. The endpoint values of sin, cos and hypot come from
`math` mapped over the rows, because numpy's own may round differently.
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

    def __add__(self, other: "Interval") -> "Interval":
        return add(self, other)

    def __sub__(self, other: "Interval") -> "Interval":
        return sub(self, other)

    def __mul__(self, other: "Interval") -> "Interval":
        return mul(self, other)

    def __truediv__(self, other: "Interval") -> "Interval":
        return div(self, other)

    def __neg__(self) -> "Interval":
        return _iv(-self.hi, -self.lo)


def _iv(lo: float, hi: float) -> Interval:
    # internal fast path: bounds already validated by construction
    out = Interval.__new__(Interval)
    out.lo = lo
    out.hi = hi
    return out


def full_angle() -> Interval:
    """Enclosure of the whole angle range [-pi, pi]."""
    return _iv(_down(-math.pi), _up(math.pi))


def add(a: Interval, b: Interval) -> Interval:
    return _iv(_down(a.lo + b.lo), _up(a.hi + b.hi))


def sub(a: Interval, b: Interval) -> Interval:
    return _iv(_down(a.lo - b.hi), _up(a.hi - b.lo))


def shift(a: Interval, k: float) -> Interval:
    return _iv(_down(a.lo + k), _up(a.hi + k))


def mul(a: Interval, b: Interval) -> Interval:
    p1 = a.lo * b.lo
    p2 = a.lo * b.hi
    p3 = a.hi * b.lo
    p4 = a.hi * b.hi
    return _iv(_down(min(p1, p2, p3, p4)), _up(max(p1, p2, p3, p4)))


def scale(a: Interval, k: float) -> Interval:
    if k >= 0.0:
        return _iv(_down(a.lo * k), _up(a.hi * k))
    return _iv(_down(a.hi * k), _up(a.lo * k))


def div(a: Interval, b: Interval) -> Interval:
    if b.lo <= 0.0 <= b.hi:
        raise DomainError(f"division by interval containing zero: {b!r}")
    q1 = a.lo / b.lo
    q2 = a.lo / b.hi
    q3 = a.hi / b.lo
    q4 = a.hi / b.hi
    return _iv(_down(min(q1, q2, q3, q4)), _up(max(q1, q2, q3, q4)))


def sqr(a: Interval) -> Interval:
    """Sharp square: range of t^2 over a, with lower bound 0 when 0 in a."""
    lo2 = a.lo * a.lo
    hi2 = a.hi * a.hi
    if a.lo <= 0.0 <= a.hi:
        return _iv(0.0, _up(max(lo2, hi2)))
    return _iv(max(0.0, _down(min(lo2, hi2))), _up(max(lo2, hi2)))


def sqrt(a: Interval) -> Interval:
    if a.hi < 0.0:
        raise DomainError(f"sqrt of negative interval {a!r}")
    # tiny negative lower bounds from rounding clamp to 0
    lo = 0.0 if a.lo <= 0.0 else max(0.0, _down(math.sqrt(a.lo)))
    return _iv(lo, _up(math.sqrt(a.hi)))


def _trig_quarters(a: Interval) -> tuple[int, int]:
    # integers k such that k*pi/2 might lie in a, widened by TRIG_SLACK
    k0 = math.ceil(a.lo / HALF_PI - TRIG_SLACK)
    k1 = math.floor(a.hi / HALF_PI + TRIG_SLACK)
    return k0, k1


def sin(a: Interval) -> Interval:
    if a.hi - a.lo >= math.tau:
        return _iv(-1.0, 1.0)
    s_lo = math.sin(a.lo)
    s_hi = math.sin(a.hi)
    lo = min(s_lo, s_hi)
    hi = max(s_lo, s_hi)
    at_max = at_min = False
    k0, k1 = _trig_quarters(a)
    for k in range(k0, k1 + 1):
        m = k % 4
        if m == 1:
            at_max = True
        elif m == 3:
            at_min = True
    return _iv(
        -1.0 if at_min else max(-1.0, _down(lo)),
        1.0 if at_max else min(1.0, _up(hi)),
    )


def cos(a: Interval) -> Interval:
    if a.hi - a.lo >= math.tau:
        return _iv(-1.0, 1.0)
    c_lo = math.cos(a.lo)
    c_hi = math.cos(a.hi)
    lo = min(c_lo, c_hi)
    hi = max(c_lo, c_hi)
    at_max = at_min = False
    k0, k1 = _trig_quarters(a)
    for k in range(k0, k1 + 1):
        m = k % 4
        if m == 0:
            at_max = True
        elif m == 2:
            at_min = True
    return _iv(
        -1.0 if at_min else max(-1.0, _down(lo)),
        1.0 if at_max else min(1.0, _up(hi)),
    )


def acos(a: Interval) -> tuple[Interval, bool]:
    """Enclosure of acos over a intersected with [-1, 1].

    The boolean reports whether the input stuck out of [-1, 1]; callers in
    the kinematics layer treat a clamped result as indeterminate.
    """
    lo = max(a.lo, -1.0)
    hi = min(a.hi, 1.0)
    if lo > hi:
        raise DomainError(f"acos argument {a!r} does not intersect [-1, 1]")
    clamped = a.lo < -1.0 or a.hi > 1.0
    return _iv(max(0.0, _down(math.acos(hi))), _up(math.acos(lo))), clamped


def atan2(y: Interval, x: Interval) -> tuple[Interval, bool]:
    """Enclosure of the angle of all points in the box (x, y).

    Returns ``(interval, origin_flag)``. If the box contains the origin the
    angle is unconstrained and the full range [-pi, pi] is returned with the
    flag set. A box straddling the branch cut (negative x axis) also yields
    the full range, flag clear.
    """
    if x.lo <= 0.0 <= x.hi and y.lo <= 0.0 <= y.hi:
        return full_angle(), True
    if x.lo < 0.0 and y.lo < 0.0 <= y.hi:
        return full_angle(), False
    # away from the origin and the cut, the extreme angles sit at corners
    a1 = math.atan2(y.lo, x.lo)
    a2 = math.atan2(y.lo, x.hi)
    a3 = math.atan2(y.hi, x.lo)
    a4 = math.atan2(y.hi, x.hi)
    return _iv(_down(min(a1, a2, a3, a4)), _up(max(a1, a2, a3, a4))), False


def _mig(a: Interval) -> float:
    if a.lo <= 0.0 <= a.hi:
        return 0.0
    return min(abs(a.lo), abs(a.hi))


def _mag(a: Interval) -> float:
    return max(abs(a.lo), abs(a.hi))


def norm2(dx: Interval, dy: Interval) -> Interval:
    """Enclosure of sqrt(dx^2 + dy^2) over the box (dx, dy)."""
    mx, my = _mig(dx), _mig(dy)
    lo = 0.0 if mx == 0.0 and my == 0.0 else max(0.0, _down(math.hypot(mx, my)))
    return _iv(lo, _up(math.hypot(_mag(dx), _mag(dy))))


def cross_z(ux: Interval, uy: Interval, vx: Interval, vy: Interval) -> Interval:
    """Enclosure of the z component of the planar cross product u x v."""
    return sub(mul(ux, vy), mul(uy, vx))


# --------------------------------------------------------------------------
# Interval arrays: (lo, hi) pairs of float64 arrays
# --------------------------------------------------------------------------

IArray = tuple[np.ndarray, np.ndarray]


def _vdown(x: np.ndarray) -> np.ndarray:
    return np.nextafter(np.nextafter(x, -np.inf), -np.inf)


def _vup(x: np.ndarray) -> np.ndarray:
    return np.nextafter(np.nextafter(x, np.inf), np.inf)


def _vmap(f, *xs: np.ndarray) -> np.ndarray:
    # a scalar math function over the rows, for results numpy may round otherwise
    return np.array(list(map(f, *(x.tolist() for x in xs))), dtype=np.float64)


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


def _vtrig(a: IArray, e_lo: np.ndarray, e_hi: np.ndarray, k_max: int, k_min: int) -> IArray:
    """Bounds of sin (k_max, k_min = 1, 3) or cos (0, 2) from the endpoint
    values: an extremum at k*pi/2 counts when some k with k % 4 == k_max
    (k_min) lies in the range of `_trig_quarters`."""
    k0 = np.ceil(a[0] / HALF_PI - TRIG_SLACK)
    k1 = np.floor(a[1] / HALF_PI + TRIG_SLACK)
    # the first k >= k0 of a residue is k0 + (r - k0 % 4) % 4; both mods are
    # exact in floats, and so is comparing that offset (0..3) with k1 - k0
    r0 = np.mod(k0, 4.0)
    span = k1 - k0
    full = a[1] - a[0] >= math.tau
    at_max = full | (np.mod(k_max - r0, 4.0) <= span)
    at_min = full | (np.mod(k_min - r0, 4.0) <= span)
    lo = np.where(at_min, -1.0, np.maximum(-1.0, _vdown(np.minimum(e_lo, e_hi))))
    hi = np.where(at_max, 1.0, np.minimum(1.0, _vup(np.maximum(e_lo, e_hi))))
    return lo, hi


def vsin(a: IArray) -> IArray:
    return _vtrig(a, _vmap(math.sin, a[0]), _vmap(math.sin, a[1]), 1, 3)


def vcos(a: IArray) -> IArray:
    return _vtrig(a, _vmap(math.cos, a[0]), _vmap(math.cos, a[1]), 0, 2)


def vnorm2(dx: IArray, dy: IArray) -> IArray:
    """Rows of `norm2`: enclosures of sqrt(dx^2 + dy^2)."""
    mig = [
        np.where((lo <= 0.0) & (0.0 <= hi), 0.0, np.minimum(np.abs(lo), np.abs(hi)))
        for lo, hi in (dx, dy)
    ]
    mag = [np.maximum(np.abs(lo), np.abs(hi)) for lo, hi in (dx, dy)]
    lo = np.where(
        (mig[0] == 0.0) & (mig[1] == 0.0),
        0.0,
        np.maximum(0.0, _vdown(_vmap(math.hypot, *mig))),
    )
    return lo, _vup(_vmap(math.hypot, *mag))


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

    def subdivide(self) -> tuple["Box2", "Box2", "Box2", "Box2"]:
        """Quadrants in fixed order: x-lo/y-lo, x-hi/y-lo, x-lo/y-hi, x-hi/y-hi.

        The midpoints are computed once and shared by siblings so the four
        children tile the box exactly in floating point.
        """
        xm = self.x.lo + (self.x.hi - self.x.lo) / 2
        ym = self.y.lo + (self.y.hi - self.y.lo) / 2
        x_lo = _iv(self.x.lo, xm)
        x_hi = _iv(xm, self.x.hi)
        y_lo = _iv(self.y.lo, ym)
        y_hi = _iv(ym, self.y.hi)
        return (
            Box2(x_lo, y_lo),
            Box2(x_hi, y_lo),
            Box2(x_lo, y_hi),
            Box2(x_hi, y_hi),
        )

    @property
    def area(self) -> float:
        return self.x.width * self.y.width
