"""Interval arithmetic with guaranteed enclosure.

Bounds are plain floats. Instead of switching the hardware rounding mode,
every computed bound is widened outward by two ulps, which keeps results
sound (the interval always encloses the exact range) at the cost of a
little tightness. That trade is fine here: the quadtree builder subdivides
anything it cannot certify.

The operations work on interval arrays (``vadd``, ``vmul``, ...): one
float64 array of shape (..., 2, n) per n intervals, their lower bounds in
row 0 and their upper bounds in row 1 of axis -2. Leading axes stack
arrays that travel together, such as the two legs of the linkage, and go
through each operation in one numpy call. The classification kernel and
the pairing witness call them; `Interval` and `Box2` are the value types
of a root box, checked on construction. Each array operation repeats the
float operations of its scalar twin in the tests' reference
(``tests/interval_reference.py``), in the same order or an order with the
same result, so every interval is bit for bit the scalar result with two
``math.nextafter`` per widened bound. One function widens them all,
`_widen`, both rows of an array in one call and in place: it steps every
bound's int64 view by 2, which is what two ``nextafter`` give for all
finite floats away from zero and from the largest finite value, and
gives the other bounds (zeros, the smallest subnormals, the largest
floats, infinities and NaN) ``np.nextafter``. The endpoint values of sin,
cos, acos and atan2 come from `math` mapped over the bounds, because
numpy's own may round differently; sin and cos are mapped once per
distinct endpoint float. The values of hypot come from ``np.hypot``, one
call for both bounds. All of them are the platform libm's, whose error
stays under one ulp, and the two-ulp widening covers it.
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
# Interval arrays: the lower and the upper bounds in one float64 array
# --------------------------------------------------------------------------

# An interval array has shape (..., 2, n): along axis -2, row 0 holds the
# lower bounds of n intervals and row 1 their upper bounds. Leading axes
# stack arrays that go through the same operations.
IArray = np.ndarray


# the magnitude bits of a float64's int64 view, the view of the largest
# finite float64, and the bound of the uint64 view of (magnitude - 2) on the
# entries that `_widen` steps on the view
_MAGNITUDE = np.int64(0x7FFF_FFFF_FFFF_FFFF)
_MAX_BITS = 0x7FEF_FFFF_FFFF_FFFF
_STEP_SPAN = np.uint64(_MAX_BITS - 4)
# per row, lower then upper: the step of a positive bound's view, the turn
# of that step on a negative bound (int8, so that its array is an eighth
# of the bounds'), and the direction of the widening
_STEP = np.array([[-2], [2]], dtype=np.int64)
_TURN = np.array([[-4], [4]], dtype=np.int8)
_TOWARD = np.array([[-np.inf], [np.inf]])


def _widen(a: IArray) -> IArray:
    """Widen every interval of ``a`` outward by two ulps, in place: its
    lower bound toward -inf and its upper bound toward +inf, the bits of
    two ``np.nextafter``. Returns ``a``.

    The int64 view b of a float steps by one per ulp of its magnitude, so a
    finite float whose magnitude bits m satisfy 2 <= m <= bits(max) - 2
    moves by the step -2 (lower bound) or +2 (upper bound) on its view if
    it is positive and by the opposite step if it is negative: b + step -
    signbit * turn, with turn = 2 step. Every other entry, and only those,
    takes ``np.nextafter``: +-0 and the two smallest subnormals of each
    sign (a step toward zero would cross it), +-max and its neighbour (a
    step away from zero overflows, and ``np.nextafter`` raises numpy's
    overflow RuntimeWarning), +-inf and NaN (whose view - 2 can land on
    max).

    Where the integer step differs from two ``np.nextafter``, or where they
    overflow, the bound is a NaN or the step leaves a NaN or an inf. So a
    NaN among the bounds (one ``max``), or a bound that is not finite after
    the step (one ``max`` and one ``min``), sends the call to
    ``np.nextafter`` on the entries whose magnitude is out of range, their
    bounds recovered from the step. Only that path makes a temporary as
    large as the bounds.
    """
    b = a.view(np.int64)
    nan = math.isnan(_greatest(a, -math.inf))
    turn = np.signbit(a).view(np.int8) * _TURN
    b += _STEP
    b -= turn
    if nan or not (math.isfinite(_greatest(a, 0.0)) and math.isfinite(_least(a, 0.0))):
        x = (b - _STEP + turn).view(np.float64)  # the bounds before the step
        odd = ((x.view(np.int64) & _MAGNITUDE) - 2).view(np.uint64) > _STEP_SPAN
        toward = np.broadcast_to(_TOWARD, a.shape)[odd]
        a[odd] = np.nextafter(np.nextafter(x[odd], toward), toward)
    return a


def _least(x: np.ndarray, initial: float) -> float:
    # the least entry of x (``initial`` if it is empty, NaN if it holds
    # one), by the ufunc's reduction, which skips the wrapper of ndarray.min
    return np.minimum.reduce(x, axis=None, initial=initial)


def _greatest(x: np.ndarray, initial: float) -> float:
    return np.maximum.reduce(x, axis=None, initial=initial)


def _lo(a: IArray) -> np.ndarray:
    return a[..., 0, :]


def _hi(a: IArray) -> np.ndarray:
    return a[..., 1, :]


def _holds_zero(a: IArray) -> np.ndarray:
    return (_lo(a) <= 0.0) & (0.0 <= _hi(a))


def _hull(p: np.ndarray) -> IArray:
    """The intervals [min, max] of the candidate bounds ``p`` (..., k, n)
    over axis -2, widened."""
    out = np.empty(p.shape[:-2] + (2, p.shape[-1]))
    # min and max may pick either zero of a tie -0.0 == 0.0, which the
    # widening maps to the same bound
    np.minimum.reduce(p, axis=-2, out=_lo(out))
    np.maximum.reduce(p, axis=-2, out=_hi(out))
    return _widen(out)


def _corners(op, a: IArray, b: IArray) -> np.ndarray:
    """``op`` of every bound of a with every bound of b, (..., 4, n)."""
    p = op(a[..., :, None, :], b[..., None, :, :])
    return p.reshape(p.shape[:-3] + (4, p.shape[-1]))


def _vmap(f, *xs: np.ndarray) -> np.ndarray:
    # a scalar math function over the entries of arrays of one shape, for
    # results numpy may round otherwise; fromiter fills the array without
    # an intermediate list
    flat = (x.ravel().tolist() for x in xs)
    return np.fromiter(map(f, *flat), np.float64, xs[0].size).reshape(xs[0].shape)


def _vmap_endpoints(a: IArray, *fs) -> np.ndarray:
    """Each function of ``fs`` at the bounds of ``a``, an array of a's shape
    per function, stacked on a new first axis; mapped once per distinct
    endpoint float.

    The rows of a quadtree frontier share their edges, so the distinct
    endpoints are far fewer than the rows. They are told apart by their
    int64 views, which keeps -0.0 and 0.0 apart.
    """
    keys, inv = np.unique(a.view(np.int64), return_inverse=True)
    ends = keys.view(np.float64)
    return np.stack([_vmap(f, ends) for f in fs]).take(inv.reshape(a.shape), axis=1)


def vadd(a: IArray, b: IArray) -> IArray:
    return _widen(a + b)


def vsub(a: IArray, b: IArray) -> IArray:
    return _widen(a - b[..., ::-1, :])


def vshift(a: IArray, k) -> IArray:
    """a + k: k a float, or an array of them that broadcasts against the
    bounds of a with one k per interval, the same for both bounds."""
    return _widen(a + k)


def vscale(a: IArray, k) -> IArray:
    """a * k: k a float, or an array of them that broadcasts against the
    bounds of a with one k per interval, the same for both bounds."""
    if np.ndim(k) == 0:
        return _widen((a if k >= 0.0 else a[..., ::-1, :]) * k)
    if _least(k, 0.0) >= 0.0:
        return _widen(a * k)
    p = np.where(k >= 0.0, a, a[..., ::-1, :])
    return _widen(np.multiply(p, k, out=p))


def vneg(a: IArray) -> IArray:
    return -a[..., ::-1, :]


def vmul(a: IArray, b: IArray) -> IArray:
    return _hull(_corners(np.multiply, a, b))


def vdiv(a: IArray, b: IArray) -> IArray:
    if _least(_lo(b), math.inf) > 0.0:
        # positive divisors, the kernel's (one min tells): a bound of the
        # quotient, the least or the greatest of the four, is the bound of
        # a divided by the upper bound of b where it is >= 0, else by the
        # lower one (and the other way round for the upper bound)
        q = np.where(a >= 0.0, b[..., ::-1, :], b)
        return _widen(np.divide(a, q, out=q))
    if np.any(_holds_zero(b)):
        raise DomainError("division by an interval containing zero")
    return _hull(_corners(np.divide, a, b))


def vsqr(a: IArray) -> IArray:
    # on intervals that lie in [0, inf), such as distances (one min tells),
    # the squares of the bounds are already in order
    if _least(_lo(a), 0.0) >= 0.0:
        out = _widen(a * a)
    else:
        out = _hull(a * a)
        np.copyto(_lo(out), 0.0, where=_holds_zero(a))
    np.maximum(_lo(out), 0.0, out=_lo(out))
    return out


def vsqrt(a: IArray) -> IArray:
    if np.any(_hi(a) < 0.0):
        raise DomainError("sqrt of a negative interval")
    pos = _lo(a) > 0.0
    out = np.maximum(a, 0.0)
    _widen(np.sqrt(out, out=out))
    lo = _lo(out)
    np.maximum(lo, 0.0, out=lo)
    np.copyto(lo, 0.0, where=~pos)
    return out


def vacos(a: IArray) -> IArray:
    """Enclosures of acos over each interval clamped to [-1, 1];
    DomainError when an interval does not meet that range."""
    lo = np.maximum(_lo(a), -1.0)
    hi = np.minimum(_hi(a), 1.0)
    if np.any(lo > hi):
        raise DomainError("acos argument does not intersect [-1, 1]")
    out = _widen(_vmap(math.acos, np.stack((hi, lo), axis=-2)))
    np.maximum(_lo(out), 0.0, out=_lo(out))
    return out


def _vmod4(k: np.ndarray) -> np.ndarray:
    """``np.mod(k, 4.0)`` of integer-valued floats, the same bits: every
    step is exact on them, and a float mod costs some ten times more."""
    return k - 4.0 * np.floor(k * 0.25)


# the residues mod 4 of the k of the extrema at k*pi/2: the maxima of cos
# and sin, then their minima
_EXTREMA = np.array([0.0, 1.0, 2.0, 3.0])
# the outward slack of the quarter-period test, per row
_SLACK = np.array([[-TRIG_SLACK], [TRIG_SLACK]])


def vcossin(a: IArray) -> IArray:
    """Enclosures of cos and of sin over the intervals of ``a``, stacked on
    a new first axis (cos, sin), from one quarter-period test and one map
    per distinct endpoint.

    The bounds come from the endpoint values, and an extremum at k*pi/2
    counts when some k with k % 4 == 0 (cos max), 1 (sin max), 2 (cos min)
    or 3 (sin min) lies in k0..k1, the integers k whose k*pi/2 might lie
    in the interval, widened by TRIG_SLACK, or when the interval is 2 pi
    wide or more. The first k >= k0 of a residue r is
    k0 + (r - k0 % 4) % 4; both mods are exact in floats, and so is
    comparing that offset (0..3) with k1 - k0.
    """
    q = a / HALF_PI + _SLACK
    k0, k1 = np.ceil(_lo(q)), np.floor(_hi(q))
    at = _vmod4(_EXTREMA.reshape((4,) + (1,) * k0.ndim) - _vmod4(k0)) <= k1 - k0
    at |= _hi(a) - _lo(a) >= math.tau
    out = _hull(_vmap_endpoints(a, math.cos, math.sin))
    np.clip(out, -1.0, 1.0, out=out)
    np.copyto(_hi(out), 1.0, where=at[:2])
    np.copyto(_lo(out), -1.0, where=at[2:])
    return out


def vatan2(y: IArray, x: IArray) -> IArray:
    """Enclosures of the angle of every point of the boxes (x, y).

    A box that holds the origin or straddles the branch cut (the negative x
    axis) gets the full angle; elsewhere the extreme angles sit at corners.
    """
    full = (_holds_zero(x) & _holds_zero(y)) | (
        (_lo(x) < 0.0) & (_lo(y) < 0.0) & (0.0 <= _hi(y))
    )
    ends = np.broadcast_arrays(y[..., :, None, :], x[..., None, :, :])
    p = _vmap(math.atan2, *ends)
    out = _hull(p.reshape(p.shape[:-3] + (4, p.shape[-1])))
    angle = full_angle()
    np.copyto(out, [[angle.lo], [angle.hi]], where=full[..., None, :])
    return out


def vabs(a: IArray) -> IArray:
    """Enclosures of |a| over the intervals: the mignitude and the
    magnitude."""
    out = np.abs(a)
    lo, hi = _lo(out), _hi(out)
    mig = np.minimum(lo, hi)
    np.maximum(lo, hi, out=hi)
    np.copyto(mig, 0.0, where=_holds_zero(a))
    lo[...] = mig
    return out


def vhypot(a: IArray, b: IArray) -> IArray:
    """Enclosures of sqrt(a^2 + b^2) over the intervals of the nonnegative
    interval arrays a and b (from `vabs`). A bound whose hypot overflows
    to inf is still an upper bound, so the overflow is not reported."""
    with np.errstate(over="ignore"):
        out = _widen(np.hypot(a, b))
    np.maximum(_lo(out), 0.0, out=_lo(out))
    return out


def vnorm2(dx: IArray, dy: IArray) -> IArray:
    """Enclosures of sqrt(dx^2 + dy^2) over the boxes (dx, dy)."""
    return vhypot(vabs(dx), vabs(dy))


def vsign(a: IArray) -> np.ndarray:
    """`Interval.sign` of every interval: +1 / -1 where 0 is strictly
    excluded, else 0."""
    return np.where(_lo(a) > 0.0, 1, np.where(_hi(a) < 0.0, -1, 0))


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
