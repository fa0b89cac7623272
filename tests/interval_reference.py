"""Scalar interval operations: the reference of the interval arrays.

The library computes on interval arrays (`fivebar.interval`: ``vadd``,
``vmul``, ``vacos``, ...). These are their scalar twins on one `Interval`:
each array operation repeats the float operations of its twin here in the
same order, and the tests hold every row equal to the twin's result, bit
for bit (`tests/test_interval_arrays.py`). The twins widen each bound by
two ``math.nextafter`` of their own, sharing no rounding code with the
arrays. The full box solvers of `helpers` (`dkp_box`, `ikp_box`) are built
from them.

`acos` and `atan2` also return a flag, which only the tests read: an
input that stuck out of [-1, 1], and a box that holds the origin.

`subdivide` splits a `Box2` into its four quadrants at the shared
midpoints that every quadtree level uses, and `vsin` / `vcos` take one
half of `fivebar.interval.vcossin`, for the tests that compare sin or cos
alone.
"""

from __future__ import annotations

import math

import numpy as np

from fivebar.interval import (
    HALF_PI,
    TRIG_SLACK,
    Box2,
    DomainError,
    IArray,
    Interval,
    vcossin,
)


def _down(x: float) -> float:
    return math.nextafter(math.nextafter(x, -math.inf), -math.inf)


def _up(x: float) -> float:
    return math.nextafter(math.nextafter(x, math.inf), math.inf)


def _iv(lo: float, hi: float) -> Interval:
    # internal fast path: bounds already validated by construction
    out = Interval.__new__(Interval)
    out.lo = lo
    out.hi = hi
    return out


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

    The boolean reports whether the input stuck out of [-1, 1].
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
        return _iv(_down(-math.pi), _up(math.pi)), True
    if x.lo < 0.0 and y.lo < 0.0 <= y.hi:
        return _iv(_down(-math.pi), _up(math.pi)), False
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
    """Enclosure of sqrt(dx^2 + dy^2) over the box (dx, dy). Its hypot
    values are libm's, through ``np.hypot``, as the trig twins take libm's
    ``math.cos`` and ``math.sin``."""
    lo = max(0.0, _down(float(np.hypot(_mig(dx), _mig(dy)))))
    return _iv(lo, _up(float(np.hypot(_mag(dx), _mag(dy)))))


def cross_z(ux: Interval, uy: Interval, vx: Interval, vy: Interval) -> Interval:
    """Enclosure of the z component of the planar cross product u x v."""
    return sub(mul(ux, vy), mul(uy, vx))


def subdivide(box: Box2) -> tuple[Box2, Box2, Box2, Box2]:
    """Quadrants in fixed order: x-lo/y-lo, x-hi/y-lo, x-lo/y-hi, x-hi/y-hi.

    The midpoints are computed once and shared by siblings so the four
    children tile the box exactly in floating point.
    """
    xm = box.x.lo + (box.x.hi - box.x.lo) / 2
    ym = box.y.lo + (box.y.hi - box.y.lo) / 2
    x_lo = _iv(box.x.lo, xm)
    x_hi = _iv(xm, box.x.hi)
    y_lo = _iv(box.y.lo, ym)
    y_hi = _iv(ym, box.y.hi)
    return (
        Box2(x_lo, y_lo),
        Box2(x_hi, y_lo),
        Box2(x_lo, y_hi),
        Box2(x_hi, y_hi),
    )


def vsin(a: IArray) -> IArray:
    """The rows of `vcossin` for sin alone."""
    return vcossin(a)[1]


def vcos(a: IArray) -> IArray:
    """The rows of `vcossin` for cos alone."""
    return vcossin(a)[0]
