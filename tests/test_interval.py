"""Interval arithmetic: enclosure examples, domain errors, and the three
core properties (inclusion isotonicity, near-tight point intervals, and
monotone widening) of the scalar operations in `interval_reference`, which
the library's interval arrays equal bit for bit. The library module itself
keeps the value types and the array operations that it calls."""

import inspect
import math
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, strategies as st

from fivebar import interval as iv
from fivebar.interval import Box2, DomainError, Interval

import interval_reference as ref
from helpers import assert_encloses, ulp_scale

PI = math.pi


# ---------------------------------------------------------------------------
# Constructors and basic invariants
# ---------------------------------------------------------------------------


def test_interval_rejects_inverted_bounds():
    with pytest.raises(ValueError):
        Interval(2.0, 1.0)


def test_interval_rejects_non_finite_bounds():
    with pytest.raises(ValueError):
        Interval(0.0, math.inf)
    with pytest.raises(ValueError):
        Interval(math.nan, 0.0)


def test_interval_point_width_mid_contains():
    a = Interval.point(3.5)
    assert a.lo == a.hi == 3.5
    assert a.width == 0.0
    assert a.mid == 3.5
    assert a.contains(3.5)
    assert not a.contains_zero()
    assert Interval(-1.0, 2.0).contains_zero()


def test_interval_sign():
    assert Interval(0.5, 2.0).sign() == 1
    assert Interval(-2.0, -0.5).sign() == -1
    assert Interval(-1.0, 1.0).sign() == 0
    assert Interval(0.0, 1.0).sign() == 0
    assert Interval(-1.0, 0.0).sign() == 0


def test_full_angle_encloses_pi():
    a = iv.full_angle()
    assert a.lo < -PI < PI < a.hi
    assert a.width < 2 * PI + 1e-12


def test_every_public_function_is_called_in_the_library():
    # operations only tests call belong in interval_reference
    others = "\n".join(
        p.read_text()
        for p in Path(iv.__file__).parent.glob("*.py")
        if p.name != "interval.py"
    )
    public = [
        name
        for name, obj in vars(iv).items()
        if inspect.isfunction(obj)
        and obj.__module__ == iv.__name__
        and not name.startswith("_")
    ]
    assert {"full_angle", "vadd", "vacos", "vatan2"} <= set(public)
    assert [n for n in public if not re.search(rf"\b{n}\b", others)] == []


def test_box2_subdivide_tiles_exactly():
    box = Box2.from_bounds(-1.3, 2.7, 0.1, 5.9)
    q = ref.subdivide(box)
    assert q[0].x.hi == q[1].x.lo == q[2].x.hi == q[3].x.lo
    assert q[0].y.hi == q[2].y.lo == q[1].y.hi == q[3].y.lo
    assert q[0].x.lo == box.x.lo and q[3].x.hi == box.x.hi
    assert q[0].y.lo == box.y.lo and q[3].y.hi == box.y.hi
    assert math.isclose(sum(b.area for b in q), box.area, rel_tol=1e-15)


# ---------------------------------------------------------------------------
# Operation examples
# ---------------------------------------------------------------------------


def test_add_exact_endpoints():
    assert_encloses(ref.add(Interval(1, 2), Interval(3, 4)), 4.0, 6.0)


def test_sub_exact_endpoints():
    assert_encloses(ref.sub(Interval(1, 2), Interval(3, 4)), -3.0, -1.0)


def test_mul_endpoint_extremes():
    assert_encloses(ref.mul(Interval(-1, 2), Interval(3, 4)), -4.0, 8.0)


def test_div_by_zero_containing_interval_raises():
    with pytest.raises(DomainError):
        ref.div(Interval(1, 1), Interval(0, 1))
    with pytest.raises(DomainError):
        ref.div(Interval(1, 1), Interval(-1, 1))


def test_div_exact_endpoints():
    assert_encloses(ref.div(Interval(1, 2), Interval(2, 4)), 0.25, 1.0)


def test_operator_overloads_match_functions():
    a = Interval(1, 2)
    assert -a == Interval(-2, -1)


def test_scale_and_shift():
    assert_encloses(ref.scale(Interval(1, 2), -3.0), -6.0, -3.0)
    assert_encloses(ref.shift(Interval(1, 2), 10.0), 11.0, 12.0)


def test_sqr_is_sharp_across_zero():
    assert_encloses(ref.sqr(Interval(-1, 2)), 0.0, 4.0)
    assert ref.sqr(Interval(-1, 2)).lo == 0.0
    assert_encloses(ref.sqr(Interval(-3, -2)), 4.0, 9.0)


def test_sqrt_monotone_exact():
    assert_encloses(ref.sqrt(Interval(4, 9)), 2.0, 3.0)


def test_sqrt_clamps_small_negative_lower_bound():
    r = ref.sqrt(Interval(-1, 4))
    assert r.lo == 0.0
    assert_encloses(r, 0.0, 2.0)


def test_sqrt_of_two_is_tight():
    r = ref.sqrt(Interval(2, 2))
    root = math.sqrt(2.0)
    assert r.contains(root)
    assert r.width <= 8 * ulp_scale(root)


def test_sqrt_negative_raises():
    with pytest.raises(DomainError):
        ref.sqrt(Interval(-2, -1))


def test_sin_interior_maximum():
    r = ref.sin(Interval(0, PI))
    assert r.hi == 1.0
    assert_encloses(r, 0.0, 1.0)


def test_sin_monotone_segment():
    r = ref.sin(Interval(-0.1, 0.1))
    assert_encloses(r, -math.sin(0.1), math.sin(0.1))


def test_sin_interior_minimum():
    r = ref.sin(Interval(PI, 2 * PI))
    assert r.lo == -1.0


def test_cos_monotone_segment():
    # float pi/2 is slightly below the true pi/2, so the exact lower
    # endpoint of the range is cos(float(pi/2)), a hair above zero
    assert_encloses(ref.cos(Interval(0, PI / 2)), math.cos(PI / 2), 1.0)


def test_cos_interior_extrema():
    assert ref.cos(Interval(-0.5, 0.5)).hi == 1.0
    assert ref.cos(Interval(2.5, 4.0)).lo == -1.0


def test_trig_full_period_gives_unit_range():
    wide = Interval(-10.0, 10.0)
    assert ref.sin(wide) == Interval(-1.0, 1.0)
    assert ref.cos(wide) == Interval(-1.0, 1.0)


def test_acos_full_domain():
    r, clamped = ref.acos(Interval(-1, 1))
    assert not clamped
    assert_encloses(r, 0.0, PI)
    assert r.lo == 0.0


def test_acos_point():
    r, clamped = ref.acos(Interval(0.5, 0.5))
    assert not clamped
    assert r.contains(math.acos(0.5))
    assert r.width <= 8 * ulp_scale(math.acos(0.5))


def test_acos_partial_overlap_sets_clamped_flag():
    r, clamped = ref.acos(Interval(0.9, 1.2))
    assert clamped
    assert_encloses(r, 0.0, math.acos(0.9))


def test_acos_disjoint_raises():
    with pytest.raises(DomainError):
        ref.acos(Interval(1.5, 2.0))
    with pytest.raises(DomainError):
        ref.acos(Interval(-3.0, -1.5))


def test_atan2_point():
    r, origin = ref.atan2(Interval.point(1.0), Interval.point(1.0))
    assert not origin
    assert r.contains(PI / 4)
    assert r.width <= 8 * ulp_scale(PI / 4)


def test_atan2_origin_box_full_circle_with_flag():
    r, origin = ref.atan2(Interval(-0.1, 0.1), Interval(-0.1, 0.1))
    assert origin
    assert r.lo <= -PI and r.hi >= PI


def test_atan2_branch_cut_full_circle_no_flag():
    r, origin = ref.atan2(Interval(-0.1, 0.1), Interval(-2.0, -1.0))
    assert not origin
    assert r.lo <= -PI and r.hi >= PI


def test_atan2_corner_extremes():
    r, origin = ref.atan2(Interval(1, 2), Interval(-1, 1))
    assert not origin
    assert_encloses(r, PI / 4, 3 * PI / 4, ulps=16)


def test_norm2_three_four_five():
    r = ref.norm2(Interval.point(3.0), Interval.point(4.0))
    assert r.contains(5.0)
    assert r.width <= 8 * ulp_scale(5.0)


def test_norm2_origin_box_lower_bound_zero():
    r = ref.norm2(Interval(-1, 1), Interval(-1, 1))
    assert r.lo == 0.0
    assert r.hi >= math.sqrt(2.0)


def test_norm2_corner_enumeration():
    r = ref.norm2(Interval(1, 2), Interval(2, 3))
    assert_encloses(r, math.sqrt(5.0), math.sqrt(13.0))


def test_cross_z_unit_basis():
    r = ref.cross_z(
        Interval.point(1), Interval.point(0), Interval.point(0), Interval.point(1)
    )
    assert r.contains(1.0)
    assert r.width <= 8 * ulp_scale(1.0)


def test_cross_z_parallel_vectors_contain_zero():
    a, b = Interval.point(1.7), Interval.point(-2.3)
    assert ref.cross_z(a, b, a, b).contains_zero()


def test_cross_z_corner_enumeration():
    r = ref.cross_z(Interval(1, 2), Interval(0, 1), Interval(0, 1), Interval(1, 2))
    # extremes of ux*vy - uy*vx over the corners: [1*1-1*1, 2*2-0*0] = [0, 4]
    assert_encloses(r, 0.0, 4.0)


# ---------------------------------------------------------------------------
# Property: inclusion isotonicity (sampled)
# ---------------------------------------------------------------------------


def _random_interval(rng, lo=-10.0, hi=10.0):
    a, b = sorted(rng.uniform(lo, hi, 2))
    return Interval(a, b)


def _sample(rng, a: Interval, n: int) -> np.ndarray:
    return rng.uniform(a.lo, a.hi, n)


def test_inclusion_isotonicity_sampled():
    rng = np.random.default_rng(7)
    n = 300
    for _ in range(30):
        a = _random_interval(rng)
        b = _random_interval(rng)
        xs, ys = _sample(rng, a, n), _sample(rng, b, n)

        checks = [
            (ref.add(a, b), xs + ys),
            (ref.sub(a, b), xs - ys),
            (ref.mul(a, b), xs * ys),
            (ref.norm2(a, b), np.hypot(xs, ys)),
        ]
        if not b.contains_zero():
            checks.append((ref.div(a, b), xs / ys))
        if a.hi >= 0.0:
            checks.append((ref.sqrt(a), np.sqrt(np.clip(xs, 0.0, None))))
        checks.append((ref.sin(a), np.sin(xs)))
        checks.append((ref.cos(a), np.cos(xs)))
        if a.lo <= 1.0 and a.hi >= -1.0:
            enc, _ = ref.acos(a)
            checks.append((enc, np.arccos(np.clip(xs, -1.0, 1.0))))
        enc, _ = ref.atan2(b, a)
        checks.append((enc, np.arctan2(ys, xs)))

        c = _random_interval(rng)
        d = _random_interval(rng)
        us, vs = _sample(rng, c, n), _sample(rng, d, n)
        checks.append((ref.cross_z(a, b, c, d), xs * vs - ys * us))

        for enc, vals in checks:
            assert vals.min() >= enc.lo
            assert vals.max() <= enc.hi


# ---------------------------------------------------------------------------
# Property: point intervals are near-tight
# ---------------------------------------------------------------------------


def test_point_interval_widths():
    rng = np.random.default_rng(11)
    for _ in range(200):
        x = float(rng.uniform(-10, 10))
        y = float(rng.uniform(-10, 10))
        a, b = Interval.point(x), Interval.point(y)
        cases = [
            (ref.add(a, b), x + y),
            (ref.sub(a, b), x - y),
            (ref.mul(a, b), x * y),
            (ref.sin(a), math.sin(x)),
            (ref.cos(a), math.cos(x)),
            (ref.norm2(a, b), math.hypot(x, y)),
        ]
        if y != 0.0:
            cases.append((ref.div(a, b), x / y))
        if x >= 0.0:
            cases.append((ref.sqrt(a), math.sqrt(x)))
        if -1.0 <= x <= 1.0:
            cases.append((ref.acos(a)[0], math.acos(x)))
        if (x, y) != (0.0, 0.0):
            cases.append((ref.atan2(b, a)[0], math.atan2(y, x)))
        for enc, true in cases:
            assert enc.contains(true)
            assert enc.width <= 8 * ulp_scale(true, x, y)


# ---------------------------------------------------------------------------
# Property: monotone widening on nested inputs
# ---------------------------------------------------------------------------


def _nested_pair(rng, lo=-10.0, hi=10.0):
    outer = _random_interval(rng, lo, hi)
    a = rng.uniform(outer.lo, outer.hi, 2)
    inner = Interval(min(a), max(a))
    return inner, outer


def _subset(a: Interval, b: Interval) -> bool:
    return b.lo <= a.lo and a.hi <= b.hi


def test_monotone_widening():
    rng = np.random.default_rng(13)
    for _ in range(1000):
        a, a_w = _nested_pair(rng)
        b, b_w = _nested_pair(rng)
        assert _subset(ref.add(a, b), ref.add(a_w, b_w))
        assert _subset(ref.sub(a, b), ref.sub(a_w, b_w))
        assert _subset(ref.mul(a, b), ref.mul(a_w, b_w))
        assert _subset(ref.sin(a), ref.sin(a_w))
        assert _subset(ref.cos(a), ref.cos(a_w))
        assert _subset(ref.norm2(a, b), ref.norm2(a_w, b_w))
        if not b_w.contains_zero():
            assert _subset(ref.div(a, b), ref.div(a_w, b_w))
        if a_w.lo >= 0.0:
            assert _subset(ref.sqrt(a), ref.sqrt(a_w))
        if -1.0 <= a_w.lo and a_w.hi <= 1.0:
            assert _subset(ref.acos(a)[0], ref.acos(a_w)[0])
        wide, origin_w = ref.atan2(b_w, a_w)
        if not origin_w:
            assert _subset(ref.atan2(b, a)[0], wide)


# ---------------------------------------------------------------------------
# Hypothesis property tests
# ---------------------------------------------------------------------------

finite = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False)
unit = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)


def _interval_from(a: float, b: float) -> Interval:
    return Interval(min(a, b), max(a, b))


@given(finite, finite, finite, finite, unit, unit)
def test_hypothesis_arithmetic_contains_point_results(a, b, c, d, u, v):
    x = _interval_from(a, b)
    y = _interval_from(c, d)
    # the affine point can round just outside its interval; clamp it back in
    px = min(max(x.lo + u * (x.hi - x.lo), x.lo), x.hi)
    py = min(max(y.lo + v * (y.hi - y.lo), y.lo), y.hi)
    assert ref.add(x, y).contains(px + py)
    assert ref.sub(x, y).contains(px - py)
    assert ref.mul(x, y).contains(px * py)
    assert ref.norm2(x, y).contains(math.hypot(px, py))
    if not y.contains_zero():
        assert ref.div(x, y).contains(px / py)


@given(st.floats(min_value=-1e3, max_value=1e3, allow_nan=False))
def test_hypothesis_sqrt_of_square_contains_abs(x):
    assert ref.sqrt(ref.sqr(Interval.point(x))).contains(abs(x))


@given(st.floats(min_value=-10.0, max_value=10.0, allow_nan=False))
def test_hypothesis_trig_point_containment(t):
    assert ref.sin(Interval.point(t)).contains(math.sin(t))
    assert ref.cos(Interval.point(t)).contains(math.cos(t))
