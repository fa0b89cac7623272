"""The interval arrays of the library, bit for bit against their scalar
twins in `interval_reference`.

Every row of an array primitive must carry the exact bits (signed zeros
included) of its scalar twin applied to that row. The inputs are
criterion 7's random intervals plus adversarial endpoints: multiples of
pi/2 a few ulps off and at the 1e-9 slack of `_trig_quarters`, widths of
2 pi and more, operands that straddle or touch zero, and signed zeros;
acos arguments at +-1 and one ulp outside; atan2 boxes that hold the
origin, touch an axis with 0.0 or -0.0, or straddle the negative x axis.

Two cheap primitives under them have their own reference: the outward
rounding by an integer step on the int64 view (`_widen`), against two
``np.nextafter`` (`helpers.reference_vdown` / `reference_vup`) row by row,
on random bit patterns and on every float where the step does not apply,
with both rows of an interval array in one call and on stacked arrays; and
sin and cos mapped once per distinct endpoint, against the scalar functions on
batches whose rows share endpoints the way a quadtree frontier does.
hypot, which the arrays and the reference both take from ``np.hypot``, is
held to the exact norm instead: squared bounds against exact rational
squares, on random pairs over every exponent, zeros, subnormals, the top
of the range, inf and NaN, and on boxes across zero, with ``math.hypot``
inside the bounds and at most three ulps from each, and with a guard that
``np.hypot`` in `vhypot` is the kernel's one source of norms.
"""

import ast
import itertools
import math
import warnings
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from fivebar import interval as iv
from fivebar.interval import DomainError, Interval

import interval_reference as ref
from helpers import module_functions, reference_vdown, reference_vup

HALF_PI = math.pi / 2


def _random_intervals(seed: int = 71, count: int = 400) -> list[Interval]:
    # criterion 7's generator: sorted pairs of uniform draws on [-10, 10]
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(count):
        a, b = sorted(rng.uniform(-10.0, 10.0, 2))
        out.append(Interval(float(a), float(b)))
    return out


def _steps(x: float, n: int) -> float:
    for _ in range(abs(n)):
        x = math.nextafter(x, math.copysign(math.inf, n))
    return x


def _trig_intervals() -> list[Interval]:
    """Endpoints 1-4 ulps around k pi/2 and around the slack boundaries
    (k +- 1e-9) pi/2, as points and as short intervals on either side."""
    out = []
    for k in range(-9, 10):
        for q in (k, k + iv.TRIG_SLACK, k - iv.TRIG_SLACK):
            centre = q * HALF_PI
            for n in (-4, -3, -2, -1, 0, 1, 2, 3, 4):
                x = _steps(centre, n)
                out.append(Interval(x, x))
                out.append(Interval(x, x + 0.25))
                out.append(Interval(x - 0.25, x))
    return out


def _wide_intervals() -> list[Interval]:
    out = []
    for lo in (-7.0, -math.pi, -1.0, 0.0, 0.3, 2.0):
        for width in (math.tau, _steps(math.tau, -1), _steps(math.tau, 1), 7.0, 20.0):
            out.append(Interval(lo, lo + width))
    return out


ZERO_INTERVALS = [
    Interval(lo, hi)
    for lo, hi in [
        (0.0, 0.0), (-0.0, -0.0), (-0.0, 0.0), (0.0, 2.5), (-0.0, 2.5),
        (-3.0, 0.0), (-3.0, -0.0), (-3.0, 2.5), (-2.5, 3.0), (-1e-300, 1e-300),
        (-5e-324, 5e-324), (5e-324, 1e-323), (-1e-323, -5e-324), (-1.0, 1.0),
        (1e-310, 2.0), (-2.0, -1e-310),
    ]
]

UNARY = _random_intervals() + _trig_intervals() + _wide_intervals() + ZERO_INTERVALS


def _pairs() -> list[tuple[Interval, Interval]]:
    rng = np.random.default_rng(72)
    rand = _random_intervals(73, 2000)
    pairs = list(zip(rand[::2], rand[1::2]))
    pairs += list(itertools.product(ZERO_INTERVALS, repeat=2))
    pairs += [(UNARY[i], UNARY[j]) for i, j in rng.integers(0, len(UNARY), (2000, 2))]
    return pairs


PAIRS = _pairs()


def _arr(intervals) -> iv.IArray:
    bounds = [[a.lo for a in intervals], [a.hi for a in intervals]]
    return np.array(bounds, dtype=np.float64).reshape(2, -1)


def _assert_same_bits(got: iv.IArray, want: list[Interval]) -> None:
    exp = _arr(want)
    for side, g, e in (("lo", got[0], exp[0]), ("hi", got[1], exp[1])):
        assert g.dtype == np.float64 and g.shape == e.shape
        diff = np.flatnonzero(g.view(np.int64) != e.view(np.int64))
        assert len(diff) == 0, (
            f"{len(diff)} rows differ in {side}, first: row {diff[0]} "
            f"got {g[diff[0]]!r} want {e[diff[0]]!r}"
        )


@pytest.mark.parametrize(
    "vector, scalar",
    [
        (iv.vsqr, ref.sqr),
        (ref.vsin, ref.sin),
        (ref.vcos, ref.cos),
        (iv.vneg, lambda a: -a),
    ],
    ids=["sqr", "sin", "cos", "neg"],
)
def test_unary_rows_equal_scalar(vector, scalar):
    _assert_same_bits(vector(_arr(UNARY)), [scalar(a) for a in UNARY])


def test_sqrt_rows_equal_scalar():
    ok = [a for a in UNARY if a.hi >= 0.0]
    assert any(a.lo < 0.0 for a in ok) and any(a.hi == 0.0 for a in ok)
    _assert_same_bits(iv.vsqrt(_arr(ok)), [ref.sqrt(a) for a in ok])
    with pytest.raises(DomainError):
        iv.vsqrt(_arr(ok + [Interval(-2.0, -1.0)]))


ONE_UP = math.nextafter(1.0, 2.0)
MINUS_ONE_DOWN = math.nextafter(-1.0, -2.0)


def test_acos_rows_equal_scalar():
    # endpoints at +-1 and one ulp outside, as points and reaching across
    edges = [
        Interval(lo, hi)
        for lo, hi in [
            (1.0, 1.0), (-1.0, -1.0), (1.0, ONE_UP), (MINUS_ONE_DOWN, -1.0),
            (MINUS_ONE_DOWN, ONE_UP), (-1.0, 1.0), (0.5, ONE_UP), (MINUS_ONE_DOWN, -0.5),
        ]
    ]
    ok = [a for a in UNARY + edges if a.lo <= 1.0 and a.hi >= -1.0]
    assert any(a.lo < -1.0 for a in ok) and any(a.hi > 1.0 for a in ok)
    _assert_same_bits(iv.vacos(_arr(ok)), [ref.acos(a)[0] for a in ok])
    for outside in (Interval(ONE_UP, ONE_UP), Interval(-3.0, MINUS_ONE_DOWN)):
        with pytest.raises(DomainError):
            iv.vacos(_arr(ok + [outside]))


def test_atan2_rows_equal_scalar_at_origin_axes_and_cut():
    # boxes (y, x) that hold the origin, touch an axis with 0.0 or -0.0, or
    # straddle the negative x axis, where the scalar takes the full angle
    sides = [
        Interval(lo, hi)
        for lo, hi in [
            (0.0, 0.0), (-0.0, -0.0), (-0.0, 0.0), (0.0, 1.5), (-0.0, 1.5),
            (-1.5, 0.0), (-1.5, -0.0), (-1.5, 1.5), (-2.0, -1.0), (1.0, 2.0),
            (-1e-300, 1e-300), (5e-324, 5e-324), (-5e-324, -5e-324),
        ]
    ]
    boxes = list(itertools.product(sides, repeat=2))
    want = [ref.atan2(y, x) for y, x in boxes]
    full = ref.atan2(Interval(1.0, 1.0), Interval(0.0, 0.0))[0]
    assert any(origin for _, origin in want)
    assert any(a == full and not origin for a, origin in want)
    ys, xs = zip(*boxes)
    _assert_same_bits(iv.vatan2(_arr(ys), _arr(xs)), [a for a, _ in want])
    # on the negative x axis the sign of a zero y picks the side of the cut
    neg_x = _arr([Interval(-2.0, -1.0)] * 2)
    lo, hi = iv.vatan2(_arr([Interval(0.0, 0.0), Interval(-0.0, -0.0)]), neg_x)
    assert lo[0] > 3.0 and hi[1] < -3.0


@pytest.mark.parametrize(
    "vector, scalar",
    [
        (iv.vadd, ref.add),
        (iv.vsub, ref.sub),
        (iv.vmul, ref.mul),
        (iv.vnorm2, ref.norm2),
        (iv.vatan2, lambda y, x: ref.atan2(y, x)[0]),
    ],
    ids=["add", "sub", "mul", "norm2", "atan2"],
)
def test_binary_rows_equal_scalar(vector, scalar):
    a, b = zip(*PAIRS)
    _assert_same_bits(vector(_arr(a), _arr(b)), [scalar(x, y) for x, y in PAIRS])


@pytest.mark.filterwarnings("ignore:overflow encountered in divide")
def test_div_rows_equal_scalar():
    ok = [(x, y) for x, y in PAIRS if not y.contains_zero()]
    assert len(ok) > 1000
    a, b = zip(*ok)
    _assert_same_bits(iv.vdiv(_arr(a), _arr(b)), [ref.div(x, y) for x, y in ok])
    with pytest.raises(DomainError):
        iv.vdiv(_arr(a + (Interval(1.0, 2.0),)), _arr(b + (Interval(-0.0, 1.0),)))


@pytest.mark.parametrize(
    "k", [0.0, -0.0, 1.0, -1.0, 2.5, -2.5, 1e-9, -3e7, 8.0 / 5.0, 5e-324, math.pi]
)
def test_scale_and_shift_rows_equal_scalar(k):
    a = _arr(UNARY)
    _assert_same_bits(iv.vscale(a, k), [ref.scale(x, k) for x in UNARY])
    _assert_same_bits(iv.vshift(a, k), [ref.shift(x, k) for x in UNARY])


def test_sign_rows_equal_scalar():
    assert iv.vsign(_arr(UNARY)).tolist() == [a.sign() for a in UNARY]


def test_empty_arrays():
    empty = np.zeros((2, 0))
    for f in (iv.vsqr, iv.vsqrt, iv.vacos, ref.vsin, ref.vcos):
        assert all(len(side) == 0 for side in f(empty))
    for f in (iv.vadd, iv.vsub, iv.vmul, iv.vdiv, iv.vnorm2, iv.vatan2):
        assert all(len(side) == 0 for side in f(empty, empty))


# ---------------------------------------------------------------------------
# Outward rounding: the integer step against two np.nextafter
# ---------------------------------------------------------------------------

MAX = np.finfo(np.float64).max
TINY = np.finfo(np.float64).smallest_normal


def _widened(lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """`_widen` of the interval array with the lower bounds lo and the
    upper bounds hi, both rows in one call."""
    return iv._widen(np.stack((lo, hi)))


def _assert_widened_rows(got: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> None:
    # row by row: the lower bounds against two np.nextafter down, the upper
    # ones against two up
    _assert_same_float_bits(got[..., 0, :], reference_vdown(lo))
    _assert_same_float_bits(got[..., 1, :], reference_vup(hi))


def _assert_same_float_bits(got: np.ndarray, want: np.ndarray) -> None:
    assert got.dtype == np.float64 and got.shape == want.shape
    diff = np.flatnonzero(got.view(np.int64) != want.view(np.int64))
    first = diff[:1].tolist()
    assert len(diff) == 0, f"{len(diff)} rows differ, first: {want.flat[first]} vs {got.flat[first]}"


def test_widening_equals_nextafter_on_random_bits():
    # random sign, biased exponent 0..2046 and mantissa: every finite float
    # class, subnormals included, about 100 per binade
    rng = np.random.default_rng(74)
    n = 200_000
    sign = rng.integers(0, 2, n, dtype=np.uint64) << np.uint64(63)
    exponent = rng.integers(0, 2047, n, dtype=np.uint64) << np.uint64(52)
    mantissa = rng.integers(0, 1 << 52, n, dtype=np.uint64)
    x = (sign | exponent | mantissa).view(np.float64)
    assert np.isfinite(x).all() and (x == 0.0).sum() < 5
    _assert_widened_rows(_widened(x, x), x, x)
    # a stack of (k, 2, n) interval arrays, the bounds of one another's
    stacked = x.reshape(50, 2, -1)
    _assert_widened_rows(iv._widen(stacked.copy()), stacked[:, 0, :], stacked[:, 1, :])


def _odd_floats() -> np.ndarray:
    """The floats where a step of 2 on the view does not apply, with their
    neighbours on both sides of the boundaries."""
    ladder = [0.0, 5e-324, 1e-323, 1.5e-323]
    ladder += [_steps(TINY, n) for n in (-2, -1, 0, 1, 2)]
    ladder += [_steps(MAX, n) for n in (-3, -2, -1, 0)]
    ladder += [math.inf, math.nan]
    vals = ladder + [-v for v in ladder] + [1.0, -1.0]
    return np.array(vals, dtype=np.float64)


def test_widening_equals_nextafter_on_boundary_floats():
    x = _odd_floats()
    assert (x.view(np.int64) == np.int64(-(2**63))).any()  # -0.0 is in
    with np.errstate(over="ignore"):
        got = _widened(x, x)
        _assert_widened_rows(got, x, x)
        assert (np.isnan(got) == np.isnan(x)).all()
        # the bounds of one another's, and stacked with ordinary intervals
        _assert_widened_rows(_widened(x, x[::-1]), x, x[::-1])
        stacked = np.stack((np.stack((x, x)), np.ones((2, len(x)))))
        _assert_widened_rows(iv._widen(stacked.copy()), stacked[:, 0, :], stacked[:, 1, :])
        # every float alone, as a one-row batch goes through
        for v in x:
            one = np.array([v])
            _assert_widened_rows(_widened(one, one), one, one)


def test_widening_keeps_nan_payloads_as_nextafter_does():
    # NaNs of both signs whose payload lies within two of either end of the
    # NaN range, where a step of 2 on the view leaves the NaNs (onto max,
    # inf or a signed zero), and the quiet NaN: the bits of two
    # np.nextafter, which quiet the signalling ones
    payloads = [1, 2, 3, 1 << 51, (1 << 52) - 3, (1 << 52) - 2, (1 << 52) - 1]
    bits = np.array([0x7FF0_0000_0000_0000 | p for p in payloads], dtype=np.uint64)
    x = np.concatenate([bits, bits | np.uint64(1 << 63)]).view(np.float64)
    assert np.isnan(x).all()
    with np.errstate(invalid="ignore"):
        _assert_widened_rows(_widened(x, x), x, x)
        for v in x:
            one = np.array([v])
            _assert_widened_rows(_widened(one, np.ones(1)), one, np.ones(1))


@pytest.mark.parametrize("v", [MAX, _steps(MAX, -1)])
def test_widening_past_max_warns_like_nextafter(v):
    # the upper row past +max, then the lower row past -max; the other row
    # of the same call steps toward zero, which is silent
    for x, ref in ((np.array([1.0, v]), reference_vup), (np.array([-v, -1.0]), reference_vdown)):
        with pytest.warns(RuntimeWarning, match="overflow") as want:
            expected = ref(x)
        with pytest.warns(RuntimeWarning, match="overflow") as got:
            result = _widened(x, x)
        assert [str(w.message) for w in got] == [str(w.message) for w in want]
        with np.errstate(over="ignore"):
            _assert_widened_rows(result, x, x)
        assert np.isinf(result).sum() == 1


def test_widening_toward_zero_from_max_is_silent():
    x = np.array([MAX, _steps(MAX, -1), math.inf, -MAX, -math.inf])
    lo, hi = x[:3], x[[3, 4, 3]]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        _assert_widened_rows(_widened(lo, hi), lo, hi)


def test_mod4_equals_np_mod_on_integer_floats():
    # the quarter-period test of sin and cos reads k mod 4 of integer-valued
    # floats: every one near zero, around 2**53 and up to the largest float
    rng = np.random.default_rng(78)
    near = np.arange(-1000.0, 1000.0)
    big = np.floor(rng.standard_normal(20_000) * 10.0 ** rng.integers(0, 308, 20_000))
    edges = [2.0**53, 2.0**53 + 2, 2.0**63, 1e300, 5e307, MAX, -0.0]
    k = np.concatenate([near, big, edges, [-e for e in edges]])
    _assert_same_float_bits(iv._vmod4(k), np.mod(k, 4.0))


# ---------------------------------------------------------------------------
# sin and cos once per distinct endpoint
# ---------------------------------------------------------------------------


def _frontier_rows(seed: int = 75, depth: int = 9, count: int = 3000) -> list[Interval]:
    """Rows shaped like a quadtree frontier: cells of the bisection grid of
    the joint-space root box, so that many rows share each edge, mixed with
    signed zeros and the k pi/2 endpoints of `_trig_intervals`."""
    root = iv.full_angle()
    edges = [root.lo, root.hi]
    for _ in range(depth):
        mids = [a + (b - a) / 2 for a, b in zip(edges, edges[1:])]
        edges = [e for pair in zip(edges, mids) for e in pair] + [edges[-1]]
    rng = np.random.default_rng(seed)
    rows = []
    for c, level in zip(rng.integers(0, 2**depth, count), rng.integers(0, 4, count)):
        s = 1 << int(level)
        c = int(c) - int(c) % s
        rows.append(Interval(edges[c], edges[min(c + s, 2**depth)]))
    trig = _trig_intervals()
    rows += [trig[i] for i in rng.integers(0, len(trig), 1000)]
    rows += [Interval(lo, hi) for lo, hi in [(-0.0, 0.5), (0.0, 0.5), (-0.5, -0.0), (-0.5, 0.0)]]
    rows += ZERO_INTERVALS
    order = rng.permutation(len(rows))
    return [rows[i] for i in order]


@pytest.mark.parametrize("half, scalar", [(1, ref.sin), (0, ref.cos)], ids=["sin", "cos"])
def test_trig_per_endpoint_rows_equal_scalar(half, scalar):
    rows = _frontier_rows()
    ends = np.concatenate(_arr(rows)).view(np.int64)
    assert len(np.unique(ends)) < len(ends) / 2
    _assert_same_bits(iv.vcossin(_arr(rows))[half], [scalar(a) for a in rows])
    for a in rows[:50] + ZERO_INTERVALS:
        _assert_same_bits(iv.vcossin(_arr([a]))[half], [scalar(a)])


def test_endpoint_values_keep_signed_zeros_apart():
    rows = _frontier_rows(77)
    a = _arr(rows)
    got = iv._vmap_endpoints(a, math.sin, math.cos)
    for (lo, hi), f in zip(got, (math.sin, math.cos)):
        for side, want in ((lo, a[0]), (hi, a[1])):
            _assert_same_float_bits(side, np.array([f(v) for v in want.tolist()]))
    lo, _ = got[0]
    assert np.signbit(lo[a[0] == 0.0]).any() and not np.signbit(lo[a[0] == 0.0]).all()


# ---------------------------------------------------------------------------
# hypot: libm's values, widened, hold the exact norm
# ---------------------------------------------------------------------------


def _hypot_specials() -> np.ndarray:
    """Zeros, the smallest subnormal, the smallest normal and its neighbours,
    2**1021, 2**1022 and their neighbours, the largest floats, inf and NaN,
    next to ordinary values."""
    vals = [0.0, -0.0, 5e-324, 1e-323, 1e-310, 1.0, 3.0, 4.0, 1e-300, 1e300]
    vals += [_steps(TINY, n) for n in (-2, -1, 0, 1, 2)]
    for top in (2.0**1021, 2.0**1022):
        vals += [_steps(top, n) for n in (-1, 0, 1)]
    vals += [_steps(MAX, n) for n in (-1, 0)] + [math.inf, math.nan]
    return np.array(vals)


def _square(x: float) -> Fraction:
    f = Fraction(x)
    return f * f


# an upper bound is inf only where hypot reached the float below max; with
# an error under one ulp, the exact norm is then at least the float two
# below max
NEAR_MAX_SQUARE = _square(_steps(MAX, -2))


def _assert_encloses(lo: float, hi: float, low_square: Fraction, high_square: Fraction) -> None:
    assert 0.0 <= lo and _square(lo) <= low_square, lo
    if hi == math.inf:
        assert high_square >= NEAR_MAX_SQUARE
    else:
        assert high_square <= _square(hi), hi


def _assert_hypot_holds_exact_norm_and_math(a: np.ndarray, b: np.ndarray) -> tuple[int, int]:
    """Run `vhypot` on point intervals, so that both bounds meet every pair,
    and assert lo^2 <= a^2 + b^2 <= hi^2 in exact rationals, hi = inf on
    every row with an inf argument, and math.hypot inside [lo, hi] and at
    most three ulps from either bound: libm's and CPython's hypot both err
    by under one ulp, so they are equal or neighbours, and the bounds are
    libm's widened by two ulps. Returns the counts of finite and inf rows."""
    lo, hi = iv.vhypot((a, a), (b, b))
    rows = inf_rows = 0
    for x, y, low, high in zip(a.tolist(), b.tolist(), lo.tolist(), hi.tolist()):
        if math.isinf(x) or math.isinf(y):
            assert high == math.inf
            inf_rows += 1
        elif not (math.isnan(x) or math.isnan(y)):
            exact = _square(x) + _square(y)
            _assert_encloses(low, high, exact, exact)
            m = math.hypot(x, y)
            assert _steps(m, -3) <= low <= m <= high <= _steps(m, 3), (x, y)
            rows += 1
    return rows, inf_rows


def test_hypot_equals_math_on_special_pairs():
    v = _hypot_specials()
    rows, inf_rows = _assert_hypot_holds_exact_norm_and_math(*(side.ravel() for side in np.meshgrid(v, v)))
    assert rows > 400 and inf_rows > 0


def test_hypot_equals_math_on_equal_arguments_powers_of_two_ratios_and_triples():
    rng = np.random.default_rng(79)
    x = rng.uniform(0.5, 1.0, 300) * 2.0 ** rng.integers(-1020, 1020, 300)
    # y = x * 2**-k for k = 0..60, either argument the larger
    a = np.concatenate([x] + [x * 2.0**-k for k in range(61)])
    b = np.concatenate([x] * 62)
    rows = _assert_hypot_holds_exact_norm_and_math(a, b)[0] + _assert_hypot_holds_exact_norm_and_math(b, a)[0]
    # (m^2 - n^2, 2 m n), whose hypot m^2 + n^2 is exact, at every scale
    m, n = np.meshgrid(np.arange(2.0, 60.0), np.arange(1.0, 59.0))
    keep = n < m
    legs = (m[keep] ** 2 - n[keep] ** 2, 2.0 * m[keep] * n[keep])
    for e in (-1070, -1022, -600, 0, 600, 1000):
        rows += _assert_hypot_holds_exact_norm_and_math(*(np.ldexp(leg, e) for leg in legs))[0]
    assert rows == 2 * 62 * 300 + 6 * len(legs[0])


def test_hypot_equals_math_on_random_pairs_over_all_exponents():
    # random biased exponents 0..2046 and mantissas, both sides independent,
    # then the second side within 60 binades of the first and in its binade
    rng = np.random.default_rng(80)
    count = 40_000
    for spread in (None, 60, 0):
        e = rng.integers(0, 2047, (2, count))
        if spread is not None:
            e[1] = np.clip(e[0] + rng.integers(-spread, spread + 1, count), 0, 2046)
        bits = (e.astype(np.uint64) << np.uint64(52)) | rng.integers(0, 1 << 52, (2, count), dtype=np.uint64)
        assert _assert_hypot_holds_exact_norm_and_math(*bits.view(np.float64)) == (count, 0)


def test_norm2_of_boxes_across_zero_holds_their_exact_extremes():
    # boxes (dx, dy) whose sides straddle 0, touch it with a signed zero or
    # lie on either side of it: the least norm over the box is that of the
    # sides' mignitudes (0 on a side that holds 0), the greatest that of
    # their magnitudes
    rng = np.random.default_rng(81)
    n = 20_000
    scale = rng.integers(-1070, 1020, n)
    sides = []
    for _ in range(2):
        e = scale + rng.integers(-30, 31, n)
        ends = rng.uniform(-1.0, 1.0, (2, n)) * 2.0 ** np.clip(e + rng.integers(-2, 3, (2, n)), -1074, 1023)
        ends[rng.random((2, n)) < 0.05] = 0.0
        ends[rng.random((2, n)) < 0.05] = -0.0
        sides.append(np.stack((np.minimum(*ends), np.maximum(*ends))))
    straddles = [(lo < 0.0) & (0.0 < hi) for lo, hi in sides]
    assert (straddles[0] & straddles[1]).sum() > 1000
    assert (straddles[0] ^ straddles[1]).sum() > 1000
    norms = iv.vnorm2(*sides)
    (xl, xh), (yl, yh), (lo, hi) = ([end.tolist() for end in side] for side in (*sides, norms))
    for row in range(n):
        ends = ((xl[row], xh[row]), (yl[row], yh[row]))
        least = sum(0 if a <= 0.0 <= b else min(_square(a), _square(b)) for a, b in ends)
        most = sum(max(_square(a), _square(b)) for a, b in ends)
        _assert_encloses(lo[row], hi[row], least, most)


def _is_hypot(node: ast.AST) -> bool:
    # a mention of hypot: `math.hypot`, `np.hypot`, a bare `hypot`, or an
    # import of it
    return (
        (isinstance(node, ast.Attribute) and node.attr == "hypot")
        or (isinstance(node, ast.Name) and node.id == "hypot")
        or (isinstance(node, ast.alias) and node.name == "hypot")
    )


def test_hypot_comes_from_one_site_in_the_kernel():
    # the interval arrays take every norm from `np.hypot` in `vhypot`, and
    # only the point oracle of `mechanism` takes scalar norms from
    # `math.hypot`
    uses = []
    for source in sorted(Path(iv.__file__).parent.glob("*.py")):
        tree = ast.parse(source.read_text())
        found = [
            (f"{source.stem}.{name}", ast.unparse(node))
            for name, f in module_functions(tree) for node in ast.walk(f) if _is_hypot(node)
        ]
        # and none outside a function
        assert len(found) == sum(map(_is_hypot, ast.walk(tree))), source.name
        uses += found
    assert [u for u in uses if u[0].startswith("interval.")] == [("interval.vhypot", "np.hypot")]
    assert {u for u in uses if not u[0].startswith("interval.")} == {
        ("mechanism.point_classify_joint", "math.hypot"),
        ("mechanism.point_classify_workspace", "math.hypot"),
    }


def _is_widening(node: ast.AST) -> bool:
    # a mention of numpy's nextafter, `np.nextafter` or an import of it, or
    # of the int64 step: its step column `_STEP` or its turn `_TURN`
    return (
        (isinstance(node, ast.Attribute) and node.attr == "nextafter"
         and isinstance(node.value, ast.Name) and node.value.id == "np")
        or (isinstance(node, ast.ImportFrom) and node.module == "numpy"
            and any(a.name == "nextafter" for a in node.names))
        or (isinstance(node, ast.Name) and node.id in ("_STEP", "_TURN"))
    )


def test_widening_comes_from_one_function():
    # every bound of the interval arrays is widened by `_widen`: numpy's
    # nextafter and the int64 step appear nowhere else in the library, and
    # outside a function only where the step's columns are defined
    uses, outside = [], []
    for source in sorted(Path(iv.__file__).parent.glob("*.py")):
        tree = ast.parse(source.read_text())
        found = [
            (f"{source.stem}.{name}", ast.unparse(node))
            for name, f in module_functions(tree) for node in ast.walk(f) if _is_widening(node)
        ]
        uses += found
        if sum(map(_is_widening, ast.walk(tree))) > len(found):
            outside.append(source.stem)
    assert {name for name, _ in uses} == {"interval._widen"}
    assert {node for _, node in uses} == {"np.nextafter", "_STEP", "_TURN"}
    assert outside == ["interval"]
    defined = [
        n for n in ast.parse(Path(iv.__file__).read_text()).body
        if isinstance(n, ast.Assign) and any(map(_is_widening, ast.walk(n)))
    ]
    assert [ast.unparse(n.targets[0]) for n in defined] == ["_STEP", "_TURN"]
