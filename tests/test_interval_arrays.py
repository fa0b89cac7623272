"""The interval arrays of the library, bit for bit against their scalar
twins in `interval_reference`.

Every row of an array primitive must carry the exact bits (signed zeros
included) of its scalar twin applied to that row. The inputs are
criterion 7's random intervals plus adversarial endpoints: multiples of
pi/2 a few ulps off and at the 1e-9 slack of `_trig_quarters`, widths of
2 pi and more, operands that straddle or touch zero, and signed zeros;
acos arguments at +-1 and one ulp outside; atan2 boxes that hold the
origin, touch an axis with 0.0 or -0.0, or straddle the negative x axis.

Three cheap primitives under them have their own reference: the outward
rounding by an integer step on the int64 view, against two
``np.nextafter`` (`helpers.reference_vdown` / `reference_vup`) on random
bit patterns and on every float where the step does not apply; sin and
cos mapped once per distinct endpoint, against the scalar functions on
batches whose rows share endpoints the way a quadtree frontier does; and
hypot as CPython's own float operations on arrays, against ``math.hypot``
on batches long enough to reach them (random pairs over every exponent,
zeros, subnormals, the top of the range, inf and NaN), with a guard that
a build maps ``math.hypot`` over few of its rows.
"""

import itertools
import math
import warnings

import numpy as np
import pytest

from fivebar import interval as iv
from fivebar import quadtree as qt
from fivebar.bench import WORKSPACE, space_box, space_classifier
from fivebar.interval import DomainError, Interval
from fivebar.mechanism import M1

import interval_reference as ref
from helpers import CountingClassifier, reference_vdown, reference_vup

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
    return (
        np.array([a.lo for a in intervals], dtype=np.float64),
        np.array([a.hi for a in intervals], dtype=np.float64),
    )


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
    # a batch this long takes the hypot transcription in vnorm2
    assert len(PAIRS) >= iv._HYPOT_MIN_ROWS
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
    empty = (np.zeros(0), np.zeros(0))
    for f in (iv.vsqr, iv.vsqrt, iv.vacos, ref.vsin, ref.vcos):
        assert all(len(side) == 0 for side in f(empty))
    for f in (iv.vadd, iv.vsub, iv.vmul, iv.vdiv, iv.vnorm2, iv.vatan2):
        assert all(len(side) == 0 for side in f(empty, empty))


# ---------------------------------------------------------------------------
# Outward rounding: the integer step against two np.nextafter
# ---------------------------------------------------------------------------

MAX = np.finfo(np.float64).max
TINY = np.finfo(np.float64).smallest_normal


def _widening_pairs():
    return ((iv._vdown, reference_vdown), (iv._vup, reference_vup))


def _assert_same_float_bits(got: np.ndarray, want: np.ndarray) -> None:
    assert got.dtype == np.float64 and got.shape == want.shape
    diff = np.flatnonzero(got.view(np.int64) != want.view(np.int64))
    assert len(diff) == 0, f"{len(diff)} rows differ, first: {want[diff[0]]!r} vs {got[diff[0]]!r}"


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
    for step, ref in _widening_pairs():
        _assert_same_float_bits(step(x), ref(x))


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
        for step, ref in _widening_pairs():
            got = step(x)
            _assert_same_float_bits(got, ref(x))
            assert (np.isnan(got) == np.isnan(x)).all()
            # every row alone, as a one-row batch goes through
            for v in x:
                _assert_same_float_bits(step(np.array([v])), ref(np.array([v])))


@pytest.mark.parametrize("v", [MAX, _steps(MAX, -1)])
def test_widening_past_max_warns_like_nextafter(v):
    for x, step, ref in (
        (np.array([1.0, v]), iv._vup, reference_vup),
        (np.array([-v, -1.0]), iv._vdown, reference_vdown),
    ):
        with pytest.warns(RuntimeWarning, match="overflow") as want:
            expected = ref(x)
        with pytest.warns(RuntimeWarning, match="overflow") as got:
            result = step(x)
        assert [str(w.message) for w in got] == [str(w.message) for w in want]
        _assert_same_float_bits(result, expected)
        assert np.isinf(result).sum() == 1


def test_widening_toward_zero_from_max_is_silent():
    x = np.array([MAX, _steps(MAX, -1), math.inf, -MAX, -math.inf])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        _assert_same_float_bits(iv._vdown(x[:3]), reference_vdown(x[:3]))
        _assert_same_float_bits(iv._vup(x[3:]), reference_vup(x[3:]))


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
# hypot: CPython's float operations as array passes
# ---------------------------------------------------------------------------


def _assert_hypot_equals_math(a: np.ndarray, b: np.ndarray) -> None:
    # shorter batches map math.hypot and never reach the transcription
    assert len(a) >= iv._HYPOT_MIN_ROWS
    want = np.array(list(map(math.hypot, a.tolist(), b.tolist())))
    _assert_same_float_bits(iv._vhypot(a, b), want)


def _hypot_specials() -> np.ndarray:
    """Zeros, the smallest subnormal, the smallest normal and its neighbours,
    the floats at the top of the scaled range and above, inf and NaN, next
    to ordinary values."""
    vals = [0.0, -0.0, 5e-324, 1e-323, 1e-310, 1.0, 3.0, 4.0, 1e-300, 1e300]
    vals += [_steps(TINY, n) for n in (-2, -1, 0, 1, 2)]
    for top in (2.0**1021, 2.0**1022):
        vals += [_steps(top, n) for n in (-1, 0, 1)]
    vals += [_steps(MAX, n) for n in (-1, 0)] + [math.inf, math.nan]
    return np.array(vals)


def test_hypot_equals_math_on_special_pairs():
    v = _hypot_specials()
    a, b = (side.ravel() for side in np.meshgrid(v, v))
    _assert_hypot_equals_math(a, b)


def test_hypot_equals_math_on_equal_arguments_powers_of_two_ratios_and_triples():
    rng = np.random.default_rng(79)
    x = rng.uniform(0.5, 1.0, 1000) * 2.0 ** rng.integers(-1020, 1020, 1000)
    # y = x * 2**-k for k = 0..60, either argument the larger
    a = np.concatenate([x] + [x * 2.0**-k for k in range(61)])
    b = np.concatenate([x] * 62)
    _assert_hypot_equals_math(a, b)
    _assert_hypot_equals_math(b, a)
    # (m^2 - n^2, 2 m n), whose hypot m^2 + n^2 is exact, at every scale
    m, n = np.meshgrid(np.arange(2.0, 60.0), np.arange(1.0, 59.0))
    keep = n < m
    legs = (m[keep] ** 2 - n[keep] ** 2, 2.0 * m[keep] * n[keep])
    for e in (-1070, -1022, -600, 0, 600, 1000):
        _assert_hypot_equals_math(*(np.ldexp(leg, e) for leg in legs))


def test_hypot_equals_math_on_random_pairs_over_all_exponents():
    # random biased exponents 0..2046 and mantissas, both sides independent,
    # then the second side within 60 binades of the first and in its binade
    rng = np.random.default_rng(80)
    n = 350_000
    for spread in (None, 60, 0):
        e = rng.integers(0, 2047, (2, n))
        if spread is not None:
            e[1] = np.clip(e[0] + rng.integers(-spread, spread + 1, n), 0, 2046)
        bits = (e.astype(np.uint64) << np.uint64(52)) | rng.integers(0, 1 << 52, (2, n), dtype=np.uint64)
        _assert_hypot_equals_math(*bits.view(np.float64))


def test_build_maps_math_hypot_on_few_rows(monkeypatch):
    # the transcription, not a per-row map, gives the norms of a build
    mapped = [0]
    received = [0]

    def hypot(x, y):
        mapped[0] += 1
        return math.hypot(x, y)

    class CountingMath:
        def __getattr__(self, name):
            return hypot if name == "hypot" else getattr(math, name)

    transcription = iv._vhypot

    def counting_vhypot(a, b):
        received[0] += len(a)
        return transcription(a, b)

    monkeypatch.setattr(iv, "math", CountingMath())
    monkeypatch.setattr(iv, "_vhypot", counting_vhypot)
    counting = CountingClassifier(space_classifier(M1, WORKSPACE))
    qt.build(space_box(M1, WORKSPACE), 10, counting)
    # both distances of every kernel row, each from a mig and a mag pair
    assert received[0] >= 4 * counting.rows
    assert mapped[0] < 0.05 * received[0]
