"""The interval arrays of the classification kernel, bit for bit against
the scalar primitives.

Every row of an array primitive must carry the exact bits (signed zeros
included) of its scalar twin applied to that row. The inputs are
criterion 7's random intervals plus adversarial endpoints: multiples of
pi/2 a few ulps off and at the 1e-9 slack of `_trig_quarters`, widths of
2 pi and more, operands that straddle or touch zero, and signed zeros.
"""

import itertools
import math

import numpy as np
import pytest

from fivebar import interval as iv
from fivebar.interval import DomainError, Interval

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
        (iv.vsqr, iv.sqr),
        (iv.vsin, iv.sin),
        (iv.vcos, iv.cos),
        (iv.vneg, lambda a: -a),
    ],
    ids=["sqr", "sin", "cos", "neg"],
)
def test_unary_rows_equal_scalar(vector, scalar):
    _assert_same_bits(vector(_arr(UNARY)), [scalar(a) for a in UNARY])


def test_sqrt_rows_equal_scalar():
    ok = [a for a in UNARY if a.hi >= 0.0]
    assert any(a.lo < 0.0 for a in ok) and any(a.hi == 0.0 for a in ok)
    _assert_same_bits(iv.vsqrt(_arr(ok)), [iv.sqrt(a) for a in ok])
    with pytest.raises(DomainError):
        iv.vsqrt(_arr(ok + [Interval(-2.0, -1.0)]))


@pytest.mark.parametrize(
    "vector, scalar",
    [
        (iv.vadd, iv.add),
        (iv.vsub, iv.sub),
        (iv.vmul, iv.mul),
        (iv.vnorm2, iv.norm2),
    ],
    ids=["add", "sub", "mul", "norm2"],
)
def test_binary_rows_equal_scalar(vector, scalar):
    a, b = zip(*PAIRS)
    _assert_same_bits(vector(_arr(a), _arr(b)), [scalar(x, y) for x, y in PAIRS])


@pytest.mark.filterwarnings("ignore:overflow encountered in divide")
def test_div_rows_equal_scalar():
    ok = [(x, y) for x, y in PAIRS if not y.contains_zero()]
    assert len(ok) > 1000
    a, b = zip(*ok)
    _assert_same_bits(iv.vdiv(_arr(a), _arr(b)), [iv.div(x, y) for x, y in ok])
    with pytest.raises(DomainError):
        iv.vdiv(_arr(a + (Interval(1.0, 2.0),)), _arr(b + (Interval(-0.0, 1.0),)))


@pytest.mark.parametrize(
    "k", [0.0, -0.0, 1.0, -1.0, 2.5, -2.5, 1e-9, -3e7, 8.0 / 5.0, 5e-324, math.pi]
)
def test_scale_and_shift_rows_equal_scalar(k):
    a = _arr(UNARY)
    _assert_same_bits(iv.vscale(a, k), [iv.scale(x, k) for x in UNARY])
    _assert_same_bits(iv.vshift(a, k), [iv.shift(x, k) for x in UNARY])


def test_sign_rows_equal_scalar():
    assert iv.vsign(_arr(UNARY)).tolist() == [a.sign() for a in UNARY]


def test_empty_arrays():
    empty = (np.zeros(0), np.zeros(0))
    for f in (iv.vsqr, iv.vsqrt, iv.vsin, iv.vcos):
        assert all(len(side) == 0 for side in f(empty))
    for f in (iv.vadd, iv.vsub, iv.vmul, iv.vdiv, iv.vnorm2):
        assert all(len(side) == 0 for side in f(empty, empty))
