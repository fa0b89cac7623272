"""Mirror pairs: a build classifies one box of each pair of twins, boxes
that are mirror images under the reflection of the linkage in its base
line, and reflects the other's leaf rows.

The paired build is held equal, table and calls, to the same build through
a classifier that hides its ``mirror``; the twins' bounds are held to be
exact negations on the depth-31 grid wherever the guard of
`quadtree._mirror` takes pairs; and every full combo tree is held to be the
mirror image of the opposite combo's tree.

A paired build merges one half of the tree and reflects it once: custom
classifiers with each mirror, on root boxes symmetric on the flipped sides
only, hold that to the unpaired build at depths 1..TOP + 2, including the
root's four quadrants of one kind, which collapse across the halves;
`quadtree._mirror_image` is held to `mirrored`, the tests' own reflection;
and the rows handed to the canonical pass are pinned. One rule,
`quadtree._kept`, picks the half: one box of each pair of twins, the boxes
of `quadtree._grid`, and the half a refine grows.
"""

from types import SimpleNamespace

import numpy as np
import pytest

from fivebar import interval as iv
from fivebar import quadtree as qt
from fivebar.aspects import ModeCombo
from fivebar.bench import JOINTSPACE, WORKSPACE, space_box
from fivebar.interval import Box2
from fivebar.mechanism import M1, M2, AssemblyMode, BoxClassifier, FiveBarGeometry, WorkingMode
from fivebar.quadtree import CODE_BLACK, CODE_UNDET, CODE_WHITE, LeafTable, build, deserialize
from fivebar.quadtree import mismatched_leaves, refine, serialize

from helpers import CountingClassifier, box_bounds, box_tables, build_rows, grid_rows


def _scaled(g: FiveBarGeometry, seed: int) -> FiveBarGeometry:
    # every length scaled by a factor in [0.99, 1.01], as the benchmark's seeds do
    rng = np.random.default_rng([seed, 0])
    return FiveBarGeometry(*[float(v * f) for v, f in zip(g.lengths, rng.uniform(0.99, 1.01, 5))])


GEOMETRIES = {"m1": M1, "m2": M2, "m1-seed7": _scaled(M1, 7), "m2-seed7": _scaled(M2, 7)}
# the mode-free and the single-mode setting of each space, as (wm, am)
SETTINGS = {
    JOINTSPACE: [(None, None), (None, AssemblyMode.NEGATIVE)],
    WORKSPACE: [(None, None), (WorkingMode(-1, 1), None)],
}
MIRROR = {JOINTSPACE: 3, WORKSPACE: 2}


def mirrored(t: LeafTable, mirror: int) -> tuple[np.ndarray, ...]:
    """The (level, keys, kind) columns of the mirror image of a table."""
    keys = qt._twins(t.depth, t.level, t.keys, mirror)
    order = np.argsort(keys)
    return t.level[order], keys[order], t.kind[order]


def columns(t: LeafTable) -> tuple[np.ndarray, ...]:
    return t.level, t.keys, t.kind


def assert_same_rows(a, b) -> None:
    for col_a, col_b in zip(a, b):
        assert col_a.dtype == col_b.dtype
        assert np.array_equal(col_a, col_b)


def rows_of(m: qt.QuadtreeModel, classify, paired: bool) -> int:
    """The rows the build of ``m`` by ``classify`` sends the kernel
    (`build_rows`), with the calls of levels 0..min(d, TOP) from a build to
    that depth."""
    top = build(m.root_box, min(m.max_depth, qt.TOP), classify).calls
    return build_rows(m.max_depth, m.calls, top, paired)


def test_mirror_follows_from_space_and_modes():
    for g in (M1, M2):
        assert BoxClassifier(JOINTSPACE, g).mirror == 3
        assert BoxClassifier(JOINTSPACE, g, None, AssemblyMode.POSITIVE).mirror == 3
        assert BoxClassifier(JOINTSPACE, g, WorkingMode(1, 1), AssemblyMode.POSITIVE).mirror == 0
        assert BoxClassifier(WORKSPACE, g).mirror == 2
        assert BoxClassifier(WORKSPACE, g, WorkingMode(1, -1)).mirror == 2
        assert BoxClassifier(WORKSPACE, g, WorkingMode(1, -1), AssemblyMode.NEGATIVE).mirror == 0
    # a plain function states no symmetry
    box = space_box(M1, WORKSPACE)
    assert qt._mirror(box, 10, BoxClassifier(WORKSPACE, M1)) == 2
    assert qt._mirror(box, 10, lambda b: 0) == 0


@pytest.mark.parametrize("space", [JOINTSPACE, WORKSPACE])
@pytest.mark.parametrize("name", list(GEOMETRIES))
def test_paired_build_equals_unpaired_build(name, space):
    g = GEOMETRIES[name]
    box = space_box(g, space)
    for wm, am in SETTINGS[space]:
        classify = BoxClassifier(space, g, wm, am)
        paired, unpaired = CountingClassifier(classify), CountingClassifier(classify, hide=True)
        a, b = build(box, 9, paired), build(box, 9, unpaired)
        assert_same_rows(columns(a.table), columns(b.table))
        assert a.calls == b.calls
        # the grid of the top levels in one batch, then the boxes below it
        assert unpaired.rows == rows_of(a, classify, paired=False)
        # the root, then one box of each pair
        assert paired.rows == rows_of(a, classify, paired=True)
        # the tree is its own mirror image
        assert_same_rows(mirrored(a.table, MIRROR[space]), columns(a.table))


def test_paired_refine_chain_equals_unpaired_chain(modefree_chains):
    for (name, space), per_depth in modefree_chains.items():
        g = GEOMETRIES[name]
        classify = CountingClassifier(BoxClassifier(space, g), hide=True)
        model = build(space_box(g, space), 5, classify)
        for d in range(6, 11):
            model = refine(model, d, classify)
            assert_same_rows(columns(per_depth[d].table), columns(model.table))
            assert per_depth[d].calls == model.calls, (name, space, d)


def _asymmetric(space: str, g: FiveBarGeometry) -> qt.QuadtreeModel:
    """A parsed depth-6 tree whose halves differ: some Undetermined leaves
    of the low-key half turned Black or White, and in the other half a
    Black leaf above maximal depth split into four Black children."""
    m = build(space_box(g, space), 6, BoxClassifier(space, g))
    t = m.table
    level, keys, kind = t.level.copy(), t.keys.copy(), t.kind.copy()
    low = np.flatnonzero((kind == CODE_UNDET) & (keys < 1 << 10))
    kind[low[::7]] = CODE_BLACK
    kind[low[3::7]] = CODE_WHITE
    big = np.flatnonzero((kind == CODE_BLACK) & (level < 6) & (keys >= 1 << 11))[0]
    side = 1 << 2 * (6 - level[big] - 1)
    level = np.insert(level, big + 1, [level[big] + 1] * 3)
    keys = np.insert(keys, big + 1, keys[big] + side * np.arange(1, 4))
    kind = np.insert(kind, big + 1, [CODE_BLACK] * 3)
    level[big] += 1
    m = deserialize(serialize(qt.QuadtreeModel(m.root_box, LeafTable(6, level, keys, kind), 0)))
    assert not np.array_equal(mirrored(m.table, MIRROR[space])[1], m.table.keys)
    return m


@pytest.mark.parametrize("space", [JOINTSPACE, WORKSPACE])
def test_parsed_tree_whose_halves_differ(space):
    g = M1
    m = _asymmetric(space, g)
    classify = BoxClassifier(space, g)
    paired, unpaired = CountingClassifier(classify), CountingClassifier(classify, hide=True)
    a, b = refine(m, 8, paired), refine(m, 8, unpaired)
    assert_same_rows(columns(a.table), columns(b.table))
    # a table that is not its own mirror image refines without pairs
    assert paired.rows == unpaired.rows == a.calls == b.calls
    paired, unpaired = CountingClassifier(classify), CountingClassifier(classify, hide=True)
    count = mismatched_leaves(m, paired)
    assert count == mismatched_leaves(m, unpaired) > 0
    assert paired.rows < unpaired.rows
    # a symmetric tree checks clean with half the rows
    full = build(space_box(g, space), 6, classify)
    paired, unpaired = CountingClassifier(classify), CountingClassifier(classify, hide=True)
    assert mismatched_leaves(full, paired) == mismatched_leaves(full, unpaired) == 0
    assert paired.rows < unpaired.rows


def test_asymmetric_box_takes_no_pairs():
    classify = CountingClassifier(BoxClassifier(WORKSPACE, M2))
    m = build(Box2.from_bounds(-4.6, 4.6, -4.0, 4.6), 8, classify)
    assert classify.rows == rows_of(m, classify.classify, paired=False)
    # the joint-space reflection flips both sides; each must be symmetric
    a = iv.full_angle().hi
    for bounds in ((-a, a, -a, 3.0), (-3.0, a, -a, a)):
        classify = CountingClassifier(BoxClassifier(JOINTSPACE, M1))
        m = build(Box2.from_bounds(*bounds), 8, classify)
        assert classify.rows == rows_of(m, classify.classify, paired=False)
    # the workspace reflection keeps x: a box symmetric in y alone pairs
    classify = CountingClassifier(BoxClassifier(WORKSPACE, M2))
    m = build(Box2.from_bounds(-4.0, 4.6, -4.6, 4.6), 8, classify)
    assert classify.rows == rows_of(m, classify.classify, paired=True)


# the half-width a of the smallest square root box that `_mirror` pairs at
# depth 31: its nominal finest side 2a / 2^31 is the guard's bound
EDGE = qt._MIN_FINEST * 2.0**31 / 2


def _paths(rng, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Levels and keys of n random boxes of the depth-31 grid, and of the
    boxes at every level whose column and row are each the first, the
    last, or one next to the centre: there the bisection reaches its
    smallest bounds."""
    d = qt.MAX_DEPTH
    level = rng.integers(0, d + 1, n)
    cx, cy = rng.integers(0, 1 << d, (2, n)) >> (d - level) << (d - level)
    levels, xs, ys = [level], [cx], [cy]
    for lev in range(1, d + 1):
        lines = np.array([0, (1 << lev - 1) - 1, 1 << lev - 1, (1 << lev) - 1]) << (d - lev)
        x, y = np.meshgrid(lines, lines)
        levels.append(np.full(x.size, lev))
        xs.append(x.ravel())
        ys.append(y.ravel())
    return np.concatenate(levels), qt._morton(np.concatenate(xs), np.concatenate(ys))


def _twin_negates(box: Box2, level, keys, mirror: int) -> np.ndarray:
    """Per box: are the bounds of its twin the negated bounds of the box on
    the flipped sides, and the same on the other side?"""
    d = qt.MAX_DEPTH
    x_lo, x_hi, y_lo, y_hi = qt._bounds(box, d, level, keys)
    tx_lo, tx_hi, ty_lo, ty_hi = qt._bounds(box, d, level, qt._twins(d, level, keys, mirror))
    ok = np.ones(len(keys), dtype=bool)
    for bit, lo, hi, t_lo, t_hi in ((1, x_lo, x_hi, tx_lo, tx_hi), (2, y_lo, y_hi, ty_lo, ty_hi)):
        if mirror & bit:
            ok &= (t_lo == -hi) & (t_hi == -lo)
        else:
            ok &= (t_lo == lo) & (t_hi == hi)
    return ok


def test_twin_bounds_are_exact_negations_on_the_depth_31_grid():
    rng = np.random.default_rng(23)
    level, keys = _paths(rng, 3000)
    above = [iv.full_angle().hi, 4.6, 13.0, EDGE, np.nextafter(EDGE, np.inf), 1.5 * EDGE]
    above += (rng.uniform(1, 2, 12) * 2.0 ** rng.integers(-980, 1000, 12)).tolist()
    classify = SimpleNamespace(mirror=3)
    for a in above:
        box = Box2.from_bounds(-a, a, -a, a)
        assert qt._mirror(box, qt.MAX_DEPTH, classify) == 3
        for mirror in (1, 2, 3):
            assert _twin_negates(box, level, keys, mirror).all(), (a, mirror)
    # only the flipped sides need the guard
    box = Box2.from_bounds(-EDGE / 8, EDGE / 8, -4.6, 4.6)
    assert qt._mirror(box, qt.MAX_DEPTH, SimpleNamespace(mirror=2)) == 2
    assert qt._mirror(box, qt.MAX_DEPTH, classify) == 0
    # a factor 4 below the guard, the halving of a subnormal side rounds,
    # and the bounds of some twins next to the centre lines part
    a = EDGE / 4 * (1 + 2.0**-52)
    assert not _twin_negates(Box2.from_bounds(-a, a, -a, a), level, keys, 3).all()


def _origin_classifier():
    """Undecided on the boxes that touch the origin, +1 elsewhere: a mirror
    pair of its own, that stays open down to any depth."""

    def batch(x, y, ix, iy):
        touch = (x[0][ix] <= 0) & (x[1][ix] >= 0) & (y[0][iy] <= 0) & (y[1][iy] >= 0)
        return np.where(touch, 0, 1).astype(np.int8)

    return SimpleNamespace(batch=batch, mirror=3)


@pytest.mark.parametrize("a", [EDGE, np.nextafter(EDGE, 0), EDGE / 2, 4.6])
def test_pairs_only_above_the_guard(a):
    box = Box2.from_bounds(-a, a, -a, a)
    d = qt.MAX_DEPTH
    classify = CountingClassifier(_origin_classifier())
    m = build(box, d, classify)
    plain = CountingClassifier(_origin_classifier(), hide=True)
    assert_same_rows(columns(m.table), columns(build(box, d, plain).table))
    assert m.calls > 100
    assert plain.rows == rows_of(m, _origin_classifier(), paired=False)
    if a >= EDGE:
        assert classify.rows == rows_of(m, _origin_classifier(), paired=True)
    else:
        assert qt._mirror(box, d, classify) == 0
        assert classify.rows == rows_of(m, _origin_classifier(), paired=False)


def test_every_full_combo_mirrors_its_opposite(combo_trees_d8):
    trees, _ = combo_trees_d8
    for (name, space, combo), m in trees.items():
        wm, am = combo.wm, combo.am
        opposite = trees[(name, space, ModeCombo(WorkingMode(-wm.s1, -wm.s2), AssemblyMode(-am)))]
        assert_same_rows(mirrored(m.table, MIRROR[space]), columns(opposite.table))
        assert m.calls == opposite.calls, (name, space, str(combo))


# a root box symmetric about 0 on both sides, on x alone, on y alone, and on neither
SQUARE = Box2.from_bounds(-1.0, 1.0, -1.0, 1.0)
X_SYMMETRIC = Box2.from_bounds(-1.0, 1.0, -0.8, 1.3)
Y_SYMMETRIC = Box2.from_bounds(-0.7, 1.2, -1.0, 1.0)
ASYMMETRIC = Box2.from_bounds(-1.0, 1.1, -0.8, 1.3)


def _quadrant_signs(signs, mirror: int, box: Box2):
    """Undecided on the root box ``box`` and ``signs[q]`` on every box
    inside its quadrant q; ``signs[q] == signs[q ^ mirror]``."""
    assert all(signs[q] == signs[q ^ mirror] for q in range(4))
    mx, my = (side.lo + (side.hi - side.lo) / 2 for side in (box.x, box.y))
    signs = np.array([*signs, 0], dtype=np.int8)  # index 4: the root

    def batch(x, y, ix, iy):
        x_lo, x_hi, y_lo, y_hi = box_bounds(x, y, ix, iy)
        root = (x_lo < mx) & (mx < x_hi) & (y_lo < my) & (my < y_hi)
        return signs[np.where(root, 4, (x_lo >= mx) + 2 * (y_lo >= my))]

    return SimpleNamespace(batch=batch, mirror=mirror)


def _disc(mirror: int):
    """Black inside the disc of radius 0.55 about (0.3, 0) with ``mirror`` 2,
    (0, 0.3) with 1 and (0, 0) with 3, White outside it: the verdict of a
    box from the least and the greatest |x - cx| and |y - cy| over it,
    which are the same, bit for bit, on a box and on its mirror image."""
    cx, cy = {1: (0.0, 0.3), 2: (0.3, 0.0), 3: (0.0, 0.0)}[mirror]

    def batch(x, y, ix, iy):
        x_lo, x_hi, y_lo, y_hi = box_bounds(x, y, ix, iy)
        near, far = 0.0, 0.0
        for lo, hi in ((x_lo - cx, x_hi - cx), (y_lo - cy, y_hi - cy)):
            near = near + np.maximum(np.maximum(lo, -hi), 0) ** 2
            far = far + np.maximum(-lo, hi) ** 2
        return np.where(far < 0.55**2, 1, np.where(near > 0.55**2, -1, 0)).astype(np.int8)

    return SimpleNamespace(batch=batch, mirror=mirror)


class _PerBox:
    """A plain function of one box with the ``mirror`` of ``classify``, so
    that a build pairs twins in its level loop; counts its calls."""

    def __init__(self, classify):
        self.classify = classify
        self.mirror = classify.mirror
        self.calls = 0

    def __call__(self, b: Box2) -> int:
        self.calls += 1
        bounds = (np.array([v]) for v in (b.x.lo, b.x.hi, b.y.lo, b.y.hi))
        return int(self.classify.batch(*box_tables(*bounds))[0])


# per mirror, signs of the four quadrants by which both halves hold a
# Black and a White quadrant
TWO_KINDS = {1: [-1, -1, 1, 1], 2: [1, -1, 1, -1], 3: [1, -1, -1, 1]}
# classifier and root box; the last one `_mirror` refuses
REFLECTED = {
    "alike-black-mirror-3": (_quadrant_signs([1] * 4, 3, SQUARE), SQUARE),
    "alike-white-mirror-2": (_quadrant_signs([-1] * 4, 2, Y_SYMMETRIC), Y_SYMMETRIC),
    "alike-black-mirror-1": (_quadrant_signs([1] * 4, 1, X_SYMMETRIC), X_SYMMETRIC),
    "two-kinds-mirror-3": (_quadrant_signs(TWO_KINDS[3], 3, SQUARE), SQUARE),
    "two-kinds-mirror-2": (_quadrant_signs(TWO_KINDS[2], 2, Y_SYMMETRIC), Y_SYMMETRIC),
    "two-kinds-mirror-1": (_quadrant_signs(TWO_KINDS[1], 1, X_SYMMETRIC), X_SYMMETRIC),
    "disc-mirror-1": (_disc(1), X_SYMMETRIC),
    "disc-mirror-2": (_disc(2), Y_SYMMETRIC),
    "disc-mirror-3": (_disc(3), SQUARE),
    "disc-refused": (_disc(1), ASYMMETRIC),
}


@pytest.mark.parametrize("d", range(1, qt.TOP + 3))
@pytest.mark.parametrize("case", list(REFLECTED))
def test_reflected_half_equals_unpaired_build(case, d):
    classify, box = REFLECTED[case]
    takes = qt._mirror(box, d, classify) != 0
    assert takes == (case != "disc-refused")
    paired, unpaired = CountingClassifier(classify), CountingClassifier(classify, hide=True)
    a, b = build(box, d, paired), build(box, d, unpaired)
    assert_same_rows(columns(a.table), columns(b.table))
    assert a.calls == b.calls
    assert unpaired.rows == rows_of(a, classify, paired=False)
    assert paired.rows == rows_of(a, classify, paired=takes)
    assert_same_rows(mirrored(a.table, classify.mirror) if takes else columns(a.table),
                     columns(a.table))
    # a plain function pairs in the level loop and reflects the same half
    plain = _PerBox(classify)
    c = build(box, d, plain)
    assert_same_rows(columns(c.table), columns(b.table))
    assert c.calls == b.calls
    assert plain.calls == (1 + (c.calls - 1) // 2 if takes else c.calls)


@pytest.mark.parametrize("mirror", [1, 2, 3])
def test_quadrants_of_one_kind_collapse_into_the_root(mirror):
    box = {1: X_SYMMETRIC, 2: Y_SYMMETRIC, 3: SQUARE}[mirror]
    for d in range(1, qt.TOP + 3):
        for sign in (CODE_BLACK, CODE_WHITE):
            m = build(box, d, _quadrant_signs([sign] * 4, mirror, box))
            root = np.zeros(1, dtype=np.int64)
            assert_same_rows(columns(m.table), (root, root, np.array([sign], dtype=np.int8)))
            assert m.calls == 5
        # a half of two kinds stays split
        m = build(box, d, _quadrant_signs(TWO_KINDS[mirror], mirror, box))
        assert m.table.level.tolist() == [1] * 4
        assert m.table.kind.tolist() == TWO_KINDS[mirror]
    # and so does a half of two Undetermined leaves
    m = build(box, 1, _quadrant_signs([CODE_UNDET] * 4, mirror, box))
    assert m.table.kind.tolist() == [CODE_UNDET] * 4


def test_mirror_image_equals_the_reference_reflection(combo_trees_d8):
    trees, _ = combo_trees_d8
    tables = [m.table for m in trees.values()]
    tables += [_asymmetric(space, M1).table for space in (JOINTSPACE, WORKSPACE)]
    tables += [build(SQUARE, 3, _quadrant_signs([1] * 4, 3, SQUARE)).table]
    for t in tables:
        for mirror in (1, 2, 3):
            image = qt._mirror_image(t.depth, t.level, t.keys, t.kind, mirror)
            assert_same_rows(image, mirrored(t, mirror))


def test_paired_builds_merge_one_half(monkeypatch):
    # the rows each build hands to the canonical pass: a paired build one
    # half of its tree, the same build without pairs the whole tree; a
    # refine merges its old rows with the new ones and their twins
    handed = []
    canonical = qt._canonical

    def counting(d, rows):
        handed.append(sum(len(keys) for _, keys, _ in rows))
        return canonical(d, rows)

    monkeypatch.setattr(qt, "_canonical", counting)
    rows = {
        ("m1", JOINTSPACE): (12524, 25048),
        ("m1", WORKSPACE): (13835, 27670),
        ("m2", JOINTSPACE): (10757, 21514),
        ("m2", WORKSPACE): (10289, 20578),
    }
    for (name, space), want in rows.items():
        g = GEOMETRIES[name]
        classify = BoxClassifier(space, g)
        del handed[:]
        build(space_box(g, space), 10, classify)
        build(space_box(g, space), 10, CountingClassifier(classify, hide=True))
        assert tuple(handed) == want, (name, space)
    classify = BoxClassifier(WORKSPACE, M1)
    coarse = build(space_box(M1, WORKSPACE), 8, classify)
    del handed[:]
    refine(coarse, 10, classify)
    assert handed == [12791]


@pytest.mark.parametrize("mirror", [1, 2, 3])
def test_kept_takes_one_box_of_each_pair(mirror):
    rng = np.random.default_rng(mirror)
    d = 12
    for lev in range(1, d + 1):
        keys = np.unique(rng.integers(0, 1 << 2 * lev, 300)) << 2 * (d - lev)
        twins = qt._twins(d, lev, keys, mirror)
        kept = qt._kept(d, keys, mirror)
        assert np.array_equal(kept, ~qt._kept(d, twins, mirror))
        assert np.array_equal(kept, keys > twins)  # the larger key
        assert qt._kept(d, keys, 0).all()
    assert not qt._kept(d, np.zeros(1, dtype=np.int64), mirror).any()  # the root


@pytest.mark.parametrize("mirror", [0, 1, 2, 3])
def test_grid_keeps_the_boxes_of_kept(mirror):
    t = qt.TOP
    x, y, _, _ = qt._root_tables(SQUARE)
    slot = qt._grid(t, x, y, mirror)[0]
    starts = [((1 << 2 * lev) - 1) // 3 for lev in range(t + 2)]
    assert slot[0] == 0
    for lev in range(1, t + 1):
        every = np.arange(1 << 2 * lev)
        got = slot[(slot >= starts[lev]) & (slot < starts[lev + 1])] - starts[lev]
        assert np.array_equal(got, every[qt._kept(lev, every, mirror)])


def _open_down_to(level: int, mirror: int):
    """Undecided on the boxes of SQUARE at levels 0..``level``, +1 on the
    deeper ones."""

    def batch(x, y, ix, iy):
        x_lo, x_hi, _, _ = box_bounds(x, y, ix, iy)
        return np.where(x_hi - x_lo >= 2.0 / 2**level, 0, 1).astype(np.int8)

    return SimpleNamespace(batch=batch, mirror=mirror)


@pytest.mark.parametrize("mirror", [1, 2, 3])
def test_paired_refine_equals_fresh_build(mirror):
    # undecided down to depth 2 and Black below: refined 2 -> 3, the kept
    # half of two level-1 Black leaves collapses into the root
    classify = CountingClassifier(_open_down_to(2, mirror))
    m = build(SQUARE, 2, classify)
    assert m.stats.undetermined == 16
    del classify.sizes[:]
    a = refine(m, 3, classify)
    b = build(SQUARE, 3, _open_down_to(2, mirror))
    assert_same_rows(columns(a.table), columns(b.table))
    assert a.calls == b.calls == 1 + 4 + 16 + 64
    assert len(a.table.keys) == 1 and classify.rows == 64 // 2
    # a root leaf refines into itself, with no call
    classify = CountingClassifier(_open_down_to(-1, mirror))
    m = build(SQUARE, 2, classify)
    a = refine(m, 5, classify)
    assert classify.sizes == [grid_rows(2, paired=True)]
    b = build(SQUARE, 5, classify)
    assert_same_rows(columns(a.table), columns(b.table))
    assert a.calls == b.calls == 1
