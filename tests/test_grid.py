"""The top of a build as one grid: a build through a classifier's ``batch``
classifies every box of levels 0..TOP in one batch, one box of each mirror
pair where the build takes pairs, and reads the verdicts of those levels
from it; a plain function is called box by box, level by level.

Both paths are held to the same table and calls on every mode setting of
both spaces, at depths below, at and above TOP, and on root boxes where
`quadtree._mirror` refuses pairs; the batch build is held to the exact rows
of its grid and of the levels below. The grid, derived level from level,
is held bit for bit to its construction from each level's Morton indices,
and the root's axis tables to those of `_bounds`. The depth-10 work of the
mode-free builds is pinned.
"""

import numpy as np
import pytest

from fivebar import quadtree as qt
from fivebar.aspects import all_mode_combos
from fivebar.bench import JOINTSPACE, WORKSPACE, space_box
from fivebar.interval import Box2
from fivebar.mechanism import M1, M2, AssemblyMode, BoxClassifier, WorkingMode
from fivebar.quadtree import TOP, build

from helpers import CountingClassifier, box_tables, grid_rows, reference_bounds, reference_grid

GEOMETRIES = {"m1": M1, "m2": M2}
# every mode setting of each space, as (wm, am)
SETTINGS = {
    JOINTSPACE: [(None, None)] + [(None, am) for am in AssemblyMode]
    + [(c.wm, c.am) for c in all_mode_combos()],
    WORKSPACE: [(None, None)] + [(WorkingMode(s1, s2), None) for s1 in (1, -1) for s2 in (1, -1)]
    + [(c.wm, c.am) for c in all_mode_combos()],
}
# root boxes on which `_mirror` refuses the pairs of the space's mirror
ASYMMETRIC = {
    JOINTSPACE: Box2.from_bounds(-3.1, 3.1, -3.1, 3.0),
    WORKSPACE: Box2.from_bounds(-4.6, 4.6, -4.0, 4.6),
}
DEPTHS = range(1, 9)


def per_box(classify, box: Box2, d: int):
    """A plain function of one box, so that a build calls it box by box,
    level by level, and the level of every box it is called on, in call
    order. It knows the boxes of levels 0..d of ``box`` that a build tests,
    the root and the quadrants of every undecided box, by the bounds that
    `reference_bounds` gives them, and their verdicts from one batch of
    ``classify`` per level; a box whose bounds differ from those in any bit
    has no verdict (KeyError)."""
    verdict, levels = {}, []
    keys = np.zeros(1, dtype=np.int64)
    for lev in range(d + 1):
        bounds = reference_bounds(box, d, np.full(len(keys), lev), keys)
        v = classify.batch(*box_tables(*bounds))
        verdict.update(zip(zip(*(b.tolist() for b in bounds)), ((k, lev) for k in v.tolist())))
        if lev < d:
            keys = (keys[v == 0, None] + (np.arange(4) << 2 * (d - lev - 1))).ravel()

    def plain(b: Box2) -> int:
        v, lev = verdict[(b.x.lo, b.x.hi, b.y.lo, b.y.hi)]
        levels.append(lev)
        return v

    return plain, levels


def assert_same_tables(a: qt.QuadtreeModel, b: qt.QuadtreeModel) -> None:
    for col_a, col_b in zip((a.table.level, a.table.keys, a.table.kind),
                            (b.table.level, b.table.keys, b.table.kind)):
        assert col_a.dtype == col_b.dtype
        assert np.array_equal(col_a, col_b)


@pytest.mark.parametrize("space", [JOINTSPACE, WORKSPACE])
@pytest.mark.parametrize("name", sorted(GEOMETRIES))
def test_grid_build_equals_per_box_build(name, space):
    g = GEOMETRIES[name]
    taken = set()
    for box in (space_box(g, space), ASYMMETRIC[space]):
        for wm, am in SETTINGS[space]:
            classify = BoxClassifier(space, g, wm, am)
            plain, levels = per_box(classify, box, DEPTHS[-1])
            for d in DEPTHS:
                counting = CountingClassifier(classify)
                a = build(box, d, counting)
                del levels[:]
                b = build(box, d, plain)
                assert_same_tables(a, b)
                assert a.calls == b.calls == len(levels), (wm, am, d)
                # the grid, then one batch per level below TOP that has
                # boxes: all of them, or one of each pair of twins
                paired = qt._mirror(box, d, classify) != 0
                taken.add(paired)
                below = np.bincount(levels, minlength=d + 1)[TOP + 1:]
                below = below[below > 0] // (2 if paired else 1)
                assert counting.sizes == [grid_rows(d, paired)] + below.tolist()
    assert taken == {False, True}


def test_grid_rows_at_depth_10():
    # 5 batches instead of 11: the grid of levels 0..6, with one box of
    # each pair of twins, then levels 7..10
    rows = {
        ("m1", JOINTSPACE): (18407, 33397),
        ("m1", WORKSPACE): (20251, 36893),
        ("m2", JOINTSPACE): (15979, 28685),
        ("m2", WORKSPACE): (15683, 27437),
    }
    for (name, space), (total, calls) in rows.items():
        g = GEOMETRIES[name]
        classify = CountingClassifier(BoxClassifier(space, g))
        m = build(space_box(g, space), 10, classify)
        assert m.calls == calls
        assert len(classify.sizes) == 5
        assert classify.sizes[0] == grid_rows(10, paired=True) == 2731
        assert classify.rows == total, (name, space)


def _assert_same_bits(a: np.ndarray, b: np.ndarray) -> None:
    assert a.shape == b.shape
    assert np.array_equal(np.asarray(a).view(np.int64), np.asarray(b).view(np.int64))


@pytest.mark.parametrize("mirror", range(4))
def test_grid_equals_construction_from_morton_indices(mirror):
    for box in (Box2.from_bounds(-3.1, 3.1, -0.0, 3.0), space_box(M1, WORKSPACE)):
        x, y, _, _ = qt._root_tables(box)
        for t in range(TOP + 1):
            got = qt._grid(t, x, y, mirror)
            want = reference_grid(t, tuple(x), tuple(y), mirror)
            for col in (0, 1, 4, 5):  # slot, twin, ix, iy
                assert got[col].tolist() == want[col].tolist(), (t, col)
            for table, (lo, hi) in zip(got[2:4], want[2:4]):
                _assert_same_bits(table, np.stack((lo, hi)))


@pytest.mark.parametrize("d", [1, 10, qt.MAX_DEPTH])
def test_root_tables_are_the_bits_of_level_0(d):
    root = np.zeros(1, dtype=np.int64)
    boxes = [space_box(M1, JOINTSPACE), Box2.from_bounds(-0.0, 1e-300, -8e307, 5e-324)]
    for box in boxes + list(ASYMMETRIC.values()):
        got, want = qt._root_tables(box), qt._tables(box, d, 0, root)
        for a, b in zip(got[:2], want[:2]):
            assert a.dtype == np.float64
            _assert_same_bits(a, b)
        for a, b in zip(got[2:], want[2:]):
            assert a.tolist() == b.tolist() == [0]
