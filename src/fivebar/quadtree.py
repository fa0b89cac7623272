"""Quadtree region model built by a box classifier.

A classifier maps a box to +1 (every point valid), -1 (no point valid) or
0 (undecided). The builder subdivides undecided boxes up to a maximal
depth; leaves are Black (valid), White (invalid) or Undetermined (still
undecided at maximal depth). A leaf's kind is its box's verdict sign (+1
Black, -1 White, 0 Undetermined); the complementary tree, which records the
certified-invalid space, negates it.

A model is its root box, its leaf table, a linear quadtree (Gargantini,
CACM 25(12), 1982), and its classifier calls. The table has one row per
leaf, in preorder, with the leaf's depth, the Morton key of its low corner
and its kind; the node counts are read off it (`QuadtreeModel.stats`).
There is no object tree; building, refining, the text format, location,
labeling, seams, rendering, sampling, areas and pairing all produce or read
table rows, and the letters B/W/U/G appear only in the text format.

A box's bounds follow from its depth and key, and one helper,
`_midpoint`, computes them all: the midpoints ``lo + (hi - lo) / 2`` that
bisect the root box down each box's path. `_bounds` gathers the edges of
many boxes at once from the edge grid of one level. The table stores no
bounds; a reader asks the model for those of the rows it reads
(`QuadtreeModel.bounds`, `QuadtreeModel.area`).

The build is level-synchronous. The frontier of boxes to test at one
depth is the array of their keys and the product of two axis tables: the
distinct x intervals of its columns and the distinct y intervals of its
rows, each one (2, n) interval array (lower bounds, then upper bounds),
with an index into each table per box, so box k is
``x[:, ix[k]] x y[:, iy[k]]``. The build starts from the root box, a
refinement from one `_bounds` call over its Undetermined leaves
(`_tables`), and one function, `_children`, makes every frontier below
that: the keys of the quadrants of the open boxes of the one above, and
tables that drop the entries no open box uses (a presence mask and a
prefix sum, no sort) and halve the others at their midpoints, which are
the bits of `_bounds` on the grid of the next level. The boxes are
classified CHUNK at a time through the classifier's
``batch(x, y, ix, iy)`` method, each chunk with the table entries it uses
(a plain function is called once per box), and the kernel computes what
depends on one axis alone once per table entry. Decided boxes, and the
undecided ones at maximal depth, become leaf rows of (level, key, kind).
A batch has a fixed cost that the few boxes of the top levels would pay
once per level, so a build through ``batch`` first classifies every box
of levels 0..TOP in one batch, the frontiers of the root's `_children`
down to level TOP with their tables end to end, reads the leaf rows of
those levels off its verdicts by array passes in Morton order, and
starts its level loop at level TOP + 1; a plain function, and a
refinement, classify each level as it comes. One canonical pass then
sorts the rows by key and, deepest level first, collapses every four
Black or White siblings of one kind into their parent, so the table is
that of the depth-first recursion's canonical tree, with the same number
of classifier calls.
A classifier may state a mirror symmetry (``mirror``): the twin of a box,
its mirror image, has the path whose quadrant digits are all XOR
``mirror`` and gets the same verdict. When the root box and the bisection
of its flipped sides are symmetric bit for bit (`_mirror`), the build
classifies the root and one half of the tree below it (`_kept`, to which
`_children` cuts the root's quadrants), one box of each pair of twins;
the calls count both, so they are the boxes of the tree. The half's
merges stay inside it, so one finishing step (`_table`) runs the
canonical pass over the half and reflects the finished rows once
(`_mirror_image`, a table's mirror image).
Refining a model to a higher depth keeps its Black and White rows and
starts the frontier at the children of its Undetermined leaves, which are
known to be undecided, so no decided box is ever retested; a table that
is its own mirror image refines its kept half alone.

Reading a model works on whole columns as well. The text form is parsed by
prefix sums over the code points of its node line, and one search, run in
key order, for the end of each Gray node's children. The Black regions are
the connected components of the table's Black edge pairs, found by cell
probes (`_black_edges`) and min-label hooking and pointer jumping
(`components`); the same probes, across opposite box edges, find the
pairs that touch through the seams of a periodic box. A labeling is one
more column of the table, a region id per row, with one area per region;
aspects and pairing carry rows too. Bounds are computed only for the rows
a reader asks for, and leaf paths only where they are returned as text
(`locate`, `RegionLabeling.leaf_to_region`).
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from .interval import Box2, DomainError

BLACK = "B"
WHITE = "W"
UNDETERMINED = "U"
GRAY = "G"

CODE_WHITE, CODE_UNDET, CODE_BLACK = -1, 0, 1  # a leaf's kind is its box's verdict sign
KIND_CODE = {WHITE: CODE_WHITE, UNDETERMINED: CODE_UNDET, BLACK: CODE_BLACK}
KIND_LETTER = {code: kind for kind, code in KIND_CODE.items()}
# indexed by kind code (-1 picks the last): its letter
_LETTERS = np.frombuffer(b"UBW", dtype=np.uint8)
# indexed by a code point below 128: its kind code, or 2 if not a leaf letter
_CODE_OF = np.full(128, 2, dtype=np.int8)
_CODE_OF[_LETTERS] = [CODE_UNDET, CODE_BLACK, CODE_WHITE]

# Deepest tree a model may have. The leaf table addresses cells of the
# 2^d x 2^d grid by Morton keys of 2d bits, which must fit int64.
MAX_DEPTH = 31

# A box classifier. One with a method ``batch(x, y, ix, iy)``, returning
# the verdicts of the boxes x[:, ix[k]] x y[:, iy[k]] of the axis tables x
# and y as one array, is called through it; any other callable is called
# once per box with a `Box2`. A build passes each table as one (2, n)
# float64 interval array, lower bounds in row 0 and upper bounds in row 1;
# the kernel also takes anything ``np.asarray`` turns into one, such as a
# pair (lo, hi). One with an int attribute ``mirror`` states that a box
# and its mirror image, the box whose quadrant digits are all XOR
# ``mirror``, get the same verdict (see `_mirror`); a build then
# classifies one box of each pair of twins (`_kept`).
Classifier = Callable[[Box2], int]


class ParseError(ValueError):
    """Malformed quadtree text; carries the offending position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


@dataclass
class TreeStats:
    calls: int = 0
    black: int = 0
    white: int = 0
    undetermined: int = 0
    gray: int = 0

    @property
    def nodes(self) -> int:
        return self.black + self.white + self.undetermined + self.gray


@dataclass(frozen=True, eq=False)
class LeafTable:
    """Linear quadtree: every leaf of a model, one row each, in preorder.

    Preorder is Morton (Z) order, so ``keys`` (the Morton keys of the
    leaves' low corners) increase strictly and ``find`` locates the leaf of
    any finest-grid cell with one binary search. Leaf ``i`` covers the
    ``s x s`` cells, ``s = 2^(depth - level[i])``, of the
    ``2^depth x 2^depth`` grid with the keys ``[keys[i], keys[i] + s^2)``;
    its low corner is the cell whose column and row are the even and the
    odd bits of ``keys[i]``. The table holds no float: bounds depend on
    the root box as well, and the model computes them from ``level`` and
    ``keys`` for the rows a reader asks for (`QuadtreeModel.bounds`).
    """

    depth: int  # maximal depth of the model
    level: np.ndarray  # int64, depth of each leaf
    keys: np.ndarray  # int64 Morton keys of the low corners
    kind: np.ndarray  # int8 verdict sign: -1 White, 0 Undetermined, +1 Black

    def __post_init__(self):
        for col in (self.level, self.keys, self.kind):
            col.flags.writeable = False  # the table is shared by every reader

    def paths(self, rows: np.ndarray) -> list[str]:
        """Quadrant digits '0'..'3' from the root of the leaves at ``rows``."""
        d = self.depth
        keys, level = self.keys[rows], self.level[rows]
        # one line of digits per leaf, NUL past the leaf's level; the NULs
        # are dropped and the lines split in one pass over the bytes
        chars = np.zeros((len(keys), d + 1), dtype=np.uint8)
        for k in range(d):
            digit = (keys >> 2 * (d - 1 - k)) & 3
            chars[:, k] = np.where(level > k, digit + ord("0"), 0)
        chars[:, d] = ord("\n")
        flat = chars.ravel()
        return flat[flat != 0].tobytes().decode("ascii").split("\n")[:-1]

    def find(self, cx: np.ndarray, cy: np.ndarray) -> np.ndarray:
        """Rows of the leaves containing the finest-grid cells (cx, cy)."""
        return np.searchsorted(self.keys, _morton(cx, cy), side="right") - 1


def _spread_bits(v: np.ndarray) -> np.ndarray:
    # bit k of v moves to bit 2k; v < 2^31, so the result fits int64
    v = v.astype(np.int64)
    v = (v | (v << 16)) & 0x0000FFFF0000FFFF
    v = (v | (v << 8)) & 0x00FF00FF00FF00FF
    v = (v | (v << 4)) & 0x0F0F0F0F0F0F0F0F
    v = (v | (v << 2)) & 0x3333333333333333
    return (v | (v << 1)) & 0x5555555555555555


def _compact_bits(v: np.ndarray) -> np.ndarray:
    # the inverse of _spread_bits: bit 2k of v moves to bit k
    v = v & 0x5555555555555555
    v = (v | (v >> 1)) & 0x3333333333333333
    v = (v | (v >> 2)) & 0x0F0F0F0F0F0F0F0F
    v = (v | (v >> 4)) & 0x00FF00FF00FF00FF
    v = (v | (v >> 8)) & 0x0000FFFF0000FFFF
    return (v | (v >> 16)) & 0x00000000FFFFFFFF


def _morton(cx: np.ndarray, cy: np.ndarray) -> np.ndarray:
    # quadrant digit = x bit + 2 * y bit, as in `_children`'s order
    return _spread_bits(cx) | (_spread_bits(cy) << 1)


@dataclass
class QuadtreeModel:
    """A root box, its leaf table and the classifier calls that built it
    (cumulative over refinements; 0 for a parsed or complementary tree)."""

    root_box: Box2
    table: LeafTable
    calls: int

    @property
    def stats(self) -> TreeStats:
        """The calls and the node counts, read off the table."""
        kind = self.table.kind
        white, undet, black = np.bincount(kind + 1, minlength=3).tolist()
        # every Gray node has four children, so a tree of n leaves has (n - 1) / 3
        return TreeStats(self.calls, black, white, undet, (len(kind) - 1) // 3)

    @property
    def max_depth(self) -> int:
        return self.table.depth

    @property
    def accuracy(self) -> float:
        return self.root_box.x.width / 2**self.max_depth

    def bounds(self, rows=slice(None)) -> tuple[np.ndarray, ...]:
        """Exact bounds (x_lo, x_hi, y_lo, y_hi) of the leaves at ``rows``
        (indices or a mask; every leaf by default), by `_bounds`."""
        t = self.table
        return _bounds(self.root_box, t.depth, t.level[rows], t.keys[rows])

    def area(self, rows=slice(None)) -> np.ndarray:
        """``Box2.area`` of the leaves at ``rows``, with the same float
        operations."""
        x_lo, x_hi, y_lo, y_hi = self.bounds(rows)
        return (x_hi - x_lo) * (y_hi - y_lo)

    def complement_model(self) -> "QuadtreeModel":
        """The complementary tree: the same leaves with Black and White swapped."""
        t = self.table
        return QuadtreeModel(self.root_box, replace(t, kind=-t.kind), 0)


# boxes per classifier batch: bounds the kernel's temporary arrays
CHUNK = 16384


def _verdicts(classify: Classifier, x, y, ix, iy) -> np.ndarray:
    """Verdict signs (int8) of the boxes ``x[:, ix[k]] x y[:, iy[k]]``,
    given by the axis tables x and y ((2, n) interval arrays) and the index
    arrays ix and iy, CHUNK boxes at a time through ``classify.batch``, each
    chunk with the table entries it uses; a plain function is called once
    per box."""
    x, y = np.asarray(x), np.asarray(y)
    batch = getattr(classify, "batch", None)
    if batch is None:
        bounds = (x[0][ix], x[1][ix], y[0][iy], y[1][iy])
        boxes = zip(*(b.tolist() for b in bounds))
        v = [classify(Box2.from_bounds(*b)) for b in boxes]
    else:
        v = []
        for i in range(0, len(ix), CHUNK):
            (xc, ixc), (yc, iyc) = _used(x, ix[i:i + CHUNK]), _used(y, iy[i:i + CHUNK])
            v.append(batch(xc, yc, ixc, iyc))
        v = np.concatenate(v or [np.zeros(0, dtype=np.int8)])
    return np.sign(v).astype(np.int8)


def _used(table, index: np.ndarray):
    """The entries of an axis table that ``index`` uses, in table order, and
    ``index`` into them: a presence mask and its prefix sum, no sort."""
    used = np.zeros(table.shape[-1], dtype=bool)
    used[index] = True
    if used.all():
        return table, index
    at = np.cumsum(used) - 1
    return table.compress(used, axis=-1), at[index]


def _midpoint(lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """The midpoints ``lo + (hi - lo) / 2`` that bisect every box."""
    return lo + (hi - lo) / 2


def _halved(edges: np.ndarray) -> np.ndarray:
    """The edge grid of the next level: ``edges`` with the `_midpoint` of
    every two neighbours put in between."""
    grid = np.empty(2 * len(edges) - 1)
    grid[::2] = edges
    grid[1::2] = _midpoint(edges[:-1], edges[1:])
    return grid


# A build classifies every box of levels 0..TOP in one batch. A batch has
# a fixed cost, 185 us in the joint space and 120 us in the workspace (a
# 1-row batch, m1, median), that of some 1 200-1 800 rows at 0.08-0.12 us
# a row (levels 8-10); levels 0..6 hold 5 461 boxes, or 2 731 with mirror
# pairs, and levels down to 7 would add 8 192 rows to save one batch.
TOP = 6


def _tables(box: Box2, d: int, level: int, keys: np.ndarray) -> tuple:
    """Axis tables (x, y, ix, iy) of the boxes at ``level`` with ``keys`` on
    the depth-``d`` grid: their bounds from one `_bounds` call, each column
    and each row once."""
    bounds = _bounds(box, d, np.full(len(keys), level), keys)
    out = []
    for cells, lo, hi in ((_compact_bits(keys), *bounds[:2]),
                          (_compact_bits(keys >> 1), *bounds[2:])):
        _, first, index = np.unique(cells, return_index=True, return_inverse=True)
        out.append((np.stack((lo[first], hi[first])), index))
    (x, ix), (y, iy) = out
    return x, y, ix, iy


def _quadrants(v: np.ndarray, step: np.ndarray) -> np.ndarray:
    """``v[i] + step[c]`` at row 4i + c."""
    return (v[:, None] + step).ravel()


# the x bit and the y bit of quadrants 0..3
_X_BIT, _Y_BIT = np.array([0, 1, 0, 1]), np.array([0, 0, 1, 1])


def _children(d: int, level: int, keys: np.ndarray, x, y, ix, iy, mirror: int) -> tuple:
    """The frontier of the quadrants of the boxes at ``level`` of a
    depth-``d`` grid, as keys and axis tables (x, y, ix, iy); the root's
    (``level`` 0) cut to the kept half of a build with ``mirror``
    (`_kept`). The quadrants are in the order x-lo/y-lo, x-hi/y-lo,
    x-lo/y-hi, x-hi/y-hi, the children of box i rows 4i..4i+3 (less those
    the cut drops). Each table keeps the entries that its index uses and
    halves each of them at its midpoint, so child c of box b takes entries
    2 ix[b] + (c & 1) and 2 iy[b] + (c >> 1)."""
    cells = 1 << 2 * (d - level - 1)  # finest-grid cells of one child
    keys = _quadrants(keys, np.arange(4) * cells)
    tables = []
    for table, index, bit in ((x, ix, _X_BIT), (y, iy, _Y_BIT)):
        table, index = _used(table, index)
        lo, hi = table
        mid = _midpoint(lo, hi)
        # entry j halves into entries 2j, [lo, mid], and 2j + 1, [mid, hi]
        halves = np.empty((2, len(mid), 2))
        halves[0, :, 0], halves[0, :, 1], halves[1, :, 0], halves[1, :, 1] = lo, mid, mid, hi
        tables.append((halves.reshape(2, -1), _quadrants(2 * index, bit)))
    (x, ix), (y, iy) = tables
    if level == 0:
        keep = _kept(d, keys, mirror)
        keys, ix, iy = keys[keep], ix[keep], iy[keep]
    return keys, x, y, ix, iy


def check_root_box(box: Box2) -> None:
    """ValueError unless every side of ``box`` has a positive finite width,
    so that it bisects into boxes of positive area."""
    for side in (box.x, box.y):
        if not 0 < side.width < math.inf:
            raise ValueError(
                f"root box side [{side.lo}, {side.hi}] must have a positive finite width"
            )


# the smallest nominal finest side at which `_mirror` takes pairs
_MIN_FINEST = 2 * sys.float_info.min


def _mirror(box: Box2, d: int, classify: Classifier) -> int:
    """The ``mirror`` of ``classify`` (0 if it has none) if the depth-``d``
    grid of ``box`` is its own mirror image bit for bit, else 0.

    The mirror flips x if its bit 0 is set and y if its bit 1 is. A flipped
    side must be symmetric about 0, and each of its halvings down to depth
    d exact: then the bounds of a box and of its twin are exact negations.
    In ``lo + (hi - lo) / 2``, ``hi - lo`` is exact (past the root a box's
    bounds are 0 and a positive float, or within a factor 2 of each other:
    Sterbenz), and so is its half while ``hi - lo`` is at least
    2 * sys.float_info.min; the rounding of the sum is symmetric. The guard
    asks for a nominal finest side ``width / 2^d`` of at least twice the
    smallest normal float, a margin for the drift of the computed edges.
    """
    mirror = getattr(classify, "mirror", 0)
    for bit, side in ((1, box.x), (2, box.y)):
        if mirror & bit and (side.lo != -side.hi or side.width < _MIN_FINEST * 2.0**d):
            return 0
    return mirror


def _twins(d: int, level, keys: np.ndarray, mirror: int) -> np.ndarray:
    """Keys of the twins of the boxes at ``level`` with ``keys`` on the
    depth-``d`` grid: every quadrant digit of their paths XOR ``mirror``."""
    path = mirror * ((np.left_shift(1, 2 * level) - 1) // 3)  # `level` digits
    return keys ^ (path << 2 * (d - level))


def _mirror_image(d: int, level, keys: np.ndarray, kind, mirror: int) -> tuple[np.ndarray, ...]:
    """The (level, keys, kind) columns of the mirror image of the leaf rows
    (level, keys, kind) of a depth-``d`` table: the twin of every row, in
    key order."""
    keys = _twins(d, level, keys, mirror)
    order = np.argsort(keys)
    return level[order], keys[order], kind[order]


def _kept(d: int, keys: np.ndarray, mirror: int) -> np.ndarray:
    """Which boxes with ``keys`` on the depth-``d`` grid a build with
    ``mirror`` classifies: below the root, those whose first quadrant digit
    q has q > q ^ ``mirror``, the larger key of each pair of twins; with
    ``mirror`` 0, every box."""
    q = keys >> 2 * (d - 1) & 3
    return q >= q ^ mirror


def _grow(
    depth: int, d_max: int, classify: Classifier, mirror: int, keys, x, y, ix, iy
) -> tuple[list, int]:
    """Classify a frontier of boxes at ``depth``, given by their sorted keys
    on the depth-``d_max`` grid and their axis tables, and grow the
    undecided ones level by level down to ``d_max``, each level the
    `_children` of the one above. Returns the leaf rows of the boxes
    classified, as columns (level, keys, kind), and the number of
    classifier calls, twins counted.

    With a nonzero ``mirror`` (from `_mirror`), every frontier below the
    root is the kept half (`_kept`, the cut of the root's `_children`): a
    box there stands for its twin too, and counts two calls.

    From the root (``depth`` 0) of a classifier with ``batch``, one batch
    classifies every box of levels 0..T = min(d_max, TOP), the frontiers of
    the root and its `_children` down to level T with their tables end to
    end. The rows of those levels are read off its verdicts in Morton
    order: below level 1 the children of box i of a level are boxes
    4i..4i+3 of the next, and a box is reached when its parent was reached
    and left undecided. The loop then starts at level T + 1, from the
    children of the open boxes of level T, so the rows and calls are those
    of a batch per level.
    """
    rows, calls = [], 0
    if depth == 0 and hasattr(classify, "batch"):
        t = min(d_max, TOP)
        fronts = [(keys, x, y, ix, iy)]
        for lev in range(t):
            fronts.append(_children(d_max, lev, *fronts[-1], mirror))
        cols = list(zip(*fronts))  # keys, x, y, ix, iy of each level
        for i in (3, 4):  # each index past the entries of the levels above
            past = np.cumsum([0] + [table.shape[1] for table in cols[i - 2][:-1]])
            cols[i] = [index + n for index, n in zip(cols[i], past)]
        keys, x, y, ix, iy = (np.concatenate(c, axis=-1) for c in cols)
        v = _verdicts(classify, x, y, ix, iy)
        sizes = [len(k) for k in cols[0]]
        starts = np.cumsum([0] + sizes).tolist()  # of each level
        leaf = v != 0
        if t == d_max:
            leaf[starts[t]:] = True
        reached = np.zeros(len(v), dtype=bool)
        reached[0] = True
        for a, b, c in zip(starts, starts[1:], starts[2:]):
            reached[b:c] = np.repeat(reached[a:b] & ~leaf[a:b], (c - b) // (b - a))
        calls = int(reached[0] + (2 if mirror else 1) * reached[1:].sum())
        done = reached & leaf
        rows.append((np.repeat(np.arange(t + 1), sizes)[done], keys[done], v[done]))
        if t == d_max:
            return rows, calls
        keys, x, y, ix, iy = fronts[t]
        open_ = (reached & ~leaf)[starts[t]:]
        keys, x, y, ix, iy = _children(d_max, t, keys[open_], x, y, ix[open_], iy[open_], mirror)
        depth = t + 1
    while len(keys):
        v = _verdicts(classify, x, y, ix, iy)
        calls += len(v) * (2 if mirror and depth else 1)
        leaf = v != 0 if depth < d_max else np.ones(len(v), dtype=bool)
        rows.append((np.full(int(leaf.sum()), depth), keys[leaf], v[leaf]))
        if depth == d_max:
            break
        open_ = ~leaf
        keys, x, y, ix, iy = _children(
            d_max, depth, keys[open_], x, y, ix[open_], iy[open_], mirror
        )
        depth += 1
    return rows, calls


def _canonical(d: int, rows: list) -> tuple[np.ndarray, ...]:
    """The (level, keys, kind) columns of leaf ``rows`` (per-level columns
    as from `_grow`, in any order): rows sorted by key, and every quadruple
    of Black or White siblings of one kind collapsed into their parent,
    deepest level first. The parent keeps child 0's key.

    One sort puts the rows in key order. The Black and White rows, the only
    ones that merge, are then listed level by level in that order (a stable
    sort of their levels), and each level tests only its own and the
    parents just merged from the level below: in key order, four of them
    are siblings when the first is a quadrant 0 and the fourth lies three
    of their sides past it.
    """
    level, keys, kind = (np.concatenate(c) for c in zip(*rows))
    # the keys are distinct; a stable sort merges the ascending runs in
    # which they come
    order = np.argsort(keys, kind="stable")
    level, keys, kind = level[order], keys[order], kind[order]
    bw = np.flatnonzero(kind != CODE_UNDET)
    bw = bw[np.argsort(level[bw].astype(np.int8), kind="stable")]
    ends = np.cumsum(np.bincount(level[bw], minlength=d + 1)).tolist()
    dead = np.zeros(len(keys), dtype=bool)
    up = bw[:0]  # parents merged at the level below, in key order
    for lev in range(d, 0, -1):
        p = bw[ends[lev - 1]:ends[lev]]
        if len(up):
            p = np.sort(np.concatenate((p, up)))
        k, kd = keys[p], kind[p]
        side = 1 << 2 * (d - lev)  # finest cells of one row
        same = (kd[3:] == kd[:-3]) & (kd[2:-1] == kd[:-3]) & (kd[1:-2] == kd[:-3])
        i = np.flatnonzero(same & (k[3:] - k[:-3] == 3 * side))
        i = i[(k[i] >> 2 * (d - lev)) & 3 == 0]
        up = p[i]
        level[up] = lev - 1
        for n in (1, 2, 3):
            dead[p[i + n]] = True
    alive = ~dead
    return level[alive], keys[alive], kind[alive]


def _table(d: int, rows: list, mirror: int) -> LeafTable:
    """The depth-``d`` leaf table of the leaf ``rows`` of a build: their
    `_canonical` rows, and with a nonzero ``mirror``, where ``rows`` are the
    root or the kept half (`_kept`), the half's mirror image added once.
    Four siblings below level 1 have one level-1 ancestor, so only the
    root's four quadrants straddle the halves: they collapse when the half
    is two level-1 leaves of one Black or White kind.
    """
    level, keys, kind = _canonical(d, rows)
    if mirror and len(keys) > 1:  # the rows of one half
        if len(keys) == 2 and kind[0] == kind[1] != CODE_UNDET:
            level, keys, kind = np.zeros(1, dtype=np.int64), np.zeros(1, dtype=np.int64), kind[:1]
        else:
            cols = zip(_mirror_image(d, level, keys, kind, mirror), (level, keys, kind))
            level, keys, kind = (np.concatenate(c) for c in cols)
            # two sorted runs: the twins' keys lie below the half's for a y
            # flip and interleave with them for an x flip alone
            order = np.argsort(keys, kind="stable")
            level, keys, kind = level[order], keys[order], kind[order]
    return LeafTable(d, level, keys, kind)


def build(box: Box2, d_max: int, classify: Classifier) -> QuadtreeModel:
    """Build a quadtree model of the region accepted by ``classify``.
    ValueError unless 1 <= d_max <= MAX_DEPTH and the box passes
    `check_root_box`.

    With mirror pairs `_grow` classifies the kept half (`_kept`) and
    `_table` adds the other.
    """
    if not 1 <= d_max <= MAX_DEPTH:
        raise ValueError(f"d_max must be in [1, {MAX_DEPTH}]")
    check_root_box(box)
    root = np.zeros(1, dtype=np.int64)
    frontier = root, *_tables(box, d_max, 0, root)
    mirror = _mirror(box, d_max, classify)
    rows, calls = _grow(0, d_max, classify, mirror, *frontier)
    return QuadtreeModel(box, _table(d_max, rows, mirror), calls)


def refine(m: QuadtreeModel, d_max: int, classify: Classifier) -> QuadtreeModel:
    """Deepen a model, re-expanding only its Undetermined leaves.

    The frontier starts at the children of the Undetermined leaves, which
    are known to be undecided, so no box is tested twice. For a
    deterministic classifier the result equals a fresh build at the new
    depth, at a fraction of the classifier calls.

    A table that is its own mirror image refines its kept half (`_kept`),
    as a build does; any other grows whole, without pairs.
    """
    if d_max <= m.max_depth:
        raise ValueError("refinement depth must exceed the model's depth")
    if d_max > MAX_DEPTH:
        raise ValueError(f"d_max must be <= {MAX_DEPTH}")
    t = m.table
    d = m.max_depth
    mirror = _mirror(m.root_box, d_max, classify)
    cols = t.level, t.keys, t.kind
    if mirror and not all(map(np.array_equal, _mirror_image(d, *cols, mirror), cols)):
        mirror = 0  # its halves differ
    half = _kept(d, t.keys, mirror) | (t.level == 0)
    u = half & (t.kind == CODE_UNDET)
    old = half & ~u
    keys = t.keys << 2 * (d_max - d)  # the same cells on the finer grid
    frontier = _children(d_max, d, keys[u], *_tables(m.root_box, d, d, t.keys[u]), mirror)
    rows, calls = _grow(d + 1, d_max, classify, mirror, *frontier)
    table = _table(d_max, [(t.level[old], keys[old], t.kind[old])] + rows, mirror)
    return QuadtreeModel(m.root_box, table, m.calls + calls)


def mismatched_leaves(m: QuadtreeModel, classify: Classifier) -> int:
    """Leaves of ``m`` that are not leaves of the tree ``classify`` builds:
    the rows of ``m.table`` with no row of the same level, key and kind in
    the table of `build` over ``m.root_box`` to ``m.max_depth``. It is 0
    only for that tree, the one whose `refine` equals a fresh build at the
    new depth. The cost is one build at the model's depth.
    """
    t = m.table
    fresh = build(m.root_box, m.max_depth, classify).table
    j = np.minimum(np.searchsorted(fresh.keys, t.keys), len(fresh.keys) - 1)
    same = (fresh.keys[j] == t.keys) & (fresh.level[j] == t.level) & (fresh.kind[j] == t.kind)
    return int((~same).sum())


# --------------------------------------------------------------------------
# Leaf inspection
# --------------------------------------------------------------------------


def _locate_row(m: QuadtreeModel, qx: float, qy: float) -> int:
    """Row of the leaf containing the point; edge ties go to the lower leaf."""
    b = m.root_box
    if not b.contains(qx, qy):
        raise DomainError(f"point ({qx}, {qy}) outside the root box")
    x0, x1, y0, y1 = b.x.lo, b.x.hi, b.y.lo, b.y.hi
    key = 0
    # the finest cell containing the point, by the midpoints of `_bounds`
    for _ in range(m.max_depth):
        xm = x0 + (x1 - x0) / 2
        ym = y0 + (y1 - y0) / 2
        q = 0
        if qx > xm:
            x0, q = xm, 1
        else:
            x1 = xm
        if qy > ym:
            y0, q = ym, q + 2
        else:
            y1 = ym
        key = key << 2 | q
    return int(m.table.keys.searchsorted(key, side="right")) - 1


def locate(m: QuadtreeModel, qx: float, qy: float) -> tuple[str, str]:
    """Leaf (kind, path) containing the point; edge ties go to the lower leaf."""
    t = m.table
    row = _locate_row(m, qx, qy)
    # the leaf's path is the first `level` digits of its key
    key, d = int(t.keys[row]), m.max_depth
    digits = range(d - 1, d - 1 - int(t.level[row]), -1)
    return KIND_LETTER[int(t.kind[row])], "".join(["0123"[key >> 2 * k & 3] for k in digits])


# --------------------------------------------------------------------------
# Serialization (compact text format)
# --------------------------------------------------------------------------


def serialize(m: QuadtreeModel) -> str:
    """Text form: header line, then the preorder node string.

    ``QT1 <d_max> <x_lo> <x_hi> <y_lo> <y_hi>`` with shortest round-trip
    decimals; node alphabet G/B/W/U, a G followed by its four children in
    quadrant order; U only at maximal depth.
    """
    t = m.table
    # A leaf is the first leaf of one Gray node per trailing zero quadrant
    # digit of its path, and follows their G's. The lowest set bit 2^j of
    # the path number (j = 2 * digits + 0 or 1) is exact in float64.
    p = t.keys >> 2 * (m.max_depth - t.level)
    grays = np.where(p == 0, t.level, (np.frexp(p & -p)[1] - 1) // 2)
    ends = np.cumsum(grays + 1)  # one past each leaf's letter
    body = np.full(ends[-1], ord(GRAY), dtype=np.uint8)
    body[ends - 1] = _LETTERS[t.kind]
    b = m.root_box
    header = f"QT1 {m.max_depth} {b.x.lo!r} {b.x.hi!r} {b.y.lo!r} {b.y.hi!r}"
    return header + "\n" + body.tobytes().decode("ascii") + "\n"


def deserialize(text: str) -> QuadtreeModel:
    lines = text.split("\n")
    if len(lines) < 2:
        raise ParseError("expected a header line and a node line", 0)
    fields = lines[0].split(" ")
    if len(fields) != 6 or fields[0] != "QT1":
        raise ParseError("bad header, expected 'QT1 d xlo xhi ylo yhi'", 0)
    try:
        d_max = int(fields[1])
        bounds = [float(f) for f in fields[2:]]
    except ValueError as exc:
        raise ParseError(f"bad header number: {exc}", 0) from None
    if not 1 <= d_max <= MAX_DEPTH:
        raise ParseError(f"d_max must be in [1, {MAX_DEPTH}]", 4)
    bounds_pos = len(fields[0]) + len(fields[1]) + 2
    try:
        box = Box2.from_bounds(*bounds)
        check_root_box(box)
    except ValueError as exc:
        raise ParseError(str(exc), bounds_pos) from None

    body = lines[1]
    offset = len(lines[0]) + 1
    end = offset + len(body) + 1
    if end < len(text):
        raise ParseError("trailing text after the node line", end)

    return QuadtreeModel(box, LeafTable(d_max, *_parse_body(body, d_max, offset)), 0)


def _parse_body(body: str, d: int, offset: int) -> tuple[np.ndarray, ...]:
    """Level, key and kind code of each leaf of a depth-``d`` preorder node
    string, in array passes over its code points. A ParseError names the
    first failing character, counted from ``offset``.

    Before each node there are S open child slots: S starts at 1, a G fills
    one and opens four (+3), a leaf fills one (-1), and the string is done
    when S reaches 0. The children of a G at q are the nodes up to the
    first r > q with S_r = S_q - 1; a node's level counts the G's whose
    children it is among.
    """
    c = np.frombuffer(body.encode("utf-32-le", "surrogatepass"), dtype=np.uint32)
    n = len(c)
    gray = c == ord(GRAY)
    code = _CODE_OF[np.minimum(c, 127)]
    slots = 1 + np.concatenate(([0], np.cumsum(np.where(gray, 3, -1))))
    # one sort of the (S, position) pairs finds where each G's children end;
    # a pair is one int64, S * (n + 1) + position, with S <= 3n + 1. The
    # searches run in key order, each starting where the last one ended.
    q = np.flatnonzero(gray)
    stride = n + 1
    found = np.sort(slots * stride + np.arange(stride))
    want = (slots[q] - 1) * stride
    key = want + q + 1
    order = np.argsort(key)
    i = np.empty_like(order)
    i[order] = np.searchsorted(found, key[order])
    ends = found[np.minimum(i, n)] - want
    ends[(i > n) | (ends > n)] = n + 1  # never closed: the string ends early
    marks = np.bincount(q + 1, minlength=n + 2) - np.bincount(ends, minlength=n + 2)
    level = np.cumsum(marks[:n])

    bad = (slots[:n] <= 0) | (gray & (level >= d)) | (~gray & (code > 1))
    bad |= (code == CODE_UNDET) & (level != d)
    if bad.any():
        p = int(bad.argmax())
        # the checks of one character, in the order of the format's rules
        if slots[p] <= 0:
            message = "trailing characters after node string"
        elif gray[p]:
            message = "'G' below maximal depth"
        elif code[p] > 1:
            message = f"unexpected character {chr(c[p])!r}"
        else:
            message = f"'U' only legal at depth {d}, found at depth {int(level[p])}"
        raise ParseError(message, offset + p)
    if slots[n]:
        raise ParseError("unexpected end of node string", offset + n)
    leaf = ~gray
    level = level[leaf]
    cells = np.left_shift(1, 2 * (d - level))  # finest cells of each leaf
    keys = np.cumsum(cells) - cells
    return level, keys, code[leaf]


def _bounds(box: Box2, d: int, level: np.ndarray, keys: np.ndarray) -> tuple[np.ndarray, ...]:
    """Exact bounds of the boxes at ``level`` with ``keys`` on the
    depth-``d`` grid (a tree's leaves, or a build's frontier as boxes at
    maximal depth): the midpoints ``lo + (hi - lo) / 2`` that bisect
    ``box``, taken down each box's path. Any subset of a tree's leaves
    gets the bounds it has in the whole table.

    The x bounds depend only on the x bits of the path. Bisecting every
    column down to level L gives the edge grid E of that level, E[j] the low
    edge of column j and E[2^L] the box's high edge: the two halves of
    [E[j], E[j + 1]] share its midpoint, so the grid of one level is that of
    the level above with the midpoints put in between. A leaf of side s
    whose first finest column is c, at level L or above, spans
    [E[c >> (d - L)], E[(c + s) >> (d - L)]]: past the leaf's level the path
    of c takes only 0 bits, which keep the low bound, and the paths of
    c + s - 1 and c + s part at the leaf's high bound, then keep it with
    only 1 bits and only 0 bits. A deeper leaf continues the bisection from
    its level-L column alone. For n boxes, L = min(d, floor(log2(n))) caps
    the grid at n + 1 floats, so no array is longer than n + 1; the same
    holds for y.
    """
    cap = min(d, len(keys).bit_length() - 1)  # L
    shift = d - cap
    deep = np.flatnonzero(level > cap)
    lev = level[deep]
    s = np.left_shift(1, d - level)  # side in finest-grid cells
    out = []
    for col, side in ((_compact_bits(keys), box.x), (_compact_bits(keys >> 1), box.y)):
        edges = np.array([side.lo, side.hi])
        for _ in range(cap):
            edges = _halved(edges)
        lo, hi = edges[col >> shift], edges[(col + s) >> shift]
        c = col[deep]
        a, b = edges[c >> shift], edges[(c >> shift) + 1]
        for k in range(cap, int(level.max(initial=cap))):  # none for no boxes
            mid = _midpoint(a, b)
            below = lev > k
            up = (c >> (d - 1 - k)) & 1 == 1
            a = np.where(up, mid, a)  # past its level a column's bits are 0
            b = np.where(below & ~up, mid, b)
        lo[deep], hi[deep] = a, b
        out += [lo, hi]
    return tuple(out)


# --------------------------------------------------------------------------
# Region labeling and Black-space queries
# --------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class RegionLabeling:
    """The Black regions of a model as a column of its leaf table: the
    region id of each row's Black leaf (-1 for any other leaf), and the
    area of each region, in id order."""

    table: LeafTable
    region: np.ndarray  # int64, one entry per table row
    area: tuple[float, ...]

    @property
    def region_count(self) -> int:
        return len(self.area)

    @property
    def leaf_to_region(self) -> dict[str, int]:
        """Black leaf path -> region id, in preorder, formatted on demand."""
        black = np.flatnonzero(self.region >= 0)
        return dict(zip(self.table.paths(black), self.region[black].tolist()))


def label_regions(m: QuadtreeModel) -> RegionLabeling:
    """Connected components of the Black space under edge (4-)adjacency.

    Adjacency is read off the leaf table. Each Black leaf looks up the
    cells just past its high x and high y edges (at its low corner) and
    just before its low edges; a hit that is Black and at least as large
    shares that whole edge. Together the two directions find every shared
    edge of positive length, each once. Region ids are assigned in order of
    each region's smallest preorder leaf, so labeling is deterministic. A
    region's area is the sum of its leaves' areas in preorder.
    """
    t = m.table
    black = np.flatnonzero(t.kind == CODE_BLACK)
    # components over positions in `black`, which keep the preorder; the
    # rank of a component's smallest position is its region id
    label = components(len(black), *_black_edges(t, black))
    roots, ids = np.unique(label, return_inverse=True)
    region = np.full(len(t.kind), -1, dtype=np.int64)
    region[black] = ids
    # each region's leaf areas in preorder, summed left to right
    ends = np.cumsum(np.bincount(ids, minlength=len(roots))).tolist()
    areas = m.area(black)[np.argsort(ids, kind="stable")].tolist()
    area = tuple(sum(areas[a:b]) for a, b in zip([0] + ends, ends))
    return RegionLabeling(t, region, area)


def components(n: int, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The smallest node of each node's connected component, for the graph
    on nodes 0..n-1 with the edges (a[k], b[k]).

    Min-label hooking with pointer jumping: each round hooks the root of
    every tree that has an edge into another tree onto the smallest such
    root below it, then points every node at its root. Pointers only go
    down, so no cycle forms, and within two rounds every tree with an
    outside edge merges, so there are O(log n) rounds.
    """
    label = np.arange(n)
    while True:
        la, lb = label[a], label[b]
        cross = la != lb
        if not cross.any():
            return label
        la, lb = la[cross], lb[cross]
        np.minimum.at(label, np.maximum(la, lb), np.minimum(la, lb))
        while True:
            up = label[label]
            if np.array_equal(up, label):
                break
            label = up


def _black_edges(
    t: LeafTable, black: np.ndarray, seams: bool = False
) -> tuple[np.ndarray, np.ndarray]:
    """Pairs of positions in ``black`` (every Black row, sorted) whose leaves
    share an edge of positive length, each pair once.

    Each leaf probes the cells just past its four edges. Without ``seams``
    only the probes inside the grid are taken. With ``seams`` only the
    others are, with the cells taken mod 2^depth: the pairs that share an
    edge through opposite box edges, when the box is a torus (a leaf that
    spans the box pairs with itself).
    """
    n = 1 << t.depth
    is_black = t.kind == CODE_BLACK
    rank = np.cumsum(is_black) - 1  # position in `black` of each Black row
    keys, lev = t.keys[black], t.level[black]
    x, y = _compact_bits(keys), _compact_bits(keys >> 1)  # low-corner cells
    s = np.left_shift(1, t.depth - lev)  # side in finest-grid cells
    own, other = [], []
    # an equal-sized pair is found from its low leaf's high-edge probe, so
    # the low-edge probes keep strictly larger neighbors only
    for cx, cy, past, larger in (
        (x + s, y, x + s == n, np.less_equal),
        (x, y + s, y + s == n, np.less_equal),
        (x - 1, y, x == 0, np.less),
        (x, y - 1, y == 0, np.less),
    ):
        pos = np.flatnonzero(past == seams)
        hit = t.find(cx[pos] & (n - 1), cy[pos] & (n - 1))
        keep = is_black[hit] & larger(t.level[hit], lev[pos])
        own.append(pos[keep])
        other.append(rank[hit[keep]])
    return np.concatenate(own), np.concatenate(other)


def black_area(m: QuadtreeModel) -> float:
    return sum(m.area(m.table.kind == CODE_BLACK).tolist())


def sample_black_points(
    m: QuadtreeModel, n: int, rng: np.random.Generator
) -> np.ndarray:
    """n points uniform over the Black leaves (empty array if there are none)."""
    black = m.table.kind == CODE_BLACK
    if not black.any():
        return np.empty((0, 2))
    x_lo, x_hi, y_lo, y_hi = m.bounds(black)
    width = x_hi - x_lo
    height = y_hi - y_lo
    areas = width * height
    picks = rng.choice(len(areas), size=n, p=areas / areas.sum())
    u = rng.random((n, 2))
    out = np.empty((n, 2))
    out[:, 0] = x_lo[picks] + u[:, 0] * width[picks]
    out[:, 1] = y_lo[picks] + u[:, 1] * height[picks]
    return out


def shared_black_cells(a: QuadtreeModel, b: QuadtreeModel) -> int:
    """Finest-grid cells that are Black in both models (same box and depth)."""
    if a.max_depth != b.max_depth:
        raise ValueError("models of different depth do not share a grid")
    if a.root_box != b.root_box:
        raise ValueError("models of different root boxes do not share a grid")
    a_lo, a_hi = _black_keys(a.table)
    b_lo, b_hi = _black_keys(b.table)
    if not len(a_lo) or not len(b_lo):
        return 0
    before = np.concatenate(([0], np.cumsum(b_hi - b_lo)))

    def b_cells_below(key: np.ndarray) -> np.ndarray:
        # b's Black ranges are sorted and disjoint: all those starting below
        # `key`, less the part of the last one that reaches past it
        j = np.searchsorted(b_lo, key)
        past = np.where(j > 0, np.maximum(b_hi[j - 1] - key, 0), 0)
        return before[j] - past

    return int((b_cells_below(a_hi) - b_cells_below(a_lo)).sum())


def _black_keys(t: LeafTable) -> tuple[np.ndarray, np.ndarray]:
    """The key range [lo, hi) of the finest cells of each Black leaf."""
    black = t.kind == CODE_BLACK
    lo = t.keys[black]
    return lo, lo + np.left_shift(1, 2 * (t.depth - t.level[black]))
