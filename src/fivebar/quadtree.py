"""Quadtree region model built by a box classifier.

A classifier maps a box to +1 (every point valid), -1 (no point valid) or
0 (undecided). The builder subdivides undecided boxes up to a maximal
depth; leaves are Black (valid), White (invalid) or Undetermined (still
undecided at maximal depth). The complementary tree (Black/White swapped)
records the certified-invalid space.

A model is its leaf table, a linear quadtree (Gargantini, CACM 25(12),
1982): one row per leaf, in preorder, with the leaf's depth, the Morton
key of its low corner, its kind and its exact bounds. There is no object
tree; building, refining, the text format, location, labeling, seams,
rendering, sampling, areas and pairing all produce or read table rows.

The build is level-synchronous. The frontier of boxes to test at one
depth is four float64 arrays and their keys; it is classified CHUNK boxes
at a time through the classifier's ``batch`` method (a plain function is
called once per box). Decided boxes, and the undecided ones at maximal
depth, become leaf rows; the other undecided boxes split into the next
frontier. One canonical pass then sorts the rows by key and, deepest
level first, collapses every four Black or White siblings of one kind into
their parent, so the table is that of the depth-first recursion's
canonical tree, with the same number of classifier calls. Refining a
model to a higher depth keeps its Black and White rows and starts the
frontier at the children of its Undetermined leaves, which are known to
be undecided, so no decided box is ever retested.

Reading a model works on whole columns as well. The text form is parsed by
prefix sums over the code points of its node line, and the Black regions
are the connected components of the table's Black edge pairs, found by
min-label hooking and pointer jumping (`components`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cached_property
from typing import Callable

import numpy as np

from .interval import Box2, DomainError

BLACK = "B"
WHITE = "W"
UNDETERMINED = "U"
GRAY = "G"

KIND_CODE = {WHITE: 0, BLACK: 1, UNDETERMINED: 2}
KIND_LETTER = {code: kind for kind, code in KIND_CODE.items()}
CODE_WHITE, CODE_BLACK, CODE_UNDET = 0, 1, 2
# indexed by kind code: its letter, and its kind in the complementary tree
_LETTERS = np.frombuffer(b"WBU", dtype=np.uint8)
_SWAPPED = np.array([CODE_BLACK, CODE_WHITE, CODE_UNDET], dtype=np.int8)
# indexed by a code point below 128: its kind code, or -1 if not a leaf letter
_CODE_OF = np.full(128, -1, dtype=np.int8)
_CODE_OF[_LETTERS] = np.arange(3)
# indexed by verdict + 1
_VERDICT_CODE = np.array([CODE_WHITE, CODE_UNDET, CODE_BLACK], dtype=np.int8)

# Deepest tree a model may have. The leaf table addresses cells of the
# 2^d x 2^d grid by Morton keys of 2d bits, which must fit int64.
MAX_DEPTH = 31

# A box classifier. One with a method ``batch(x_lo, x_hi, y_lo, y_hi)``,
# returning the verdicts of many boxes as one array, is called through it.
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
    any finest-grid cell with one binary search. Leaf ``i`` covers cells
    ``[ix[i], ix[i] + s) x [iy[i], iy[i] + s)``, ``s = 2^(depth - level[i])``,
    of the ``2^depth x 2^depth`` grid, that is the keys
    ``[keys[i], keys[i] + s^2)``; its bounds are the exact floats of
    ``Box2.subdivide``. The cells and paths are derived from the keys when
    first read.
    """

    depth: int  # maximal depth of the model
    level: np.ndarray  # int64, depth of each leaf
    keys: np.ndarray  # int64 Morton keys of the low corners
    kind: np.ndarray  # int8, KIND_CODE values
    x_lo: np.ndarray
    x_hi: np.ndarray
    y_lo: np.ndarray
    y_hi: np.ndarray

    def __post_init__(self):
        for col in (self.level, self.keys, self.kind, self.x_lo, self.x_hi,
                    self.y_lo, self.y_hi):
            col.flags.writeable = False  # the table is shared by every reader

    @cached_property
    def ix(self) -> np.ndarray:
        """int64, first finest-grid column (from x_lo)."""
        return _compact_bits(self.keys)

    @cached_property
    def iy(self) -> np.ndarray:
        """int64, first finest-grid row (from y_lo)."""
        return _compact_bits(self.keys >> 1)

    @cached_property
    def paths(self) -> list[str]:
        """Quadrant digits '0'..'3' of each leaf from the root."""
        d = self.depth
        # one byte per digit, NUL past the leaf's level: a fixed-width bytes
        # field drops its trailing NULs
        chars = np.zeros((len(self.keys), d), dtype=np.uint8)
        for k in range(d):
            digit = (self.keys >> 2 * (d - 1 - k)) & 3
            chars[:, k] = np.where(self.level > k, digit + ord("0"), 0)
        return chars.view(f"S{d}").ravel().astype(str).tolist()

    @property
    def area(self) -> np.ndarray:
        """``Box2.area`` of each leaf, with the same float operations."""
        return (self.x_hi - self.x_lo) * (self.y_hi - self.y_lo)

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
    # quadrant digit = x bit + 2 * y bit, as in Box2.subdivide's order
    return _spread_bits(cx) | (_spread_bits(cy) << 1)


@dataclass
class QuadtreeModel:
    root_box: Box2
    table: LeafTable
    stats: TreeStats

    @property
    def max_depth(self) -> int:
        return self.table.depth

    @property
    def accuracy(self) -> float:
        return self.root_box.x.width / 2**self.max_depth

    def complement_model(self) -> "QuadtreeModel":
        """The complementary tree: the same leaves with Black and White swapped."""
        t = self.table
        return _model(self.root_box, replace(t, kind=_SWAPPED[t.kind]), 0)


def _model(box: Box2, table: LeafTable, calls: int) -> QuadtreeModel:
    kinds = np.bincount(table.kind, minlength=3).tolist()
    # every Gray node has four children, so a tree of n leaves has (n - 1) / 3
    gray = (len(table.kind) - 1) // 3
    stats = TreeStats(
        calls, kinds[CODE_BLACK], kinds[CODE_WHITE], kinds[CODE_UNDET], gray
    )
    return QuadtreeModel(box, table, stats)


# boxes per classifier batch: bounds the kernel's temporary arrays
CHUNK = 4096


def _verdicts(classify: Classifier, x_lo, x_hi, y_lo, y_hi) -> np.ndarray:
    """Verdicts of the boxes [x_lo, x_hi] x [y_lo, y_hi], CHUNK at a time
    through ``classify.batch``; a plain function is called once per box."""
    batch = getattr(classify, "batch", None)
    if batch is None:
        boxes = zip(x_lo.tolist(), x_hi.tolist(), y_lo.tolist(), y_hi.tolist())
        return np.array([classify(Box2.from_bounds(*b)) for b in boxes], dtype=np.int64)
    return np.concatenate([
        batch(x_lo[i:i + CHUNK], x_hi[i:i + CHUNK], y_lo[i:i + CHUNK], y_hi[i:i + CHUNK])
        for i in range(0, len(x_lo), CHUNK)
    ] or [np.zeros(0, dtype=np.int8)])


def _split(d: int, level: int, keys, x_lo, x_hi, y_lo, y_hi) -> tuple[np.ndarray, ...]:
    """The keys and bounds of the quadrants of each box at ``level`` of a
    depth-``d`` grid, in `Box2.subdivide` order and with its shared
    midpoints; the children of box i are rows 4i..4i+3."""
    cells = 1 << 2 * (d - level - 1)  # finest-grid cells of one child
    xm = x_lo + (x_hi - x_lo) / 2
    ym = y_lo + (y_hi - y_lo) / 2
    return ((keys[:, None] + np.arange(4) * cells).ravel(),) + tuple(
        np.stack(cols, axis=1).ravel()
        for cols in (
            (x_lo, xm, x_lo, xm), (xm, x_hi, xm, x_hi),
            (y_lo, y_lo, ym, ym), (ym, ym, y_hi, y_hi),
        )
    )


def _grow(depth: int, d_max: int, classify: Classifier, keys, *bounds) -> tuple[list, int]:
    """Classify a frontier of boxes at ``depth`` and grow the undecided ones
    level by level down to ``d_max``. Returns the leaf rows of each level,
    as columns (level, keys, kind, x_lo, x_hi, y_lo, y_hi), and the number
    of classifier calls."""
    rows, calls = [], 0
    while len(keys):
        v = _verdicts(classify, *bounds)
        calls += len(v)
        leaf = v != 0 if depth < d_max else np.ones(len(v), dtype=bool)
        rows.append((
            np.full(np.count_nonzero(leaf), depth), keys[leaf],
            _VERDICT_CODE[np.sign(v[leaf]) + 1], *(b[leaf] for b in bounds),
        ))
        if depth == d_max:
            break
        open_ = ~leaf
        keys, *bounds = _split(d_max, depth, keys[open_], *(b[open_] for b in bounds))
        depth += 1
    return rows, calls


def _canonical(d: int, rows: list, top: int = 0) -> LeafTable:
    """The table of leaf ``rows`` (per-level columns as from `_grow`): rows
    sorted by key, and every quadruple of Black or White siblings of one
    kind collapsed into their parent, deepest level first, down to parents
    at level ``top``. The parent takes child 0's low and child 3's high
    bounds."""
    cols = [np.concatenate(c) for c in zip(*rows)]
    order = np.argsort(cols[1])  # the keys are distinct
    level, keys, kind, x_lo, x_hi, y_lo, y_hi = (c[order] for c in cols)
    alive = np.arange(len(keys))  # sorted rows not yet collapsed into a parent
    for lev in range(d, top, -1):
        lv, kd = level[alive], kind[alive]
        # quadrant-0 rows of this level with three more rows after them
        p = np.flatnonzero(lv[:-3] == lev)
        p = p[(keys[alive[p]] >> 2 * (d - lev)) & 3 == 0]
        same = kd[p] != CODE_UNDET
        for k in (1, 2, 3):
            same &= (lv[p + k] == lev) & (kd[p + k] == kd[p])
        p = p[same]
        if not len(p):
            continue
        first, last = alive[p], alive[p + 3]
        level[first] = lev - 1
        x_hi[first] = x_hi[last]
        y_hi[first] = y_hi[last]
        keep = np.ones(len(alive), dtype=bool)
        for k in (1, 2, 3):
            keep[p + k] = False
        alive = alive[keep]
    return LeafTable(d, *(c[alive] for c in (level, keys, kind, x_lo, x_hi, y_lo, y_hi)))


def build(box: Box2, d_max: int, classify: Classifier) -> QuadtreeModel:
    """Build a quadtree model of the region accepted by ``classify``."""
    if not 1 <= d_max <= MAX_DEPTH:
        raise ValueError(f"d_max must be in [1, {MAX_DEPTH}]")
    bounds = (box.x.lo, box.x.hi, box.y.lo, box.y.hi)
    rows, calls = _grow(
        0, d_max, classify, np.zeros(1, dtype=np.int64), *(np.array([v]) for v in bounds)
    )
    return _model(box, _canonical(d_max, rows), calls)


def refine(m: QuadtreeModel, d_max: int, classify: Classifier) -> QuadtreeModel:
    """Deepen a model, re-expanding only its Undetermined leaves.

    The frontier starts at the children of the Undetermined leaves, which
    are known to be undecided, so no box is tested twice. For a
    deterministic classifier the result equals a fresh build at the new
    depth, at a fraction of the classifier calls.
    """
    if d_max <= m.max_depth:
        raise ValueError("refinement depth must exceed the model's depth")
    if d_max > MAX_DEPTH:
        raise ValueError(f"d_max must be <= {MAX_DEPTH}")
    t = m.table
    d = m.max_depth
    keys = t.keys << 2 * (d_max - d)  # the same cells on the finer grid
    u = t.kind == CODE_UNDET
    children = _split(d_max, d, keys[u], t.x_lo[u], t.x_hi[u], t.y_lo[u], t.y_hi[u])
    rows, calls = _grow(d + 1, d_max, classify, *children)
    kept = tuple(c[~u] for c in (t.level, keys, t.kind, t.x_lo, t.x_hi, t.y_lo, t.y_hi))
    return _model(m.root_box, _canonical(d_max, [kept] + rows), m.stats.calls + calls)


def mismatched_leaves(m: QuadtreeModel, classify: Classifier) -> int:
    """Leaves of ``m`` that ``classify`` would not grow again.

    Every leaf is classified in one batch: a Black leaf must get +1, a
    White one -1 and an Undetermined one 0. A Black or White leaf above
    maximal depth may also be the merge of four equal children of a box
    the classifier leaves undecided; such a leaf is grown again to the
    model's depth and must come back as one row of its kind at its level.
    """
    t = m.table
    d = m.max_depth
    v = _verdicts(classify, t.x_lo, t.x_hi, t.y_lo, t.y_hi)
    want = np.select([t.kind == CODE_BLACK, t.kind == CODE_WHITE], [1, -1], 0)
    bad = np.sign(v) != want
    merged = bad & (v == 0) & (t.kind != CODE_UNDET) & (t.level < d)
    for level in np.unique(t.level[merged]).tolist():
        rows = np.flatnonzero(merged & (t.level == level))
        children = _split(
            d, level, t.keys[rows], t.x_lo[rows], t.x_hi[rows], t.y_lo[rows], t.y_hi[rows]
        )
        grown, _ = _grow(level + 1, d, classify, *children)
        g = _canonical(d, grown, top=level)
        # each box's rows start at its own key
        first = np.searchsorted(g.keys, t.keys[rows])
        bad[rows] = (g.level[first] != level) | (g.kind[first] != t.kind[rows])
    return int(bad.sum())


# --------------------------------------------------------------------------
# Leaf inspection
# --------------------------------------------------------------------------


def locate(m: QuadtreeModel, qx: float, qy: float) -> tuple[str, str]:
    """Leaf (kind, path) containing the point; edge ties go to the lower leaf."""
    b = m.root_box
    if not b.contains(qx, qy):
        raise DomainError(f"point ({qx}, {qy}) outside the root box")
    x0, x1, y0, y1 = b.x.lo, b.x.hi, b.y.lo, b.y.hi
    key = 0
    # the finest cell containing the point, by the midpoints of Box2.subdivide
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
    t = m.table
    row = int(t.keys.searchsorted(key, side="right")) - 1
    return KIND_LETTER[int(t.kind[row])], t.paths[row]


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
    except ValueError as exc:
        raise ParseError(str(exc), bounds_pos) from None
    for side in (box.x, box.y):
        if not 0 < side.width < math.inf:
            raise ParseError(
                f"root box side [{side.lo}, {side.hi}] must have a positive finite width",
                bounds_pos,
            )

    body = lines[1]
    offset = len(lines[0]) + 1
    end = offset + len(body) + 1
    if end < len(text):
        raise ParseError("trailing text after the node line", end)

    level, keys, kind = _parse_body(body, d_max, offset)
    table = LeafTable(d_max, level, keys, kind, *_bounds(box, d_max, level, keys))
    return _model(box, table, 0)


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
    # a pair is one int64, S * (n + 1) + position, with S <= 3n + 1
    q = np.flatnonzero(gray)
    stride = n + 1
    found = np.sort(slots * stride + np.arange(stride))
    want = (slots[q] - 1) * stride
    i = np.searchsorted(found, want + q + 1)
    ends = found[np.minimum(i, n)] - want
    ends[(i > n) | (ends > n)] = n + 1  # never closed: the string ends early
    marks = np.bincount(q + 1, minlength=n + 2) - np.bincount(ends, minlength=n + 2)
    level = np.cumsum(marks[:n])

    bad = (slots[:n] <= 0) | (gray & (level >= d)) | (~gray & (code < 0))
    bad |= (code == CODE_UNDET) & (level != d)
    if bad.any():
        p = int(bad.argmax())
        # the checks of one character, in the order of the format's rules
        if slots[p] <= 0:
            message = "trailing characters after node string"
        elif gray[p]:
            message = "'G' below maximal depth"
        elif code[p] < 0:
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
    """Exact bounds of the leaves: the midpoints of `Box2.subdivide`, taken
    down each leaf's path."""
    n = len(keys)
    x_lo, x_hi = np.full(n, box.x.lo), np.full(n, box.x.hi)
    y_lo, y_hi = np.full(n, box.y.lo), np.full(n, box.y.hi)
    for k in range(int(level.max())):
        q = np.where(level > k, (keys >> 2 * (d - 1 - k)) & 3, -1)
        xm = x_lo + (x_hi - x_lo) / 2
        ym = y_lo + (y_hi - y_lo) / 2
        x_lo = np.where((q == 1) | (q == 3), xm, x_lo)
        x_hi = np.where((q == 0) | (q == 2), xm, x_hi)
        y_lo = np.where(q >= 2, ym, y_lo)
        y_hi = np.where((q == 0) | (q == 1), ym, y_hi)
    return x_lo, x_hi, y_lo, y_hi


# --------------------------------------------------------------------------
# Region labeling and Black-space queries
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class RegionInfo:
    region_id: int
    area: float
    leaf_paths: tuple[str, ...]
    largest_leaf_path: str


@dataclass
class RegionLabeling:
    region_count: int
    leaf_to_region: dict[str, int]  # Black leaf path -> region id
    leaf_index_to_region: dict[int, int]
    regions: tuple[RegionInfo, ...]


def label_regions(m: QuadtreeModel) -> RegionLabeling:
    """Connected components of the Black space under edge (4-)adjacency.

    Adjacency is read off the leaf table. Each Black leaf looks up the
    cells just past its high x and high y edges (at its low corner) and
    just before its low edges; a hit that is Black and at least as large
    shares that whole edge. Together the two directions find every shared
    edge of positive length, each once. Region ids are assigned in order of
    each region's smallest preorder leaf, so labeling is deterministic.
    """
    t = m.table
    black = np.flatnonzero(t.kind == CODE_BLACK)
    # components over positions in `black`, which keep the preorder; the
    # rank of a component's smallest position is its region id
    label = components(len(black), *_black_edges(t, black))
    roots, region = np.unique(label, return_inverse=True)
    rows = black.tolist()
    all_paths = t.paths
    paths = [all_paths[row] for row in rows]
    ids = region.tolist()

    areas = t.area[black]
    counts = np.bincount(region, minlength=len(roots))
    starts = (np.cumsum(counts) - counts).tolist()
    members = np.argsort(region, kind="stable")  # each region's leaves in preorder
    member_areas = areas[members].tolist()
    members = members.tolist()
    # the leaf of greatest area, the first in preorder on ties
    largest = np.lexsort((-areas, region))[starts].tolist()
    regions = []
    for rid, (start, count) in enumerate(zip(starts, counts.tolist())):
        end = start + count
        regions.append(RegionInfo(
            rid,
            sum(member_areas[start:end]),
            tuple(paths[k] for k in members[start:end]),
            paths[largest[rid]],
        ))
    return RegionLabeling(
        len(roots), dict(zip(paths, ids)), dict(zip(rows, ids)), tuple(regions)
    )


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


def _black_edges(t: LeafTable, black: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Pairs of positions in ``black`` (sorted Black rows) whose leaves share
    an edge of positive length, each pair once."""
    n = 1 << t.depth
    is_black = t.kind == CODE_BLACK
    x, y, lev = t.ix[black], t.iy[black], t.level[black]
    s = np.left_shift(1, t.depth - lev)  # side in finest-grid cells
    own, other = [], []
    # an equal-sized pair is found from its low leaf's high-edge probe, so
    # the low-edge probes keep strictly larger neighbors only
    for cx, cy, inside, larger in (
        (x + s, y, x + s < n, np.less_equal),
        (x, y + s, y + s < n, np.less_equal),
        (x - 1, y, x > 0, np.less),
        (x, y - 1, y > 0, np.less),
    ):
        pos = np.flatnonzero(inside)
        hit = t.find(cx[pos], cy[pos])
        keep = is_black[hit] & larger(t.level[hit], lev[pos])
        own.append(pos[keep])
        other.append(np.searchsorted(black, hit[keep]))
    return np.concatenate(own), np.concatenate(other)


def black_area(m: QuadtreeModel) -> float:
    t = m.table
    return sum(t.area[t.kind == CODE_BLACK].tolist())


def sample_black_points(
    m: QuadtreeModel, n: int, rng: np.random.Generator
) -> np.ndarray:
    """n points uniform over the Black leaves (empty array if there are none)."""
    t = m.table
    black = t.kind == CODE_BLACK
    if not black.any():
        return np.empty((0, 2))
    x_lo, y_lo = t.x_lo[black], t.y_lo[black]
    width = t.x_hi[black] - x_lo
    height = t.y_hi[black] - y_lo
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
