"""Quadtree region model built by a box classifier.

A classifier maps a box to +1 (every point valid), -1 (no point valid) or
0 (undecided). The builder subdivides undecided boxes up to a maximal
depth; leaves are Black (valid), White (invalid) or Undetermined (still
undecided at maximal depth). The complementary tree (Black/White swapped)
records the certified-invalid space.

The build is level-synchronous. The frontier of boxes to test at one
depth is four float64 arrays; it is classified CHUNK boxes at a time
through the classifier's ``batch`` method (a plain function is called
once per box), and its undecided boxes split into the next frontier.
The tree is assembled bottom-up from the verdicts of every level, with
the same canonical merge as a depth-first recursion, so it is that
recursion's tree with the same number of classifier calls. Refining a
model to a higher depth starts the frontier at the children of its
Undetermined leaves, which are known to be undecided, so no decided box
is ever retested.

Everything that reads a finished tree (labeling, seams, rendering,
sampling, areas, pairing) reads its leaf table: one row per leaf, in
preorder, walked once per tree.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .interval import Box2, DomainError

BLACK = "B"
WHITE = "W"
UNDETERMINED = "U"
GRAY = "G"

KIND_CODE = {WHITE: 0, BLACK: 1, UNDETERMINED: 2}
KIND_LETTER = {code: kind for kind, code in KIND_CODE.items()}
CODE_WHITE, CODE_BLACK, CODE_UNDET = 0, 1, 2

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


class QuadNode:
    __slots__ = ("kind", "children")

    def __init__(self, kind: str, children: Optional[tuple] = None):
        self.kind = kind
        self.children = children

    @property
    def is_leaf(self) -> bool:
        return self.children is None

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, QuadNode)
            and self.kind == other.kind
            and self.children == other.children
        )

    def __repr__(self) -> str:
        return f"QuadNode({self.kind!r})"


BLACK_LEAF = QuadNode(BLACK)
WHITE_LEAF = QuadNode(WHITE)
UNDET_LEAF = QuadNode(UNDETERMINED)
_LEAF = {BLACK: BLACK_LEAF, WHITE: WHITE_LEAF, UNDETERMINED: UNDET_LEAF}


def _merge(children: tuple[QuadNode, QuadNode, QuadNode, QuadNode]) -> QuadNode:
    # canonical form: collapse quadruples of identical Black/White leaves.
    # Undetermined quadruples stay under a Gray parent so that U leaves only
    # ever sit at maximal depth (and keep their exact accuracy-sized boxes).
    first = children[0]
    if (
        first.is_leaf
        and first.kind in (BLACK, WHITE)
        and all(c is first or (c.is_leaf and c.kind == first.kind) for c in children)
    ):
        return _LEAF[first.kind]
    return QuadNode(GRAY, children)


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


@dataclass
class QuadtreeModel:
    root_box: Box2
    max_depth: int
    root: QuadNode
    stats: TreeStats = field(default_factory=TreeStats)
    # (root, root_box, max_depth, LeafTable) of the last leaf_table() call
    _leaf_table: Optional[tuple] = field(
        default=None, init=False, repr=False, compare=False
    )

    @property
    def accuracy(self) -> float:
        return self.root_box.x.width / 2**self.max_depth

    @property
    def complement(self) -> QuadNode:
        """The complementary tree (Black/White swapped), derived on each access."""
        return _swap(self.root)

    def complement_model(self) -> "QuadtreeModel":
        return QuadtreeModel(self.root_box, self.max_depth, self.complement, TreeStats())


def _swap(node: QuadNode) -> QuadNode:
    if node.is_leaf:
        if node.kind == BLACK:
            return WHITE_LEAF
        if node.kind == WHITE:
            return BLACK_LEAF
        return UNDET_LEAF
    return QuadNode(GRAY, tuple(_swap(c) for c in node.children))


def _count_kinds(node: QuadNode, stats: TreeStats) -> None:
    if node.is_leaf:
        if node.kind == BLACK:
            stats.black += 1
        elif node.kind == WHITE:
            stats.white += 1
        else:
            stats.undetermined += 1
    else:
        stats.gray += 1
        for c in node.children:
            _count_kinds(c, stats)


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


def _split(x_lo, x_hi, y_lo, y_hi) -> tuple[np.ndarray, ...]:
    """The quadrants of each box, in `Box2.subdivide` order and with its
    shared midpoints; the children of box i are rows 4i..4i+3."""
    xm = x_lo + (x_hi - x_lo) / 2
    ym = y_lo + (y_hi - y_lo) / 2
    return tuple(
        np.stack(cols, axis=1).ravel()
        for cols in (
            (x_lo, xm, x_lo, xm), (xm, x_hi, xm, x_hi),
            (y_lo, y_lo, ym, ym), (ym, ym, y_hi, y_hi),
        )
    )


def _grow(
    x_lo, x_hi, y_lo, y_hi, depth: int, d_max: int, classify: Classifier
) -> tuple[list[QuadNode], int]:
    """Classify a frontier of boxes at ``depth`` and grow the undecided ones
    level by level down to ``d_max``; returns the subtree of each box, in
    order, and the number of classifier calls."""
    levels = []
    while len(x_lo):
        v = _verdicts(classify, x_lo, x_hi, y_lo, y_hi)
        levels.append(v)
        if depth == d_max:
            break
        open_ = v == 0
        x_lo, x_hi, y_lo, y_hi = _split(x_lo[open_], x_hi[open_], y_lo[open_], y_hi[open_])
        depth += 1
    # bottom-up: an undecided box is the merge of its four children, or an
    # Undetermined leaf on the deepest level, which has none
    nodes: list[QuadNode] = []
    for v in reversed(levels):
        parents = iter(_merged(nodes))
        nodes = [
            BLACK_LEAF if r > 0 else WHITE_LEAF if r < 0 else next(parents, UNDET_LEAF)
            for r in v.tolist()
        ]
    return nodes, sum(map(len, levels))


def _merged(nodes: list[QuadNode]) -> list[QuadNode]:
    """The parents of consecutive quadruples of ``nodes``."""
    return [_merge(tuple(nodes[i:i + 4])) for i in range(0, len(nodes), 4)]


def _regrow(x_lo, x_hi, y_lo, y_hi, depth: int, d_max: int, classify: Classifier):
    """`_grow` for boxes at ``depth`` known to be undecided: their frontier
    starts at their children. Returns the subtree of each box and the calls."""
    nodes, calls = _grow(*_split(x_lo, x_hi, y_lo, y_hi), depth + 1, d_max, classify)
    return _merged(nodes), calls


def _substitute(node: QuadNode, subtrees) -> QuadNode:
    """``node`` with its Undetermined leaves replaced, in preorder, by the
    next of ``subtrees``, merged back into canonical form."""
    if node.children is not None:
        return _merge(tuple(_substitute(c, subtrees) for c in node.children))
    return next(subtrees) if node.kind == UNDETERMINED else node


def _model(box: Box2, d_max: int, root: QuadNode, calls: int) -> QuadtreeModel:
    stats = TreeStats(calls=calls)
    _count_kinds(root, stats)
    return QuadtreeModel(box, d_max, root, stats)


def build(box: Box2, d_max: int, classify: Classifier) -> QuadtreeModel:
    """Build a quadtree model of the region accepted by ``classify``."""
    if not 1 <= d_max <= MAX_DEPTH:
        raise ValueError(f"d_max must be in [1, {MAX_DEPTH}]")
    bounds = (box.x.lo, box.x.hi, box.y.lo, box.y.hi)
    (root,), calls = _grow(*(np.array([v]) for v in bounds), 0, d_max, classify)
    return _model(box, d_max, root, calls)


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
    t = leaf_table(m)
    u = t.kind == CODE_UNDET
    subtrees, calls = _regrow(
        t.x_lo[u], t.x_hi[u], t.y_lo[u], t.y_hi[u], m.max_depth, d_max, classify
    )
    root = _substitute(m.root, iter(subtrees))
    return _model(m.root_box, d_max, root, m.stats.calls + calls)


def mismatched_leaves(m: QuadtreeModel, classify: Classifier) -> int:
    """Leaves of ``m`` that ``classify`` would not grow again.

    Every leaf is classified in one batch: a Black leaf must get +1, a
    White one -1 and an Undetermined one 0. A Black or White leaf above
    maximal depth may also be the merge of four equal children of a box
    the classifier leaves undecided; such a leaf is grown again to the
    model's depth and must come back as the same leaf.
    """
    t = leaf_table(m)
    v = _verdicts(classify, t.x_lo, t.x_hi, t.y_lo, t.y_hi)
    want = np.select([t.kind == CODE_BLACK, t.kind == CODE_WHITE], [1, -1], 0)
    bad = np.sign(v) != want
    merged = bad & (v == 0) & (t.kind != CODE_UNDET) & (t.level < m.max_depth)
    for level in np.unique(t.level[merged]).tolist():
        rows = np.flatnonzero(merged & (t.level == level))
        subtrees, _ = _regrow(
            t.x_lo[rows], t.x_hi[rows], t.y_lo[rows], t.y_hi[rows],
            level, m.max_depth, classify,
        )
        kinds = [KIND_LETTER[k] for k in t.kind[rows].tolist()]
        bad[rows] = [n is not _LEAF[k] for n, k in zip(subtrees, kinds)]
    return int(bad.sum())


# --------------------------------------------------------------------------
# Leaf inspection
# --------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class LeafTable:
    """Linear quadtree: every leaf of a model, one row each, in preorder.

    Preorder is Morton (Z) order, so ``keys`` (the Morton keys of the
    leaves' low corners) increase strictly and ``find`` locates the leaf of
    any finest-grid cell with one binary search. Leaf ``i`` covers cells
    ``[ix[i], ix[i] + s) x [iy[i], iy[i] + s)``, ``s = 2^(depth - level[i])``,
    of the ``2^depth x 2^depth`` grid; its bounds are the exact floats of
    ``Box2.subdivide``.
    """

    depth: int  # maximal depth of the model
    level: np.ndarray  # int64, depth of each leaf
    ix: np.ndarray  # int64, first finest-grid column (from x_lo)
    iy: np.ndarray  # int64, first finest-grid row (from y_lo)
    kind: np.ndarray  # int8, KIND_CODE values
    paths: list[str]  # quadrant digits '0'..'3' from the root
    x_lo: np.ndarray
    x_hi: np.ndarray
    y_lo: np.ndarray
    y_hi: np.ndarray
    keys: np.ndarray  # int64 Morton keys of (ix, iy)

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


def _morton(cx: np.ndarray, cy: np.ndarray) -> np.ndarray:
    # quadrant digit = x bit + 2 * y bit, as in Box2.subdivide's order
    return _spread_bits(cx) | (_spread_bits(cy) << 1)


def _walk(m: QuadtreeModel) -> LeafTable:
    d = m.max_depth
    # typed arrays hold 1-8 bytes per entry where a list holds a boxed number
    level, ix, iy, kind = array("q"), array("q"), array("q"), array("b")
    x_lo, x_hi, y_lo, y_hi = array("d"), array("d"), array("d"), array("d")
    paths = []
    b = m.root_box
    stack = [(m.root, 0, 0, 0, "", b.x.lo, b.x.hi, b.y.lo, b.y.hi)]
    while stack:
        node, lev, cx, cy, path, x0, x1, y0, y1 = stack.pop()
        if node.children is None:
            level.append(lev)
            ix.append(cx)
            iy.append(cy)
            kind.append(KIND_CODE[node.kind])
            paths.append(path)
            x_lo.append(x0)
            x_hi.append(x1)
            y_lo.append(y0)
            y_hi.append(y1)
            continue
        # the shared midpoints of Box2.subdivide
        xm = x0 + (x1 - x0) / 2
        ym = y0 + (y1 - y0) / 2
        h = 1 << (d - lev - 1)
        c = node.children
        lev += 1
        # pushed in reverse so that quadrant 0 is visited first
        stack += (
            (c[3], lev, cx + h, cy + h, path + "3", xm, x1, ym, y1),
            (c[2], lev, cx, cy + h, path + "2", x0, xm, ym, y1),
            (c[1], lev, cx + h, cy, path + "1", xm, x1, y0, ym),
            (c[0], lev, cx, cy, path + "0", x0, xm, y0, ym),
        )
    cols = [
        np.frombuffer(col, dtype=dtype)
        for col, dtype in (
            (level, np.int64), (ix, np.int64), (iy, np.int64), (kind, np.int8),
            (x_lo, np.float64), (x_hi, np.float64), (y_lo, np.float64),
            (y_hi, np.float64),
        )
    ]
    cols.append(_morton(cols[1], cols[2]))
    for col in cols:
        col.flags.writeable = False  # the table is shared by every reader
    return LeafTable(d, *cols[:4], paths, *cols[4:])


def leaf_table(m: QuadtreeModel) -> LeafTable:
    """The model's leaf table, walked once and kept until the tree changes."""
    c = m._leaf_table
    if c is None or c[0] is not m.root or c[1] is not m.root_box or c[2] != m.max_depth:
        c = m._leaf_table = (m.root, m.root_box, m.max_depth, _walk(m))
    return c[3]


@dataclass(frozen=True)
class LeafInfo:
    index: int  # preorder leaf number
    path: str  # quadrant digits '0'..'3' from the root
    box: Box2
    kind: str


def collect_leaves(m: QuadtreeModel) -> list[LeafInfo]:
    """The rows of the leaf table as objects, in preorder."""
    t = leaf_table(m)
    bounds = zip(t.x_lo.tolist(), t.x_hi.tolist(), t.y_lo.tolist(), t.y_hi.tolist())
    return [
        LeafInfo(i, path, Box2.from_bounds(*b), KIND_LETTER[k])
        for i, (path, b, k) in enumerate(zip(t.paths, bounds, t.kind.tolist()))
    ]


def locate(m: QuadtreeModel, qx: float, qy: float) -> tuple[str, str]:
    """Leaf (kind, path) containing the point; edge ties go to the lower leaf."""
    if not m.root_box.contains(qx, qy):
        raise DomainError(f"point ({qx}, {qy}) outside the root box")
    node = m.root
    box = m.root_box
    path = ""
    while not node.is_leaf:
        xm = box.x.lo + (box.x.hi - box.x.lo) / 2
        ym = box.y.lo + (box.y.hi - box.y.lo) / 2
        quadrant = (1 if qx > xm else 0) + (2 if qy > ym else 0)
        node = node.children[quadrant]
        box = box.subdivide()[quadrant]
        path += str(quadrant)
    return node.kind, path


# --------------------------------------------------------------------------
# Serialization (compact text format)
# --------------------------------------------------------------------------


def serialize(m: QuadtreeModel) -> str:
    """Text form: header line, then the preorder node string.

    ``QT1 <d_max> <x_lo> <x_hi> <y_lo> <y_hi>`` with shortest round-trip
    decimals; node alphabet G/B/W/U, a G followed by its four children in
    quadrant order; U only at maximal depth.
    """
    parts: list[str] = []

    def visit(node: QuadNode) -> None:
        parts.append(node.kind)
        if not node.is_leaf:
            for c in node.children:
                visit(c)

    visit(m.root)
    b = m.root_box
    header = f"QT1 {m.max_depth} {b.x.lo!r} {b.x.hi!r} {b.y.lo!r} {b.y.hi!r}"
    return header + "\n" + "".join(parts) + "\n"


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
    pos = 0

    def parse(depth: int) -> QuadNode:
        nonlocal pos
        if pos >= len(body):
            raise ParseError("unexpected end of node string", offset + pos)
        c = body[pos]
        pos += 1
        if c in (BLACK, WHITE):
            return _LEAF[c]
        if c == UNDETERMINED:
            if depth != d_max:
                raise ParseError(
                    f"'U' only legal at depth {d_max}, found at depth {depth}",
                    offset + pos - 1,
                )
            return UNDET_LEAF
        if c == GRAY:
            if depth >= d_max:
                raise ParseError("'G' below maximal depth", offset + pos - 1)
            return QuadNode(GRAY, tuple(parse(depth + 1) for _ in range(4)))
        raise ParseError(f"unexpected character {c!r}", offset + pos - 1)

    root = parse(0)
    if pos != len(body):
        raise ParseError("trailing characters after node string", offset + pos)
    return _model(box, d_max, root, 0)


# --------------------------------------------------------------------------
# Region labeling and Black-space queries
# --------------------------------------------------------------------------


class UnionFind:
    def __init__(self, size: int):
        self.parent = list(range(size))

    def find(self, i: int) -> int:
        root = i
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[i] != root:
            self.parent[i], i = root, self.parent[i]
        return root

    def union(self, a: int, b: int) -> None:
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            if rb < ra:
                ra, rb = rb, ra
            self.parent[rb] = ra


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
    t = leaf_table(m)
    black = np.flatnonzero(t.kind == CODE_BLACK)
    # union-find over positions in `black`, which keep the preorder
    uf = UnionFind(len(black))
    a, b = _black_edges(t, black)
    for i, j in zip(a.tolist(), b.tolist()):
        uf.union(i, j)

    rows = black.tolist()
    areas = t.area[black].tolist()
    leaf_to_region: dict[str, int] = {}
    leaf_index_to_region: dict[int, int] = {}
    root_to_region: dict[int, int] = {}
    members: list[list[int]] = []
    for k, row in enumerate(rows):
        root = uf.find(k)
        if root not in root_to_region:
            root_to_region[root] = len(members)
            members.append([])
        rid = root_to_region[root]
        members[rid].append(k)
        leaf_to_region[t.paths[row]] = rid
        leaf_index_to_region[row] = rid

    regions = []
    for rid, ks in enumerate(members):
        area = sum(areas[k] for k in ks)
        largest = max(ks, key=lambda k: (areas[k], -k))
        regions.append(RegionInfo(
            rid, area, tuple(t.paths[rows[k]] for k in ks), t.paths[rows[largest]]
        ))
    return RegionLabeling(
        len(members), leaf_to_region, leaf_index_to_region, tuple(regions)
    )


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
    t = leaf_table(m)
    return sum(t.area[t.kind == CODE_BLACK].tolist())


def sample_black_points(
    m: QuadtreeModel, n: int, rng: np.random.Generator
) -> np.ndarray:
    """n points uniform over the Black leaves (empty array if there are none)."""
    t = leaf_table(m)
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
    return _shared_black(a.root, b.root, 4**a.max_depth)


def _shared_black(a: QuadNode, b: QuadNode, cells: int) -> int:
    # co-walk of two trees over the same box; `cells` is the cell count of it
    if a.is_leaf and a.kind != BLACK or b.is_leaf and b.kind != BLACK:
        return 0
    if a.is_leaf and b.is_leaf:
        return cells
    q = cells // 4
    if a.is_leaf:
        return sum(_shared_black(a, c, q) for c in b.children)
    if b.is_leaf:
        return sum(_shared_black(c, b, q) for c in a.children)
    return sum(_shared_black(ca, cb, q) for ca, cb in zip(a.children, b.children))
