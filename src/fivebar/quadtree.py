"""Quadtree region model built by a box classifier.

A classifier maps a box to +1 (every point valid), -1 (no point valid) or
0 (undecided). The builder recursively subdivides undecided boxes up to a
maximal depth; leaves are Black (valid), White (invalid) or Undetermined
(still undecided at maximal depth). The complementary tree records the
certified-invalid space with the same machinery (Black/White swapped),
which lets a model be refined to a higher depth without retesting boxes
that were already decided.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Callable, Iterator, Optional

import numpy as np

from .interval import Box2, DomainError

BLACK = "B"
WHITE = "W"
UNDETERMINED = "U"
GRAY = "G"

KIND_CODE = {WHITE: 0, BLACK: 1, UNDETERMINED: 2}
CODE_WHITE, CODE_BLACK, CODE_UNDET = 0, 1, 2

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


def _grow(box: Box2, depth: int, d_max: int, classify: Classifier) -> tuple[QuadNode, int]:
    r = classify(box)
    if r > 0:
        return BLACK_LEAF, 1
    if r < 0:
        return WHITE_LEAF, 1
    if depth == d_max:
        return UNDET_LEAF, 1
    calls = 1
    children = []
    for child_box in box.subdivide():
        node, n = _grow(child_box, depth + 1, d_max, classify)
        children.append(node)
        calls += n
    return _merge(tuple(children)), calls


def build(
    box: Box2, d_max: int, classify: Classifier, jobs: int = 1
) -> QuadtreeModel:
    """Build a quadtree model of the region accepted by ``classify``.

    ``jobs > 1`` evaluates the four top-level subtrees concurrently; the
    classifier must be pure, so the result is identical either way.
    """
    if d_max < 1:
        raise ValueError("d_max must be >= 1")
    r = classify(box)
    calls = 1
    if r > 0:
        root = BLACK_LEAF
    elif r < 0:
        root = WHITE_LEAF
    else:
        quads = box.subdivide()
        if jobs > 1:
            with ThreadPoolExecutor(max_workers=jobs) as pool:
                results = list(
                    pool.map(lambda b: _grow(b, 1, d_max, classify), quads)
                )
        else:
            results = [_grow(b, 1, d_max, classify) for b in quads]
        calls += sum(n for _, n in results)
        root = _merge(tuple(node for node, _ in results))
    stats = TreeStats(calls=calls)
    _count_kinds(root, stats)
    return QuadtreeModel(box, d_max, root, stats)


def _regrow(
    node: QuadNode, box: Box2, depth: int, d_max: int, classify: Classifier
) -> tuple[QuadNode, int]:
    if node.is_leaf:
        if node.kind != UNDETERMINED:
            return node, 0
        # previously undecided: we already know classify(box) == 0, so go
        # straight to the children without retesting this box
        calls = 0
        children = []
        for child_box in box.subdivide():
            child, n = _grow(child_box, depth + 1, d_max, classify)
            children.append(child)
            calls += n
        return _merge(tuple(children)), calls
    calls = 0
    children = []
    for child, child_box in zip(node.children, box.subdivide()):
        new_child, n = _regrow(child, child_box, depth + 1, d_max, classify)
        children.append(new_child)
        calls += n
    return _merge(tuple(children)), calls


def refine(
    m: QuadtreeModel, d_max: int, classify: Classifier, jobs: int = 1
) -> QuadtreeModel:
    """Deepen a model, re-expanding only its Undetermined leaves.

    For a deterministic classifier the result equals a fresh build at the
    new depth, at a fraction of the classifier calls.
    """
    if d_max <= m.max_depth:
        raise ValueError("refinement depth must exceed the model's depth")
    root, calls = _regrow(m.root, m.root_box, 0, d_max, classify)
    stats = TreeStats(calls=m.stats.calls + calls)
    _count_kinds(root, stats)
    return QuadtreeModel(m.root_box, d_max, root, stats)


# --------------------------------------------------------------------------
# Leaf inspection
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class LeafInfo:
    index: int  # preorder leaf number
    path: str  # quadrant digits '0'..'3' from the root
    box: Box2
    kind: str


def collect_leaves(m: QuadtreeModel) -> list[LeafInfo]:
    leaves: list[LeafInfo] = []

    def visit(node: QuadNode, box: Box2, path: str) -> None:
        if node.is_leaf:
            leaves.append(LeafInfo(len(leaves), path, box, node.kind))
            return
        for i, (child, child_box) in enumerate(zip(node.children, box.subdivide())):
            visit(child, child_box, path + str(i))

    visit(m.root, m.root_box, "")
    return leaves


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
    if d_max < 1:
        raise ParseError("d_max must be >= 1", 4)
    try:
        box = Box2.from_bounds(*bounds)
    except ValueError as exc:
        raise ParseError(str(exc), len(fields[0]) + len(fields[1]) + 2) from None

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
    stats = TreeStats()
    _count_kinds(root, stats)
    return QuadtreeModel(box, d_max, root, stats)


# --------------------------------------------------------------------------
# Rasterization and region labeling
# --------------------------------------------------------------------------


@dataclass
class Raster:
    """Per-cell view of the tree at resolution 2^d x 2^d.

    Arrays are indexed [ix, iy] with ix counting cells from x_lo and iy
    from y_lo; each cell carries the leaf containing its center.
    """

    kinds: np.ndarray  # int8, KIND_CODE values
    leaf_index: np.ndarray  # int32, preorder leaf numbers
    regions: Optional[np.ndarray] = None  # int32, -1 outside Black regions


def rasterize(m: QuadtreeModel, labels: Optional["RegionLabeling"] = None) -> Raster:
    n = 2**m.max_depth
    kinds = np.empty((n, n), dtype=np.int8)
    leaf_index = np.empty((n, n), dtype=np.int32)
    counter = [0]

    def visit(node: QuadNode, ix: int, iy: int, size: int) -> None:
        if node.is_leaf:
            kinds[ix : ix + size, iy : iy + size] = KIND_CODE[node.kind]
            leaf_index[ix : ix + size, iy : iy + size] = counter[0]
            counter[0] += 1
            return
        h = size // 2
        visit(node.children[0], ix, iy, h)
        visit(node.children[1], ix + h, iy, h)
        visit(node.children[2], ix, iy + h, h)
        visit(node.children[3], ix + h, iy + h, h)

    visit(m.root, 0, 0, n)
    regions = None
    if labels is not None:
        lut = np.full(counter[0], -1, dtype=np.int32)
        for leaf_idx, region_id in labels.leaf_index_to_region.items():
            lut[leaf_idx] = region_id
        regions = lut[leaf_index]
    return Raster(kinds, leaf_index, regions)


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

    Adjacency is read off the rasterized leaf grid; region ids are assigned
    in order of each region's smallest preorder leaf, so labeling is
    deterministic.
    """
    leaves = collect_leaves(m)
    raster = rasterize(m)
    black = raster.kinds == CODE_BLACK
    uf = UnionFind(len(leaves))

    grid = raster.leaf_index
    for a, b, mask in (
        (grid[:-1, :], grid[1:, :], black[:-1, :] & black[1:, :]),
        (grid[:, :-1], grid[:, 1:], black[:, :-1] & black[:, 1:]),
    ):
        pairs = np.stack([a[mask], b[mask]], axis=1)
        pairs = pairs[pairs[:, 0] != pairs[:, 1]]
        if len(pairs):
            for i, j in np.unique(pairs, axis=0):
                uf.union(int(i), int(j))

    leaf_to_region: dict[str, int] = {}
    leaf_index_to_region: dict[int, int] = {}
    root_to_region: dict[int, int] = {}
    members: list[list[LeafInfo]] = []
    for leaf in leaves:
        if leaf.kind != BLACK:
            continue
        root = uf.find(leaf.index)
        if root not in root_to_region:
            root_to_region[root] = len(members)
            members.append([])
        rid = root_to_region[root]
        members[rid].append(leaf)
        leaf_to_region[leaf.path] = rid
        leaf_index_to_region[leaf.index] = rid

    regions = []
    for rid, leafs in enumerate(members):
        area = sum(leaf.box.area for leaf in leafs)
        largest = max(leafs, key=lambda lf: (lf.box.area, -lf.index))
        regions.append(
            RegionInfo(rid, area, tuple(lf.path for lf in leafs), largest.path)
        )
    return RegionLabeling(
        len(members), leaf_to_region, leaf_index_to_region, tuple(regions)
    )


def black_area(m: QuadtreeModel) -> float:
    return sum(leaf.box.area for leaf in collect_leaves(m) if leaf.kind == BLACK)


def sample_black_points(
    m: QuadtreeModel, n: int, rng: np.random.Generator
) -> np.ndarray:
    """n points uniform over the Black leaves (empty array if there are none)."""
    black = [leaf for leaf in collect_leaves(m) if leaf.kind == BLACK]
    if not black:
        return np.empty((0, 2))
    areas = np.array([leaf.box.area for leaf in black])
    picks = rng.choice(len(black), size=n, p=areas / areas.sum())
    u = rng.random((n, 2))
    out = np.empty((n, 2))
    for i, k in enumerate(picks):
        box = black[k].box
        out[i, 0] = box.x.lo + u[i, 0] * box.x.width
        out[i, 1] = box.y.lo + u[i, 1] * box.y.width
    return out
