"""Shared test utilities: tight-enclosure assertions, deterministic random
trees, a flood-fill region oracle independent of the library's labeling,
and the full box solvers that the kinematic verdicts are checked against.

The oracle reads its own raster, filled by a recursive walk of the model's
text form; it shares no code with the library's leaf table.

The full solvers `dkp_box` and `ikp_box` work on one box of `Interval`
objects and return every solution enclosure (P, joint angles, elbows,
det(A), u_z, v_z) with a `Ternary` status. They are the box-by-box
reference of `mechanism.joint_verdicts` / `workspace_verdicts` and of
`mechanism.ikp_witness`: the same formulas, computed with the scalar
interval operations of `interval_reference`, the twins of the library's
interval arrays, so they share no code with the batch kernel. `configuration_at`,
`scalar_signs` and `coincidence_configurations` are point helpers of the
kinematic tests.

`reference_parse_body`, `reference_label_regions` and
`reference_render_svg` are the per-character and per-leaf loops that the
array passes of `deserialize`, `label_regions` and `render_svg` replaced;
`reference_bounds` bisects every leaf level by level, `reference_split`
splits a build's frontier carrying the bounds of every box,
`reference_paths` formats the path of every leaf, `reference_locate`
looks the located row up in that list and `reference_seam_pairs` sweeps
the exact bounds of the leaves on opposite box edges for the pairs that
`aspects._seam_pairs` finds by cell probes. The tests hold the library's
outputs equal to theirs. `reference_label_regions` returns a labeling in
its legacy form, keyed by leaf path and by row, with every region's leaf
paths (`LegacyLabeling`); `legacy_labels` and `legacy_aspects` rebuild
that form, and the former `AspectRegion` with leaf paths, from the
library's region column and aspect rows, so that the pinned digests keep
hashing the same text. `reference_vdown` / `reference_vup` are the
two-``np.nextafter`` outward rounding that the integer step of the
interval arrays replaced, and `reference_widen` applies them to the rows of
an interval array in place, as `interval._widen` does. `box_bounds`
gathers the bounds of every box of a classifier batch from its axis
tables, and `box_tables` turns boxes given
by their bounds into such a batch (one table entry per box), so that the
tests' classifiers and kernel calls speak per-box bounds.
`CountingClassifier` records the size of each batch a build sends to the
kernel; `grid_rows` and `build_rows` are the exact counts a build sends:
the grid of its top levels in one batch, then the boxes below them level
by level. `module_functions` lists the functions of a parsed module for
the tests that pin where the library calls what.
`point_classifier` grows one chain of boxes to any depth. `parse_table`
reads back the `bench` CSV, and `run_discretization` executes the grid
baseline whose cell count the bench tests check.
"""

from __future__ import annotations

import ast
import csv
import enum
import io
import math
from array import array
from dataclasses import dataclass
from types import SimpleNamespace
from typing import Callable, Optional

import numpy as np
from scipy import ndimage

from fivebar.bench import CSV_HEADER, BenchRow, space_box
from fivebar.interval import Box2, Interval
from fivebar.mechanism import (
    JOINTSPACE,
    VALID,
    AssemblyMode,
    FiveBarGeometry,
    WorkingMode,
    _cross,
    _scalar_elbows,
    point_classify_joint,
    point_classify_workspace,
)
from fivebar.quadtree import (
    BLACK,
    CODE_BLACK,
    CODE_UNDET,
    GRAY,
    KIND_CODE,
    KIND_LETTER,
    UNDETERMINED,
    WHITE,
    LeafTable,
    TOP,
    ParseError,
    QuadtreeModel,
    RegionLabeling,
    _black_edges,
    build,
    serialize,
)
from fivebar.render import RenderStyle

import interval_reference as ref


def ulp_scale(*vals: float) -> float:
    """One ulp at the magnitude of the largest argument (floor near zero)."""
    return math.ulp(max(1e-300, *(abs(v) for v in vals)))


def assert_encloses(result, lo: float, hi: float, ulps: int = 8) -> None:
    """The interval must contain [lo, hi] with bounds at most `ulps` outside."""
    tol = ulps * ulp_scale(lo, hi)
    assert result.lo <= lo, f"lower bound {result.lo} does not enclose {lo}"
    assert result.hi >= hi, f"upper bound {result.hi} does not enclose {hi}"
    assert result.lo >= lo - tol, f"lower bound {result.lo} too loose for {lo}"
    assert result.hi <= hi + tol, f"upper bound {result.hi} too loose for {hi}"


def hash_classifier(seed: int, p_black: int = 30, p_white: int = 30):
    """Deterministic pseudo-random box classifier (pure, repeatable)."""

    def classify(box: Box2) -> int:
        h = hash((seed, box.x.lo, box.x.hi, box.y.lo, box.y.hi))
        r = h % 100
        if r < p_black:
            return 1
        if r < p_black + p_white:
            return -1
        return 0

    return classify


def random_models(count: int, d_max: int = 4) -> list[QuadtreeModel]:
    """`count` deterministic pseudo-random canonical trees."""
    box = Box2.from_bounds(0.0, 1.0, 0.0, 1.0)
    return [build(box, d_max, hash_classifier(seed)) for seed in range(count)]


@dataclass
class Raster:
    """Per-cell view of the tree at resolution 2^d x 2^d.

    Arrays are indexed [ix, iy] with ix counting cells from x_lo and iy
    from y_lo; each cell carries the leaf containing its center.
    """

    kinds: np.ndarray  # int8, KIND_CODE values
    leaf_index: np.ndarray  # int32, preorder leaf numbers
    regions: Optional[np.ndarray] = None  # int32, -1 outside Black regions


def text_leaves(m: QuadtreeModel) -> list[tuple[str, Box2, str]]:
    """(path, box, kind letter) of every leaf, in preorder, by a recursive
    walk of the model's text form with `interval_reference.subdivide`."""
    body = serialize(m).splitlines()[1]
    leaves = []
    pos = 0

    def visit(box: Box2, path: str) -> None:
        nonlocal pos
        c = body[pos]
        pos += 1
        if c != GRAY:
            leaves.append((path, box, c))
            return
        for i, child in enumerate(ref.subdivide(box)):
            visit(child, path + str(i))

    visit(m.root_box, "")
    return leaves


def chain_text(depth: int, quadrant: int = 0, box: str = "0.0 1.0 0.0 1.0") -> str:
    """The text of a depth-`depth` tree: one chain of Gray nodes down
    ``quadrant``, ending in an Undetermined leaf, with the other three
    quadrants of each link Black, White and Black in quadrant order. Down
    quadrant 0 the Black leaves form one edge-connected region."""
    body = UNDETERMINED
    for _ in range(depth):
        kids = [BLACK, WHITE, BLACK]
        kids.insert(quadrant, body)
        body = GRAY + "".join(kids)
    return f"QT1 {depth} {box}\n{body}\n"


def leaf_cells(path: str, d_max: int) -> tuple[int, int, int]:
    """(ix, iy, side) of a leaf in cells of the 2^d_max x 2^d_max grid."""
    ix = iy = 0
    for k, digit in enumerate(path):
        h = 2 ** (d_max - k - 1)
        ix += h * (int(digit) & 1)
        iy += h * (int(digit) >> 1)
    return ix, iy, 2 ** (d_max - len(path))


def rasterize(m: QuadtreeModel, labels: Optional[RegionLabeling] = None) -> Raster:
    n = 2**m.max_depth
    kinds = np.empty((n, n), dtype=np.int8)
    leaf_index = np.empty((n, n), dtype=np.int32)
    leaves = text_leaves(m)
    for i, (path, _, kind) in enumerate(leaves):
        ix, iy, size = leaf_cells(path, m.max_depth)
        kinds[ix : ix + size, iy : iy + size] = KIND_CODE[kind]
        leaf_index[ix : ix + size, iy : iy + size] = i
    regions = None
    if labels is not None:
        regions = labels.region.astype(np.int32)[leaf_index]
    return Raster(kinds, leaf_index, regions)


FOUR_CONNECTED = np.array([[0, 1, 0], [1, 1, 1], [0, 1, 0]])


def flood_fill_region_count(m: QuadtreeModel) -> int:
    """Region count of the Black cells under 4-connectivity (scipy oracle)."""
    raster = rasterize(m)
    _, n = ndimage.label(raster.kinds == CODE_BLACK, structure=FOUR_CONNECTED)
    return int(n)


def assert_labeling_matches_flood_fill(
    m: QuadtreeModel, labels: RegionLabeling
) -> None:
    """The library labeling must induce the same partition as pixel flood fill."""
    raster = rasterize(m, labels)
    black = raster.kinds == CODE_BLACK
    oracle, n = ndimage.label(black, structure=FOUR_CONNECTED)
    assert labels.region_count == n
    if n == 0:
        return
    pairs = np.unique(
        np.stack([raster.regions[black], oracle[black]], axis=1), axis=0
    )
    # same partition <=> the (library id, oracle id) relation is a bijection
    assert len(pairs) == n
    assert len(set(pairs[:, 0])) == n
    assert len(set(pairs[:, 1])) == n


# ---------------------------------------------------------------------------
# Per-leaf loops of the read path: the reference of its array passes
# ---------------------------------------------------------------------------


def reference_parse_body(
    body: str, d_max: int, offset: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Level, key and kind code of each leaf of a preorder node string, one
    character at a time; the reference of `quadtree._parse_body`."""
    # preorder parse: `level` and `key` are those of the next node
    level, key, done = 0, 0, False
    cells = [1 << 2 * (d_max - k) for k in range(d_max + 1)]  # of a node at level k
    levels, keys, kinds = array("q"), array("q"), array("b")
    for pos, c in enumerate(body):
        if done:
            raise ParseError("trailing characters after node string", offset + pos)
        if c == GRAY:
            if level >= d_max:
                raise ParseError("'G' below maximal depth", offset + pos)
            level += 1
            continue
        code = KIND_CODE.get(c)
        if code is None:
            raise ParseError(f"unexpected character {c!r}", offset + pos)
        if code == CODE_UNDET and level != d_max:
            raise ParseError(
                f"'U' only legal at depth {d_max}, found at depth {level}", offset + pos
            )
        levels.append(level)
        keys.append(key)
        kinds.append(code)
        key += cells[level]
        # the leaf completes every Gray node whose last quadrant it ends
        while level and key % cells[level - 1] == 0:
            level -= 1
        done = level == 0
    if not done:
        raise ParseError("unexpected end of node string", offset + len(body))
    return (
        np.frombuffer(levels, dtype=np.int64),
        np.frombuffer(keys, dtype=np.int64),
        np.frombuffer(kinds, dtype=np.int8),
    )


def reference_bounds(
    box: Box2, d: int, level: np.ndarray, keys: np.ndarray
) -> tuple[np.ndarray, ...]:
    """Exact bounds of the leaves, one level of every leaf's path at a
    time; the reference of `quadtree._bounds`."""
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


def reference_split(
    d: int, level: int, keys, x_lo, x_hi, y_lo, y_hi
) -> tuple[np.ndarray, ...]:
    """The keys and bounds of the quadrants of each box at ``level`` of a
    depth-``d`` grid, in the order x-lo/y-lo, x-hi/y-lo, x-lo/y-hi,
    x-hi/y-hi, split at midpoints ``lo + (hi - lo) / 2`` that siblings
    share; the children of box i are rows 4i..4i+3. The reference of the
    frontier bounds that a build's halved axis tables give its boxes."""
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


def box_bounds(x, y, ix, iy) -> tuple[np.ndarray, ...]:
    """(x_lo, x_hi, y_lo, y_hi) of the boxes ``x[:, ix[k]] x y[:, iy[k]]`` of a
    classifier batch, gathered from its axis tables."""
    return x[0][ix], x[1][ix], y[0][iy], y[1][iy]


def box_tables(x_lo, x_hi, y_lo, y_hi) -> tuple:
    """The boxes [x_lo, x_hi] x [y_lo, y_hi] as the arguments (x, y, ix, iy)
    of a classifier batch, one table entry per box: ix = iy = arange(n)."""
    every = np.arange(len(x_lo))
    return (x_lo, x_hi), (y_lo, y_hi), every, every


class CountingClassifier:
    """A classifier's batch, counting the rows it is sent and recording the
    size of each batch; its ``mirror`` is passed on unless ``hide``, so
    that a build takes no mirror pairs."""

    def __init__(self, classify, hide: bool = False):
        self.classify = classify
        self.sizes = []
        if not hide:
            self.mirror = classify.mirror

    @property
    def rows(self) -> int:
        return sum(self.sizes)

    def batch(self, x, y, ix, iy):
        self.sizes.append(len(ix))
        return self.classify.batch(x, y, ix, iy)


def grid_rows(d: int, paired: bool) -> int:
    """The rows of the first batch of a build to depth ``d``: every box of
    levels 0..min(d, TOP), or with mirror pairs the root and one box of
    each pair of twins."""
    n = ((4 << 2 * min(d, TOP)) - 1) // 3
    return 1 + (n - 1) // 2 if paired else n


def build_rows(d: int, calls: int, top_calls: int, paired: bool) -> int:
    """The rows a build to depth ``d`` with ``calls`` sends the kernel: the
    grid (`grid_rows`), then the boxes it tests below level TOP, which are
    ``calls - top_calls`` for ``top_calls`` the calls of the same build to
    depth min(d, TOP); with mirror pairs, one box of each pair of them."""
    below = calls - top_calls
    return grid_rows(d, paired) + (below // 2 if paired else below)


def point_classifier(px: float, py: float):
    """A batch classifier that leaves undecided only the boxes holding the
    point (px, py): Black left of it, White elsewhere."""

    def batch(*tables):
        x_lo, x_hi, y_lo, y_hi = box_bounds(*tables)
        holds = (x_lo <= px) & (px <= x_hi) & (y_lo <= py) & (py <= y_hi)
        return np.where(holds, 0, np.where(x_hi < px, 1, -1))

    return SimpleNamespace(batch=batch)


def reference_paths(t: LeafTable) -> list[str]:
    """Quadrant digits of every leaf, as fixed-width byte rows; the
    reference of `LeafTable.paths`."""
    d = t.depth
    # one byte per digit, NUL past the leaf's level: a fixed-width bytes
    # field drops its trailing NULs
    chars = np.zeros((len(t.keys), d), dtype=np.uint8)
    for k in range(d):
        digit = (t.keys >> 2 * (d - 1 - k)) & 3
        chars[:, k] = np.where(t.level > k, digit + ord("0"), 0)
    return chars.view(f"S{d}").ravel().astype(str).tolist()


def reference_locate(m: QuadtreeModel, points) -> list[tuple[str, str]]:
    """`quadtree.locate` of each point, with the path read from
    `reference_paths`."""
    t, b = m.table, m.root_box
    paths = reference_paths(t)
    out = []
    for qx, qy in points:
        x0, x1, y0, y1 = b.x.lo, b.x.hi, b.y.lo, b.y.hi
        key = 0
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
        row = int(t.keys.searchsorted(key, side="right")) - 1
        out.append((KIND_LETTER[int(t.kind[row])], paths[row]))
    return out


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
    """One region of a `LegacyLabeling`: its area, its Black leaf paths in
    preorder and the path of its largest leaf, the first in preorder on
    ties."""

    region_id: int
    area: float
    leaf_paths: tuple[str, ...]
    largest_leaf_path: str


@dataclass
class LegacyLabeling:
    """A labeling keyed by leaf path and by row, with every region's leaf
    paths: the form whose ``repr`` the pinned digests hash."""

    region_count: int
    leaf_to_region: dict[str, int]  # Black leaf path -> region id
    leaf_index_to_region: dict[int, int]  # Black row -> region id
    regions: tuple[RegionInfo, ...]


@dataclass(frozen=True)
class AspectRegion:
    """An aspect with its Black leaf paths listed region by region, in
    region-id order, each region's in preorder."""

    aspect_id: int
    region_ids: tuple[int, ...]
    area: float
    leaf_paths: tuple[str, ...]


def legacy_labels(m: QuadtreeModel, labels: RegionLabeling) -> LegacyLabeling:
    """The `LegacyLabeling` of the region column of ``labels``."""
    paths = reference_paths(m.table)
    black = np.flatnonzero(labels.region >= 0)
    rows, ids = black.tolist(), labels.region[black].tolist()
    members: list[list[tuple[float, int]]] = [[] for _ in labels.area]
    for row, rid, area in zip(rows, ids, m.area(black).tolist()):
        members[rid].append((area, row))
    regions = tuple(
        RegionInfo(
            rid, area, tuple(paths[row] for _, row in leaves),
            paths[max(leaves, key=lambda leaf: (leaf[0], -leaf[1]))[1]],
        )
        for rid, (area, leaves) in enumerate(zip(labels.area, members))
    )
    return LegacyLabeling(
        labels.region_count, labels.leaf_to_region, dict(zip(rows, ids)), regions
    )


def legacy_aspects(m: QuadtreeModel, labels: RegionLabeling, aspects) -> tuple[AspectRegion, ...]:
    """The aspects of ``labels`` with their rows as legacy leaf paths."""
    paths = reference_paths(m.table)
    out = []
    for a in aspects:
        rows = a.rows[np.argsort(labels.region[a.rows], kind="stable")]
        out.append(AspectRegion(
            a.aspect_id, a.region_ids, a.area, tuple(paths[row] for row in rows.tolist())
        ))
    return tuple(out)


def reference_label_regions(m: QuadtreeModel) -> LegacyLabeling:
    """`quadtree.label_regions` by a union-find over the same Black edges
    and one loop over the Black leaves, in the legacy form."""
    t = m.table
    black = np.flatnonzero(t.kind == CODE_BLACK)
    # union-find over positions in `black`, which keep the preorder
    uf = UnionFind(len(black))
    a, b = _black_edges(t, black)
    for i, j in zip(a.tolist(), b.tolist()):
        uf.union(i, j)

    rows = black.tolist()
    areas = m.area(black).tolist()
    paths = reference_paths(t)
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
        leaf_to_region[paths[row]] = rid
        leaf_index_to_region[row] = rid

    regions = []
    for rid, ks in enumerate(members):
        area = sum(areas[k] for k in ks)
        largest = max(ks, key=lambda k: (areas[k], -k))
        regions.append(RegionInfo(
            rid, area, tuple(paths[rows[k]] for k in ks), paths[rows[largest]]
        ))
    return LegacyLabeling(
        len(members), leaf_to_region, leaf_index_to_region, tuple(regions)
    )


def reference_seam_pairs(
    m: QuadtreeModel, labels: RegionLabeling
) -> list[tuple[int, int]]:
    """Raw region pairs whose Black leaves adjoin through opposite box
    edges, by a sweep over the exact bounds of the leaves on those edges
    (from `reference_bounds`); the reference of `aspects._seam_pairs`."""
    root, t = m.root_box, m.table
    black = t.kind == CODE_BLACK
    x_lo, x_hi, y_lo, y_hi = reference_bounds(root, t.depth, t.level, t.keys)
    pairs = []
    for own_lo, own_hi, other_lo, other_hi, bounds in (
        (x_lo, x_hi, y_lo, y_hi, (root.x.lo, root.x.hi)),
        (y_lo, y_hi, x_lo, x_hi, (root.y.lo, root.y.hi)),
    ):
        lo_side, hi_side = [
            list(zip(
                other_lo[rows].tolist(),
                other_hi[rows].tolist(),
                labels.region[rows].tolist(),
            ))
            for rows in (
                np.flatnonzero(black & (own_lo == bounds[0])),
                np.flatnonzero(black & (own_hi == bounds[1])),
            )
        ]
        # leaves on one edge tile it, so both lists are disjoint and sorting
        # by lower bound allows a linear sweep for positive-length overlaps
        lo_side.sort()
        hi_side.sort()
        i = 0
        for alo, ahi, a_region in lo_side:
            while i < len(hi_side) and hi_side[i][1] <= alo:
                i += 1
            k = i
            while k < len(hi_side) and hi_side[k][0] < ahi:
                pairs.append((a_region, hi_side[k][2]))
                k += 1
    return pairs


def reference_render_svg(
    m: QuadtreeModel,
    labels: Optional[RegionLabeling] = None,
    style: RenderStyle = RenderStyle(),
) -> str:
    """`render.render_svg` with one ``repr`` per number and the fill looked
    up by leaf path."""
    box = m.root_box
    y_lo, y_hi = box.y.lo, box.y.hi
    view = f"{box.x.lo!r} {y_lo!r} {box.x.width!r} {box.y.width!r}"
    out = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" viewBox="{view}">',
    ]
    stroke_attr = ""
    if style.stroke != "none" and style.stroke_width > 0:
        stroke_attr = f' stroke="{style.stroke}" stroke-width="{float(style.stroke_width)!r}"'
    t = m.table
    paths = reference_paths(t)
    region_of = labels.leaf_to_region if labels is not None else None
    shown = t.kind == CODE_BLACK
    if style.show_undetermined:
        shown |= t.kind == CODE_UNDET
    rows = np.flatnonzero(shown)
    x0, x1, y0, y1 = m.bounds(rows)
    # flip y: the svg y of a rect is measured from the top of the viewBox
    y_svg = y_lo + (y_hi - y1)
    width = x1 - x0
    height = y1 - y0
    for i, kind, x, y, w, h in zip(
        rows.tolist(), t.kind[rows].tolist(), x0.tolist(),
        y_svg.tolist(), width.tolist(), height.tolist(),
    ):
        if kind != CODE_BLACK:
            fill = style.undetermined_fill
        elif labels is not None:
            rid = region_of[paths[i]]
            fill = style.palette[rid % len(style.palette)]
        else:
            fill = style.palette[0]
        out.append(
            f'<rect x="{x!r}" y="{y!r}" width="{w!r}" height="{h!r}" '
            f'fill="{fill}"{stroke_attr}/>'
        )
    out.append("</svg>")
    return "\n".join(out) + "\n"


# ---------------------------------------------------------------------------
# Outward rounding of the interval arrays: the reference of the integer step
# ---------------------------------------------------------------------------


def reference_vdown(x: np.ndarray) -> np.ndarray:
    return np.nextafter(np.nextafter(x, -np.inf), -np.inf)


def reference_vup(x: np.ndarray) -> np.ndarray:
    return np.nextafter(np.nextafter(x, np.inf), np.inf)


def reference_widen(a: np.ndarray) -> np.ndarray:
    """`interval._widen` by two np.nextafter per bound, in place: the lower
    bounds of the interval array ``a`` (row 0 of axis -2) down, the upper
    bounds (row 1) up. Returns ``a``."""
    a[..., 0, :] = reference_vdown(a[..., 0, :])
    a[..., 1, :] = reference_vup(a[..., 1, :])
    return a


# ---------------------------------------------------------------------------
# Full box solvers and point helpers: the kinematic reference
# ---------------------------------------------------------------------------

IVec2 = tuple[Interval, Interval]


class Ternary(enum.IntEnum):
    VALID = 1
    INDETERMINATE = 0
    INVALID = -1


@dataclass(frozen=True)
class Configuration:
    """A fully determined point configuration (used by scalar utilities)."""

    theta1: float
    theta2: float
    theta3: float
    theta4: float
    p: tuple[float, float]
    b1: tuple[float, float]
    b2: tuple[float, float]


@dataclass(frozen=True)
class DkpSolution:
    p: IVec2
    det_a: Interval  # enclosure of the cross product (B1-P) x (B2-P)
    u_z: Interval  # elbow cross product of leg 1 at this solution
    v_z: Interval  # elbow cross product of leg 2 at this solution

    @property
    def sign(self) -> int:
        return self.det_a.sign()


@dataclass(frozen=True)
class DkpResult:
    status: Ternary
    solutions: tuple[DkpSolution, ...]
    b1: Optional[IVec2] = None
    b2: Optional[IVec2] = None

    def solution_for(self, mode: AssemblyMode) -> Optional[DkpSolution]:
        for sol in self.solutions:
            if sol.sign == int(mode):
                return sol
        return None


@dataclass(frozen=True)
class IkpSolution:
    theta1: Interval
    theta2: Interval
    u_z: Interval
    v_z: Interval
    b1: IVec2
    b2: IVec2
    det_a: Interval  # enclosure of (B1-P) x (B2-P) at this solution

    @property
    def mode(self) -> Optional[WorkingMode]:
        su, sv = self.u_z.sign(), self.v_z.sign()
        if su == 0 or sv == 0:
            return None
        return WorkingMode(su, sv)


@dataclass(frozen=True)
class IkpResult:
    status: Ternary
    solutions: tuple[IkpSolution, ...]

    def solution_for(self, mode: WorkingMode) -> Optional[IkpSolution]:
        for sol in self.solutions:
            if sol.mode == mode:
                return sol
        return None


def _clip_unit(a: Interval) -> Interval:
    """Intersect with [-1, 1] (the cosine range of assembled configurations)."""
    return Interval(max(a.lo, -1.0), min(a.hi, 1.0))


def _unit_sine(c: Interval) -> Interval:
    """Enclosure of sqrt(1 - c^2) for a cosine enclosure c within [-1, 1]."""
    return ref.sqrt(ref.shift(-ref.sqr(c), 1.0))


# --------------------------------------------------------------------------
# Direct kinematics over joint-space boxes
# --------------------------------------------------------------------------


def _dkp_triangle(box: Box2, g: FiveBarGeometry):
    """Front half of the DKP (`dkp_box`; `joint_verdicts` repeats it on arrays).

    Encloses the base-angle cosines/sines, the elbows B1, B2, the gap
    B2 - B1 = (dx, dy), its length |B1B2| and cos(alpha), the angle at B1 of
    the triangle (B1, B2, P) by the law of cosines. Returns
    ``(status, trig, b1, b2, dx, dy, dist, cos_alpha)``: status is INVALID
    when no point of the box can be assembled, INDETERMINATE at a possible
    B1 = B2 coincidence (cos_alpha is then None), else None.
    """
    t1, t2 = box.x, box.y
    trig = c1t, s1t, c2t, s2t = ref.cos(t1), ref.sin(t1), ref.cos(t2), ref.sin(t2)
    b1 = (ref.scale(c1t, g.L1), ref.scale(s1t, g.L1))
    b2 = (ref.shift(ref.scale(c2t, g.L2), g.L0), ref.scale(s2t, g.L2))
    dx = ref.sub(b2[0], b1[0])
    dy = ref.sub(b2[1], b1[1])
    dist = ref.norm2(dx, dy)
    if dist.lo > g.L3 + g.L4 or dist.hi < abs(g.L3 - g.L4):
        return Ternary.INVALID, trig, b1, b2, dx, dy, dist, None
    if dist.lo <= 0.0:
        # possible B1 = B2 coincidence: P would rotate freely around B1
        return Ternary.INDETERMINATE, trig, b1, b2, dx, dy, dist, None
    num = ref.shift(ref.sqr(dist), g.L3 * g.L3 - g.L4 * g.L4)
    cos_alpha = ref.div(num, ref.scale(dist, 2.0 * g.L3))
    if cos_alpha.lo > 1.0 or cos_alpha.hi < -1.0:
        return Ternary.INVALID, trig, b1, b2, dx, dy, dist, cos_alpha
    return None, trig, b1, b2, dx, dy, dist, cos_alpha


def _dkp_elbow_crosses(
    box: Box2,
    trig: tuple[Interval, Interval, Interval, Interval],
    g: FiveBarGeometry,
    dist: Interval,
    c: Interval,
    sin_alpha: Interval,
    branches: tuple[int, ...],
) -> list[tuple[Interval, Interval]]:
    """Elbow cross products (u_z, v_z) of each requested DKP branch.

    Tangential/radial projections of the base and opposite links give them
    without reconstructing the elbow angles (far tighter over wide boxes):
      u_z = L1 L3 / |B1B2| * (G1 cos a + branch H1 sin a)
      v_z = L2 L4 / |B1B2| * (-G2 cos a' + branch H2 sin a')
    where a' is the angle at B2 of the same triangle (B1, B2, P).
    """
    t1, t2 = box.x, box.y
    c1t, s1t, c2t, s2t = trig
    num2 = ref.shift(ref.sqr(dist), g.L4 * g.L4 - g.L3 * g.L3)
    c_prime = _clip_unit(ref.div(num2, ref.scale(dist, 2.0 * g.L4)))
    s_prime = ref.scale(sin_alpha, g.L3 / g.L4)
    s21, c21 = ref.sin(ref.sub(t2, t1)), ref.cos(ref.sub(t2, t1))
    g1 = ref.sub(ref.scale(s21, g.L2), ref.scale(s1t, g.L0))
    h1 = ref.shift(ref.add(ref.scale(c1t, g.L0), ref.scale(c21, g.L2)), -g.L1)
    g2 = ref.sub(ref.scale(s21, g.L1), ref.scale(s2t, g.L0))
    h2 = ref.shift(ref.sub(ref.scale(c2t, g.L0), ref.scale(c21, g.L1)), g.L2)
    crosses = []
    for branch in branches:
        u_z = ref.scale(
            ref.div(
                ref.add(ref.mul(g1, c), ref.scale(ref.mul(h1, sin_alpha), branch)), dist
            ),
            g.L1 * g.L3,
        )
        v_z = ref.scale(
            ref.div(
                ref.add(
                    -ref.mul(g2, c_prime), ref.scale(ref.mul(h2, s_prime), branch)
                ),
                dist,
            ),
            g.L2 * g.L4,
        )
        crosses.append((u_z, v_z))
    return crosses


def dkp_box(
    box: Box2, g: FiveBarGeometry, mode: Optional[AssemblyMode] = None
) -> DkpResult:
    """Solve the direct kinematic problem over a box of joint angles.

    The full solver: both branches with P, det(A), u_z and v_z. Quadtree
    builds use `joint_verdicts`, which return the same verdict without the
    enclosures it does not read.

    Without a mode the test is assemblability alone (the plain joint space).
    With a mode, validity additionally requires a solution branch whose
    det(A) cross-product enclosure strictly carries the requested sign.

    Enclosures are kept tight with two exact identities: P - B1 is the unit
    vector along B1->B2 rotated by +/- alpha and scaled by L3 (angle-sum
    expansion, no trig round trip), and the det(A) cross product equals
    branch * L3 * |B1B2| * sin(alpha).
    """
    status, trig, b1, b2, dx, dy, dist, cos_alpha = _dkp_triangle(box, g)
    if status is not None:
        return DkpResult(status, (), b1, b2)
    c = _clip_unit(cos_alpha)
    sin_alpha = _unit_sine(c)
    crosses = _dkp_elbow_crosses(box, trig, g, dist, c, sin_alpha, (1, -1))
    dxc, dyc = ref.mul(dx, c), ref.mul(dy, c)
    dxs, dys = ref.mul(dx, sin_alpha), ref.mul(dy, sin_alpha)
    solutions = []
    for branch, (u_z, v_z) in zip((1, -1), crosses):
        # (P - B1) = L3 / |B1B2| * Rot(branch * alpha) (dx, dy)
        ux = ref.scale(ref.div(ref.sub(dxc, ref.scale(dys, branch)), dist), g.L3)
        uy = ref.scale(ref.div(ref.add(dyc, ref.scale(dxs, branch)), dist), g.L3)
        p = (ref.add(b1[0], ux), ref.add(b1[1], uy))
        # identity: (B1-P) x (B2-P) = branch * L3 * |B1B2| * sin(alpha)
        det_a = ref.scale(ref.mul(dist, sin_alpha), branch * g.L3)
        solutions.append(DkpSolution(p, det_a, u_z, v_z))
    solutions = tuple(solutions)

    if cos_alpha.lo <= -1.0 or cos_alpha.hi >= 1.0:
        # box reaches a stretched/folded (collinear B1, P, B2) configuration
        return DkpResult(Ternary.INDETERMINATE, solutions, b1, b2)

    if mode is None:
        return DkpResult(Ternary.VALID, solutions, b1, b2)

    # both branches always exist here, with det(A) signs +branch certified
    # exactly when sin(alpha) is strictly positive over the box
    if sin_alpha.lo > 0.0:
        return DkpResult(Ternary.VALID, solutions, b1, b2)
    return DkpResult(Ternary.INDETERMINATE, solutions, b1, b2)


# --------------------------------------------------------------------------
# Inverse kinematics over workspace boxes
# --------------------------------------------------------------------------


def _ikp_legs(box: Box2, g: FiveBarGeometry):
    """Front half of the IKP (`ikp_box`; `workspace_verdicts` repeats it on arrays).

    Encloses the leg distances M1 = |A1P|, M2 = |A2P| and the cosines c1, c2
    of the angles at A1 and A2 between the base-to-P line and the proximal
    links. Returns ``(status, m1, m2, c1, c2)``: status is INVALID when no
    point of the box is reachable, INDETERMINATE when the box is not
    strictly inside both annuli or a divisor of c1, c2 rounds to 0 (c1, c2
    are then None), else None.
    """
    px, py = box.x, box.y
    m1 = ref.norm2(px, py)
    m2 = ref.norm2(ref.shift(px, -g.L0), py)
    r1_out, r1_in = g.L1 + g.L3, abs(g.L1 - g.L3)
    r2_out, r2_in = g.L2 + g.L4, abs(g.L2 - g.L4)
    if m1.lo > r1_out or m2.lo > r2_out:
        return Ternary.INVALID, m1, m2, None, None
    if m1.hi < r1_in or m2.hi < r2_in:
        return Ternary.INVALID, m1, m2, None, None
    # r_in >= 0, so strictness also keeps A1 and A2 out of the box
    strict = (
        m1.lo > r1_in and m2.lo > r2_in and m1.hi < r1_out and m2.hi < r2_out
    )
    d1, d2 = ref.scale(m1, 2.0 * g.L1), ref.scale(m2, 2.0 * g.L2)
    # a subnormal distance times a length may round to 0; the kernel's
    # `_vquot` leaves such a row undecided
    if not strict or d1.lo <= 0.0 or d2.lo <= 0.0:
        return Ternary.INDETERMINATE, m1, m2, None, None
    c1 = ref.div(ref.shift(ref.sqr(m1), g.L1 * g.L1 - g.L3 * g.L3), d1)
    c2 = ref.div(ref.shift(ref.sqr(m2), g.L2 * g.L2 - g.L4 * g.L4), d2)
    if c1.lo > 1.0 or c1.hi < -1.0 or c2.lo > 1.0 or c2.hi < -1.0:
        return Ternary.INVALID, m1, m2, c1, c2
    return None, m1, m2, c1, c2


def _ikp_det_a(
    box: Box2,
    g: FiveBarGeometry,
    m1: Interval,
    m2: Interval,
    s1: Interval,
    s2: Interval,
) -> Callable[[int, int], Interval]:
    """det(A) cross product of the IKP solution with elbow branches (i, j).

    Exact identity
      (B1-P) x (B2-P) = L3 L4 [L0 py (cd1 cd2 + ij sd1 sd2)
                               + S (i cd2 sd1 - j cd1 sd2)] / (M1 M2)
    where (cd1, sd1), (cd2, sd2) are the cosines/sines of the triangle
    angles at P and S = px (px - L0) + py^2 (evaluated as a sharp
    single-variable quadratic plus a sharp square). Where a divisor rounds
    to 0, as in `_ikp_legs`, the result is [-L3 L4, L3 L4], which holds any
    cross product of vectors of lengths L3 and L4 and has no sign.
    """
    px, py = box.x, box.y
    d1, d2, m1m2 = ref.scale(m1, 2.0 * g.L3), ref.scale(m2, 2.0 * g.L4), ref.mul(m1, m2)
    if min(d1.lo, d2.lo, m1m2.lo) <= 0.0:
        bound = math.nextafter(g.L3 * g.L4, math.inf)
        return lambda i, j: Interval(-bound, bound)
    cd1 = _clip_unit(ref.div(ref.shift(ref.sqr(m1), g.L3 * g.L3 - g.L1 * g.L1), d1))
    cd2 = _clip_unit(ref.div(ref.shift(ref.sqr(m2), g.L4 * g.L4 - g.L2 * g.L2), d2))
    sd1 = ref.scale(s1, g.L1 / g.L3)
    sd2 = ref.scale(s2, g.L2 / g.L4)
    s_quad = ref.add(
        ref.shift(ref.sqr(ref.shift(px, -g.L0 / 2)), -g.L0 * g.L0 / 4), ref.sqr(py)
    )
    cc = ref.mul(cd1, cd2)
    ss = ref.mul(sd1, sd2)
    cs = ref.mul(cd2, sd1)
    sc = ref.mul(cd1, sd2)

    def det_at(i: int, j: int) -> Interval:
        n = ref.add(
            ref.scale(ref.mul(py, ref.add(cc, ref.scale(ss, i * j))), g.L0),
            ref.mul(s_quad, ref.sub(ref.scale(cs, i), ref.scale(sc, j))),
        )
        return ref.scale(ref.div(n, m1m2), g.L3 * g.L4)

    return det_at


def ikp_box(
    box: Box2, g: FiveBarGeometry, mode: Optional[WorkingMode] = None
) -> IkpResult:
    """Solve the inverse kinematic problem over a box of workspace positions.

    The full solver: all four solutions with joint angles, elbows, u_z, v_z
    and det(A). Quadtree builds use `workspace_verdicts`, which return the
    same verdict without the enclosures it does not read, and pairing uses
    `ikp_witness`, which solves the one branch pair it reads.

    Validity requires strict containment of both leg distances in their
    reachable annuli; with a mode, also a solution branch pair whose u_z and
    v_z enclosures strictly carry the requested signs.
    """
    status, m1, m2, c1, c2 = _ikp_legs(box, g)
    if status is not None:
        return IkpResult(status, ())
    px, py = box.x, box.y
    clamped = (
        c1.lo < -1.0 or c1.hi > 1.0 or c2.lo < -1.0 or c2.hi > 1.0
    )
    c1c, c2c = _clip_unit(c1), _clip_unit(c2)
    s1 = _unit_sine(c1c)
    s2 = _unit_sine(c2c)
    beta1, _ = ref.acos(c1c)
    beta2, _ = ref.acos(c2c)
    # A1 and A2 lie outside the box, so neither angle has the origin flag set
    alpha1, _ = ref.atan2(py, px)
    alpha2, _ = ref.atan2(py, ref.shift(-px, g.L0))
    pi_minus_a2 = ref.shift(-alpha2, math.pi)
    qx = ref.shift(px, -g.L0)

    # elbows via angle-sum expansion of the known direction cosines; the
    # elbow cross products collapse to the exact identities
    # u_z = -branch * L1 * |A1P| * sin(beta1), v_z = -branch * L2 * |A2P| * sin(beta2)
    legs1 = []
    for i in (1, -1):
        t1 = ref.add(alpha1, beta1) if i > 0 else ref.sub(alpha1, beta1)
        cos_t1 = ref.div(ref.sub(ref.mul(px, c1c), ref.scale(ref.mul(py, s1), i)), m1)
        sin_t1 = ref.div(ref.add(ref.mul(py, c1c), ref.scale(ref.mul(px, s1), i)), m1)
        b1 = (ref.scale(cos_t1, g.L1), ref.scale(sin_t1, g.L1))
        u_z = ref.scale(ref.mul(m1, s1), -i * g.L1)
        legs1.append((i, t1, b1, u_z))
    legs2 = []
    for j in (1, -1):
        t2 = ref.add(pi_minus_a2, beta2) if j > 0 else ref.sub(pi_minus_a2, beta2)
        cos_p2 = ref.div(ref.sub(ref.mul(qx, c2c), ref.scale(ref.mul(py, s2), j)), m2)
        sin_p2 = ref.div(ref.add(ref.mul(py, c2c), ref.scale(ref.mul(qx, s2), j)), m2)
        b2 = (ref.shift(ref.scale(cos_p2, g.L2), g.L0), ref.scale(sin_p2, g.L2))
        v_z = ref.scale(ref.mul(m2, s2), -j * g.L2)
        legs2.append((j, t2, b2, v_z))

    det_at = _ikp_det_a(box, g, m1, m2, s1, s2)
    solutions = tuple(
        IkpSolution(t1, t2, u_z, v_z, b1, b2, det_at(i, j))
        for (i, t1, b1, u_z) in legs1
        for (j, t2, b2, v_z) in legs2
    )

    if clamped:
        return IkpResult(Ternary.INDETERMINATE, solutions)
    if mode is None:
        return IkpResult(Ternary.VALID, solutions)

    # all four working modes exist at every strictly reachable point; their
    # signs are certified exactly when both sines are strictly positive
    if s1.lo > 0.0 and s2.lo > 0.0:
        return IkpResult(Ternary.VALID, solutions)
    return IkpResult(Ternary.INDETERMINATE, solutions)


def configuration_at(
    t1: float, t2: float, g: FiveBarGeometry, branch: int = 1
) -> Optional[Configuration]:
    """Scalar forward solve: the DKP branch (+1: beta+alpha, -1: beta-alpha).

    Returns None when the configuration cannot be assembled.
    """
    b1, b2 = _scalar_elbows(t1, t2, g)
    dx, dy = b2[0] - b1[0], b2[1] - b1[1]
    dist = math.hypot(dx, dy)
    if dist == 0.0 or dist > g.L3 + g.L4 or dist < abs(g.L3 - g.L4):
        return None
    c = (dist * dist + g.L3 * g.L3 - g.L4 * g.L4) / (2.0 * g.L3 * dist)
    if abs(c) > 1.0:
        return None
    alpha = math.acos(c)
    beta = math.atan2(dy, dx)
    ang = beta + alpha if branch > 0 else beta - alpha
    p = (b1[0] + g.L3 * math.cos(ang), b1[1] + g.L3 * math.sin(ang))
    theta3 = math.atan2(p[1] - b1[1], p[0] - b1[0])
    theta4 = math.atan2(p[1] - b2[1], p[0] - b2[0])
    return Configuration(t1, t2, theta3, theta4, p, b1, b2)


def scalar_signs(cfg: Configuration, g: FiveBarGeometry) -> tuple[float, float, float]:
    """(det-A cross product, u_z, v_z) at a point configuration."""
    p, b1, b2 = cfg.p, cfg.b1, cfg.b2
    t_z = _cross(b1[0] - p[0], b1[1] - p[1], b2[0] - p[0], b2[1] - p[1])
    u_z = _cross(b1[0], b1[1], p[0] - b1[0], p[1] - b1[1])
    v_z = _cross(b2[0] - g.L0, b2[1], p[0] - b2[0], p[1] - b2[1])
    return t_z, u_z, v_z


def coincidence_configurations(
    g: FiveBarGeometry,
) -> tuple[tuple[float, float], ...]:
    """Joint angles at which the elbows B1 and B2 coincide.

    The coincidence point is the intersection of the circles of radius L1
    around A1 and L2 around A2; there are two mirror configurations (or one
    on the base line), and none when the circles do not meet.
    """
    x = (g.L0 * g.L0 + g.L1 * g.L1 - g.L2 * g.L2) / (2.0 * g.L0)
    y_sq = g.L1 * g.L1 - x * x
    if y_sq < 0.0:
        return ()
    y = math.sqrt(y_sq)
    out = []
    for yy in (y, -y):
        out.append((math.atan2(yy, x), math.atan2(yy, x - g.L0)))
        if y == 0.0:
            break
    return tuple(out)


# ---------------------------------------------------------------------------
# The bench CSV reader and the executed grid baseline
# ---------------------------------------------------------------------------


def parse_table(text: str) -> list[BenchRow]:
    """The rows of a `bench.emit_table` CSV."""
    reader = csv.reader(io.StringIO(text))
    header = next(reader)
    if header != CSV_HEADER:
        raise ValueError(f"unexpected CSV header {header!r}")
    rows = []
    for rec in reader:
        if not rec:
            continue
        space, mechanism, depth, n_quadtree, n_disc, k = rec
        row = BenchRow(space, mechanism, int(depth), int(n_quadtree))
        if row.n_disc != int(n_disc):
            raise ValueError(f"inconsistent n_disc in row {rec!r}")
        rows.append(row)
    return rows


def run_discretization(g: FiveBarGeometry, space: str, depth: int) -> tuple[int, int]:
    """Actually execute the grid baseline: classify every cell center.

    Returns (valid cells, total cells); the total is 2^(2*depth) by
    construction, which validates the analytic accounting.
    """
    box = space_box(g, space)
    classify_point = (
        point_classify_joint if space == JOINTSPACE else point_classify_workspace
    )
    n = 2**depth
    dx = box.x.width / n
    dy = box.y.width / n
    n_valid = 0
    n_calls = 0
    for i in range(n):
        cx = box.x.lo + (i + 0.5) * dx
        for j in range(n):
            cy = box.y.lo + (j + 0.5) * dy
            n_calls += 1
            if classify_point(cx, cy, g) == VALID:
                n_valid += 1
    return n_valid, n_calls


def module_functions(tree: ast.Module) -> list[tuple[str, ast.FunctionDef]]:
    """(qualified name, definition) of the functions and methods of a
    parsed module."""
    defs = [(n.name, n) for n in tree.body if isinstance(n, ast.FunctionDef)]
    return defs + [
        (f"{c.name}.{f.name}", f) for c in tree.body if isinstance(c, ast.ClassDef)
        for f in c.body if isinstance(f, ast.FunctionDef)
    ]
