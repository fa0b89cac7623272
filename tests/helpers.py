"""Shared test utilities: tight-enclosure assertions, deterministic random
trees, and a flood-fill region oracle independent of the library's labeling.

The oracle reads its own raster, filled by a recursive walk of the model's
text form; it shares no code with the library's leaf table.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy import ndimage

from fivebar.interval import Box2
from fivebar.quadtree import (
    CODE_BLACK,
    GRAY,
    KIND_CODE,
    QuadtreeModel,
    RegionLabeling,
    build,
    serialize,
)


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
    walk of the model's text form with `Box2.subdivide`."""
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
        for i, child in enumerate(box.subdivide()):
            visit(child, path + str(i))

    visit(m.root_box, "")
    return leaves


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
        lut = np.full(len(leaves), -1, dtype=np.int32)
        for leaf_idx, region_id in labels.leaf_index_to_region.items():
            lut[leaf_idx] = region_id
        regions = lut[leaf_index]
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
