"""Deterministic SVG rendering of quadtree models.

Leaf boxes are exact axis-aligned rectangles, so SVG (one rect per Black
leaf, preorder) reproduces the model with no resampling. The y axis is
flipped so that +y points up, matching the mathematical convention.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .quadtree import (
    CODE_BLACK,
    CODE_UNDET,
    QuadtreeModel,
    RegionLabeling,
)

DEFAULT_PALETTE = (
    "#1f77b4",
    "#ff7f0e",
    "#2ca02c",
    "#d62728",
    "#9467bd",
    "#8c564b",
    "#e377c2",
    "#7f7f7f",
    "#bcbd22",
    "#17becf",
)


@dataclass(frozen=True)
class RenderStyle:
    palette: tuple[str, ...] = DEFAULT_PALETTE
    show_undetermined: bool = False
    undetermined_fill: str = "#cccccc"
    stroke: str = "none"
    stroke_width: float = 0.0

    def __post_init__(self):
        if not self.palette:
            raise ValueError("palette must not be empty")


def _fmt(x: float) -> str:
    return repr(float(x))


def _reprs(col: np.ndarray) -> list[str]:
    """``repr`` of each float of ``col``, called once per distinct bit
    pattern (so -0.0 keeps its own text)."""
    bits, inverse = np.unique(col.view(np.int64), return_inverse=True)
    text = np.array([repr(v) for v in bits.view(np.float64).tolist()], dtype=object)
    return text[inverse].tolist()


def render_svg(
    m: QuadtreeModel,
    labels: Optional[RegionLabeling] = None,
    style: RenderStyle = RenderStyle(),
) -> str:
    box = m.root_box
    y_lo, y_hi = box.y.lo, box.y.hi
    view = f"{_fmt(box.x.lo)} {_fmt(y_lo)} {_fmt(box.x.width)} {_fmt(box.y.width)}"
    out = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" viewBox="{view}">',
    ]
    stroke_attr = ""
    if style.stroke != "none" and style.stroke_width > 0:
        stroke_attr = f' stroke="{style.stroke}" stroke-width="{_fmt(style.stroke_width)}"'
    t = m.table
    shown = t.kind == CODE_BLACK
    if style.show_undetermined:
        shown |= t.kind == CODE_UNDET
    rows = np.flatnonzero(shown)
    black = t.kind[rows] == CODE_BLACK
    fill = np.full(len(rows), style.undetermined_fill, dtype=object)
    if labels is None:
        fill[black] = style.palette[0]
    else:
        palette = np.array(style.palette, dtype=object)
        region = map(labels.leaf_index_to_region.__getitem__, rows[black].tolist())
        fill[black] = palette[np.fromiter(region, dtype=np.int64) % len(palette)]
    # flip y: the svg y of a rect is measured from the top of the viewBox
    y_svg = y_lo + (y_hi - t.y_hi[rows])
    width = t.x_hi[rows] - t.x_lo[rows]
    height = t.y_hi[rows] - t.y_lo[rows]
    out += [
        f'<rect x="{x}" y="{y}" width="{w}" height="{h}" fill="{f}"{stroke_attr}/>'
        for x, y, w, h, f in zip(
            _reprs(t.x_lo[rows]), _reprs(y_svg), _reprs(width), _reprs(height),
            fill.tolist(),
        )
    ]
    out.append("</svg>")
    return "\n".join(out) + "\n"
