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
    # flip y: the svg y of a rect is measured from the top of the viewBox
    y_svg = y_lo + (y_hi - t.y_hi[rows])
    width = t.x_hi[rows] - t.x_lo[rows]
    height = t.y_hi[rows] - t.y_lo[rows]
    for i, kind, x, y, w, h in zip(
        rows.tolist(), t.kind[rows].tolist(), t.x_lo[rows].tolist(),
        y_svg.tolist(), width.tolist(), height.tolist(),
    ):
        if kind != CODE_BLACK:
            fill = style.undetermined_fill
        elif labels is not None:
            rid = labels.leaf_to_region[t.paths[i]]
            fill = style.palette[rid % len(style.palette)]
        else:
            fill = style.palette[0]
        out.append(
            f'<rect x="{x!r}" y="{y!r}" width="{w!r}" height="{h!r}" '
            f'fill="{fill}"{stroke_attr}/>'
        )
    out.append("</svg>")
    return "\n".join(out) + "\n"
