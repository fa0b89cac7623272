"""Cost comparison: quadtree build vs naive grid discretization.

The unit of cost is one kinematic box test (DKP or IKP invocation). A
uniform grid at depth d needs 2^(2d) center-point tests; the quadtree
needs one test per visited box. K is their ratio.
"""

from __future__ import annotations

import io
import csv
from dataclasses import dataclass
from typing import Sequence

from .interval import Box2
from .mechanism import (
    JOINTSPACE,
    WORKSPACE,
    BoxClassifier,
    FiveBarGeometry,
    default_jointspace_box,
    default_workspace_box,
)
from .quadtree import build

SPACES = (JOINTSPACE, WORKSPACE)


@dataclass(frozen=True)
class BenchRow:
    space: str
    mechanism: str
    depth: int
    n_quadtree: int

    @property
    def n_disc(self) -> int:
        return 2 ** (2 * self.depth)

    @property
    def k_ratio(self) -> float:
        return self.n_quadtree / self.n_disc


def space_box(g: FiveBarGeometry, space: str) -> Box2:
    if space == JOINTSPACE:
        return default_jointspace_box()
    if space == WORKSPACE:
        return default_workspace_box(g)
    raise ValueError(f"unknown space {space!r}")


def space_classifier(g: FiveBarGeometry, space: str) -> BoxClassifier:
    """The mode-free classifier: plain assemblability / reachability."""
    return BoxClassifier(space, g)


def run_bench(
    g: FiveBarGeometry,
    space: str,
    depths: Sequence[int],
    mechanism: str = "custom",
) -> list[BenchRow]:
    if not depths or any(d < 1 for d in depths):
        raise ValueError("depths must be a nonempty list of integers >= 1")
    box = space_box(g, space)
    classify = space_classifier(g, space)
    rows = []
    for d in depths:
        model = build(box, d, classify)
        rows.append(BenchRow(space, mechanism, d, model.stats.calls))
    return rows


CSV_HEADER = ["space", "mechanism", "depth", "n_quadtree", "n_disc", "K"]


def emit_table(rows: Sequence[BenchRow]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_HEADER)
    for row in rows:
        writer.writerow(
            [
                row.space,
                row.mechanism,
                row.depth,
                row.n_quadtree,
                row.n_disc,
                f"{100.0 * row.k_ratio:.2f}%",
            ]
        )
    return buf.getvalue()

