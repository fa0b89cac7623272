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
    point_classify_joint,
    point_classify_workspace,
    VALID,
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


def parse_table(text: str) -> list[BenchRow]:
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
