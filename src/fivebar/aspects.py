"""Singularity-free domains (aspects) per mode combination.

For each of the 8 combinations of working mode (4) and assembly mode (2)
we build one quadtree over the workspace and one over the joint space,
label their connected Black regions, and pair every workspace (parallel)
aspect with the joint-space (serial) aspect it projects onto, using a
single witness point per aspect.

An aspect is a connected certified region at the resolution of the model,
which differs from the raw Black-leaf labeling in two ways:

* The joint space is a torus: theta = -pi and theta = +pi are the same
  configuration, so regions adjacent through the box seams are one aspect.
* The accuracy of a quadtree of depth d over a box of side b is b/2^d;
  the smallest leaves trace the uncertain frontier. A region made only of
  smallest-size leaves has no certified interior at that accuracy and is a
  sub-resolution fragment, not a resolvable aspect. Fragments stay in the
  raw labeling but carry no aspect id and are not paired.

Regions and aspects are rows of the leaf table: the raw labeling is a
region id per row, an aspect lists its Black rows, and a witness lands on
the row of the joint-space leaf that contains it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .interval import Box2
from .mechanism import (
    JOINTSPACE,
    WORKSPACE,
    AssemblyMode,
    BoxClassifier,
    FiveBarGeometry,
    WorkingMode,
    default_jointspace_box,
    default_workspace_box,
    ikp_witness,
)
from .quadtree import (
    BLACK,
    CODE_BLACK,
    KIND_LETTER,
    QuadtreeModel,
    RegionLabeling,
    _black_edges,
    _locate_row,
    build,
    components,
    label_regions,
    shared_black_cells,
)


class PairingError(RuntimeError):
    """A region witness failed to land on a Black joint-space leaf."""


@dataclass(frozen=True)
class ModeCombo:
    wm: WorkingMode
    am: AssemblyMode

    @property
    def label(self) -> str:
        """Panel letter (a)-(h), in (s1, s2, am) enumeration order."""
        return "abcdefgh"[all_mode_combos().index(self)]

    def __str__(self) -> str:
        return f"{self.wm}{self.am}"


def all_mode_combos() -> list[ModeCombo]:
    """The 8 combos in fixed (s1, s2, am) order, mapped to panels (a)-(h)."""
    return [
        ModeCombo(WorkingMode(s1, s2), AssemblyMode(am))
        for s1 in (1, -1)
        for s2 in (1, -1)
        for am in (1, -1)
    ]


def wrap_angle(t: float) -> float:
    """Reduce an angle into [-pi, pi]."""
    return math.remainder(t, math.tau)


@dataclass(frozen=True, eq=False)
class AspectRegion:
    """One resolvable aspect: a group of raw label regions and their Black
    leaf rows, in preorder.

    In the workspace the group is a single raw region; in the joint space it
    may merge several raw regions connected through the +/-pi seams.
    """

    aspect_id: int
    region_ids: tuple[int, ...]
    area: float
    rows: np.ndarray


def _seam_pairs(model: QuadtreeModel, labels: RegionLabeling) -> tuple[np.ndarray, ...]:
    """Raw region pairs (a[k], b[k]) whose Black leaves adjoin through
    opposite box edges."""
    t = model.table
    black = np.flatnonzero(t.kind == CODE_BLACK)
    a, b = _black_edges(t, black, seams=True)
    return labels.region[black[a]], labels.region[black[b]]


def aspect_regions(
    model: QuadtreeModel, labels: RegionLabeling, wrap: bool = False
) -> tuple[AspectRegion, ...]:
    """Group raw regions into resolvable aspects.

    With ``wrap`` (joint space) regions touching through opposite box edges
    are merged, because the angles are periodic; their Black leaves are
    found by the cell probes of labeling, taken across the box edges with
    the cells mod 2^depth. A group qualifies as an
    aspect only if it contains a Black leaf above the minimum size, i.e. its
    certified interior exceeds the model accuracy. Aspect ids are assigned
    by descending area, ties by smallest raw region id.
    """
    n = labels.region_count
    root = components(n, *_seam_pairs(model, labels)) if wrap else np.arange(n)
    black = np.flatnonzero(labels.region >= 0)
    group = root[labels.region[black]]  # the smallest region id of its group
    order = np.argsort(group, kind="stable")  # each group's rows in preorder
    kept = []
    for rows in np.split(black[order], np.flatnonzero(np.diff(group[order])) + 1):
        if not (model.table.level[rows] < model.max_depth).any():
            continue  # only smallest-size leaves: a sub-resolution fragment
        ids = tuple(np.unique(labels.region[rows]).tolist())
        kept.append((sum(labels.area[i] for i in ids), ids, rows))
    kept.sort(key=lambda t: (-t[0], t[1]))
    return tuple(
        AspectRegion(i, ids, area, rows)
        for i, (area, ids, rows) in enumerate(kept)
    )


@dataclass(frozen=True)
class PairingEntry:
    parallel_aspect: int
    serial_aspect: int
    witness_workspace: tuple[float, float]
    witness_joint: tuple[float, float]
    area: float  # workspace area of the parallel aspect


@dataclass
class AspectSet:
    combo: ModeCombo
    workspace: QuadtreeModel
    workspace_labels: RegionLabeling
    workspace_aspects: tuple[AspectRegion, ...]
    jointspace: QuadtreeModel
    jointspace_labels: RegionLabeling
    jointspace_aspects: tuple[AspectRegion, ...]
    pairing: tuple[PairingEntry, ...]


def compute_aspects(
    g: FiveBarGeometry,
    combo: ModeCombo,
    d_max: int,
    workspace_box: Optional[Box2] = None,
    jointspace_box: Optional[Box2] = None,
) -> AspectSet:
    """Build and pair the parallel and serial aspects of one mode combo.

    The witness for each parallel aspect is the center of its largest Black
    leaf; its inverse-kinematic image for the combo's working mode must land
    on a Black leaf of the joint-space tree, else PairingError is raised.
    """
    w_model = build(
        workspace_box or default_workspace_box(g),
        d_max,
        BoxClassifier(WORKSPACE, g, combo.wm, combo.am),
    )
    q_model = build(
        jointspace_box or default_jointspace_box(),
        d_max,
        BoxClassifier(JOINTSPACE, g, combo.wm, combo.am),
    )
    w_labels = label_regions(w_model)
    q_labels = label_regions(q_model)
    w_aspects = aspect_regions(w_model, w_labels)
    q_aspects = aspect_regions(q_model, q_labels, wrap=True)
    pairing = pair_regions(
        g, combo, w_model, w_aspects, q_model, q_labels, q_aspects
    )
    return AspectSet(
        combo, w_model, w_labels, w_aspects, q_model, q_labels, q_aspects, pairing
    )


def pair_regions(
    g: FiveBarGeometry,
    combo: ModeCombo,
    w_model: QuadtreeModel,
    w_aspects: tuple[AspectRegion, ...],
    q_model: QuadtreeModel,
    q_labels: RegionLabeling,
    q_aspects: tuple[AspectRegion, ...],
) -> tuple[PairingEntry, ...]:
    serial_of = {
        rid: a.aspect_id for a in q_aspects for rid in a.region_ids
    }
    entries = []
    for aspect in w_aspects:
        # witness candidates: Black leaves of the aspect, biggest first (the
        # biggest leaf sits farthest from the uncertain frontier); thin
        # aspects may need a fallback when the primary witness's joint image
        # is still unresolved at this depth
        rows = aspect.rows
        rows = rows[np.lexsort((rows, -w_model.area(rows)))]
        entry = None
        failure = None
        for x0, x1, y0, y1 in zip(*(b.tolist() for b in w_model.bounds(rows))):
            # the leaf box's Interval.mid
            wx, wy = x0 + (x1 - x0) / 2, y0 + (y1 - y0) / 2
            theta = ikp_witness(wx, wy, g, combo.wm)
            if theta is None:
                failure = failure or (
                    f"witness ({wx}, {wy}) has no certified IKP solution"
                )
                continue
            t1, t2 = (wrap_angle(t) for t in theta)
            row = _locate_row(q_model, t1, t2)
            kind = KIND_LETTER[int(q_model.table.kind[row])]
            if kind != BLACK:
                failure = failure or (
                    f"joint witness ({t1}, {t2}) landed on a {kind} leaf"
                )
                continue
            serial = serial_of.get(int(q_labels.region[row]))
            if serial is None:
                failure = failure or (
                    f"joint witness ({t1}, {t2}) landed on a sub-resolution fragment"
                )
                continue
            entry = PairingEntry(
                aspect.aspect_id, serial, (wx, wy), (t1, t2), aspect.area
            )
            break
        if entry is None:
            raise PairingError(
                f"combo {combo}, parallel aspect {aspect.aspect_id}: {failure}"
            )
        entries.append(entry)
    return tuple(entries)


@dataclass(frozen=True)
class ComboSummary:
    combo: str
    panel: str
    parallel_aspects: int
    serial_aspects: int
    parallel_area: float
    serial_area: float


@dataclass(frozen=True)
class OverlapEntry:
    am: str
    wm_a: str
    wm_b: str
    area: float  # joint-space area shared by the two serial aspects


@dataclass
class AspectReport:
    combos: tuple[ComboSummary, ...]
    overlaps: tuple[OverlapEntry, ...]


def aspect_report(sets: list[AspectSet]) -> AspectReport:
    """Summaries plus the serial-aspect overlap matrix per assembly mode.

    The joint-space overlap between two working modes is the necessary
    condition for a trajectory that changes working mode once. Its area is
    the count of finest-grid cells Black in both joint-space trees, found
    from the key ranges of their Black leaves (they all share the same box
    and depth), times the area of one cell.
    """
    combos = tuple(
        ComboSummary(
            str(s.combo),
            s.combo.label,
            len(s.workspace_aspects),
            len(s.jointspace_aspects),
            sum(a.area for a in s.workspace_aspects),
            sum(a.area for a in s.jointspace_aspects),
        )
        for s in sets
    )
    cell_areas = {}
    for s in sets:
        box = s.jointspace.root_box
        n = 2**s.jointspace.max_depth
        cell_areas[s.combo] = (box.x.width / n) * (box.y.width / n)
    overlaps = []
    by_am: dict[AssemblyMode, list[AspectSet]] = {}
    for s in sets:
        by_am.setdefault(s.combo.am, []).append(s)
    for am, group in by_am.items():
        for sa in group:
            for sb in group:
                cells = shared_black_cells(sa.jointspace, sb.jointspace)
                area = float(cells * cell_areas[sa.combo])
                overlaps.append(
                    OverlapEntry(str(am), str(sa.combo.wm), str(sb.combo.wm), area)
                )
    return AspectReport(combos, tuple(overlaps))
