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
    QuadtreeModel,
    RegionLabeling,
    build,
    components,
    label_regions,
    locate,
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


def jointspace_classifier(combo: ModeCombo, g: FiveBarGeometry) -> BoxClassifier:
    """Box classifier for the serial aspect of a mode combo.

    A joint-space box is valid when the DKP branch for the assembly mode is
    certified nonsingular and the elbow cross products at that branch carry
    the combo's working-mode signs over the whole box.
    """
    return BoxClassifier(JOINTSPACE, g, combo.wm, combo.am)


def workspace_classifier(combo: ModeCombo, g: FiveBarGeometry) -> BoxClassifier:
    """Box classifier for the parallel aspect of a mode combo.

    A workspace box is valid when the working mode's IKP solution is
    certified over the whole box and its det(A) cross product carries the
    combo's assembly-mode sign.
    """
    return BoxClassifier(WORKSPACE, g, combo.wm, combo.am)


def wrap_angle(t: float) -> float:
    """Reduce an angle into [-pi, pi]."""
    return math.remainder(t, math.tau)


@dataclass(frozen=True)
class AspectRegion:
    """One resolvable aspect: a group of raw label regions.

    In the workspace the group is a single raw region; in the joint space it
    may merge several raw regions connected through the +/-pi seams.
    """

    aspect_id: int
    region_ids: tuple[int, ...]
    area: float
    leaf_paths: tuple[str, ...]


def _seam_pairs(model: QuadtreeModel, labels: RegionLabeling) -> list[tuple[int, int]]:
    """Raw region pairs whose Black leaves adjoin through opposite box edges."""
    root = model.root_box
    t = model.table
    black = t.kind == CODE_BLACK
    pairs = []
    for own_lo, own_hi, other_lo, other_hi, bounds in (
        (t.x_lo, t.x_hi, t.y_lo, t.y_hi, (root.x.lo, root.x.hi)),
        (t.y_lo, t.y_hi, t.x_lo, t.x_hi, (root.y.lo, root.y.hi)),
    ):
        lo_side, hi_side = [
            list(zip(
                other_lo[rows].tolist(),
                other_hi[rows].tolist(),
                [labels.leaf_index_to_region[i] for i in rows.tolist()],
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


def aspect_regions(
    model: QuadtreeModel, labels: RegionLabeling, wrap: bool = False
) -> tuple[AspectRegion, ...]:
    """Group raw regions into resolvable aspects.

    With ``wrap`` (joint space) regions touching through opposite box edges
    are merged, because the angles are periodic. A group qualifies as an
    aspect only if it contains a Black leaf above the minimum size, i.e. its
    certified interior exceeds the model accuracy. Aspect ids are assigned
    by descending area, ties by smallest raw region id.
    """
    pairs = np.array(_seam_pairs(model, labels) if wrap else [], dtype=np.int64)
    root = components(labels.region_count, *pairs.reshape(-1, 2).T).tolist()
    groups: dict[int, list[int]] = {}
    for region in labels.regions:
        groups.setdefault(root[region.region_id], []).append(region.region_id)
    by_id = {r.region_id: r for r in labels.regions}
    kept = []
    for ids in groups.values():
        resolvable = any(
            len(path) < model.max_depth
            for rid in ids
            for path in by_id[rid].leaf_paths
        )
        if not resolvable:
            continue
        area = sum(by_id[rid].area for rid in ids)
        paths = tuple(p for rid in sorted(ids) for p in by_id[rid].leaf_paths)
        kept.append((area, tuple(sorted(ids)), paths))
    kept.sort(key=lambda t: (-t[0], t[1]))
    return tuple(
        AspectRegion(i, ids, area, paths)
        for i, (area, ids, paths) in enumerate(kept)
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
        workspace_classifier(combo, g),
    )
    q_model = build(
        jointspace_box or default_jointspace_box(),
        d_max,
        jointspace_classifier(combo, g),
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
    t = w_model.table
    row_of = {path: i for i, path in enumerate(t.paths)}
    areas = t.area.tolist()
    serial_of = {
        rid: a.aspect_id for a in q_aspects for rid in a.region_ids
    }
    entries = []
    for aspect in w_aspects:
        # witness candidates: Black leaves of the aspect, biggest first (the
        # biggest leaf sits farthest from the uncertain frontier); thin
        # aspects may need a fallback when the primary witness's joint image
        # is still unresolved at this depth
        candidates = sorted(
            (row_of[p] for p in aspect.leaf_paths), key=lambda i: (-areas[i], i)
        )
        entry = None
        failure = None
        for i in candidates:
            # the leaf box's Interval.mid
            x0, x1, y0, y1 = (float(v[i]) for v in (t.x_lo, t.x_hi, t.y_lo, t.y_hi))
            wx, wy = x0 + (x1 - x0) / 2, y0 + (y1 - y0) / 2
            theta = ikp_witness(wx, wy, g, combo.wm)
            if theta is None:
                failure = failure or (
                    f"witness ({wx}, {wy}) has no certified IKP solution"
                )
                continue
            t1, t2 = (wrap_angle(t) for t in theta)
            kind, path = locate(q_model, t1, t2)
            if kind != BLACK:
                failure = failure or (
                    f"joint witness ({t1}, {t2}) landed on a {kind} leaf"
                )
                continue
            serial = serial_of.get(q_labels.leaf_to_region[path])
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
    by walking the two trees together (they all share the same box), times
    the area of one cell.
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
