"""Aspect computation: mode-combo classifiers, grouping of raw regions into
resolvable aspects (with periodic joint-space seams), pairing, and reports."""

import math

import pytest

from fivebar import mechanism as mech
from fivebar.aspects import (
    AspectSet,
    ModeCombo,
    PairingError,
    all_mode_combos,
    aspect_regions,
    aspect_report,
    compute_aspects,
    pair_regions,
    wrap_angle,
)
from fivebar.interval import Box2
from fivebar.mechanism import (
    JOINTSPACE,
    M1,
    M2,
    WORKSPACE,
    AssemblyMode,
    BoxClassifier,
    WorkingMode,
)
from fivebar.quadtree import (
    BLACK,
    black_area,
    build,
    label_regions,
    locate,
)

from helpers import coincidence_configurations

PI = math.pi
UNIT = Box2.from_bounds(0.0, 1.0, 0.0, 1.0)


# ---------------------------------------------------------------------------
# Mode combos
# ---------------------------------------------------------------------------


def test_eight_combos_with_panel_letters():
    combos = all_mode_combos()
    assert len(combos) == 8
    assert len(set(combos)) == 8
    assert [c.label for c in combos] == list("abcdefgh")
    assert str(combos[0]) == "+++"
    assert combos[0] == ModeCombo(WorkingMode(1, 1), AssemblyMode.POSITIVE)
    assert str(combos[-1]) == "---"


def test_wrap_angle():
    assert wrap_angle(0.0) == 0.0
    # +pi and -pi are the same configuration; either representative is fine
    assert abs(wrap_angle(3 * PI)) == pytest.approx(PI, abs=1e-12)
    assert wrap_angle(-PI - 0.1) == pytest.approx(PI - 0.1, abs=1e-12)
    assert -PI <= wrap_angle(123.456) <= PI


# ---------------------------------------------------------------------------
# Classifiers
# ---------------------------------------------------------------------------


def test_jointspace_classifier_examples():
    combo = ModeCombo(WorkingMode(1, 1), AssemblyMode.POSITIVE)
    classify = BoxClassifier(JOINTSPACE, M1, combo.wm, combo.am)
    # elbows certifiably out of reach of the distal links
    assert classify(Box2.from_bounds(PI - 0.01, PI, 0.0, 0.01)) == -1
    # a box around the elbow-coincidence configuration stays undecided
    (t1, t2), _ = coincidence_configurations(M2)
    classify_m2 = BoxClassifier(JOINTSPACE, M2, combo.wm, combo.am)
    for half_width in (0.1, 1e-3, 1e-6):
        box = Box2.from_bounds(
            t1 - half_width, t1 + half_width, t2 - half_width, t2 + half_width
        )
        assert classify_m2(box) == 0


def test_jointspace_classifier_point_convergence():
    # a nonsingular reachable configuration is certified at small box size,
    # for exactly one combo per assembly branch
    t1, t2 = 1.1, 2.0
    box = Box2.from_bounds(t1 - 1e-3, t1 + 1e-3, t2 - 1e-3, t2 + 1e-3)
    verdicts = {
        str(c): BoxClassifier(JOINTSPACE, M2, c.wm, c.am)(box) for c in all_mode_combos()
    }
    assert sorted(verdicts.values()) == [-1, -1, -1, -1, -1, -1, 1, 1]


def test_workspace_classifier_examples():
    combo = ModeCombo(WorkingMode(1, 1), AssemblyMode.NEGATIVE)
    classify = BoxClassifier(WORKSPACE, M1, combo.wm, combo.am)
    assert classify(Box2.from_bounds(49, 51, -1, 1)) == -1
    # box containing the point hole of M2 at A1 is never certified valid
    classify_m2 = BoxClassifier(WORKSPACE, M2, combo.wm, combo.am)
    for half_width in (0.1, 1e-3, 1e-6):
        assert (
            classify_m2(
                Box2.from_bounds(-half_width, half_width, -half_width, half_width)
            )
            <= 0
        )


def test_workspace_classifier_valid_box():
    # around (4.5, 6) for M1, each assembly mode certifies for one combo of
    # each working-mode choice
    box = Box2.from_bounds(4.45, 4.55, 5.95, 6.05)
    verdicts = {
        str(c): BoxClassifier(WORKSPACE, M1, c.wm, c.am)(box) for c in all_mode_combos()
    }
    assert sum(1 for v in verdicts.values() if v == 1) == 4
    assert all(v != 0 for v in verdicts.values())


# ---------------------------------------------------------------------------
# aspect_regions: sub-resolution filter and periodic seams
# ---------------------------------------------------------------------------


def _cells_classifier(black_cells: set[tuple[int, int]], n: int):
    """Classifier that is valid exactly on a given set of n x n grid cells."""

    def classify(box: Box2) -> int:
        ix_lo = int(round(box.x.lo * n))
        ix_hi = int(round(box.x.hi * n))
        iy_lo = int(round(box.y.lo * n))
        iy_hi = int(round(box.y.hi * n))
        covered = {
            (ix, iy)
            for ix in range(ix_lo, ix_hi)
            for iy in range(iy_lo, iy_hi)
        }
        if covered <= black_cells:
            return 1
        if not (covered & black_cells):
            return -1
        return 0

    return classify


def test_aspect_regions_keeps_resolvable_regions():
    # two 2x2 blocks (resolvable at d_max = 3) in opposite corners
    cells = {(0, 0), (0, 1), (1, 0), (1, 1), (6, 6), (6, 7), (7, 6), (7, 7)}
    m = build(UNIT, 3, _cells_classifier(cells, 8))
    labels = label_regions(m)
    assert labels.region_count == 2
    aspects = aspect_regions(m, labels)
    assert len(aspects) == 2
    assert {a.aspect_id for a in aspects} == {0, 1}
    for a in aspects:
        assert a.area == pytest.approx(4 / 64)


def test_aspect_regions_drops_sub_resolution_fragments():
    # single minimum-size cells: no certified interior above the accuracy
    cells = {(0, 0), (5, 5)}
    m = build(UNIT, 3, _cells_classifier(cells, 8))
    labels = label_regions(m)
    assert labels.region_count == 2
    assert aspect_regions(m, labels) == ()


def test_aspect_regions_mixed_keeps_only_resolvable():
    # one 2x2 block plus one lone minimum-size cell
    cells = {(0, 0), (0, 1), (1, 0), (1, 1), (6, 6)}
    m = build(UNIT, 3, _cells_classifier(cells, 8))
    labels = label_regions(m)
    assert labels.region_count == 2
    aspects = aspect_regions(m, labels)
    assert len(aspects) == 1
    assert aspects[0].area == pytest.approx(4 / 64)


def test_aspect_regions_merges_across_seams_when_wrapped():
    # two blocks touching opposite x edges on the same rows: distinct raw
    # regions, one aspect once the box is treated as periodic
    cells = {(0, 0), (0, 1), (1, 0), (1, 1), (6, 0), (6, 1), (7, 0), (7, 1)}
    m = build(UNIT, 3, _cells_classifier(cells, 8))
    labels = label_regions(m)
    assert labels.region_count == 2
    flat = aspect_regions(m, labels, wrap=False)
    wrapped = aspect_regions(m, labels, wrap=True)
    assert len(flat) == 2
    assert len(wrapped) == 1
    assert wrapped[0].region_ids == (0, 1)
    assert wrapped[0].area == pytest.approx(8 / 64)


def test_aspect_regions_no_seam_merge_for_corner_contact():
    # blocks touching opposite x edges on disjoint rows: the wrap-around
    # contact has zero edge length, so they stay separate
    cells = {(0, 0), (0, 1), (1, 0), (1, 1), (6, 6), (6, 7), (7, 6), (7, 7)}
    m = build(UNIT, 3, _cells_classifier(cells, 8))
    labels = label_regions(m)
    wrapped = aspect_regions(m, labels, wrap=True)
    assert len(wrapped) == 2


def test_aspect_ids_ordered_by_descending_area():
    cells = {(0, 0), (0, 1), (1, 0), (1, 1)} | {
        (ix, iy) for ix in range(4, 8) for iy in range(4, 8)
    }
    m = build(UNIT, 3, _cells_classifier(cells, 8))
    aspects = aspect_regions(m, label_regions(m))
    assert len(aspects) == 2
    assert aspects[0].area > aspects[1].area
    assert aspects[0].aspect_id == 0


# ---------------------------------------------------------------------------
# compute_aspects and pairing
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def m2_aspects_d6() -> list[AspectSet]:
    return [compute_aspects(M2, combo, 6) for combo in all_mode_combos()]


def test_compute_aspects_pairing_is_total_and_functional(m2_aspects_d6):
    for aset in m2_aspects_d6:
        assert len(aset.pairing) == len(aset.workspace_aspects)
        parallel_ids = [e.parallel_aspect for e in aset.pairing]
        assert len(set(parallel_ids)) == len(parallel_ids)
        serial_ids = {a.aspect_id for a in aset.jointspace_aspects}
        for e in aset.pairing:
            assert e.serial_aspect in serial_ids


def test_compute_aspects_witnesses_are_black_on_black(m2_aspects_d6):
    for aset in m2_aspects_d6:
        for e in aset.pairing:
            kind_w, _ = locate(aset.workspace, *e.witness_workspace)
            kind_q, _ = locate(aset.jointspace, *e.witness_joint)
            assert kind_w == BLACK
            assert kind_q == BLACK


def test_compute_aspects_no_black_leaves_no_pairing():
    # a joint-space box far outside reach for M1: all-White trees, no error
    aset = compute_aspects(
        M1,
        all_mode_combos()[0],
        2,
        jointspace_box=Box2.from_bounds(PI - 0.01, PI, 0.0, 0.01),
        workspace_box=Box2.from_bounds(40.0, 50.0, 40.0, 50.0),
    )
    assert aset.pairing == ()
    assert aset.workspace_aspects == ()


def test_pairing_error_when_joint_tree_has_no_black_leaf(m2_aspects_d6):
    aset = m2_aspects_d6[0]
    empty_joint = build(
        mech.default_jointspace_box(), 2, lambda box: -1
    )
    with pytest.raises(PairingError):
        pair_regions(
            M2,
            aset.combo,
            aset.workspace,
            aset.workspace_aspects,
            empty_joint,
            label_regions(empty_joint),
            (),
        )


def test_black_box_samples_match_combo_signs(m2_aspects_d6):
    import numpy as np

    from fivebar.quadtree import sample_black_points

    rng = np.random.default_rng(41)
    for aset in m2_aspects_d6[:4]:
        combo = (aset.combo.wm, aset.combo.am)
        for x, y in sample_black_points(aset.workspace, 100, rng):
            assert mech.point_classify_workspace(x, y, M2, combo) == mech.VALID
        for t1, t2 in sample_black_points(aset.jointspace, 100, rng):
            assert mech.point_classify_joint(t1, t2, M2, combo) == mech.VALID


# ---------------------------------------------------------------------------
# report
# ---------------------------------------------------------------------------


def test_aspect_report_summaries_and_overlaps(m2_aspects_d6):
    report = aspect_report(m2_aspects_d6)
    assert len(report.combos) == 8
    for summary, aset in zip(report.combos, m2_aspects_d6):
        assert summary.combo == str(aset.combo)
        assert summary.parallel_aspects == len(aset.workspace_aspects)
        assert summary.serial_aspects == len(aset.jointspace_aspects)

    overlaps = {(e.am, e.wm_a, e.wm_b): e.area for e in report.overlaps}
    # 2 assembly modes x 4 working modes squared
    assert len(overlaps) == 32
    for (am, wa, wb), area in overlaps.items():
        assert area == overlaps[(am, wb, wa)]  # symmetric
    # self-overlap equals the tree's whole Black area (fragments included)
    for aset in m2_aspects_d6:
        am, wm = str(aset.combo.am), str(aset.combo.wm)
        assert overlaps[(am, wm, wm)] == pytest.approx(
            black_area(aset.jointspace), rel=1e-12
        )


def test_aspect_report_deterministic(m2_aspects_d6):
    a = aspect_report(m2_aspects_d6)
    b = aspect_report(m2_aspects_d6)
    assert a == b
