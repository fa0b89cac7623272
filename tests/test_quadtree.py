"""Quadtree building, refinement, serialization, the leaf table, location,
and connected-component labeling (checked against a scipy flood fill)."""

import math
import re
import tracemalloc

import numpy as np
import pytest

from fivebar import mechanism as mech
from fivebar import bench
from fivebar.interval import Box2, DomainError
from fivebar.quadtree import (
    BLACK,
    CODE_BLACK,
    CODE_UNDET,
    CODE_WHITE,
    GRAY,
    KIND_CODE,
    MAX_DEPTH,
    UNDETERMINED,
    WHITE,
    ParseError,
    black_area,
    build,
    collect_leaves,
    deserialize,
    label_regions,
    leaf_table,
    locate,
    mismatched_leaves,
    refine,
    sample_black_points,
    serialize,
    shared_black_cells,
)
from fivebar.render import render_svg

from helpers import (
    assert_labeling_matches_flood_fill,
    hash_classifier,
    random_models,
    rasterize,
)

UNIT = Box2.from_bounds(0.0, 1.0, 0.0, 1.0)


def half_plane(box: Box2) -> int:
    """Valid strictly left of x = 0.5, invalid strictly right."""
    if box.x.hi < 0.5:
        return 1
    if box.x.lo > 0.5:
        return -1
    return 0


# ---------------------------------------------------------------------------
# build
# ---------------------------------------------------------------------------


def test_build_all_valid_single_black_root():
    m = build(UNIT, 3, lambda box: 1)
    assert m.root.kind == BLACK and m.root.is_leaf
    assert m.stats.calls == 1
    assert m.stats.black == 1 and m.stats.white == 0
    assert m.complement.kind == WHITE


def test_build_all_invalid_single_white_root():
    m = build(UNIT, 3, lambda box: -1)
    assert m.root.kind == WHITE and m.root.is_leaf
    assert m.stats.calls == 1
    # the complementary tree records the invalid space as its Black space
    assert m.complement.kind == BLACK


def test_build_requires_positive_depth():
    with pytest.raises(ValueError):
        build(UNIT, 0, lambda box: 1)


def test_build_half_plane_structure():
    m = build(UNIT, 3, half_plane)
    raster = rasterize(m)
    n = 2**3
    # columns entirely below 0.5 are Black, above are White, and the two
    # columns whose cells touch x = 0.5 stay Undetermined at maximal depth
    for ix in range(n):
        cell_lo = ix / n
        cell_hi = (ix + 1) / n
        expected = (
            CODE_BLACK if cell_hi < 0.5 else CODE_WHITE if cell_lo > 0.5 else CODE_UNDET
        )
        assert (raster.kinds[ix, :] == expected).all()
    assert m.stats.undetermined == 2 * n


def test_build_undetermined_only_at_max_depth():
    m = build(UNIT, 4, half_plane)
    for leaf in collect_leaves(m):
        if leaf.kind == UNDETERMINED:
            assert len(leaf.path) == m.max_depth


def test_accuracy_rule():
    m = build(UNIT, 5, half_plane)
    assert m.accuracy == 1.0 / 2**5
    for leaf in collect_leaves(m):
        if len(leaf.path) == m.max_depth:
            assert math.isclose(leaf.box.x.width, m.accuracy, rel_tol=1e-12)


# ---------------------------------------------------------------------------
# refine
# ---------------------------------------------------------------------------


def test_refine_equals_fresh_build():
    m5 = build(UNIT, 5, half_plane)
    m7 = refine(m5, 7, half_plane)
    fresh = build(UNIT, 7, half_plane)
    assert serialize(m7) == serialize(fresh)
    assert serialize(m7.complement_model()) == serialize(fresh.complement_model())


_HASHED = hash_classifier(7, p_black=20, p_white=20)


def hashed_below_depth_3(box: Box2) -> int:
    """Undecided above depth 3, pseudo-random (20% Black, 20% White) below."""
    return 0 if box.x.width > 0.125 else _HASHED(box)


def test_refine_call_accounting():
    for classify in (half_plane, hashed_below_depth_3):
        m5 = build(UNIT, 5, classify)
        m8 = refine(m5, 8, classify)
        fresh = build(UNIT, 8, classify)
        assert serialize(m8) == serialize(fresh)
        # the refined counter is cumulative over the whole chain and, for a
        # deterministic classifier, totals exactly the fresh-build count:
        # every box is classified once either way. The saving is that the
        # refinement step itself re-tests nothing that was already decided:
        new_calls = m8.stats.calls - m5.stats.calls
        assert 0 < new_calls < fresh.stats.calls
        assert m8.stats.calls == fresh.stats.calls


def test_refine_all_black_tree_is_free():
    m = build(UNIT, 2, lambda box: 1)
    r = refine(m, 4, lambda box: 1)
    assert serialize(r).splitlines()[1] == "B"
    assert r.stats.calls == m.stats.calls  # no new classifier calls


def test_refine_requires_greater_depth():
    m = build(UNIT, 3, half_plane)
    with pytest.raises(ValueError):
        refine(m, 3, half_plane)


def test_refine_equals_fresh_on_kinematic_classifier():
    g = mech.M2
    classify = bench.space_classifier(g, bench.JOINTSPACE)
    box = bench.space_box(g, bench.JOINTSPACE)
    chain = refine(build(box, 4, classify), 6, classify)
    fresh = build(box, 6, classify)
    assert serialize(chain) == serialize(fresh)


def test_mismatched_leaves_zero_for_own_classifier_of_every_mode_setting():
    from fivebar.aspects import all_mode_combos

    for g in (mech.M1, mech.M2):
        settings = [(bench.JOINTSPACE, None, None), (bench.WORKSPACE, None, None)]
        settings += [(bench.JOINTSPACE, None, am) for am in mech.AssemblyMode]
        settings += [
            (space, c.wm, c.am)
            for c in all_mode_combos()[::3]
            for space in bench.SPACES
        ]
        for space, wm, am in settings:
            classify = mech.BoxClassifier(space, g, wm, am)
            m = build(bench.space_box(g, space), 6, classify)
            assert mismatched_leaves(m, classify) == 0, (space, wm, am)


def test_mismatched_leaves_regrows_merged_leaves():
    # merged Black leaves: the classifier leaves their box undecided but
    # certifies each of its four quadrants
    g = mech.M1
    classify = bench.space_classifier(g, bench.WORKSPACE)
    m = build(bench.space_box(g, bench.WORKSPACE), 6, classify)
    t = leaf_table(m)
    verdicts = classify.batch(t.x_lo, t.x_hi, t.y_lo, t.y_hi)
    merged = (t.kind == CODE_BLACK) & (verdicts == 0)
    assert merged.any()
    # a tree whose merged leaves are White instead is not reproduced
    kinds = list(serialize(m).splitlines()[1])
    leaf_chars = [i for i, c in enumerate(kinds) if c != GRAY]
    for row in np.flatnonzero(merged).tolist():
        kinds[leaf_chars[row]] = WHITE
    header = serialize(m).splitlines()[0]
    forged = deserialize(header + "\n" + "".join(kinds) + "\n")
    assert mismatched_leaves(forged, classify) == int(merged.sum())


def test_mismatched_leaves_of_another_classifier():
    box = bench.space_box(mech.M1, bench.JOINTSPACE)
    m = build(box, 5, bench.space_classifier(mech.M1, bench.JOINTSPACE))
    combo = mech.BoxClassifier(
        bench.JOINTSPACE, mech.M1, mech.WorkingMode(1, 1), mech.AssemblyMode(1)
    )
    assert mismatched_leaves(m, combo) > 0
    assert mismatched_leaves(m, bench.space_classifier(mech.M2, bench.JOINTSPACE)) > 0
    # a plain per-box function is checked the same way
    assert mismatched_leaves(m, lambda b: combo(b)) == mismatched_leaves(m, combo)


# ---------------------------------------------------------------------------
# leaves, locate, partition
# ---------------------------------------------------------------------------


def test_leaf_boxes_tile_root():
    for m in random_models(10, d_max=4):
        leaves = collect_leaves(m)
        total = sum(leaf.box.area for leaf in leaves)
        assert math.isclose(total, m.root_box.area, rel_tol=1e-12)


def test_locate_all_black_root():
    m = build(UNIT, 2, lambda box: 1)
    assert locate(m, 0.5, 0.5) == (BLACK, "")


def test_locate_edge_tie_breaks_to_lower_leaf():
    m = build(UNIT, 3, half_plane)
    kind, path = locate(m, 0.5, 0.25)
    leaf = {l.path: l for l in collect_leaves(m)}[path]
    assert leaf.box.x.hi == 0.5  # the lower-coordinate leaf wins the tie


def test_locate_outside_root_raises():
    m = build(UNIT, 2, lambda box: 1)
    with pytest.raises(DomainError):
        locate(m, 1.5, 0.5)


def test_locate_agrees_with_rasterize():
    rng = np.random.default_rng(31)
    for m in random_models(5, d_max=4):
        raster = rasterize(m)
        n = 2**m.max_depth
        leaves = collect_leaves(m)
        for _ in range(200):
            qx, qy = rng.random(2)
            kind, path = locate(m, qx, qy)
            ix = min(int(qx * n), n - 1)
            iy = min(int(qy * n), n - 1)
            # cell centers are interior, so the raster lookup is tie-free;
            # compare through the leaf index only when q is off the edges
            if qx * n != ix and qy * n != iy:
                leaf = leaves[raster.leaf_index[ix, iy]]
                assert leaf.path == path
                assert leaf.kind == kind


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------


def test_serialize_single_black_root():
    m = build(UNIT, 2, lambda box: 1)
    assert serialize(m) == "QT1 2 0.0 1.0 0.0 1.0\nB\n"


def test_serialize_undetermined_quadruple_is_not_merged():
    m = build(UNIT, 1, lambda box: 0)
    assert serialize(m).splitlines()[1] == "GUUUU"


def test_serialize_preorder_example():
    text = "QT1 1 0.0 1.0 0.0 1.0\nGBWUB\n"
    m = deserialize(text)
    assert serialize(m) == text
    kinds = [leaf.kind for leaf in collect_leaves(m)]
    assert kinds == [BLACK, WHITE, UNDETERMINED, BLACK]


def test_serialize_round_trip_random_trees():
    for m in random_models(100, d_max=4):
        text = serialize(m)
        again = deserialize(text)
        assert serialize(again) == text
        assert again.max_depth == m.max_depth
        assert again.root == m.root
        assert again.complement == m.complement


def test_canonical_form_no_mergeable_quadruples():
    for m in random_models(30, d_max=4):
        body = serialize(m).splitlines()[1]
        assert not re.search(r"G(BBBB|WWWW)", body)


def test_deserialize_errors():
    with pytest.raises(ParseError):
        deserialize("")
    with pytest.raises(ParseError):
        deserialize("QT2 1 0.0 1.0 0.0 1.0\nB\n")
    with pytest.raises(ParseError):
        deserialize("QT1 x 0.0 1.0 0.0 1.0\nB\n")
    with pytest.raises(ParseError):
        deserialize("QT1 1 1.0 0.0 0.0 1.0\nB\n")  # inverted bounds
    with pytest.raises(ParseError):
        deserialize("QT1 2 0.0 1.0 0.0 1.0\nGUUUU\n")  # U above max depth
    with pytest.raises(ParseError):
        deserialize("QT1 1 0.0 1.0 0.0 1.0\nGGBBBBBWW\n")  # G at max depth
    with pytest.raises(ParseError):
        deserialize("QT1 1 0.0 1.0 0.0 1.0\nGBW\n")  # truncated
    with pytest.raises(ParseError):
        deserialize("QT1 1 0.0 1.0 0.0 1.0\nBW\n")  # trailing characters
    with pytest.raises(ParseError):
        deserialize("QT1 1 0.0 1.0 0.0 1.0\nX\n")  # unknown letter
    # a side of zero or overflowing width: leaves without area
    for bounds in ("0.0 0.0 0.0 1.0", "0.0 1.0 2.0 2.0", "-1e308 1e308 0.0 1.0"):
        with pytest.raises(ParseError, match="positive finite width"):
            deserialize(f"QT1 3 {bounds}\nGBBWB\n")
    err = None
    try:
        deserialize("QT1 1 0.0 1.0 0.0 1.0\nGBWXB\n")
    except ParseError as exc:
        err = exc
    assert err is not None and err.position > 0


# ---------------------------------------------------------------------------
# rasterize and complement
# ---------------------------------------------------------------------------


def test_rasterize_all_black():
    m = build(UNIT, 2, lambda box: 1)
    raster = rasterize(m)
    assert raster.kinds.shape == (4, 4)
    assert (raster.kinds == CODE_BLACK).all()


def test_rasterize_area_fraction_matches_leaf_areas():
    for m in random_models(10, d_max=4):
        raster = rasterize(m)
        n = 2**m.max_depth
        frac_cells = (raster.kinds == CODE_BLACK).sum() / n**2
        frac_area = black_area(m) / m.root_box.area
        assert math.isclose(frac_cells, frac_area, rel_tol=1e-12, abs_tol=1e-15)


def test_complement_black_spaces_are_disjoint_and_cover():
    for m in random_models(10, d_max=4):
        a = rasterize(m).kinds
        b = rasterize(m.complement_model()).kinds
        assert not ((a == CODE_BLACK) & (b == CODE_BLACK)).any()
        covered = (a == CODE_BLACK) | (b == CODE_BLACK) | (a == CODE_UNDET)
        assert covered.all()


# ---------------------------------------------------------------------------
# leaf table
# ---------------------------------------------------------------------------


def _node_walk(m):
    """(path, level, ix, iy, kind code, bounds) per leaf, by recursion."""
    rows = []

    def visit(node, box, path, ix, iy):
        level = len(path)
        if node.is_leaf:
            bounds = (box.x.lo, box.x.hi, box.y.lo, box.y.hi)
            rows.append((path, level, ix, iy, KIND_CODE[node.kind], bounds))
            return
        h = 2 ** (m.max_depth - level - 1)
        offsets = ((0, 0), (h, 0), (0, h), (h, h))
        for i, (child, child_box) in enumerate(zip(node.children, box.subdivide())):
            visit(child, child_box, path + str(i), ix + offsets[i][0], iy + offsets[i][1])

    visit(m.root, m.root_box, "", 0, 0)
    return rows


def test_leaf_table_rows_match_recursive_walk():
    for m in random_models(20, d_max=5) + [build(UNIT, 1, lambda box: 1)]:
        t = leaf_table(m)
        rows = list(zip(
            t.paths, t.level.tolist(), t.ix.tolist(), t.iy.tolist(), t.kind.tolist(),
            zip(t.x_lo.tolist(), t.x_hi.tolist(), t.y_lo.tolist(), t.y_hi.tolist()),
        ))
        assert rows == _node_walk(m)
        assert (np.diff(t.keys) > 0).all()  # preorder is Morton order


def test_leaf_table_find_agrees_with_raster():
    for m in random_models(10, d_max=4):
        raster = rasterize(m)
        n = 2**m.max_depth
        cx, cy = np.meshgrid(np.arange(n), np.arange(n), indexing="ij")
        found = leaf_table(m).find(cx.ravel(), cy.ravel()).reshape(n, n)
        assert (found == raster.leaf_index).all()


def test_leaf_table_follows_a_replaced_root():
    m = build(UNIT, 2, lambda box: 1)
    assert leaf_table(m).paths == [""]
    m.root = deserialize("QT1 2 0.0 1.0 0.0 1.0\nGBWWB\n").root
    assert leaf_table(m).paths == ["0", "1", "2", "3"]


def test_shared_black_cells_match_raster():
    models = random_models(6, d_max=4)
    for a in models:
        for b in models:
            both = (rasterize(a).kinds == CODE_BLACK) & (rasterize(b).kinds == CODE_BLACK)
            assert shared_black_cells(a, b) == int(both.sum())


def _sparse_text(depth: int) -> str:
    """A depth-`depth` tree: one chain of Gray nodes down quadrant 0, with
    Black quadrants 1 and 3 (one edge-connected region) beside each link."""
    body = "G" * (depth - 1) + "GUBWB" + "BWB" * (depth - 1)
    return f"QT1 {depth} 0.0 1.0 0.0 1.0\n{body}\n"


def test_sparse_deep_tree_labels_and_renders_in_little_memory():
    m = deserialize(_sparse_text(20))
    tracemalloc.start()
    try:
        labels = label_regions(m)
        svg = render_svg(m, labels)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # a 2^20 x 2^20 raster of this tree would take about 5 GB
    assert peak < 4 * 2**20
    assert labels.region_count == 1
    assert len(labels.leaf_to_region) == 40
    assert svg.count("<rect") == 40


def test_deserialize_depth_bound():
    m = deserialize(_sparse_text(MAX_DEPTH))
    assert m.max_depth == MAX_DEPTH
    assert label_regions(m).region_count == 1
    assert shared_black_cells(m, m) == 2 * sum(4 ** (MAX_DEPTH - k) for k in range(1, MAX_DEPTH + 1))
    with pytest.raises(ParseError):
        deserialize(_sparse_text(MAX_DEPTH + 1))
    with pytest.raises(ValueError):
        build(UNIT, MAX_DEPTH + 1, lambda box: 1)


# ---------------------------------------------------------------------------
# region labeling
# ---------------------------------------------------------------------------


def test_label_single_black_root():
    m = build(UNIT, 2, lambda box: 1)
    labels = label_regions(m)
    assert labels.region_count == 1
    assert labels.regions[0].area == pytest.approx(1.0)


def test_label_corner_touching_quadrants_stay_separate():
    m = deserialize("QT1 1 0.0 1.0 0.0 1.0\nGBWWB\n")
    labels = label_regions(m)
    assert labels.region_count == 2


def test_label_edge_adjacent_leaves_of_unequal_size_merge():
    # one depth-1 Black quadrant next to a depth-2 Black leaf sharing an edge
    m = deserialize("QT1 2 0.0 1.0 0.0 1.0\nGBGBWWWWW\n")
    labels = label_regions(m)
    assert labels.region_count == 1


def test_label_region_ids_ordered_by_smallest_preorder_leaf():
    for m in random_models(20, d_max=4):
        labels = label_regions(m)
        firsts = [
            min(idx for idx, rid in labels.leaf_index_to_region.items() if rid == r)
            for r in range(labels.region_count)
        ]
        assert firsts == sorted(firsts)


def test_label_matches_flood_fill_random_trees():
    for m in random_models(25, d_max=5):
        assert_labeling_matches_flood_fill(m, label_regions(m))


def test_label_matches_flood_fill_kinematic_tree():
    g = mech.M1
    m = build(
        bench.space_box(g, bench.JOINTSPACE),
        6,
        bench.space_classifier(g, bench.JOINTSPACE),
    )
    assert_labeling_matches_flood_fill(m, label_regions(m))


# ---------------------------------------------------------------------------
# sampling
# ---------------------------------------------------------------------------


def test_sample_black_points_land_in_black_leaves():
    m = build(UNIT, 3, half_plane)
    rng = np.random.default_rng(5)
    pts = sample_black_points(m, 500, rng)
    assert pts.shape == (500, 2)
    for x, y in pts:
        kind, _ = locate(m, x, y)
        assert kind == BLACK


def test_sample_black_points_match_per_leaf_loop():
    # the per-point loop over leaf boxes that the vectorised sampler replaced
    for seed, m in enumerate(random_models(10, d_max=5)):
        black = [row for row in _node_walk(m) if row[4] == CODE_BLACK]
        if not black:
            continue
        areas = np.array([(b[1] - b[0]) * (b[3] - b[2]) for *_, b in black])
        rng = np.random.default_rng(seed)
        picks = rng.choice(len(black), size=300, p=areas / areas.sum())
        u = rng.random((300, 2))
        expected = np.empty((300, 2))
        for i, k in enumerate(picks):
            x_lo, x_hi, y_lo, y_hi = black[k][5]
            expected[i, 0] = x_lo + u[i, 0] * (x_hi - x_lo)
            expected[i, 1] = y_lo + u[i, 1] * (y_hi - y_lo)
        got = sample_black_points(m, 300, np.random.default_rng(seed))
        assert got.tobytes() == expected.tobytes()


def test_sample_black_points_empty_without_black_leaves():
    m = build(UNIT, 2, lambda box: -1)
    rng = np.random.default_rng(5)
    assert sample_black_points(m, 10, rng).shape == (0, 2)
