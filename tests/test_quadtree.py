"""Quadtree building, refinement, serialization, the leaf table, location,
and connected-component labeling (checked against a scipy flood fill)."""

import ast
import dataclasses
import math
import re
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from fivebar import mechanism as mech
from fivebar import bench, quadtree
from fivebar.interval import Box2, DomainError
from fivebar.quadtree import (
    BLACK,
    CODE_BLACK,
    CODE_UNDET,
    CODE_WHITE,
    GRAY,
    KIND_CODE,
    KIND_LETTER,
    MAX_DEPTH,
    UNDETERMINED,
    WHITE,
    LeafTable,
    ParseError,
    QuadtreeModel,
    black_area,
    build,
    deserialize,
    label_regions,
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
    box_tables,
    chain_text,
    hash_classifier,
    leaf_cells,
    module_functions,
    point_classifier,
    random_models,
    rasterize,
    reference_paths,
    text_leaves,
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
    assert serialize(m).splitlines()[1] == BLACK
    assert m.stats.calls == 1
    assert m.stats.black == 1 and m.stats.white == 0
    assert serialize(m.complement_model()).splitlines()[1] == WHITE


def test_build_all_invalid_single_white_root():
    m = build(UNIT, 3, lambda box: -1)
    assert serialize(m).splitlines()[1] == WHITE
    assert m.stats.calls == 1
    # the complementary tree records the invalid space as its Black space
    assert serialize(m.complement_model()).splitlines()[1] == BLACK


def test_build_requires_positive_depth():
    with pytest.raises(ValueError):
        build(UNIT, 0, lambda box: 1)


def test_build_rejects_a_root_box_that_cannot_be_bisected():
    # an overflowing width bisects into inf and NaN bounds, a zero width
    # into leaves without area; `deserialize` and `--box` reject both too
    classify = mech.BoxClassifier("workspace", mech.M1)
    for bounds in ((-1e308, 1e308, -1.0, 1.0), (0.0, 0.0, 0.0, 1.0), (-1.0, 1.0, 2.0, 2.0)):
        with pytest.raises(ValueError, match="positive finite width"):
            build(Box2.from_bounds(*bounds), 3, classify)
        with pytest.raises(ValueError, match="positive finite width"):
            build(Box2.from_bounds(*bounds), 3, lambda box: 0)


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
    t = m.table
    assert (t.kind == CODE_UNDET).any()
    assert (t.level[t.kind == CODE_UNDET] == m.max_depth).all()


def test_accuracy_rule():
    m = build(UNIT, 5, half_plane)
    assert m.accuracy == 1.0 / 2**5
    x_lo, x_hi, _, _ = m.bounds(m.table.level == m.max_depth)
    for width in (x_hi - x_lo).tolist():
        assert math.isclose(width, m.accuracy, rel_tol=1e-12)


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


def test_refine_merges_cascade_across_the_old_depth():
    # every box is undecided down to depth 2 and Black below it: the new
    # depth-3 leaves merge into their depth-2 parents, those with their
    # depth-1 siblings' parents, and so on up to the root
    def wide_undecided(box: Box2) -> int:
        return 0 if box.x.width > 0.2 else 1

    m = build(UNIT, 2, wide_undecided)
    assert serialize(m).splitlines()[1] == "G" + "GUUUU" * 4
    r = refine(m, 3, wide_undecided)
    fresh = build(UNIT, 3, wide_undecided)
    assert serialize(r) == serialize(fresh) == "QT1 3 0.0 1.0 0.0 1.0\nB\n"
    assert r.stats.calls == fresh.stats.calls == 1 + 4 + 16 + 64
    assert (r.stats.black, r.stats.gray) == (1, 0)


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
    t = m.table
    verdicts = classify.batch(*box_tables(*m.bounds()))
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
    # a merged leaf whose box grows back split, though its first quadrant
    # comes back as a leaf of its kind
    def white_corner(box: Box2) -> int:
        if box.x.width > 0.3:
            return 0
        return -1 if box.x.lo >= 0.75 and box.y.lo >= 0.75 else 1

    assert serialize(build(UNIT, 2, white_corner)).splitlines()[1] == "GBBBGBBBW"
    assert mismatched_leaves(deserialize("QT1 2 0.0 1.0 0.0 1.0\nGBBBB\n"), white_corner) == 1


def _split(m: QuadtreeModel, row: int) -> QuadtreeModel:
    """``m`` with the leaf at ``row`` split into four leaves of its kind."""
    t = m.table
    side = 1 << 2 * (t.depth - t.level[row] - 1)  # finest cells of one child
    level = np.insert(t.level, row + 1, [t.level[row] + 1] * 3)
    level[row] += 1
    keys = np.insert(t.keys, row + 1, t.keys[row] + side * np.arange(1, 4))
    kind = np.insert(t.kind, row + 1, [t.kind[row]] * 3)
    return QuadtreeModel(m.root_box, LeafTable(t.depth, level, keys, kind), 0)


def test_mismatched_leaves_is_zero_only_for_the_built_tree():
    # Undetermined leaves under a box that the classifier decides Black:
    # none of the seven leaves is the build's one Black leaf, and refining
    # the tree would not give the fresh build
    def wide_black(box: Box2) -> int:
        return 1 if box.x.width > 0.3 else 0

    assert serialize(build(UNIT, 2, wide_black)).splitlines()[1] == BLACK
    forged = deserialize("QT1 2 0.0 1.0 0.0 1.0\nGGUUUUBBB\n")
    assert mismatched_leaves(forged, wide_black) == 7
    assert serialize(refine(forged, 3, wide_black)) != serialize(build(UNIT, 3, wide_black))
    # a built tree checks clean and refines to the fresh build; each leaf
    # above maximal depth split into four of its kind makes four rows differ
    for seed, m in enumerate(random_models(4, d_max=3)):
        classify = hash_classifier(seed)
        assert mismatched_leaves(m, classify) == 0
        assert serialize(refine(m, 5, classify)) == serialize(build(UNIT, 5, classify))
        t = m.table
        for row in np.flatnonzero(t.level < t.depth).tolist():
            assert mismatched_leaves(_split(m, row), classify) == 4


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
        total = sum(m.area().tolist())
        assert math.isclose(total, m.root_box.area, rel_tol=1e-12)


def test_locate_all_black_root():
    m = build(UNIT, 2, lambda box: 1)
    assert locate(m, 0.5, 0.5) == (BLACK, "")


def test_locate_edge_tie_breaks_to_lower_leaf():
    m = build(UNIT, 3, half_plane)
    kind, path = locate(m, 0.5, 0.25)
    _, x_hi, _, _ = m.bounds([reference_paths(m.table).index(path)])
    assert x_hi[0] == 0.5  # the lower-coordinate leaf wins the tie


def test_locate_outside_root_raises():
    m = build(UNIT, 2, lambda box: 1)
    with pytest.raises(DomainError):
        locate(m, 1.5, 0.5)


def test_locate_agrees_with_rasterize():
    rng = np.random.default_rng(31)
    for m in random_models(5, d_max=4):
        raster = rasterize(m)
        n = 2**m.max_depth
        leaves = text_leaves(m)
        for _ in range(200):
            qx, qy = rng.random(2)
            kind, path = locate(m, qx, qy)
            ix = min(int(qx * n), n - 1)
            iy = min(int(qy * n), n - 1)
            # cell centers are interior, so the raster lookup is tie-free;
            # compare through the leaf index only when q is off the edges
            if qx * n != ix and qy * n != iy:
                assert leaves[raster.leaf_index[ix, iy]][::2] == (path, kind)


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
    kinds = [KIND_LETTER[k] for k in m.table.kind.tolist()]
    assert kinds == [BLACK, WHITE, UNDETERMINED, BLACK]


def test_serialize_round_trip_random_trees():
    for m in random_models(100, d_max=4):
        text = serialize(m)
        again = deserialize(text)
        assert serialize(again) == text
        assert again.max_depth == m.max_depth
        assert serialize(again.complement_model()) == serialize(m.complement_model())


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
    for tail in ("garbage\n", "garbage", "\n", " "):
        with pytest.raises(ParseError, match="after the node line"):
            deserialize("QT1 1 0.0 1.0 0.0 1.0\nB\n" + tail)
    # the final newline is optional
    assert serialize(deserialize("QT1 1 0.0 1.0 0.0 1.0\nB")) == "QT1 1 0.0 1.0 0.0 1.0\nB\n"
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
    """(path, level, key, kind code, bounds) per leaf, by a recursive walk
    of the text form; the key interleaves the bits of the low corner's
    cell, x bit below y bit."""
    rows = []
    for path, box, kind in text_leaves(m):
        ix, iy, _ = leaf_cells(path, m.max_depth)
        key = sum((ix >> b & 1) << 2 * b | (iy >> b & 1) << 2 * b + 1 for b in range(m.max_depth))
        bounds = (box.x.lo, box.x.hi, box.y.lo, box.y.hi)
        rows.append((path, len(path), key, KIND_CODE[kind], bounds))
    return rows


def test_leaf_table_rows_match_recursive_walk():
    for m in random_models(20, d_max=5) + [build(UNIT, 1, lambda box: 1)]:
        t = m.table
        rows = list(zip(
            t.paths(np.arange(len(t.keys))), t.level.tolist(), t.keys.tolist(), t.kind.tolist(),
            zip(*(b.tolist() for b in m.bounds())),
        ))
        assert rows == _node_walk(m)
        assert (np.diff(t.keys) > 0).all()  # preorder is Morton order


def test_leaf_table_stores_no_bounds():
    # bounds follow from the root box, level and key: the model derives
    # them for the rows a reader asks for, and the table keeps no copy
    names = [f.name for f in dataclasses.fields(LeafTable)]
    assert names == ["depth", "level", "keys", "kind"]


def test_model_stores_no_counts():
    # the node counts follow from the table's kinds: the model keeps only
    # the classifier calls beside it
    names = [f.name for f in dataclasses.fields(QuadtreeModel)]
    assert names == ["root_box", "table", "calls"]


def test_complement_negates_the_kinds():
    for m in random_models(5, d_max=4) + [build(UNIT, 4, half_plane)]:
        c = m.complement_model()
        assert np.array_equal(c.table.kind, -m.table.kind)
        assert c.table.kind.dtype == np.int8
        s, cs = m.stats, c.stats
        assert (cs.black, cs.white) == (s.white, s.black)
        assert (cs.undetermined, cs.gray) == (s.undetermined, s.gray)


def test_a_leaf_kind_is_the_sign_of_the_verdict():
    # a plain function may return any verdict of the right sign
    def scaled(box: Box2) -> int:
        return {1: 5, -1: -3, 0: 0}[half_plane(box)]

    want, got = build(UNIT, 4, half_plane).table, build(UNIT, 4, scaled).table
    for col in ("level", "keys", "kind"):
        assert np.array_equal(getattr(got, col), getattr(want, col))
    assert got.kind.dtype == np.int8
    assert set(got.kind.tolist()) == {CODE_WHITE, CODE_UNDET, CODE_BLACK} == {-1, 0, 1}


def test_leaf_table_find_agrees_with_raster():
    for m in random_models(10, d_max=4):
        raster = rasterize(m)
        n = 2**m.max_depth
        cx, cy = np.meshgrid(np.arange(n), np.arange(n), indexing="ij")
        found = m.table.find(cx.ravel(), cy.ravel()).reshape(n, n)
        assert (found == raster.leaf_index).all()


def test_shared_black_cells_match_raster():
    models = random_models(6, d_max=4)
    for a in models:
        for b in models:
            both = (rasterize(a).kinds == CODE_BLACK) & (rasterize(b).kinds == CODE_BLACK)
            assert shared_black_cells(a, b) == int(both.sum())


def test_shared_black_cells_requires_one_grid():
    a = build(UNIT, 3, half_plane)
    with pytest.raises(ValueError, match="depth"):
        shared_black_cells(a, build(UNIT, 4, half_plane))
    # the same depth on another root box: the cells are not the same
    other = build(Box2.from_bounds(0.0, 2.0, 0.0, 1.0), 3, half_plane)
    with pytest.raises(ValueError, match="root boxes"):
        shared_black_cells(a, other)
    with pytest.raises(ValueError, match="root boxes"):
        shared_black_cells(other, a)


def test_sparse_deep_tree_labels_and_renders_in_little_memory():
    m = deserialize(chain_text(20))
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


def test_labeling_keeps_one_region_id_per_row(modefree_chains):
    # the labeling is a column of the table: no path, dict or per-region
    # object per leaf stays behind
    m = modefree_chains["m1", bench.WORKSPACE][10]
    assert len(m.table.keys) == 19426
    tracemalloc.start()
    try:
        labels = label_regions(m)
        kept = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert labels.region_count == 1
    assert kept <= 12 * len(m.table.keys)


def _traced_peak(fn, *args):
    tracemalloc.start()
    try:
        out = fn(*args)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return out, peak


def test_depth_31_chain_reads_in_little_memory():
    # 94 leaves; a 2^31-long array of any kind would take gigabytes
    text = chain_text(MAX_DEPTH, 3, "-1.3 2.7 0.1 5.9")
    m, peak = _traced_peak(deserialize, text)
    assert len(m.table.keys) == 94 and peak < 2**20
    labels, peak = _traced_peak(label_regions, m)
    assert labels.region_count == 1 and peak < 2**20
    _, peak = _traced_peak(locate, m, 2.7, 5.9)
    assert peak < 2**20


def test_max_depth_build_equals_refine_and_read_in_little_memory():
    # one point's chain of boxes down to depth 31, three leaves a level
    box = Box2.from_bounds(-1.3, 2.7, 0.1, 5.9)
    classify = point_classifier(0.123456789, 3.14159)
    m, peak = _traced_peak(build, box, MAX_DEPTH, classify)
    assert peak < 2**20
    assert len(m.table.keys) == 3 * MAX_DEPTH + 1 and m.stats.undetermined == 1
    assert serialize(refine(build(box, 7, classify), MAX_DEPTH, classify)) == serialize(m)
    parsed = deserialize(serialize(m))
    for got, want in zip(m.bounds(), parsed.bounds()):
        assert np.array_equal(got.view(np.int64), want.view(np.int64))


def _is_midpoint(node: ast.AST) -> bool:
    # a + (b - a) / 2, the half on either side of the sum
    return isinstance(node, ast.BinOp) and isinstance(node.op, ast.Add) and any(
        isinstance(half, ast.BinOp) and isinstance(half.op, ast.Div)
        and isinstance(half.left, ast.BinOp) and isinstance(half.left.op, ast.Sub)
        and isinstance(half.right, ast.Constant) and half.right.value == 2
        for half in (node.left, node.right)
    )


def test_only_bounds_and_locate_compute_midpoints():
    # every box's bounds come from `_midpoint`, which `_bounds` bisects the
    # root box with and a build halves its axis tables with; `locate`
    # compares a point with the same midpoints on its way down to the
    # point's cell
    tree = ast.parse(Path(quadtree.__file__).read_text())
    count = {name: sum(map(_is_midpoint, ast.walk(f))) for name, f in module_functions(tree)}
    assert {name for name, n in count.items() if n} == {"_midpoint", "_locate_row"}
    # and none outside a function
    assert sum(count.values()) == sum(map(_is_midpoint, ast.walk(tree)))


def _callers(tree: ast.Module, callee: str) -> set[str]:
    # the functions of the module that call `callee` by name
    def calls(node: ast.AST) -> bool:
        return (
            isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id == callee
        )

    return {name for name, f in module_functions(tree) if any(map(calls, ast.walk(f)))}


def test_one_growth_path_classifies_boxes():
    # `_grow` is the only code that classifies boxes, and so the only one
    # that pairs mirror twins; `build` and `refine` start it and end in one
    # finishing step, and the check of a tree against a classifier is a
    # fresh build
    tree = ast.parse(Path(quadtree.__file__).read_text())
    assert _callers(tree, "_verdicts") == {"_grow"}
    assert _callers(tree, "_grow") == {"build", "refine"}
    assert _callers(tree, "_table") == {"build", "refine"}
    assert "mismatched_leaves" in _callers(tree, "build")
    # twins pair by one rule over the whole frontier, not box by box
    assert "_twin_rows" not in dict(module_functions(tree))


def _parses_a_path(node: ast.AST) -> bool:
    # int(..., 4): a string of quadrant digits read as a number
    return (
        isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
        and node.func.id == "int" and len(node.args) == 2
        and isinstance(node.args[1], ast.Constant) and node.args[1].value == 4
    )


def _calls_paths(node: ast.AST) -> bool:
    return (
        isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
        and node.func.attr == "paths"
    )


def test_only_the_path_keyed_labeling_formats_leaf_paths():
    # readers carry table rows: no function parses a path, and only
    # `RegionLabeling.leaf_to_region` formats the paths of many leaves
    assert _parses_a_path(ast.parse("int(p, 4)").body[0].value)
    callers = set()
    for source in Path(quadtree.__file__).parent.glob("*.py"):
        tree = ast.parse(source.read_text())
        assert not any(map(_parses_a_path, ast.walk(tree))), source.name
        count = {name: sum(map(_calls_paths, ast.walk(f))) for name, f in module_functions(tree)}
        callers |= {f"{source.stem}.{name}" for name, n in count.items() if n}
        # and none outside a function
        assert sum(count.values()) == sum(map(_calls_paths, ast.walk(tree)))
    assert callers == {"quadtree.RegionLabeling.leaf_to_region"}


def test_deserialize_depth_bound():
    m = deserialize(chain_text(MAX_DEPTH))
    assert m.max_depth == MAX_DEPTH
    assert label_regions(m).region_count == 1
    assert shared_black_cells(m, m) == 2 * sum(4 ** (MAX_DEPTH - k) for k in range(1, MAX_DEPTH + 1))
    with pytest.raises(ParseError):
        deserialize(chain_text(MAX_DEPTH + 1))
    with pytest.raises(ValueError):
        build(UNIT, MAX_DEPTH + 1, lambda box: 1)


# ---------------------------------------------------------------------------
# region labeling
# ---------------------------------------------------------------------------


def test_label_single_black_root():
    m = build(UNIT, 2, lambda box: 1)
    labels = label_regions(m)
    assert labels.region_count == 1
    assert labels.area == (1.0,)


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
            int(np.flatnonzero(labels.region == r)[0]) for r in range(labels.region_count)
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
