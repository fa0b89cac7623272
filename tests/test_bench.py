"""Cost comparison: call accounting, the analytic grid baseline, CSV
round-tripping, and frozen call-count regressions at small depths."""

import pytest

from fivebar.bench import (
    CSV_HEADER,
    JOINTSPACE,
    WORKSPACE,
    BenchRow,
    emit_table,
    parse_table,
    run_bench,
    run_discretization,
    space_box,
    space_classifier,
)
from fivebar.mechanism import M1, M2
from fivebar.quadtree import CODE_BLACK, CODE_UNDET, build

from helpers import rasterize


def test_n_disc_formula():
    assert BenchRow(JOINTSPACE, "m1", 1, 3).n_disc == 4
    assert BenchRow(JOINTSPACE, "m1", 10, 3).n_disc == 2**20


def test_k_ratio():
    row = BenchRow(WORKSPACE, "m2", 5, 512)
    assert row.k_ratio == 512 / 1024


def test_space_box_definitions():
    j = space_box(M1, JOINTSPACE)
    assert j.x.lo < -3.14159 < 3.14159 < j.x.hi
    w = space_box(M1, WORKSPACE)
    assert (w.x.lo, w.x.hi) == (-13.0, 13.0)
    assert (w.y.lo, w.y.hi) == (-13.0, 13.0)
    with pytest.raises(ValueError):
        space_box(M1, "elsewhere")


def test_run_bench_rejects_bad_depths():
    with pytest.raises(ValueError):
        run_bench(M1, JOINTSPACE, [])
    with pytest.raises(ValueError):
        run_bench(M1, JOINTSPACE, [0, 3])


def test_run_bench_counts_match_build_stats():
    rows = run_bench(M2, JOINTSPACE, [3, 4], "m2")
    assert [r.depth for r in rows] == [3, 4]
    for row in rows:
        m = build(
            space_box(M2, JOINTSPACE), row.depth, space_classifier(M2, JOINTSPACE)
        )
        assert row.n_quadtree == m.stats.calls
        assert row.n_quadtree <= (4 ** (row.depth + 1) - 1) // 3


def test_frozen_call_counts_small_depths():
    expected = {
        ("m1", JOINTSPACE): [861, 2045, 4221],
        ("m1", WORKSPACE): [741, 1853, 4245],
        ("m2", JOINTSPACE): [1077, 2189, 4045],
        ("m2", WORKSPACE): [669, 1533, 3261],
    }
    for (name, space), counts in expected.items():
        g = M1 if name == "m1" else M2
        rows = run_bench(g, space, [5, 6, 7], name, jobs=4)
        assert [r.n_quadtree for r in rows] == counts


def test_discretization_total_is_grid_size():
    n_valid, n_calls = run_discretization(M2, JOINTSPACE, 4)
    assert n_calls == 2 ** (2 * 4)
    assert 0 < n_valid < n_calls


def test_discretization_valid_cells_bounded_by_quadtree_classes():
    # a valid cell center cannot sit in a certified-invalid (White) cell,
    # and every certified-valid (Black) cell center is valid
    depth = 5
    for g, space in ((M2, JOINTSPACE), (M2, WORKSPACE)):
        n_valid, _ = run_discretization(g, space, depth)
        m = build(space_box(g, space), depth, space_classifier(g, space))
        kinds = rasterize(m).kinds
        n_black = int((kinds == CODE_BLACK).sum())
        n_undet = int((kinds == CODE_UNDET).sum())
        assert n_black <= n_valid <= n_black + n_undet


def test_emit_table_header_only_for_empty_rows():
    assert emit_table([]) == ",".join(CSV_HEADER) + "\n"


def test_emit_table_format():
    rows = [BenchRow(JOINTSPACE, "m1", 5, 861)]
    text = emit_table(rows)
    lines = text.splitlines()
    assert lines[0] == "space,mechanism,depth,n_quadtree,n_disc,K"
    assert lines[1] == "jointspace,m1,5,861,1024,84.08%"


def test_emit_parse_round_trip():
    rows = run_bench(M2, WORKSPACE, [3, 4, 5], "m2")
    assert parse_table(emit_table(rows)) == rows


def test_parse_table_rejects_bad_header_and_inconsistent_rows():
    with pytest.raises(ValueError):
        parse_table("a,b,c\n")
    good = emit_table([BenchRow(JOINTSPACE, "m1", 5, 861)])
    tampered = good.replace(",1024,", ",1000,")
    with pytest.raises(ValueError):
        parse_table(tampered)
