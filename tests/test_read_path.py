"""The array passes of the read path against the loops they replaced:
`deserialize` against a per-character parse and a level-by-level bisection
of every leaf, the bounds a build's frontier gets from its halved axis
tables against a split that carries them (with mirror pairs, of the kept
half), the bounds of some rows against the
same rows of the whole table's, `label_regions` and `aspect_regions`
against a union-find, the seam pairs of the cell probes against a sweep
over exact bounds, `render_svg` against one ``repr`` per number, and
`LeafTable.paths` and `locate` against the paths of the whole table
(references in `helpers`)."""

import random
from types import SimpleNamespace

import numpy as np
import pytest

from fivebar import render
from fivebar.aspects import _seam_pairs, aspect_regions
from fivebar.interval import Box2
from fivebar.quadtree import (
    CODE_BLACK,
    CODE_UNDET,
    MAX_DEPTH,
    TOP,
    ParseError,
    _kept,
    build,
    deserialize,
    label_regions,
    locate,
    mismatched_leaves,
    refine,
    serialize,
)
from fivebar.render import RenderStyle, render_svg

from helpers import (
    UnionFind,
    box_bounds,
    chain_text,
    hash_classifier,
    legacy_labels,
    point_classifier,
    random_models,
    reference_bounds,
    reference_label_regions,
    reference_locate,
    reference_parse_body,
    reference_paths,
    reference_render_svg,
    reference_seam_pairs,
    reference_split,
)

UNIT = Box2.from_bounds(0.0, 1.0, 0.0, 1.0)
HEADER = "QT1 {} 0.0 1.0 0.0 1.0"
# characters a mutation puts in: the node letters, an unknown letter, a
# space and non-ASCII letters (one of them outside the BMP)
MUTANTS = "GBWUX äß\U0001d50a"


def _random_body(rng: random.Random, d: int, level: int = 0) -> str:
    if level < d and rng.random() < 0.5:
        return "G" + "".join(_random_body(rng, d, level + 1) for _ in range(4))
    return rng.choice("BWU" if level == d else "BW")


def _mutate(rng: random.Random, body: str, d: int) -> str:
    for _ in range(rng.randrange(4)):
        pos = rng.randrange(len(body) + 1)
        op = rng.randrange(5)
        if op == 0:
            body = body[:pos] + rng.choice(MUTANTS) + body[pos:]
        elif op == 1:
            body = body[:pos] + body[pos + 1:]
        elif op == 2:
            body = body[:pos] + rng.choice(MUTANTS) + body[pos + 1:]
        elif op == 3:
            body = body[:pos]
        else:
            body += _random_body(rng, d)
    return body


def _parse(text: str):
    """(level, keys, kind) by `deserialize`, or its error's (message, position)."""
    try:
        t = deserialize(text).table
    except ParseError as exc:
        return str(exc), exc.position
    return t.level, t.keys, t.kind


def _reference(body: str, d: int):
    try:
        return reference_parse_body(body, d, len(HEADER.format(d)) + 1)
    except ParseError as exc:
        return str(exc), exc.position


def test_parse_matches_character_loop_on_random_and_mutated_bodies():
    rng = random.Random(2024)
    errors = 0
    for k in range(24_000):
        d = 1 + k % 5
        body = _mutate(rng, _random_body(rng, d), d)
        got = _parse(HEADER.format(d) + "\n" + body + "\n")
        want = _reference(body, d)
        if isinstance(want[0], str):
            errors += 1
            assert got == want, body
        else:
            assert len(got) == 3, (body, got)
            for g, w in zip(got, want):
                assert g.dtype == w.dtype and np.array_equal(g, w), body
    # both outcomes are well represented
    assert 6_000 < errors < 18_000


def test_parse_matches_character_loop_on_deep_bodies():
    # many G's per level, so that the searches for the ends of their
    # children run over many keys of each slot count
    rng = random.Random(2026)
    errors = grays = 0
    for k in range(400):
        d = 6 + k % 4
        body = _mutate(rng, _random_body(rng, d), d)
        grays += body.count("G")
        got = _parse(HEADER.format(d) + "\n" + body + "\n")
        want = _reference(body, d)
        if isinstance(want[0], str):
            errors += 1
            assert got == want, body
        else:
            assert len(got) == 3, (body, got)
            for g, w in zip(got, want):
                assert g.dtype == w.dtype and np.array_equal(g, w), body
    # both outcomes are well represented
    assert 50 < errors < 350
    assert grays > 40_000


@pytest.mark.parametrize("d, body, message, position", [
    (2, "BX", "trailing characters", 1),
    (1, "GGBBBB", "'G' below maximal depth", 1),
    (2, "GBBBX", "unexpected character 'X'", 4),
    (2, "GBU\U0001d50aX", "'U' only legal at depth 2", 2),
    (2, "GB\U0001d50aBX", "unexpected character '\U0001d50a'", 2),
    (2, "GBWB", "unexpected end", 4),
    (2, "", "unexpected end", 0),
], ids=["trailing", "gray", "unknown", "undetermined", "astral", "truncated", "empty"])
def test_parse_error_is_the_first_failing_character(d, body, message, position):
    offset = len(HEADER.format(d)) + 1
    with pytest.raises(ParseError, match=message) as exc:
        deserialize(HEADER.format(d) + "\n" + body + "\n")
    assert exc.value.position == offset + position


# root boxes with non-dyadic, negative and negative-zero bounds
ODD_BOXES = (
    Box2.from_bounds(-1.3, 2.7, 0.1, 5.9),
    Box2.from_bounds(-7.1, -3.3, -1e-3, 0.3),
    Box2.from_bounds(-0.0, 2.0, -3.0, -0.0),
)


def _read_path_models() -> list:
    """Random trees on the unit and the odd boxes, and depth-31 chains down
    each quadrant, on the unit and a non-dyadic box."""
    models = random_models(20, d_max=5) + [
        build(box, 6, hash_classifier(seed)) for box in ODD_BOXES for seed in range(5)
    ]
    for quadrant in range(4):
        for box in ("0.0 1.0 0.0 1.0", "-1.3 2.7 0.1 5.9"):
            models.append(deserialize(chain_text(MAX_DEPTH, quadrant, box)))
    return models


def test_bounds_match_level_loop_bit_for_bit():
    for m in _read_path_models():
        t = m.table
        want = reference_bounds(m.root_box, m.max_depth, t.level, t.keys)
        for got, w in zip(m.bounds(), want):
            assert np.array_equal(got.view(np.int64), w.view(np.int64))


def _grown_text(rng: random.Random, d: int, leaves: int, box: Box2) -> str:
    """The text of a depth-``d`` tree of ``leaves`` leaves (1 mod 3, at
    least 3d + 1), grown from the root by splitting random leaves above
    depth ``d``, the first ones down one chain to depth ``d``; Black and
    White leaves at random."""
    paths = [""]
    while len(paths) < leaves:
        split = [p for p in paths if len(p) < d]
        if max(map(len, paths)) < d:
            split = [p for p in split if len(p) == max(map(len, split))]
        p = rng.choice(split)
        paths.remove(p)
        paths += [p + digit for digit in "0123"]
    found = set(paths)

    def node(p: str) -> str:
        if p in found:
            return rng.choice("BW")
        return "G" + "".join(node(p + digit) for digit in "0123")

    bounds = " ".join(repr(v) for v in (box.x.lo, box.x.hi, box.y.lo, box.y.hi))
    return f"QT1 {d} {bounds}\n{node('')}\n"


def _grid_cap(m) -> int:
    # the level of the edge grid of `_bounds`: min(d, floor(log2(leaves)))
    return min(m.max_depth, len(m.table.keys).bit_length() - 1)


def test_parsed_bounds_match_level_loop_bit_for_bit():
    # leaf counts just below 2^d (the grid stops a level above maximal
    # depth, deeper leaves bisect on) and at or above it (the grid reaches
    # maximal depth), on the odd boxes
    rng = random.Random(31)
    below, above = [], []
    for box in ODD_BOXES:
        for d in (4, 5, 7, 9):
            for n in range(2**d - 3, 2**d + 4):
                if n % 3 == 1:
                    m = deserialize(_grown_text(rng, d, n, box))
                    (below if n < 2**d else above).append(m)
    assert all((m.table.level > _grid_cap(m)).any() for m in below)
    assert all(_grid_cap(m) == m.max_depth for m in above)
    for m in _read_path_models() + below + above:
        parsed = deserialize(serialize(m))
        t = parsed.table
        want = reference_bounds(m.root_box, m.max_depth, t.level, t.keys)
        for got, w in zip(parsed.bounds(), want):
            assert np.array_equal(got.view(np.int64), w.view(np.int64))


def test_parsed_bounds_equal_built_bounds_bit_for_bit():
    models = random_models(10, d_max=5) + [
        build(box, 6, hash_classifier(seed)) for box in ODD_BOXES for seed in range(5)
    ]
    for m in models:
        parsed = deserialize(serialize(m))
        for got, want in zip(parsed.bounds(), m.bounds()):
            assert np.array_equal(got.view(np.int64), want.view(np.int64))


def _bits_of(cols) -> np.ndarray:
    return np.stack([c.view(np.int64) for c in cols])


def test_bounds_of_rows_equal_rows_of_all_bounds_bit_for_bit():
    # single rows, Black rows, empty rows and random subsets; a few rows
    # cap the edge grid at a low level, so the deep bisection takes over
    rng = np.random.default_rng(11)
    deep = 0
    for m in _read_path_models() + [build(UNIT, 3, lambda box: -1)]:
        t = m.table
        n = len(t.keys)
        every, area = _bits_of(m.bounds()), m.area().view(np.int64)
        black = t.kind == CODE_BLACK
        subsets = [np.arange(0), black, np.flatnonzero(black), np.flatnonzero(black)[:1]]
        subsets += [np.array([i]) for i in range(0, n, max(1, n // 9))]
        subsets += [rng.choice(n, size=min(k, n), replace=False) for k in (2, 3, 5, 17)]
        for rows in subsets:
            assert np.array_equal(_bits_of(m.bounds(rows)), every[:, rows])
            assert np.array_equal(m.area(rows).view(np.int64), area[rows])
            cap = min(t.depth, len(t.keys[rows]).bit_length() - 1)
            deep += bool((t.level[rows] > cap).any())
    assert deep > 100


class _Recorder:
    """A batch classifier that keeps the int64 views of the bounds of every
    batch it is given, and its verdicts: those of ``inner``, or
    pseudo-random ones of the bounds' bits, undecided on about ``p_open``
    percent of the boxes and on every box at least ``wide`` wide. It states
    ``mirror``, so that a build on a symmetric root box sends one box of
    each pair of twins."""

    def __init__(
        self, seed: int = 0, p_open: int = 0, wide: float = 0.0, inner=None, mirror: int = 0
    ):
        self.seed, self.p_open, self.wide, self.inner = seed, p_open, wide, inner
        self.mirror = mirror
        self.bits, self.verdicts = [], []

    def batch(self, *tables):
        bounds = box_bounds(*tables)
        bits = np.stack([b.view(np.int64) for b in bounds])
        if self.inner is not None:
            v = self.inner.batch(*tables)
        else:
            h = np.full(bits.shape[1], self.seed + 1, dtype=np.uint64)
            for col in bits.view(np.uint64):
                h = (h ^ col) * np.uint64(0x9E3779B97F4A7C15)
            r = (h >> np.uint64(33)) % np.uint64(100)
            open_ = (r < self.p_open) | (bounds[1] - bounds[0] >= self.wide)
            v = np.where(open_, 0, np.where(r % 2 == 0, 1, -1))
        self.bits.append(bits)
        self.verdicts.append(v)
        return v

    def take(self) -> tuple[np.ndarray, np.ndarray]:
        """Every row recorded since the last call."""
        out = np.concatenate(self.bits, axis=1), np.concatenate(self.verdicts)
        self.bits, self.verdicts = [], []
        return out


def _split(d: int, level: int, mirror: int, keys, *bounds) -> list:
    """`reference_split`, the root's quadrants cut to the half that a build
    with ``mirror`` keeps (`_kept`)."""
    keys, *bounds = reference_split(d, level, keys, *bounds)
    keep = _kept(d, keys, mirror) if level == 0 else slice(None)
    return [keys[keep]] + [b[keep] for b in bounds]


def _replay(
    bits, verdicts, depth: int, d_max: int, keys, *bounds, top=(), mirror: int = 0
) -> tuple[int, list]:
    """Checks the recorded rows of a grow from the frontier (keys, bounds)
    at ``depth``: each level's rows hold that frontier's bounds bit for
    bit, and its undecided boxes split by `_split` into the next. The
    boxes of levels 0..len(top) - 1 send no rows: their verdicts are those
    of their cells in ``top[level]``. Returns the rows checked and the
    (depth, boxes) of each level that sent rows."""
    pos, levels = 0, []
    while len(keys):
        n = len(keys)
        if depth < len(top):
            v = top[depth][keys >> 2 * (d_max - depth)]
        else:
            want = np.stack([b.view(np.int64) for b in bounds])
            assert np.array_equal(bits[:, pos:pos + n], want), (depth, n)
            v = verdicts[pos:pos + n]
            pos += n
            levels.append((depth, n))
        if depth == d_max:
            break
        open_ = v == 0
        keys, *bounds = _split(d_max, depth, mirror, keys[open_], *(b[open_] for b in bounds))
        depth += 1
    return pos, levels


def _root(box: Box2) -> list:
    """The key and bounds of the root box, as a frontier."""
    return [np.zeros(1, dtype=np.int64)] + [
        np.array([b]) for b in (box.x.lo, box.x.hi, box.y.lo, box.y.hi)
    ]


def _replay_build(rec: _Recorder, box: Box2, d: int) -> list:
    """Checks the recorded rows of a build: first the grid, every box of
    levels 0..t = min(d, TOP), with the recorder's nonzero ``mirror`` the
    root and the kept half (`_split`), with the bounds of the carried
    bisection of the whole grid bit for bit, in Morton order; then the
    rows of the levels below t, level by level, the levels 0..t reading
    the grid's verdicts. Returns the (depth, boxes) of the grid's levels
    and of each level below that sent rows."""
    bits, v = rec.take()
    t = min(d, TOP)
    keys, *bounds = _root(box)
    pos, top, levels = 0, [], []
    for lev in range(t + 1):
        n = len(keys)
        want = np.stack([b.view(np.int64) for b in bounds])
        assert np.array_equal(bits[:, pos:pos + n], want), (lev, n)
        cells = np.zeros(1 << 2 * lev, dtype=v.dtype)  # by cell of the level
        cells[keys >> 2 * (t - lev)] = v[pos:pos + n]
        top.append(cells)
        levels.append((lev, n))
        pos += n
        if lev < t:
            keys, *bounds = _split(t, lev, rec.mirror, keys, *bounds)
    n, below = _replay(bits[:, pos:], v[pos:], 0, d, *_root(box), top=top, mirror=rec.mirror)
    assert pos + n == len(v)
    return levels + below


def test_frontier_bounds_equal_carried_bisection_bit_for_bit():
    # every batch of build, refine and mismatched_leaves against a replay
    # of the split that carries each box's bounds, on frontiers that fill
    # the grid of their level and on sparse ones that do not
    levels = []
    d = 6
    for box in (UNIT,) + ODD_BOXES:
        for seed, p_open in ((0, 30), (1, 30), (2, 70), (3, 70)):
            # the boxes of levels 0 and 1 are undecided
            rec = _Recorder(seed, p_open, box.x.width / 3)
            m = build(box, d, rec)
            levels += _replay_build(rec, box, d)

            coarse = build(box, 3, rec)
            rec.take()
            t = coarse.table
            u = t.kind == CODE_UNDET
            assert u.any()
            refine(coarse, d, rec)
            start = reference_bounds(box, 3, t.level[u], t.keys[u])
            children = reference_split(d, 3, t.keys[u] << 2 * (d - 3), *start)
            bits, v = rec.take()
            n, lv = _replay(bits, v, 4, d, *children)
            assert n == len(v)
            levels += lv

            # the own classifier and another one: the check is a build of
            # the model's depth
            for other in (rec, _Recorder(seed + 10, p_open, box.x.width / 3)):
                mismatched_leaves(m, other)
                levels += _replay_build(other, box, d)
    # one chain of boxes down to maximal depth: four boxes or so a level,
    # in the grid down to level TOP and sparse frontiers below it
    for box in (UNIT,) + ODD_BOXES:
        rec = _Recorder(inner=point_classifier(box.x.lo + 0.3, box.y.hi - 0.1))
        build(box, MAX_DEPTH, rec)
        levels += _replay_build(rec, box, MAX_DEPTH)
    sparse = [(k, n) for k, n in levels if n < 2**k]
    assert len(sparse) > 100 and len(levels) - len(sparse) > 100
    assert max(k for k, _ in sparse) == MAX_DEPTH


# root boxes symmetric about 0 on both sides, on which a build takes the
# pairs of every mirror
SYMMETRIC_BOXES = (
    Box2.from_bounds(-1.0, 1.0, -1.0, 1.0),
    Box2.from_bounds(-2.7, 2.7, -8e307, 8e307),
)


@pytest.mark.parametrize("mirror", [0, 1, 2, 3])
def test_paired_build_sends_the_root_and_the_kept_half_bit_for_bit(mirror):
    # with mirror pairs the first batch holds the root, then exactly the
    # `_kept` boxes of each level 1..TOP in Morton order, and the levels
    # below it only their quadrants; without, every box of those levels
    levels = []
    for box in SYMMETRIC_BOXES:
        for d in (1, 3, TOP, 8):
            for seed, p_open in ((0, 30), (2, 70)):
                rec = _Recorder(seed, p_open, box.x.width / 3, mirror=mirror)
                build(box, d, rec)
                levels += _replay_build(rec, box, d)
        rec = _Recorder(inner=point_classifier(box.x.hi - 0.3, box.y.hi - 0.1), mirror=mirror)
        build(box, MAX_DEPTH, rec)
        levels += _replay_build(rec, box, MAX_DEPTH)
    # with pairs, one box of each pair of level-1 twins
    assert {n for k, n in levels if k == 1} == {2 if mirror else 4}
    assert max(k for k, _ in levels) == MAX_DEPTH


def test_paths_of_rows_match_whole_table():
    for m in _read_path_models():
        t = m.table
        want = reference_paths(t)
        n = len(want)
        for rows in (np.arange(n), np.arange(n)[::3], np.flatnonzero(t.kind == CODE_BLACK), np.arange(0)):
            assert t.paths(rows) == [want[i] for i in rows]


def test_locate_matches_reference():
    rng = np.random.default_rng(5)
    for m in _read_path_models():
        b = m.root_box
        x_lo, x_hi, y_lo, y_hi = m.bounds()
        # every leaf corner and edge midpoint, where ties go to the lower leaf
        xs = (x_lo, x_lo + (x_hi - x_lo) / 2, x_hi)
        ys = (y_lo, y_lo + (y_hi - y_lo) / 2, y_hi)
        points = [
            p for x in xs for y in ys if x is not xs[1] or y is not ys[1]
            for p in zip(x.tolist(), y.tolist())
        ]
        points += [(x, y) for x in (b.x.lo, b.x.hi) for y in (b.y.lo, b.y.hi)]
        u = rng.random((100, 2))
        points += list(zip(
            (b.x.lo + u[:, 0] * b.x.width).tolist(), (b.y.lo + u[:, 1] * b.y.width).tolist()
        ))
        assert [locate(m, x, y) for x, y in points] == reference_locate(m, points)


def _bits(regions) -> list:
    # areas compared bit for bit
    return [(r.region_id, r.area.hex(), r.leaf_paths, r.largest_leaf_path) for r in regions]


def _assert_labels_and_svg_match(m) -> None:
    got, want = label_regions(m), reference_label_regions(m)
    assert got.table is m.table
    assert got.region_count == want.region_count
    assert list(got.leaf_to_region.items()) == list(want.leaf_to_region.items())
    index = want.leaf_index_to_region
    assert got.region.tolist() == [index.get(row, -1) for row in range(len(m.table.kind))]
    assert all(type(area) is float for area in got.area)
    assert _bits(legacy_labels(m, got).regions) == _bits(want.regions)
    styles = (
        RenderStyle(),
        RenderStyle(palette=("#000000", "#ffffff", "#ff0000"), show_undetermined=True),
        RenderStyle(stroke="#123456", stroke_width=0.25),
    )
    for style in styles:
        for labels in (None, got):
            assert render_svg(m, labels, style) == reference_render_svg(m, labels, style)


def test_labels_and_svg_match_reference_on_random_models():
    models = random_models(20, d_max=5) + [
        build(UNIT, 5, hash_classifier(seed, 20, 20)) for seed in range(40)
    ]
    assert sum(label_regions(m).region_count > 1 for m in models) > 30
    for m in models:
        _assert_labels_and_svg_match(m)


def test_labels_and_svg_match_reference_without_black_leaves():
    m = build(UNIT, 3, lambda box: -1)
    _assert_labels_and_svg_match(m)
    assert label_regions(m).region_count == 0


def test_largest_leaf_tie_goes_to_the_first_in_preorder():
    # two equal Black quadrants side by side, then a larger pair
    for text, largest in (
        ("QT1 1 0.0 1.0 0.0 1.0\nGBBWW\n", "0"),
        ("QT1 2 0.0 1.0 0.0 1.0\nGGWWBBWBB\n", "2"),
    ):
        m = deserialize(text)
        assert legacy_labels(m, label_regions(m)).regions[0].largest_leaf_path == largest
        _assert_labels_and_svg_match(m)


def _raster_classifier(black: np.ndarray):
    """Classifier of the unit box that accepts the True cells of ``black``."""
    n = black.shape[0]

    def classify(box: Box2) -> int:
        cells = black[
            round(box.x.lo * n):round(box.x.hi * n), round(box.y.lo * n):round(box.y.hi * n)
        ]
        return 1 if cells.all() else -1 if not cells.any() else 0

    return classify


def test_serpentine_snake_is_one_region():
    # rows of Black cells joined at alternate ends: one region whose leaves
    # form the longest chain of the grid
    d = 6
    n = 1 << d
    black = np.zeros((n, n), dtype=bool)  # indexed [ix, iy]
    black[:, ::2] = True
    black[n - 1, 1::4] = True
    black[0, 3::4] = True
    m = build(UNIT, d, _raster_classifier(black))
    labels = label_regions(m)
    assert labels.region_count == 1
    assert len(labels.leaf_to_region) > n * n // 4
    _assert_labels_and_svg_match(m)


def test_svg_matches_reference_with_negative_zero_bound():
    box = Box2.from_bounds(-0.0, 2.0, -3.0, -0.0)
    m = build(box, 4, hash_classifier(7))
    svg = render_svg(m, label_regions(m))
    assert 'x="-0.0"' in svg
    _assert_labels_and_svg_match(m)
    assert serialize(deserialize(serialize(m))) == serialize(m)


def test_reprs_keep_the_sign_of_zero():
    col = np.array([0.0, -0.0, 0.5, 0.0, -0.0])
    assert render._reprs(col) == ["0.0", "-0.0", "0.5", "0.0", "-0.0"]


def test_aspect_groups_match_union_find_over_seams():
    merged = 0
    for m in random_models(40, d_max=5):
        labels = label_regions(m)
        uf = UnionFind(labels.region_count)
        for a, b in zip(*(p.tolist() for p in _seam_pairs(m, labels))):
            uf.union(a, b)
        groups: dict[int, list[int]] = {}
        for rid in range(labels.region_count):
            groups.setdefault(uf.find(rid), []).append(rid)
        aspects = aspect_regions(m, labels, wrap=True)
        got = {a.region_ids for a in aspects}
        fine = m.table.level < m.max_depth
        resolvable = {
            tuple(ids) for ids in groups.values()
            if fine[np.isin(labels.region, ids)].any()
        }
        assert got == resolvable
        for a in aspects:
            assert a.rows.tolist() == np.flatnonzero(np.isin(labels.region, a.region_ids)).tolist()
        merged += sum(len(ids) > 1 for ids in resolvable)
    assert merged > 0


def _unordered(pairs) -> list:
    return sorted(tuple(sorted(p)) for p in pairs)


def test_seam_pairs_match_sweep_over_exact_bounds():
    # random trees, the odd boxes, depth-31 chains whose Black leaves run
    # along two box edges, and a Black root, which adjoins itself through
    # both seams; region pairs, and leaf pairs through a labeling that
    # gives each Black leaf its own region
    root = build(UNIT, 3, lambda box: 1)
    assert [p.tolist() for p in _seam_pairs(root, label_regions(root))] == [[0, 0], [0, 0]]
    models = random_models(40, d_max=5) + _read_path_models() + [root]
    sizes = 0
    for m in models:
        rows = np.arange(len(m.table.kind))
        own = SimpleNamespace(region=np.where(m.table.kind == CODE_BLACK, rows, -1))
        for labels in (label_regions(m), own):
            got = _unordered(zip(*(p.tolist() for p in _seam_pairs(m, labels))))
            assert got == _unordered(reference_seam_pairs(m, labels))
        level = m.table.level
        sizes += sum(level[a] != level[b] for a, b in got)
    assert sizes > 100
