"""The array passes of the read path against the loops they replaced:
`deserialize` against a per-character parse, `label_regions` and
`aspect_regions` against a union-find, and `render_svg` against one
``repr`` per number (references in `helpers`)."""

import random

import numpy as np
import pytest

from fivebar import render
from fivebar.aspects import _seam_pairs, aspect_regions
from fivebar.interval import Box2
from fivebar.quadtree import (
    ParseError,
    build,
    deserialize,
    label_regions,
    serialize,
)
from fivebar.render import RenderStyle, render_svg

from helpers import (
    UnionFind,
    hash_classifier,
    random_models,
    reference_label_regions,
    reference_parse_body,
    reference_render_svg,
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


def _bits(regions) -> list:
    # areas compared bit for bit
    return [(r.region_id, r.area.hex(), r.leaf_paths, r.largest_leaf_path) for r in regions]


def _assert_labels_and_svg_match(m) -> None:
    got, want = label_regions(m), reference_label_regions(m)
    assert got.region_count == want.region_count
    assert list(got.leaf_to_region.items()) == list(want.leaf_to_region.items())
    assert list(got.leaf_index_to_region.items()) == list(want.leaf_index_to_region.items())
    assert _bits(got.regions) == _bits(want.regions)
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
        assert label_regions(m).regions[0].largest_leaf_path == largest
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
        for a, b in _seam_pairs(m, labels):
            uf.union(a, b)
        groups: dict[int, list[int]] = {}
        for rid in range(labels.region_count):
            groups.setdefault(uf.find(rid), []).append(rid)
        got = {a.region_ids for a in aspect_regions(m, labels, wrap=True)}
        resolvable = {
            tuple(ids) for ids in groups.values()
            if any(len(p) < m.max_depth for rid in ids for p in labels.regions[rid].leaf_paths)
        }
        assert got == resolvable
        merged += sum(len(ids) > 1 for ids in resolvable)
    assert merged > 0
