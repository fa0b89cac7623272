"""SVG rendering: rectangle counts, determinism, styling options."""

import pytest

from fivebar.interval import Box2
from fivebar.quadtree import (
    CODE_BLACK,
    CODE_UNDET,
    build,
    deserialize,
    label_regions,
)
from fivebar.render import DEFAULT_PALETTE, RenderStyle, render_svg

UNIT = Box2.from_bounds(0.0, 1.0, 0.0, 1.0)


def rect_count(svg: str) -> int:
    return svg.count("<rect ")


def test_single_black_root_is_one_rect_covering_viewbox():
    m = build(UNIT, 2, lambda box: 1)
    svg = render_svg(m)
    assert rect_count(svg) == 1
    assert 'viewBox="0.0 0.0 1.0 1.0"' in svg
    assert 'x="0.0" y="0.0" width="1.0" height="1.0"' in svg


def test_rect_count_equals_black_leaf_count():
    m = deserialize("QT1 2 0.0 1.0 0.0 1.0\nGBGBWUWWB\n")
    kinds = m.table.kind.tolist()
    n_black = kinds.count(CODE_BLACK)
    n_undet = kinds.count(CODE_UNDET)
    assert rect_count(render_svg(m)) == n_black
    shown = render_svg(m, style=RenderStyle(show_undetermined=True))
    assert rect_count(shown) == n_black + n_undet


def test_render_deterministic():
    m = deserialize("QT1 2 0.0 1.0 0.0 1.0\nGBGBWUWWB\n")
    labels = label_regions(m)
    assert render_svg(m, labels) == render_svg(m, labels)


def test_region_colors_follow_palette():
    m = deserialize("QT1 1 0.0 1.0 0.0 1.0\nGBWWB\n")  # two separate regions
    labels = label_regions(m)
    svg = render_svg(m, labels)
    assert DEFAULT_PALETTE[0] in svg
    assert DEFAULT_PALETTE[1] in svg


def test_unlabeled_black_uses_first_palette_color():
    m = deserialize("QT1 1 0.0 1.0 0.0 1.0\nGBWWB\n")
    svg = render_svg(m)
    assert svg.count(DEFAULT_PALETTE[0]) == 2
    assert DEFAULT_PALETTE[1] not in svg


def test_y_axis_flipped():
    # only the x-lo/y-hi quadrant is Black: it must render at the top of the
    # image, i.e. at svg y = 0
    m = deserialize("QT1 1 0.0 1.0 0.0 1.0\nGWWBW\n")
    svg = render_svg(m)
    assert '<rect x="0.0" y="0.0" width="0.5" height="0.5"' in svg


def test_stroke_attributes():
    m = build(UNIT, 2, lambda box: 1)
    svg = render_svg(m, style=RenderStyle(stroke="#000000", stroke_width=0.01))
    assert 'stroke="#000000"' in svg
    assert "stroke-width" in svg


def test_empty_palette_rejected():
    with pytest.raises(ValueError):
        RenderStyle(palette=())
