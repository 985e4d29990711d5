import math
import xml.etree.ElementTree as ET

import pytest

from infodyn.svgplot import line_plot


def test_line_plot_is_valid_xml_with_polylines():
    svg = line_plot([0.0, 1.0, 2.0], [("D", [0.1, 0.4, 0.2]), ("lam", [-0.1, 0.0, 0.3])])
    root = ET.fromstring(svg)
    assert root.tag.endswith("svg")
    body = ET.tostring(root, encoding="unicode")
    assert body.count("polyline") >= 2
    assert "D" in svg and "lam" in svg


def test_line_plot_deterministic():
    args = ([0.0, 0.5, 1.0], [("v", [1.0, 2.0, 1.5])])
    assert line_plot(*args) == line_plot(*args)


def test_line_plot_skips_non_finite_points():
    svg = line_plot([0.0, 1.0, 2.0, 3.0], [("v", [0.5, -math.inf, 0.7, 0.9])])
    ET.fromstring(svg)
    # the infinite point must not leak into any coordinate list
    assert "inf" not in svg.lower()


def test_line_plot_rejects_empty_input():
    with pytest.raises(ValueError):
        line_plot([], [("v", [])])


def test_line_plot_constant_series_padded_axis():
    svg = line_plot([0.0, 1.0], [("flat", [0.3, 0.3])])
    ET.fromstring(svg)


def test_line_plot_escapes_labels():
    svg = line_plot([0.0, 1.0], [("p<q", [0.1, 0.2])], xlabel="a < b", ylabel="R&D")
    texts = [el.text for el in ET.fromstring(svg).iter() if el.tag.endswith("text")]
    assert {"a < b", "R&D", "p<q"} <= set(texts)


def test_line_plot_splits_at_a_non_finite_x():
    root = ET.fromstring(line_plot([math.nan, 1.0, 2.0], [("a", [1.0, 2.0, 3.0])]))
    lines = [el.get("points") for el in root.iter() if el.tag.endswith("polyline")]
    assert lines == ["64,356 624,20"]


def test_line_plot_rejects_a_series_of_another_length():
    with pytest.raises(ValueError, match="^every series must match the length of xs$"):
        line_plot([0.0, 1.0], [("v", [0.5])])


def test_line_plot_of_a_series_with_no_finite_value_spans_zero_to_one():
    svg = line_plot([0.0, 1.0], [("v", [math.nan, math.inf])])
    root = ET.fromstring(svg)
    ticks = [el.text for el in root.iter() if el.tag.endswith("text") and el.get("text-anchor") == "end"]
    assert ticks == ["0", "0.25", "0.5", "0.75", "1"]
    assert "polyline" not in svg and "circle" not in svg
