import math
import xml.etree.ElementTree as ET

import numpy as np
import pytest

from flagflows.render import (
    SIZE,
    SceneDescription,
    render_scene,
    scene_boundary,
    scene_dev_image,
)

SVG_NS = "{http://www.w3.org/2000/svg}"
VIEWPORT = (-2.0, 2.0, -2.0, 2.0)


def _parse(svg_text):
    return ET.fromstring(svg_text)


def test_empty_scene_is_valid_svg():
    svg, clipped = render_scene(SceneDescription(VIEWPORT))
    root = _parse(svg)
    assert root.tag == f"{SVG_NS}svg"
    assert root.attrib["width"] == root.attrib["height"] == "640"
    assert len(list(root)) == 0
    assert clipped == 0


def test_single_polyline_emits_one_element():
    scene = SceneDescription(VIEWPORT)
    scene.add_polyline([(0.0, 0.0), (1.0, 1.0), (1.0, -1.0)])
    svg, clipped = render_scene(scene)
    root = _parse(svg)
    polylines = root.findall(f"{SVG_NS}polyline")
    assert len(polylines) == 1
    assert clipped == 0


def test_out_of_viewport_points_are_clipped_and_counted():
    scene = SceneDescription(viewport=(-1.0, 1.0, -1.0, 1.0))
    scene.add_point((5.0, 0.0), "#000")
    scene.add_point((0.0, 0.0), "#000")
    svg, clipped = render_scene(scene)
    assert clipped == 1
    root = _parse(svg)
    circles = root.findall(f"{SVG_NS}circle")
    # the clipped point is clamped onto the viewport edge
    assert float(circles[0].attrib["cx"]) <= 640


def test_non_finite_coordinates_are_rejected():
    scene = SceneDescription(VIEWPORT)
    with pytest.raises(ValueError):
        scene.add_point((float("nan"), 0.0), "#000")
    with pytest.raises(ValueError):
        scene.add_segment((0.0, 0.0), (math.inf, 1.0), "#a33")


def test_rendering_is_deterministic():
    def build():
        scene = SceneDescription(VIEWPORT)
        scene.add_polyline([(0.1, 0.2), (0.3, 0.4)])
        scene.add_label((0.0, 0.0), "axis")
        return render_scene(scene)[0]

    assert build() == build()


def test_boundary_scene_of_the_conic(exact_curve):
    scene = scene_boundary(exact_curve)
    svg, clipped = render_scene(scene)
    assert clipped == 0
    root = _parse(svg)
    assert len(root.findall(f"{SVG_NS}polyline")) == 1


def test_dev_image_scene_contains_curve_points_and_tangents(exact_curve):
    scene = scene_dev_image(exact_curve, "tan+", 0.5, 3.6)
    svg, _ = render_scene(scene)
    root = _parse(svg)
    assert len(root.findall(f"{SVG_NS}polyline")) == 2  # boundary + leaf image
    assert len(root.findall(f"{SVG_NS}circle")) == 2   # the two leaf endpoints
    assert len(root.findall(f"{SVG_NS}text")) == 1


def test_dev_image_rejects_unknown_map(exact_curve):
    with pytest.raises(ValueError):
        scene_dev_image(exact_curve, "bogus", 0.5, 3.6)


def _pixels_by_point(scene, points):
    """The per-point rule of `SceneDescription._pixels`: Python floats, min and max."""
    points = [tuple(map(float, p)) for p in points]
    if not all(math.isfinite(c) for p in points for c in p):
        raise ValueError("non-finite coordinate in scene primitive")
    xmin, xmax, ymin, ymax = scene.viewport
    out = []
    for x, y in points:
        cx, cy = min(max(x, xmin), xmax), min(max(y, ymin), ymax)
        scene.clipped += cx != x or cy != y
        out.append((f"{(cx - xmin) * (SIZE / (xmax - xmin)):.4f}",
                    f"{SIZE - (cy - ymin) * (SIZE / (ymax - ymin)):.4f}"))
    return out


def test_pixels_equal_the_per_point_rule():
    """Points past each edge, on each edge and corner, and inside give the per-point
    strings and clipped count, also with a signed zero on a zero edge."""
    for viewport in [(-1.0, 1.0, -2.0, 3.0), (0.0, 2.5, -0.7, 0.0), (-3.1, 0.2, 0.0, 1e-3)]:
        xmin, xmax, ymin, ymax = viewport
        xs = [xmin - 1.0, xmin, -0.0, 0.0, (xmin + xmax) / 2, xmax, xmax + 2.0,
              math.nextafter(xmax, math.inf)]
        ys = [ymin - 3.0, ymin, -0.0, 0.0, (ymin + ymax) / 2, ymax, ymax + 0.1,
              math.nextafter(ymin, -math.inf)]
        grid = [(x, y) for x in xs for y in ys]
        cloud = np.random.default_rng(3).normal(0.0, 3.0, (500, 2))
        for points in (grid, np.array(grid), cloud, grid[:1], []):
            scene, oracle = SceneDescription(viewport), SceneDescription(viewport)
            assert scene._pixels(points) == _pixels_by_point(oracle, points)
            assert scene.clipped == oracle.clipped
            assert scene.clipped > 0 or len(points) == 0


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_pixels_refuse_a_non_finite_coordinate_as_the_per_point_rule(bad):
    """The refusal comes before any point is counted, wherever the bad coordinate is."""
    points = [(5.0, 0.0), (0.0, 0.0), (0.0, bad), (9.0, 9.0)]
    for rule in (SceneDescription._pixels, _pixels_by_point):
        scene = SceneDescription(VIEWPORT)
        with pytest.raises(ValueError, match="^non-finite coordinate in scene primitive$"):
            rule(scene, points)
        assert scene.clipped == 0


@pytest.mark.parametrize("name, figure", [("exact_curve", "tan+"), ("bulged_curve03", "tan-"),
                                          ("bulged_curve03", "psi3")])
def test_scenes_equal_the_per_point_rule(monkeypatch, request, name, figure):
    """A whole dev-image scene, clamped points included, is the per-point rule's text."""
    curve = request.getfixturevalue(name)
    svg, clipped = render_scene(scene_dev_image(curve, figure, 0.5, 3.6))
    monkeypatch.setattr(SceneDescription, "_pixels", _pixels_by_point)
    assert render_scene(scene_dev_image(curve, figure, 0.5, 3.6)) == (svg, clipped)
    assert clipped > 0
