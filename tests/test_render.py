import math
import xml.etree.ElementTree as ET

import pytest

from flagflows.render import (
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
