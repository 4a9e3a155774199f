"""Deterministic SVG emission for chart-coordinate scenes.

A SceneDescription is a list of drawing layers (polylines, segments,
points, labels) in chart coordinates.  Rendering is purely textual and
deterministic: fixed float formatting, fixed attribute order, no
timestamps.  Out-of-viewport coordinates are clipped and counted.
"""

import math
from dataclasses import dataclass, field


@dataclass
class SceneDescription:
    """Layered drawing primitives in chart coordinates."""

    width: int = 640
    height: int = 640
    viewport: tuple = (-2.0, 2.0, -2.0, 2.0)  # xmin, xmax, ymin, ymax
    layers: list = field(default_factory=list)

    def add_polyline(self, points, color="#1f3a6e", stroke_width=1.5, closed=False):
        self._check(points)
        self.layers.append({"type": "polyline", "points": [tuple(map(float, p)) for p in points],
                            "color": color, "stroke_width": stroke_width, "closed": closed})

    def add_segment(self, p, q, color="#a33", stroke_width=1.0, dashed=False):
        self._check([p, q])
        self.layers.append({"type": "segment", "p": tuple(map(float, p)), "q": tuple(map(float, q)),
                            "color": color, "stroke_width": stroke_width, "dashed": dashed})

    def add_point(self, p, color="#000", radius=2.5):
        self._check([p])
        self.layers.append({"type": "point", "p": tuple(map(float, p)),
                            "color": color, "radius": radius})

    def add_label(self, p, text, color="#000", size=12):
        self._check([p])
        self.layers.append({"type": "label", "p": tuple(map(float, p)),
                            "text": str(text), "color": color, "size": size})

    @staticmethod
    def _check(points):
        for p in points:
            if not all(math.isfinite(float(c)) for c in p):
                raise ValueError("non-finite coordinate in scene primitive")


def _fmt(v: float) -> str:
    return f"{v:.4f}"


def render_scene(scene: SceneDescription):
    """Render a scene to SVG text; returns (svg, clipped_point_count)."""
    xmin, xmax, ymin, ymax = scene.viewport
    sx = scene.width / (xmax - xmin)
    sy = scene.height / (ymax - ymin)
    clipped = 0

    def to_px(p):
        nonlocal clipped
        x, y = p
        cx = min(max(x, xmin), xmax)
        cy = min(max(y, ymin), ymax)
        if cx != x or cy != y:
            clipped += 1
        return ((cx - xmin) * sx, scene.height - (cy - ymin) * sy)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{scene.width}" '
        f'height="{scene.height}" viewBox="0 0 {scene.width} {scene.height}">'
    ]
    for layer in scene.layers:
        kind = layer["type"]
        if kind == "polyline":
            pts = [to_px(p) for p in layer["points"]]
            if layer["closed"] and pts:
                pts.append(pts[0])
            d = " ".join(f"{_fmt(x)},{_fmt(y)}" for x, y in pts)
            parts.append(
                f'<polyline points="{d}" fill="none" stroke="{layer["color"]}" '
                f'stroke-width="{layer["stroke_width"]}"/>'
            )
        elif kind == "segment":
            (x1, y1), (x2, y2) = to_px(layer["p"]), to_px(layer["q"])
            dash = ' stroke-dasharray="6,4"' if layer["dashed"] else ""
            parts.append(
                f'<line x1="{_fmt(x1)}" y1="{_fmt(y1)}" x2="{_fmt(x2)}" y2="{_fmt(y2)}" '
                f'stroke="{layer["color"]}" stroke-width="{layer["stroke_width"]}"{dash}/>'
            )
        elif kind == "point":
            x, y = to_px(layer["p"])
            parts.append(
                f'<circle cx="{_fmt(x)}" cy="{_fmt(y)}" r="{layer["radius"]}" '
                f'fill="{layer["color"]}"/>'
            )
        elif kind == "label":
            x, y = to_px(layer["p"])
            parts.append(
                f'<text x="{_fmt(x)}" y="{_fmt(y)}" fill="{layer["color"]}" '
                f'font-size="{layer["size"]}">{layer["text"]}</text>'
            )
        else:
            raise ValueError(f"unknown layer type {kind!r}")
    parts.append("</svg>")
    return "\n".join(parts), clipped


def scene_boundary(curve) -> SceneDescription:
    """The convex limit curve in its chart, as a closed polyline."""
    pts = curve.chart_points()
    lo, hi = pts.min(axis=0), pts.max(axis=0)
    pad = 0.3 * max(hi - lo)
    scene = SceneDescription(viewport=(lo[0] - pad, hi[0] + pad, lo[1] - pad, hi[1] + pad))
    scene.add_polyline([tuple(p) for p in pts], closed=True)
    return scene


def _segment_within_viewport(scene, coeffs):
    """Endpoints of the line a x + b y + c = 0 clipped to the viewport box."""
    a, b, c = coeffs
    xmin, xmax, ymin, ymax = scene.viewport
    hits = []
    for x in (xmin, xmax):
        if abs(b) > 1e-12:
            y = -(a * x + c) / b
            if ymin <= y <= ymax:
                hits.append((x, y))
    for y in (ymin, ymax):
        if abs(a) > 1e-12:
            x = -(b * y + c) / a
            if xmin <= x <= xmax:
                hits.append((x, y))
    uniq = []
    for h in hits:
        if not any(abs(h[0] - u[0]) + abs(h[1] - u[1]) < 1e-9 for u in uniq):
            uniq.append(h)
    return uniq[:2] if len(uniq) >= 2 else None


def scene_dev_image(curve, map_name: str, x: float, z: float,
                    num_samples: int = 48) -> SceneDescription:
    """Boundary, leaf chord/tangent, and a developed leaf image."""
    from .devmaps import MAP_TABLE, LeafPoint, leaf_sweep
    from .projective import annihilator

    if map_name not in MAP_TABLE:
        raise ValueError(f"unknown map {map_name!r}; choose from {sorted(MAP_TABLE)}")
    fn = MAP_TABLE[map_name]
    scene = scene_boundary(curve)
    image_pts = []
    example_line = None
    for k, y in enumerate(leaf_sweep(x, z, num_samples), start=1):
        f = fn(curve, LeafPoint(x, y, z))
        w = curve.chart.frame @ f.point.vector
        if abs(w[-1]) > 1e-9:
            image_pts.append(tuple(w[:-1] / w[-1]))
        if k == num_samples // 2:
            example_line = f.line
    scene.add_polyline(image_pts, color="#2a7", stroke_width=1.2)
    for theta, color in ((x, "#a33"), (z, "#36c")):
        scene.add_point(tuple(curve.chart_point(theta)), color=color, radius=3.0)
        tang = curve.chart.line_to_chart(annihilator(curve.flag_at(theta).frame)[:, 0])
        seg = _segment_within_viewport(scene, tang)
        if seg:
            scene.add_segment(seg[0], seg[1], color=color, stroke_width=0.8, dashed=True)
    if example_line is not None:
        coeffs = curve.chart.line_to_chart(annihilator(example_line.basis)[:, 0])
        seg = _segment_within_viewport(scene, coeffs)
        if seg:
            scene.add_segment(seg[0], seg[1], color="#777", stroke_width=0.8)
    scene.add_label((scene.viewport[0] + 0.05, scene.viewport[3] - 0.15), map_name)
    return scene
