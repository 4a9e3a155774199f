"""Deterministic SVG emission for chart-coordinate scenes.

A SceneDescription turns each drawing primitive (polyline, segment,
point, label) in chart coordinates into its SVG element as it is added:
out-of-viewport coordinates are clamped onto the viewport edge and
counted, and pixel coordinates get a fixed float format.  `render_scene`
only wraps the elements, so the text is deterministic: fixed attribute
order, no timestamps.
"""

from dataclasses import dataclass, field

import numpy as np

from .devmaps import develop, leaf_sweep

SIZE = 640            # canvas width and height in pixels
SEGMENT_WIDTH = 0.8   # stroke width of tangent and leaf lines
POINT_RADIUS = 3.0
LABEL_COLOR, LABEL_SIZE = "#000", 12
DEV_SAMPLES = 48      # leaf points developed by scene_dev_image


@dataclass
class SceneDescription:
    """SVG elements of chart-coordinate primitives, in the order added."""

    viewport: tuple  # xmin, xmax, ymin, ymax
    layers: list = field(default_factory=list, init=False)
    clipped: int = field(default=0, init=False)  # coordinates clamped onto the viewport

    def _pixels(self, points):
        """Formatted pixel coordinates of chart points, clamped to the viewport."""
        points = np.asarray(points, dtype=float).reshape(-1, 2)
        if not np.all(np.isfinite(points)):
            raise ValueError("non-finite coordinate in scene primitive")
        xmin, xmax, ymin, ymax = self.viewport
        low, high = np.array([xmin, ymin]), np.array([xmax, ymax])
        # the clamp min(max(p, low), high), which keeps p on a tie
        clamped = np.where(low > points, low, points)
        clamped = np.where(high < clamped, high, clamped)
        self.clipped += int(np.count_nonzero(np.any(clamped != points, axis=1)))
        x = (clamped[:, 0] - xmin) * (SIZE / (xmax - xmin))
        y = SIZE - (clamped[:, 1] - ymin) * (SIZE / (ymax - ymin))
        return [(f"{a:.4f}", f"{b:.4f}") for a, b in zip(x.tolist(), y.tolist())]

    def add_polyline(self, points, color="#1f3a6e", stroke_width=1.5, closed=False):
        pts = self._pixels(points)
        if closed and pts:
            pts.append(pts[0])
        d = " ".join(f"{x},{y}" for x, y in pts)
        self.layers.append(f'<polyline points="{d}" fill="none" stroke="{color}" '
                           f'stroke-width="{stroke_width}"/>')

    def add_segment(self, p, q, color, dashed=False):
        (x1, y1), (x2, y2) = self._pixels([p, q])
        dash = ' stroke-dasharray="6,4"' if dashed else ""
        self.layers.append(f'<line x1="{x1}" y1="{y1}" x2="{x2}" y2="{y2}" '
                           f'stroke="{color}" stroke-width="{SEGMENT_WIDTH}"{dash}/>')

    def add_point(self, p, color):
        [(x, y)] = self._pixels([p])
        self.layers.append(f'<circle cx="{x}" cy="{y}" r="{POINT_RADIUS}" fill="{color}"/>')

    def add_label(self, p, text):
        [(x, y)] = self._pixels([p])
        self.layers.append(f'<text x="{x}" y="{y}" fill="{LABEL_COLOR}" '
                           f'font-size="{LABEL_SIZE}">{text}</text>')


def render_scene(scene: SceneDescription):
    """Render a scene to SVG text; returns (svg, clipped_point_count)."""
    root = (f'<svg xmlns="http://www.w3.org/2000/svg" width="{SIZE}" '
            f'height="{SIZE}" viewBox="0 0 {SIZE} {SIZE}">')
    return "\n".join([root, *scene.layers, "</svg>"]), scene.clipped


def scene_boundary(curve) -> SceneDescription:
    """The convex limit curve in its chart, as a closed polyline."""
    pts = curve.chart_points()
    lo, hi = pts.min(axis=0), pts.max(axis=0)
    pad = 0.3 * max(hi - lo)
    scene = SceneDescription(viewport=(lo[0] - pad, hi[0] + pad, lo[1] - pad, hi[1] + pad))
    scene.add_polyline(pts, closed=True)
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


def scene_dev_image(curve, map_name: str, x: float, z: float) -> SceneDescription:
    """Boundary, leaf chord/tangent, and a developed leaf image."""
    points, lines = develop(curve, map_name, x, leaf_sweep(x, z, DEV_SAMPLES), z)
    scene = scene_boundary(curve)
    shown = curve.in_chart(points)  # the rest are on the line at infinity
    scene.add_polyline(curve.to_chart(points[shown]), color="#2a7", stroke_width=1.2)
    for frame, color in zip(curve.frames_at([x, z]), ("#a33", "#36c")):
        scene.add_point(curve.to_chart(frame[:, 0]), color=color)
        tang = curve.line_to_chart(frame[:, -1])
        seg = _segment_within_viewport(scene, tang)
        if seg:
            scene.add_segment(seg[0], seg[1], color=color, dashed=True)
    seg = _segment_within_viewport(scene, curve.line_to_chart(lines[DEV_SAMPLES // 2 - 1]))
    if seg:
        scene.add_segment(seg[0], seg[1], color="#777")
    xmin, xmax, ymin, ymax = scene.viewport  # the label sits at the same pixels on every curve
    scene.add_label((xmin + 0.02 * (xmax - xmin), ymax - 0.05 * (ymax - ymin)), map_name)
    return scene
