"""Command-line driver: experiment orchestration and artifact emission.

Every subcommand reads a JSON config (overridable by flags), writes its
artifacts under the output directory, and prints a machine-readable
summary to stdout.  Summaries are deterministic for a fixed seed: keys
are sorted, floats go through a fixed-precision formatter, and nothing
time- or path-dependent is emitted.  Module errors surface as a
structured JSON diagnostic on stderr with a nonzero exit status.
"""

import argparse
import csv
import io
import itertools
import json
import math
import sys
from pathlib import Path

import numpy as np

from .config import FlagFlowsError
from .devmaps import (
    MAP_TABLE as _MAP_TABLE,
    LeafPoint,
    _check_map_name,
    _check_realizable,
    _random_positive_triple,
    _random_triples,
    curve_tolerance,
    develop,
    leaf_context,
    leaf_sweep,
    omega_membership,
    two_sheet_error,
    type_classifier,
)
from .flows import (
    cocycle,
    decay_experiment,
    flow_orbit,
    period_spectrum,
    reference_flow,
)
from .limitcurve import (
    MIN_SAMPLES,
    boundary_regularity_estimate,
    convex_domain_checks,
    frenet_checks,
    fuchsian_curve,
    sample_boundary,
)
from .render import render_scene, scene_boundary, scene_dev_image
from .reps import (
    _check_root,
    axis_thetas,
    bulge_deform,
    fuchsian_genus2,
    jordan_projection,
    root_length,
    sym_power,
)
from .words import SurfaceGroupPresentation, enumerate_conjugacy_classes

SCHEMA_VERSION = 1

DEFAULT_CONFIG = {
    "schema_version": SCHEMA_VERSION,
    "n": 3,
    "bulge": 0.0,
    "word_ball": 3,
    "seed": 0,
    "outdir": "out",
}

DEV_LEAF = (0.5, 3.6)  # (x, z) of the leaf drawn by dev-image and render
PERIODS_MAX_LEN = 4    # word length of the periods check
DECAY_T_MAX, DECAY_STEPS = 5.0, 20  # tangent-flow time and steps of the decay check

PERIOD_BOUND = 1e-6    # relative error of a flow period against its root length
COCYCLE_BOUND = 1e-7   # error of the cocycle identity c(s + t) = c(t) o flow(s) + c(s)
FUCHSIAN_DECAY_SLOPE, DECAY_SLOPE_TOL = -1.0, 0.05  # decay slope on Fuchsian curves
DECAY_MARGIN = 0.1     # slack below -1/(beta_hat - 1) on bulged curves
# domain component that each developing map lands in
EXPECTED_COMPONENT = {"tr": "2", "tan+": "2", "tan-": "2",
                      "psi1": "1", "psi2": "1", "psi3": "3", "psi4": "3"}
# the shortest genus-2 word ball with as many conjugacy classes as a sampled curve needs
SAMPLED_WORD_BALL = next(t for t in itertools.count(1) if len(enumerate_conjugacy_classes(
    SurfaceGroupPresentation(2), t)) >= MIN_SAMPLES)


# ---------------------------------------------------------------------------
# config and summary plumbing


def load_config(args) -> dict:
    cfg = dict(DEFAULT_CONFIG)
    if getattr(args, "config", None):
        with open(args.config) as fh:
            data = json.load(fh)
        if not isinstance(data, dict):
            raise ValueError("config file must hold a JSON object")
        version = data.get("schema_version", SCHEMA_VERSION)
        if version != SCHEMA_VERSION:
            raise ValueError(f"unsupported config schema version {version}")
        unknown = sorted(set(data) - set(DEFAULT_CONFIG))
        if unknown:
            raise ValueError(f"unknown config keys {unknown}; "
                             f"known keys are {sorted(DEFAULT_CONFIG)}")
        for key, value in data.items():  # a bool is no number; bulge may be an int
            want = (int, float) if key == "bulge" else (type(DEFAULT_CONFIG[key]),)
            if isinstance(value, bool) or not isinstance(value, want):
                raise ValueError(f"config key {key!r} must be "
                                 f"{' or '.join(t.__name__ for t in want)}; got {value!r}")
        cfg.update(data)
    for key in DEFAULT_CONFIG:
        value = getattr(args, key, None)
        if value is not None:
            cfg[key] = value
    if cfg["n"] < 2:
        raise ValueError(f"n must be at least 2; got n={cfg['n']}")
    try:  # an int from the file may be too large for a float
        cfg["bulge"] = float(cfg["bulge"])
    except OverflowError as exc:
        raise ValueError(f"config key 'bulge' does not convert to a float: {exc}") from None
    if not math.isfinite(cfg["bulge"]):  # json reads NaN and Infinity
        raise ValueError(f"bulge must be finite; got {cfg['bulge']}")
    if cfg["bulge"] != 0 and cfg["n"] != 3:
        raise ValueError(f"bulge deforms SL(3, R) representations only, so needs n=3; "
                         f"got n={cfg['n']} with bulge {cfg['bulge']}")
    if cfg["seed"] < 0:
        raise ValueError(f"seed must be non-negative; got {cfg['seed']}")
    if cfg["word_ball"] < 1:
        raise ValueError(f"word_ball must be at least 1; got {cfg['word_ball']}")
    if is_sampled(cfg) and cfg["word_ball"] < SAMPLED_WORD_BALL:
        raise ValueError(f"word_ball {cfg['word_ball']} holds fewer conjugacy classes than the "
                         f"MIN_SAMPLES = {MIN_SAMPLES} samples a sampled curve needs; "
                         f"use {SAMPLED_WORD_BALL} or more")
    return cfg


def _finite(obj, name: str, rounded: bool):
    """obj as plain JSON values, floats rounded to 12 significant digits if `rounded`.

    A NaN or infinity raises ValueError naming the artifact `name`, before
    anything is written.
    """
    if isinstance(obj, dict):
        return {str(k): _finite(v, name, rounded) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_finite(v, name, rounded) for v in obj]
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    if isinstance(obj, (int, np.integer)):
        return int(obj)
    if isinstance(obj, (float, np.floating)):
        v = float(obj)
        if not math.isfinite(v):
            raise ValueError(f"non-finite number in {name}")
        return float(f"{v:.12g}") if rounded else v
    return obj


def write_artifact(cfg: dict, name: str, text: str) -> None:
    """Write `text` verbatim to `name` in the output directory, making the directory."""
    outdir = Path(cfg["outdir"])
    outdir.mkdir(parents=True, exist_ok=True)
    (outdir / name).write_text(text, newline="")


def write_json_artifact(cfg: dict, name: str, data: dict) -> None:
    text = json.dumps(_finite(data, name, False), sort_keys=True, indent=2) + "\n"
    write_artifact(cfg, name, text)


def emit_summary(cfg: dict, name: str, summary: dict) -> None:
    artifact = f"{name}_summary.json"
    text = json.dumps(_finite(summary, artifact, True), sort_keys=True, indent=2) + "\n"
    write_artifact(cfg, artifact, text)
    sys.stdout.write(text)


def write_csv(cfg: dict, name: str, header, rows) -> None:
    text = io.StringIO()
    csv.writer(text).writerows([f"{v:.12g}" if isinstance(v, float) else v for v in row]
                               for row in _finite([header, *rows], name, False))
    write_artifact(cfg, name, text.getvalue())


# ---------------------------------------------------------------------------
# shared builders


def build_rep(cfg: dict):
    """(rep, reference) from a config; reference is the Fuchsian SL2 rep."""
    reference = fuchsian_genus2()
    n = cfg["n"]
    if n == 2:
        rep = reference
    else:
        rep = sym_power(reference, n)
    if cfg["bulge"] != 0.0:
        rep = bulge_deform(rep, cfg["bulge"])
    return rep, reference


def is_sampled(cfg: dict) -> bool:
    """Whether `build_curve` samples the curve on the word ball, for want of a closed form."""
    return cfg["bulge"] != 0.0 or cfg["n"] == 2


def build_curve(cfg: dict):
    rep, reference = build_rep(cfg)
    if is_sampled(cfg):
        return sample_boundary(rep, reference, cfg["word_ball"])
    return fuchsian_curve(reference, cfg["n"])


def _require_n3(cfg: dict, what: str) -> None:
    """Refuse n != 3 before any curve is built, for what needs the n=3 maps."""
    if cfg["n"] != 3:
        raise ValueError(f"{what} uses the n=3 developing maps; got n={cfg['n']}")


def _positive_roots(n: int):
    return [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]


def _parse_alpha(text: str, n: int):
    try:
        i, j = (int(t) for t in text.split(","))
    except ValueError:
        raise ValueError(f"alpha expects two integers i,j; got {text!r}") from None
    _check_root(i, j, n)
    return (i, j)


# ---------------------------------------------------------------------------
# checks shared by the subcommands and verify-all; each entry holds its
# "passed" flag and the measured values it was judged on


def frenet_check(curve):
    """Hyperconvexity of the curve; returns (report, entry)."""
    report = frenet_checks(curve)
    return report, {
        "passed": report.general_position_ok and report.osculation_ok,
        "min_triple_singular_value": report.min_triple_singular_value,
        "max_osculation_defect": report.max_osculation_defect,
    }


def periods_check(curve, words, roots):
    """Flow periods of `words` against their root lengths; returns (rows, entry).

    The one period judge of `flow`, `periods` and `verify-all`.  A row is
    [word, i, j, flow period, root length, |period - length| / |length|].
    """
    spectrum = period_spectrum(curve, words, roots)
    lengths = jordan_projection(curve.rep.matrices(words),
                                curve.rep.matrices([w.inverse() for w in words]))
    periods = np.array([[row[(i, j)] for (i, j) in roots] for row in map(spectrum.get, words)])
    wants = np.stack([root_length(lengths, i, j) for (i, j) in roots], axis=1)
    rel = np.abs(periods - wants) / np.maximum(np.abs(wants), 1e-30)
    rows = [[w, i, j, period, want, r]
            for w, *values in zip(words, periods.tolist(), wants.tolist(), rel.tolist())
            for (i, j), period, want, r in zip(roots, *values)]
    worst = float(np.max(rel, initial=0.0))  # NaN if any error is NaN
    return rows, {"passed": worst < PERIOD_BOUND, "num_words": len(words),
                  "worst_rel_error": worst}


def decay_check(curve, t_max: float, steps: int):
    """Stable-leaf decay slope along the tangent flow; returns (samples, entry, beta_hat).

    The slope is -1 on a closed-form curve, at n=3 the Fuchsian one.  On
    a sampled (bulged) one it is bounded below by -1/(beta_hat - 1) less a
    margin, from the estimated boundary regularity beta_hat (None on a
    closed-form curve).
    """
    # leaf nearly aligned with the stable-leaf base point keeps the
    # measured distance one-signed along the orbit
    slope, samples = decay_experiment(curve, LeafPoint(0.5, 0.7, 3.9), 3.5, t_max, steps)
    if curve.exact_eval is not None:
        return samples, {"passed": abs(slope - FUCHSIAN_DECAY_SLOPE) < DECAY_SLOPE_TOL,
                         "slope": slope, "expected_slope": FUCHSIAN_DECAY_SLOPE}, None
    _, beta_hat = boundary_regularity_estimate(curve)
    bound = -1.0 / (beta_hat - 1.0) - DECAY_MARGIN
    return samples, {"passed": slope >= bound, "slope": slope,
                     "slope_lower_bound": bound}, beta_hat


# ---------------------------------------------------------------------------
# subcommands


def cmd_build_rep(cfg, args):
    rep, reference = build_rep(cfg)
    write_json_artifact(cfg, "rep.json", rep.to_dict())
    rep.check_loxodromy(2)
    emit_summary(cfg, "build_rep", {
        "genus": rep.presentation.genus,
        "n": rep.n,
        "bulge": cfg["bulge"],
        "relator_distance": rep.relator_distance(),
        "loxodromy_depth2_ok": True,
    })
    return 0


def cmd_sample_curve(cfg, args):
    curve = build_curve(cfg)
    write_json_artifact(cfg, "curve.json", curve.to_dict())
    summary = {
        "num_samples": len(curve),
        "n": curve.n,
        "word_ball": cfg["word_ball"],
        "interp_error": curve.interp_error,
        "has_chart": curve.chart is not None,
    }
    if curve.chart is not None:
        pts = curve.chart_points()
        write_csv(cfg, "curve.csv", ["theta", "chart_x", "chart_y"],
                  [(t, p[0], p[1]) for t, p in zip(curve.thetas, pts)])
    emit_summary(cfg, "sample_curve", summary)
    return 0


def cmd_frenet_check(cfg, args):
    report, check = frenet_check(build_curve(cfg))
    emit_summary(cfg, "frenet_check", dict(
        check, general_position_ok=report.general_position_ok,
        osculation_ok=report.osculation_ok))
    return 0 if check["passed"] else 1


def cmd_dev_image(cfg, args):
    alpha = None
    if args.map.startswith("alpha:"):
        _check_realizable(cfg["n"])
        alpha = _parse_alpha(args.map.split(":", 1)[1], cfg["n"])
    else:
        _require_n3(cfg, f"dev-image --map {args.map}")
        _check_map_name(args.map)
    x, z = float(args.x), float(args.z)
    ys = leaf_sweep(x, z, int(args.num))
    curve = build_curve(cfg)
    header = ["y"] + [f"p{k}" for k in range(curve.n)]
    if alpha:
        ctx = leaf_context(curve, alpha, x, z)
        rows = [[y, *v] for y, v in zip(ys, ctx.image(curve.hyperplane_covectors_at(ys)))]
    else:
        header += [f"line{k}" for k in range(curve.n)]
        points, lines = develop(curve, args.map, x, ys, z)
        rows = [[y, *p, *line] for y, p, line in zip(ys, points, lines)]
    write_csv(cfg, "dev_image.csv", header, rows)
    emit_summary(cfg, "dev_image", {
        "map": args.map, "x": x, "z": z, "count": len(rows),
    })
    return 0


def cmd_flow(cfg, args):
    _check_realizable(cfg["n"])
    alpha = _parse_alpha(args.alpha, cfg["n"])
    reference = fuchsian_genus2()  # build_rep's reference: refuse a bad word before the curve
    word = reference.presentation.parse_word(args.word)
    m = reference.matrix(word)
    if abs(np.trace(m)) <= 2.0:
        raise ValueError("word image is not hyperbolic in the reference")
    curve = build_curve(cfg)
    x, z = axis_thetas(m)
    y0 = (x + ((z - x) % (2 * math.pi)) / 2) % (2 * math.pi)
    orbit = flow_orbit(curve, alpha, LeafPoint(x, y0, z), float(args.t_max), int(args.steps))
    write_csv(cfg, "flow_orbit.csv",
              ["t", "y"] + [f"p{k}" for k in range(curve.n)],
              [[t, y, *image] for t, y, image in orbit])
    rows, _ = periods_check(curve, [word], [alpha])
    period, want, rel = rows[0][3:]
    emit_summary(cfg, "flow", {
        "alpha": list(alpha),
        "word": args.word,
        "t_max": float(args.t_max),
        "steps": int(args.steps),
        "period": period,
        "root_length": want,
        "rel_error": rel,
    })
    return 0


def cmd_periods(cfg, args):
    roots = [_parse_alpha(args.alpha, cfg["n"])] if args.alpha else _positive_roots(cfg["n"])
    curve = build_curve(cfg)
    words = enumerate_conjugacy_classes(curve.rep.presentation, int(args.max_len))
    rows, check = periods_check(curve, words, roots)
    fmt = curve.rep.presentation.format_word
    write_csv(cfg, "periods.csv",
              ["word", "i", "j", "flow_period", "root_length", "rel_error"],
              [[fmt(row[0])] + row[1:] for row in rows])
    emit_summary(cfg, "periods", dict(check, max_len=int(args.max_len),
                                      roots=[list(r) for r in roots]))
    return 0 if check["passed"] else 1


def cmd_decay(cfg, args):
    _require_n3(cfg, "decay")
    samples, check, beta_hat = decay_check(build_curve(cfg), float(args.t_max), int(args.steps))
    write_csv(cfg, "decay.csv", ["t", "stable_leaf_distance"], samples)
    summary = dict(check, t_max=float(args.t_max))
    if beta_hat is not None:
        summary["beta_hat"] = beta_hat
    emit_summary(cfg, "decay", summary)
    return 0 if check["passed"] else 1


def cmd_render(cfg, args):
    figure = args.figure
    if figure.startswith("dev-"):
        _require_n3(cfg, f"render --figure {figure}")
        _check_map_name(figure[4:])
    elif figure != "boundary":
        raise ValueError(f"unknown figure {figure!r}")
    elif cfg["n"] % 2 == 0:
        raise ValueError("render --figure boundary draws the curve in its affine chart, "
                         f"which exists only at odd n; got n={cfg['n']}")
    curve = build_curve(cfg)
    scene = (scene_boundary(curve) if figure == "boundary"
             else scene_dev_image(curve, figure[4:], *DEV_LEAF))
    svg, clipped = render_scene(scene)
    write_artifact(cfg, f"{figure}.svg", svg)
    emit_summary(cfg, "render", {
        "figure": figure,
        "clipped_points": clipped,
        "layers": len(scene.layers),
    })
    return 0


def cmd_verify_all(cfg, args):
    """The paper's n=3 claims as nine checks, in a fixed order of rng draws."""
    _require_n3(cfg, "verify-all")
    seed = cfg["seed"]
    rng = np.random.default_rng(seed)
    curve = build_curve(cfg)
    checks = {"frenet": frenet_check(curve)[1]}

    convex, support = convex_domain_checks(curve)
    checks["convex_domain"] = {"passed": convex and support, "is_convex": convex,
                               "tangents_support": support}

    two_sheet = two_sheet_error(curve, seed)
    bound = curve_tolerance(curve)
    checks["covering"] = {"passed": two_sheet < bound, "two_sheet_max_error": two_sheet,
                          "tolerance": bound}

    miscount = 0
    for name in _MAP_TABLE:
        labels = omega_membership(curve, *develop(curve, name, *_random_triples(rng, 5)))
        miscount += int(np.sum(labels != EXPECTED_COMPONENT[name]))
    checks["membership"] = {"passed": miscount == 0, "trials": 5 * len(_MAP_TABLE),
                            "misclassified": miscount}

    class_ok = True
    for name, want in (("tr", "transverse"), ("tan+", "tangent_plus"),
                       ("tan-", "tangent_minus")):
        p = _random_positive_triple(rng, spread=0.8)
        points, _ = develop(curve, name, p.x, leaf_sweep(p.x, p.z, 16), p.z)
        class_ok = class_ok and type_classifier(points, curve, p.x, p.z) == want
    checks["type_classifier"] = {"passed": class_ok}

    words = enumerate_conjugacy_classes(curve.rep.presentation, PERIODS_MAX_LEN)
    checks["periods"] = periods_check(curve, words, _positive_roots(3))[1]

    # c(s + t) at p, c(t) at p moved by s, and c(s) at p, for 20 draws, in one stack
    entries = []
    for _ in range(20):
        p = _random_positive_triple(rng)
        s, t = rng.uniform(0.1, 1.0), rng.uniform(0.1, 1.0)
        moved = LeafPoint(p.x, reference_flow(p.x, p.z, p.y, s), p.z)
        entries += [(p.x, p.y, p.z, s + t), (p.x, moved.y, p.z, t), (p.x, p.y, p.z, s)]
    whole, later, first = cocycle(curve, (1, 2), *np.transpose(entries)).reshape(-1, 3).T
    worst_cocycle = max([0.0, *np.abs(whole - later - first).tolist()])
    checks["cocycle"] = {"passed": worst_cocycle < COCYCLE_BOUND,
                         "worst_identity_error": worst_cocycle}

    checks["decay"] = decay_check(curve, DECAY_T_MAX, DECAY_STEPS)[1]

    svg, clipped = render_scene(scene_dev_image(curve, "tan+", *DEV_LEAF))
    checks["render"] = {"passed": svg.startswith("<svg") and svg.endswith("</svg>"),
                        "clipped_points": clipped}

    ok = all(c["passed"] for c in checks.values())
    emit_summary(cfg, "verify_all", {
        "schema_version": SCHEMA_VERSION,
        "seed": seed,
        "n": 3,
        "bulge": cfg["bulge"],
        "checks": checks,
        "passed": ok,
    })
    return 0 if ok else 1


# ---------------------------------------------------------------------------
# entry point


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="flagflows",
        description="Limit curves, developing maps, and refraction flows "
                    "of Hitchin representations.",
    )
    parser.add_argument("--config", help="JSON config file")
    parser.add_argument("--n", type=int)
    parser.add_argument("--bulge", type=float)
    parser.add_argument("--word-ball", type=int, dest="word_ball")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--outdir")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def command(name, handler):
        p = sub.add_parser(name)
        p.set_defaults(handler=handler)
        return p

    command("build-rep", cmd_build_rep)
    command("sample-curve", cmd_sample_curve)
    command("frenet-check", cmd_frenet_check)

    p = command("dev-image", cmd_dev_image)
    p.add_argument("--map", required=True,
                   help="tr|tan+|tan-|psi1..4|alpha:i,j")
    p.add_argument("--x", type=float, default=DEV_LEAF[0])
    p.add_argument("--z", type=float, default=DEV_LEAF[1])
    p.add_argument("--num", type=int, default=64)

    p = command("flow", cmd_flow)
    p.add_argument("--alpha", required=True, help="i,j")
    p.add_argument("--word", required=True, help='e.g. "a1 b1"')
    p.add_argument("--t-max", type=float, default=5.0, dest="t_max")
    p.add_argument("--steps", type=int, default=50)

    p = command("periods", cmd_periods)
    p.add_argument("--alpha", help="i,j (default: all positive roots)")
    p.add_argument("--max-len", type=int, default=PERIODS_MAX_LEN, dest="max_len")

    p = command("decay", cmd_decay)
    p.add_argument("--t-max", type=float, default=DECAY_T_MAX, dest="t_max")
    p.add_argument("--steps", type=int, default=DECAY_STEPS)

    p = command("render", cmd_render)
    p.add_argument("--figure", required=True,
                   help="boundary|dev-tr|dev-tan+|dev-tan-|dev-psi1..4")

    command("verify-all", cmd_verify_all)
    return parser


def main(argv=None) -> int:
    args = make_parser().parse_args(argv)
    try:
        cfg = load_config(args)
        return args.handler(cfg, args)
    except (FlagFlowsError, ValueError, OSError) as exc:
        diagnostic = {
            "error": {
                "type": type(exc).__name__,
                "message": str(exc),
                "subcommand": args.subcommand,
            }
        }
        sys.stderr.write(json.dumps(diagnostic, sort_keys=True, indent=2) + "\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
