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
import functools
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
    RESIDUAL_TOL,
    LeafPoint,
    _check_map_name,
    _check_realizable,
    _positive_triples,
    _random_triples,
    develop,
    leaf_context,
    leaf_sweep,
    omega_membership,
    two_sheet_error,
    type_classifier,
)
from .flows import (
    _spectrum_blocks,
    cocycle,
    decay_experiment,
    flow_orbit,
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
    first_failing_word,
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
    if cfg["bulge"] != 0.0 and cfg["word_ball"] < SAMPLED_WORD_BALL:
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
    rep = sym_power(reference, cfg["n"])
    if cfg["bulge"] != 0.0:
        rep = bulge_deform(rep, cfg["bulge"])
    return rep, reference


def build_curve(cfg: dict):
    """The closed-form Fuchsian curve, or a bulged curve sampled on the word ball."""
    rep, reference = build_rep(cfg)
    if cfg["bulge"] != 0.0:
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


def periods_check(curve, words, roots):
    """Flow periods of `words` against their root lengths; returns (table, entry).

    The one period judge of `flow`, `periods` and `verify-all`; the root
    lengths come from the word products of `_spectrum_blocks`.  `table`
    holds three (words x roots) arrays: flow periods, root lengths and
    |period - length| / |length|.
    """
    _, g, g_inv, periods = zip(*_spectrum_blocks(curve, words, roots))
    periods, g, g_inv = (np.concatenate(a) for a in (periods, g, g_inv))
    lengths = first_failing_word(curve.rep.presentation, words,
                                 lambda rows: jordan_projection(g[rows], g_inv[rows]))
    wants = np.stack([root_length(lengths, i, j) for (i, j) in roots], axis=1)
    rel = np.abs(periods - wants) / np.maximum(np.abs(wants), 1e-30)
    worst = float(np.max(rel, initial=0.0))  # NaN if any error is NaN
    return (periods, wants, rel), {"passed": worst < PERIOD_BOUND, "num_words": len(words),
                                   "worst_rel_error": worst}


def decay_check(curve, t_max: float, steps: int):
    """Stable-leaf decay slope along the tangent flow; returns (samples, entry).

    The slope is -1 on a closed-form curve, at n=3 the Fuchsian one.  On
    a sampled (bulged) one it is bounded below by -1/(beta_hat - 1) less a
    margin, from the estimated boundary regularity beta_hat, which the
    entry holds.
    """
    # leaf nearly aligned with the stable-leaf base point keeps the
    # measured distance one-signed along the orbit
    slope, samples = decay_experiment(curve, LeafPoint(0.5, 0.7, 3.9), 3.5, t_max, steps)
    if curve.exact_eval is not None:
        return samples, {"passed": abs(slope - FUCHSIAN_DECAY_SLOPE) < DECAY_SLOPE_TOL,
                         "slope": slope, "expected_slope": FUCHSIAN_DECAY_SLOPE}
    _, beta_hat = boundary_regularity_estimate(curve)
    bound = -1.0 / (beta_hat - 1.0) - DECAY_MARGIN
    return samples, {"passed": slope >= bound, "slope": slope, "slope_lower_bound": bound,
                     "beta_hat": beta_hat}


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
    check = frenet_checks(build_curve(cfg))
    emit_summary(cfg, "frenet_check", check)
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
        rows = [[y, *v] for y, v in zip(ys, ctx.image(curve.frames_at(ys)[..., -1]))]
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
    x, z = axis_thetas(reference.matrix(word))
    curve = build_curve(cfg)
    y0 = leaf_sweep(x, z, 1)[0]
    orbit = flow_orbit(curve, alpha, LeafPoint(x, y0, z), float(args.t_max), int(args.steps))
    write_csv(cfg, "flow_orbit.csv",
              ["t", "y"] + [f"p{k}" for k in range(curve.n)],
              [[t, y, *image] for t, y, image in orbit])
    table, _ = periods_check(curve, [word], [alpha])
    period, want, rel = (a.item() for a in table)
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
    table, check = periods_check(curve, words, roots)
    fmt = curve.rep.presentation.format_word
    write_csv(cfg, "periods.csv",
              ["word", "i", "j", "flow_period", "root_length", "rel_error"],
              [[fmt(w), i, j, *row] for w, *values in zip(words, *(a.tolist() for a in table))
               for (i, j), *row in zip(roots, *values)])
    emit_summary(cfg, "periods", dict(check, max_len=int(args.max_len),
                                      roots=[list(r) for r in roots]))
    return 0 if check["passed"] else 1


def cmd_decay(cfg, args):
    _require_n3(cfg, "decay")
    samples, check = decay_check(build_curve(cfg), float(args.t_max), int(args.steps))
    write_csv(cfg, "decay.csv", ["t", "stable_leaf_distance"], samples)
    emit_summary(cfg, "decay", dict(check, t_max=float(args.t_max)))
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
    checks = {"frenet": frenet_checks(curve), "convex_domain": convex_domain_checks(curve)}

    two_sheet = two_sheet_error(curve, seed)
    checks["covering"] = {"passed": two_sheet < RESIDUAL_TOL, "two_sheet_max_error": two_sheet,
                          "tolerance": RESIDUAL_TOL}

    # five triples per map, drawn map after map, and one membership call on all of them
    triples = _random_triples(rng, 5 * len(_MAP_TABLE)).reshape(3, len(_MAP_TABLE), 5)
    points, lines = map(np.concatenate, zip(*(develop(curve, name, *triples[:, k])
                                              for k, name in enumerate(_MAP_TABLE))))
    expected = np.repeat([EXPECTED_COMPONENT[name] for name in _MAP_TABLE], 5)
    miscount = int(np.count_nonzero(omega_membership(curve, points, lines) != expected))
    checks["membership"] = {"passed": miscount == 0, "trials": expected.size,
                            "misclassified": miscount}

    class_ok = True
    draws = _positive_triples(rng.random((3, 3)), spread=0.8).T.tolist()
    for (name, want), (x, _, z) in zip((("tr", "transverse"), ("tan+", "tangent_plus"),
                                        ("tan-", "tangent_minus")), draws):
        points, _ = develop(curve, name, x, leaf_sweep(x, z, 16), z)
        class_ok = class_ok and type_classifier(points, curve, x, z) == want
    checks["type_classifier"] = {"passed": class_ok}

    words = enumerate_conjugacy_classes(curve.rep.presentation, PERIODS_MAX_LEN)
    checks["periods"] = periods_check(curve, words, _positive_roots(3))[1]

    # c(s + t) at p, c(t) at p moved by s, and c(s) at p, for 20 draws, in one stack
    u = rng.random((20, 5))  # per draw: a triple's three uniforms, then those of s and t
    (x, y, z), (s, t) = _positive_triples(u[:, :3]), 0.1 + (1.0 - 0.1) * u[:, 3:].T
    moved = reference_flow(x, z, y, s)
    entries = [np.repeat(x, 3), np.column_stack([y, moved, y]).ravel(), np.repeat(z, 3),
               np.column_stack([s + t, t, s]).ravel()]
    whole, later, first = cocycle(curve, (1, 2), *entries).reshape(-1, 3).T
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

# the handler of each subcommand, in the parser's order; `main` looks it up on every call,
# so a handler rebound here after the parser is cached (as a tracer does) is the one it runs
COMMANDS = {"build-rep": cmd_build_rep, "sample-curve": cmd_sample_curve,
            "frenet-check": cmd_frenet_check, "dev-image": cmd_dev_image, "flow": cmd_flow,
            "periods": cmd_periods, "decay": cmd_decay, "render": cmd_render,
            "verify-all": cmd_verify_all}


@functools.cache
def make_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built once per process and shared, so callers must not change it:
    `main` parses every command line with it."""
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
    parsers = {name: sub.add_parser(name) for name in COMMANDS}

    p = parsers["dev-image"]
    p.add_argument("--map", required=True,
                   help="tr|tan+|tan-|psi1..4|alpha:i,j")
    p.add_argument("--x", type=float, default=DEV_LEAF[0])
    p.add_argument("--z", type=float, default=DEV_LEAF[1])
    p.add_argument("--num", type=int, default=64)

    p = parsers["flow"]
    p.add_argument("--alpha", required=True, help="i,j")
    p.add_argument("--word", required=True, help='e.g. "a1 b1"')
    p.add_argument("--t-max", type=float, default=5.0, dest="t_max")
    p.add_argument("--steps", type=int, default=50)

    p = parsers["periods"]
    p.add_argument("--alpha", help="i,j (default: all positive roots)")
    p.add_argument("--max-len", type=int, default=PERIODS_MAX_LEN, dest="max_len")

    p = parsers["decay"]
    p.add_argument("--t-max", type=float, default=DECAY_T_MAX, dest="t_max")
    p.add_argument("--steps", type=int, default=DECAY_STEPS)

    p = parsers["render"]
    p.add_argument("--figure", required=True,
                   help="boundary|dev-tr|dev-tan+|dev-tan-|dev-psi1..4")
    return parser


def main(argv=None) -> int:
    args = make_parser().parse_args(argv)
    try:
        cfg = load_config(args)
        return COMMANDS[args.subcommand](cfg, args)
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
