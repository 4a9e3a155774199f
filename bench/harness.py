"""Workloads of the flagflows benchmark and the loops that time them.

A workload has a set-up step, which builds its inputs, and a list of
parts, which together make one pass of the timed phase; each part checks
every unit of work it does against the acceptance bound of that unit.
`measure` times set-up and passes with tracing off, scaled to a
reference machine speed measured next to every part; `measure_traced`
traces one set-up, then alternates traced and untraced passes, to give
the per-layer metrics.

Units and their bounds (unchanged from the acceptance criteria):

- periods-l5: one (word, root) flow period against the root length of
  its Jordan projection, relative error below 1e-6 (criterion 1);
- covering-d5: one two-sheet identity check on an interpolated curve,
  error below 1e-3 (criterion 3);
- verify-all: one check of `flagflows verify-all`, its `passed` flag.

A unit that raises counts as failed.  Outputs that the benchmark cannot
reconcile across passes (a verify-all summary that is not byte-identical
to the first pass of its config) make the run incorrect.
"""

import contextlib
import io
import json
import math
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

# Calls go through the module attributes, never names imported from them,
# so that the tracer's wrappers see every call the benchmark makes.
from flagflows import cli, devmaps, flows, limitcurve, reps, words

from tracer import LAYER_METRICS, Tracer, layer_metrics

ROOTS = [(1, 2), (1, 3), (2, 3)]
PERIOD_BOUND = 1e-6
COVERING_BOUND = 1e-3
# two passes at least, so that verify-all outputs are compared across passes
MIN_PASSES = 2
# before every pass, set-up runs at least once and until this many seconds
# have gone by; the median of its scaled times over the run is reported
SETUP_ROUND_SECONDS = 0.25
# The reference loop measures the machine's speed next to every part and
# set-up round.  It calls numpy only, so no change to flagflows moves it.
# Times are scaled to a machine on which it takes REFERENCE_SECONDS, about
# its fastest time on the 2-vCPU Xeon VM the benchmark was tuned on.
REFERENCE_CALLS = 1500
REFERENCE_SECONDS = 0.025
_REFERENCE_MATRIX = np.random.default_rng(0).standard_normal((3, 3))
MAX_ERRORS_KEPT = 12


@dataclass
class PassResult:
    """Outcome of one pass: units attempted and failed, and what went wrong."""

    attempted: int = 0
    failed: int = 0
    mismatches: int = 0
    worst_error: float = 0.0
    errors: list = field(default_factory=list)

    def fail(self, count: int, reason=None):
        """Count failed units; `reason` is an exception or a message."""
        self.failed += count
        if isinstance(reason, Exception):
            reason = f"{type(reason).__name__}: {reason}"
        if reason is not None:
            self.note(reason)

    def note(self, message: str):
        if message not in self.errors and len(self.errors) < MAX_ERRORS_KEPT:
            self.errors.append(message)

    def merge(self, other: "PassResult"):
        self.attempted += other.attempted
        self.failed += other.failed
        self.mismatches += other.mismatches
        self.worst_error = max(self.worst_error, other.worst_error)
        for message in other.errors:
            self.note(message)


def _fuchsian_n3():
    reference = reps.fuchsian_genus2()
    return reference, reps.sym_power(reference, 3)


class PeriodsWorkload:
    """Flow periods against root lengths over a whole word ball (criterion 1).

    Set-up enumerates the conjugacy classes of length <= max_len and
    samples a limit curve at word-ball depth `depth` for each rep; a pass
    calls `period_spectrum` once per rep on the whole word list and checks
    each (word, root) period against `root_length`, as `flagflows periods`
    does.  Deterministic: the word ball is covered completely.
    """

    name = "periods-l5"

    def __init__(self, max_len: int = 5, depth: int = 3, bulges=(0.0, 0.3, 0.7)):
        self.max_len = max_len
        self.depth = depth
        self.bulges = tuple(bulges)

    def setup(self):
        reference, rep3 = _fuchsian_n3()
        ball = words.enumerate_conjugacy_classes(reference.presentation, self.max_len)
        curves = []
        for s in self.bulges:
            rep = rep3 if s == 0.0 else reps.bulge_deform(rep3, s)
            curves.append(limitcurve.sample_boundary(rep, reference, self.depth))
        return ball, curves

    def parts(self, state):
        ball, curves = state
        return [(ball, curve) for curve in curves]

    def run_part(self, part, out: PassResult):
        ball, curve = part
        rep = curve.rep
        out.attempted += len(ball) * len(ROOTS)
        try:
            spectrum = flows.period_spectrum(curve, ball, ROOTS)
        except Exception as exc:  # the whole call's units fail together
            out.fail(len(ball) * len(ROOTS), exc)
            return
        for w in ball:
            try:
                jd = reps.jordan_projection(rep.matrix(w), rep.matrix(w.inverse()))
                for root in ROOTS:
                    want = reps.root_length(jd, *root)
                    rel = abs(spectrum[w][root] - want) / max(abs(want), 1e-30)
                    out.worst_error = max(out.worst_error, rel)
                    if not rel < PERIOD_BOUND:
                        out.fail(1)
            except Exception as exc:
                out.fail(len(ROOTS), exc)


def random_positive_triple(rng) -> tuple:
    """(x, y, z) in counterclockwise order with gaps of at least 0.3 rad.

    The distribution of the acceptance tests' triples for criterion 3.
    """
    x = rng.uniform(0.0, 2 * math.pi)
    g1 = rng.uniform(0.3, 2 * math.pi - 0.6)
    g2 = rng.uniform(0.3, 2 * math.pi - g1 - 0.3)
    return x, x + g1, x + g1 + g2


class CoveringWorkload:
    """Two-sheeted covering identity on a deep sampled curve (criterion 3).

    Set-up samples the bulge-0.3 n=3 limit curve at word-ball depth
    `depth`; a pass runs the two-sheet identity (phi_tan_plus, the second
    boundary intersection of its line, phi_tan_plus on the swapped
    triple) on `triples` random positive triples drawn from the seed.
    Every pass uses the same triples.
    """

    name = "covering-d5"

    def __init__(self, seed: int, depth: int = 5, bulge: float = 0.3,
                 triples: int = 20):
        self.depth = depth
        self.bulge = bulge
        rng = np.random.default_rng(seed)
        self.triples = [random_positive_triple(rng) for _ in range(triples)]

    def setup(self):
        reference, rep3 = _fuchsian_n3()
        return limitcurve.sample_boundary(reps.bulge_deform(rep3, self.bulge), reference,
                                          self.depth)

    def parts(self, curve):
        return [(curve, triple) for triple in self.triples]

    def run_part(self, part, out: PassResult):
        curve, (x, y, z) = part
        out.attempted += 1
        try:
            p = devmaps.LeafPoint(x, y, z)
            f = devmaps.phi_tan_plus(curve, p)
            w = limitcurve.second_boundary_intersection(curve, f.line, p.x)
            f2 = devmaps.phi_tan_plus(curve, devmaps.LeafPoint(w, p.z, p.y))
            err = max(f.point.principal_angle(f2.point), f.line.principal_angle(f2.line))
        except Exception as exc:
            out.fail(1, exc)
            return
        out.worst_error = max(out.worst_error, err)
        if not err < COVERING_BOUND:
            out.fail(1)


VERIFY_CONFIGS = ([], ["--bulge", "0.3"], ["--bulge", "0.3", "--word-ball", "4"])
# (config, CLI seed) of each command line: the three configs at seeds 0 and
# 2, plus the first seed from 3 on that stops `--bulge 0.3` with
# UnclassifiedLine.  Seed 1 is left out: its outcomes are those of seed 0,
# and a shorter pass is repeated more often in a run (see NOTES.md)
VERIFY_LINES = tuple((cfg, seed) for seed in (0, 2) for cfg in VERIFY_CONFIGS) + (
    (["--bulge", "0.3"], 7),)
VERIFY_CHECKS = 9


class VerifyAllWorkload:
    """`flagflows verify-all` in-process on the three north-star configs.

    The CLI builds its reps and curves inside the timed phase, as a user
    pays for them, so set-up only parses the command lines and makes their
    output directories.  Each of the nine checks of a command line is a
    unit.  The CLI seeds are fixed, whatever the benchmark seed: on the
    bulged configs most CLI seeds stop verify-all with an error, which
    fails all nine units and cuts the time of that command line, so a
    seed-driven choice would make the amount of work, not only the
    inputs, depend on the benchmark seed.  The fixed lines show each known
    outcome: seed 0 runs to the end (failing `membership`), seed 2 stops
    `--word-ball 4` with `PointOutsideSegment`, and seed 7 stops
    `--bulge 0.3` with `UnclassifiedLine`.  The output of each command
    line, its summary or its error, must be byte-identical on every pass.
    """

    name = "verify-all"

    def __init__(self, outdir: Path, lines=VERIFY_LINES):
        self.runs = []
        for k, (cfg, cli_seed) in enumerate(lines):
            label = " ".join(list(cfg) + ["--seed", str(cli_seed)])
            argv = list(cfg) + ["--seed", str(cli_seed), "--outdir",
                                str(Path(outdir) / f"line{k}"), "verify-all"]
            self.runs.append((label, argv))
        self.first_outputs = {}

    def setup(self):
        parser = cli.make_parser()
        outdirs = []
        for _, argv in self.runs:
            cfg = cli.load_config(parser.parse_args(argv))
            path = Path(cfg["outdir"])
            path.mkdir(parents=True, exist_ok=True)
            outdirs.append(path)
        return outdirs

    def parts(self, outdirs):
        return list(zip(self.runs, outdirs))

    def run_part(self, part, out: PassResult):
        (label, argv), path = part
        out.attempted += VERIFY_CHECKS
        summary_path = path / "verify_all_summary.json"
        summary_path.unlink(missing_ok=True)
        stderr = io.StringIO()
        try:
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(stderr):
                code = cli.main(argv)
            if code == 2:  # a structured error: the run stopped early
                output = stderr.getvalue().encode()
                error = json.loads(output)["error"]
                out.fail(VERIFY_CHECKS, f"{label}: {error['type']}: {error['message']}")
                consistent = True
            else:
                output = summary_path.read_bytes()
                checks = json.loads(output)["checks"]
                passed = [bool(c.get("passed")) for c in checks.values()]
                out.fail(VERIFY_CHECKS - sum(passed))
                for name, c in sorted(checks.items()):
                    if not c.get("passed"):
                        out.note(f"{label}: check {name} failed")
                consistent = len(passed) == VERIFY_CHECKS and code == (0 if all(passed) else 1)
        except Exception as exc:
            out.fail(VERIFY_CHECKS, f"{label}: {type(exc).__name__}: {exc}")
            out.mismatches += 1
            return
        first = self.first_outputs.setdefault(label, output)
        if output != first or not consistent:
            out.mismatches += 1


def make_workload(name: str, seed: int, outdir: Path):
    if name == PeriodsWorkload.name:
        return PeriodsWorkload()
    if name == CoveringWorkload.name:
        return CoveringWorkload(seed)
    if name == VerifyAllWorkload.name:
        return VerifyAllWorkload(outdir / "verify-all")
    raise ValueError(f"unknown workload {name!r}")


WORKLOADS = (PeriodsWorkload.name, CoveringWorkload.name, VerifyAllWorkload.name)


# ---------------------------------------------------------------------------
# timing loops


@dataclass
class Totals(PassResult):
    """Units over every pass of a phase, the (start, end) of each pass, the
    time of each part of each pass, and, when measured, the reference loop's
    time before the first part and after each part of each pass."""

    windows: list = field(default_factory=list)
    part_seconds: list = field(default_factory=list)
    reference_seconds: list = field(default_factory=list)

    @property
    def pass_seconds(self) -> list:
        return [end - start for start, end in self.windows]

    def scaled_pass_seconds(self) -> float:
        """Sum over the parts of a pass of each part's median scaled time.

        Every pass repeats the same parts on the same inputs.  The shared
        machines this was tuned on change speed by up to 2x, in spells from
        seconds to minutes, so that whole runs can be slow.  Each part time
        is scaled by the speed of the machine around it: REFERENCE_SECONDS
        over the mean of the reference loop's times just before and just
        after the part.
        """
        parts = np.array(self.part_seconds)
        ref = np.array(self.reference_seconds)
        scaled = parts * REFERENCE_SECONDS / ((ref[:, :-1] + ref[:, 1:]) / 2)
        return float(np.median(scaled, axis=0).sum())


def reference_time() -> float:
    """Time of the fixed reference loop."""
    t0 = time.perf_counter()
    for _ in range(REFERENCE_CALLS):
        np.linalg.eigvals(_REFERENCE_MATRIX)
    return time.perf_counter() - t0


def timed_setup(workload, times: list):
    """Run set-up at least once and for SETUP_ROUND_SECONDS, appending each
    time to `times`, scaled by the reference loop timed before and after the
    round as in `Totals.scaled_pass_seconds`; return the last state built."""
    before = reference_time()
    raw = []
    while sum(raw) < SETUP_ROUND_SECONDS:
        t0 = time.perf_counter()
        state = workload.setup()
        raw.append(time.perf_counter() - t0)
    scale = REFERENCE_SECONDS / ((before + reference_time()) / 2)
    times.extend(t * scale for t in raw)
    return state


def run_pass(workload, state, totals: Totals, reference: bool = False) -> Totals:
    """Run one pass, adding its units, its window and its part times to `totals`.

    With `reference`, the reference loop is also timed before the first part
    and after each part, outside the part times.
    """
    result = PassResult()
    parts = []
    refs = [reference_time()] if reference else []
    t0 = time.perf_counter()
    for part in workload.parts(state):
        p0 = time.perf_counter()
        workload.run_part(part, result)
        parts.append(time.perf_counter() - p0)
        if reference:
            refs.append(reference_time())
    totals.windows.append((t0, time.perf_counter()))
    totals.part_seconds.append(parts)
    if reference:
        totals.reference_seconds.append(refs)
    totals.merge(result)
    return totals


def measure(workload, seconds: float) -> dict:
    """End-to-end metrics with tracing off, in seconds at reference speed.

    Set-up runs again before every pass, and the pass uses the state it
    built, so that set-up is timed across the whole run, as the parts are.
    """
    setup_times = []
    totals = Totals()
    start = time.perf_counter()
    while len(totals.windows) < MIN_PASSES or time.perf_counter() - start < seconds:
        state = timed_setup(workload, setup_times)
        run_pass(workload, state, totals, reference=True)
    wall_s = totals.scaled_pass_seconds()
    return {
        "setup_s": statistics.median(setup_times),
        "setup_times": setup_times,
        "totals": totals,
        "wall_s": wall_s,
        "ops_per_s": totals.attempted / len(totals.windows) / wall_s,
    }


def measure_traced(workload, seconds: float, trace_path: Path = None) -> dict:
    """Per-layer metrics for one traced set-up plus the first traced pass.

    After the traced set-up, traced and untraced passes alternate, the
    tracer installed for one pass and removed for the next, until
    `seconds` have gone by.  trace.overhead is the median ratio of a traced
    pass to the untraced pass right after it, so that both sides of each
    ratio see the same slow spells of the machine.
    """
    tracer = Tracer()
    traced, untraced = Totals(), Totals()
    with tracer:
        state = workload.setup()
    setup_end = len(tracer.starts)
    first_pass_end = None
    start = time.perf_counter()
    while first_pass_end is None or time.perf_counter() - start < seconds:
        with tracer:
            run_pass(workload, state, traced)
        if first_pass_end is None:
            first_pass_end = len(tracer.starts)
            counters = dict(tracer.counters)
        run_pass(workload, state, untraced)
    if trace_path is not None:
        tracer.write(trace_path, first_pass_end)
    metrics = layer_metrics(tracer, setup_end, first_pass_end, counters, traced.windows)
    metrics["trace.overhead"] = statistics.median(
        t / u for t, u in zip(traced.pass_seconds, untraced.pass_seconds))
    traced.merge(untraced)
    return {"metrics": metrics, "totals": traced, "untraced": untraced,
            "spans": len(tracer.starts)}
