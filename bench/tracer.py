"""Outside-in span tracer for the flagflows package.

The tracer replaces public functions and methods of the package's
modules with timing wrappers, at every module binding that holds them
(including module-level tables such as the CLI's map table), so that no
source file of the package carries tracing code.  Each call records a
span (name, start, end, parent) in flat in-memory arrays; self times
are computed after the run, and `uninstall` puts every original back.

Scalar helpers that run in a few microseconds and are called hundreds
of thousands of times per pass (see `SKIP`) are left unwrapped: a span
would cost more than the call, and their time stays in the caller's
self time.
"""

import functools
import importlib
import inspect
import time
from array import array

import numpy as np

PACKAGE = "flagflows"
MODULES = ("words", "reps", "projective", "limitcurve", "devmaps", "flows", "render", "cli")

SKIP = frozenset({
    "reps.circular_gap",
    "reps.boundary_vector",
    "reps.theta_of_vector",
    "reps.positively_oriented",
    "reps.mobius_theta",
})

# construction counters: dataclass __post_init__ runs once per instance
CONSTRUCTORS = ("projective.ProjectiveSubspace", "projective.Flag")


class Tracer:
    """Wraps the package's public callables and records one span per call.

    Span names are "<module>.<function>" or "<module>.<Class>.<method>".
    Calls named in HOOKS also update `counters` from their return value.
    """

    def __init__(self):
        self.last_classes = 0
        self.names = []
        self._name_ids = {}
        self._restore = []
        self.starts = array("d")
        self.ends = array("d")
        self.name_ids = array("i")
        self.parents = array("i")
        self._stack = [-1]
        self.counters = {}

    # -- recording -----------------------------------------------------------

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _wrap(self, fn, name: str):
        name_id = self._name_id(name)
        hook = HOOKS.get(name)
        clock = time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer._stack
            idx = len(tracer.starts)
            tracer.starts.append(0.0)
            tracer.ends.append(0.0)
            tracer.name_ids.append(name_id)
            tracer.parents.append(stack[-1])
            stack.append(idx)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.ends[idx] = clock()
                tracer.starts[idx] = t0
                stack.pop()
            if hook is not None:
                hook(tracer, result)
            return result

        return wrapper

    # -- installation --------------------------------------------------------

    def install(self):
        """Wrap every public callable of MODULES at all of its bindings."""
        if self._restore:
            raise RuntimeError("tracer already installed")
        modules = {m: importlib.import_module(f"{PACKAGE}.{m}") for m in ("config",) + MODULES}
        wrapped = {}  # id(original function) -> wrapper
        for short in MODULES:
            mod = modules[short]
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    name = f"{short}.{attr}"
                    if name not in SKIP:
                        wrapped[id(obj)] = self._wrap(obj, name)
                elif inspect.isclass(obj):
                    self._wrap_class(obj, f"{short}.{attr}")
        for mod in [importlib.import_module(PACKAGE), *modules.values()]:
            for attr, obj in list(vars(mod).items()):
                if id(obj) in wrapped:
                    self._restore.append((mod, attr, obj))
                    setattr(mod, attr, wrapped[id(obj)])
                elif isinstance(obj, dict) and not attr.startswith("__"):
                    for key, value in list(obj.items()):
                        if id(value) in wrapped:
                            self._restore.append((obj, key, value))
                            obj[key] = wrapped[id(value)]

    def _wrap_class(self, cls, name: str):
        for attr, obj in list(vars(cls).items()):
            if attr == "__post_init__" and name in CONSTRUCTORS:
                replacement = self._wrap(obj, f"{name}.__init__")
            elif attr.startswith("_"):
                continue
            elif inspect.isfunction(obj):
                replacement = self._wrap(obj, f"{name}.{attr}")
            elif isinstance(obj, (classmethod, staticmethod)):
                replacement = type(obj)(self._wrap(obj.__func__, f"{name}.{attr}"))
            else:
                continue  # properties and plain class attributes
            self._restore.append((cls, attr, obj))
            setattr(cls, attr, replacement)

    def uninstall(self):
        """Put every original binding back, in reverse order of patching."""
        for owner, key, original in reversed(self._restore):
            if isinstance(owner, dict):
                owner[key] = original
            else:
                setattr(owner, key, original)
        self._restore = []

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    # -- analysis ------------------------------------------------------------

    def spans(self) -> dict:
        """Recorded spans as arrays, with self time = duration minus children."""
        starts = np.frombuffer(self.starts, dtype=float).copy()
        ends = np.frombuffer(self.ends, dtype=float).copy()
        names = np.frombuffer(self.name_ids, dtype=np.int32).copy()
        parents = np.frombuffer(self.parents, dtype=np.int32).copy()
        duration = ends - starts
        has_parent = parents >= 0
        child_time = np.bincount(parents[has_parent], weights=duration[has_parent],
                                 minlength=duration.size)
        return {"start": starts, "end": ends, "name": names, "parent": parents,
                "self": duration - child_time}

    def write(self, path, end: int = None):
        """Write the spans before index `end` and the name table as one .npz file."""
        data = {key: values[:end] for key, values in self.spans().items()}
        np.savez(path, names=np.array(self.names), **data)


# ---------------------------------------------------------------------------
# counters read off return values


def _count(counters: dict, key: str, amount):
    counters[key] = counters.get(key, 0) + amount


def _on_enumerate(tracer, words):
    _count(tracer.counters, "words.classes", len(words))
    tracer.last_classes = len(words)


def _on_sample_boundary(tracer, curve):
    # the last enumeration before sample_boundary returns is its own word ball
    _count(tracer.counters, "limitcurve.samples", len(curve))
    _count(tracer.counters, "limitcurve.sampled_classes", tracer.last_classes)
    t = np.sort(curve.thetas)
    gaps = np.diff(np.append(t, t[0] + 2 * np.pi))
    tracer.counters["limitcurve.largest_gap_rad"] = max(
        tracer.counters.get("limitcurve.largest_gap_rad", 0.0), float(gaps.max()))


HOOKS = {
    "words.enumerate_conjugacy_classes": _on_enumerate,
    "limitcurve.sample_boundary": _on_sample_boundary,
}


# ---------------------------------------------------------------------------
# per-layer metrics

_SPAN_SETS = {
    "words.enumerate": ("words.enumerate_conjugacy_classes",),
    "words.enumerate_all": ("words.enumerate_conjugacy_classes", "words.cyclic_reduce",
                            "words.reduce_word"),
    "reps.matrix": ("reps.SurfaceGroupRep.matrix",),
    "reps.eigen": ("reps.loxodromic_eigensystem", "reps.fixed_flags", "reps.jordan_projection"),
    "flows.period_spectrum": ("flows.period_spectrum", "flows.flow_period"),
    "limitcurve.scan": ("limitcurve.second_boundary_intersection",),
    "limitcurve.aligned_point": ("limitcurve.BoundaryCurve.aligned_point",),
    "limitcurve.interpolate": ("limitcurve.interpolate",),
    "limitcurve.sample_boundary": ("limitcurve.sample_boundary",),
    "projective.subspaces": ("projective.ProjectiveSubspace.__init__",),
    "projective.flags": ("projective.Flag.__init__",),
    "projective.join_meet": ("projective.join", "projective.meet"),
    "devmaps.maps": ("devmaps.phi_tr", "devmaps.phi_tan_plus", "devmaps.phi_tan_minus",
                     "devmaps.psi_k", "devmaps.geodesic_realization"),
    "devmaps.membership": ("devmaps.omega_membership",),
    "flows.flow_step": ("flows.flow_step",),
    "flows.cocycle": ("flows.cocycle",),
}

# metric name -> (unit, better, how it is computed, span set or module prefix)
LAYER_METRICS = {
    "words.enumerate.calls": ("count", "lower", "calls", "words.enumerate"),
    "words.enumerate.self_s": ("s", "lower", "self", "words.enumerate_all"),
    "words.classes": ("count", "higher", "counter", "words.classes"),
    "reps.matrix.calls": ("count", "lower", "calls", "reps.matrix"),
    "reps.matrix.self_s": ("s", "lower", "self", "reps.matrix"),
    "reps.eigen.calls": ("count", "lower", "calls", "reps.eigen"),
    "reps.eigen.self_s": ("s", "lower", "self", "reps.eigen"),
    "flows.period_spectrum.self_s": ("s", "lower", "self", "flows.period_spectrum"),
    "limitcurve.scan.calls": ("count", "lower", "calls", "limitcurve.scan"),
    "limitcurve.scan.self_s": ("s", "lower", "self", "limitcurve.scan"),
    "limitcurve.aligned_point.calls": ("count", "lower", "calls", "limitcurve.aligned_point"),
    "limitcurve.aligned_points_per_scan": ("ratio", "lower", "per_scan", None),
    "limitcurve.interpolate.calls": ("count", "lower", "calls", "limitcurve.interpolate"),
    "limitcurve.interpolate.self_s": ("s", "lower", "self", "limitcurve.interpolate"),
    "limitcurve.sample_boundary.self_s": ("s", "lower", "self", "limitcurve.sample_boundary"),
    "limitcurve.samples": ("count", "higher", "counter", "limitcurve.samples"),
    "limitcurve.sample_yield": ("ratio", "higher", "yield", None),
    "limitcurve.largest_gap_rad": ("rad", "lower", "counter", "limitcurve.largest_gap_rad"),
    "projective.subspaces_built": ("count", "lower", "calls", "projective.subspaces"),
    "projective.flags_built": ("count", "lower", "calls", "projective.flags"),
    "projective.join_meet.calls": ("count", "lower", "calls", "projective.join_meet"),
    "projective.self_s": ("s", "lower", "module_self", "projective."),
    "devmaps.maps.calls": ("count", "lower", "calls", "devmaps.maps"),
    "devmaps.maps.self_s": ("s", "lower", "self", "devmaps.maps"),
    "devmaps.membership.calls": ("count", "lower", "calls", "devmaps.membership"),
    "flows.flow_step.calls": ("count", "lower", "calls", "flows.flow_step"),
    "flows.flow_step.self_s": ("s", "lower", "self", "flows.flow_step"),
    "flows.cocycle.calls": ("count", "lower", "calls", "flows.cocycle"),
    "render.self_s": ("s", "lower", "module_self", "render."),
    "cli.self_s": ("s", "lower", "module_self", "cli."),
    "trace.coverage": ("ratio", "higher", "coverage", None),
    "trace.overhead": ("ratio", "lower", "overhead", None),
}


def layer_metrics(tracer: Tracer, setup_end: int, first_pass_end: int, counters: dict,
                  pass_windows: list) -> dict:
    """Per-layer figures for one traced set-up plus the first traced pass.

    Spans before index `setup_end` belong to set-up; spans up to
    `first_pass_end` belong to the first pass, which is what one CLI run
    does on freshly built inputs, so the counts repeat exactly.  `counters`
    are the hook counters as they stood after that pass.  trace.coverage
    is the share of all traced passes' wall time spent in spans of the
    layers below the CLI: top-level spans minus the self time of `cli`
    spans, so that time no layer claims shows up, also when `cli.main` is
    the top-level span.  trace.overhead is filled in by the caller.
    """
    spans = tracer.spans()
    index = np.arange(spans["name"].size)
    counted = index < first_pass_end

    def mask_of(selects):
        ids = [i for i, n in enumerate(tracer.names) if selects(n)]
        return np.isin(spans["name"], ids) & counted

    def in_set(key):
        return mask_of(lambda n: n in _SPAN_SETS[key])

    out = {}
    for metric, (_, _, kind, arg) in LAYER_METRICS.items():
        if kind == "calls":
            out[metric] = float(in_set(arg).sum())
        elif kind in ("self", "module_self"):
            m = in_set(arg) if kind == "self" else mask_of(lambda n: n.startswith(arg))
            out[metric] = float(spans["self"][m].sum())
        elif kind == "counter":
            out[metric] = float(counters.get(arg, 0))
    scan = in_set("limitcurve.scan")
    aligned = in_set("limitcurve.aligned_point")
    in_scan = aligned & (spans["parent"] >= 0)
    in_scan[in_scan] = scan[spans["parent"][in_scan]]
    scans = int(scan.sum())
    out["limitcurve.aligned_points_per_scan"] = float(in_scan.sum()) / scans if scans else 0.0
    classes = counters.get("limitcurve.sampled_classes", 0)
    out["limitcurve.sample_yield"] = (
        counters.get("limitcurve.samples", 0) / classes if classes else 0.0)
    passes = index >= setup_end
    top = (spans["parent"] < 0) & passes
    covered = float((spans["end"][top] - spans["start"][top]).sum())
    cli_ids = [i for i, n in enumerate(tracer.names) if n.startswith("cli.")]
    covered -= float(spans["self"][np.isin(spans["name"], cli_ids) & passes].sum())
    out["trace.coverage"] = covered / sum(t1 - t0 for t0, t1 in pass_windows)
    return out
