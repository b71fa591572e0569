"""Outside-in layer trace for the benchmark.

Spans are recorded by wrappers that the benchmark installs around the public
functions of each metastab module, in its own process only. Modules import
each other's functions by name (``metastab.cli.bound_battery``,
``metastab.spectral_meta.scan_metastable``, ...), so every name is patched
where it is looked up, and restored afterwards. Spans are kept in memory;
``layer_metrics`` turns the spans of one traced repeat into the per-layer
metrics. The tracer assumes one thread (the benchmark runs ``--threads 1``),
so the span stack gives every span its parent.
"""
import functools
import importlib
import statistics
import time

import numpy as np

# backend methods by cache family; the first seven are the norm-call
# families ROADMAP reports, the rest count as "other"
FAMILIES = ("pair", "ident", "stat", "proj", "drift", "fast", "gen")
BACKEND_METHODS = {
    "distance": "pair", "distance_to_identity": "ident",
    "distance_to_stationary": "stat", "projector_distance": "proj",
    "slow_drift": "drift", "fast_residual": "fast",
    "liouvillian_norm": "gen", "stationary_distance": "other",
    "projector_norm": "other", "complement_norm": "other",
    "projected_generator_norm": "other",
}

# public analysis functions that backend-method calls are attributed to
CALLERS = {
    "regimes.timescales": "timescales",
    "regimes.relaxation_times": "relaxation_times",
    "regimes.change_measure": "change_measure",
    "regimes.classify_regime": "classify_regime",
    "regimes.scan_metastable": "scan_metastable",
    "spectral_meta.bound_battery": "bound_battery",
    "spectral_meta.spectral_projection_report": "projection_report",
}
CALLER_KEYS = tuple(CALLERS.values()) + ("other",)

PROBE_DIMS = (2, 3, 4, 6, 8, 12)
PROBE_SEED = 0


def _norm_info(args, kwargs, result):
    return (result.iterations, result.converged, result.restart_dispersion)


def _family_info(args, kwargs, result):
    return (args[1:], result)


def _battery_info(args, kwargs, result):
    return (len(result.rows), len(result.failed_rows()))


# (span name, capture of the return value, lookup sites); a site is
# "module" or "module:Class" plus the attribute name
TARGETS = [
    ("cli.main", None, [("metastab.cli", "main")]),
    ("models.build_model", None,
     [("metastab.cli", "build_model"), ("metastab.models", "build_model")]),
    ("superop.build_liouvillian", None,
     [("metastab.superop", "build_liouvillian"),
      ("metastab.regimes", "build_liouvillian"),
      ("metastab.models", "build_liouvillian")]),
    ("superop.spectral_decompose", None,
     [("metastab.superop", "spectral_decompose"),
      ("metastab.regimes", "spectral_decompose")]),
    ("superop.evolution_matrix", None,
     [("metastab.superop:SpectralData", "evolution_matrix")]),
    ("norms.induced_norm", _norm_info,
     [("metastab.norms", "_induced_norm_matrix")]),
    ("regimes.timescales", None,
     [("metastab.regimes", "timescales"), ("metastab.cli", "timescales"),
      ("metastab.spectral_meta", "timescales")]),
    ("regimes.scan_metastable", None,
     [("metastab.regimes", "scan_metastable"),
      ("metastab.cli", "scan_metastable"),
      ("metastab.spectral_meta", "scan_metastable")]),
    ("regimes.classify_regime", None,
     [("metastab.regimes", "classify_regime"),
      ("metastab.cli", "classify_regime"),
      ("metastab.spectral_meta", "classify_regime")]),
    ("regimes.change_measure", None,
     [("metastab.regimes", "change_measure"),
      ("metastab.cli", "change_measure"),
      ("metastab.spectral_meta", "change_measure")]),
    ("regimes.relaxation_times", None,
     [("metastab.regimes", "relaxation_times"),
      ("metastab.spectral_meta", "relaxation_times")]),
    ("spectral_meta.bound_battery", _battery_info,
     [("metastab.spectral_meta", "bound_battery"),
      ("metastab.cli", "bound_battery")]),
    ("spectral_meta.spectral_projection_report", None,
     [("metastab.spectral_meta", "spectral_projection_report"),
      ("metastab.cli", "spectral_projection_report")]),
    ("classical.classical_evolution", None,
     [("metastab.classical", "classical_evolution")]),
    ("classical.l1_norm", None, [("metastab.classical", "l1_norm")]),
] + [("regimes.backend." + method, _family_info,
      [("metastab.regimes:DynamicsBackend", method)])
     for method in BACKEND_METHODS]


class Span:
    __slots__ = ("name", "start", "end", "parent", "analysis", "info")

    def __init__(self, name, start, parent, analysis):
        self.name = name
        self.start = start
        self.end = None
        self.parent = parent
        self.analysis = analysis
        self.info = None

    def as_dict(self):
        return {"name": self.name, "start": self.start, "end": self.end,
                "parent": self.parent, "analysis": self.analysis}


class Tracer:
    """In-memory span recorder; ``analysis`` tags the spans of one CLI run."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self.analysis = None

    def wrap(self, name, fn, capture):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(name, 0.0, stack[-1] if stack else None, self.analysis)
            index = len(spans)
            spans.append(span)
            stack.append(index)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
            if capture is not None:
                span.info = capture(args, kwargs, result)
            return result

        return traced

    def take(self):
        """Return the spans recorded so far and start a fresh list."""
        spans = self.spans[:]
        del self.spans[:]
        return spans


def _resolve(site):
    module, _, cls = site.partition(":")
    owner = importlib.import_module(module)
    return getattr(owner, cls) if cls else owner


class installed:
    """Context manager that patches every TARGETS site with a tracing
    wrapper and restores the originals on exit."""

    def __init__(self, tracer):
        self.tracer = tracer
        self._saved = []

    def __enter__(self):
        for name, capture, sites in TARGETS:
            wrappers = {}
            for site, attr in sites:
                owner = _resolve(site)
                original = owner.__dict__[attr]
                if id(original) not in wrappers:
                    wrappers[id(original)] = self.tracer.wrap(
                        name, original, capture)
                self._saved.append((owner, attr, original))
                setattr(owner, attr, wrappers[id(original)])
        return self.tracer

    def __exit__(self, *exc):
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved = []
        return False


def _spin_exact(method, args):
    """Exact spin-model distances from the mode closed forms (the formula of
    spin_mode_distance in tests/conftest.py), or None for other families."""
    from workloads import SPIN_GAMMA, SPIN_KAPPA, SPIN_OMEGA

    z = -(SPIN_GAMMA + SPIN_KAPPA) / 2.0 + 1j * SPIN_OMEGA

    def pair(t1, t2):
        slow = abs(np.exp(-SPIN_KAPPA * t1) - np.exp(-SPIN_KAPPA * t2))
        return max(slow, abs(np.exp(z * t1) - np.exp(z * t2)))

    if method == "distance":
        return pair(*args)
    if method == "distance_to_identity":
        return pair(0.0, args[0])
    if method == "distance_to_stationary":
        return max(np.exp(-SPIN_KAPPA * args[0]), abs(np.exp(z * args[0])))
    return None


def _ancestors(spans, i):
    p = spans[i].parent
    while p is not None:
        yield p
        p = spans[p].parent


def _family(spans, i):
    """Cache family of the innermost backend method above span i, or None."""
    for a in _ancestors(spans, i):
        name = spans[a].name
        if name.startswith("regimes.backend."):
            return BACKEND_METHODS[name[len("regimes.backend."):]]
    return None


def family_split(spans):
    """Norm calls per cache family, for each analysis id."""
    split = {}
    for i, span in enumerate(spans):
        if span.name == "norms.induced_norm":
            fam = _family(spans, i)
            fam = fam if fam in FAMILIES else "other"
            counts = split.setdefault(span.analysis,
                                      dict.fromkeys(FAMILIES + ("other",), 0))
            counts[fam] += 1
    return split


def layer_metrics(spans, kinds, out_bytes, spin=False):
    """Per-layer metrics of one traced repeat.

    kinds maps an analysis id to its kind ("detect" or "verify_bounds");
    out_bytes is the CLI output size of the repeat; spin turns on the
    comparison of every distance with the spin-model closed form.
    """
    child_time = [0.0] * len(spans)
    for span in spans:
        if span.parent is not None:
            child_time[span.parent] += span.end - span.start

    def dur(i):
        return spans[i].end - spans[i].start

    def named(name):
        return [i for i, s in enumerate(spans) if s.name == name]

    def inclusive(name):
        return sum(dur(i) for i in named(name)
                   if not any(spans[a].name == name
                              for a in _ancestors(spans, i)))

    def self_time(layer):
        prefix = layer + "."
        return sum(dur(i) - child_time[i] for i, s in enumerate(spans)
                   if s.name.startswith(prefix))

    m = {}
    m["cli.self_s"] = self_time("cli")
    m["cli.out_bytes"] = out_bytes
    m["models.build_s"] = inclusive("models.build_model")
    m["superop.build_liouvillian_s"] = inclusive("superop.build_liouvillian")
    m["superop.spectral_decompose_s"] = inclusive("superop.spectral_decompose")
    m["superop.evolution_calls"] = len(named("superop.evolution_matrix"))
    m["superop.evolution_s"] = inclusive("superop.evolution_matrix")

    norm_spans = named("norms.induced_norm")
    m["norms.calls"] = len(norm_spans)
    split = family_split(spans).values()
    for fam in FAMILIES + ("other",):
        m["norms.calls." + fam] = sum(counts[fam] for counts in split)
    for kind in ("detect", "verify_bounds"):
        m["norms.calls_" + kind] = sum(
            1 for i in norm_spans if kinds.get(spans[i].analysis) == kind)
    m["norms.self_s"] = self_time("norms")
    m["norms.call_ms"] = (1e3 * statistics.median(dur(i) for i in norm_spans)
                          if norm_spans else 0.0)
    infos = [spans[i].info for i in norm_spans]
    m["norms.best_iters"] = sum(info[0] for info in infos)
    m["norms.unconverged"] = sum(1 for info in infos if not info[1])
    m["norms.dispersion_max"] = max((info[2] for info in infos), default=0.0)

    backend = [i for i, s in enumerate(spans)
               if s.name.startswith("regimes.backend.")]
    evaluations = sum(1 for i in norm_spans + named("classical.l1_norm")
                      if _family(spans, i) is not None)
    m["norms.cache_hit_ratio"] = (1.0 - evaluations / len(backend)
                                  if backend else 0.0)
    err = 0.0
    if spin:
        for i in backend:
            args, value = spans[i].info
            exact = _spin_exact(spans[i].name[len("regimes.backend."):], args)
            if exact is not None:
                err = max(err, abs(value - exact))
    m["norms.spin_err_max"] = err

    m["regimes.timescales_s"] = inclusive("regimes.timescales")
    m["regimes.scan_metastable_s"] = inclusive("regimes.scan_metastable")
    m["regimes.self_s"] = self_time("regimes")
    callers = dict.fromkeys(CALLER_KEYS, 0)
    for i in backend:
        key = next((CALLERS[spans[a].name] for a in _ancestors(spans, i)
                    if spans[a].name in CALLERS), "other")
        callers[key] += 1
    for key, count in callers.items():
        m["regimes.distance_calls." + key] = count

    m["spectral_meta.bound_battery_s"] = inclusive(
        "spectral_meta.bound_battery")
    m["spectral_meta.projection_report_s"] = inclusive(
        "spectral_meta.spectral_projection_report")
    m["spectral_meta.self_s"] = self_time("spectral_meta")
    battery = [spans[i].info for i in named("spectral_meta.bound_battery")]
    m["spectral_meta.rows"] = sum(rows for rows, _ in battery)
    m["spectral_meta.rows_failed"] = sum(failed for _, failed in battery)

    m["classical.evolution_calls"] = len(
        named("classical.classical_evolution"))
    m["classical.evolution_s"] = inclusive("classical.classical_evolution")
    m["classical.norm_calls"] = len(named("classical.l1_norm"))
    m["classical.norm_s"] = inclusive("classical.l1_norm")
    return m


def norm_probe(repeats=3):
    """One induced_trace_norm call per dimension on a fixed seeded
    evolution-difference map e^{L} - e^{2L} of a random Lindbladian.

    Returns the median call time in ms and the iteration count per
    dimension, plus the number of unconverged calls (data, not a failure).
    """
    from metastab.models import random_lindbladian
    from metastab.norms import induced_trace_norm
    from metastab.superop import (Superoperator, build_liouvillian,
                                  spectral_decompose)

    m = {}
    unconverged = 0
    for dim in PROBE_DIMS:
        model = random_lindbladian(dim, 2, seed=PROBE_SEED)
        spec = spectral_decompose(build_liouvillian(model))
        X = Superoperator(dim, spec.evolution_matrix(1.0)
                          - spec.evolution_matrix(2.0),
                          hermiticity_preserving=True)
        times = []
        for _ in range(repeats):
            t0 = time.perf_counter()
            result = induced_trace_norm(X)
            times.append(time.perf_counter() - t0)
        m["norms.call_ms.D%d" % dim] = 1e3 * statistics.median(times)
        m["norms.iters.D%d" % dim] = result.iterations
        unconverged += not result.converged
    m["norms.probe_unconverged"] = unconverged
    return m
