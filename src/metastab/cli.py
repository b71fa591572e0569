"""Command-line front end: model ingestion, analysis subcommands, and
deterministic CSV/JSON emission.

Quantum subcommands: spectrum, distances, changes, detect, project,
verify-bounds, heisenberg; each has a classical-* variant running the same
pipeline on a rate matrix with exact l1 norms. Exit codes: 0 success,
1 analysis-level failure (a bound row failed, no metastable window found
where one was required), 2 usage or input error.
"""
import argparse
import contextlib
import hashlib
import json
import math
import os
import sys

import numpy as np

from . import __version__
from .classical import (ClassicalBackend, rate_matrix_from_edges,
                        rate_matrix_from_json)
from .heisenberg import observable_trajectory
from .models import (SPIN_X, SPIN_Y, SPIN_Z, ModelSpecifier, build_model,
                     _integral_param)
from .modes import change_thresholds
from .operators import max_norm
# classify_regime is unused here but stays importable as cli.classify_regime:
# bench/tracing.py wraps each analysis function where it is looked up
from .regimes import (QuantumBackend, TimeGrid, TrivialDynamicsError,
                      change_measure, change_search, classify_regime,
                      lockstep, scan_metastable, timescales)
from .spectral_meta import (SeparationInconsistencyError, bound_battery,
                            detect_separation, spectral_projection_report)
from .superop import QuantumModel


class UsageError(Exception):
    pass


def _parse_params(pairs):
    params = {}
    for item in pairs or []:
        if "=" not in item:
            raise UsageError("--param expects name=value, got %r" % item)
        name, value = item.split("=", 1)
        try:
            params[name] = float(value)
        except ValueError:
            raise UsageError("parameter %r is not a number: %r" % (name, value))
    return params


def _load_model(args, classical):
    """Backend and hash payload of --model, for both command families.

    builtin:<name> and a file holding a named-model specifier (a JSON object
    with "name" and optional "params" and "seed") build a built-in model,
    whose kind must match the command's family. Any other file is a raw
    model: quantum matrices in JSON, or a classical rate matrix, in JSON
    when the path ends in .json and as an edge list otherwise.
    """
    kind, colon, path = args.model.partition(":")
    if kind + colon == "builtin:":
        spec = ModelSpecifier(name=path, params=_parse_params(args.param),
                              seed=args.seed)
        where, subject = "", "model %r" % path
    elif kind + colon == "file:":
        edges = classical and not path.endswith(".json")
        try:
            with open(path, encoding="utf-8") as fh:
                data = fh.read() if edges else json.load(fh)
        except FileNotFoundError:
            raise UsageError("model file not found: %s" % path)
        except OSError as err:
            raise UsageError("model file %s: %s" % (path, err.strerror))
        except UnicodeDecodeError as err:
            raise UsageError("model file %s: not UTF-8 text (byte 0x%02x at "
                             "position %d)" % (path, err.object[err.start],
                                               err.start))
        except json.JSONDecodeError as err:
            raise UsageError("model file %s: invalid JSON at line %d column %d"
                             % (path, err.lineno, err.colno))
        if edges or not (isinstance(data, dict) and "name" in data):
            if not classical:
                model = _quantum_model_from_json(data, path)
                return QuantumBackend(model=model, seed=args.seed), data
            try:
                gen = rate_matrix_from_edges(data) if edges \
                    else rate_matrix_from_json(data)
            except (TypeError, ValueError) as err:
                raise UsageError("model file %s: %s" % (path, err))
            return ClassicalBackend(gen), {"rates": gen.rates.tolist()}
        params = data.get("params", {})
        if not isinstance(params, dict):
            raise UsageError("%s: params must be a JSON object" % path)
        # a seed given here follows the --seed rule, on the JSON value
        seed = data.get("seed", args.seed)
        if type(seed) is not int or seed < 0:
            raise UsageError("%s: seed must be a non-negative integer, got %s"
                             % (path, json.dumps(seed)))
        spec = ModelSpecifier(name=data["name"], params=params, seed=seed)
        where, subject = path + ": ", path + ": model"
    else:
        raise UsageError("--model must be builtin:<name> or file:<path>")
    try:
        model = build_model(spec)
    except ValueError as err:
        raise UsageError(where + str(err))
    if isinstance(model, QuantumModel) == classical:
        raise UsageError(subject + (
            " is quantum; drop the classical- prefix" if classical
            else " is classical; use the classical-* subcommands"))
    payload = {"name": spec.name, "params": dict(sorted(spec.params.items())),
               "seed": spec.seed}
    if classical:
        return ClassicalBackend(model), payload
    return QuantumBackend(model=model, seed=args.seed), payload


def _complex_array(entries, what, path):
    try:
        arr = np.asarray(entries, dtype=float)
    except (TypeError, ValueError):
        raise UsageError("%s: %s must be nested arrays of [re, im] pairs"
                         % (path, what))
    if arr.ndim != 3 or arr.shape[-1] != 2 or arr.shape[0] != arr.shape[1]:
        raise UsageError("%s: %s must have shape [D][D][2]" % (path, what))
    return arr[..., 0] + 1j * arr[..., 1]


def _quantum_model_from_json(data, path):
    if not isinstance(data, dict) or "hamiltonian" not in data:
        raise UsageError("%s: quantum model JSON needs 'dim', 'hamiltonian' "
                         "and 'jumps'" % path)
    try:
        dim = _integral_param(data, "dim", 0)
    except ValueError as err:
        raise UsageError("%s: %s" % (path, err))
    H = _complex_array(data["hamiltonian"], "hamiltonian", path)
    if dim and H.shape[0] != dim:
        raise UsageError("%s: hamiltonian dimension %d does not match dim=%d"
                         % (path, H.shape[0], dim))
    jumps = data.get("jumps", [])
    if not isinstance(jumps, list):
        raise UsageError("%s: jumps must be an array of [D][D][2] matrices"
                         % path)
    jumps = tuple(_complex_array(J, "jump operator", path) for J in jumps)
    try:
        return QuantumModel(hamiltonian=H, jumps=jumps)
    except ValueError as err:
        raise UsageError("%s: %s" % (path, err))


def _model_hash(payload):
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _grid_from_args(args):
    return TimeGrid(t_min=args.tmin, t_max=args.tmax, n_points=args.points,
                    spacing=args.spacing)


@contextlib.contextmanager
def _output(args):
    """The --out file, closed afterwards, or stdout."""
    if not args.out:
        yield sys.stdout
        return
    with open(args.out, "w", newline="") as fh:
        yield fh


def _emit_json(args, out):
    """Standard JSON (RFC 8259): a non-finite number reads null."""
    with _output(args) as fh:
        json.dump(_json_ready(out), fh, indent=2, default=str,
                  allow_nan=False)
        fh.write("\n")


def _emit_csv(args, payload, columns, rows):
    with _output(args) as fh:
        fh.write("# %s\n" % _meta_line(payload, args.seed))
        fh.write(",".join(columns) + "\n")
        for row in rows:
            fh.write(",".join(row) + "\n")


def _meta_line(payload, seed):
    return "metastab %s model=%s seed=%s" % (__version__, _model_hash(payload),
                                             seed)


def _fmt(x):
    if x is None:
        return "nan"
    if isinstance(x, float) and math.isinf(x):
        return "inf" if x > 0 else "-inf"
    return "%.12g" % x


def _json_ready(obj):
    """obj with numpy arrays and scalars as Python values and every
    non-finite float as None, since JSON has no NaN or Infinity."""
    if isinstance(obj, np.ndarray):
        obj = obj.tolist()
    if isinstance(obj, dict):
        return {k: _json_ready(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_json_ready(v) for v in obj]
    if isinstance(obj, (np.floating, np.integer)):
        obj = obj.item()
    if isinstance(obj, float) and not math.isfinite(obj):
        return None
    return obj


# ---------------------------------------------------------------------------
# subcommand implementations (shared by quantum and classical variants)

def _cmd_spectrum(args, dyn, payload):
    lam = dyn.eigenvalues()
    out = {
        "eigenvalues": [[float(v.real), float(v.imag)] for v in lam],
        "m_ss": int(dyn.m_ss),
        "model_hash": _model_hash(payload),
        "seed": args.seed,
        "eigvec_condition": dyn.spectral.eigvec_condition,
    }
    _emit_json(args, out)
    return 0


def _cmd_distances(args, dyn, payload):
    ts = _grid_from_args(args).times()
    # one batched sweep; the values are those of single calls
    dyn.prefetch([(family, float(t)) for t in ts
                  for family in ("ident", "stat")])
    rows = [( _fmt(t), _fmt(dyn.distance_to_identity(float(t))),
              _fmt(dyn.distance_to_stationary(float(t))) ) for t in ts]
    _emit_csv(args, payload, ("t", "d_initial", "d_stationary"), rows)
    return 0


def _cmd_changes(args, dyn, payload):
    ts = _grid_from_args(args).times()
    found = lockstep(dyn, [change_search(dyn, float(t), args.ratio * float(t))
                           for t in ts])
    rows = []
    for t, (c, _) in zip(ts, found):
        if c < 0.25:
            lo, hi = change_thresholds(c)
        else:
            lo = hi = math.nan
        rows.append((_fmt(t), _fmt(c), _fmt(lo), _fmt(hi)))
    _emit_csv(args, payload,
              ("t_start", "c_delta", "threshold_lower", "threshold_upper"), rows)
    return 0


def _verdict_json(v):
    return {
        "t_start": v.t_start, "t_end": v.t_end, "verdict": v.verdict,
        "c_delta": v.c_delta, "c_delta_doubling": v.c_delta2,
        "argmax_t": v.argmax_t,
        "d_initial_at_start": v.d_initial_at_start,
        "d_stationary_at_end": v.d_stationary_at_end,
        "threshold_lower": v.threshold_lower,
        "threshold_upper": v.threshold_upper,
        "validity_flags": v.validity_flags,
    }


def _cmd_detect(args, dyn, payload):
    try:
        scales = timescales(dyn)
        hits = scan_metastable(dyn, c_delta_max=args.cdelta_max,
                               ratio=args.ratio, n_scan=args.scan_points)
    except TrivialDynamicsError as err:
        raise UsageError("trivial dynamics: %s" % err)
    gen_norm = dyn.liouvillian_norm()
    if hits:
        # local: bench/tracing.py wraps regimes.relaxation_times, read per call
        from .regimes import CUTOFF_RELAXATION, relaxation_times

        best = min(hits, key=lambda v: (v.c_delta, v.t_start))
        if best.c_delta <= CUTOFF_RELAXATION:
            tau_dp, tau_p = relaxation_times(dyn, best.t_start, best.t_end,
                                             best.c_delta)
            scales = scales.with_relaxation(tau_dp, tau_p)
    windows = []
    for v in hits:
        entry = _verdict_json(v)
        entry["t_start_scaled"] = v.t_start * gen_norm
        entry["t_end_scaled"] = v.t_end * gen_norm
        windows.append(entry)
    out = {
        "model_hash": _model_hash(payload),
        "seed": args.seed,
        "liouvillian_norm": gen_norm,
        "timescales": {
            "tau_0": scales.tau_0, "tau_ss": scales.tau_ss,
            "tau_dprime": scales.tau_dprime, "tau_prime": scales.tau_prime,
            "tau_0_scaled": None if scales.tau_0 is None
            else scales.tau_0 * gen_norm,
            "tau_ss_scaled": None if scales.tau_ss is None
            else scales.tau_ss * gen_norm,
            "tau_0_residual": scales.tau_0_residual,
            "tau_ss_residual": scales.tau_ss_residual,
            "absent": scales.absent,
        },
        "metastable_windows": windows,
    }
    # restart spread of the generator-norm optimization: a heuristic
    # confidence indicator for the reported lower bounds (zero for exact
    # norms)
    out["norm_restart_dispersion"] = \
        dyn.generator_norm_result().restart_dispersion
    _emit_json(args, out)
    return 0


def _cmd_project(args, dyn, payload):
    if args.window:
        t_start, t_end = args.window
    else:
        hits = scan_metastable(dyn, c_delta_max=args.cdelta_max,
                               ratio=args.ratio, n_scan=args.scan_points)
        if not hits:
            print("no metastable window found; pass --window", file=sys.stderr)
            return 1
        best = min(hits, key=lambda v: (v.c_delta, v.t_start))
        t_start, t_end = best.t_start, best.t_end
    c, _ = change_measure(dyn, t_start, t_end)
    try:
        sep = detect_separation(dyn, t_start, t_end, c)
    except SeparationInconsistencyError as err:
        print("separation inconsistency: %s" % err, file=sys.stderr)
        return 1
    m = args.m if args.m is not None else sep.m
    report = spectral_projection_report(dyn, m, t_start, t_end)
    out = {
        "model_hash": _model_hash(payload), "seed": args.seed,
        "window": [t_start, t_end], "extended_end": report.extended_end,
        "m": report.m, "c_delta": report.c_delta,
        "c_delta_rebound": report.c_delta_rebound,
        "c_p": report.c_p, "p_norm": report.p_norm,
        "complement_norm": report.complement_norm,
        "projected_generator_norm": report.projected_generator_norm,
        "slow_drift_sup": report.slow_drift_sup,
        "fast_residual_sup": report.fast_residual_sup,
        "condition_checks": {k: {"value": v[0], "bound": v[1], "holds": v[2]}
                             for k, v in report.condition_checks.items()},
        "bound_slacks": report.bound_slacks(),
        "contradiction": report.contradiction,
        "separation": {
            "m": sep.m, "classification": list(sep.classification),
            "ratio_real": sep.ratio_real,
            "ratio_real_bound": sep.ratio_real_bound,
            "ratio_imag": sep.ratio_imag,
            "ratio_imag_bound": sep.ratio_imag_bound,
        },
        "curves": {
            "t": report.times, "proj_distance": report.proj_distance,
            "slow_drift": report.slow_drift,
            "fast_residual": report.fast_residual,
        },
    }
    _emit_json(args, out)
    return 0


def _cmd_verify_bounds(args, dyn, payload):
    if (args.tmin is None) != (args.tmax is None):
        raise UsageError("--tmin and --tmax must be given together")
    grid = None
    if args.tmin is not None:
        grid = TimeGrid(t_min=args.tmin, t_max=args.tmax,
                        n_points=33 if args.points is None else args.points,
                        spacing=args.spacing or "log").times()
    elif args.points is not None or args.spacing is not None:
        # they shape a grid; without one the battery picks its own
        raise UsageError("--points and --spacing need a grid: give --tmin "
                         "and --tmax")
    try:
        report = bound_battery(dyn, grid=grid, tol=args.tol, seed=args.seed)
    except TrivialDynamicsError as err:
        raise UsageError("trivial dynamics: %s" % err)
    if args.format == "json":
        ctx = {k: v for k, v in report.context.items() if k != "projection"}
        _emit_json(args, {
            "model_hash": _model_hash(payload), "seed": args.seed,
            "tol": report.tol, "all_pass": report.all_pass,
            "failed_ids": report.failed_ids(),
            "context": ctx,
            "rows": [{"id": r.id, "t": r.t, "lhs": r.lhs, "rhs": r.rhs,
                      "slack": r.slack, "pass": r.passed(report.tol),
                      "applicable": r.applicable, "note": r.note}
                     for r in report.rows],
        })
    else:
        rows = report.csv_rows()
        columns = next(rows)
        _emit_csv(args, payload, columns, rows)
    if not report.all_pass:
        print("FAILED bounds: %s" % ", ".join(report.failed_ids()),
              file=sys.stderr)
        return 1
    return 0


def _cmd_heisenberg(args, dyn, payload):
    ts = _grid_from_args(args).times()
    if isinstance(dyn, QuantumBackend):
        spec = dyn.spectral
        dim = spec.dim
        observable = args.observable or "sz"
        if observable == "basis":
            obs = np.zeros((dim, dim), dtype=complex)
            obs[0, 0] = 1.0
        else:
            if dim != 2:
                raise UsageError("observable %r needs a two-level model"
                                 % observable)
            obs = {"sx": SPIN_X, "sy": SPIN_Y, "sz": SPIN_Z}[observable]
        traj = observable_trajectory(spec, obs, ts)
        columns = ["t", "distance_to_asymptotic"]
        columns += ["re_%d_%d" % (i, j) for i in range(dim) for j in range(dim)]
        rows = []
        for t, O in zip(traj.times, traj.values):
            cells = [_fmt(t), _fmt(max_norm(O - traj.asymptotic))]
            cells += [_fmt(O[i, j].real) for i in range(dim) for j in range(dim)]
            rows.append(tuple(cells))
    else:
        if args.observable not in (None, "basis"):
            raise UsageError("observable %r needs a quantum model; classical "
                             "chains take basis" % args.observable)
        n = dyn.dim
        f = np.zeros(n)
        f[0] = 1.0
        columns = ["t", "distance_to_asymptotic"]
        columns += ["f_%d" % i for i in range(n)]
        P = dyn.stationary_matrix()
        f_ss = P.T @ f
        rows = []
        for t in ts:
            ft = dyn.evolution_matrix(float(t)).T @ f
            cells = [_fmt(t), _fmt(float(np.max(np.abs(ft - f_ss))))]
            cells += [_fmt(v) for v in ft]
            rows.append(tuple(cells))
    _emit_csv(args, payload, columns, rows)
    return 0


# ---------------------------------------------------------------------------

def _checked(parse, holds, what):
    """argparse type: the value parse reads from the text, if holds(value)."""
    def convert(text):
        try:
            value = parse(text)
        except ValueError:
            value = None
        if value is None or not holds(value):
            raise argparse.ArgumentTypeError("must be %s, got %r"
                                             % (what, text))
        return value
    return convert


# --seed: numpy's generators take non-negative integers; nan and +-inf are
# no times, ratios or tolerances
_seed = _checked(int, lambda n: n >= 0, "a non-negative integer")
_positive = _checked(int, lambda n: n >= 1, "a positive integer")
_finite = _checked(float, math.isfinite, "a finite number")


def _add_common(p, grid_required=True):
    p.add_argument("--model", required=True,
                   help="builtin:<name> or file:<path>")
    p.add_argument("--param", action="append", metavar="NAME=VALUE",
                   help="model parameter (repeatable)")
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--threads", type=int,
                   help="accepted and ignored; analyses run single-threaded")
    p.add_argument("--out", help="output file (default stdout)")
    if grid_required:
        p.add_argument("--tmin", type=_finite, default=1e-3)
        p.add_argument("--tmax", type=_finite, default=1e3)
        p.add_argument("--points", type=int, default=50)
        p.add_argument("--spacing", choices=("log", "linear"), default="log")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="metastab",
        description="Metastability analysis of Markovian open quantum systems "
                    "and classical Markov chains")
    parser.add_argument("--version", action="version",
                        version="metastab " + __version__)
    sub = parser.add_subparsers(dest="command", required=True)

    specs = {}

    def register(name, fn, grid=True, extra=None):
        for variant, classical in ((name, False), ("classical-" + name, True)):
            p = sub.add_parser(variant)
            _add_common(p, grid_required=grid)
            if extra:
                extra(p)
            specs[variant] = (fn, classical)
    register("spectrum", _cmd_spectrum, grid=False)
    register("distances", _cmd_distances)

    def changes_extra(p):
        p.add_argument("--ratio", type=_finite, default=2.0)
    register("changes", _cmd_changes, extra=changes_extra)

    def detect_extra(p):
        p.add_argument("--cdelta-max", type=_finite, default=0.1,
                       dest="cdelta_max")
        p.add_argument("--ratio", type=_finite, default=2.0)
        p.add_argument("--scan-points", type=_positive, default=24,
                       dest="scan_points")
    register("detect", _cmd_detect, grid=False, extra=detect_extra)

    def project_extra(p):
        p.add_argument("--window", type=_finite, nargs=2,
                       metavar=("T1", "T2"))
        p.add_argument("--m", type=int)
        p.add_argument("--cdelta-max", type=_finite, default=0.1,
                       dest="cdelta_max")
        p.add_argument("--ratio", type=_finite, default=2.0)
        p.add_argument("--scan-points", type=_positive, default=24,
                       dest="scan_points")
    register("project", _cmd_project, grid=False, extra=project_extra)

    def verify_extra(p):
        p.add_argument("--tol", type=_finite, default=1e-8)
        p.add_argument("--format", choices=("csv", "json"), default="csv")
        p.add_argument("--tmin", type=_finite, default=None)
        p.add_argument("--tmax", type=_finite, default=None)
        p.add_argument("--points", type=int, default=None)
        p.add_argument("--spacing", choices=("log", "linear"), default=None)
    register("verify-bounds", _cmd_verify_bounds, grid=False,
             extra=verify_extra)

    def heisenberg_extra(p):
        p.add_argument("--observable", choices=("sz", "sx", "sy", "basis"),
                       help="sz (the quantum default), sx, sy (two-level "
                            "models) or basis (the classical default)")
    register("heisenberg", _cmd_heisenberg, extra=heisenberg_extra)

    parser._command_specs = specs
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    fn, classical = parser._command_specs[args.command]
    if "METASTAB_SEED" in os.environ:
        try:
            args.seed = _seed(os.environ["METASTAB_SEED"])
        except argparse.ArgumentTypeError:
            print("METASTAB_SEED must be a non-negative integer",
                  file=sys.stderr)
            return 2
    try:
        dyn, payload = _load_model(args, classical)
        return fn(args, dyn, payload)
    except (UsageError, ValueError) as err:
        # ValueError: invalid windows, cuts, parameter domains or defective
        # generators reached an operation
        print("error: %s" % err, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
