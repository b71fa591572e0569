"""metastab benchmark: the CLI, driven in-process, on one workload.

    python3 bench/run.py --workload spin-cli --seed 0 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seconds 30     # every workload

Run from the repository root (or any checkout of it); the package is
imported from ./src, nothing is installed. One repeat runs every analysis of
the workload once, through ``metastab.cli.main`` with ``--threads 1``;
repeats continue until ``--seconds`` is used up (at least two, so each
output can be compared byte for byte across repeats). Every output is
checked. The last line of stdout is the JSON result; the lines above it are
the same metrics for humans, with sample counts.

--trace 0 reports the end-to-end metrics. --trace 1 alternates untraced and
traced repeats and reports the per-layer metrics from the traced ones (see
tracing.py), the tracing overhead, and the norm-scaling probe, which runs
after the timed repeats and never enters an end-to-end metric.
"""
import argparse
import contextlib
import functools
import io
import json
import os
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import traceback

# one BLAS thread: the plain single-threaded baseline, and steadier on a
# small shared machine (set before numpy is first imported)
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(BENCH_DIR), "src")
OUT_DIR = os.path.join(BENCH_DIR, ".out")
SETUP_SAMPLES = 5
MIN_REPEATS = 2


def workload_names():
    return [w["name"] for w in benchmark_spec()["workloads"]]


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True,
                   choices=workload_names() + ["all"])
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true",
                   help="internal: one set-up sample (import, inputs, "
                        "warm-up), then exit")
    return p.parse_args(argv)


def run_cli(argv):
    """One in-process CLI call: (exit code or error text, stdout, stderr)."""
    import metastab.cli

    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = metastab.cli.main(argv)
    except SystemExit as exc:
        rc = exc.code if isinstance(exc.code, int) else 2
    except Exception:
        rc = "exception"
        err.write(traceback.format_exc())
    return rc, out.getvalue(), err.getvalue()


def set_up(workload, seed, workdir):
    """Import metastab, write the inputs and run one warm-up call per model.
    Returns the warm-up failures."""
    from workloads import write_inputs

    import metastab.cli  # noqa: F401  (import time belongs to set-up)

    failures = []
    for argv in write_inputs(workload, seed, workdir):
        rc, _, err = run_cli(argv)
        if rc != 0:
            failures.append("warm-up %s: exit %s %s"
                            % (argv[0], rc, err[-300:]))
    return failures


def setup_samples(workload, seed):
    """Wall times of fresh processes doing the set-up, as users pay it.

    Each process runs the speed kernel on a timer during its own set-up and
    reports it: the speed switches within tens of milliseconds, so only
    samples from inside the process describe it. The kernel time is taken
    out and the rest scaled like an analysis.
    """
    from speed import REF_S

    cmd = [sys.executable, os.path.abspath(__file__), "--setup-only",
           "--workload", workload, "--seed", str(seed)]
    samples = {"wall": [], "scaled": []}
    for _ in range(SETUP_SAMPLES):
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=120)
        wall = time.perf_counter() - t0
        if proc.returncode != 0:
            raise RuntimeError("set-up failed: %s" % proc.stderr[-500:])
        kernels = json.loads(proc.stdout.splitlines()[-1])["kernels"]
        samples["wall"].append(wall)
        # the first kernel run of a fresh process pays one-off costs
        samples["scaled"].append((wall - sum(kernels)) * REF_S
                                 / statistics.fmean(kernels[1:]))
    return samples


def run_repeat(plan, first_outputs, tracer=None):
    """Run every analysis once. Returns per-label wall times and intervals,
    failures and the total CLI output size."""
    from workloads import CheckError

    times, intervals, failures, out_bytes = {}, {}, [], 0
    for index, analysis in enumerate(plan):
        if tracer is not None:
            tracer.analysis = index
        t0 = time.perf_counter()
        rc, out, err = run_cli(analysis.argv)
        t1 = time.perf_counter()
        times[analysis.label] = t1 - t0
        intervals[analysis.label] = (t0, t1)
        out_bytes += len(out.encode())
        problem = None
        if rc != 0:
            problem = "exit %s: %s" % (rc, err.strip()[-500:])
        elif analysis.check is not None:
            try:
                analysis.check(out)
            except CheckError as exc:
                problem = str(exc)
            except (KeyError, TypeError, ValueError) as exc:
                problem = "malformed output: %r" % (exc,)
        if problem is None and first_outputs.setdefault(analysis.label,
                                                         out) != out:
            problem = "output differs from the first repeat"
        if problem is not None:
            failures.append("%s: %s" % (analysis.label, problem))
    return {"times": times, "intervals": intervals, "failures": failures,
            "out_bytes": out_bytes, "wall": sum(times.values())}


def _enough(repeats, elapsed, seconds, minimum):
    """Stop once another repeat of the mean length would overrun."""
    n = len(repeats)
    return n >= minimum and elapsed * (n + 1) / n > seconds


def per_kind_time(plan, repeats, kind, key="scaled"):
    """Mean over the workload's models of the median repeat time."""
    labels = [a.label for a in plan if a.kind == kind]
    return statistics.fmean(
        statistics.median(r[key][label] for r in repeats)
        for label in labels), len(labels)


def end_to_end(plan, args, setup):
    from speed import REF_S, SpeedProbe

    probe = SpeedProbe()
    first_outputs = {}
    repeats = []
    t_loop = time.perf_counter()
    with probe:
        while not _enough(repeats, time.perf_counter() - t_loop,
                          args.seconds, MIN_REPEATS):
            repeats.append(run_repeat(plan, first_outputs))
    elapsed = time.perf_counter() - t_loop
    for r in repeats:
        r["scaled"] = {label: probe.scale(*interval)
                       for label, interval in r["intervals"].items()}
    attempted = len(plan) * len(repeats)
    failures = [f for r in repeats for f in r["failures"]]
    ok = attempted - len(failures)
    units = metric_units()
    detect_s, n_detect = per_kind_time(plan, repeats, "detect")
    battery_s, n_battery = per_kind_time(plan, repeats, "verify_bounds")
    busy = sum(sum(r["scaled"].values()) for r in repeats)
    kernels = [value for _, value in probe.samples]
    metrics = {
        "setup_s": statistics.median(setup["scaled"]),
        "detect_s": detect_s,
        "verify_bounds_s": battery_s,
        "analyses_per_min": 60.0 * ok / busy,
        "ok_frac": ok / attempted,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
    }
    n = len(repeats)
    samples = {
        "setup_s": "median of %d fresh processes" % SETUP_SAMPLES,
        "detect_s": "median of %d repeats, mean over %d model(s)"
                    % (n, n_detect),
        "verify_bounds_s": "median of %d repeats, mean over %d model(s)"
                           % (n, n_battery),
        "analyses_per_min": "%d analyses in %.1f s (%.1f s wall)"
                            % (ok, busy, elapsed),
        "ok_frac": "%d of %d analyses passed; fail_frac = %.3g"
                   % (ok, attempted, 1.0 - ok / attempted),
        "peak_rss_mb": "max RSS of this process",
    }
    print("# %s seed=%d: %d repeats; no tail percentile (fewer than 10 "
          "samples beyond p90)" % (args.workload, args.seed, n))
    for name, value in metrics.items():
        print("%-18s %14.6g %-6s %s" % (name, value, units[name],
                                       samples[name]))
    print("# times are scaled to the reference machine by %d speed-kernel "
          "samples (median %.4g s, range %.4g-%.4g s, reference %.4g s); "
          "wall medians: set-up %.4g s, detect %.4g s, verify-bounds %.4g s"
          % (len(kernels), statistics.median(kernels), min(kernels),
             max(kernels), REF_S, statistics.median(setup["wall"]),
             per_kind_time(plan, repeats, "detect", "times")[0],
             per_kind_time(plan, repeats, "verify_bounds", "times")[0]))
    return metrics, attempted, len(failures), failures


def traced(plan, args):
    import tracing

    tracer = tracing.Tracer()
    kinds = {i: a.kind for i, a in enumerate(plan)}
    first_outputs = {}
    plain, layered, per_layer = [], [], []
    first_spans = None
    t_loop = time.perf_counter()
    while not _enough(layered, time.perf_counter() - t_loop, args.seconds, 1):
        plain.append(run_repeat(plan, first_outputs))
        with tracing.installed(tracer):
            layered.append(run_repeat(plan, first_outputs, tracer))
        spans = tracer.take()
        per_layer.append(tracing.layer_metrics(
            spans, kinds, layered[-1]["out_bytes"],
            spin=args.workload == "spin-cli"))
        if first_spans is None:
            first_spans = spans
    failures = [f for r in plain + layered for f in r["failures"]]
    attempted = len(plan) * (len(plain) + len(layered))
    failed = len(failures)

    # counters come from the first traced repeat; every later one must match
    metrics = {}
    for name, value in per_layer[0].items():
        if isinstance(value, int):
            metrics[name] = value
            if any(m[name] != value for m in per_layer[1:]):
                failures.append("counter %s differs between traced repeats"
                                % name)
        else:
            metrics[name] = statistics.median(m[name] for m in per_layer)
    metrics["trace.overhead_s"] = (
        statistics.median(r["wall"] for r in layered)
        - statistics.median(r["wall"] for r in plain))
    metrics.update(tracing.norm_probe())

    print("# %s seed=%d: %d untraced + %d traced repeats; timings are "
          "medians over the traced repeats, counts are per repeat"
          % (args.workload, args.seed, len(plain), len(layered)))
    units = metric_units()
    for name, value in metrics.items():
        print("%-40s %14.6g %s" % (name, value, units[name]))
    for index, counts in sorted(tracing.family_split(first_spans).items()):
        print("# norm calls by family, %s: %s" % (plan[index].label, " ".join(
            "%s=%d" % item for item in counts.items())))
    _write_spans(args, plan, first_spans)
    return metrics, attempted, failed, failures


def _write_spans(args, plan, spans):
    """Write the spans of the first traced repeat, one JSON object a line."""
    path = os.path.join(OUT_DIR, "trace_%s_seed%d.jsonl"
                        % (args.workload, args.seed))
    with open(path, "w") as fh:
        for span in spans:
            record = span.as_dict()
            record["label"] = plan[span.analysis].label
            fh.write(json.dumps(record) + "\n")
    print("# spans of the first traced repeat written to %s"
          % os.path.relpath(path))


@functools.lru_cache(maxsize=None)
def benchmark_spec():
    """BENCHMARK.json at the repository root: workloads and metrics."""
    with open(os.path.join(os.path.dirname(BENCH_DIR),
                           "BENCHMARK.json")) as fh:
        return json.load(fh)


def metric_units():
    """Metric name -> unit, from BENCHMARK.json at the repository root."""
    spec = benchmark_spec()
    return {m["name"]: m["unit"]
            for m in spec["end_to_end"] + spec["per_layer"]}


def run_all(args):
    """Every workload in its own process; prints their tables."""
    results = {}
    for name in workload_names():
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=600)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print("%s failed: %s" % (name, proc.stderr[-500:]),
                  file=sys.stderr)
            return 1
        print("\n".join(lines[:-1]))
        results[name] = json.loads(lines[-1])
    print(json.dumps(results))
    return 0


def main(argv=None):
    sys.path.insert(0, BENCH_DIR)
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "metastab", "__init__.py")):
        print("error: no metastab sources at %s; run from a checkout of the "
              "repository" % SRC, file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    os.makedirs(OUT_DIR, exist_ok=True)
    if args.workload == "all":
        return run_all(args)
    setup = None
    if not args.setup_only and not args.trace:
        setup = setup_samples(args.workload, args.seed)

    with tempfile.TemporaryDirectory(dir=OUT_DIR,
                                     prefix=args.workload + "-") as workdir:
        if args.setup_only:
            from speed import SpeedProbe

            probe = SpeedProbe()
            probe.kernel()
            with probe:
                failures = set_up(args.workload, args.seed, workdir)
            for line in failures:
                print(line, file=sys.stderr)
            print(json.dumps({"kernels": [s for _, s in probe.samples]}))
            return 1 if failures else 0
        failures = set_up(args.workload, args.seed, workdir)
        from workloads import analyses

        plan = analyses(args.workload, args.seed, workdir)
        if args.trace:
            metrics, attempted, failed, run_failures = traced(plan, args)
        else:
            metrics, attempted, failed, run_failures = end_to_end(
                plan, args, setup)
    failures += run_failures
    for line in failures:
        print("FAILED %s" % line)
    units = metric_units()
    section = benchmark_spec()["per_layer" if args.trace else "end_to_end"]
    if set(metrics) != {m["name"] for m in section}:
        raise RuntimeError("metrics do not match BENCHMARK.json: %s" % sorted(
            set(metrics) ^ {m["name"] for m in section}))
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
