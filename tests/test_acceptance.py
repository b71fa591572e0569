"""Acceptance suite: every exit criterion at its stated tolerance, one
pass/fail line per criterion (run with -s to see them inline)."""
import json
import math
import time

import numpy as np
import pytest

from metastab.classical import ClassicalBackend, ClassicalGenerator
from metastab.cli import main as cli_main
from metastab.models import random_lindbladian, spin_half_dephasing
from metastab.modes import change_thresholds, inverse_bound
from metastab.norms import _alternating_ascent, induced_norm_sampling_oracle
from metastab.regimes import (QuantumBackend, change_measure, classify_regime,
                              relaxation_times, scan_metastable, timescales)
from metastab.spectral_meta import bound_battery
from metastab.superop import (Superoperator, build_liouvillian,
                              spectral_decompose, vec)

from conftest import CRITERION_4_TARGETED, GAMMA, KAPPA, OMEGA, DECAY_FAST

GUARD = 2e-4


def report(number, description, ok):
    print("ACCEPTANCE %d [%s]: %s" % (number, "PASS" if ok else "FAIL",
                                      description))
    assert ok, "criterion %d failed: %s" % (number, description)


def test_criterion_1_spectral_ground_truth():
    start = time.monotonic()
    L = build_liouvillian(spin_half_dephasing(GAMMA, KAPPA, OMEGA))
    lam = np.linalg.eigvals(L.matrix)
    expected = [0.0, -KAPPA, -DECAY_FAST + 1j * OMEGA,
                -DECAY_FAST - 1j * OMEGA]
    ok = True
    for e in expected:
        scale = max(abs(e), 1.0)
        ok = ok and np.min(np.abs(lam - e)) <= 1e-10 * scale
    elapsed = time.monotonic() - start
    report(1, "Liouvillian eigenvalues match the closed forms to 1e-10 "
              "relative in %.2f s" % elapsed, ok and elapsed < 1.0)


def test_criterion_2_norm_curves(spin_backend):
    start = time.monotonic()
    dyn = spin_backend
    ts = np.geomspace(1e-3, 1e3, 50)
    ok = True
    worst_ss = worst_i = worst_drift = worst_fast = 0.0
    for t in ts:
        d_ss = dyn.distance_to_stationary(float(t))
        worst_ss = max(worst_ss, abs(d_ss - math.exp(-KAPPA * t)))
        d_i = dyn.distance_to_identity(float(t))
        fast_part = math.sqrt(max(0.0, 1.0 - 2.0 * math.exp(-DECAY_FAST * t)
                                  * math.cos(OMEGA * t)
                                  + math.exp(-2.0 * DECAY_FAST * t)))
        want_i = max(1.0 - math.exp(-KAPPA * t), fast_part)
        worst_i = max(worst_i, abs(d_i - want_i))
        worst_drift = max(worst_drift, abs(dyn.slow_drift(2, float(t))
                                           - (1.0 - math.exp(-KAPPA * t))))
        worst_fast = max(worst_fast, abs(dyn.fast_residual(2, float(t))
                                         - math.exp(-DECAY_FAST * t)))
    ok = (worst_ss <= 1e-6 and worst_i <= 1e-4 and worst_drift <= 1e-4
          and worst_fast <= 1e-4)
    elapsed = time.monotonic() - start
    report(2, "distance and projection curves match the mode formulas "
              "(max errors %.1e/%.1e/%.1e/%.1e) in %.1f s"
              % (worst_ss, worst_i, worst_drift, worst_fast, elapsed),
           ok and elapsed < 60.0)


def test_criterion_3_metastability_detection(spin_backend, capsys):
    code = cli_main(["detect", "--model", "builtin:spin_half",
                     "--param", "gamma=1", "--param", "kappa=0.005",
                     "--param", "omega=5.025", "--cdelta-max", "0.1"])
    out, _ = capsys.readouterr()
    data = json.loads(out)
    ok = code == 0 and len(data["metastable_windows"]) > 0
    tau_0 = data["timescales"]["tau_0"]
    tau_ss = data["timescales"]["tau_ss"]
    for w in data["metastable_windows"]:
        ok = ok and w["verdict"] == "Metastable"
        ok = ok and w["t_start"] > tau_0 and w["t_end"] < tau_ss
        ok = ok and w["t_end"] >= 2.0 * w["t_start"]
        ok = ok and w["d_initial_at_start"] >= w["threshold_upper"] - GUARD
        ok = ok and w["d_stationary_at_end"] >= (w["threshold_upper"]
                                                 - w["c_delta"] - GUARD)

    v = classify_regime(spin_backend, 20.0, 40.0)
    ok = ok and v.verdict == "Metastable"
    ok = ok and abs(v.c_delta - 0.0861) <= 0.002

    control = QuantumBackend(model=spin_half_dephasing(1.0, 1.0, 10.0), seed=0)
    ok = ok and scan_metastable(control, c_delta_max=0.1, ratio=2.0) == []
    report(3, "detection finds metastable windows with valid thresholds, "
              "window (20, 40) has change %.4f, no-separation control is "
              "empty" % v.c_delta, ok)


@pytest.mark.slow
def test_criterion_4_bound_battery(spin_backend):
    start = time.monotonic()
    rep = bound_battery(spin_backend, seed=0)
    ok = rep.all_pass
    failures = {} if ok else {"builtin": rep.failed_ids()}

    for dim in (2, 3):
        for seed in range(1, 26):
            dyn = QuantumBackend(model=random_lindbladian(dim, 2, seed=seed),
                                 seed=seed)
            r = bound_battery(dyn, seed=seed, scan_points=8, n_grid=17)
            if not r.all_pass:
                failures["D%d seed %d" % (dim, seed)] = r.failed_ids()
                ok = False

    # negative control: a stationary projection aimed at a tilted state must
    # fail its targeted rows and only those
    grid = np.array([row.t for row in rep.rows if row.id == "change2_all"])
    bad_state = np.eye(2) / 2 + 0.3 * np.diag([1.0, -1.0])
    bad = np.outer(vec(bad_state), vec(np.eye(2)).conj())
    control = bound_battery(spin_backend, grid=grid, seed=0,
                            window=rep.context["window2"],
                            window4=rep.context["window4"],
                            stationary_override=bad)
    failed = set(control.failed_ids())
    ok = ok and "change2_ss" in failed and failed <= CRITERION_4_TARGETED
    elapsed = time.monotonic() - start
    report(4, "inequality battery passes on the built-in model and 50 random "
              "instances, corrupted control fails only stationary-dependent "
              "rows (%s); %.0f s%s"
              % (sorted(failed), elapsed,
                 "" if not failures else "; failures: %r" % failures),
           ok and elapsed < 300.0)


@pytest.mark.slow
def test_criterion_5_oracle_equivalence():
    ok = True
    worst_rel = 0.0
    for seed in range(1, 21):
        spec = spectral_decompose(build_liouvillian(
            random_lindbladian(2, 2, seed=seed)))
        rng = np.random.default_rng([seed, 55])
        for _ in range(10):
            t1, t2 = rng.uniform(0.05, 6.0, 2)
            X = Superoperator(2, spec.evolution_matrix(t1)
                              - spec.evolution_matrix(t2),
                              hermiticity_preserving=True)
            opt = _alternating_ascent(X.matrix, 2, seed=seed).value
            sam = induced_norm_sampling_oracle(X, 100000, seed=seed)
            ok = ok and sam <= opt + 1e-9
            rel = (opt - sam) / opt if opt > 0 else 0.0
            worst_rel = max(worst_rel, rel)
            ok = ok and rel <= 5e-3

    # exact classical closed forms through the generic pipeline
    a = 1.0
    dyn = ClassicalBackend(ClassicalGenerator(np.array([[-a, a], [a, -a]])))
    scales = timescales(dyn)
    ok = ok and abs(scales.tau_0 - 1.0 / (2 * a)) <= 1e-10
    ok = ok and abs(scales.tau_ss - 1.0 / (2 * a)) <= 1e-10
    t1, t2 = 0.15, 0.3
    c, _ = change_measure(dyn, t1, t2)
    c_exact = math.exp(-2 * a * t1) - math.exp(-2 * a * t2)
    ok = ok and abs(c - c_exact) <= 1e-10
    ok = ok and abs(dyn.distance_to_identity(t1)
                    - (1.0 - math.exp(-2 * a * t1))) <= 1e-10
    ok = ok and abs(dyn.distance_to_stationary(t1)
                    - math.exp(-2 * a * t1)) <= 1e-10
    lo, hi = change_thresholds(c_exact)
    tau_d, tau_p = relaxation_times(dyn, t1, t2, c_exact)
    # scalar mode: the crossing levels invert in closed form
    tau_d_exact = -math.log(1.0 / math.e - lo + math.exp(-2 * a * t1)) / (2 * a)
    tau_p_exact = -math.log(math.exp(-2 * a * t1)
                            - (1.0 - 1.0 / math.e - lo)) / (2 * a)
    ok = ok and abs(tau_d - tau_d_exact) <= 1e-10
    ok = ok and abs(tau_p - tau_p_exact) <= 1e-10
    report(5, "optimizer vs 1e5-sample oracle within +1e-9/-0.5%% "
              "(worst %.2e) and classical pipeline exact to 1e-10"
              % worst_rel, ok)


def test_criterion_6_threshold_algebra():
    rng = np.random.default_rng(6)
    ok = True
    for c in rng.uniform(0.0, 0.25, 1000):
        lo, hi = change_thresholds(c)
        ok = ok and abs(lo + hi - 1.0) <= 1e-14
        ok = ok and abs(lo * hi - c) <= 1e-14
    for c in rng.uniform(0.0, 2 * math.log(2.0) - 1.0, 300):
        x = inverse_bound("E1", c)
        ok = ok and abs(2.0 * x - math.exp(x) + 1.0 - c) <= 1e-10
    for c in rng.uniform(0.0, (3 * math.log(1.5) - 1.0) / 2.0, 300):
        x = inverse_bound("E2", c)
        ok = ok and abs(1.5 * x - math.exp(x) + 1.0 - c) <= 1e-10
    report(6, "threshold roots and growth inverses satisfy their defining "
              "identities to 1e-14 / 1e-10", ok)


def test_criterion_7_determinism(tmp_path, capsys):
    spin_args = ["--model", "builtin:spin_half", "--param", "gamma=1",
                 "--param", "kappa=0.005", "--param", "omega=5.025",
                 "--seed", "11"]
    outputs = {}
    for tag, extra in (("d1", ["--threads", "1"]), ("d1b", ["--threads", "1"]),
                       ("d8", ["--threads", "8"])):
        path = tmp_path / ("detect_%s.json" % tag)
        code = cli_main(["detect"] + spin_args + extra + ["--out", str(path)])
        capsys.readouterr()
        assert code == 0
        outputs[tag] = path.read_bytes()
    ok = outputs["d1"] == outputs["d1b"] == outputs["d8"]

    for tag, extra in (("v1", ["--threads", "1"]), ("v1b", ["--threads", "1"]),
                       ("v8", ["--threads", "8"])):
        path = tmp_path / ("verify_%s.csv" % tag)
        code = cli_main(["verify-bounds"] + spin_args + extra +
                        ["--out", str(path)])
        capsys.readouterr()
        assert code == 0
        outputs[tag] = path.read_bytes()
    ok = ok and outputs["v1"] == outputs["v1b"] == outputs["v8"]
    report(7, "detect and verify-bounds outputs are byte-identical across "
              "runs and thread counts", ok)
