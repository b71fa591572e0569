"""Benchmark workloads: generated inputs, the CLI analyses one repeat runs,
and the checks applied to their outputs.

Every analysis is one in-process ``metastab.cli.main`` call with
``--threads 1``. The workload seed is the CLI ``--seed`` of every analysis
and, on classical-chains, also generates the rate matrices.
"""
import json
import math
import os
from dataclasses import dataclass

import numpy as np

SPIN_GAMMA, SPIN_KAPPA, SPIN_OMEGA = 1.0, 0.005, 5.025
SPIN_MODEL = ["--model", "builtin:spin_half", "--param", "gamma=1",
              "--param", "kappa=0.005", "--param", "omega=5.025"]

# random-battery runs fixed models: their cost varies by up to 2x from one
# model seed to the next (measured 2.2-4.1 s for a D = 3 detect), which no
# affordable number of repeats averages out; the workload seed still drives
# the optimizer restarts and the battery's random rows
RANDOM_MODEL_SEED = 0
RANDOM_DETECT_DIM = 4
RANDOM_BATTERY_DIM = 3

CHAIN_SIZES = (4, 8, 16, 32, 64)
CHAIN_COUPLING = 1e-3


class CheckError(Exception):
    """An analysis output failed its correctness check."""


@dataclass
class Analysis:
    label: str      # unique within a repeat
    kind: str       # "detect" or "verify_bounds"
    argv: list
    check: object = None   # callable(stdout text), raises CheckError


def two_cluster_chain(n, rng):
    """Rate matrix of two equal clusters with uniform(0.5, 1.5) rates inside
    and CHAIN_COUPLING times that between them (column convention)."""
    Q = rng.uniform(0.5, 1.5, size=(n, n))
    half = n // 2
    same = np.zeros((n, n), dtype=bool)
    same[:half, :half] = same[half:, half:] = True
    Q = np.where(same, Q, CHAIN_COUPLING * Q)
    np.fill_diagonal(Q, 0.0)
    Q -= np.diag(Q.sum(axis=0))
    return Q


def _chain_path(workdir, n):
    return os.path.join(workdir, "chain_%d.json" % n)


def _random_path(workdir, dim):
    return os.path.join(workdir, "random_d%d.json" % dim)


def write_inputs(workload, seed, workdir):
    """Write the model files the workload reads; return the warm-up argvs
    (one cheap CLI call per model, paying lazy initialisation)."""
    common = ["--seed", str(seed), "--threads", "1"]
    short = ["--tmin", "1", "--tmax", "2", "--points", "2"]
    if workload == "spin-cli":
        return [["distances"] + SPIN_MODEL + common + short]
    if workload == "random-battery":
        warm = []
        for dim in (RANDOM_DETECT_DIM, RANDOM_BATTERY_DIM):
            path = _random_path(workdir, dim)
            with open(path, "w") as fh:
                json.dump({"name": "random_lindbladian",
                           "params": {"dim": dim, "n_jumps": 2},
                           "seed": RANDOM_MODEL_SEED}, fh)
            warm.append(["distances", "--model", "file:" + path]
                        + common + short)
        return warm
    if workload == "classical-chains":
        warm = []
        for n in CHAIN_SIZES:
            Q = two_cluster_chain(n, np.random.default_rng([seed, n]))
            path = _chain_path(workdir, n)
            with open(path, "w") as fh:
                json.dump({"rates": Q.tolist()}, fh)
            warm.append(["classical-distances", "--model", "file:" + path]
                        + common + short)
        return warm
    raise ValueError("unknown workload %r" % workload)


def _load(text):
    try:
        return json.loads(text)
    except json.JSONDecodeError as err:
        raise CheckError("output is not JSON: %s" % err)


def _check_spin_detect(text):
    out = _load(text)
    scales = out["timescales"]
    tau_0, tau_ss = scales["tau_0"], scales["tau_ss"]
    if tau_ss is None or abs(tau_ss - 1.0 / SPIN_KAPPA) > 1e-6 / SPIN_KAPPA:
        raise CheckError("tau_ss = %r, expected 1/kappa = %g"
                         % (tau_ss, 1.0 / SPIN_KAPPA))
    windows = out["metastable_windows"]
    if not windows:
        raise CheckError("no metastable window on the spin model")
    for w in windows:
        if w["verdict"] != "Metastable" \
                or not tau_0 < w["t_start"] < w["t_end"] < tau_ss:
            raise CheckError("window %r outside (tau_0, tau_ss) = (%g, %g)"
                             % ((w["t_start"], w["t_end"], w["verdict"]),
                                tau_0, tau_ss))


def _check_timescales_ordered(text):
    scales = _load(text)["timescales"]
    tau_0, tau_ss = scales["tau_0"], scales["tau_ss"]
    if tau_0 is None or tau_ss is None or not 0.0 < tau_0 < tau_ss:
        raise CheckError("timescales not ordered: tau_0=%r tau_ss=%r"
                         % (tau_0, tau_ss))


def l1_tau_ss(Q):
    """First time the exact l1 distance ||e^{tQ} - P|| falls to 1/e, found
    independently of metastab: stationary vector from the null space, scipy
    expm, geometric bracket and brentq. The distance is non-increasing, so
    the root is the first crossing."""
    import scipy.linalg
    from scipy.optimize import brentq

    n = Q.shape[0]
    A = np.vstack([Q, np.ones((1, n))])
    b = np.zeros(n + 1)
    b[-1] = 1.0
    pi = np.linalg.lstsq(A, b, rcond=None)[0]
    P = np.outer(pi, np.ones(n))

    def f(t):
        E = scipy.linalg.expm(t * Q) - P
        return float(np.max(np.abs(E).sum(axis=0))) - 1.0 / math.e

    lam = np.sort(np.linalg.eigvals(Q).real)[::-1]
    lo, hi = 0.0, 1.0 / -lam[1]
    while f(hi) > 0.0:
        lo, hi = hi, 2.0 * hi
    return brentq(f, lo, hi, xtol=1e-14 * hi, rtol=4 * np.finfo(float).eps)


def _tau_ss_check(reference):
    def check(text):
        tau_ss = _load(text)["timescales"]["tau_ss"]
        if tau_ss is None or abs(tau_ss - reference) > 1e-8 * reference:
            raise CheckError("tau_ss = %r, independent l1 root %r"
                             % (tau_ss, reference))
    return check


def analyses(workload, seed, workdir):
    """The analyses of one repeat, with their output checks. Call after
    write_inputs; reference values for the checks are computed here."""
    common = ["--seed", str(seed), "--threads", "1"]
    if workload == "spin-cli":
        return [Analysis("detect", "detect", ["detect"] + SPIN_MODEL + common,
                         _check_spin_detect),
                Analysis("verify-bounds", "verify_bounds",
                         ["verify-bounds"] + SPIN_MODEL + common)]
    if workload == "random-battery":
        detect = "file:" + _random_path(workdir, RANDOM_DETECT_DIM)
        battery = "file:" + _random_path(workdir, RANDOM_BATTERY_DIM)
        return [Analysis("detect D=%d" % RANDOM_DETECT_DIM, "detect",
                         ["detect", "--model", detect] + common,
                         _check_timescales_ordered),
                Analysis("verify-bounds D=%d" % RANDOM_BATTERY_DIM,
                         "verify_bounds",
                         ["verify-bounds", "--model", battery] + common)]
    if workload == "classical-chains":
        out = []
        for n in CHAIN_SIZES:
            path = _chain_path(workdir, n)
            with open(path) as fh:
                Q = np.asarray(json.load(fh)["rates"], dtype=float)
            model = ["--model", "file:" + path]
            out.append(Analysis("classical-detect n=%d" % n, "detect",
                                ["classical-detect"] + model + common,
                                _tau_ss_check(l1_tau_ss(Q))))
            out.append(Analysis("classical-verify-bounds n=%d" % n,
                                "verify_bounds",
                                ["classical-verify-bounds"] + model + common))
        return out
    raise ValueError("unknown workload %r" % workload)
