import math

import numpy as np
import pytest

from metastab import regimes, spectral_meta
from metastab.models import random_lindbladian
from metastab.modes import SCAN_AHEAD
from metastab.regimes import QuantumBackend, change_measure
from metastab.spectral_meta import (SeparationInconsistencyError, bound_battery,
                                    detect_separation, gap_cut,
                                    spectral_projection_report,
                                    spectrum_change_bound_check)

from conftest import (DECAY_FAST, KAPPA, assert_caches_untouched,
                      cache_snapshot, three_level_double_well)


def test_spectrum_change_margins_zero_pair(spin_backend, spin_spectral):
    margins = spectrum_change_bound_check(spin_spectral, spin_backend, 3.0, 3.0)
    assert np.allclose(margins, 0.0, atol=1e-12)


def test_spectrum_change_margins_spin(spin_backend, spin_spectral):
    rng = np.random.default_rng(0)
    for _ in range(6):
        t1, t2 = rng.uniform(0.05, 60.0, 2)
        margins = spectrum_change_bound_check(spin_spectral, spin_backend,
                                              t1, t2)
        assert margins.min() >= -1e-8


def test_spectrum_change_margins_random_d3():
    dyn = QuantumBackend(model=random_lindbladian(3, 2, seed=17), seed=17)
    rng = np.random.default_rng(1)
    for _ in range(8):
        t1, t2 = rng.uniform(0.05, 8.0, 2)
        margins = spectrum_change_bound_check(dyn, dyn, t1, t2)
        assert margins.min() >= -1e-8


def test_limit_pair_reduces_to_stationary_bound(spin_backend, spin_spectral):
    # t1 = 0, t2 -> infinity: the distance reaches ||I - P_ss|| = 1 and each
    # decaying eigenvalue contributes |e^{0 lam}| = 1
    d = spin_backend.distance(0.0, 4000.0)
    lam = spin_spectral.eigenvalues
    for k in range(spin_spectral.m_ss, lam.size):
        assert abs(np.exp(0.0 * lam[k])) <= d + 1e-8


def test_detect_separation_spin_window(spin_backend):
    c, _ = change_measure(spin_backend, 20.0, 40.0)
    rep = detect_separation(spin_backend, 20.0, 40.0, c)
    assert rep.m == 2
    assert rep.classification == ("initial", "initial", "final", "final")
    assert rep.slack_initial >= -1e-9 and rep.slack_final >= -1e-9
    assert rep.ratio_real == pytest.approx(KAPPA / DECAY_FAST, rel=1e-12)
    assert rep.ratio_real <= rep.ratio_real_bound + 1e-12
    assert rep.ratio_imag <= rep.ratio_imag_bound + 1e-12


def test_detect_separation_initial_window(spin_backend):
    t1, t2 = 0.002, 0.004
    c, _ = change_measure(spin_backend, t1, t2)
    rep = detect_separation(spin_backend, t1, t2, c)
    assert rep.m == 4  # everything still in its initial regime


def test_detect_separation_final_window(spin_backend):
    t1, t2 = 1500.0, 3000.0
    c, _ = change_measure(spin_backend, t1, t2)
    rep = detect_separation(spin_backend, t1, t2, c)
    assert rep.m == spin_backend.m_ss


def test_detect_separation_inconsistency(spin_backend):
    # an artificially tiny change measure leaves the slow eigenvalue without
    # a branch, which flags an optimizer underestimate
    with pytest.raises(SeparationInconsistencyError) as err:
        detect_separation(spin_backend, 20.0, 40.0, 1e-6)
    assert err.value.k == 1


def test_detect_separation_validation(spin_backend):
    with pytest.raises(ValueError):
        detect_separation(spin_backend, 20.0, 40.0, 0.3)
    with pytest.raises(ValueError):
        detect_separation(spin_backend, 20.0, 30.0, 0.01)


def test_projection_report_spin(spin_backend):
    rep = spectral_projection_report(spin_backend, 2, 20.0, 40.0)
    assert rep.extended_end == pytest.approx(80.0)
    assert rep.c_delta <= rep.c_delta_rebound + 1e-12
    # exact decomposition of the projection error on the slow/fast split
    for t, drift, fast in zip(rep.times, rep.slow_drift, rep.fast_residual):
        assert drift == pytest.approx(1.0 - math.exp(-KAPPA * t), abs=1e-6)
        assert fast == pytest.approx(math.exp(-DECAY_FAST * t), abs=1e-6)
    assert rep.c_p == pytest.approx(
        max(1.0 - math.exp(-KAPPA * 80.0), math.exp(-DECAY_FAST * 20.0)),
        abs=1e-6)
    assert rep.p_norm == pytest.approx(1.0, abs=1e-8)
    assert rep.projected_generator_norm == pytest.approx(KAPPA, abs=1e-8)
    assert rep.contradiction is None
    for row in rep.rows:
        assert row.passed(1e-8), (row.id, row.t, row.slack)


def test_projection_report_pinning_conditions(spin_backend):
    # a window long and quiet enough for the pinning conditions to hold
    rep = spectral_projection_report(spin_backend, 2, 6.4, 25.6)
    assert rep.c_delta < 0.0997
    assert rep.condition_checks["slow_drift_cond"][2]
    assert rep.condition_checks["fast_residual_cond"][2]
    applicable = {r.id for r in rep.rows if r.applicable}
    for required in ("IP1", "P1", "Pnorm2", "P_better", "IP_better",
                     "C_P_better", "P_lin3"):
        assert required in applicable, required
    for row in rep.rows:
        assert row.passed(1e-8), (row.id, row.t, row.slack)


def test_projection_report_identity_cut_contradiction(spin_backend):
    rep = spectral_projection_report(spin_backend, 4, 20.0, 40.0)
    assert rep.contradiction is not None
    applicable = {r.id for r in rep.rows if r.applicable}
    assert "dist_0_P" not in applicable and "spectral_P" not in applicable
    # the unconditional rows still hold
    for row in rep.rows:
        assert row.passed(1e-8), (row.id, row.t, row.slack)


def test_projection_report_rejects_an_empty_window(spin_backend):
    # a window of zero length has no change measure to extend: a ValueError
    # before any map is read, not a division by zero in the rebound's
    # segment count
    with pytest.raises(ValueError, match="zero-length window"):
        spectral_projection_report(spin_backend, 1, 20.0, 20.0)
    with pytest.raises(ValueError, match="window end before start"):
        spectral_projection_report(spin_backend, 1, 20.0, 10.0)


def test_gap_cut_prefers_largest_gap(spin_backend):
    assert gap_cut(spin_backend) == 2


def test_bound_battery_spin(spin_backend):
    rep = bound_battery(spin_backend, seed=0)
    assert rep.all_pass, rep.failed_ids()
    assert rep.context["window2_verdict"] == "Metastable"
    assert rep.context["m4"] == 2
    ids = set(rep.applicable_ids())
    for required in ("change2_all", "change2_ss", "0_lin", "0_exp", "0_exp2",
                     "ss_exp", "all_lin", "IPss", "dprime_exp", "prime_lin",
                     "tau_prime_ratio", "meta_corr", "change_spectral",
                     "spectral_tau", "C_P3", "C_P_P", "C_P_IP", "Pnorm2",
                     "P_better", "IP_better", "C_P_better", "0_exp_P",
                     "P_lin3", "ss_exp_P", "spectral_P", "dist_0_P",
                     "dist_ss_P", "inherited_exclusion"):
        assert required in ids, required


def test_bound_battery_corrupted_stationary_control(spin_backend):
    clean = bound_battery(spin_backend, seed=0)
    grid = np.array([row.t for row in clean.rows if row.id == "change2_all"])
    # a stationary projection aimed at a tilted state
    bad_state = np.eye(2) / 2 + 0.3 * np.array([[1.0, 0], [0, -1.0]])
    from metastab.superop import vec

    bad = np.outer(vec(bad_state), vec(np.eye(2)).conj())
    rep = bound_battery(spin_backend.with_stationary(bad), grid=grid, seed=0,
                        window=clean.context["window2"],
                        window4=clean.context["window4"])
    failed = set(rep.failed_ids())
    assert "change2_ss" in failed
    stationary_dependent = {"change2_ss", "ss_exp", "change_spectral_ss",
                            "spectral_tau", "tau_order", "tau_prime_ratio",
                            "dist_ss_P", "IPss", "dprime_exp", "prime_lin",
                            "meta_corr", "spectral_tau2", "cdelta_bounded"}
    assert failed <= stationary_dependent, failed - stationary_dependent
    # rows not involving the stationary projection are untouched
    assert "change2_all" not in failed
    assert "0_exp" not in failed
    # and the clean run passes the very same rows
    assert clean.all_pass


def test_bound_battery_override_restores_backend_on_error(spin_model):
    dyn = QuantumBackend(model=spin_model, seed=0)
    with pytest.raises(ValueError):
        # a 9 x 9 projection cannot be combined with 4 x 4 qubit maps
        bound_battery(dyn.with_stationary(np.eye(9)))
    assert "stationary_matrix" not in vars(dyn)
    assert dyn.distance_to_stationary(200.0) == pytest.approx(math.exp(-1.0),
                                                              abs=1e-12)


def record_search_requests(monkeypatch):
    """Patch lockstep so that it records, per search, the result and every
    (norm-cache key, time) the search requests; the time is the key's last
    entry when that is a time, as in ("pair", t_start, t), else None, as
    for ("gen",)."""
    searches = []
    lockstep = regimes.lockstep

    def recorded(search, entry):
        while True:
            try:
                keys = list(next(search))
            except StopIteration as stop:
                entry["result"] = stop.value
                return stop.value
            for key in keys:
                t = key[-1] if isinstance(key[-1], float) else None
                if key[0] == "pair":
                    if key[1] == key[2]:
                        continue
                    key = ("pair", min(key[1:]), max(key[1:]))
                entry["requests"].add((key, t))
            yield keys

    def recording(dyn, searches_):
        wrapped = []
        for search in searches_:
            entry = {"requests": set()}
            searches.append(entry)
            wrapped.append(recorded(search, entry))
        return lockstep(dyn, wrapped)

    monkeypatch.setattr(regimes, "lockstep", recording)
    monkeypatch.setattr(spectral_meta, "lockstep", recording)
    return searches


def assert_only_look_ahead_added(searches, keys, plain_keys):
    """keys, a batching backend's cache, holds plain_keys, those of a backend
    that evaluates one map at a time, and besides them exactly the keys that
    the searches requested and never read: at most SCAN_AHEAD - 1 per
    search, each at a time past the search's result. A requested key
    without a time is always read; ("gen",), the generator norm, is kept
    out of both caches."""
    assert plain_keys <= keys
    unread = set()
    for entry in searches:
        result = entry["result"]
        tau = result[0] if isinstance(result, tuple) else result
        ahead = {(key, t) for key, t in entry["requests"]
                 if key not in plain_keys and key != ("gen",)}
        assert len(ahead) <= SCAN_AHEAD - 1
        assert all(tau is not None and t is not None and t > tau
                   for _, t in ahead)
        unread |= {key for key, _ in ahead}
    assert keys - plain_keys == unread


def check_batched_battery_caches(monkeypatch, model):
    """Run the battery with prefetches on a fresh backend of model: every
    cached norm must equal, bit for bit, what a fresh backend computes for
    that key alone. Returns the number of keyed maps, the maps each
    prefetch added and the searches."""
    batches = []
    prefetch = QuantumBackend.prefetch

    def counted(self, keys):
        n_cached = len(self._norm_cache)
        prefetch(self, keys)
        batches.append(len(self._norm_cache) - n_cached)

    monkeypatch.setattr(QuantumBackend, "prefetch", counted)
    searches = record_search_requests(monkeypatch)
    dyn = QuantumBackend(model=model, seed=0)
    report = bound_battery(dyn, seed=0, scan_points=8, n_grid=17)
    fresh = QuantumBackend(model=model, seed=0)
    keys = list(dyn._norm_cache)
    for key in keys:
        assert fresh._norm_of(key) == dyn._norm_cache[key], key

    # the prefetches add no map of their own but the look-ahead of the
    # crossing searches: without them, the battery evaluates the same keys
    # one by one, less the look-ahead maps past each crossing, and reports
    # the same rows
    class OneByOne(QuantumBackend):
        def prefetch(self, keys):
            pass

    dyn_searches = list(searches)
    plain = OneByOne(model=model, seed=0)
    plain_report = bound_battery(plain, seed=0, scan_points=8, n_grid=17)
    assert_only_look_ahead_added(dyn_searches, set(dyn._norm_cache),
                                 set(plain._norm_cache))
    assert list(plain_report.csv_rows()) == list(report.csv_rows())
    return len(keys), batches, dyn_searches


@pytest.mark.slow
def test_batched_battery_caches_single_map_values(monkeypatch):
    # at D = 3 the battery's sweeps are prefetched in batches of ascents;
    # every analysis runs as searches in prefetched rounds, so every keyed
    # map of the battery comes through a prefetch
    n_keys, batches, searches = check_batched_battery_caches(
        monkeypatch, random_lindbladian(3, 2, seed=0))
    assert max(batches) > 32
    assert n_keys == sum(batches) > 100
    # the generator check, tau_0, tau_ss and two exclusion spans; no window
    # passes either scan's screen; then the two phases: the battery's own
    # maps, the ratio-2 window's opening, the ratio-4 change and four
    # exclusion windows, then the rest of the ratio-2 verdict, the
    # projection report (with the ratio-4 extension) and the probe rows
    assert len(searches) == 5 + 7 + 3
    assert searches[0]["requests"] == {(("gen",), None)}
    assert (("ident-stat",), None) in searches[1]["requests"]
    assert (("stat", 0.0), 0.0) in searches[2]["requests"]


def test_batched_spin_battery_caches_single_map_values(monkeypatch,
                                                       spin_model):
    # at D = 2 they are prefetched in batches of the exact closed form, the
    # maximiser steps of the window suprema too; only the scans' probe maps,
    # exact here, are cached by exceeds
    n_keys, batches, searches = check_batched_battery_caches(monkeypatch,
                                                             spin_model)
    assert max(batches) > 32
    assert n_keys > sum(batches) > 500
    # the generator check, tau_0, tau_ss, two exclusion spans, the verdicts
    # of the 3 and 2 windows that pass the two scans' screens, the two
    # phases, and the relaxation times tau_dprime, tau_prime of the
    # metastable window
    assert len(searches) == 5 + 3 + 2 + 7 + 3 + 2


@pytest.mark.slow
def test_battery_prefetches_add_no_map_on_a_metastable_window(monkeypatch):
    # with a metastable window the second prefetch also takes the verdict
    # curves, the probe and linear-growth distances and the projection maps
    # of a separated cut, and relaxation_times runs its two searches in
    # lockstep; the battery still evaluates the keys of one that evaluates
    # them one by one, and besides them only the look-ahead maps past each
    # crossing, and reports the same rows
    class OneByOne(QuantumBackend):
        def prefetch(self, keys):
            pass

    model = three_level_double_well(0.01)
    searches = record_search_requests(monkeypatch)
    dyn = QuantumBackend(model=model, seed=0)
    report = bound_battery(dyn, seed=0, scan_points=8, n_grid=17)
    assert report.context["window2_verdict"] == "Metastable"
    assert report.context["separated"]
    assert {"dprime_exp", "prime_lin", "meta_corr",
            "tau_prime_ratio"} <= set(report.applicable_ids())
    dyn_searches = list(searches)
    # as on the spin model, with 3 and 1 windows past the scans' screens
    assert len(dyn_searches) == 5 + 3 + 1 + 7 + 3 + 2
    plain = OneByOne(model=model, seed=0)
    plain_report = bound_battery(plain, seed=0, scan_points=8, n_grid=17)
    assert_only_look_ahead_added(dyn_searches, set(dyn._norm_cache),
                                 set(plain._norm_cache))
    assert list(plain_report.csv_rows()) == list(report.csv_rows())


def test_battery_csv_rows(spin_backend):
    rep = bound_battery(spin_backend, seed=0)
    rows = list(rep.csv_rows())
    assert rows[0] == ("id", "t", "lhs", "rhs", "slack", "pass")
    assert all(len(r) == 6 for r in rows)
    assert all(r[5] == "1" for r in rows[1:])


def test_bound_battery_override_leaves_caller_caches_alone(spin_model):
    dyn = QuantumBackend(model=spin_model, seed=0)
    clean = bound_battery(dyn, seed=0)
    snapshot = cache_snapshot(dyn)
    bad_state = np.eye(2) / 2 + 0.3 * np.array([[1.0, 0], [0, -1.0]])
    from metastab.superop import vec

    bad = np.outer(vec(bad_state), vec(np.eye(2)).conj())
    grid = [row.t for row in clean.rows if row.id == "change2_all"]
    rep = bound_battery(dyn.with_stationary(bad), grid=grid, seed=0,
                        window=clean.context["window2"],
                        window4=clean.context["window4"])
    assert "change2_ss" in rep.failed_ids()
    assert_caches_untouched(dyn, snapshot)
    assert dyn.distance_to_stationary(200.0) == pytest.approx(math.exp(-1.0),
                                                              abs=1e-12)
