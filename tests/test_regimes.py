import dataclasses
import itertools
import math

import numpy as np
import pytest
import scipy.optimize

import metastab.norms as norms
import metastab.regimes as regimes
import metastab.spectral_meta as spectral_meta
from metastab.classical import ClassicalBackend, ClassicalGenerator
from metastab.models import random_lindbladian, spin_half_dephasing
from metastab.modes import (SCAN_AHEAD, brent_max, change_thresholds,
                            _run_search)
from metastab.norms import _alternating_ascent
from metastab.regimes import (CUTOFF_RELAXATION, QuantumBackend, TimeGrid,
                              TrivialDynamicsError, change_measure,
                              classify_regime, crossing_scan_step,
                              distinguishability_bounds, identity_sure_time,
                              observable_average_change, relaxation_times,
                              scan_metastable, state_change_measure,
                              timescales, _refined_sup, _window_grid)
from metastab.spectral_meta import bound_battery
from metastab.superop import QuantumModel

from conftest import three_level_double_well




def two_state_backend(a=0.5):
    Q = np.array([[-a, a], [a, -a]])
    return ClassicalBackend(ClassicalGenerator(Q))


def test_time_grid_validation():
    with pytest.raises(ValueError):
        TimeGrid(0.0, 1.0, 10, "log")
    with pytest.raises(ValueError):
        TimeGrid(1.0, 0.5, 10)
    grid = TimeGrid(1e-2, 1e2, 5).times()
    assert np.all(np.diff(grid) > 0)
    assert grid[0] == pytest.approx(1e-2) and grid[-1] == pytest.approx(1e2)


def test_change_measure_empty_window(spin_backend):
    c, t = change_measure(spin_backend, 3.0, 3.0)
    assert c == 0.0 and t == 3.0
    with pytest.raises(ValueError):
        change_measure(spin_backend, 2.0, 1.0)


def test_change_measure_spin_window(spin_backend):
    c, argmax_t = change_measure(spin_backend, 20.0, 40.0)
    expected = math.exp(-0.1) - math.exp(-0.2)
    assert c == pytest.approx(expected, abs=2e-6)
    assert argmax_t == pytest.approx(40.0, rel=1e-3)


def test_change_measure_never_exceeds_two(spin_backend):
    c, _ = change_measure(spin_backend, 0.001, 5000.0)
    assert c <= 2.0 + 1e-9


def test_backend_distance_symmetry_and_contractivity(spin_backend):
    dyn = spin_backend
    assert dyn.distance(3.0, 3.0) == 0.0
    assert dyn.distance(2.0, 5.0) == pytest.approx(dyn.distance(5.0, 2.0),
                                                   abs=1e-12)
    for (t1, t2, s) in ((1.0, 4.0, 2.0), (0.5, 9.0, 5.0)):
        assert dyn.distance(t1 + s, t2 + s) <= dyn.distance(t1, t2) + 1e-8


def test_timescales_spin(spin_backend):
    rep = timescales(spin_backend)
    assert rep.tau_ss == pytest.approx(200.0, rel=1e-5)
    assert rep.tau_0 <= 1.0 / 0.5025 + 1e-6
    assert rep.tau_0_residual <= 1e-6
    assert rep.tau_ss_residual <= 1e-6
    assert rep.tau_0 <= rep.tau_ss


def test_timescales_toy_real_mode():
    # two-state symmetric chain at rate 1/2 relaxes like a single mode e^{-t}
    dyn = two_state_backend(0.5)
    rep = timescales(dyn)
    assert rep.tau_0 == pytest.approx(1.0, abs=1e-6)
    assert rep.tau_ss == pytest.approx(1.0, abs=1e-6)


def test_timescales_requires_nontrivial():
    Q = np.zeros((2, 2))
    with pytest.raises(TrivialDynamicsError):
        timescales(ClassicalBackend(ClassicalGenerator(Q)))


def test_classify_metastable_window(spin_backend):
    v = classify_regime(spin_backend, 20.0, 40.0)
    assert v.verdict == "Metastable"
    assert v.c_delta == pytest.approx(0.0861, abs=2e-3)
    assert v.d_initial_at_start == pytest.approx(1.0, abs=5e-2)
    assert v.d_initial_at_start >= v.threshold_upper - 1e-4
    assert v.d_stationary_at_end == pytest.approx(math.exp(-0.2), abs=1e-6)
    assert v.d_stationary_at_end >= v.threshold_upper - v.c_delta - 1e-4
    assert v.validity_flags["basic_cutoff"]


def test_classify_initial_window(spin_backend):
    v = classify_regime(spin_backend, 0.001, 0.002)
    assert v.verdict == "Initial"


def test_classify_final_window(spin_backend):
    v = classify_regime(spin_backend, 1000.0, 2000.0)
    assert v.verdict == "Final"
    assert spin_backend.distance_to_stationary(1000.0) == pytest.approx(
        math.exp(-5.0), abs=1e-7)


def test_classify_rejects_short_window(spin_backend):
    with pytest.raises(ValueError):
        classify_regime(spin_backend, 10.0, 15.0)


def test_scan_metastable_spin(spin_backend):
    hits = scan_metastable(spin_backend, c_delta_max=0.1, ratio=2.0)
    assert hits
    rep = timescales(spin_backend)
    for v in hits:
        assert v.verdict == "Metastable"
        assert v.c_delta <= 0.1
        assert v.t_start > rep.tau_0
        assert v.t_end < rep.tau_ss
        assert v.t_end >= 2 * v.t_start - 1e-9


def test_scan_empty_when_no_separation():
    dyn = QuantumBackend(model=spin_half_dephasing(1.0, 1.0, 10.0), seed=0)
    assert scan_metastable(dyn, c_delta_max=0.1, ratio=2.0) == []


def pair_keys(dyn):
    return {k for k in dyn._norm_cache if k[0] == "pair"}


def test_scan_lazy_probe_matches_exhaustive_probe(spin_model):
    # the probe stops at the first over-budget distance; evaluating every
    # probe-grid distance beforehand must not change a single verdict
    lazy = QuantumBackend(model=spin_model, seed=0)
    eager = QuantumBackend(model=spin_model, seed=0)
    rep = timescales(eager)
    for t in np.geomspace(rep.tau_0 * 1.05, rep.tau_ss / 2.0, 24):
        for s in _window_grid(t, 2.0 * t, 16):
            eager.distance(t, s)
    probed = pair_keys(eager)
    hits = scan_metastable(lazy, c_delta_max=0.1, ratio=2.0)
    assert hits
    assert repr(hits) == repr(scan_metastable(eager, c_delta_max=0.1,
                                              ratio=2.0))
    # the lazy scan skipped some probe distances that the eager one holds
    assert probed - pair_keys(lazy)


def test_scan_probe_stops_at_first_excess(monkeypatch):
    # on this D = 4 model every window fails its probe at the far end, so
    # the scan evaluates exactly one pair distance per window, all in one
    # ascent call. Each is certified over budget, and so never cached
    dyn = QuantumBackend(model=random_lindbladian(4, 2, seed=0), seed=0)
    timescales(dyn)
    assert not pair_keys(dyn)
    calls = []
    ascents = norms._alternating_ascents

    def counted(Ms, *args, **kwargs):
        calls.append(len(Ms))
        return ascents(Ms, *args, **kwargs)

    monkeypatch.setattr(norms, "_alternating_ascents", counted)
    assert scan_metastable(dyn, c_delta_max=0.1, n_scan=24) == []
    assert calls == [24]
    assert not pair_keys(dyn)


class OneByOne(QuantumBackend):
    """A quantum backend that evaluates every map on its own."""

    def prefetch(self, keys):
        pass


class FullProbe(QuantumBackend):
    """A quantum backend whose exceeds evaluates every distance in full."""

    def exceeds(self, pairs, threshold):
        return [self.distance(t1, t2) > threshold for t1, t2 in pairs]


def symmetric_chain():
    return ClassicalBackend(ClassicalGenerator(np.array(
        [[-1.0, 1.0, 0.0], [1.0, -1.01, 0.01], [0.0, 0.01, -0.01]])))


EXCEEDS_MODELS = {
    "spin": lambda: QuantumBackend(model=spin_half_dephasing(1.0, 0.005,
                                                             5.025), seed=0),
    "random-d3": lambda: QuantumBackend(model=random_lindbladian(3, 2, seed=0),
                                        seed=0),
    "random-d4": lambda: QuantumBackend(model=random_lindbladian(4, 2, seed=0),
                                        seed=0),
    "three-level": lambda: QuantumBackend(model=three_level_double_well(0.01),
                                          seed=0),
    "classical": symmetric_chain,
}


@pytest.mark.parametrize("model", EXCEEDS_MODELS)
def test_exceeds_answers_the_distance_comparison(model):
    # every pair of times, in either order and equal, against the full
    # distances of another backend, from thresholds 0 (every pair of
    # distinct times) to 2 (none)
    make = EXCEEDS_MODELS[model]
    pairs = list(itertools.product((0.0, 0.5, 2.0, 8.0, 30.0), repeat=2))
    ref = make()
    distances = [ref.distance(t1, t2) for t1, t2 in pairs]
    for threshold in (0.0, 0.1, 0.5, 1.0, 2.0):
        assert make().exceeds(pairs, threshold) == [
            d > threshold for d in distances]
    assert make().exceeds(pairs, 0.0) == [t1 != t2 for t1, t2 in pairs]
    assert not any(make().exceeds(pairs, 2.0))


@pytest.mark.parametrize("dim", [3, 4])
def test_exceeds_caches_full_values_and_no_certificate(dim, monkeypatch):
    # a pair over the threshold is certified: neither cached nor flagged
    # unconverged, and a later distance() evaluates it in full. A pair at or
    # below it is cached with its single-map ascent value. Cached pairs are
    # read, never evaluated again
    dyn = QuantumBackend(model=random_lindbladian(dim, 2, seed=0), seed=0)
    ref = QuantumBackend(model=random_lindbladian(dim, 2, seed=0), seed=0)
    pairs = [(t, 1.5 * t) for t in (0.2, 1.0, 4.0, 16.0, 64.0)]
    pairs += [(2.0, 2.0), (96.0, 64.0)]
    over = dyn.exceeds(pairs, 0.1)
    assert True in over and False in over[:5]
    for (t1, t2), out in zip(pairs, over):
        key = ("pair", min(t1, t2), max(t1, t2))
        if out:
            assert key not in dyn._norm_cache
        elif t1 != t2:
            value = _alternating_ascent(dyn._norm_map(key), dim).value
            assert dyn._norm_cache[key] == value == ref.distance(t1, t2)
    assert not dyn.unconverged_keys
    cached = dict(dyn._norm_cache)

    def evaluated(*args, **kwargs):
        raise AssertionError("a cached pair was evaluated")

    with monkeypatch.context() as patch:
        patch.setattr(norms, "_induced_norms", evaluated)
        assert dyn.exceeds([p for p, out in zip(pairs, over) if not out],
                           0.1) == [False] * over.count(False)
    for (t1, t2), out in zip(pairs, over):
        if out:
            assert dyn.distance(t1, t2) == ref.distance(t1, t2) > 0.1
    assert dyn.exceeds(pairs, 0.1) == over
    assert dyn._norm_cache.keys() - cached.keys() == {
        ("pair", min(p), max(p)) for p, out in zip(pairs, over) if out}


@pytest.mark.parametrize("model, kw", [
    ("spin", {}),
    ("random-d3", dict(grid=[0.74, 2.3, 22.4, 39.5, 69.7, 123.0],
                       c_delta_max=0.175, n_grid=15)),
    ("three-level", {})])
def test_scan_verdicts_do_not_depend_on_certified_probes(model, kw):
    # the same windows as a scan whose probe evaluates every distance in
    # full, which caches the same maps and, at D >= 3, the over-budget
    # probe maps besides (at D = 2 they are exact, and cached by both)
    dyn = EXCEEDS_MODELS[model]()
    full = FullProbe(model=dyn.model, seed=0)
    hits = scan_metastable(dyn, **kw)
    assert repr(hits) == repr(scan_metastable(full, **kw))
    assert all(full._norm_cache[key] == value
               for key, value in dyn._norm_cache.items())
    certified = full._norm_cache.keys() - dyn._norm_cache.keys()
    assert bool(certified) == (dyn.dim > 2)
    budget = kw.get("c_delta_max", 0.1)
    assert all(key[0] == "pair" and full._norm_cache[key] > budget
               for key in certified)
    assert hits or model == "random-d3"


@pytest.mark.parametrize("dim, n_ahead", [(3, 0), (4, 3)])
def test_timescales_in_lockstep_match_one_by_one(dim, n_ahead):
    # the same report and the same cached norms as a backend whose prefetch
    # does nothing, but for the scan's look-ahead maps past the crossing
    model = random_lindbladian(dim, 2, seed=0)
    dyn = QuantumBackend(model=model, seed=0)
    plain = OneByOne(model=model, seed=0)
    report = timescales(dyn)
    assert timescales(plain) == report
    ahead = dyn._norm_cache.keys() - plain._norm_cache.keys()
    assert len(ahead) == n_ahead
    assert all(key[0] == "ident" and key[1] > report.tau_0 for key in ahead)
    assert dyn.liouvillian_norm() == plain.liouvillian_norm()
    assert plain._norm_cache.keys() <= dyn._norm_cache.keys()
    assert all(dyn._norm_cache[key] == value
               for key, value in plain._norm_cache.items())


def test_timescales_absent_paths_in_lockstep():
    # messages as before the searches ran in lockstep (same model, seed);
    # the start of tau_ss is the norm of E(0) - I, round-off that moves with
    # the ascent's arithmetic, so only its size is pinned
    dyn = QuantumBackend(model=random_lindbladian(3, 2, seed=0), seed=0)
    I = dyn.identity_matrix()
    view = dyn.with_stationary(I)
    report = timescales(view)
    assert (report.tau_0, report.tau_ss) == (None, None)
    # both searches saturate after the first round, which held the maps
    # that decide so, the tau_0 scan's first request (t = 0 and the 7
    # steps up to identity_sure_time, then SCAN_AHEAD more) and the first
    # tau_ss probe. The scan points and the probe are evaluated and never
    # read: a backend that evaluates maps one by one computes only the two
    # deciding maps, and the same report
    step = crossing_scan_step(dyn)
    assert 7 * step <= identity_sure_time(dyn, 1.0 - 1.0 / math.e) < 8 * step
    scan = {("ident", k * step) for k in range(8 + SCAN_AHEAD)}
    probe = ("stat", 1.0 / dyn.slowest_decay_rate())
    deciding = {("ident-stat",), ("stat", 0.0)}
    assert view._norm_cache.keys() == deciding | scan | {probe}
    plain_view = OneByOne(model=random_lindbladian(3, 2, seed=0),
                          seed=0).with_stationary(I)
    assert timescales(plain_view) == report
    assert plain_view._norm_cache.keys() == deciding
    assert list(report.absent) == ["tau_0", "tau_ss"]
    assert report.absent["tau_0"] == \
        "distance to identity saturates at 0 < 1 - 1/e"
    prefix, suffix = "distance to stationary starts at ", " <= 1/e"
    message = report.absent["tau_ss"]
    assert message.startswith(prefix) and message.endswith(suffix)
    assert float(message[len(prefix):-len(suffix)]) <= 1e-14
    # the distance to the zero map never falls to 1/e: tau_0 is found and
    # the tau_ss search, left alone after it, runs out of doublings. At its
    # last time E(t) is the stationary projection, whose norm is 1
    report = timescales(dyn.with_stationary(np.zeros_like(I)))
    assert report.tau_0 == timescales(dyn).tau_0
    assert report.tau_ss is None and report.tau_ss_residual is None
    assert report.absent == {
        "tau_ss": "distance to stationary still 1 > 1/e at t = 6.88e+12"}


def test_matrix_norms_batch_the_single_norms(monkeypatch):
    # unkeyed maps (the battery's correlator products) in one ascent call,
    # each value that of norm_results on it alone
    dyn = QuantumBackend(model=random_lindbladian(3, 2, seed=0), seed=0)
    C = dyn.correlator_matrix(dyn.random_observable(np.random.default_rng(1)))
    E = dyn.evolution_matrix
    Ms = [C @ E(1.0) - C @ E(3.0), E(0.5) @ C - E(2.0), C @ (E(4.0) - E(9.0))]
    singles = [dyn.norm_results([M])[0].value for M in Ms]
    calls = []
    ascents = norms._alternating_ascents
    monkeypatch.setattr(norms, "_alternating_ascents",
                        lambda Ms, *a, **k: calls.append(len(Ms))
                        or ascents(Ms, *a, **k))
    assert dyn.matrix_norms(Ms) == singles
    assert calls == [3]


def test_identity_sure_time_certifies_the_scan_prefix():
    # every scan point before identity_sure_time has a computed distance to
    # the identity below the target, at the timescale and exclusion targets
    models = [random_lindbladian(d, 2, seed=s) for d in (3, 4, 6)
              for s in range(4)] + [three_level_double_well(0.01)]
    for model in models:
        dyn = QuantumBackend(model=model, seed=0)
        step = crossing_scan_step(dyn)
        ts = [k * step for k in range(int(identity_sure_time(
            dyn, 1.0 - 1.0 / math.e) / step) + 1)]
        assert len(ts) >= 4
        dyn.prefetch(("ident", t) for t in ts)
        for target in (1.0 - 1.0 / math.e, 0.15, 0.05):
            prefix = [t for t in ts if t <= identity_sure_time(dyn, target)]
            assert all(dyn.distance_to_identity(t) < target for t in prefix)


def test_pair_distances_do_not_depend_on_evaluation_order():
    # ascent values (D = 3) depend on the map alone: fixed restart seeds and
    # no state carried between calls, so skipped distances cannot move
    # results
    model = random_lindbladian(3, 2, seed=0)
    first = QuantumBackend(model=model, seed=0)
    second = QuantumBackend(model=model, seed=0)
    ts = np.geomspace(0.1, 20.0, 6)
    keys = [("pair", t1, t2) for t1 in ts for t2 in ts if t1 < t2]
    keys += [(family, t) for family in ("ident", "stat") for t in ts]
    forward = {key: first._norm_of(key) for key in keys}
    backward = {key: second._norm_of(key) for key in reversed(keys)}
    assert forward == backward


def test_unconverged_keys_are_flagged_on_both_paths(monkeypatch):
    # with the ascent capped below what some maps need, a prefetch batch and
    # the single getters flag the same keys as unconverged, with the same
    # values
    ascents = norms._alternating_ascents

    def capped(Ms, dim, **kwargs):
        return ascents(Ms, dim, **{**kwargs, "max_iter": 28})

    monkeypatch.setattr(norms, "_alternating_ascents", capped)
    model = random_lindbladian(3, 2, seed=0)
    batched = QuantumBackend(model=model, seed=0)
    single = QuantumBackend(model=model, seed=0)
    ts = np.geomspace(0.1, 20.0, 6)
    keys = [("pair", t, 2.0 * t) for t in ts]
    keys += [(family, t) for family in ("ident", "stat") for t in ts]
    batched.prefetch(keys)
    values = {key: single._norm_of(key) for key in keys}
    assert batched._norm_cache == values
    assert single.unconverged_keys == batched.unconverged_keys
    assert set() < batched.unconverged_keys < set(keys)


def test_generator_norm_stays_out_of_the_norm_cache(monkeypatch):
    # the norm cache holds floats only; the generator's InducedNormResult is
    # kept apart, and a stationary view shares it, because the generator
    # norm does not depend on P, with its unconverged flag
    model = random_lindbladian(3, 2, seed=0)
    ascents = norms._alternating_ascents

    def capped(Ms, dim, **kwargs):
        return ascents(Ms, dim, **{**kwargs, "max_iter": 1})

    monkeypatch.setattr(norms, "_alternating_ascents", capped)
    dyn = QuantumBackend(model=model, seed=0)
    result = dyn.generator_norm_result()
    assert not result.converged
    dyn.distance_to_identity(1.0)
    assert dyn.unconverged_keys == {("gen",), ("ident", 1.0)}
    assert list(dyn._norm_cache) == [("ident", 1.0)]
    assert all(isinstance(v, float) for v in dyn._norm_cache.values())
    view = dyn.with_stationary(dyn.identity_matrix())
    assert view.generator_norm_result() is result
    assert view.unconverged_keys == {("gen",)}
    assert view._norm_cache == {}
    assert dyn.generator_norm_result() is result


def assert_same_result(a, b):
    """Every field of two InducedNormResults equal, bit for bit."""
    assert (a.value, a.iterations, a.restarts_used, a.converged, a.exact) \
        == (b.value, b.iterations, b.restarts_used, b.converged, b.exact)
    for field_ in ("restart_values", "witness_state", "witness_observable"):
        x, y = getattr(a, field_), getattr(b, field_)
        assert x.dtype == y.dtype and x.tobytes() == y.tobytes(), field_


@pytest.mark.parametrize("dim", [3, 4])
@pytest.mark.parametrize("max_iter", [1, None])
def test_batched_generator_norm_is_the_single_result(dim, max_iter,
                                                     monkeypatch):
    # a prefetch of ("gen",) stores the InducedNormResult that
    # generator_norm_result computes on its own, and flags ("gen",) as
    # unconverged in the same cases: with the ascent capped at one
    # iteration, and not with the default cap
    model = random_lindbladian(dim, 2, seed=0)
    ascents = norms._alternating_ascents
    stacks = []

    def counted(Ms, d, **kwargs):
        stacks.append(len(Ms))
        if max_iter is not None:
            kwargs["max_iter"] = max_iter
        return ascents(Ms, d, **kwargs)

    monkeypatch.setattr(norms, "_alternating_ascents", counted)
    batched = QuantumBackend(model=model, seed=0)
    single = QuantumBackend(model=model, seed=0)
    batched.prefetch([("ident", 1.0), ("gen",), ("stat", 2.0)])
    assert batched._norm_cache.keys() == {("ident", 1.0), ("stat", 2.0)}
    assert stacks == [3]
    result = batched.generator_norm_result()
    batched.prefetch([("gen",)])
    assert stacks == [3]
    reference = single.generator_norm_result()
    assert stacks == [3, 1]
    assert_same_result(result, reference)
    assert single.unconverged_keys == ({("gen",)} if max_iter else set())
    assert batched.unconverged_keys - {("ident", 1.0), ("stat", 2.0)} \
        == single.unconverged_keys


@pytest.mark.parametrize("dim", [3, 4])
def test_timescales_take_the_generator_norm_in_their_first_round(
        dim, monkeypatch):
    # the generator is one map of the first lockstep round, and its result
    # is the one a single call computes
    model = random_lindbladian(dim, 2, seed=0)
    dyn = QuantumBackend(model=model, seed=0)
    G = dyn.generator_matrix()
    batches = []
    induced = norms._induced_norms

    def recorded(Ms, *args, **kwargs):
        batches.append([np.array_equal(M, G) for M in Ms])
        return induced(Ms, *args, **kwargs)

    monkeypatch.setattr(norms, "_induced_norms", recorded)
    report = timescales(dyn)
    assert batches[0][0] and len(batches[0]) > 3
    assert sum(map(sum, batches)) == 1
    monkeypatch.setattr(norms, "_induced_norms", induced)
    assert_same_result(dyn.generator_norm_result(),
                       dyn.norm_results([dyn.generator_matrix()])[0])
    assert timescales(OneByOne(model=model, seed=0)) == report


def trivial_backend(kind):
    zero = np.zeros((2, 2), dtype=complex)
    sz = np.diag([0.5, -0.5]).astype(complex)
    if kind == "classical":
        return ClassicalBackend(ClassicalGenerator(np.zeros((3, 3))))
    if kind == "quantum":
        return QuantumBackend(model=QuantumModel(hamiltonian=zero, jumps=()))
    if kind == "tiny-dephasing":
        # a decaying mode, but a generator norm below 1e-14: the norm is
        # checked after the first round
        return QuantumBackend(model=QuantumModel(hamiltonian=zero,
                                                 jumps=(1e-8 * sz,)))
    # no decaying mode, and with P = I both timescales saturate, so no
    # search may divide by the decay rate of 0
    dyn = QuantumBackend(model=QuantumModel(hamiltonian=sz, jumps=()))
    return dyn.with_stationary(dyn.identity_matrix())


NONTRIVIAL = ("timescales require nontrivial dynamics",) * 2 \
    + ("bound battery requires nontrivial dynamics",)


@pytest.mark.parametrize("kind, messages", [
    ("classical", NONTRIVIAL), ("quantum", NONTRIVIAL),
    ("tiny-dephasing", NONTRIVIAL),
    ("undamped-identity", (None, "cannot bracket scan grid without timescales",
                           "cannot build a default grid without both "
                           "timescales"))])
def test_trivial_dynamics_messages(kind, messages):
    # the messages of timescales, scan_metastable and bound_battery, as
    # before the first lockstep round took the generator norm
    for analysis, message in zip((timescales, scan_metastable, bound_battery),
                                 messages):
        dyn = trivial_backend(kind)
        if message is None:
            report = analysis(dyn)
            assert (report.tau_0, report.tau_ss) == (None, None)
            assert list(report.absent) == ["tau_0", "tau_ss"]
            continue
        with pytest.raises(TrivialDynamicsError) as err:
            analysis(dyn)
        assert str(err.value) == message


def test_undamped_mode_raises_trivial_dynamics():
    # H = S_z and no jumps: the coherences form a mode with Re lambda = 0,
    # so no search that needs a decay time can start. With P = I both
    # timescales saturate first; the battery, given a grid, then reaches
    # its exclusion crossings, which raise the same error
    message = "an undamped mode (Re lambda = 0) has no decay time"
    sz = np.diag([0.5, -0.5]).astype(complex)
    dyn = QuantumBackend(model=QuantumModel(hamiltonian=sz, jumps=()))
    for analysis in (timescales, scan_metastable, bound_battery):
        with pytest.raises(TrivialDynamicsError) as err:
            analysis(dyn)
        assert str(err.value) == message
    with pytest.raises(TrivialDynamicsError) as err:
        bound_battery(trivial_backend("undamped-identity"),
                      grid=[1.0, 2.0, 4.0, 8.0])
    assert str(err.value) == message


def test_distance_to_stationary_matches_multi_restart_reference():
    # near tau_ss of this model a warm-started ascent stopped 2.2 % below the
    # optimum (0.36476), and the root search for tau_ss stopped early with it
    model = random_lindbladian(3, 2, seed=1)
    dyn = QuantumBackend(model=model, seed=0)

    def reference(t):
        M = dyn.evolution_matrix(t) - dyn.stationary_matrix()
        return _alternating_ascent(M, 3, restarts=64, max_iter=5000,
                                   keep_after_burn_in=64).value

    t = 11.434924690790359
    assert reference(t) == pytest.approx(0.37301463603812735, abs=1e-12)
    assert abs(dyn.distance_to_stationary(t) - reference(t)) <= 1e-9
    tau_ss = timescales(QuantumBackend(model=model, seed=0)).tau_ss
    assert type(tau_ss) is float
    assert abs(reference(tau_ss) - 1.0 / math.e) <= 1e-9


def test_battery_maps_unconverged_at_the_old_cap_converge(monkeypatch):
    # the benchmark's D = 3 battery (model seed 0, seed 0): capped at 200
    # iterations, the cap before the current one, the plain ascent (every
    # Newton step refused as indefinite) stops six of its maps unconverged,
    # up to 1.3e-9 below the reference, when the scan's probe maps are
    # evaluated in full; one of the six is a probe map, which the scan
    # certifies over budget, so the battery itself leaves five. With the
    # Newton polish no map stops unconverged at that cap, and at the default
    # cap each of the six converges within 1e-9 of a 64-restart, no-cull,
    # max_iter 5,000 ascent
    model = random_lindbladian(3, 2, seed=0)
    ascents = norms._alternating_ascents

    def capped(Ms, dim, **kwargs):
        return ascents(Ms, dim, **{**kwargs, "max_iter": 200})

    def indefinite(psi, W, O, A, image):
        return psi, np.zeros(psi.shape[1], dtype=bool)

    plain = QuantumBackend(model=model, seed=0)
    full_probe = FullProbe(model=model, seed=0)
    polished = QuantumBackend(model=model, seed=0)
    with monkeypatch.context() as patch:
        patch.setattr(norms, "_alternating_ascents", capped)
        bound_battery(polished, seed=0)
        patch.setattr(norms, "_newton_step3", indefinite)
        bound_battery(plain, seed=0)
        bound_battery(full_probe, seed=0)
    assert len(full_probe.unconverged_keys) == 6
    probe_maps = full_probe.unconverged_keys - plain.unconverged_keys
    assert len(probe_maps) == 1 and next(iter(probe_maps))[0] == "pair"
    assert plain.unconverged_keys < full_probe.unconverged_keys
    assert len(plain.unconverged_keys) == 5
    assert not polished.unconverged_keys
    fresh = QuantumBackend(model=model, seed=0)
    for key in full_probe.unconverged_keys:
        M = fresh._norm_map(key)
        result = _alternating_ascent(M, 3)
        reference = _alternating_ascent(M, 3, restarts=64, max_iter=5000,
                                        keep_after_burn_in=64)
        assert result.converged and reference.converged
        assert abs(result.value - reference.value) <= 1e-9


def test_pair_distance_does_not_depend_on_argument_order():
    # a pair is always evaluated as E(earlier) - E(later); the ascent's value
    # for the negated map differs in the last bits (here ...4316 vs ...4296)
    model = random_lindbladian(3, 2, seed=0)
    forward = QuantumBackend(model=model, seed=0).distance(0.1, 20.0)
    backward = QuantumBackend(model=model, seed=0).distance(20.0, 0.1)
    assert forward == backward


def recording(f, visited):
    def g(t):
        visited.append(t)
        return f(t)
    return g


@pytest.mark.parametrize("g", [lambda t: t, lambda t: -t],
                         ids=["last", "first"])
def test_refined_sup_takes_an_end_maximum_from_the_grid(g):
    ts = np.linspace(1.0, 2.0, 9)
    visited = []
    vals, k, t_ref, v_ref = _run_search(_refined_sup(recording(g, visited),
                                                     lambda t: t, ts))
    assert k in (0, len(ts) - 1) and vals == [g(t) for t in ts]
    assert (t_ref, v_ref) == (ts[k], vals[k])
    assert visited == list(ts)


def test_refined_sup_refines_an_interior_maximum():
    def g(t):
        return -(t - 1.31) ** 2

    ts = np.linspace(1.0, 2.0, 9)
    vals, k, t_ref, v_ref = _run_search(_refined_sup(g, lambda t: t, ts))
    assert k == 2
    assert (t_ref, v_ref) == _run_search(brent_max(g, ts[k - 1],
                                                   ts[k + 1]))
    assert v_ref > vals[k]


def dense_sup(dyn, f, key, a, b):
    """A reference maximum of f on [a, b]: a 4,001-point grid, read in one
    prefetch, then fminbound converged between the grid neighbours of its
    best point."""
    ts = np.linspace(a, b, 4001)
    dyn.prefetch(map(key, ts))
    vals = [f(t) for t in ts]
    j = int(np.argmax(vals))
    lo, hi = ts[max(j - 1, 0)], ts[min(j + 1, len(ts) - 1)]
    t_opt = scipy.optimize.fminbound(lambda t: -f(t), lo, hi,
                                     xtol=1e-15 * hi, disp=0)
    return max(vals[j], f(t_opt))


@pytest.mark.parametrize("model, analysis, n_refined", [
    (spin_half_dephasing(1.0, 0.005, 5.025), scan_metastable, 6),
    (spin_half_dephasing(1.0, 0.005, 5.025),
     lambda dyn: bound_battery(dyn, seed=0), 4),
    (random_lindbladian(3, 2, seed=0), lambda dyn: bound_battery(dyn, seed=0),
     0)], ids=["spin-detect", "spin-battery", "random-battery"])
def test_window_suprema_match_a_dense_reference(monkeypatch, model, analysis,
                                                n_refined):
    # every window supremum of spin detect's scan and of the batteries is at
    # least its grid maximum, and a refined one lies within 1e-10 relative
    # of the supremum on its refinement bracket
    records = []
    refined_sup = regimes._refined_sup

    def recorded(f, key, ts):
        result = yield from refined_sup(f, key, ts)
        records.append((f, key, ts, result))
        return result

    monkeypatch.setattr(regimes, "_refined_sup", recorded)
    monkeypatch.setattr(spectral_meta, "_refined_sup", recorded)
    dyn = QuantumBackend(model=model, seed=0)
    analysis(dyn)
    refined = 0
    for f, key, ts, (vals, k, t_ref, v_ref) in records:
        sup = max(vals[k], v_ref)
        assert sup >= max(vals)
        if k in (0, len(ts) - 1):
            assert (t_ref, v_ref) == (ts[k], vals[k])
            continue
        refined += 1
        ref = dense_sup(dyn, f, key, ts[k - 1], ts[k + 1])
        assert abs(sup - ref) <= 1e-10 * ref, (ts[0], sup, ref)
    assert refined == n_refined and records


@pytest.mark.parametrize("with_doubling", [True, False])
def test_classify_regime_builds_each_window_grid_once(spin_backend,
                                                      monkeypatch,
                                                      with_doubling):
    # the change search, the end distances and the curves share one grid of
    # the window; the doubling change has its own, on [t_start, t_end / 2]
    grids = []
    window_grid = regimes._window_grid

    def counted(*args):
        grids.append(args)
        return window_grid(*args)

    monkeypatch.setattr(regimes, "_window_grid", counted)
    verdict = classify_regime(spin_backend, 20.0, 50.0, n_grid=17,
                              with_doubling=with_doubling)
    assert verdict.verdict == "Metastable"
    assert sorted(grids) == sorted([(20.0, 50.0, 17)]
                                   + [(20.0, 25.0, 17)] * with_doubling)


def window_by_window_scan(dyn, grid, c_delta_max, ratio, n_grid):
    """Reference screen: each window's probe distances far end first,
    stopping at its first excess, then classify_regime, one window at a
    time. Returns the verdicts, per window the probe maps evaluated, and the
    keys of the over-budget probe distances."""
    verdicts, probe_maps, over_keys = [], [], set()
    for t in np.sort(grid):
        probe_ts = _window_grid(t, ratio * t, max(7, n_grid // 2))[::-1]
        seen = []

        def over(s):
            seen.append(s)
            return dyn.distance(t, s) > c_delta_max

        excess = any(over(s) for s in probe_ts)
        probe_maps.append(sum(1 for s in seen if s != t))
        if excess:
            over_keys.add(("pair", min(t, seen[-1]), max(t, seen[-1])))
        else:
            verdicts.append(classify_regime(dyn, t, ratio * t, n_grid=n_grid,
                                            with_doubling=False))
    return verdicts, probe_maps, over_keys


def test_scan_probe_rounds_match_the_window_by_window_probe(monkeypatch):
    # windows at 0.74 and 2.3 fail their first, far-end probe; the one at
    # 22.4 fails its fourth; the last three pass all six probe maps
    import metastab.norms
    import metastab.regimes

    model = random_lindbladian(3, 2, seed=0)
    grid = [0.74, 2.3, 22.4, 39.5, 69.7, 123.0]
    kw = dict(c_delta_max=0.175, ratio=2.0, n_grid=15)
    ref = QuantumBackend(model=model, seed=0)
    ref_verdicts, probe_maps, over_keys = window_by_window_scan(ref, grid,
                                                                **kw)
    assert probe_maps == [1, 1, 4, 6, 6, 6]
    assert len(over_keys) == 3

    ascents = []
    at_classify = []
    classified = []
    inner_ascents = metastab.norms._alternating_ascents
    inner_verdict = metastab.regimes.verdict_search

    def counted_ascents(Ms, *args, **kwargs):
        ascents.append(len(Ms))
        return inner_ascents(Ms, *args, **kwargs)

    def recorded_verdict(*args, **kwargs):
        # verdicts are kept in the order their searches start, the grid
        # order, though lockstep may finish them in another
        at_classify.append(len(ascents))
        slot = len(classified)
        classified.append(None)
        classified[slot] = yield from inner_verdict(*args, **kwargs)
        return classified[slot]

    monkeypatch.setattr(metastab.norms, "_alternating_ascents",
                        counted_ascents)
    monkeypatch.setattr(metastab.regimes, "verdict_search",
                        recorded_verdict)
    dyn = QuantumBackend(model=model, seed=0)
    hits = scan_metastable(dyn, grid=grid, merge=False, **kw)

    # the over-budget probe maps are certified, not cached; every other map
    # is cached with the reference's value
    assert dyn._norm_cache.keys() == ref._norm_cache.keys() - over_keys
    assert all(dyn._norm_cache[key] == ref._norm_cache[key]
               for key in dyn._norm_cache)
    assert repr(classified) == repr(ref_verdicts)
    assert repr(hits) == repr([v for v in ref_verdicts
                               if v.verdict == "Metastable"
                               and v.c_delta <= kw["c_delta_max"]])
    # one batched ascent per round, not one per window and probe distance,
    # then, once the verdict searches of the three windows that pass have
    # started, one sweep of their change grids and end distances, less
    # their probe maps
    probe_ascents = ascents[:max(probe_maps)]
    assert probe_ascents == [6, 4, 4, 4, 3, 3]
    passed = grid[3:]
    sweep = {("pair", t, s) for t in passed
             for s in _window_grid(t, 2.0 * t, 15)}
    sweep |= {key for t in passed
              for key in (("ident", t), ("stat", 2.0 * t))}
    sweep -= {("pair", t, s) for t in passed
              for s in _window_grid(t, 2.0 * t, 7)}
    assert at_classify == [len(probe_ascents)] * len(passed)
    assert ascents[len(probe_ascents)] == len(sweep)


def test_scan_refuses_trivial():
    Q = np.zeros((3, 3))
    with pytest.raises(TrivialDynamicsError):
        scan_metastable(ClassicalBackend(ClassicalGenerator(Q)))


def test_scan_ratio_validation(spin_backend):
    with pytest.raises(ValueError):
        scan_metastable(spin_backend, ratio=1.5)


def test_relaxation_times_spin(spin_backend):
    c, _ = change_measure(spin_backend, 20.0, 40.0)
    tau_d, tau_p = relaxation_times(spin_backend, 20.0, 40.0, c)
    rep = timescales(spin_backend)
    lo, _ = change_thresholds(c)
    assert rep.tau_0 <= tau_d < 20.0
    assert 40.0 < tau_p <= rep.tau_ss * (1.0 + 1e-5)
    # crossing levels are hit
    assert spin_backend.distance(tau_d, 20.0) == pytest.approx(
        1.0 / math.e - lo, abs=1e-5)
    assert spin_backend.distance(tau_p, 20.0) == pytest.approx(
        1.0 - 1.0 / math.e - lo, abs=1e-5)
    # ratio bound on the onset of the long-time dynamics
    assert tau_p / 20.0 >= math.floor((1.0 - 1.0 / math.e - lo) / c) + 1.0


def test_relaxation_times_cutoff(spin_backend):
    with pytest.raises(ValueError):
        relaxation_times(spin_backend, 20.0, 40.0, CUTOFF_RELAXATION + 0.01)


def test_relaxation_times_degenerate_change():
    # late window of the toy chain: change is numerically zero, the initial
    # relaxation crossing sits exactly at the bare 1/e level
    dyn = two_state_backend(0.5)
    c, _ = change_measure(dyn, 30.0, 60.0)
    assert c < 1e-10
    tau_d, _ = relaxation_times(dyn, 30.0, 60.0, c)
    assert tau_d == pytest.approx(1.0, abs=1e-5)


def test_distinguishability_bounds():
    assert distinguishability_bounds(0.0) == (0.5, 1.0, 1.0)
    assert distinguishability_bounds(2.0) == (0.0, 0.0, 0.0)
    err, flo, fhi = distinguishability_bounds(0.1)
    assert (err, flo, fhi) == (pytest.approx(0.475), pytest.approx(0.95),
                               pytest.approx(0.9975))


def test_state_and_observable_change_helpers(spin_spectral):
    rho0 = np.array([[1.0, 0.0], [0.0, 0.0]], dtype=complex)
    c_state = state_change_measure(spin_spectral, rho0, 20.0, 40.0)
    assert 0.0 < c_state <= 0.0862
    obs = np.diag([0.5, -0.5]).astype(complex)
    c_obs = observable_average_change(spin_spectral, rho0, obs, 20.0, 40.0)
    # the z-magnetization from the up state decays from e^{-0.1}/2 by the
    # slow mode alone
    want = 0.5 * (math.exp(-0.1) - math.exp(-0.2)) / 0.5
    assert c_obs == pytest.approx(want, abs=1e-6)
    assert c_obs <= c_state + 1e-9


def test_classical_pipeline_matches_closed_form():
    # every regime quantity through the generic pipeline, against the scalar
    # formulas of the symmetric two-state chain
    a = 0.5
    dyn = two_state_backend(a)
    for t1, t2 in ((0.3, 1.7), (0.05, 4.0)):
        assert dyn.distance(t1, t2) == pytest.approx(
            abs(math.exp(-2 * a * t1) - math.exp(-2 * a * t2)), abs=1e-10)
    assert dyn.distance_to_identity(0.8) == pytest.approx(
        1.0 - math.exp(-0.8), abs=1e-10)
    assert dyn.distance_to_stationary(0.8) == pytest.approx(
        math.exp(-0.8), abs=1e-10)
    c, _ = change_measure(dyn, 0.5, 2.0)
    assert c == pytest.approx(math.exp(-0.5) - math.exp(-2.0), abs=1e-9)


def two_cluster_rates(n, seed):
    """Rate matrix of two equal clusters, uniform(0.5, 1.5) rates inside and
    1e-3 times that between them (column convention)."""
    Q = np.random.default_rng(seed).uniform(0.5, 1.5, size=(n, n))
    half = n // 2
    inside = np.zeros((n, n), dtype=bool)
    inside[:half, :half] = inside[half:, half:] = True
    Q = np.where(inside, Q, 1e-3 * Q)
    np.fill_diagonal(Q, 0.0)
    return Q - np.diag(Q.sum(axis=0))


def exact_form(x):
    """x with every float as its hex string and every array as its bytes,
    so that == compares results bit for bit, NaN included."""
    if dataclasses.is_dataclass(x):
        return type(x), [exact_form(getattr(x, f.name))
                         for f in dataclasses.fields(x)]
    if isinstance(x, dict):
        return {k: exact_form(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [exact_form(v) for v in x]
    if isinstance(x, np.ndarray):
        return x.dtype, x.shape, x.tobytes()
    if isinstance(x, float):
        return x.hex()
    return x


def test_evolution_cache_is_bounded(monkeypatch):
    model = random_lindbladian(3, 2, seed=0)
    Q = two_cluster_rates(16, seed=16)

    def run():
        battery = bound_battery(QuantumBackend(model=model, seed=0), seed=0)
        hits = scan_metastable(ClassicalBackend(ClassicalGenerator(Q)),
                               c_delta_max=0.1, ratio=2.0)
        return battery, hits

    want_battery, want_hits = run()
    sizes = []
    evolution_matrix = regimes.DynamicsBackend.evolution_matrix

    def recorded(self, t):
        E = evolution_matrix(self, t)
        sizes.append(len(self._evo_cache))
        return E

    monkeypatch.setattr(regimes, "EVO_CACHE_SIZE", 8)
    monkeypatch.setattr(regimes.DynamicsBackend, "evolution_matrix", recorded)
    battery, hits = run()
    assert max(sizes) == 8
    assert exact_form(battery) == exact_form(want_battery)
    assert want_hits and exact_form(hits) == exact_form(want_hits)


def test_evolution_cache_evicts_the_least_recently_used(monkeypatch):
    monkeypatch.setattr(regimes, "EVO_CACHE_SIZE", 2)
    dyn = two_state_backend()
    E1 = dyn.evolution_matrix(1.0)
    dyn.evolution_matrix(2.0)
    assert dyn.evolution_matrix(1.0) is E1
    dyn.evolution_matrix(3.0)
    assert list(dyn._evo_cache) == [1.0, 3.0]
