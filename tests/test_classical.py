import math

import numpy as np
import pytest

from metastab.classical import (ClassicalBackend, ClassicalGenerator,
                                classical_backend, classical_evolution,
                                embed_as_lindbladian, l1_induced_distance,
                                l1_norm, rate_matrix_from_edges,
                                rate_matrix_from_json)
from metastab.models import three_state_double_well
from metastab.norms import induced_trace_norm
from metastab.operators import trace_norm
from metastab.regimes import change_measure, scan_metastable, timescales
from metastab.spectral_meta import bound_battery
from metastab.superop import (DEFECT_TOL, DefectiveLiouvillianError,
                              InvalidCutError, Superoperator,
                              build_liouvillian, spectral_decompose)

from conftest import (CRITERION_4_TARGETED, assert_caches_untouched,
                      cache_snapshot)


def symmetric_two_state(a=1.0):
    return ClassicalGenerator(np.array([[-a, a], [a, -a]]))


def sequential_chain(eps):
    # 0 -> 1 -> 2 -> 3 at rates 1, 1 + eps, 1 + 2 eps: the three decay modes
    # merge as eps -> 0, and cond(V) grows like 3.3 / eps^2
    Q = np.zeros((4, 4))
    for i, rate in enumerate((1.0, 1.0 + eps, 1.0 + 2.0 * eps)):
        Q[i + 1, i] += rate
        Q[i, i] -= rate
    return ClassicalGenerator(Q)


def two_cluster_chain(n, seed, coupling=1e-3):
    # two equal clusters, uniform(0.5, 1.5) rates inside and coupling times
    # that between them: a nonsymmetric chain with complex eigenvalues
    Q = np.random.default_rng(seed).uniform(0.5, 1.5, size=(n, n))
    half = n // 2
    inside = np.zeros((n, n), dtype=bool)
    inside[:half, :half] = inside[half:, half:] = True
    Q = np.where(inside, Q, coupling * Q)
    np.fill_diagonal(Q, 0.0)
    return ClassicalGenerator(Q - np.diag(Q.sum(axis=0)))


# rotation 0 -> 1 -> 2 -> 0: eigenvalues 0 and -3/2 +- i sqrt(3)/2
CYCLIC = np.array([[-1.0, 0.0, 1.0], [1.0, -1.0, 0.0], [0.0, 1.0, -1.0]])


def test_generator_validation():
    with pytest.raises(ValueError):
        ClassicalGenerator(np.array([[-1.0, 0.5], [0.5, -0.5]]))
    with pytest.raises(ValueError):
        ClassicalGenerator(np.array([[0.0, -0.2], [0.0, 0.2]]))
    # the sign and column-sum checks are False on NaN, so NaN needs its own
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError, match="finite"):
            ClassicalGenerator(np.array([[-1.0, bad], [1.0, -bad]]))
    with pytest.raises(ValueError, match="finite"):
        rate_matrix_from_json([[-1.0, math.nan], [1.0, math.nan]])
    with pytest.raises(ValueError, match="finite"):
        rate_matrix_from_edges("0 1 nan\n")


def test_evolution_identity_and_negative_time():
    gen = symmetric_two_state()
    assert np.allclose(classical_evolution(gen, 0.0), np.eye(2))
    with pytest.raises(ValueError):
        classical_evolution(gen, -0.5)


def test_two_state_closed_form():
    a = 0.8
    gen = symmetric_two_state(a)
    for t in (0.1, 1.0, 6.0):
        got = classical_evolution(gen, t)
        e = math.exp(-2 * a * t)
        want = 0.5 * np.array([[1 + e, 1 - e], [1 - e, 1 + e]])
        assert np.max(np.abs(got - want)) < 1e-12


def test_double_well_stochasticity():
    gen = three_state_double_well(1.0, 1e-3)
    for t in (0.5, 40.0, 5000.0):
        P = classical_evolution(gen, t)
        assert np.max(np.abs(P.sum(axis=0) - 1.0)) < 1e-10
        assert P.min() > -1e-10


def test_l1_distance_examples():
    a = 0.6
    gen = symmetric_two_state(a)
    assert l1_induced_distance(gen, 1.3, 1.3) == 0.0
    for t1, t2 in ((0.2, 1.5), (0.9, 4.0)):
        want = abs(math.exp(-2 * a * t1) - math.exp(-2 * a * t2))
        assert l1_induced_distance(gen, t1, t2) == pytest.approx(want, abs=1e-12)


def test_backend_two_state_pipeline():
    a = 1.0
    dyn = classical_backend(symmetric_two_state(a))
    rep = timescales(dyn)
    assert rep.tau_ss == pytest.approx(1.0 / (2 * a), abs=1e-10)
    assert dyn.stationary_distance() == pytest.approx(1.0, abs=1e-12)
    c, _ = change_measure(dyn, 0.25, 1.0)
    assert c == pytest.approx(math.exp(-0.5) - math.exp(-2.0), abs=1e-10)


def test_backend_reducible_chain():
    # two disconnected states: every distribution is stationary
    Q = np.zeros((2, 2))
    dyn = classical_backend(ClassicalGenerator(Q))
    assert dyn.m_ss == 2
    assert np.allclose(dyn.stationary_matrix(), np.eye(2))
    # a reducible three-state chain with two ergodic components
    Q = np.array([[-1.0, 1.0, 0.0], [1.0, -1.0, 0.0], [0.0, 0.0, 0.0]])
    dyn = classical_backend(ClassicalGenerator(Q))
    assert dyn.m_ss == 2
    P = dyn.stationary_matrix()
    assert np.max(np.abs(P @ P - P)) < 1e-10
    p0 = np.array([1.0, 0.0, 0.0])
    assert np.allclose(P @ p0, [0.5, 0.5, 0.0], atol=1e-10)


def test_double_well_metastable_window():
    fast, slow = 1.0, 1e-3
    dyn = classical_backend(three_state_double_well(fast, slow))
    hits = scan_metastable(dyn, c_delta_max=0.1, ratio=2.0)
    assert hits
    for v in hits:
        assert v.t_start > 1.0 / fast
        assert v.t_end < 1.0 / slow
    lam = np.sort(dyn.eigenvalues().real)
    assert lam[0] < -fast  # fast intra-well relaxation
    assert -2e-2 < lam[1] < -1e-4  # slow inter-well mode
    assert abs(lam[2]) < 1e-12


def test_uniform_chain_has_no_metastable_window():
    Q = np.full((3, 3), 1.0)
    np.fill_diagonal(Q, -2.0)
    dyn = classical_backend(ClassicalGenerator(Q))
    assert scan_metastable(dyn, c_delta_max=0.1, ratio=2.0) == []


def test_double_well_stationary_distribution():
    gen = three_state_double_well(1.0, 1e-3)
    dyn = classical_backend(gen)
    pi = dyn.stationary_matrix()[:, 0]
    assert pi == pytest.approx([1 / 3, 1 / 3, 1 / 3], abs=1e-9)
    assert np.max(np.abs(gen.rates @ pi)) < 1e-12


def test_classical_battery_exact(spin_backend):
    dyn = classical_backend(three_state_double_well(1.0, 1e-3))
    rep = bound_battery(dyn, tol=1e-10)
    assert rep.all_pass, rep.failed_ids()


def test_classical_battery_builds_records_for_two_map_kinds(monkeypatch):
    # the keyed maps are evaluated on their read, as l1 values; only the
    # generator and the three meta_corr maps come through norm_results,
    # which builds each map's record with its witness
    calls = []
    norm_results = ClassicalBackend.norm_results

    def counted(self, Ms, above=None):
        calls.append(len(Ms))
        return norm_results(self, Ms, above)

    monkeypatch.setattr(ClassicalBackend, "norm_results", counted)
    dyn = classical_backend(three_state_double_well(1.0, 1e-3))
    rep = bound_battery(dyn, tol=1e-10)
    assert "meta_corr" in rep.applicable_ids()
    assert calls == [1, 3]
    assert len(dyn._norm_cache) > 100


def test_classical_battery_two_state():
    dyn = classical_backend(symmetric_two_state(1.0))
    rep = bound_battery(dyn, tol=1e-10)
    assert rep.all_pass, rep.failed_ids()


def test_embedding_consistency():
    # classical jumps as a dephasing-free Lindbladian reproduce the exact
    # l1 distances on basis-state (diagonal) inputs
    gen = three_state_double_well(1.0, 5e-2)
    model = embed_as_lindbladian(gen)
    spec = spectral_decompose(build_liouvillian(model))
    dyn = classical_backend(gen)
    for t1, t2 in ((0.4, 2.0), (1.0, 9.0)):
        classical = dyn.distance(t1, t2)
        diff = spec.evolution_matrix(t1) - spec.evolution_matrix(t2)
        best = 0.0
        for j in range(3):
            basis = np.zeros((3, 3), dtype=complex)
            basis[j, j] = 1.0
            from metastab.superop import unvec, vec

            out = unvec(diff @ vec(basis), 3)
            best = max(best, trace_norm(out))
        assert best == pytest.approx(classical, abs=1e-6)
        # the full quantum norm can only exceed the diagonal-restricted value
        opt = induced_trace_norm(Superoperator(3, diff, True, False)).value
        assert opt >= classical - 1e-9


def test_rate_matrix_loaders():
    gen = rate_matrix_from_json({"rates": [[-1.0, 2.0], [1.0, -2.0]]})
    assert gen.dim == 2
    text = "0 1 1.5\n1 0 0.5\n# comment\n\n"
    gen = rate_matrix_from_edges(text)
    assert gen.rates[1, 0] == pytest.approx(1.5)
    assert gen.rates[0, 1] == pytest.approx(0.5)
    assert np.max(np.abs(gen.rates.sum(axis=0))) < 1e-12
    with pytest.raises(ValueError):
        rate_matrix_from_edges("0 0 1.0")
    with pytest.raises(ValueError):
        rate_matrix_from_edges("0 1 -2.0")
    with pytest.raises(ValueError):
        rate_matrix_from_edges("0 1\n")
    # numpy indexing would wrap -1 to the last state: "-1 0" read as 1 -> 0
    for line in ("-1 0 0.5", "0 -1 0.5"):
        with pytest.raises(ValueError, match="line 2: negative state index"):
            rate_matrix_from_edges("0 1 1.0\n" + line)


def test_rate_matrix_from_edges_with_an_explicit_dim():
    # dim adds states no edge names, and every index must lie below it
    gen = rate_matrix_from_edges("0 1 1.5\n1 0 0.5", dim=3)
    assert gen.dim == 3
    assert not gen.rates[2].any() and not gen.rates[:, 2].any()
    for line, index in (("0 5 1.0", 5), ("3 1 1.0", 3), ("4 3 1.0", 4)):
        with pytest.raises(ValueError, match="line 2: state index %d out of "
                                             "range for dim 3" % index):
            rate_matrix_from_edges("0 1 1.0\n" + line, dim=3)
    for dim in (0, -1):
        with pytest.raises(ValueError, match="dim must be at least 1"):
            rate_matrix_from_edges("0 1 1.0", dim=dim)


@pytest.mark.parametrize("eps", [1e-1, 1e-2, 1e-3])
def test_spectral_evolution_error_grows_with_condition(eps):
    # the eigenvector method carries about 1e-16 cond(V) of round-off; the
    # three chains span cond(V) = 3.8e2, 3.3e4 and 3.3e6
    gen = sequential_chain(eps)
    dyn = ClassicalBackend(gen)
    cond = dyn.spectral.eigvec_condition
    assert dyn.spectral.left_dual is not None and cond < DEFECT_TOL
    for t in np.geomspace(1e-3, 1e3, 50):
        gap = l1_norm(dyn.evolution_matrix(t) - classical_evolution(gen, t))
        assert gap <= 1e-14 * cond, (t, gap, cond)


def test_defective_chain_evolves_by_expm():
    gen = sequential_chain(1e-4)
    dyn = ClassicalBackend(gen)
    assert dyn.spectral.eigvec_condition > DEFECT_TOL
    assert dyn.spectral.left_dual is None
    for t in np.geomspace(1e-3, 1e3, 50):
        assert np.array_equal(dyn.evolution_matrix(t),
                              classical_evolution(gen, t))


def test_non_defective_chains_evolve_without_expm(monkeypatch):
    def expm_called(generator, t):
        raise AssertionError("expm on a non-defective chain")

    monkeypatch.setattr("metastab.classical.classical_evolution", expm_called)
    dyn = classical_backend(three_state_double_well())
    assert timescales(dyn).tau_ss is not None
    # complex modes: the cached matrix is formed in real arithmetic, a real
    # matrix of its own, with no complex product behind it
    cyclic = ClassicalBackend(ClassicalGenerator(CYCLIC))
    assert np.iscomplexobj(cyclic.spectral.right_vecs)
    E = cyclic.evolution_matrix(0.7)
    assert E.dtype == np.float64 and E.flags.owndata
    assert np.allclose(E.sum(axis=0), 1.0, atol=1e-14)


@pytest.mark.parametrize("gen", [ClassicalGenerator(CYCLIC),
                                 two_cluster_chain(16, seed=0)],
                         ids=["cyclic", "two-cluster-16"])
def test_real_products_match_the_complex_product(gen):
    # a real generator's evolutions and slow projectors are formed as
    # Re(V D) Re(W) - Im(V D) Im(W): real, and the real part of the complex
    # product V D W up to round-off (bit for bit on some BLAS builds only)
    dyn = ClassicalBackend(gen)
    spec = dyn.spectral
    V, W = spec.right_vecs, spec.left_dual
    assert spec.real and np.any(np.abs(spec.eigenvalues.imag) > 0.1)
    tol = 1e-15 * spec.eigvec_condition
    for t in np.concatenate([[0.0], np.geomspace(1e-2, 1e4, 13)]):
        E = spec.evolution_matrix(t)
        assert E.dtype == np.float64 and E.flags.owndata
        # the stationary mode's round-off, which dominates at long times,
        # grows with cond(V): 4.4e-14 on the 16-state chain (cond 7.5)
        assert np.max(np.abs(E.sum(axis=0) - 1.0)) <= 1e-14 * \
            spec.eigvec_condition, t
        rates = t * spec.eigenvalues
        rates[:spec.m_ss] = 0.0
        assert np.max(np.abs(E - ((V * np.exp(rates)) @ W).real)) <= tol, t
    for m in dyn.valid_cuts():
        P = dyn.slow_projector_matrix(m)
        assert P.dtype == np.float64 and P.flags.owndata
        assert np.max(np.abs(P - (V[:, :m] @ W[:m]).real)) <= tol, m


def test_l1_norm_of_a_matrix():
    M = np.array([[1.0, -2.0, 0.0], [-3.0, 0.5, 0.25]])
    assert l1_norm(M) == 4.0 and type(l1_norm(M)) is float
    assert l1_norm(M.T) == 3.75
    assert l1_norm(M[:1]) == 2.0 and l1_norm(M[:, :1]) == 4.0
    assert l1_norm(np.zeros((3, 3))) == 0.0
    # a vector is no map: atleast_2d used to read it as one row
    for bad in (M[0], np.float64(2.0), np.ones((2, 2, 2))):
        with pytest.raises(ValueError, match="needs a matrix"):
            l1_norm(bad)


def test_cyclic_chain_cuts_and_real_projection():
    dyn = ClassicalBackend(ClassicalGenerator(CYCLIC))
    assert dyn.valid_cuts() == [1, 3]
    with pytest.raises(InvalidCutError, match="conjugate eigenvalue pair"):
        dyn.slow_projector_matrix(2)
    with pytest.raises(InvalidCutError, match="outside"):
        dyn.slow_projector_matrix(4)
    P = dyn.stationary_matrix()
    assert P.dtype == np.float64
    assert np.allclose(P, np.full((3, 3), 1.0 / 3.0), atol=1e-12)
    assert dyn.slow_projector_matrix(3).dtype == np.float64


def test_slow_projectors_are_built_once_per_cut(monkeypatch):
    dyn = ClassicalBackend(ClassicalGenerator(CYCLIC))
    calls = []
    build = type(dyn.spectral).projector_matrix
    monkeypatch.setattr(type(dyn.spectral), "projector_matrix",
                        lambda spec, m: calls.append(m) or build(spec, m))
    P = dyn.slow_projector_matrix(3)
    assert dyn.slow_projector_matrix(3) is P
    # the stationary projection is the cut m_ss = 1, shared with views
    # whose stationary projection is overridden
    view = dyn.with_stationary(np.zeros((3, 3)))
    assert view.slow_projector_matrix(1) is dyn.stationary_matrix()
    assert view.stationary_matrix() is not dyn.stationary_matrix()
    # an invalid cut is not kept: it raises on every call
    for _ in range(2):
        with pytest.raises(InvalidCutError):
            dyn.slow_projector_matrix(2)
    assert calls == [3, 1, 2, 2]


def test_defective_chain_evolves_but_has_no_projections():
    # irreversible 0 -> 1 -> 2 with equal rates: a Jordan block at -1
    dyn = classical_backend(ClassicalGenerator(
        np.array([[-1.0, 0.0, 0.0], [1.0, -1.0, 0.0], [0.0, 1.0, 0.0]])))
    # = 0.477302437082...: both transient columns give 2 (e^{-1/2} - e^{-1})
    assert dyn.distance(0.5, 1.0) == pytest.approx(
        2.0 * (math.exp(-0.5) - math.exp(-1.0)), abs=1e-12)
    with pytest.raises(DefectiveLiouvillianError):
        dyn.stationary_matrix()
    with pytest.raises(DefectiveLiouvillianError):
        dyn.slow_projector_matrix(3)


def test_classical_battery_override_leaves_caller_caches_alone():
    dyn = classical_backend(three_state_double_well())
    clean = bound_battery(dyn, seed=0)
    assert clean.all_pass
    snapshot = cache_snapshot(dyn)
    bad = np.outer([1.0, 0.0, 0.0], np.ones(3))
    grid = [row.t for row in clean.rows if row.id == "change2_all"]
    rep = bound_battery(dyn.with_stationary(bad), grid=grid, seed=0,
                        window=clean.context["window2"],
                        window4=clean.context["window4"])
    # ||I - P|| is 4/3 for the true projection and 2 for the override
    ipss = [r.lhs for r in rep.rows if r.id == "IPss" and r.t == 1.0]
    assert ipss == [pytest.approx(2.0)]
    assert_caches_untouched(dyn, snapshot)
    assert dyn.stationary_distance() == pytest.approx(4.0 / 3.0)
    assert np.allclose(dyn.stationary_matrix(), np.full((3, 3), 1.0 / 3.0))


def test_classical_battery_negative_control_fires():
    # a wrong stationary projection at l1 distance 0.133 from the true one:
    # below 1, so rows like change2_ss (ds (1 - ds) <= d) can trip
    dyn = classical_backend(three_state_double_well())
    clean = bound_battery(dyn, seed=0)
    bad = np.outer([0.4, 0.3, 0.3], np.ones(3))
    assert l1_norm(bad - dyn.stationary_matrix()) == pytest.approx(2.0 / 15.0)
    grid = [row.t for row in clean.rows if row.id == "change2_all"]
    rep = bound_battery(dyn.with_stationary(bad), grid=grid, seed=0,
                        window=clean.context["window2"],
                        window4=clean.context["window4"])
    failed = set(rep.failed_ids())
    assert "change2_ss" in failed and failed <= CRITERION_4_TARGETED
