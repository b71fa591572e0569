import numpy as np
import pytest
import scipy.optimize

from metastab.models import SPIN_Z, random_lindbladian
from metastab.models import SPIN_X, SPIN_Y
from metastab.norms import (_alternating_ascent, _induced_norm_matrix,
                            correlator_superop, induced_norm_sampling_oracle,
                            induced_trace_norm, max_norm_induced,
                            measurement_superop_norm)
from metastab.operators import max_norm, trace_norm
from metastab.superop import (Superoperator, build_liouvillian, evolution,
                              spectral_decompose, stationary_projector, unvec,
                              vec)

from conftest import bloch_map, spin_mode_distance, random_hermitian


def identity_minus_stationary(spec):
    P = spec.projector_matrix(spec.m_ss)
    return Superoperator(spec.dim, np.eye(spec.dim ** 2) - P,
                         hermiticity_preserving=True)


def test_zero_superoperator():
    X = Superoperator(2, np.zeros((4, 4)), hermiticity_preserving=True)
    res = induced_trace_norm(X)
    assert res.value == 0.0
    assert induced_norm_sampling_oracle(X, 100) == 0.0


def test_identity_minus_stationary_is_one(spin_spectral):
    res = induced_trace_norm(identity_minus_stationary(spin_spectral))
    assert res.value == pytest.approx(1.0, abs=1e-10)


def test_evolution_norm_is_one(spin_spectral):
    for t in (0.0, 0.4, 17.0):
        res = induced_trace_norm(evolution(spin_spectral, t))
        assert res.value == pytest.approx(1.0, abs=1e-10)


def test_spin_distance_to_stationary_at_unit_slow_time(spin_spectral):
    E = evolution(spin_spectral, 200.0).matrix
    P = stationary_projector(spin_spectral).matrix
    X = Superoperator(2, E - P, hermiticity_preserving=True)
    res = induced_trace_norm(X)
    assert res.value == pytest.approx(np.exp(-1.0), abs=1e-9)
    # independent oracle: spectral norm of the 3x3 Bloch map difference
    assert res.value == pytest.approx(np.linalg.svd(bloch_map(X.matrix),
                                                    compute_uv=False)[0],
                                      abs=1e-9)


def test_spin_pair_distance_matches_mode_formula(spin_spectral):
    rng = np.random.default_rng(8)
    for _ in range(6):
        t1, t2 = rng.uniform(0.0, 30.0, 2)
        X = Superoperator(2, spin_spectral.evolution_matrix(t1)
                          - spin_spectral.evolution_matrix(t2),
                          hermiticity_preserving=True)
        res = induced_trace_norm(X)
        assert res.value == pytest.approx(spin_mode_distance(t1, t2), abs=1e-7)


def test_optimizer_matches_bloch_oracle_on_grid(spin_spectral):
    # independent oracle: largest singular value of the 3x3 Bloch map of the
    # identity-annihilating difference maps, over a 50-point log time grid.
    # Near singular-value crossings the ascent rate degrades like the
    # singular-value ratio, so the iteration budget is extended here.
    P = stationary_projector(spin_spectral).matrix
    eye = np.eye(4)
    for t in np.geomspace(1e-3, 1e3, 50):
        E = spin_spectral.evolution_matrix(float(t))
        for M in (E - P, E - eye):
            oracle = np.linalg.svd(bloch_map(M), compute_uv=False)[0]
            res = induced_trace_norm(Superoperator(2, M, True, False),
                                     max_iter=20000)
            assert abs(res.value - oracle) < 1e-6


def test_witness_reproduces_value(spin_spectral):
    E = evolution(spin_spectral, 35.0).matrix
    P = stationary_projector(spin_spectral).matrix
    X = Superoperator(2, E - P, hermiticity_preserving=True)
    res = induced_trace_norm(X)
    psi = res.witness_state
    out = X.apply(np.outer(psi, psi.conj()))
    assert trace_norm(out) == pytest.approx(res.value, abs=1e-9)
    # the witness observable is the sign operator of the optimal output
    assert np.trace(res.witness_observable @ out).real == pytest.approx(
        res.value, abs=1e-9)
    assert max_norm(res.witness_observable) == pytest.approx(1.0, abs=1e-10)


def test_requires_hermiticity_preserving():
    X = Superoperator(2, np.eye(4), hermiticity_preserving=False)
    with pytest.raises(ValueError):
        induced_trace_norm(X)
    with pytest.raises(TypeError):
        induced_trace_norm(np.eye(4))


def test_decay_subspace_saturates_stationary_distance():
    # a decay subspace pushes the distance between the identity and the
    # stationary projection to its ceiling of 2
    from metastab.superop import QuantumModel, build_liouvillian, spectral_decompose

    lower = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
    spec = spectral_decompose(build_liouvillian(
        QuantumModel(hamiltonian=np.zeros((2, 2)), jumps=(lower,))))
    res = induced_trace_norm(identity_minus_stationary(spec))
    assert res.value == pytest.approx(2.0, abs=1e-9)


def test_sampling_oracle_concentrates(spin_spectral):
    X = identity_minus_stationary(spin_spectral)
    assert induced_norm_sampling_oracle(X, 100000, seed=3) >= 0.999


def test_optimizer_dominates_sampling_random_d3():
    spec = spectral_decompose(build_liouvillian(random_lindbladian(3, 2, seed=21)))
    X = Superoperator(3, spec.evolution_matrix(0.8) - spec.evolution_matrix(2.5),
                      hermiticity_preserving=True)
    opt = induced_trace_norm(X).value
    sam = induced_norm_sampling_oracle(X, 20000, seed=5)
    assert sam <= opt + 1e-9


def test_duality_with_max_norm_optimizer():
    rng = np.random.default_rng(11)
    for seed in (31, 32):
        spec = spectral_decompose(build_liouvillian(
            random_lindbladian(2, 2, seed=seed)))
        t1, t2 = rng.uniform(0.2, 4.0, 2)
        M = spec.evolution_matrix(t1) - spec.evolution_matrix(t2)
        direct = induced_trace_norm(
            Superoperator(2, M, hermiticity_preserving=True)).value
        dual = max_norm_induced(
            Superoperator(2, M.conj().T, hermiticity_preserving=True))
        assert dual == pytest.approx(direct, abs=1e-6)


def test_warm_start_seeds_first_restart(spin_spectral):
    E = evolution(spin_spectral, 12.0).matrix
    P = stationary_projector(spin_spectral).matrix
    X = Superoperator(2, E - P, hermiticity_preserving=True)
    cold = induced_trace_norm(X)
    warm = induced_trace_norm(X, warm=cold.witness_state)
    assert warm.value == pytest.approx(cold.value, abs=1e-10)


def test_nonconvergence_is_flagged_not_raised(spin_spectral):
    E = evolution(spin_spectral, 5.0).matrix
    P = stationary_projector(spin_spectral).matrix
    X = Superoperator(2, E - P, hermiticity_preserving=True)
    res = induced_trace_norm(X, max_iter=1)
    assert res.converged is False
    assert res.value > 0


def test_measurement_norm_von_neumann():
    assert measurement_superop_norm("von_neumann", SPIN_Z) == pytest.approx(0.5)


def test_measurement_norm_correlator_identity():
    assert measurement_superop_norm("correlator", np.eye(3)) == pytest.approx(1.0)


def test_measurement_norm_povm_bound():
    kraus = [np.eye(2) / np.sqrt(2), np.eye(2) / np.sqrt(2)]
    assert measurement_superop_norm("povm", (kraus, [1.0, -1.0])) == \
        pytest.approx(1.0, abs=1e-12)


def test_povm_completeness_enforced():
    kraus = [np.eye(2), np.eye(2)]
    with pytest.raises(ValueError):
        measurement_superop_norm("povm", (kraus, [1.0, 1.0]))


def test_correlator_superop_norm_equals_max_norm():
    rng = np.random.default_rng(12)
    O = random_hermitian(rng, 2)
    C = correlator_superop(O)
    res = induced_trace_norm(C)
    assert res.value == pytest.approx(max_norm(O), abs=1e-8)


def test_restart_dispersion_reported(spin_spectral):
    X = identity_minus_stationary(spin_spectral)
    res = induced_trace_norm(X)
    assert res.restart_values.size == res.restarts_used
    assert res.restart_dispersion >= 0.0


# --- exact qubit norm on the backend path ------------------------------------

PAULI_VECS = np.array([vec(np.eye(2)), vec(2 * SPIN_X), vec(2 * SPIN_Y),
                       vec(2 * SPIN_Z)]).T


def map_of_pauli_transfer(T):
    """Superoperator matrix M with T = S^dag M S / 2 (S = Pauli vec basis)."""
    return PAULI_VECS @ T @ PAULI_VECS.conj().T / 2


def random_pauli_transfer(rng, kind):
    """Real 4 x 4 Pauli transfer matrix [[a, b], [c, B]] of one of four kinds:
    generic; hard case (a = b = 0, top singular value of B repeated, c = 0 or
    c with no component on the top right singular space), returned with its
    exact norm; affine part |a| + |b| dominant; B small."""
    T = rng.normal(size=(4, 4))
    if kind == "hard":
        # variants: c = 0; c orthogonal to the top space, in a rotated frame
        # (g_top zero up to round-off) or in the axis frame (g_top exactly 0)
        variant = rng.integers(3)
        U, _ = np.linalg.qr(rng.normal(size=(3, 3)))
        W, _ = np.linalg.qr(rng.normal(size=(3, 3)))
        if variant == 2:
            U = W = np.eye(3)
        x, gamma = rng.uniform(0.0, 1.0), rng.uniform(0.0, 0.5)
        if variant == 0:
            gamma = 0.0
        T[0, :] = 0.0
        T[1:, 1:] = U @ np.diag([1.3, 1.3, x]) @ W
        T[1:, 0] = gamma * U[:, 2]
        # max over unit r of 1.69 (1 - r3^2) + (gamma + x r3)^2; the
        # maximizer r3 = x gamma / (1.69 - x^2) lies inside [-1, 1]
        return T, np.sqrt(1.69 + gamma ** 2 + (x * gamma) ** 2 / (1.69 - x ** 2))
    if kind == "affine":
        T[0, 0] *= 3.0
        T[0, 1:] *= 5.0
    elif kind == "small_B":
        T[1:, 1:] *= 0.01
    return T, None


QUBIT_KINDS = ("generic", "hard", "affine", "small_B")


def random_qubit_maps(n_per_kind, seed):
    rng = np.random.default_rng(seed)
    for _ in range(n_per_kind):
        for kind in QUBIT_KINDS:
            T, exact = random_pauli_transfer(rng, kind)
            yield kind, map_of_pauli_transfer(T), exact


def test_qubit_backend_distances_are_exact(spin_backend):
    rng = np.random.default_rng(4)
    for _ in range(10):
        t1, t2 = (float(t) for t in rng.uniform(0.0, 300.0, 2))
        assert spin_backend.distance(t1, t2) == pytest.approx(
            spin_mode_distance(t1, t2), abs=1e-12)
        assert spin_backend.distance_to_identity(t1) == pytest.approx(
            spin_mode_distance(t1, 0.0), abs=1e-12)
        # both modes have decayed to exactly 0.0 in double precision at 1e6
        assert spin_backend.distance_to_stationary(t1) == pytest.approx(
            spin_mode_distance(t1, 1e6), abs=1e-12)
    res = spin_backend.norm_result(spin_backend.generator_matrix())
    assert res.exact and res.converged and res.iterations == 0
    assert res.restart_dispersion == 0.0


def dual_upper_bound(M):
    """Upper bound on the induced norm of a qubit map from Lagrangian
    duality, independent of the secular-equation solver: with the Pauli
    transfer matrix [[a, b], [c, B]] and g = B^T c, every mu above
    lambda_max(B^T B) gives max_{|r|=1} |c + B r|^2 <= mu + |c|^2
    + g.(mu - B^T B)^{-1} g; the affine part is at most |a| + |b|."""
    T = (PAULI_VECS.conj().T @ M @ PAULI_VECS).real / 2
    a, b, c, B = T[0, 0], T[0, 1:], T[1:, 0], T[1:, 1:]
    A, g = B.T @ B, B.T @ c
    lmax = np.linalg.eigvalsh(A)[-1]

    def dual(s):
        mu = lmax + s
        return mu + c @ c + g @ np.linalg.solve(mu * np.eye(3) - A, g)

    # the minimizing s lies in (0, |g|]; the hard case has it at 0
    s_lo = 1e-12 * max(1.0, lmax)
    best = scipy.optimize.minimize_scalar(
        dual, bounds=(s_lo, s_lo + np.linalg.norm(g)), method="bounded",
        options={"xatol": 1e-14}).fun
    return max(abs(a) + np.linalg.norm(b), np.sqrt(min(best, dual(s_lo))))


def test_qubit_closed_form_against_ascent_oracle_and_dual_bound():
    n_hard = 0
    for kind, M, known in random_qubit_maps(130, seed=17):
        exact = _induced_norm_matrix(M, 2)
        assert exact.exact
        assert exact.value >= _alternating_ascent(M, 2).value - 1e-12, kind
        X = Superoperator(2, M, hermiticity_preserving=True)
        assert exact.value >= induced_norm_sampling_oracle(X, 2000) - 1e-12
        upper = dual_upper_bound(M)
        assert upper - 1e-9 <= exact.value <= upper + 1e-12, kind
        if known is not None:
            n_hard += 1
            assert exact.value == pytest.approx(known, abs=1e-12)
    assert n_hard == 130


def test_qubit_closed_form_matches_converged_ascent_on_lindblad_maps(
        spin_spectral):
    # the ascent stalls in local maxima of unphysical maps (above), but on
    # evolution differences of Lindblad dynamics it reaches the optimum
    rng = np.random.default_rng(9)
    specs = [spin_spectral] + [spectral_decompose(build_liouvillian(
        random_lindbladian(2, 2, seed=seed))) for seed in (40, 41, 42)]
    for spec in specs:
        for _ in range(10):
            t1, t2 = rng.uniform(0.0, 50.0, 2)
            M = spec.evolution_matrix(t1) - spec.evolution_matrix(t2)
            exact = _induced_norm_matrix(M, 2).value
            assert exact >= _alternating_ascent(M, 2).value - 1e-12
            assert exact <= _alternating_ascent(M, 2, max_iter=20000).value + 1e-8


def test_qubit_witness_reproduces_value(spin_spectral):
    P = stationary_projector(spin_spectral).matrix
    spin_maps = [spin_spectral.evolution_matrix(t) - P for t in (0.3, 35.0)]
    maps = spin_maps + [M for _, M, _ in random_qubit_maps(25, seed=3)]
    for M in maps:
        res = _induced_norm_matrix(M, 2)
        X = Superoperator(2, M, hermiticity_preserving=True)
        psi = res.witness_state
        assert np.linalg.norm(psi) == pytest.approx(1.0, abs=1e-14)
        out = X.apply(np.outer(psi, psi.conj()))
        assert trace_norm(out) == pytest.approx(res.value, abs=1e-12)
        assert np.trace(res.witness_observable @ out).real == pytest.approx(
            res.value, abs=1e-12)
        assert max_norm(res.witness_observable) == pytest.approx(1.0, abs=1e-12)


def test_induced_trace_norm_stays_on_ascent_at_d2(spin_spectral):
    X = identity_minus_stationary(spin_spectral)
    res = induced_trace_norm(X)
    assert not res.exact and res.iterations > 0
    assert res.value == pytest.approx(
        _induced_norm_matrix(X.matrix, 2).value, abs=1e-10)


def test_max_norm_induced_is_the_adjoint_trace_norm():
    # a non-unital evolution map: X(I) != I, so the max-norm-induced norm of
    # X exceeds its induced trace norm (1, trace preservation); only the
    # adjoint's trace norm bounds every ratio ||X(O)||_max / ||O||_max
    spec = spectral_decompose(build_liouvillian(random_lindbladian(3, 2, seed=5)))
    X = Superoperator(3, spec.evolution_matrix(1.0), hermiticity_preserving=True)
    assert max_norm(X.apply(np.eye(3))) > 1.0 + 1e-3
    value = max_norm_induced(X)
    rng = np.random.default_rng(17)
    for _ in range(200):
        O = random_hermitian(rng, 3)
        assert value >= max_norm(X.apply(O)) / max_norm(O) - 1e-9
