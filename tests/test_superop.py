import numpy as np
import pytest
import scipy.linalg

from metastab.models import SPIN_Z, random_lindbladian, spin_half_dephasing
from metastab.norms import induced_trace_norm
from metastab.operators import trace_norm
from metastab.superop import (DefectiveLiouvillianError, InvalidCutError,
                              QuantumModel, Superoperator, _hermitianize_block,
                              build_liouvillian, evolution, evolution_expm,
                              slow_projector, spectral_decompose,
                              stationary_projector, superop_flags_residuals,
                              unvec, vec)

from conftest import GAMMA, KAPPA, OMEGA, DECAY_FAST, random_state


def qubit_decay_model(a=1.0):
    lower = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
    return QuantumModel(hamiltonian=np.zeros((2, 2)), jumps=(np.sqrt(a) * lower,))


def test_vec_unvec_roundtrip():
    rng = np.random.default_rng(0)
    A = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    assert np.array_equal(unvec(vec(A), 3), A)
    # column stacking: entry (i, j) lands at position i + D*j
    assert vec(A)[1 + 3 * 2] == A[1, 2]


def test_liouvillian_action_matches_master_equation():
    rng = np.random.default_rng(1)
    model = random_lindbladian(3, 2, seed=9)
    L = build_liouvillian(model)
    rho = random_state(rng, 3)
    H = model.hamiltonian
    expected = -1j * (H @ rho - rho @ H)
    for J in model.jumps:
        JdJ = J.conj().T @ J
        expected += J @ rho @ J.conj().T - 0.5 * (JdJ @ rho + rho @ JdJ)
    assert np.max(np.abs(L.apply(rho) - expected)) < 1e-12


def test_spin_model_eigenvalues(spin_liouvillian):
    lam = np.sort_complex(np.linalg.eigvals(spin_liouvillian.matrix))
    expected = np.sort_complex(np.array(
        [0.0, -KAPPA, -DECAY_FAST + 1j * OMEGA, -DECAY_FAST - 1j * OMEGA]))
    assert np.max(np.abs(lam - expected)) < 1e-10


def test_zero_model_gives_zero_matrix():
    L = build_liouvillian(QuantumModel(hamiltonian=np.zeros((2, 2))))
    assert np.max(np.abs(L.matrix)) == 0.0


def test_qubit_decay_eigenvalues():
    # brute-force eigendecomposition of the 4x4 matrix as the oracle
    a = 0.7
    L = build_liouvillian(qubit_decay_model(a))
    lam = np.sort(np.linalg.eigvals(L.matrix).real)
    assert np.allclose(lam, [-a, -a / 2, -a / 2, 0.0], atol=1e-12)


def test_dimension_mismatch_rejected():
    with pytest.raises(ValueError):
        QuantumModel(hamiltonian=np.zeros((2, 2)), jumps=(np.zeros((3, 3)),))


def test_flags_hold(spin_liouvillian, spin_spectral):
    herm_res, trace_res = superop_flags_residuals(spin_liouvillian, generator=True)
    assert herm_res < 1e-10 and trace_res < 1e-10
    E = evolution(spin_spectral, 1.3)
    herm_res, trace_res = superop_flags_residuals(E)
    assert herm_res < 1e-10 and trace_res < 1e-10


def test_spectral_decompose_spin(spin_spectral):
    spec = spin_spectral
    assert spec.m_ss == 1
    assert np.allclose(spec.right_mode(0), np.eye(2) / 2, atol=1e-10)
    assert np.allclose(spec.left_mode(0), np.eye(2), atol=1e-10)
    lam = spec.eigenvalues
    assert lam[0] == pytest.approx(0.0, abs=1e-12)
    assert lam[1] == pytest.approx(-KAPPA, abs=1e-12)
    assert sorted(np.round(lam[2:].imag, 9)) == [-OMEGA, OMEGA]


def test_spectral_biorthonormality(spin_spectral):
    spec = spin_spectral
    G = np.array([[np.trace(spec.left_mode(k) @ spec.right_mode(l))
                   for l in range(4)] for k in range(4)])
    assert np.max(np.abs(G - np.eye(4))) < 1e-8


def test_conjugate_pairing(spin_spectral):
    spec = spin_spectral
    lam = spec.eigenvalues
    assert abs(lam[2] - np.conj(lam[3])) < 1e-10
    assert np.max(np.abs(spec.right_mode(2) - spec.right_mode(3).conj().T)) < 1e-8
    assert np.max(np.abs(spec.left_mode(2) - spec.left_mode(3).conj().T)) < 1e-8


def test_trivial_liouvillian_decomposition():
    L = build_liouvillian(QuantumModel(hamiltonian=np.zeros((2, 2))))
    spec = spectral_decompose(L)
    assert spec.m_ss == 4
    assert np.allclose(spec.eigenvalues, 0.0)
    # every right mode of the zero generator is Hermitian after recombination
    for k in range(4):
        R = spec.right_mode(k)
        assert np.max(np.abs(R - R.conj().T)) < 1e-10


def _hermitian_basis(rng, dim, g):
    G = rng.normal(size=(g, dim, dim)) + 1j * rng.normal(size=(g, dim, dim))
    return np.array([vec(H) for H in (G + G.conj().transpose(0, 2, 1)) / 2]).T


def _candidates(vecs, dim):
    # the 2g Hermitian and anti-Hermitian parts _hermitianize_block chooses from
    cands = []
    for v in vecs.T:
        M = unvec(v, dim)
        cands += [vec((M + M.conj().T) / 2), vec((M - M.conj().T) / 2j)]
    return np.array(cands).T


def _span_projector(A):
    q, _ = np.linalg.qr(A)
    return q @ q.conj().T


def test_hermitianize_block_keeps_the_columns_of_pivoted_qr():
    # a real-eigenvalue eigenspace of a Hermiticity-preserving map is the
    # complex span of Hermitian operators; eig returns a generic basis of it
    rng = np.random.default_rng(20)
    for trial in range(1200):
        dim, g = 2 + trial % 4, 1 + (trial // 4) % 4
        mix = rng.normal(size=(g, g)) + 1j * rng.normal(size=(g, g))
        vecs = _hermitian_basis(rng, dim, g) @ mix
        vecs /= np.linalg.norm(vecs, axis=0)
        C = _candidates(vecs, dim)
        piv = scipy.linalg.qr(C, pivoting=True, mode="economic")[2]
        assert np.array_equal(_hermitianize_block(vecs, dim),
                              C[:, sorted(piv[:g])]), (dim, g)


def test_hermitianize_block_at_exact_ties_spans_the_block():
    # a mode phase that is a multiple of pi/4 ties (or zeroes) the Hermitian
    # and anti-Hermitian parts; either column of a tie is a valid choice
    rng = np.random.default_rng(21)
    for trial in range(400):
        dim, g = 2 + trial % 4, 1 + (trial // 4) % 4
        phases = np.exp(1j * np.pi / 4 * rng.integers(0, 8, size=g))
        vecs = _hermitian_basis(rng, dim, g) * phases
        vecs /= np.linalg.norm(vecs, axis=0)
        out = _hermitianize_block(vecs, dim)
        assert out.shape == vecs.shape
        for v in out.T:
            R = unvec(v, dim)
            assert np.max(np.abs(R - R.conj().T)) <= 1e-12 * np.abs(R).max()
        assert np.linalg.matrix_rank(out) == g
        assert np.max(np.abs(_span_projector(out) - _span_projector(vecs))) \
            <= 1e-12


def test_spectral_reconstruction_random():
    model = random_lindbladian(3, 2, seed=7)
    L = build_liouvillian(model)
    spec = spectral_decompose(L)
    rebuilt = (spec.right_vecs * spec.eigenvalues) @ spec.left_dual
    scale = np.max(np.abs(L.matrix))
    assert np.max(np.abs(rebuilt - L.matrix)) < 1e-8 * scale


def test_defective_rejection():
    # a generator with an exact Jordan block on its vectorized matrix
    J = np.array([[0.0, 1.0, 0], [0, 0, 1.0], [0, 0, 0]])
    sup = Superoperator(dim=3, matrix=np.kron(np.eye(3), J),
                        hermiticity_preserving=True, trace_preserving=True)
    with pytest.raises(DefectiveLiouvillianError) as err:
        spectral_decompose(sup)
    assert err.value.condition_number > 1e8


def test_evolution_identity_and_negative_time(spin_spectral):
    E0 = evolution(spin_spectral, 0.0)
    assert np.max(np.abs(E0.matrix - np.eye(4))) < 1e-12
    with pytest.raises(ValueError):
        evolution(spin_spectral, -0.1)


def test_evolution_spin_z_decay(spin_spectral):
    for t in (0.5, 10.0, 200.0):
        out = evolution(spin_spectral, t).apply(SPIN_Z)
        assert np.max(np.abs(out - np.exp(-KAPPA * t) * SPIN_Z)) < 1e-12


def test_evolution_semigroup(spin_spectral):
    E1 = evolution(spin_spectral, 0.7).matrix
    E2 = evolution(spin_spectral, 1.9).matrix
    E12 = evolution(spin_spectral, 2.6).matrix
    assert np.max(np.abs(E1 @ E2 - E12)) < 1e-9


def test_evolution_matches_expm():
    model = random_lindbladian(3, 2, seed=11)
    L = build_liouvillian(model)
    spec = spectral_decompose(L)
    for t in (0.3, 2.0, 9.0):
        direct = evolution_expm(L, t).matrix
        assert np.max(np.abs(spec.evolution_matrix(t) - direct)) < 1e-8


def test_stationary_projector_spin(spin_spectral):
    P = stationary_projector(spin_spectral)
    rng = np.random.default_rng(3)
    rho = random_state(rng, 2)
    assert np.max(np.abs(P.apply(rho) - np.eye(2) / 2 * np.trace(rho))) < 1e-10
    M = P.matrix
    assert np.max(np.abs(M @ M - M)) < 1e-9
    L = build_liouvillian(spin_half_dephasing(GAMMA, KAPPA, OMEGA)).matrix
    assert np.max(np.abs(M @ L - L @ M)) < 1e-9


def test_stationary_projector_trivial():
    L = build_liouvillian(QuantumModel(hamiltonian=np.zeros((2, 2))))
    spec = spectral_decompose(L)
    P = stationary_projector(spec)
    assert np.max(np.abs(P.matrix - np.eye(4))) < 1e-10


def test_stationary_projector_qubit_decay():
    # oracle: the large-time limit of the evolution operator
    L = build_liouvillian(qubit_decay_model(1.0))
    spec = spectral_decompose(L)
    P = stationary_projector(spec)
    limit = scipy.linalg.expm(60.0 * L.matrix)
    assert np.max(np.abs(P.matrix - limit)) < 1e-9
    rng = np.random.default_rng(4)
    rho = random_state(rng, 2)
    ground = np.zeros((2, 2))
    ground[0, 0] = 1.0  # the lowering operator maps the second basis state down
    assert np.max(np.abs(P.apply(rho) - ground * np.trace(rho))) < 1e-9


def test_slow_projector_limits(spin_spectral):
    assert np.max(np.abs(slow_projector(spin_spectral, 4).matrix - np.eye(4))) < 1e-12
    P1 = slow_projector(spin_spectral, 1).matrix
    assert np.max(np.abs(P1 - stationary_projector(spin_spectral).matrix)) < 1e-12


def test_slow_projector_spin_two_modes(spin_spectral):
    P = slow_projector(spin_spectral, 2)
    rng = np.random.default_rng(5)
    rho = random_state(rng, 2)
    want = np.eye(2) / 2 * np.trace(rho) + 2 * np.trace(SPIN_Z @ rho) * SPIN_Z
    assert np.max(np.abs(P.apply(rho) - want)) < 1e-10
    herm_res, _ = superop_flags_residuals(P)
    assert herm_res < 1e-10


def test_slow_projector_rejects_pair_split(spin_spectral):
    with pytest.raises(InvalidCutError):
        slow_projector(spin_spectral, 3)


def test_trace_preservation_and_positivity(spin_spectral):
    rng = np.random.default_rng(6)
    norm_L = induced_trace_norm(
        build_liouvillian(spin_half_dephasing(GAMMA, KAPPA, OMEGA))).value
    for _ in range(5):
        rho = random_state(rng, 2)
        t = rng.uniform(0.0, 10.0 / norm_L)
        out = evolution(spin_spectral, t).apply(rho)
        assert abs(np.trace(out) - 1.0) < 1e-10
        assert np.linalg.eigvalsh((out + out.conj().T) / 2).min() > -1e-8


def test_stationarity_of_projector(spin_spectral):
    P = stationary_projector(spin_spectral).matrix
    for t in (0.1, 3.0, 50.0):
        E = spin_spectral.evolution_matrix(t)
        assert np.linalg.norm(E @ P - P) < 1e-9


def test_nonzero_change():
    model = random_lindbladian(2, 2, seed=13)
    L = build_liouvillian(model)
    spec = spectral_decompose(L)
    norm_L = induced_trace_norm(L).value
    rng = np.random.default_rng(7)
    rho = random_state(rng, 2)
    t1, t2 = 0.3 / norm_L, 7.0 / norm_L
    r1 = unvec(spec.evolution_matrix(t1) @ vec(rho), 2)
    r2 = unvec(spec.evolution_matrix(t2) @ vec(rho), 2)
    assert trace_norm(r1 - r2) > 1e-12
