import numpy as np
import pytest

from metastab.models import (ModelSpecifier, build_model, random_lindbladian,
                             spin_half_dephasing, three_state_double_well)
from metastab.norms import _induced_norm_matrix, induced_trace_norm
from metastab.superop import (DefectiveLiouvillianError, build_liouvillian,
                              spectral_decompose, superop_flags_residuals)

from conftest import GAMMA, KAPPA, OMEGA, DECAY_FAST


def test_spin_ground_truth_spectrum():
    L = build_liouvillian(spin_half_dephasing(GAMMA, KAPPA, OMEGA))
    lam = np.linalg.eigvals(L.matrix)
    expected = [0.0, -KAPPA, -DECAY_FAST + 1j * OMEGA, -DECAY_FAST - 1j * OMEGA]
    for e in expected:
        scale = max(abs(e), 1.0)
        assert np.min(np.abs(lam - e)) < 1e-10 * scale


def test_spin_default_parameter_relation():
    # kappa/gamma = 0.005, omega/(gamma+kappa) = 5
    assert KAPPA / GAMMA == pytest.approx(0.005)
    assert OMEGA / (GAMMA + KAPPA) == pytest.approx(5.0)


def test_spin_model_is_normal():
    L = build_liouvillian(spin_half_dephasing(GAMMA, KAPPA, OMEGA)).matrix
    comm = L @ L.conj().T - L.conj().T @ L
    assert np.max(np.abs(comm)) < 1e-12


def test_spin_pure_dephasing_two_stationary_modes():
    model = spin_half_dephasing(gamma=1.0, kappa=0.0, omega=5.0)
    spec = spectral_decompose(build_liouvillian(model))
    assert spec.m_ss == 2


def test_spin_bath_only_is_unital():
    model = spin_half_dephasing(gamma=0.0, kappa=0.4, omega=0.0)
    L = build_liouvillian(model)
    assert np.max(np.abs(L.apply(np.eye(2) / 2))) < 1e-12


def test_spin_parameter_validation():
    with pytest.raises(ValueError):
        spin_half_dephasing(gamma=-0.1)
    with pytest.raises(ValueError):
        spin_half_dephasing(gamma=0.0, kappa=0.0)


def test_random_lindbladian_reproducible():
    a = random_lindbladian(2, 2, seed=1)
    b = random_lindbladian(2, 2, seed=1)
    assert np.array_equal(a.hamiltonian, b.hamiltonian)
    lam_a = np.sort_complex(np.linalg.eigvals(build_liouvillian(a).matrix))
    lam_b = np.sort_complex(np.linalg.eigvals(build_liouvillian(b).matrix))
    assert np.array_equal(lam_a, lam_b)
    c = random_lindbladian(2, 2, seed=2)
    assert not np.allclose(a.hamiltonian, c.hamiltonian)


def test_random_lindbladian_norm_scaled():
    for seed in (3, 4, 5):
        model = random_lindbladian(3, 2, seed=seed)
        norm = induced_trace_norm(build_liouvillian(model), seed=seed).value
        assert 0.5 <= norm <= 2.0


def test_random_lindbladian_exact_norm_at_d2():
    # at D = 2 the normalisation uses the exact qubit norm, so the generator
    # hits target_norm to round-off
    for seed in range(50):
        for target in (1.0, 0.5):
            L = build_liouvillian(random_lindbladian(2, 2, seed=seed,
                                                     target_norm=target))
            assert abs(_induced_norm_matrix(L.matrix, 2).value - target) <= 1e-12


def test_random_lindbladian_flags_and_diagonalizability():
    defective = 0
    for seed in range(200):
        model = random_lindbladian(2, 1, seed=seed)
        L = build_liouvillian(model)
        if seed < 30:
            herm, trace = superop_flags_residuals(L, generator=True)
            assert herm < 1e-10 and trace < 1e-10
        try:
            spectral_decompose(L)
        except DefectiveLiouvillianError:
            defective += 1
    assert defective == 0


def test_double_well_gap_structure():
    gen = three_state_double_well(1.0, 1e-3)
    lam = np.sort(np.linalg.eigvals(gen.rates).real)
    assert abs(lam[2]) < 1e-12
    assert -4e-3 < lam[1] < -1e-3 / 2
    assert lam[0] < -1.0


def test_double_well_ordering_validation():
    with pytest.raises(ValueError):
        three_state_double_well(1e-3, 1.0)
    with pytest.raises(ValueError):
        three_state_double_well(1.0, 0.0)


def test_build_model_dispatch():
    model = build_model(ModelSpecifier("spin_half", {"gamma": 1.0,
                                                     "kappa": 0.005,
                                                     "omega": 5.025}))
    assert model.dim == 2
    gen = build_model(ModelSpecifier("double_well", {"fast": 1.0,
                                                     "slow": 1e-3}))
    assert gen.dim == 3
    rnd = build_model(ModelSpecifier("random_lindbladian",
                                     {"dim": 2, "n_jumps": 2}, seed=5))
    assert rnd.dim == 2
    with pytest.raises(ValueError):
        build_model(ModelSpecifier("unknown_model"))
    with pytest.raises(ValueError):
        build_model(ModelSpecifier("spin_half", {"bogus": 1.0}))


def test_random_lindbladian_rejects_non_integral_sizes():
    # a size is never truncated: dim=2.5 is not a D = 2 model
    for params in ({"dim": 2.5}, {"n_jumps": 1.7}, {"dim": 3, "n_jumps": 0.5}):
        with pytest.raises(ValueError, match="must be an integer"):
            build_model(ModelSpecifier("random_lindbladian", params))
    # integral floats (the CLI parses dim=3 as 3.0) and ints build the same
    as_float = build_model(ModelSpecifier("random_lindbladian",
                                          {"dim": 3.0, "n_jumps": 2.0}, seed=1))
    as_int = build_model(ModelSpecifier("random_lindbladian",
                                        {"dim": 3, "n_jumps": 2}, seed=1))
    assert as_float.dim == 3 and len(as_float.jumps) == 2
    assert np.array_equal(as_float.hamiltonian, as_int.hamiltonian)
