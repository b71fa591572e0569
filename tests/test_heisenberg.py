import math

import numpy as np
import pytest

from metastab.classical import ClassicalBackend
from metastab.heisenberg import (asymptotic_observable, evolve_observable,
                                 observable_change, observable_trajectory,
                                 quasi_conserved_witness)
from metastab.models import (SPIN_X, SPIN_Z, random_lindbladian,
                             three_state_double_well)
from metastab.modes import change_thresholds
from metastab.norms import max_norm_induced
from metastab.operators import max_norm
from metastab.regimes import QuantumBackend, change_measure, _window_grid
from metastab.superop import QuantumModel, Superoperator, vec

from conftest import KAPPA, random_hermitian, random_state


def test_spin_z_heisenberg_decay(spin_backend):
    t = 1.0 / KAPPA
    O = evolve_observable(spin_backend, SPIN_Z, t)
    assert np.max(np.abs(O - math.exp(-1.0) * SPIN_Z)) < 1e-12


def test_identity_conserved(spin_backend):
    for t in (0.0, 3.0, 400.0):
        O = evolve_observable(spin_backend, np.eye(2), t)
        assert np.max(np.abs(O - np.eye(2))) < 1e-10


def test_asymptotic_observable_spin_x(spin_backend):
    assert np.max(np.abs(asymptotic_observable(spin_backend, SPIN_X))) < 1e-12


def test_asymptotic_observable_reads_the_views_projection(spin_backend):
    # a with_stationary view's P is the conserved limit: with P = I every
    # observable is conserved, where the model's own limit loses sx
    view = spin_backend.with_stationary(np.eye(4, dtype=complex))
    assert np.array_equal(asymptotic_observable(view, SPIN_X), SPIN_X)
    assert np.max(np.abs(asymptotic_observable(spin_backend, SPIN_X))) < 1e-12


def test_duality_with_state_picture(spin_backend):
    rng = np.random.default_rng(0)
    O = random_hermitian(rng, 2)
    rho = random_state(rng, 2)
    for t in (0.7, 12.0):
        lhs = np.trace(evolve_observable(spin_backend, O, t) @ rho)
        rho_t = spin_backend.evolution_matrix(t) @ vec(rho)
        rhs = vec(O.conj().T).conj() @ rho_t
        assert abs(lhs - rhs) < 1e-9


def test_evolve_rejections(spin_backend):
    with pytest.raises(ValueError, match="observable must be Hermitian"):
        evolve_observable(spin_backend, np.array([[0, 1], [0, 0]]), 1.0)
    with pytest.raises(ValueError, match="semigroup"):
        evolve_observable(spin_backend, SPIN_Z, -1.0)


def test_max_norm_contractivity(spin_backend):
    rng = np.random.default_rng(1)
    O = random_hermitian(rng, 2)
    traj = observable_trajectory(spin_backend, O, np.geomspace(0.01, 100, 20))
    for O_t in traj.values:
        assert max_norm(O_t) <= max_norm(O) + 1e-9
        assert np.max(np.abs(O_t - O_t.conj().T)) < 1e-10


def test_observable_change_examples(spin_backend):
    assert observable_change(spin_backend, np.eye(2), 20.0, 40.0) < 1e-12
    change = observable_change(spin_backend, SPIN_Z, 20.0, 40.0)
    assert change == pytest.approx(math.exp(-0.1) - math.exp(-0.2), abs=1e-9)
    with pytest.raises(ValueError):
        observable_change(spin_backend, np.zeros((2, 2)), 20.0, 40.0)


def test_observable_change_bounded(spin_backend):
    rng = np.random.default_rng(2)
    c, _ = change_measure(spin_backend, 20.0, 40.0)
    for _ in range(4):
        O = random_hermitian(rng, 2)
        change = observable_change(spin_backend, O, 20.0, 40.0)
        assert change <= 2.0 + 1e-9
        assert change <= c + 1e-6


def test_adjoint_evolution_max_induced_norm_is_one(spin_backend):
    for t in (0.5, 8.0):
        X = Superoperator(2, spin_backend.evolution_matrix(t).conj().T,
                          hermiticity_preserving=True)
        assert max_norm_induced(X) == pytest.approx(1.0, abs=1e-8)


def test_adjoint_eigenmode_change_bound(spin_backend, spin_spectral):
    rng = np.random.default_rng(3)
    spec = spin_spectral
    lam = spec.eigenvalues
    for _ in range(3):
        O = random_hermitian(rng, 2)
        O /= max_norm(O)
        t1, t2 = rng.uniform(0.1, 20.0, 2)
        dist = spin_backend.distance(t1, t2)
        for k in range(lam.size):
            R = spec.right_mode(k)
            overlap = abs(np.trace(O @ R)) / (max_norm(O) *
                                              np.sum(np.abs(np.linalg.svd(R, compute_uv=False))))
            lhs = overlap * abs(np.exp(t1 * lam[k]) - np.exp(t2 * lam[k]))
            assert lhs <= dist + 1e-8


def test_nonzero_observable_change():
    dyn = QuantumBackend(model=random_lindbladian(2, 2, seed=4))
    rng = np.random.default_rng(5)
    O = random_hermitian(rng, 2)
    O1 = evolve_observable(dyn, O, 0.4)
    O2 = evolve_observable(dyn, O, 2.9)
    assert max_norm(O1 - O2) > 1e-12


def test_observable_change_refines_an_end_maximum():
    # an observable's change can oscillate: here the grid maximum is the
    # window's last point, and the bounded maximiser inside the last grid
    # interval finds a larger change (0.025524957... against 0.025524913...)
    dyn = QuantumBackend(model=random_lindbladian(3, 2, seed=1))
    rng = np.random.default_rng(103)
    for _ in range(7):
        O = random_hermitian(rng, 3)
    t_start, t_end = 20.0, 40.0
    o_start = evolve_observable(dyn, O, t_start)
    grid = [max_norm(o_start - evolve_observable(dyn, O, t)) / max_norm(O)
            for t in _window_grid(t_start, t_end)]
    assert int(np.argmax(grid)) == len(grid) - 1
    assert observable_change(dyn, O, t_start, t_end) > max(grid)


def test_quasi_conserved_witness_spin(spin_backend):
    c, _ = change_measure(spin_backend, 20.0, 40.0)
    obs, drift = quasi_conserved_witness(spin_backend, 20.0, 40.0, 20.0)
    # the witness is the quasi-conserved magnetization direction
    traceless = obs - np.trace(obs) / 2 * np.eye(2)
    overlap = abs(np.trace(traceless.conj().T @ SPIN_Z)) / (
        np.linalg.norm(traceless) * np.linalg.norm(SPIN_Z))
    assert overlap > 0.999
    _, hi = change_thresholds(c)
    assert drift <= 3.0 * c / hi + 1e-6


def test_quasi_conserved_witness_error_paths(spin_backend):
    with pytest.raises(ValueError):
        quasi_conserved_witness(spin_backend, 20.0, 40.0, 30.0)
    # trivial dynamics: the projection equals the identity, no witness exists
    dyn = QuantumBackend(model=QuantumModel(hamiltonian=np.zeros((2, 2))))
    with pytest.raises(ValueError):
        quasi_conserved_witness(dyn, 1.0, 4.0, 1.0)


def test_classical_evolve_observable_is_the_transposed_evolution():
    dyn = ClassicalBackend(three_state_double_well())
    f = np.random.default_rng(6).normal(size=3)
    for t in (0.0, 0.3, 20.0, 5e3):
        assert np.array_equal(evolve_observable(dyn, f, t),
                              dyn.evolution_matrix(t).T @ f)
    P = dyn.stationary_matrix()
    assert np.array_equal(asymptotic_observable(dyn, f), P.T @ f)


def test_observable_change_and_witness_on_a_classical_backend():
    # the observable picture of the double well: a function's change is
    # bounded by the change measure, and the witness drifts as little as
    # the quantum one is required to
    dyn = ClassicalBackend(three_state_double_well())
    c, _ = change_measure(dyn, 20.0, 40.0)
    rng = np.random.default_rng(7)
    for _ in range(4):
        change = observable_change(dyn, rng.normal(size=3), 20.0, 40.0)
        assert 0.0 < change <= c + 1e-12
    obs, drift = quasi_conserved_witness(dyn, 20.0, 40.0, 20.0)
    # a real function that sets the slow state against the fast pair
    assert obs.shape == (3,) and obs.dtype == float
    assert obs[0] * obs[2] < 0 and abs(obs[0] - obs[1]) < 0.01 * abs(obs[2])
    _, hi = change_thresholds(c)
    assert drift <= 3.0 * c / hi + 1e-12
