import math

import numpy as np
import pytest

from metastab.models import spin_half_dephasing
from metastab.regimes import QuantumBackend
from metastab.superop import QuantumModel, build_liouvillian, spectral_decompose

GAMMA, KAPPA, OMEGA = 1.0, 0.005, 5.025
DECAY_FAST = (GAMMA + KAPPA) / 2.0  # real decay rate of the oscillating pair


def spin_mode_distance(t1, t2):
    """Exact induced distance between spin-model evolution maps: the largest
    singular value of the difference of the 3x3 Bloch maps, which for this
    model is the larger of the two mode differences."""
    slow = abs(np.exp(-KAPPA * t1) - np.exp(-KAPPA * t2))
    z = -DECAY_FAST + 1j * OMEGA
    fast = abs(np.exp(z * t1) - np.exp(z * t2))
    return max(slow, fast)


def bloch_map(superop_matrix):
    """3x3 Bloch-sphere action of a qubit superoperator, plus the affine
    offset and trace row; independent check for induced norms of
    identity-annihilating maps."""
    from metastab.models import SPIN_X, SPIN_Y, SPIN_Z
    from metastab.superop import unvec, vec

    paulis = [2 * SPIN_X, 2 * SPIN_Y, 2 * SPIN_Z]
    B = np.zeros((3, 3))
    for b, sb in enumerate(paulis):
        out = unvec(superop_matrix @ vec(sb / 2.0), 2)
        for a, sa in enumerate(paulis):
            B[a, b] = np.real(np.trace(sa @ out))
    return B


@pytest.fixture(scope="session")
def spin_model():
    return spin_half_dephasing(GAMMA, KAPPA, OMEGA)


@pytest.fixture(scope="session")
def spin_liouvillian(spin_model):
    return build_liouvillian(spin_model)


@pytest.fixture(scope="session")
def spin_spectral(spin_liouvillian):
    return spectral_decompose(spin_liouvillian)


@pytest.fixture(scope="session")
def spin_backend(spin_model):
    return QuantumBackend(model=spin_model, seed=0)


# battery rows that depend on the stationary projection: a wrong projection
# may fail these and only these (acceptance criterion 4's negative control)
CRITERION_4_TARGETED = frozenset({
    "change2_ss", "ss_exp", "change_spectral_ss", "spectral_tau", "tau_order",
    "tau_prime_ratio", "dist_ss_P", "IPss", "dprime_exp", "prime_lin",
    "meta_corr", "spectral_tau2", "cdelta_bounded"})


def three_level_double_well(slow):
    """Quantum three-level chain: levels 0 and 1 exchange at rate 1, level 2
    couples to level 1 at the slow rate in both directions. Its D = 3
    battery has a metastable ratio-2 window below the relaxation cutoff."""
    def jump(i, j, rate):
        L = np.zeros((3, 3), dtype=complex)
        L[i, j] = math.sqrt(rate)
        return L

    return QuantumModel(hamiltonian=np.diag([0.0, 0.3, 0.7]).astype(complex),
                        jumps=(jump(1, 0, 1.0), jump(0, 1, 1.0),
                               jump(2, 1, slow), jump(1, 2, slow)))


def random_hermitian(rng, dim):
    G = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return (G + G.conj().T) / 2


def random_state(rng, dim):
    v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    v /= np.linalg.norm(v)
    return np.outer(v, v.conj())


BACKEND_CACHES = ("_norm_cache", "_evo_cache")


def cache_snapshot(dyn):
    """Each backend cache with a shallow copy of its contents."""
    return {name: (getattr(dyn, name), dict(getattr(dyn, name)))
            for name in BACKEND_CACHES}


def assert_caches_untouched(dyn, snapshot):
    """The caches are the same objects, holding the same entries."""
    assert "stationary_matrix" not in vars(dyn)
    for name, (cache, contents) in snapshot.items():
        assert getattr(dyn, name) is cache, name
        assert cache.keys() == contents.keys(), name
        assert all(cache[k] is v for k, v in contents.items()), name
