"""Built-in parameterized models with known ground truth plus reproducible
random instance generators."""
import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from .classical import ClassicalGenerator
from .norms import _induced_norm_matrix
from .superop import QuantumModel, build_liouvillian

SPIN_X = np.array([[0.0, 0.5], [0.5, 0.0]], dtype=complex)
SPIN_Y = np.array([[0.0, -0.5j], [0.5j, 0.0]], dtype=complex)
SPIN_Z = np.array([[0.5, 0.0], [0.0, -0.5]], dtype=complex)


def spin_half_dephasing(gamma=1.0, kappa=0.005, omega=5.025):
    """Spin-1/2 with magnetic field, dephasing and infinite-temperature bath.

    H = -omega S_z, jumps sqrt(gamma) S_z, sqrt(kappa/2) (S_x + S_y) and
    sqrt(kappa/2) (S_x - S_y). Liouvillian eigenvalues are
    {0, -kappa, -(gamma+kappa)/2 +- i omega}.
    """
    if not all(map(math.isfinite, (gamma, kappa, omega))):
        raise ValueError("gamma, kappa and omega must be finite")
    if gamma < 0 or kappa < 0:
        raise ValueError("rates must be nonnegative")
    if gamma == 0 and kappa == 0:
        raise ValueError("rates must not both vanish")
    H = -omega * SPIN_Z
    jumps = [np.sqrt(gamma) * SPIN_Z,
             np.sqrt(kappa / 2.0) * (SPIN_X + SPIN_Y),
             np.sqrt(kappa / 2.0) * (SPIN_X - SPIN_Y)]
    return QuantumModel(hamiltonian=H, jumps=tuple(jumps))


def random_lindbladian(dim, n_jumps, seed, target_norm=1.0):
    """Random model with GUE-like Hamiltonian and Gaussian jump operators,
    rescaled so the induced norm of its generator is target_norm (in [0.5, 2]).
    The norm is the backend's: exact at D = 2, the ascent's lower bound above.
    Deterministic under seed.
    """
    if dim < 2:
        raise ValueError("dim must be at least 2")
    if n_jumps < 1:
        raise ValueError("need at least one jump operator")
    if not 0.5 <= target_norm <= 2.0:
        raise ValueError("target_norm must lie in [0.5, 2]")
    rng = np.random.default_rng([int(seed), dim, n_jumps])
    G = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    H = (G + G.conj().T) / 2.0
    jumps = []
    for _ in range(n_jumps):
        J = (rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)))
        jumps.append(J / np.sqrt(2.0 * dim))
    raw = QuantumModel(hamiltonian=H, jumps=tuple(jumps))
    norm = _induced_norm_matrix(build_liouvillian(raw).matrix, dim,
                                seed=int(seed)).value
    s = target_norm / norm
    return QuantumModel(hamiltonian=s * H,
                        jumps=tuple(np.sqrt(s) * J for J in jumps))


def three_state_double_well(fast=1.0, slow=1e-3):
    """Classical three-state chain: states 1 and 2 exchange at the fast rate,
    state 3 couples to state 2 at the slow rate in both directions."""
    if not fast > slow > 0:
        raise ValueError("rates must satisfy fast > slow > 0")
    Q = np.zeros((3, 3))
    # column j holds outflow of state j: Q[i, j] is the rate j -> i
    Q[1, 0] = fast
    Q[0, 1] = fast
    Q[2, 1] = slow
    Q[1, 2] = slow
    np.fill_diagonal(Q, 0.0)
    Q -= np.diag(Q.sum(axis=0))
    return ClassicalGenerator(Q)


@dataclass(frozen=True)
class ModelSpecifier:
    """Named model plus parameters, the JSON-facing description of a run."""

    name: str
    params: dict = field(default_factory=dict)
    seed: int | None = None


_BUILTIN_PARAMS = {
    "spin_half": ("gamma", "kappa", "omega"),
    "random_lindbladian": ("dim", "n_jumps"),
    "double_well": ("fast", "slow"),
}


def _integral_param(params, name, default):
    """An integer parameter; integral floats (the CLI parses dim=3 as 3.0)
    pass, others (2.5, "two", [2], null, true) are rejected rather than
    truncated or read as 1."""
    value = params.get(name, default)
    try:
        number = math.nan if isinstance(value, bool) else float(value)
    except (TypeError, ValueError):
        number = math.nan
    if not number.is_integer():
        raise ValueError("parameter %r must be an integer, got %r"
                         % (name, value))
    return int(number)


def _real_param(name, value):
    """A real parameter as a float: numbers and numeric text pass; null,
    booleans and containers are rejected."""
    if isinstance(value, bool) or not isinstance(value, (numbers.Real, str)):
        raise ValueError("parameter %r must be a number, got %r"
                         % (name, value))
    return float(value)


def build_model(spec):
    """Instantiate a built-in model from a ModelSpecifier.

    Returns a QuantumModel or a ClassicalGenerator; unknown names, unknown
    parameters and boolean parameter values are rejected.
    """
    if not isinstance(spec.name, str) or spec.name not in _BUILTIN_PARAMS:
        raise ValueError("unknown model %r (known: %s)"
                         % (spec.name, ", ".join(sorted(_BUILTIN_PARAMS))))
    allowed = _BUILTIN_PARAMS[spec.name]
    unknown = set(spec.params) - set(allowed)
    if unknown:
        raise ValueError("unknown parameters %s for model %r"
                         % (sorted(unknown), spec.name))
    if spec.name == "random_lindbladian":
        dim = _integral_param(spec.params, "dim", 2)
        n_jumps = _integral_param(spec.params, "n_jumps", 2)
        return random_lindbladian(dim, n_jumps, seed=spec.seed or 0)
    builder = spin_half_dephasing if spec.name == "spin_half" \
        else three_state_double_well
    return builder(**{k: _real_param(k, v) for k, v in spec.params.items()})
