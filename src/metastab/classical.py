"""Continuous-time Markov chains with exact l1-induced norms: the classical
translation of the regime machinery, and its strongest end-to-end oracle.

Probability vectors are columns; rate matrices have nonnegative off-diagonal
entries and columns summing to zero, so e^{tQ} is column-stochastic and the
1->1 matrix norm (max column absolute sum) plays the role of the induced
trace norm.
"""
import json
from dataclasses import dataclass

import numpy as np

from .norms import InducedNormResult
from .regimes import DynamicsBackend
from .superop import (DEFECT_TOL, DefectiveLiouvillianError, QuantumModel,
                      SpectralData, _sort_order)


@dataclass(frozen=True)
class ClassicalGenerator:
    """Rate matrix of a continuous-time Markov chain (column convention)."""

    rates: np.ndarray

    def __post_init__(self):
        Q = np.asarray(self.rates, dtype=float)
        if Q.ndim != 2 or Q.shape[0] != Q.shape[1]:
            raise ValueError("rate matrix must be square")
        off = Q - np.diag(np.diag(Q))
        if off.min() < -1e-12:
            raise ValueError("off-diagonal rates must be nonnegative")
        if np.max(np.abs(Q.sum(axis=0))) > 1e-12 * max(1.0, np.abs(Q).max()):
            raise ValueError("columns of the rate matrix must sum to zero")
        object.__setattr__(self, "rates", Q)

    @property
    def dim(self):
        return self.rates.shape[0]


def classical_evolution(generator, t):
    """Column-stochastic transition matrix e^{tQ}."""
    # imported here, so that the quantum commands load no scipy; a repeat
    # import is a sys.modules lookup
    import scipy.linalg

    if t < 0:
        raise ValueError("the dynamics is a semigroup: t must be >= 0")
    return scipy.linalg.expm(t * generator.rates)


def l1_norm(M):
    """Exact 1->1 induced norm: max over columns of the column absolute sum."""
    M = np.atleast_2d(M)
    return float(np.max(np.abs(M).sum(axis=0)))


def l1_induced_distance(generator, t1, t2):
    """Exact l1-induced distance between transition matrices at two times."""
    return l1_norm(classical_evolution(generator, t1)
                   - classical_evolution(generator, t2))


class ClassicalBackend(DynamicsBackend):
    """Dynamics backend with exact norms; no optimizer error enters."""

    def __init__(self, generator, zero_tol=None):
        self.generator = generator
        lam, V = np.linalg.eig(generator.rates)
        order = _sort_order(lam)
        lam, V = lam[order], V[:, order]
        cond = float(np.linalg.cond(V))
        if zero_tol is None:
            zero_tol = 1e-9 * float(np.max(np.abs(lam))) + 1e-300
        # a defective chain still evolves; only its projections raise
        defective = not np.isfinite(cond) or cond > DEFECT_TOL
        super().__init__(
            SpectralData(dim=generator.dim, eigenvalues=lam, right_vecs=V,
                         left_dual=None if defective else np.linalg.inv(V),
                         m_ss=int(np.sum(np.abs(lam) <= zero_tol)),
                         zero_tol=zero_tol, eigvec_condition=cond),
            np.eye(generator.dim))

    def _evolve(self, t):
        return classical_evolution(self.generator, t)

    def generator_matrix(self):
        return self.generator.rates

    def slow_projector_matrix(self, m):
        if self.spectral.left_dual is None:
            raise DefectiveLiouvillianError(np.inf)
        P = super().slow_projector_matrix(m)
        # projectors of a real rate matrix are real up to round-off
        return P.real if np.max(np.abs(P.imag)) < 1e-10 else P

    def matrix_norm(self, M, warm=None):
        return l1_norm(M)

    def norm_result(self, M, warm=None):
        # exact evaluation with a basis-vector witness; the value is
        # l1_norm's, so it equals matrix_norm bit for bit
        value = l1_norm(M)
        j = int(np.argmax(np.abs(M).sum(axis=0)))
        return InducedNormResult(
            value=value, witness_state=np.eye(self.dim)[:, j],
            witness_observable=np.sign(M[:, j]), iterations=0,
            restarts_used=1, converged=True,
            restart_values=np.array([value]), exact=True)

    def random_observable(self, rng):
        f = rng.normal(size=self.dim)
        return f / np.max(np.abs(f))

    def observable_max_norm(self, obs):
        return float(np.max(np.abs(obs)))

    def correlator_matrix(self, obs):
        return np.diag(np.asarray(obs, dtype=float))


def classical_backend(generator, zero_tol=None):
    """Adapter exposing a rate matrix to the generic regime machinery."""
    return ClassicalBackend(generator, zero_tol=zero_tol)


def embed_as_lindbladian(generator):
    """Classical jumps as a dephasing-free quantum model: J_ij = sqrt(Q_ij)
    |i><j| for i != j, zero Hamiltonian."""
    Q = generator.rates
    n = generator.dim
    jumps = []
    for i in range(n):
        for j in range(n):
            if i != j and Q[i, j] > 0:
                J = np.zeros((n, n), dtype=complex)
                J[i, j] = np.sqrt(Q[i, j])
                jumps.append(J)
    return QuantumModel(hamiltonian=np.zeros((n, n), dtype=complex),
                        jumps=tuple(jumps))


def rate_matrix_from_json(text):
    """Dense rate matrix from a JSON array (or {"rates": [[...]]})."""
    data = json.loads(text)
    if isinstance(data, dict):
        data = data.get("rates", data.get("Q"))
        if data is None:
            raise ValueError("classical model JSON needs a 'rates' entry")
    return ClassicalGenerator(np.asarray(data, dtype=float))


def rate_matrix_from_edges(text, dim=None):
    """Rate matrix from an edge list, one 'i j rate' triple per line.

    Indices are zero-based source -> target; the diagonal is filled so the
    columns sum to zero. Blank lines and '#' comments are skipped.
    """
    entries = []
    max_idx = -1
    for ln, line in enumerate(text.splitlines(), 1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) != 3:
            raise ValueError("line %d: expected 'i j rate', got %r" % (ln, line))
        i, j, rate = int(parts[0]), int(parts[1]), float(parts[2])
        if i == j:
            raise ValueError("line %d: self-loops are not allowed" % ln)
        if rate < 0:
            raise ValueError("line %d: negative rate" % ln)
        entries.append((i, j, rate))
        max_idx = max(max_idx, i, j)
    n = dim or max_idx + 1
    Q = np.zeros((n, n))
    for i, j, rate in entries:
        Q[j, i] += rate  # rate i -> j enters column i, row j
    Q -= np.diag(Q.sum(axis=0))
    return ClassicalGenerator(Q)
