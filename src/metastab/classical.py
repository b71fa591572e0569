"""Continuous-time Markov chains with exact l1-induced norms: the classical
translation of the regime machinery, and its strongest end-to-end oracle.

Probability vectors are columns; rate matrices have nonnegative off-diagonal
entries and columns summing to zero, so e^{tQ} is column-stochastic and the
1->1 matrix norm (max column absolute sum) plays the role of the induced
trace norm.

A chain evolves on the shared spectral core, e^{tQ} = V diag(e^{t lambda})
V^-1, as a quantum model does. The norms are exact, evaluated on an
evolution that carries about 1e-16 cond(V) of round-off; a defective chain
(cond(V) above DEFECT_TOL) evolves through scipy's expm instead.
"""
from dataclasses import dataclass

import numpy as np

from .norms import InducedNormResult
from .regimes import DynamicsBackend
from .superop import (DEFECT_TOL, DefectiveLiouvillianError, QuantumModel,
                      SpectralData, _sort_order, _zero_tol)


@dataclass(frozen=True)
class ClassicalGenerator:
    """Rate matrix of a continuous-time Markov chain (column convention)."""

    rates: np.ndarray

    def __post_init__(self):
        Q = np.asarray(self.rates, dtype=float)
        if Q.ndim != 2 or Q.shape[0] != Q.shape[1]:
            raise ValueError("rate matrix must be square")
        if not Q.size:
            raise ValueError("a chain needs at least one state")
        if not np.all(np.isfinite(Q)):
            raise ValueError("rates must be finite")
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
    """Column-stochastic transition matrix e^{tQ} by scaling and squaring:
    the evolution of a defective chain, and a cross check of the spectral
    one."""
    # imported here, so that only a defective chain loads scipy; a repeat
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
    """Dynamics backend with exact l1 norms; no optimizer error enters. It
    evaluates each keyed map as it is read, as a value (see _uncached)."""

    def __init__(self, generator):
        self.generator = generator
        lam, V = np.linalg.eig(generator.rates)
        order = _sort_order(lam)
        lam, V = lam[order], V[:, order]
        cond = float(np.linalg.cond(V))
        zero_tol = _zero_tol(lam)
        # a defective chain still evolves; only its projections raise
        defective = not np.isfinite(cond) or cond > DEFECT_TOL
        super().__init__(
            SpectralData(dim=generator.dim, eigenvalues=lam, right_vecs=V,
                         left_dual=None if defective else np.linalg.inv(V),
                         m_ss=int(np.sum(np.abs(lam) <= zero_tol)),
                         zero_tol=zero_tol, eigvec_condition=cond),
            np.eye(generator.dim))

    def _evolve(self, t):
        if self.spectral.left_dual is None:
            return classical_evolution(self.generator, t)
        # real up to round-off; a copy, because a .real view would keep the
        # complex matrix alive in the evolution cache
        return super()._evolve(t).real.copy()

    def generator_matrix(self):
        return self.generator.rates

    def _slow_projector(self, m):
        if self.spectral.left_dual is None:
            raise DefectiveLiouvillianError(np.inf)
        P = super()._slow_projector(m)
        # projectors of a real rate matrix are real up to round-off
        return P.real if np.max(np.abs(P.imag)) < 1e-10 else P

    # Keyed maps are not batched: evaluating a round's todo as records in
    # one stack, as a quantum backend does, measured slower and larger on
    # the classical-chains benchmark (2-vCPU VM, 4 runs each: detect 0.043
    # -> 0.077 s, peak RSS 96 -> 135 MB). So every todo is empty: together
    # yields no round, prefetch evaluates none, and reads evaluate each map
    def _uncached(self, keys):
        return {}

    def _norm_of(self, key):
        # l1_norm's value alone: a record per read is the cost noted above
        value = self._norm_cache.get(key)
        if value is None:
            value = self._norm_cache[key] = l1_norm(self._norm_map(key))
        return value

    def norm_results(self, Ms, above=None):
        # exact records with a basis-vector witness, for the generator and
        # the battery's correlator maps; an exact value settles above
        results = []
        for M in Ms:
            value = l1_norm(M)
            j = int(np.argmax(np.abs(M).sum(axis=0)))
            results.append(InducedNormResult(
                value=value, witness_state=np.eye(self.dim)[:, j],
                witness_observable=np.sign(M[:, j]), iterations=0,
                restarts_used=1, converged=True,
                restart_values=np.array([value]), exact=True))
        return results

    def random_observable(self, rng):
        f = rng.normal(size=self.dim)
        return f / np.max(np.abs(f))

    def observable_max_norm(self, obs):
        return float(np.max(np.abs(obs)))

    def correlator_matrix(self, obs):
        return np.diag(np.asarray(obs, dtype=float))


def classical_backend(generator):
    """Adapter exposing a rate matrix to the generic regime machinery."""
    return ClassicalBackend(generator)


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


def rate_matrix_from_json(data):
    """Dense rate matrix from decoded JSON: an array of rows, or an object
    with a "rates" (or "Q") entry holding one."""
    if isinstance(data, dict):
        data = data.get("rates", data.get("Q"))
        if data is None:
            raise ValueError("classical model JSON needs a 'rates' entry")
    return ClassicalGenerator(np.asarray(data, dtype=float))


def rate_matrix_from_edges(text, dim=None):
    """Rate matrix from an edge list, one 'i j rate' triple per line.

    Indices are zero-based source -> target; the diagonal is filled so the
    columns sum to zero. Blank lines and '#' comments are skipped. dim, when
    given, is the number of states (at least 1), and every index must lie
    below it; otherwise it is the largest index plus one.
    """
    if dim is not None and dim < 1:
        raise ValueError("dim must be at least 1, got %r" % (dim,))
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
        if i < 0 or j < 0:
            raise ValueError("line %d: negative state index" % ln)
        if dim is not None and max(i, j) >= dim:
            raise ValueError("line %d: state index %d out of range for dim %d"
                             % (ln, i if i >= dim else j, dim))
        if i == j:
            raise ValueError("line %d: self-loops are not allowed" % ln)
        if rate < 0:
            raise ValueError("line %d: negative rate" % ln)
        entries.append((i, j, rate))
        max_idx = max(max_idx, i, j)
    n = max_idx + 1 if dim is None else dim
    Q = np.zeros((n, n))
    for i, j, rate in entries:
        Q[j, i] += rate  # rate i -> j enters column i, row j
    Q -= np.diag(Q.sum(axis=0))
    return ClassicalGenerator(Q)
