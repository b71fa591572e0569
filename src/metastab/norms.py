"""Trace-norm-induced superoperator norm: exact for qubits, alternating
ascent above.

For a Hermiticity-preserving map X the induced norm sup ||X(rho)||_1 over
states is attained on pure states, so the problem is the bilinear
maximization of Tr[O X(psi psi^dag)] over unit vectors psi and reflections O.

At D = 2 the backend path (_induced_norm_matrix) is exact: in the Pauli basis
the problem reduces to a maximization over the Bloch sphere that a secular
equation solves in closed form. At D >= 3 it runs the alternating ascent:
both coordinate maxima have closed forms (sign operator of X(psi psi^dag),
top eigenvector of X^dag(O)), giving a monotone ascent; multiple restarts
guard against local maxima. Ascent values are certified lower bounds, exact
whenever any restart reaches the global optimum. induced_trace_norm always
runs the ascent, at every dimension.
"""
import functools
import math
from dataclasses import dataclass

import numpy as np

from .operators import is_hermitian
from .superop import Superoperator

DEFAULT_MAX_ITER = 200
DEFAULT_REL_TOL = 1e-10


@dataclass(frozen=True)
class InducedNormResult:
    value: float
    witness_state: np.ndarray
    witness_observable: np.ndarray
    iterations: int
    restarts_used: int
    converged: bool
    restart_values: np.ndarray
    exact: bool = False

    @property
    def restart_dispersion(self):
        """Spread of restart optima; a heuristic confidence indicator."""
        v = self.restart_values
        return float(v.max() - v.min()) if v.size else 0.0


@functools.lru_cache(maxsize=None)
def _bloch_grid_states():
    """24 unit vectors covering the qubit state space (D = 2 only)."""
    states = []
    for iz in range(4):
        theta = np.pi * (iz + 0.5) / 4
        for ip in range(6):
            phi = 2 * np.pi * ip / 6
            states.append([np.cos(theta / 2),
                           np.exp(1j * phi) * np.sin(theta / 2)])
    return np.array(states, dtype=complex)


@functools.lru_cache(maxsize=64)
def _deterministic_seed_block(dim, n_random, seed):
    rng = np.random.default_rng([seed, dim])
    v = rng.normal(size=(n_random, dim)) + 1j * rng.normal(size=(n_random, dim))
    return v / np.linalg.norm(v, axis=1)[:, None]


def _seed_states(dim, n_restarts, seed, warm=None):
    seeds = []
    if warm is not None:
        w = np.asarray(warm, dtype=complex).reshape(-1)
        seeds.append(w / np.linalg.norm(w))
    seeds.extend(np.eye(dim, dtype=complex))
    if dim == 2:
        seeds.extend(_bloch_grid_states())
    missing = n_restarts - len(seeds)
    if missing > 0:
        seeds.extend(_deterministic_seed_block(
            dim, missing, 0 if seed is None else int(seed)))
    return np.array(seeds[:n_restarts], dtype=complex)


def _batch_sign_observables(evals, evecs):
    signs = np.where(evals >= 0.0, 1.0, -1.0)
    return np.einsum("rik,rk,rjk->rij", evecs, signs, evecs.conj())


def _induced_norm_matrix(M, dim, restarts=None, max_iter=DEFAULT_MAX_ITER,
                         rel_tol=DEFAULT_REL_TOL, seed=0, warm=None):
    """Induced trace norm of a raw D^2 x D^2 Hermiticity-preserving matrix:
    exact at D = 2 (the ascent settings are then unused), the alternating
    ascent's lower bound at D >= 3."""
    if dim == 2:
        return _qubit_induced_norm(M)
    return _alternating_ascent(M, dim, restarts=restarts, max_iter=max_iter,
                               rel_tol=rel_tol, seed=seed, warm=warm)


# column-stacked Pauli matrices: _PAULI_VECS[:, k] = vec(sigma_k), sigma_0 = I
_PAULI_VECS = np.array([[1, 0, 0, 1], [0, 1, 1, 0], [0, 1j, -1j, 0],
                        [1, 0, 0, -1]], dtype=complex).T


def _sphere_argmax(B, c):
    """Unit vector r maximizing |c + B r| for a real 3 x 3 B.

    Stationary points solve (mu - A) r = g with A = B^T B and g = B^T c; the
    global maximum has mu >= lambda_max(A) (More & Sorensen 1983; Gander,
    Golub & von Matt 1989). In the eigenbasis of A, with mu = lambda_max + s
    and d_k = lambda_max - lambda_k, |r| = 1 is the secular equation
    sum_k g_k^2 / (s + d_k)^2 = 1. Its left side falls monotonically in s, and
    1/|r(s)| is concave in s (a power mean of exponent -2 of the s + d_k), so
    Newton's method started left of the root climbs to it monotonically.
    Hard case: when g has no component on the top eigenvector and the other
    components alone give |r| <= 1, s = 0 and the top eigenvector fills r up
    to unit length.
    """
    lam, V = np.linalg.eigh(B.T @ B)
    g = (V.T @ (B.T @ c)).tolist()
    d = (lam[-1] - lam).tolist()
    g2 = [x * x for x in g]

    def radius(s):
        return math.sqrt(sum(w / (s + dk) ** 2 for w, dk in zip(g2, d) if w))

    # left of the root: |r(s)| >= |g_k| / (s + d_k) >= 1 for some k
    s = max(0.0, max(abs(x) - dk for x, dk in zip(g, d)))
    n = radius(s)
    if s == 0.0 and n <= 1.0:
        # hard case: g_top = 0, and r is filled up along the top eigenvector
        coeffs = [x / dk if x else 0.0 for x, dk in zip(g, d)]
        coeffs[-1] = math.sqrt(1.0 - n * n)
    else:
        for _ in range(100):
            slope = sum(w / (s + dk) ** 3 for w, dk in zip(g2, d) if w) / n ** 3
            step = (1.0 - 1.0 / n) / slope
            if not step > 4e-16 * s:
                break
            s += step
            n = radius(s)
        coeffs = [x / (s + dk) if x else 0.0 for x, dk in zip(g, d)]
    r = V @ coeffs
    return r / math.hypot(*r)


def _qubit_induced_norm(M):
    """Exact induced trace norm of a Hermiticity-preserving qubit map.

    With T = S^dag M S / 2 in the Pauli basis (real part, which matches the
    ascent's Hermitian symmetrization of X(rho)), a pure state
    rho = (I + r.sigma)/2 maps to [(a + b.r) I + (c + B r).sigma]/2, whose
    trace norm is max(|a + b.r|, |c + B r|). The norm is therefore
    max(|a| + |b|, max_{|r|=1} |c + B r|). The value is evaluated at a unit
    r, so it never exceeds the true norm.
    """
    T = 0.5 * (_PAULI_VECS.conj().T @ M @ _PAULI_VECS).real
    a, b, c, B = T[0, 0], T[0, 1:], T[1:, 0], T[1:, 1:]
    b_norm = math.hypot(*b)
    # maximizer of |a + b.r|; with b = 0 any unit vector is one
    r_affine = math.copysign(1.0, a) * b / b_norm if b_norm > 0 \
        else np.array([0.0, 0.0, 1.0])
    best = None
    for r in (_sphere_argmax(B, c), r_affine):
        alpha = a + b @ r
        beta = c + B @ r
        beta_norm = math.hypot(*beta)
        value = max(abs(alpha), beta_norm)
        if best is None or value > best[0]:
            best = (value, r, alpha, beta, beta_norm)
    value, r, alpha, beta, beta_norm = best

    # Bloch vector r -> state vector, on the side of the sphere that is stable
    if r[2] >= 0:
        psi = np.array([1.0 + r[2], r[0] + 1j * r[1]])
    else:
        psi = np.array([r[0] - 1j * r[1], 1.0 - r[2]])
    psi /= np.linalg.norm(psi)
    # sign operator of X(psi psi^dag) = (alpha I + beta.sigma) / 2
    if alpha >= beta_norm:
        obs = np.eye(2, dtype=complex)
    elif alpha + beta_norm < 0:
        obs = -np.eye(2, dtype=complex)
    else:
        nx, ny, nz = beta / beta_norm
        obs = np.array([[nz, nx - 1j * ny], [nx + 1j * ny, -nz]])
    return InducedNormResult(
        value=float(value), witness_state=psi, witness_observable=obs,
        iterations=0, restarts_used=1, converged=True,
        restart_values=np.array([float(value)]), exact=True)


def _alternating_ascent(M, dim, restarts=None, max_iter=DEFAULT_MAX_ITER,
                        rel_tol=DEFAULT_REL_TOL, seed=0, warm=None,
                        burn_in=25, keep_after_burn_in=4):
    """Alternating-ascent maximization on a raw D^2 x D^2 matrix.

    All restarts advance in lockstep through batched eigendecompositions;
    chains are independent, so the result does not depend on scheduling.
    After a burn-in the laggard chains (strictly below the leaders) are
    frozen and only the leaders iterate to full tolerance; frozen values
    remain valid lower bounds.
    """
    if restarts is None:
        restarts = max(16, 4 * dim)
    psi_full = _seed_states(dim, restarts, seed, warm)
    R = psi_full.shape[0]
    Mt = M.T
    Mc = M.conj()

    values_full = np.zeros(R)
    obs_full = np.zeros((R, dim, dim), dtype=complex)
    iterations_full = np.zeros(R, dtype=int)
    converged_full = np.zeros(R, dtype=bool)

    work = np.arange(R)          # indices of chains still iterating
    psi = psi_full.copy()
    culled = False
    it = 0
    while it < max_iter and work.size:
        it += 1
        n = work.size
        # coordinate step in O: sign observable of X(psi psi^dag)
        rho = psi[:, :, None] * psi[:, None, :].conj()          # rho[r,i,j]
        rho_vec = rho.transpose(0, 2, 1).reshape(n, dim * dim)  # column stacking
        W = (rho_vec @ Mt).reshape(n, dim, dim).transpose(0, 2, 1)
        W = (W + W.conj().transpose(0, 2, 1)) / 2
        evals, evecs = np.linalg.eigh(W)
        new_values = np.abs(evals).sum(axis=1)
        prev = values_full[work]
        # ascent monotonicity is a structural property; tolerate round-off only
        if np.any(new_values < prev - 1e-9 * np.maximum(1.0, prev)):
            raise AssertionError("alternating ascent objective decreased")
        obs = _batch_sign_observables(evals, evecs)
        values_full[work] = new_values
        obs_full[work] = obs
        psi_full[work] = psi
        iterations_full[work] = it

        done = np.abs(new_values - prev) <= rel_tol * np.maximum(1.0, new_values)
        converged_full[work[done]] = True
        still = ~done
        if not culled and it >= burn_in and int(still.sum()) > keep_after_burn_in:
            # freeze chains strictly behind the leaders; ties keep lower index
            sub = work[still]
            order = np.lexsort((sub, -values_full[sub]))
            keep = np.zeros(still.sum(), dtype=bool)
            keep[order[:keep_after_burn_in]] = True
            next_mask = np.zeros(n, dtype=bool)
            next_mask[np.flatnonzero(still)[keep]] = True
            culled = True
        else:
            next_mask = still
        work = work[next_mask]
        psi = psi[next_mask]
        obs = obs[next_mask]
        if not work.size:
            break

        # coordinate step in psi: top eigenvector of X^dag(O)
        n = work.size
        obs_vec = obs.transpose(0, 2, 1).reshape(n, dim * dim)
        A = (obs_vec @ Mc).reshape(n, dim, dim).transpose(0, 2, 1)
        A = (A + A.conj().transpose(0, 2, 1)) / 2
        a_evals, a_evecs = np.linalg.eigh(A)
        psi = a_evecs[:, :, -1]

    best = int(np.argmax(values_full))
    return InducedNormResult(
        value=float(values_full[best]),
        witness_state=psi_full[best].copy(),
        witness_observable=obs_full[best].copy(),
        iterations=int(iterations_full[best]),
        restarts_used=R,
        converged=bool(converged_full[best]),
        restart_values=values_full.copy(),
    )


def induced_trace_norm(X, restarts=None, max_iter=DEFAULT_MAX_ITER,
                       rel_tol=DEFAULT_REL_TOL, seed=0, warm=None):
    """Trace-norm-induced norm of a Hermiticity-preserving superoperator.

    Runs the alternating ascent at every dimension, qubits included. Returns
    an InducedNormResult whose value is a lower bound on the true norm; the
    witness state and observable reproduce it exactly.
    """
    if not isinstance(X, Superoperator):
        raise TypeError("induced_trace_norm expects a Superoperator")
    if not X.hermiticity_preserving:
        raise ValueError("induced norm is defined here only for "
                         "hermiticity-preserving superoperators")
    return _alternating_ascent(X.matrix, X.dim, restarts=restarts,
                               max_iter=max_iter, rel_tol=rel_tol,
                               seed=seed, warm=warm)


def max_norm_induced(X, restarts=None, max_iter=DEFAULT_MAX_ITER,
                     rel_tol=DEFAULT_REL_TOL, seed=0):
    """Max-norm-induced norm sup ||X(O)||_max / ||O||_max over Hermitian O.

    By duality it is the induced trace norm of the Hilbert-Schmidt adjoint
    X^dag, so the value is the alternating ascent's lower bound on that.
    """
    if not isinstance(X, Superoperator):
        raise TypeError("max_norm_induced expects a Superoperator")
    if not X.hermiticity_preserving:
        raise ValueError("max-norm-induced norm is defined here only for "
                         "hermiticity-preserving superoperators")
    adjoint = Superoperator(X.dim, X.matrix.conj().T, hermiticity_preserving=True)
    return induced_trace_norm(adjoint, restarts=restarts, max_iter=max_iter,
                              rel_tol=rel_tol, seed=seed).value


def induced_norm_sampling_oracle(X, n_samples, seed=0, batch=20000):
    """Lower bound on the induced norm from Haar-random pure states.

    Independent of the alternating optimizer; intended as a cross check at
    small dimension.
    """
    if not isinstance(X, Superoperator):
        raise TypeError("induced_norm_sampling_oracle expects a Superoperator")
    dim = X.dim
    Mt = X.matrix.T
    rng = np.random.default_rng(seed)
    best = 0.0
    remaining = int(n_samples)
    while remaining > 0:
        n = min(batch, remaining)
        remaining -= n
        v = rng.normal(size=(n, dim)) + 1j * rng.normal(size=(n, dim))
        v /= np.linalg.norm(v, axis=1)[:, None]
        rho = v[:, :, None] * v[:, None, :].conj()
        rho_vec = rho.transpose(0, 2, 1).reshape(n, dim * dim)
        W = (rho_vec @ Mt).reshape(n, dim, dim).transpose(0, 2, 1)
        W = (W + W.conj().transpose(0, 2, 1)) / 2
        evals = np.linalg.eigvalsh(W)
        best = max(best, float(np.abs(evals).sum(axis=1).max()))
    return best


def measurement_superop_norm(kind, data):
    """Induced norms of measurement superoperators.

    kind 'von_neumann' and 'correlator' take a Hermitian observable and return
    its max norm exactly; 'povm' takes (kraus_list, weights) and returns the
    upper bound ||sum |x_n| P_n^dag P_n||_max.
    """
    from .operators import max_norm

    if kind in ("von_neumann", "correlator"):
        A = np.asarray(data, dtype=complex)
        if not is_hermitian(A, rtol=1e-10):
            raise ValueError("%s norm requires a Hermitian observable" % kind)
        return max_norm(A)
    if kind == "povm":
        kraus, weights = data
        kraus = [np.asarray(P, dtype=complex) for P in kraus]
        weights = np.asarray(weights, dtype=float)
        if len(kraus) != weights.size:
            raise ValueError("one weight per Kraus operator required")
        dim = kraus[0].shape[0]
        total = sum(P.conj().T @ P for P in kraus)
        if np.max(np.abs(total - np.eye(dim))) > 1e-9:
            raise ValueError("POVM completeness violated: sum P^dag P != identity")
        bound = sum(abs(x) * (P.conj().T @ P) for x, P in zip(weights, kraus))
        return max_norm(bound)
    raise ValueError("unknown measurement kind %r" % (kind,))


def correlator_superop(O):
    """Superoperator rho -> (O rho + rho O) / 2 encoding symmetrized correlations."""
    O = np.asarray(O, dtype=complex)
    if not is_hermitian(O, rtol=1e-10):
        raise ValueError("correlator superoperator requires a Hermitian observable")
    dim = O.shape[0]
    eye = np.eye(dim, dtype=complex)
    mat = (np.kron(eye, O) + np.kron(O.T, eye)) / 2
    return Superoperator(dim, mat, hermiticity_preserving=True, trace_preserving=False)
