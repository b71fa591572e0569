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
whenever any restart reaches the global optimum. _alternating_ascents runs
the ascent on several maps in lockstep, with the same result for each map as
a call of its own. induced_trace_norm always runs the ascent, at every
dimension.

Both coordinate maxima need eigen-information of a Hermitian D x D matrix.
At D = 3, during the burn-in iterations, where each map runs all its
restarts, the steps use closed forms evaluated along the whole stack: the
trigonometric roots of the characteristic cubic, the sign operator from one
spectral projector and the top eigenvector from a column of a product of
shifted matrices. A matrix with a near-degenerate pair of eigenvalues goes
to LAPACK eigh on its own. After burn-in (a few chains per map, where numpy's
per-call overhead outweighs the saving) and at D >= 4, every step uses eigh.
"""
import functools
import math
from dataclasses import dataclass

import numpy as np

from .operators import is_hermitian, max_norm
from .superop import Superoperator

DEFAULT_MAX_ITER = 200
DEFAULT_REL_TOL = 1e-10
# maps per lockstep pass of _alternating_ascents; bounds its working arrays
LOCKSTEP_MAPS = 32


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


def _sign_step(W):
    """O-step by eigh: sum |lambda| and the sign operator of each W."""
    evals, evecs = np.linalg.eigh(W)
    return np.abs(evals).sum(axis=1), _batch_sign_observables(evals, evecs)


def _top_eigvec(A):
    """psi-step by eigh: a unit top eigenvector of each A."""
    return np.linalg.eigh(A)[1][:, :, -1]


# --- closed-form 3 x 3 steps -------------------------------------------------
#
# The helpers below work on the entries of a stack of n matrices as length-n
# rows (the (3, 3, n) view W.transpose(1, 2, 0)), so that every numpy
# operation runs along the stack. Each operation is elementwise in the matrix
# index, and sums over entries are written out rather than left to a numpy
# reduction: a matrix's result does not depend on the other matrices in the
# stack. A matrix whose closest pair of eigenvalues lies within
# CLOSED_FORM_MIN_GAP of its spectral norm goes to eigh instead, on its own.

CLOSED_FORM_MIN_GAP = 1e-3
# p^2 (the squared eigenvalue spread) is 0 for multiples of I and underflows
# for tiny matrices; below this the cubic is not scaled and eigh takes over
_CLOSED_FORM_TINY = 1e-200
# arccos(x) / 3 + angle gives the top, middle and bottom eigenvalue
_TRIG_ANGLES = np.array([[0.0], [-2.0 * np.pi / 3.0], [2.0 * np.pi / 3.0]])
_EYE3 = np.eye(3)[:, :, None]
_UPPER3 = np.array([1, 2, 5])   # W01, W02, W12 in a flattened 3 x 3 matrix


def _eigvalsh3(W):
    """Eigenvalues of a stack of Hermitian 3 x 3 matrices as rows top,
    middle, bottom, and the mask of the matrices that need eigh.

    Trigonometric solution of the characteristic cubic (Smith 1961; Kopp
    2008, arXiv:physics/0610206): with m = tr W / 3, B = W - m I,
    p^2 = tr(B^2) / 6 and x = det(B) / (2 p^3), the eigenvalues are
    m + 2 p cos(arccos(x) / 3 + angle) for the three _TRIG_ANGLES. Errors
    stay at round-off times ||W|| except inside a near-degenerate pair, where
    arccos amplifies them; such matrices are in the mask.
    """
    flat = W.reshape(-1, 9)
    d = flat[:, ::4].T.real
    off = flat.take(_UPPER3, axis=1).T
    m = (d[0] + d[1] + d[2]) / 3
    e = d - m                                   # diagonal of B
    off2 = off.real ** 2 + off.imag ** 2
    e2 = e * e
    p2 = (e2[0] + e2[1] + e2[2]) / 6 + (off2[0] + off2[1] + off2[2]) / 3
    tiny = p2 < _CLOSED_FORM_TINY
    p2 = np.maximum(p2, _CLOSED_FORM_TINY)
    p = np.sqrt(p2)
    # W01 W12 W20 + its conjugate is the cyclic term of the determinant
    det = (e[0] * (e[1] * e[2] - off2[2]) - e[1] * off2[1] - e[2] * off2[0]
           + 2 * (off[0] * off[2] * flat[:, 6]).real)
    x = np.minimum(np.maximum(det / (2 * p2 * p), -1.0), 1.0)
    lam = np.cos(np.arccos(x) / 3 + _TRIG_ANGLES) * (2 * p)
    lam += m
    top, mid, bot = lam
    gap = np.minimum(top - mid, mid - bot)
    return lam, (gap <= CLOSED_FORM_MIN_GAP * np.maximum(top, -bot)) | tiny


def _sign_step3(W):
    """Closed-form O-step at D = 3: sum |lambda| and the sign operator.

    sigma, the sign of the middle eigenvalue, is the majority sign. When the
    outer eigenvalue on the other side of the middle one (lone) has the
    opposite sign, sign(W) = sigma (I - 2 P) with its spectral projector
    P = (W - mid)(W - far) / ((lone - mid)(lone - far)); otherwise
    sign(W) = sigma I.
    """
    lam, needs_eigh = _eigvalsh3(W)
    top, mid, bot = lam
    majority = mid >= 0
    lone = np.where(majority, bot, top)
    far = np.where(majority, top, bot)
    sigma = majority * 2.0 - 1.0
    H = W.transpose(1, 2, 0)
    B, C = H - _EYE3 * mid, H - _EYE3 * far
    # 0 / 0 only on degenerate matrices, which eigh redoes below
    with np.errstate(divide="ignore", invalid="ignore"):
        coef = ((sigma * ((top >= 0) & (bot < 0)) * -2.0)
                / ((lone - mid) * (lone - far)))
        # B @ C as three broadcast outer products
        obs = (B[:, 0, None] * C[0] + B[:, 1, None] * C[1]
               + B[:, 2, None] * C[2]) * coef
    obs += _EYE3 * sigma
    obs = obs.transpose(2, 0, 1)
    values = abs(top) + abs(mid) + abs(bot)
    if needs_eigh.any():
        values[needs_eigh], obs[needs_eigh] = _sign_step(W[needs_eigh])
    return values, obs


def _top_eigvec3(A):
    """Closed-form psi-step at D = 3: a unit top eigenvector of each A.

    (A - lam_2)(A - lam_3) = (lam_1 - lam_2)(lam_1 - lam_3) v v^dag, so its
    column of largest norm, the one with the largest diagonal entry, is v up
    to scale and phase.
    """
    lam, needs_eigh = _eigvalsh3(A)
    H = A.transpose(1, 2, 0)
    B = H - _EYE3 * lam[1]
    C = H - _EYE3 * lam[2]
    diag = (B * C.conj()).real                  # C is Hermitian
    col = (diag[:, 0] + diag[:, 1] + diag[:, 2]).argmax(axis=0)
    terms = B * C[:, col, np.arange(col.size)]
    v = terms[:, 0] + terms[:, 1] + terms[:, 2]
    v2 = v.real ** 2 + v.imag ** 2
    with np.errstate(divide="ignore", invalid="ignore"):
        v /= np.sqrt(v2[0] + v2[1] + v2[2])
    v = v.T
    if needs_eigh.any():
        v[needs_eigh] = _top_eigvec(A[needs_eigh])
    return v


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
    """Alternating-ascent maximization on a raw D^2 x D^2 matrix: the
    lockstep kernel of _alternating_ascents with a single map (T = 1)."""
    return _alternating_ascents(
        [M], dim, restarts=restarts, max_iter=max_iter, rel_tol=rel_tol,
        seed=seed, warms=[warm], burn_in=burn_in,
        keep_after_burn_in=keep_after_burn_in)[0]


def _alternating_ascents(Ms, dim, restarts=None, max_iter=DEFAULT_MAX_ITER,
                         rel_tol=DEFAULT_REL_TOL, seed=0, warms=None,
                         burn_in=25, keep_after_burn_in=4):
    """Alternating ascent on T raw D^2 x D^2 matrices at once.

    The T maps x R restarts advance in lockstep through batched coordinate
    steps (closed forms or eigh), at most LOCKSTEP_MAPS maps per pass. Chains
    are stored map after map, so each map's working chains form one
    contiguous block, and each block is multiplied by its own matrix in a
    plain gemm.
    Every map keeps its own seed states and warm start (warms[k]), its own
    convergence, and its own burn-in cull: after burn_in iterations the
    laggard chains of a map (strictly behind that map's leaders) are frozen
    and only its keep_after_burn_in leaders iterate to full tolerance; frozen
    values remain valid lower bounds. A map's result therefore does not
    depend on the other maps in the pass: it equals, bit for bit, the
    single-map call _alternating_ascent(Ms[k], dim, warm=warms[k]).
    Returns one InducedNormResult per map, in order.
    """
    if warms is None:
        warms = [None] * len(Ms)
    if len(Ms) > LOCKSTEP_MAPS:
        step = LOCKSTEP_MAPS
        return [res for lo in range(0, len(Ms), step)
                for res in _alternating_ascents(
                    Ms[lo:lo + step], dim, restarts=restarts,
                    max_iter=max_iter, rel_tol=rel_tol, seed=seed,
                    warms=warms[lo:lo + step], burn_in=burn_in,
                    keep_after_burn_in=keep_after_burn_in)]
    if restarts is None:
        restarts = max(16, 4 * dim)
    T = len(Ms)
    seeds = [_seed_states(dim, restarts, seed, w) for w in warms]
    psi_full = np.concatenate(seeds)
    sizes = [s.shape[0] for s in seeds]
    owner = np.repeat(np.arange(T), sizes)          # map of each chain
    first = np.concatenate(([0], np.cumsum(sizes)))  # first chain of each map
    Mts = [M.T for M in Ms]
    Mcs = [M.conj() for M in Ms]

    N = psi_full.shape[0]
    values_full = np.zeros(N)
    obs_full = np.zeros((N, dim, dim), dtype=complex)
    iterations_full = np.zeros(N, dtype=int)
    converged_full = np.zeros(N, dtype=bool)

    work = np.arange(N)          # indices of chains still iterating
    bounds = first               # work[bounds[k]:bounds[k + 1]]: map k's chains
    psi = psi_full.copy()
    it = 0
    while it < max_iter and work.size:
        it += 1
        n = work.size
        # closed forms while maps run all their restarts; the choice rests on
        # dim and it alone, never on the stack, like each matrix's fallback
        closed_form = dim == 3 and it <= burn_in
        # coordinate step in O: sign observable of X(psi psi^dag)
        rho = psi[:, :, None] * psi[:, None, :].conj()          # rho[r,i,j]
        rho_vec = rho.transpose(0, 2, 1).reshape(n, dim * dim)  # column stacking
        W = _blockwise_product(rho_vec, Mts, bounds)
        W = W.reshape(n, dim, dim).transpose(0, 2, 1)
        W = (W + W.conj().transpose(0, 2, 1)) / 2
        new_values, obs = (_sign_step3 if closed_form else _sign_step)(W)
        prev = values_full[work]
        # ascent monotonicity is a structural property; tolerate round-off only
        if np.any(new_values < prev - 1e-9 * np.maximum(1.0, prev)):
            raise AssertionError("alternating ascent objective decreased")
        values_full[work] = new_values
        obs_full[work] = obs
        psi_full[work] = psi
        iterations_full[work] = it

        done = np.abs(new_values - prev) <= rel_tol * np.maximum(1.0, new_values)
        converged_full[work[done]] = True
        next_mask = ~done
        # the cull happens once, at the end of burn-in: a map with at most
        # keep_after_burn_in unconverged chains then never has more later
        if it == max(burn_in, 1) and next_mask.any():
            # per map, freeze chains strictly behind the leaders; ties keep
            # lower index
            sub = work[next_mask]
            order = np.lexsort((sub, -values_full[sub], owner[sub]))
            ranked = owner[sub[order]]
            rank = np.arange(ranked.size) - np.searchsorted(ranked, ranked)
            keep = np.empty(ranked.size, dtype=bool)
            keep[order] = rank < keep_after_burn_in
            next_mask[np.flatnonzero(next_mask)[~keep]] = False
        if not next_mask.all():
            work = work[next_mask]
            psi = psi[next_mask]
            obs = obs[next_mask]
            if not work.size:
                break
            if T > 1:
                bounds = np.searchsorted(owner[work], np.arange(T + 1))

        # coordinate step in psi: top eigenvector of X^dag(O)
        n = work.size
        obs_vec = obs.transpose(0, 2, 1).reshape(n, dim * dim)
        A = _blockwise_product(obs_vec, Mcs, bounds)
        A = A.reshape(n, dim, dim).transpose(0, 2, 1)
        A = (A + A.conj().transpose(0, 2, 1)) / 2
        psi = (_top_eigvec3 if closed_form else _top_eigvec)(A)

    results = []
    for k in range(T):
        lo, hi = first[k], first[k + 1]
        best = lo + int(np.argmax(values_full[lo:hi]))
        results.append(InducedNormResult(
            value=float(values_full[best]),
            witness_state=psi_full[best].copy(),
            witness_observable=obs_full[best].copy(),
            iterations=int(iterations_full[best]),
            restarts_used=int(hi - lo),
            converged=bool(converged_full[best]),
            restart_values=values_full[lo:hi].copy(),
        ))
    return results


def _blockwise_product(vecs, mats, bounds):
    """Rows bounds[k]:bounds[k + 1] of vecs times mats[k], one plain gemm per
    map, so each block's product is exactly the single-map one."""
    if len(mats) == 1:
        return vecs @ mats[0]
    out = np.empty((vecs.shape[0], mats[0].shape[1]), dtype=complex)
    for k, mat in enumerate(mats):
        lo, hi = bounds[k], bounds[k + 1]
        if hi > lo:
            out[lo:hi] = vecs[lo:hi] @ mat
    return out


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
