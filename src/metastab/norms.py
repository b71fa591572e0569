"""Trace-norm-induced superoperator norm: exact for qubits, alternating
ascent above.

For a Hermiticity-preserving map X the induced norm sup ||X(rho)||_1 over
states is attained on pure states, so the problem is the bilinear
maximization of Tr[O X(psi psi^dag)] over unit vectors psi and reflections O.

Every norm call is (maps, D, seed), and every caller, the public
induced_trace_norm included, goes through _induced_norms, a single map as a
stack of one (_induced_norm_matrix). At D = 2 it is exact: in the Pauli
basis the problem reduces to a maximization over the Bloch sphere that a
secular equation solves in closed form, which _qubit_induced_norms evaluates
along the whole stack. At D >= 3 it runs the alternating ascent: both
coordinate maxima have closed forms (sign operator of X(psi psi^dag), top
eigenvector of X^dag(O)), giving a monotone ascent; multiple restarts, from
seed states fixed by D and the seed alone, guard against local maxima.
Ascent values are certified lower bounds, exact whenever any restart reaches
the global optimum. _alternating_ascents runs the ascent on several maps in
lockstep, with the same result for each map as a call of its own, in two
phases: burn-in passes of at most LOCKSTEP_MAPS maps with all their
restarts, then one shared pass for the few leading chains of every map in
the call. In the shared pass each chain also tries a Riemannian Newton step
(_newton_step), kept only if the next O-step finds its value no lower, so
that chains near a maximum finish quadratically instead of crawling through
the alternating ascent's linear tail.

Some callers only ask whether a norm exceeds a threshold (the scan's probe,
regimes.QuantumBackend.exceeds). For them _induced_norms takes above: every
O-step value is a certified lower bound, so the ascent stops a map at its
first value above the threshold and returns that value, which settles the
question, instead of the map's full lower bound. Maps that never exceed it
run in full, with the same result as without above.

The ascent holds its chains in real Hermitian coordinates: a stack of
Hermitian matrices as D^2 contiguous real rows (the diagonal, then Re and Im
of the upper triangle), a stack of states as 2D rows (Re psi, then Im psi),
one column per chain. Each map becomes two real D^2 x D^2 matrices once per
call, R for Herm X and R_dual for Herm X^dag (_coordinate_maps), and every
product is a real block product (_block_product) on blocks of one height that
the phase alone fixes: all restarts of a map in burn-in, one chain in the
shared pass, one chain's 2D - 2 tangent rows in the Newton image.

Both coordinate maxima need eigen-information of a Hermitian D x D matrix.
At D = 3 every coordinate step, in burn-in and in the shared pass alike,
uses closed forms on the coordinate rows along the whole stack: the
trigonometric roots of the characteristic cubic, the sign operator from one
spectral projector and the top eigenvector from a column of a product of
shifted matrices. A matrix with a near-degenerate pair of eigenvalues goes
to LAPACK eigh on its own, rebuilt from its coordinates. At D >= 4 every
coordinate step rebuilds the complex matrices and uses eigh. The Newton step
at D = 3 also runs on the coordinate rows from closed forms, with no LAPACK
call: its Daleckii-Krein term comes from the sign operator's lone spectral
projector, and an LDL^T elimination of the Hessian tests definiteness and
solves for the step. At D >= 4 a Newton step rebuilds the complex states,
matrices and image of the chains it runs on, and takes eigh of each O-step
matrix and of each Hessian.
"""
import functools
import math
import types
from dataclasses import dataclass

import numpy as np

from .operators import is_hermitian, max_norm
from .superop import Superoperator

# ascent settings. Only the kernel (_alternating_ascent, _alternating_ascents)
# takes restarts, max_iter and keep_after_burn_in as parameters, for
# test references; every other caller runs these defaults, with
# max(16, 4 D) restarts. A chain stops at REL_TOL or, unconverged, at
# DEFAULT_MAX_ITER iterations; on the benchmark's random D = 3 battery the
# longest run takes 42
DEFAULT_MAX_ITER = 1000
DEFAULT_BURN_IN = 25
DEFAULT_KEEP_AFTER_BURN_IN = 4
# relative change below which a chain counts as converged
REL_TOL = 1e-10
# maps per burn-in pass of _alternating_ascents; it bounds the working
# arrays of burn-in, which holds max(16, 4 D) chains per map. At D = 3 a
# full burn-in pass steps 2,048 chains, 16 KB per coordinate row. Per chain
# the closed forms cost about the same from a few hundred chains on, while
# every pass pays its own per-call overhead: on the benchmark's random
# D = 3 battery verify-bounds took 865, 811, 749 and 742 ms of CPU at 32,
# 64, 128 and 256 maps per pass (in process, medians of 8), and its 266-map
# prefetch peaked at 1.3, 1.3, 2.1 and 3.8 MB of traced arrays at 32, 64,
# 128 and 266. The pass after burn-in is not split: it holds at most
# DEFAULT_KEEP_AFTER_BURN_IN chains per map of the call, so its per-chain
# gather of the real coordinate maps is at most that many copies of each
# map's, the same order as the stacks the call already holds for its maps
LOCKSTEP_MAPS = 128


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


def _seed_states(dim, n_restarts, seed):
    seeds = list(np.eye(dim, dtype=complex))
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


# --- real Hermitian coordinates ----------------------------------------------
#
# The ascent holds its chains in real coordinates, one column per chain: a
# stack of n Hermitian D x D matrices is a (D^2, n) array whose rows are the
# diagonal, then Re and then Im of the upper triangle (row by row), and a
# stack of n states psi is a (2D, n) array of Re psi, then Im psi. Each row
# is contiguous along the stack, so the closed forms below run along it
# without strides, and a map acts on coordinates as one real D^2 x D^2
# matrix (_coordinate_maps).

@functools.lru_cache(maxsize=None)
def _layout(dim):
    """Index tables of the coordinates at dimension D: the row-major entries
    whose Re and Im parts are coordinates (re_flat, im_flat); for each
    row-major entry the coordinate of its Re part (re_src) and of its Im
    part up to a sign (im_src, im_sign, 0 on the diagonal); the state rows
    whose products give pure-state coordinates (state_left, state_right,
    state_sign, see _pure_state_coords); S and P of _coordinate_maps; and
    the scale of R^T in R_dual."""
    j, k = np.triu_indices(dim, 1)
    u = j.size
    diag = np.arange(dim)
    re_pair, im_pair = dim + np.arange(u), dim + u + np.arange(u)
    # row-major flat indices of the entries (j, j), (j, k) and (k, j); in
    # column stacking (vec) low indexes (j, k) and up (k, j)
    dd, up, low = diag * (dim + 1), j * dim + k, k * dim + j
    re_src = np.empty(dim * dim, dtype=int)
    im_src = np.zeros(dim * dim, dtype=int)
    im_sign = np.zeros(dim * dim)
    re_src[dd] = diag
    re_src[up] = re_src[low] = re_pair
    im_src[up] = im_src[low] = im_pair
    im_sign[up], im_sign[low] = 1.0, -1.0
    # rho = psi psi^dag: |psi_j|^2 = re_j re_j + im_j im_j, and for j < k
    # Re rho_jk = re_j re_k + im_j im_k, Im rho_jk = im_j re_k - re_j im_k
    jj, kk = np.concatenate([diag, j]), np.concatenate([diag, k])
    left = np.concatenate([jj, j + dim, jj + dim, j])
    right = np.concatenate([kk, k, kk + dim, k + dim])
    sign = np.ones((dim * dim, 1))
    sign[dim + u:] = -1.0
    # vec(rho) = S coords(rho) and coords(Herm W) = Re(P vec(W)), both in
    # column stacking: entry (r, s) is vec index s D + r
    S = np.zeros((dim * dim, dim * dim), dtype=complex)
    P = np.zeros((dim * dim, dim * dim), dtype=complex)
    S[dd, diag] = P[diag, dd] = 1.0
    S[low, re_pair] = S[up, re_pair] = 1.0          # rho_jk, rho_kj
    S[low, im_pair], S[up, im_pair] = 1j, -1j
    P[re_pair, low] = P[re_pair, up] = 0.5
    P[im_pair, low], P[im_pair, up] = -0.5j, 0.5j
    # Tr(O Y) = coords(O) . G coords(Y) with G = diag(1 (D times), 2, .., 2)
    g = np.where(np.arange(dim * dim) < dim, 1.0, 2.0)
    return types.SimpleNamespace(
        re_flat=np.concatenate([dd, up]), im_flat=up, re_src=re_src,
        im_src=im_src, im_sign=im_sign[:, None], state_left=left,
        state_right=right, state_sign=sign, vec_of_coords=S,
        coords_of_vec=P, dual_scale=g[None, :] / g[:, None])


def _coords(H):
    """Coordinate rows (D^2, n) of a stack of n Hermitian D x D matrices."""
    n, dim = H.shape[0], H.shape[-1]
    lay = _layout(dim)
    flat = H.reshape(n, dim * dim)
    c = np.empty((dim * dim, n))
    c[:lay.re_flat.size] = flat.real[:, lay.re_flat].T
    c[lay.re_flat.size:] = flat.imag[:, lay.im_flat].T
    return c


def _matrices(c):
    """The stack of n Hermitian matrices with coordinate rows c (D^2, n)."""
    dim = math.isqrt(c.shape[0])
    lay = _layout(dim)
    H = np.empty(c.shape, dtype=complex)
    H.real = c[lay.re_src]
    H.imag = c[lay.im_src] * lay.im_sign
    return H.T.reshape(-1, dim, dim)


def _state_rows(psi):
    """State rows (2D, n), Re then Im, of a stack of n states (n, D)."""
    n, dim = psi.shape
    rows = np.empty((2 * dim, n))
    rows[:dim], rows[dim:] = psi.real.T, psi.imag.T
    return rows


def _states(rows):
    """The stack of n complex states (n, D) with state rows (2D, n)."""
    dim = rows.shape[0] // 2
    psi = np.empty((rows.shape[1], dim), dtype=complex)
    psi.real, psi.imag = rows[:dim].T, rows[dim:].T
    return psi


def _pure_state_coords(psi):
    """Coordinate rows of psi psi^dag for state rows psi, from two gathered
    products of rows."""
    lay = _layout(psi.shape[0] // 2)
    prod = psi[lay.state_left] * psi[lay.state_right]
    half = prod.shape[0] // 2
    out = prod[half:] * lay.state_sign
    out += prod[:half]
    return out


def _coordinate_maps(Ms):
    """The real matrices R and R_dual of each map X in the (T, D^2, D^2)
    stack Ms: coords(Herm X(rho)) = R coords(rho) and
    coords(Herm X^dag(O)) = R_dual coords(O). R is Re(P M S) (see _layout),
    one column-stacked product per map; with G the coordinate metric of
    Tr(O Y), R_dual = G^-1 R^T G, whose scaling by powers of 2 is exact."""
    lay = _layout(math.isqrt(Ms.shape[-1]))
    R = np.ascontiguousarray((lay.coords_of_vec @ Ms @ lay.vec_of_coords).real)
    return R, R.transpose(0, 2, 1) * lay.dual_scale


# --- closed-form 3 x 3 steps -------------------------------------------------
#
# The helpers below take the coordinate rows of a stack of n Hermitian 3 x 3
# matrices: d_j, then a_p = Re W_p and b_p = Im W_p for the pairs
# p = 01, 02, 12. Every operation is elementwise along the rows, and sums
# over entries are written out rather than left to a numpy reduction: a
# matrix's result does not depend on the other matrices in the stack. A
# matrix whose closest pair of eigenvalues lies within CLOSED_FORM_MIN_GAP of
# its spectral norm goes to eigh instead, on its own.

CLOSED_FORM_MIN_GAP = 1e-3
# p^2 (the squared eigenvalue spread) is 0 for multiples of I and underflows
# for tiny matrices; below this the cubic is not scaled and eigh takes over
_CLOSED_FORM_TINY = 1e-200
_SQRT3 = math.sqrt(3.0)
# rows of (a_01, a_02, a_12, b_01, b_02, b_12, -b_01, -b_02, -b_12) that
# hold (Re u, Im u), (Re v, -Im v) and (Im v, Re v) in _quadratics3
_CROSS_U = np.array([1, 0, 0, 4, 3, 6])
_CROSS_V = np.array([2, 2, 1, 5, 8, 7])
_CROSS_V_SWAP = np.array([8, 5, 4, 2, 2, 1])
# columns 0, 1 and 2 of a Hermitian matrix as state rows (Re, then Im, of
# their entries 0, 1, 2) from its coordinate rows: the coordinate of each
# entry, and the sign of its Im part (0 on the diagonal, - below it)
_COLUMN_ROWS = np.array([0, 3, 4, 0, 6, 7, 3, 1, 5, 6, 1, 8,
                         4, 5, 2, 7, 8, 2])
_COLUMN_SIGNS = np.array([1, 1, 1, 0, -1, -1, 1, 1, 1, 1, 0, -1,
                          1, 1, 1, 1, 1, 0], dtype=float)[:, None]


def _quadratics3(c):
    """The quadratic terms of W^2 for a stack of Hermitian 3 x 3 W with
    coordinate rows c: the rows |W_p|^2 for the pairs p = 01, 02, 12, and
    the rows (Re, Im) of W_jl W_lk for p = jk, l the third index. These are
    W02 conj(W12), W01 W12 and conj(W01) W02, that is u v with
    u = (W02, W01, conj W01) and v = (conj W12, W12, W02)."""
    sq = c[3:] * c[3:]
    ext = np.empty_like(c)
    ext[:6] = c[3:]
    np.negative(c[6:], out=ext[6:])
    u = ext[_CROSS_U]
    prod = u * ext[_CROSS_V]                    # Re u Re v, -Im u Im v
    cross = np.empty((6, c.shape[1]))
    np.add(prod[:3], prod[3:], out=cross[:3])
    prod = u * ext[_CROSS_V_SWAP]               # Re u Im v, Im u Re v
    np.add(prod[:3], prod[3:], out=cross[3:])
    return sq[:3] + sq[3:], cross


def _eigvalsh3(c, quad=None):
    """Eigenvalues of a stack of Hermitian 3 x 3 matrices with coordinate
    rows c, as rows top, middle, bottom, and the mask of the matrices that
    need eigh; quad is _quadratics3(c), computed here if not given.

    Trigonometric solution of the characteristic cubic (Smith 1961; Kopp
    2008, arXiv:physics/0610206): with m = tr W / 3, B = W - m I,
    p^2 = tr(B^2) / 6, x = det(B) / (2 p^3) and theta = arccos(x) / 3, the
    eigenvalues are m + 2 p cos(theta + angle) for the angles 0, -2 pi / 3
    and 2 pi / 3, that is m + 2 p cos(theta) and
    m - p cos(theta) +- sqrt(3) p sin(theta). Errors stay at round-off times
    ||W|| except inside a near-degenerate pair, where arccos amplifies them;
    such matrices are in the mask.
    """
    off2, cross = _quadratics3(c) if quad is None else quad
    d = c[:3]
    m = (d[0] + d[1] + d[2]) / 3
    e = d - m                                   # diagonal of B
    q = e * e
    q += off2
    q += off2
    p2 = (q[0] + q[1] + q[2]) / 6
    tiny = p2 < _CLOSED_FORM_TINY
    p2 = np.maximum(p2, _CLOSED_FORM_TINY)
    p = np.sqrt(p2)
    # det(B) / 2 = (e0 e1 e2 - sum_j e_j |W_kl|^2) / 2 + Re(W01 W12 W20),
    # kl the pair without j, and W01 W12 W20 = (W01 W12) conj(W02)
    eo = e * off2[::-1]
    cyc = cross[1] * c[4] + cross[4] * c[7]
    half_det = (e[0] * e[1] * e[2] - eo[0] - eo[1] - eo[2]) * 0.5 + cyc
    x = np.minimum(np.maximum(half_det / (p2 * p), -1.0), 1.0)
    # theta = arccos(x) / 3 lies in [0, pi / 3], where cos(theta) >= 1 / 2
    # follows from the sine without cancellation
    sin = np.sin(np.arccos(x) / 3)
    pc = p * np.sqrt(1.0 - sin * sin)
    ps = (_SQRT3 * p) * sin
    lam = np.empty((3,) + m.shape)
    np.add(m, pc + pc, out=lam[0])
    m -= pc
    np.add(m, ps, out=lam[1])
    np.subtract(m, ps, out=lam[2])
    gap = lam[:2] - lam[1:]
    bound = np.maximum(lam[0], -lam[2])
    bound *= CLOSED_FORM_MIN_GAP
    return lam, (np.minimum(gap[0], gap[1]) <= bound) | tiny


def _shifted_product3(c, quad, x, y):
    """Coordinate rows of (W - x)(W - y) for a stack of Hermitian 3 x 3 W
    with coordinate rows c, quad = _quadratics3(c) and rows of shifts x, y:
    on the diagonal (d_j - x)(d_j - y) + sum_{k != j} |W_jk|^2, above it
    (d_j + d_k - x - y) W_jk + W_jl W_lk, l the third index."""
    off2, cross = quad
    n = c.shape[1]
    out = np.empty_like(c)
    d = c[:3]
    np.multiply(d - x, d - y, out=out[:3])
    # the pair without j runs in reverse over the pairs, as does the third
    # index l of each pair
    out[:3] += off2[0] + off2[1] + off2[2]
    out[:3] -= off2[::-1]
    shift = (d[0] + d[1] + d[2]) - (x + y) - d[::-1]
    np.multiply(c[3:].reshape(2, 3, n), shift, out=out[3:].reshape(2, 3, n))
    out[3:] += cross
    return out


def _sign_step3(c):
    """Closed-form O-step at D = 3 on coordinate rows: sum |lambda| and the
    coordinate rows of the sign operator.

    sigma, the sign of the middle eigenvalue, is the majority sign. When the
    outer eigenvalue on the other side of the middle one (lone) has the
    opposite sign, sign(W) = sigma (I - 2 P) with its spectral projector
    P = (W - mid)(W - far) / ((lone - mid)(lone - far)); otherwise
    sign(W) = sigma I.
    """
    quad = _quadratics3(c)
    lam, needs_eigh = _eigvalsh3(c, quad)
    mid = lam[1]
    majority = mid >= 0
    # (bot, top) or (top, bot)
    lone, far = np.where(majority, lam[::-2], lam[::2])
    sigma = np.where(majority, 1.0, -1.0)
    obs = _shifted_product3(c, quad, mid, far)
    # -2 sigma P where lone has the sign opposite to sigma
    scale = ((lone < 0) == majority) * sigma
    den = (lone - mid) * (far - lone)
    masked = needs_eigh.any()
    if masked:
        den[needs_eigh] = 1.0     # 0 on degenerate matrices, redone below
    scale /= den
    obs *= scale + scale
    obs[:3] += sigma
    values = abs(lam)
    values = values[0] + values[1] + values[2]
    if masked:
        values[needs_eigh], o = _sign_step(_matrices(c[:, needs_eigh]))
        obs[:, needs_eigh] = _coords(o)
    return values, obs


def _top_eigvec3(c):
    """Closed-form psi-step at D = 3 on coordinate rows: the state rows of a
    unit top eigenvector of each A.

    (A - lam_2)(A - lam_3) = (lam_1 - lam_2)(lam_1 - lam_3) v v^dag, so its
    column of largest norm, the one with the largest diagonal entry, is v up
    to scale and phase.
    """
    quad = _quadratics3(c)
    lam, needs_eigh = _eigvalsh3(c, quad)
    prod = _shifted_product3(c, quad, lam[1], lam[2])
    # the column of the first largest diagonal entry, as argmax finds it
    d0, d1, d2 = prod[:3]
    cols = prod[_COLUMN_ROWS] * _COLUMN_SIGNS
    v = np.where(d2 > np.maximum(d0, d1), cols[12:],
                 np.where(d1 > d0, cols[6:12], cols[:6]))
    sq = v * v
    sq = sq[:3] + sq[3:]
    norm = np.sqrt(sq[0] + sq[1] + sq[2])
    masked = needs_eigh.any()
    if masked:
        norm[needs_eigh] = 1.0    # 0 on degenerate matrices, redone below
    v /= norm
    if masked:
        v[:, needs_eigh] = _state_rows(_top_eigvec(_matrices(c[:, needs_eigh])))
    return v


@functools.lru_cache(maxsize=None)
def _tables3():
    """Index tables of three real linear maps at D = 3, each as the
    position of every entry of its matrix in the rows it is built from and
    its factor (0 where the entry is 0): the 6 x 6 matrix
    [[Re H, -Im H], [Im H, Re H]] from the coordinate rows of a Hermitian
    H, which acts on state rows as H acts on states (embed_rows,
    embed_signs); the same product H p as a 6 x 9 matrix from the state
    rows of p, which acts on the coordinates of H (apply_rows,
    apply_signs); and coords(x p^dag + p x^dag) as a 9 x 6 matrix from the
    state rows of p, which acts on the state rows of x (pair_rows,
    pair_factors; the products of _pure_state_coords, see _layout)."""
    lay = _layout(3)
    re, im = lay.re_src.reshape(3, 3), lay.im_src.reshape(3, 3)
    sign = lay.im_sign.reshape(3, 3)
    rows = np.block([[re, im], [im, re]]).ravel()
    signs = np.block([[np.ones((3, 3)), -sign], [sign, np.ones((3, 3))]])
    signs = signs.ravel()
    apply_rows, apply_signs = np.zeros((6, 9), dtype=int), np.zeros((6, 9))
    for k in np.flatnonzero(signs):
        apply_rows[k // 6, rows[k]] = k % 6
        apply_signs[k // 6, rows[k]] = signs[k]
    pair_rows, pair_factors = np.zeros((9, 6), dtype=int), np.zeros((9, 6))
    for t, (left, right) in enumerate(zip(lay.state_left, lay.state_right)):
        c, factor = t % 9, (lay.state_sign[t - 9, 0] if t >= 9 else 1.0)
        for x_row, p_row in ((left, right), (right, left)):
            pair_rows[c, x_row] = p_row
            pair_factors[c, x_row] += factor
    return types.SimpleNamespace(
        embed_rows=rows, embed_signs=signs, apply_rows=apply_rows.ravel(),
        apply_signs=apply_signs.ravel(), pair_rows=pair_rows.ravel(),
        pair_factors=pair_factors.ravel())


def _embed3(c):
    """The real 6 x 6 matrix of each Hermitian 3 x 3 H with coordinate rows
    c (9, n), as an (n, 6, 6) stack: it maps the state rows of x to those
    of H x."""
    tab = _tables3()
    return (c.T[:, tab.embed_rows] * tab.embed_signs).reshape(-1, 6, 6)


# --- Newton polish -----------------------------------------------------------
#
# Near its maximum f(psi) = ||W(psi)||_1, W(psi) = Herm X(psi psi^dag), is
# smooth wherever no eigenvalue of W crosses 0, and the alternating ascent
# converges only linearly there, slowly when the landscape is flat. The
# Riemannian Newton step on the unit sphere modulo phase (Absil, Mahony &
# Sepulchre 2008, ch. 6) converges quadratically. The helpers below work on
# a stack of n chains; every operation is elementwise in the chain index or
# a product or LAPACK call per chain, and sums over entries are written out,
# so a chain's step does not depend on the other chains in the stack. At
# D >= 4 the step (_newton_model, _newton_step) rebuilds the complex states
# and matrices and takes eigh of W and of -H. At D = 3 it (_newton_model3,
# _newton_step3) runs on the coordinate rows: the Daleckii-Krein term from
# the sign operator's lone projector and a linear polynomial in W, the
# products as one chain's real 6 x 6 matrices (_embed3), and the
# definiteness test and the solve by an LDL^T elimination (_ldl_solve), with
# no LAPACK call.

def _tangent_basis(psi):
    """Orthonormal bases u_1..u_{D-1} of the complement of each unit psi:
    columns 2..D of the Householder reflection I - v v^dag / (1 + |psi_1|),
    v = psi + phase(psi_1) e_1, which maps psi to a multiple of e_1.
    Returns an (n, D - 1, D) stack of rows u_k."""
    a = np.abs(psi[:, 0])
    v = psi.copy()
    v[:, 0] += np.where(a > 0, psi[:, 0] / np.where(a > 0, a, 1.0), 1.0)
    scale = psi[:, 1:].conj() / (1.0 + a)[:, None]
    return np.eye(psi.shape[1])[1:] - scale[:, :, None] * v[:, None, :]


def _newton_model(psi, W, A, image):
    """Gradient and Hessian of f at each state psi, in the real tangent
    basis b = (u_1, .., u_{D-1}, i u_1, .., i u_{D-1}) of _tangent_basis.

    W = Herm X(psi psi^dag) = V diag(lam) V^dag and A = Herm X^dag(sign W)
    are the chain's last O-step and psi-step matrices; image(rho) returns
    Herm X(rho) for an (n (2D - 2), D, D) stack, 2D - 2 rows per chain. With
    f = sum |lam| and s = sign(lam), along the retraction
    psi -> normalize(psi + xi),
        g_l = 2 Re<b_l, A psi>,
        H_lm = 2 Re<b_l, A b_m> + sum_jk G_jk Re[conj(dW^l_jk) dW^m_jk]
               - 2 f delta_lm,
    with dW^m = V^dag Herm X(b_m psi^dag + psi b_m^dag) V and the divided
    difference of the sign function G_jk = (s_j - s_k) / (lam_j - lam_k),
    0 where the signs agree (Daleckii-Krein; Bhatia 1997, ch. V). Returns
    (b, g, H) as (n, 2D - 2, D), (n, 2D - 2) and (n, 2D - 2, 2D - 2).
    """
    n, dim = psi.shape
    U = _tangent_basis(psi)
    b = np.concatenate([U, 1j * U], axis=1)
    k = b.shape[1]
    # 2 Re<b_l, A (psi, b_1, .., b_k)>: the gradient, then the first term
    first = 2 * ((b.conj() @ A) @ np.concatenate(
        [psi[:, :, None], b.transpose(0, 2, 1)], axis=2)).real
    g, H = first[:, :, 0], first[:, :, 1:]
    lam, V = np.linalg.eigh(W)
    s = np.where(lam >= 0.0, 1.0, -1.0)
    ds = s[:, :, None] - s[:, None, :]
    G = ds / np.where(ds != 0.0, lam[:, :, None] - lam[:, None, :], 1.0)
    # the stacks below hold 2D - 2 matrices per chain; each is dropped as
    # soon as the next is made
    dW = b[:, :, :, None] * psi.conj()[:, None, None, :]
    dW += dW.conj().transpose(0, 1, 3, 2)
    dW = image(dW.reshape(n * k, dim, dim)).reshape(n, k, dim, dim)
    dW = V.conj().transpose(0, 2, 1)[:, None] @ dW
    dW = dW @ V[:, None]
    # G >= 0 (the sign function is monotone), so the sum is F F^T
    dW *= np.sqrt(G)[:, None]
    F = dW.reshape(n, k, dim * dim)
    del dW
    F = np.concatenate([F.real, F.imag], axis=2)
    H += F @ F.transpose(0, 2, 1)
    f = sum(abs(lam[:, j]) for j in range(dim))
    H -= 2 * f[:, None, None] * np.eye(k)
    return b, g, H


def _newton_step(psi, W, A, image):
    """Riemannian Newton candidates normalize(psi - sum_l (H^-1 g)_l b_l)
    of _newton_model, and where H is negative definite (elsewhere the
    candidate is meaningless)."""
    b, g, H = _newton_model(psi, W, A, image)
    mu, Q = np.linalg.eigh(-H)
    definite = mu[:, 0] > 0
    mu[~definite] = 1.0
    x = Q @ ((Q.transpose(0, 2, 1) @ g[:, :, None]) / mu[:, :, None])
    cand = psi + (x.transpose(0, 2, 1) @ b)[:, 0]
    norm2 = cand.real ** 2 + cand.imag ** 2
    norm = np.sqrt(sum(norm2[:, j] for j in range(psi.shape[1])))
    return cand / norm[:, None], definite


def _newton_model3(psi, W, O, A, image):
    """_newton_model at D = 3 on coordinate rows, from closed forms alone.

    psi are state rows (6, n); W, O = sign W and A = Herm X^dag(O) the
    chain's last O-step and psi-step matrices as coordinate rows (9, n);
    image(x) returns the coordinate rows of Herm X for coordinate rows x
    (9, 4 n), a block of 4 columns per chain. The Daleckii-Krein term comes
    from the sign operator: with sigma = sign(tr O), P = (I - sigma O) / 2 is
    the spectral projector of the lone eigenvalue lam (the one of sign
    -sigma), 0 when there is none (O = sigma I), and the term is
    2 Re Tr(P dW^l R dW^m), where R takes the value G = 2 / |lam - mu| at
    each other eigenvalue mu and 0 on P. R is linear in W there: with
    s = mu_1 + mu_2 - lam = sigma f and e2 = (mu_1 - lam)(mu_2 - lam),
    R = 2 sigma (s - W)(I - P) / e2, whose slope -2 sigma / e2, the divided
    difference of G over the pair, needs no difference of the pair; and
    (s - W)(I - P) = s - W - (s - lam) P. With p the column of P of
    largest diagonal P_jj, P = p p^dag / P_jj and the term is
    2 Re<dW^l p, R dW^m p> / P_jj. Contractions are products of one chain's
    small real matrices in one stacked matmul, each slice of which is the
    plain product of its chain's matrices (as in _block_product). Returns
    (b, g, H): the basis as state rows (4, 6, n), g (4, n) and
    H (4, 4, n)."""
    n = psi.shape[1]
    # the Householder basis of _tangent_basis: u_k = e_k - s_k v with
    # v = psi + phase(psi_1) e_1 and s_k = conj(psi_k) / (1 + |psi_1|), that
    # is u_k = e_k - conj(psi_k) w with
    # w = (phase(psi_1), psi_2 / (1 + |psi_1|), psi_3 / (1 + |psi_1|));
    # b = (u_1, u_2, i u_1, i u_2)
    a = np.hypot(psi[0], psi[3])
    some = a > 0
    safe = np.where(some, a, 1.0)
    # w, i w and -w
    w = np.empty((3, 6, n))
    np.divide(psi, 1.0 + a, out=w[0])
    w[0, 0] = np.where(some, psi[0] / safe, 1.0)
    w[0, 3] = psi[3] / safe
    np.negative(w[0], out=w[2])
    w[1, :3], w[1, 3:] = w[2, 3:], w[0, :3]
    # X = (psi, b_1, .., b_4): u_k = e_k + Im(psi_k) i w - Re(psi_k) w and
    # i u_k = i e_k - Im(psi_k) w - Re(psi_k) i w
    X = np.empty((5, 6, n))
    X[0] = psi
    re, im = psi[1:3, None], psi[4:, None]
    np.multiply(im, w[1], out=X[1:3])
    X[1:3] -= re * w[0]
    np.multiply(im, w[2], out=X[3:])
    X[3:] -= re * w[1]
    flat = X.reshape(30, n)
    flat[7:15:7] += 1.0             # e_2 and e_3 in u_1 and u_2
    flat[22:30:7] += 1.0            # i e_2 and i e_3 in i u_1 and i u_2
    # 2 Re<b_l, A (psi, b_1, .., b_4)>: the gradient, then the first term
    Xc = np.ascontiguousarray(X.T)
    first = Xc[:, :, 1:].transpose(0, 2, 1) @ (_embed3(A) @ Xc)
    # dW^m = Herm X(b_m psi^dag + psi b_m^dag), on a block of 4 columns per
    # chain: the coordinates of b_m psi^dag + psi b_m^dag are one matrix of
    # the entries of psi per chain times b
    tab = _tables3()
    rho = (psi.T[:, tab.pair_rows] * tab.pair_factors).reshape(n, 9, 6) \
        @ Xc[:, :, 1:]
    dW = image(rho.transpose(1, 0, 2).reshape(9, 4 * n))
    dW = np.ascontiguousarray(dW.reshape(9, n, 4).transpose(1, 0, 2))
    # f = Tr(O W) = sum |lambda|, s = sigma f and lam = Tr(P W)
    tr_O = O[0] + O[1] + O[2]
    sigma = np.sign(tr_O)
    OW = O * W
    t = OW[3:6] + OW[6:]
    t += t
    t += OW[:3]
    f = t[0] + t[1] + t[2]
    s = sigma * f
    lam = (W[0] + W[1] + W[2] - s) * 0.5
    # e2, the sum of the principal 2 x 2 minors of W - lam
    e = W[:3] - lam
    sq = W[3:] * W[3:]
    sq = sq[:3] + sq[3:]
    e2 = e[0] * (e[1] + e[2]) + e[1] * e[2] - sq[0] - sq[1] - sq[2]
    P = O * (-0.5 * sigma)
    P[:3] += 0.5
    # p = P e_j, j the first largest diagonal entry P_jj, as argmax finds it
    cols = P[_COLUMN_ROWS] * _COLUMN_SIGNS
    d0, d1, d2 = P[:3]
    top = np.maximum(d0, d1)
    p = np.where(d2 > top, cols[12:], np.where(d1 > d0, cols[6:12], cols[:6]))
    # 2 sigma (s - W)(I - P) / (e2 P_jj) = R / P_jj, 0 where no eigenvalue
    # is lone
    scale = np.zeros(n)
    np.divide(sigma + sigma, e2 * np.maximum(top, d2), out=scale,
              where=abs(tr_O) < 2)
    R = P * (lam - s)
    R -= W
    R[:3] += s
    R *= scale
    # y_l = dW^l p, by one matrix of the entries of p per chain; then all
    # terms but the last take their factor 2
    y = (p.T[:, tab.apply_rows] * tab.apply_signs).reshape(n, 6, 9) @ dW
    first[:, :, 1:] += y.transpose(0, 2, 1) @ (_embed3(R) @ y)
    first += first
    H = np.ascontiguousarray(first[:, :, 1:].transpose(1, 2, 0))
    H.reshape(16, n)[::5] -= f + f
    return X[1:], first[:, :, 0].T, H


def _ldl_solve(K, g):
    """x with K x = g for a stack of symmetric k x k K (k, k, n) and
    g (k, n), by LDL^T elimination without pivoting, elementwise along the
    stack, and whether every pivot is positive and finite, that is whether
    K is positive definite. Where it is not, x is 0."""
    k = len(g)
    M = np.empty((k, k + 1) + g.shape[1:])
    M[:, :k], M[:, k] = K, g
    with np.errstate(divide="ignore", invalid="ignore"):
        for j in range(k):
            M[j, j + 1:] /= M[j, j]
            if j + 1 < k:
                M[j + 1:, j + 1:] -= M[j + 1:, j, None] * M[j, j + 1:]
        d = M.reshape(k * (k + 1), -1)[::k + 2]
        definite = ((0 < d) & (d < np.inf)).all(axis=0)
        x = M[:, k]
        for j in range(k - 1, 0, -1):
            x[:j] -= M[:j, j] * x[j]
    return np.where(definite, x, 0.0), definite


def _newton_step3(psi, W, O, A, image):
    """_newton_step at D = 3 on coordinate rows, with the model of
    _newton_model3: the candidates as state rows (6, n), and where H is
    negative definite, from the pivots of the LDL^T elimination of -H."""
    b, g, H = _newton_model3(psi, W, O, A, image)
    x, definite = _ldl_solve(-H, g)
    step = b * x[:, None]
    step = step[:2] + step[2:]
    cand = psi + step[0] + step[1]
    sq = cand * cand
    sq = sq[:3] + sq[3:]
    return cand / np.sqrt(sq[0] + sq[1] + sq[2]), definite


def _induced_norms(Ms, dim, seed=0, above=None):
    """Induced trace norm of each raw D^2 x D^2 Hermiticity-preserving
    matrix in Ms (a sequence or a (T, D^2, D^2) stack): exact at D = 2 (seed
    and above are then unused), the alternating ascent's lower bound at
    D >= 3. With above set, the ascent stops a map at its first value above
    it (see _alternating_ascents). Each map's result equals, bit for bit,
    that of a call with it alone."""
    if dim == 2:
        return _qubit_induced_norms(Ms)
    return _alternating_ascents(Ms, dim, seed=seed, above=above)


def _induced_norm_matrix(M, dim, seed=0):
    """_induced_norms of the single matrix M."""
    return _induced_norms([M], dim, seed=seed)[0]


# column-stacked Pauli matrices: _PAULI_VECS[:, k] = vec(sigma_k), sigma_0 = I
_PAULI_VECS = np.array([[1, 0, 0, 1], [0, 1, 1, 0], [0, 1j, -1j, 0],
                        [1, 0, 0, -1]], dtype=complex).T
_PAULI_ROWS = _PAULI_VECS.conj().T
_EYE2 = np.eye(2)


# --- exact qubit norm --------------------------------------------------------
#
# The helpers below evaluate the closed form along a stack of T maps, with
# 3-vectors as (T, 3) arrays. As in the 3 x 3 steps above, every operation is
# elementwise in the map index or a product or LAPACK call per map, and sums
# over the 3 components are written out in order, so a map's result does not
# depend on the other maps in the stack. The length of a 3-vector is
# math.hypot, per map: numpy has no bit-equal 3-argument form of it. Masked
# branches divide by zero; their results are discarded.

def _hypot3(v):
    """math.hypot of each row of a (T, 3) array."""
    return np.fromiter(map(math.hypot, *v.T.tolist()), float, len(v))


def _matvec(A, v):
    """A_k @ v_k for a stack of matrices and one of vectors, by the BLAS
    product that a 2-D A @ v takes."""
    return (A @ v[..., None])[..., 0]


@np.errstate(divide="ignore", invalid="ignore")
def _sphere_argmax(B, c):
    """Unit vectors r maximizing |c + B r|, for a stack of real 3 x 3 B.

    Stationary points solve (mu - A) r = g with A = B^T B and g = B^T c; the
    global maximum has mu >= lambda_max(A) (More & Sorensen 1983; Gander,
    Golub & von Matt 1989). In the eigenbasis of A, with mu = lambda_max + s
    and d_k = lambda_max - lambda_k, |r| = 1 is the secular equation
    sum_k g_k^2 / (s + d_k)^2 = 1. Its left side falls monotonically in s, and
    1/|r(s)| is concave in s (a power mean of exponent -2 of the s + d_k), so
    Newton's method started left of the root climbs to it monotonically; each
    map stops on its own step. Hard case: when g has no component on the top
    eigenvector and the other components alone give |r| <= 1, s = 0 and the
    top eigenvector fills r up to unit length.
    """
    Bt = B.transpose(0, 2, 1)
    lam, V = np.linalg.eigh(Bt @ B)
    g = _matvec(V.transpose(0, 2, 1), _matvec(Bt, c))
    d = lam[:, -1:] - lam
    nonzero = g != 0
    # the secular sums leave out the terms of g_k = 0: with d_k raised to 1
    # there, such a term is 0 / (s + 1)^p = 0, never 0 / 0
    g2, dz = g * g, np.where(nonzero, d, 1.0)

    def radius(s, g2, dz):
        q = s[:, None] + dz
        t = g2 / (q * q)
        return np.sqrt(t[:, 0] + t[:, 1] + t[:, 2])

    # left of the root: |r(s)| >= |g_k| / (s + d_k) >= 1 for some k
    left = abs(g) - d
    s = np.maximum(0.0, np.maximum(np.maximum(left[:, 0], left[:, 1]),
                                   left[:, 2]))
    n = radius(s, g2, dz)
    # hard case: g_top = 0, and r is filled up along the top eigenvector
    hard = (s == 0.0) & (n <= 1.0)
    # Newton's iteration on the other maps, rows, in arrays that drop each
    # map as it stops
    rows = np.flatnonzero(~hard)
    s_rows, n_rows, g2, dz = s[rows], n[rows], g2[rows], dz[rows]
    for _ in range(100):
        if not rows.size:
            break
        q = s_rows[:, None] + dz
        t = g2 / (q * q * q)
        slope = (t[:, 0] + t[:, 1] + t[:, 2]) / (n_rows * n_rows * n_rows)
        step = (1.0 - 1.0 / n_rows) / slope
        climbs = step > 4e-16 * s_rows
        if not climbs.all():
            rows, s_rows, step, g2, dz = (
                v[climbs] for v in (rows, s_rows, step, g2, dz))
            if not rows.size:
                break
        s_rows = s_rows + step
        n_rows = radius(s_rows, g2, dz)
        s[rows], n[rows] = s_rows, n_rows
    coeffs = np.where(nonzero, g / (s[:, None] + d), 0.0)
    coeffs[hard, -1] = np.sqrt(1.0 - n[hard] * n[hard])
    r = _matvec(V, coeffs)
    return r / _hypot3(r)[:, None]


@np.errstate(divide="ignore", invalid="ignore")
def _qubit_induced_norms(Ms):
    """Exact induced trace norm of each Hermiticity-preserving qubit map in
    Ms, a sequence or a (T, 4, 4) stack; one InducedNormResult per map.

    With T = S^dag M S / 2 in the Pauli basis (real part, which matches the
    ascent's Hermitian symmetrization of X(rho)), a pure state
    rho = (I + r.sigma)/2 maps to [(a + b.r) I + (c + B r).sigma]/2, whose
    trace norm is max(|a + b.r|, |c + B r|). The norm is therefore
    max(|a| + |b|, max_{|r|=1} |c + B r|): the larger of the values at the
    sphere's maximizer and at the affine one, the first on a tie. It is
    evaluated at a unit r, so it never exceeds the true norm.
    """
    Ms = np.asarray(Ms, dtype=complex)
    if not len(Ms):
        return []
    T = 0.5 * (_PAULI_ROWS @ Ms @ _PAULI_VECS).real
    a, b, c, B = T[:, 0, 0], T[:, 0, 1:], T[:, 1:, 0], T[:, 1:, 1:]
    b_norm = _hypot3(b)
    # both candidates at once, as a (2, T) stack: the sphere's maximizer,
    # then the maximizer of |a + b.r| (with b = 0 any unit vector is one)
    r = np.empty((2,) + b.shape)
    r[0] = _sphere_argmax(B, c)
    np.multiply(np.copysign(1.0, a)[:, None], b, out=r[1])
    r[1] /= b_norm[:, None]
    r[1, b_norm == 0] = (0.0, 0.0, 1.0)
    alpha = a + (b[:, None] @ r[..., None])[..., 0, 0]
    beta = c + _matvec(B, r)
    beta_norm = _hypot3(beta.reshape(-1, 3)).reshape(2, -1)
    value = np.maximum(abs(alpha), beta_norm)
    # the affine candidate where it is better, the sphere's on a tie
    affine = value[1] > value[0]
    pick = (affine.astype(int), np.arange(len(Ms))) if affine.any() else 0
    value, alpha, beta, beta_norm, r = (
        v[pick] for v in (value, alpha, beta, beta_norm, r))

    # Bloch vector r -> state vector, on the side of the sphere that is stable
    x, y, z = r.T
    north = z >= 0
    psi = np.empty((len(Ms), 2), dtype=complex)
    psi[:, 0] = np.where(north, 1.0 + z, x - 1j * y)
    psi[:, 1] = np.where(north, x + 1j * y, 1.0 - z)
    # the squared length as np.linalg.norm takes it: two dot products
    re, im = psi.real[:, None], psi.imag[:, None]
    psi /= np.sqrt(re @ re.transpose(0, 2, 1)
                   + im @ im.transpose(0, 2, 1))[:, 0]
    # sign operator of X(psi psi^dag) = (alpha I + beta.sigma) / 2
    nx, ny, nz = (beta / beta_norm[:, None]).T
    obs = np.empty((len(Ms), 2, 2), dtype=complex)
    obs[:, 0, 0], obs[:, 0, 1] = nz, nx - 1j * ny
    obs[:, 1, 0], obs[:, 1, 1] = nx + 1j * ny, -nz
    positive = alpha >= beta_norm
    negative = ~positive & (alpha + beta_norm < 0)
    if positive.any():
        obs[positive] = _EYE2
    if negative.any():
        obs[negative] = -_EYE2
    return [InducedNormResult(
        value=v, witness_state=p, witness_observable=o, iterations=0,
        restarts_used=1, converged=True, restart_values=vs, exact=True)
        for v, p, o, vs in zip(value.tolist(), psi, obs, value[:, None])]


def _alternating_ascent(M, dim, restarts=None, max_iter=DEFAULT_MAX_ITER,
                        seed=0, keep_after_burn_in=DEFAULT_KEEP_AFTER_BURN_IN):
    """Alternating-ascent maximization on a raw D^2 x D^2 matrix: the
    lockstep kernel of _alternating_ascents with a single map (T = 1)."""
    return _alternating_ascents(
        [M], dim, restarts=restarts, max_iter=max_iter, seed=seed,
        keep_after_burn_in=keep_after_burn_in)[0]


def _alternating_ascents(Ms, dim, restarts=None, max_iter=DEFAULT_MAX_ITER,
                         seed=0, keep_after_burn_in=DEFAULT_KEEP_AFTER_BURN_IN,
                         above=None):
    """Alternating ascent on T raw D^2 x D^2 matrices at once.

    Ms is a sequence of T matrices or one (T, D^2, D^2) stack. Every map
    starts from the same R seed states, and the chains advance in lockstep
    through batched coordinate steps (closed forms at D = 3, eigh above) in
    two phases.
    Burn-in runs every restart of at most LOCKSTEP_MAPS maps per pass, for
    DEFAULT_BURN_IN iterations. After it the laggard chains of each map
    (strictly behind that map's leaders) are frozen, and only its
    keep_after_burn_in leaders go on to full tolerance; frozen values remain
    valid lower bounds. The leaders of every map in the call then share one
    pass from its first round, for at most max_iter - DEFAULT_BURN_IN
    rounds; there each chain also tries Newton steps, by rules on its own
    history (see the pass below), and each round makes one Newton call on
    the chains that try. A pass holds its chains as real coordinate rows,
    one column per chain, in blocks of one height, and multiplies each block
    by its map's real coordinate matrix (_coordinate_maps, _block_product):
    in burn-in a block is all restarts of one map, chains that have stopped
    included, and after it one chain.
    Cull and convergence are per map, steps per matrix or chain and products
    per block, so a map's result does not depend on the other maps in the
    call: it equals, bit for bit, the single-map call
    _alternating_ascent(Ms[k], dim). Returns one InducedNormResult per map,
    in order.

    above, when set, answers "is the norm above it?" for each map. Every
    O-step value is a lower bound on the norm, so after each O-step, in
    burn-in and in the shared pass alike, a map with a chain whose value
    exceeds above stops all its chains; its result is that round's best
    value, a certificate, with converged=False. A map whose chains never
    exceed above runs exactly as without it. The ascent is monotone (a
    culled or frozen chain and a turned-back Newton candidate keep an
    earlier value), so the full value exceeds above iff some O-step of the
    full run does, up to round-off.
    """
    if restarts is None:
        restarts = max(16, 4 * dim)
    Ms = np.asarray(Ms, dtype=complex)
    T = len(Ms)
    if not T:
        return []
    N = T * restarts
    seeds = _seed_states(dim, restarts, seed)
    # the value of each chain's last O-step, written when the chain stops
    values = np.zeros(N)
    # per map, its best stopped chain (largest value, then lowest index):
    # the chain, and the value, state, observable, iteration and convergence
    # of its last O-step; a map that never stepped keeps its first seed
    best = np.arange(0, N, restarts)
    best_value = np.zeros(T)
    best_state = np.tile(seeds[0], (T, 1))
    best_obs = np.zeros((T, dim, dim), dtype=complex)
    best_its = np.zeros(T, dtype=int)
    best_done = np.zeros(T, dtype=bool)
    R, R_dual = _coordinate_maps(Ms)

    # one O-step, psi-step and Newton step per dimension, for every iteration
    # of every pass: they rest on dim alone, never on the stack, like each
    # matrix's eigh fallback
    if dim == 3:
        sign_step, top_eigvec = _sign_step3, _top_eigvec3
        newton_step = _newton_step3
    else:
        def sign_step(W):
            vals, obs = _sign_step(_matrices(W))
            return vals, _coords(obs)

        def top_eigvec(A):
            return _state_rows(_top_eigvec(_matrices(A)))

        def newton_step(psi, W, O, A, image):
            cand, definite = _newton_step(
                _states(psi), _matrices(W), _matrices(A),
                lambda rho: _matrices(image(_coords(rho))))
            return _state_rows(cand), definite

    def o_step(maps, psi):
        """Coordinate step in O: the value and sign observable of
        W = Herm X(psi psi^dag) for chains in blocks of one height, block g
        of map maps[g], and W, all as coordinate rows."""
        W = _block_product(R, _pure_state_coords(psi), maps)
        vals, obs = sign_step(W)
        return vals, obs, W

    def going_on(work, vals, done):
        """Which chains of work go on after an O-step: those not done, less
        every chain of a map with a chain above `above`. Those maps stop
        with a certificate, so their chains' done is cleared in place."""
        go_on = ~done
        if above is not None:
            over = vals > above
            if over.any():
                owner = work // restarts
                hit = np.zeros(T, dtype=bool)
                hit[owner[over]] = True
                certified = hit[owner]
                done &= ~certified
                go_on &= ~certified
        return go_on

    def converged(vals, prev):
        """Whether each chain's value moved by less than REL_TOL."""
        # ascent monotonicity is a structural property; tolerate round-off only
        if (vals < prev - 1e-9 * np.maximum(1.0, prev)).any():
            raise AssertionError("alternating ascent objective decreased")
        return np.abs(vals - prev) <= REL_TOL * np.maximum(1.0, vals)

    def psi_step(maps, obs):
        """Coordinate step in psi: the top eigenvector of
        A = Herm X^dag(O), as state rows, and A."""
        A = _block_product(R_dual, obs, maps)
        return top_eigvec(A), A

    def stop(work, at, psi, obs, vals, its, done):
        """Record the chains work[at], which iterate no more; its is their
        iteration count, one for all or one per chain of work."""
        chains, v = work[at], vals[at]
        values[chains] = v
        # each map's best stopping chain (its first maximum: a map's chains
        # ascend), kept if it beats the map's record
        maps = chains // restarts
        if maps[0] == maps[-1]:
            lead = np.argmax(v, keepdims=True)
        else:
            order = np.lexsort((chains, -v, maps))
            ranked = maps[order]
            lead = order[np.concatenate(([True], ranked[1:] != ranked[:-1]))]
        k, c, v = maps[lead], chains[lead], v[lead]
        wins = (v > best_value[k]) | ((v == best_value[k]) & (c <= best[k]))
        k, c, v = k[wins], c[wins], v[wins]
        at = at[lead[wins]]
        best[k], best_value[k] = c, v
        best_state[k], best_obs[k] = _states(psi[:, at]), _matrices(obs[:, at])
        best_done[k] = done[at]
        best_its[k] = np.broadcast_to(its, work.shape)[at]

    def results():
        return [InducedNormResult(
            value=float(best_value[k]),
            witness_state=best_state[k].copy(),
            witness_observable=best_obs[k].copy(),
            iterations=int(best_its[k]),
            restarts_used=restarts,
            converged=bool(best_done[k]),
            restart_values=values[k * restarts:(k + 1) * restarts].copy(),
        ) for k in range(T)]

    # burn-in, LOCKSTEP_MAPS maps per pass, each map one block of all its
    # restarts; the cull happens once, at its end, and a map never has more
    # than keep_after_burn_in chains after it. A chain that stops before the
    # cull stays in its block as an inert column: it keeps its recorded
    # value, so it passes the monotonicity check as done and never goes on
    # or stops again. A map leaves the pass once it has no live chain
    cull_at = DEFAULT_BURN_IN
    last = min(cull_at, max_iter)
    seed_rows = _state_rows(seeds)
    leaders = []            # (chains, next states, values) that go on after it
    for lo in range(0, T, LOCKSTEP_MAPS):
        maps = np.arange(lo, min(lo + LOCKSTEP_MAPS, T))
        work = np.arange(lo * restarts, (maps[-1] + 1) * restarts)
        live = np.ones(work.size, dtype=bool)
        psi = np.tile(seed_rows, (1, maps.size))
        vals = np.zeros(work.size)
        for it in range(1, last + 1):
            new, obs, _ = o_step(maps, psi)
            np.copyto(new, vals, where=~live)
            done = converged(new, vals)
            vals = new
            go_on = going_on(work, vals, done)
            if it == last and last == max_iter:
                go_on[:] = False
            elif it == cull_at and go_on.any():
                # per map, freeze chains strictly behind the leaders; ties
                # keep lower index
                sub = work[go_on]
                owner = sub // restarts
                order = np.lexsort((sub, -vals[go_on], owner))
                ranked = owner[order]
                rank = np.arange(ranked.size) - np.searchsorted(ranked, ranked)
                keep = np.empty(ranked.size, dtype=bool)
                keep[order] = rank < keep_after_burn_in
                go_on[np.flatnonzero(go_on)[~keep]] = False
            stopped = np.flatnonzero(live & ~go_on)
            if stopped.size:
                stop(work, stopped, psi, obs, vals, it, done)
                live = go_on
                alive = live.reshape(-1, restarts).any(axis=1)
                if not alive.all():
                    maps = maps[alive]
                    if not maps.size:
                        break
                    cols = np.repeat(alive, restarts)
                    work, obs, vals, live = (
                        work[cols], obs[:, cols], vals[cols], live[cols])
            psi, _ = psi_step(maps, obs)
        if maps.size and cull_at < max_iter:
            leaders.append((work[live], psi[:, live], vals[live]))
    if not leaders:
        return results()

    # after burn-in: the leaders of every map in the call in one pass, each
    # chain a block of its own, for at most budget rounds. Each chain also
    # tries the Newton step of _newton_step, on its own history: from a
    # definite Hessian its next state is the Newton candidate, and it keeps
    # the plain step in reserve. The next O-step evaluates the candidate; one
    # below the chain's value is turned back (the round still counts), and
    # the chain goes on from the plain step it kept. After an indefinite
    # Hessian or a turned-back candidate the chain waits 1, 2, 4, ... rounds
    # before it tries again; an accepted candidate resets the back-off.
    # Per-chain arrays are indexed on their last axis: state rows hold one
    # column per chain. Per chain: its index, state and value, whether its
    # state is a Newton candidate, the plain step it keeps, the first round
    # in which it may try Newton again, and its back-off. tries says whether
    # any state is a candidate (trying is stale when it does not), and no
    # chain may try before round due
    work, psi, vals = (np.concatenate(parts, axis=-1)
                       for parts in zip(*leaders))
    trying, kept = np.zeros(work.size, dtype=bool), psi
    next_try = np.zeros(work.size, dtype=int)
    backoff = np.ones(work.size, dtype=int)
    tries, due = False, 0
    budget = max_iter - cull_at
    for rnd in range(1, budget + 1):
        prev = vals
        vals, obs, W = o_step(work // restarts, psi)
        if tries:
            rejected = trying & (vals < prev)
            vals[rejected] = prev[rejected]
            backoff[trying & ~rejected] = 1
            trying = rejected
        done = converged(vals, prev)
        if tries:
            done &= ~rejected
        go_on = going_on(work, vals, done)
        if rnd == budget:
            go_on[:] = False
        if not go_on.all():
            stop(work, np.flatnonzero(~go_on), psi, obs, vals, cull_at + rnd,
                 done)
            (work, psi, vals, trying, kept, next_try, backoff, obs, W) = (
                a[..., go_on] for a in (work, psi, vals, trying, kept,
                                        next_try, backoff, obs, W))
            if not work.size:
                break
        maps = work // restarts
        plain, A = psi_step(maps, obs)
        nxt = plain
        if tries and trying.any():           # trying holds the turned back
            nxt = np.where(trying, kept, plain)
            next_try[trying] = rnd + 1 + backoff[trying]
            backoff[trying] *= 2
        tries = False
        # a candidate is evaluated in the next round, never past the budget
        if rnd >= due and rnd + 1 < budget:
            attempt = next_try <= rnd
            if attempt.any():
                at = np.flatnonzero(attempt)
                cand, definite = newton_step(
                    psi[:, at], W[:, at], obs[:, at], A[:, at],
                    lambda x: _block_product(R, x, maps[at]))
                trying = np.zeros_like(attempt)
                trying[at[definite]] = True
                tries = bool(definite.any())
                nxt = nxt.copy() if nxt is plain else nxt
                nxt[:, trying] = cand[:, definite]
                failed = at[~definite]
                next_try[failed] = rnd + 1 + backoff[failed]
                backoff[failed] *= 2
            due = int(next_try.min())
        psi, kept = nxt, plain
    return results()


def _block_product(mats, x, maps):
    """mats[maps[g]] times block g of the columns of x (coordinate rows, one
    column per chain), for x cut into maps.size blocks of one height: one
    stacked matmul on the blocks gathered into a contiguous (G, rows, h)
    stack. Each slice of it equals the plain 2-D product of its block, so a
    block's product never depends on the other blocks."""
    m, n = x.shape
    blocks = x.reshape(m, maps.size, -1).transpose(1, 0, 2).copy()
    return np.ascontiguousarray(
        np.matmul(mats[maps], blocks).transpose(1, 0, 2).reshape(m, n))


def induced_trace_norm(X, seed=0):
    """Trace-norm-induced norm of a Hermiticity-preserving superoperator.

    Exact at D = 2 (the Bloch-sphere closed form; seed is then unused), the
    alternating ascent's lower bound at D >= 3. Returns an InducedNormResult
    whose exact flag tells the two apart; the witness state and observable
    reproduce the value.
    """
    if not isinstance(X, Superoperator):
        raise TypeError("induced_trace_norm expects a Superoperator")
    if not X.hermiticity_preserving:
        raise ValueError("induced norm is defined here only for "
                         "hermiticity-preserving superoperators")
    return _induced_norm_matrix(X.matrix, X.dim, seed=seed)


def max_norm_induced(X):
    """Max-norm-induced norm sup ||X(O)||_max / ||O||_max over Hermitian O.

    By duality it is the induced trace norm of the Hilbert-Schmidt adjoint
    X^dag, so the value is exact at D = 2 and the alternating ascent's lower
    bound at D >= 3.
    """
    if not isinstance(X, Superoperator):
        raise TypeError("max_norm_induced expects a Superoperator")
    if not X.hermiticity_preserving:
        raise ValueError("max-norm-induced norm is defined here only for "
                         "hermiticity-preserving superoperators")
    adjoint = Superoperator(X.dim, X.matrix.conj().T, hermiticity_preserving=True)
    return induced_trace_norm(adjoint).value


def induced_norm_sampling_oracle(X, n_samples, seed=0):
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
        n = min(20000, remaining)  # states per batch; bounds the arrays
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
