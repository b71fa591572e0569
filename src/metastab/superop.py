"""Liouvillian construction, vectorization, spectra and spectral projectors.

Vectorization is column-stacking throughout: vec(A)[i + D*j] = A[i, j],
so vec(X A Y) = kron(Y.T, X) @ vec(A). Serialized superoperator matrices act
on column-stacked operators; this is the wire convention.
"""
from dataclasses import dataclass

import numpy as np

from .operators import is_hermitian

DEFECT_TOL = 1e8


class DefectiveLiouvillianError(ValueError):
    """Raised when the right-eigenvector matrix is numerically singular
    (Jordan blocks are outside the supported numerical scope)."""

    def __init__(self, condition_number):
        self.condition_number = condition_number
        super().__init__(
            "eigenvector matrix condition number %.3e exceeds the defectiveness "
            "threshold; generalized eigenmodes are not supported" % condition_number
        )


class InvalidCutError(ValueError):
    """Raised when a slow-mode cut would split a conjugate eigenvalue pair."""


def vec(A):
    """Column-stack an operator into a length-D^2 vector."""
    return np.asarray(A, dtype=complex).reshape(-1, order="F")


def unvec(v, dim=None):
    """Inverse of vec."""
    v = np.asarray(v)
    if dim is None:
        dim = int(round(np.sqrt(v.size)))
    return v.reshape(dim, dim, order="F")


@dataclass(frozen=True)
class QuantumModel:
    """Hamiltonian plus jump operators generating a Lindblad master equation."""

    hamiltonian: np.ndarray
    jumps: tuple = ()

    def __post_init__(self):
        H = np.asarray(self.hamiltonian, dtype=complex)
        if H.ndim != 2 or H.shape[0] != H.shape[1]:
            raise ValueError("Hamiltonian must be square")
        if not is_hermitian(H, rtol=1e-10):
            raise ValueError("Hamiltonian must be Hermitian")
        jumps = tuple(np.asarray(J, dtype=complex) for J in self.jumps)
        for J in jumps:
            if J.shape != H.shape:
                raise ValueError("jump operator shape %r does not match dim %d"
                                 % (J.shape, H.shape[0]))
        object.__setattr__(self, "hamiltonian", H)
        object.__setattr__(self, "jumps", jumps)

    @property
    def dim(self):
        return self.hamiltonian.shape[0]


@dataclass(frozen=True)
class Superoperator:
    """Dense linear map on column-vectorized operators."""

    dim: int
    matrix: np.ndarray
    hermiticity_preserving: bool = False
    trace_preserving: bool = False

    def apply(self, A):
        """Apply the map to an operator (D x D matrix in, D x D matrix out)."""
        return unvec(self.matrix @ vec(A), self.dim)

    def adjoint_apply(self, A):
        """Apply the Hilbert-Schmidt adjoint of the map to an operator."""
        return unvec(self.matrix.conj().T @ vec(A), self.dim)


def build_liouvillian(model):
    """Assemble the master-equation generator as a D^2 x D^2 matrix.

    The action on an operator A is -i[H, A] + sum_j (J A J^dag
    - {J^dag J, A}/2), realized in the column-stacking convention as
    -i (kron(1, H) - kron(H.T, 1)) + sum_j [kron(conj(J), J)
    - (kron(1, J^dag J) + kron((J^dag J).T, 1)) / 2].
    """
    H = model.hamiltonian
    D = model.dim
    eye = np.eye(D, dtype=complex)
    L = -1j * (np.kron(eye, H) - np.kron(H.T, eye))
    for J in model.jumps:
        JdJ = J.conj().T @ J
        L += np.kron(J.conj(), J)
        L -= 0.5 * (np.kron(eye, JdJ) + np.kron(JdJ.T, eye))
    return Superoperator(D, L, hermiticity_preserving=True, trace_preserving=True)


@dataclass(frozen=True)
class SpectralData:
    """Sorted eigensystem of a generator with biorthonormal mode pairs.

    Eigenvalues are ordered by decreasing real part (ties: ascending |imag|,
    then solver order). right_vecs holds vec(R_k) as columns; left_dual holds
    the dual rows, so that left_dual @ right_vecs = identity and
    e^{tL} = right_vecs @ diag(e^{t lambda}) @ left_dual. The mode operators
    are normalized to Tr(left_mode(k) @ right_mode(l)) = delta_kl, without
    conjugation. A classical rate matrix stores its eigenvectors the same way
    (dim is then the number of states), with left_dual None when the chain
    is defective.
    """

    dim: int
    eigenvalues: np.ndarray
    right_vecs: np.ndarray
    left_dual: np.ndarray
    m_ss: int
    zero_tol: float
    eigvec_condition: float

    @property
    def n_modes(self):
        return self.eigenvalues.size

    def right_mode(self, k):
        return unvec(self.right_vecs[:, k], self.dim)

    def left_mode(self, k):
        return unvec(self.left_dual[k, :], self.dim).T

    def evolution_matrix(self, t):
        if t < 0:
            raise ValueError("the dynamics is a semigroup: t must be >= 0")
        return (self.right_vecs * np.exp(t * self.eigenvalues)) @ self.left_dual

    def adjoint_evolution_matrix(self, t):
        return self.evolution_matrix(t).conj().T

    def projector_matrix(self, m):
        """Matrix of the projection onto the m leading (slowest) modes."""
        if not (self.m_ss <= m <= self.n_modes):
            raise InvalidCutError("cut m=%d outside [m_ss=%d, %d]"
                                  % (m, self.m_ss, self.n_modes))
        if m < self.n_modes and self._splits_pair(m):
            raise InvalidCutError("cut m=%d splits a conjugate eigenvalue pair" % m)
        return self.right_vecs[:, :m] @ self.left_dual[:m, :]

    def _splits_pair(self, m):
        lam = self.eigenvalues
        if m == 0 or m == lam.size:
            return False
        a, b = lam[m - 1], lam[m]
        scale = max(np.max(np.abs(lam)), 1.0)
        return (abs(a.imag) > 1e-12 * scale and abs(a - np.conj(b)) <= 1e-8 * scale
                and abs(a.imag + b.imag) <= 1e-8 * scale)

    def valid_cuts(self):
        return [m for m in range(self.m_ss, self.n_modes + 1)
                if m == self.n_modes or not self._splits_pair(m)]


def _sort_order(eigenvalues):
    lam = np.asarray(eigenvalues)
    return np.lexsort((np.arange(lam.size), np.abs(lam.imag), -lam.real))


def _hermitianize_block(vecs, dim):
    """Recombine eigenvector columns of a real-eigenvalue block into
    Hermitian-operator vectors spanning the same space."""
    g = vecs.shape[1]
    cands = []
    for k in range(g):
        M = unvec(vecs[:, k], dim)
        cands.append(vec((M + M.conj().T) / 2))
        cands.append(vec((M - M.conj().T) / 2j))
    C = np.array(cands).T
    # pick g independent columns by column-pivoted Gram-Schmidt: each step
    # takes the remaining column with the largest residual norm and swaps it
    # to the front, as LAPACK geqp3 (pivoted QR) does, so the choice is
    # geqp3's unless two residual norms tie to rounding
    R, piv = C.copy(), np.arange(2 * g)
    for i in range(g):
        norms = np.linalg.norm(R[:, piv[i:]], axis=0)
        p = i + int(np.argmax(norms))
        piv[[i, p]] = piv[[p, i]]
        if norms[p - i] == 0:
            break  # rank below g: the check below returns vecs
        q = R[:, piv[i]] / norms[p - i]
        R -= np.outer(q, q.conj() @ R)
    out = C[:, sorted(piv[:g])]
    # fails only if the block is not closed under conjugation, which cannot
    # happen for a Hermiticity-preserving map
    if np.linalg.matrix_rank(out, tol=1e-10 * max(1.0, np.abs(out).max())) < g:
        return vecs
    return out


def spectral_decompose(liouvillian, zero_tol=None, defect_tol=DEFECT_TOL):
    """Full eigensystem of the generator with canonical mode normalization.

    Real-eigenvalue modes are made Hermitian, complex modes come in conjugate
    pairs with conjugated mode operators, and for a unique stationary state the
    left zero-mode is fixed to the identity operator.
    """
    L = liouvillian.matrix
    D = liouvillian.dim
    lam, V = np.linalg.eig(L)
    order = _sort_order(lam)
    lam = lam[order]
    V = V[:, order]

    scale = max(float(np.max(np.abs(lam))), 0.0)
    if zero_tol is None:
        zero_tol = 1e-9 * scale + 1e-300
    real_tol = max(zero_tol, 1e-10 * max(scale, 1.0))

    # enforce Hermitian modes for real eigenvalues, conjugate pairing otherwise
    n = lam.size
    used = np.zeros(n, dtype=bool)
    k = 0
    while k < n:
        if used[k]:
            k += 1
            continue
        if abs(lam[k].imag) <= real_tol:
            block = [k]
            j = k + 1
            while j < n and not used[j] and abs(lam[j].imag) <= real_tol \
                    and abs(lam[j] - lam[k]) <= real_tol:
                block.append(j)
                j += 1
            V[:, block] = _hermitianize_block(V[:, block], D)
            lam[block] = lam[block].real
            for b in block:
                used[b] = True
        else:
            # find the conjugate partner among unused eigenvalues
            cand = [j for j in range(n) if not used[j] and j != k
                    and abs(lam[j] - np.conj(lam[k])) <= 1e-8 * max(scale, 1.0)]
            if cand:
                j = cand[0]
                M = unvec(V[:, k], D)
                V[:, j] = vec(M.conj().T)
                lam[j] = np.conj(lam[k])
                used[j] = True
            used[k] = True
        k += 1

    # re-sort with exact conjugate values so pair members sit adjacently
    order = _sort_order(lam)
    lam = lam[order]
    V = V[:, order]

    norms = np.linalg.norm(V, axis=0)
    norms[norms == 0] = 1.0
    V = V / norms

    cond = float(np.linalg.cond(V))
    if not np.isfinite(cond) or cond > defect_tol:
        raise DefectiveLiouvillianError(cond if np.isfinite(cond) else np.inf)
    W = np.linalg.inv(V)

    m_ss = int(np.sum(np.abs(lam) <= zero_tol))
    # stationary modes must lead after sorting; a mismatch signals rotating
    # asymptotic modes (real part ~ 0, imaginary part finite)
    if not np.all(np.abs(lam[:m_ss]) <= zero_tol):
        raise ValueError("asymptotic dynamics is not stationary: eigenvalues "
                         "with vanishing real part carry finite imaginary part")

    if m_ss == 1:
        # fix the scale freedom so the conserved left mode is exactly identity
        ident = vec(np.eye(D, dtype=complex))
        c = (W[0, :] @ ident) / D
        if abs(c) > 0:
            W[0, :] /= c
            V[:, 0] *= c

    return SpectralData(dim=D, eigenvalues=lam, right_vecs=V, left_dual=W,
                        m_ss=m_ss, zero_tol=zero_tol, eigvec_condition=cond)


def evolution(spec, t):
    """Evolution superoperator e^{tL} from the spectral decomposition."""
    return Superoperator(spec.dim, spec.evolution_matrix(t),
                         hermiticity_preserving=True, trace_preserving=True)


def evolution_expm(liouvillian, t):
    """Scaling-and-squaring matrix exponential; test-side cross check."""
    import scipy.linalg  # here, so that quantum commands load no scipy

    if t < 0:
        raise ValueError("the dynamics is a semigroup: t must be >= 0")
    return Superoperator(liouvillian.dim, scipy.linalg.expm(t * liouvillian.matrix),
                         hermiticity_preserving=True, trace_preserving=True)


def stationary_projector(spec):
    """Projection onto the stationary (zero-eigenvalue) modes."""
    return Superoperator(spec.dim, spec.projector_matrix(spec.m_ss),
                         hermiticity_preserving=True, trace_preserving=True)


def slow_projector(spec, m):
    """Projection onto the m slowest modes; m must respect conjugate pairs."""
    return Superoperator(spec.dim, spec.projector_matrix(m),
                         hermiticity_preserving=True,
                         trace_preserving=(m >= spec.m_ss))


def superop_flags_residuals(superop, generator=False, rng=None):
    """Numerical residuals of the hermiticity/trace flags.

    For evolution maps and projections the trace functional is a left fixed
    point of the matrix; for a generator it is annihilated instead.
    """
    D = superop.dim
    rng = rng or np.random.default_rng(0)
    G = rng.normal(size=(D, D)) + 1j * rng.normal(size=(D, D))
    A = (G + G.conj().T) / 2
    out = superop.apply(A)
    herm_res = float(np.max(np.abs(out - out.conj().T)))
    ident = vec(np.eye(D, dtype=complex))
    image = superop.matrix.conj().T @ ident
    target = np.zeros_like(ident) if generator else ident
    trace_res = float(np.max(np.abs(image - target)))
    return herm_res, trace_res
