"""Dense complex operator arithmetic and the two operator norms.

Operators are plain complex ndarrays of shape (D, D). The trace norm
(sum of singular values) measures distances between states; the max norm
(largest singular value) is its dual and measures observables.
"""
import numpy as np

HERMITICITY_RTOL = 1e-12


def _as_operator(A):
    A = np.asarray(A, dtype=complex)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError("operator must be a square matrix, got shape %r" % (A.shape,))
    if not (np.all(np.isfinite(A.real)) and np.all(np.isfinite(A.imag))):
        raise ValueError("operator has non-finite entries")
    return A


def is_hermitian(A, rtol=HERMITICITY_RTOL):
    """True if max |A_ij - conj(A_ji)| <= rtol * max|A| (zero matrix counts)."""
    A = np.asarray(A)
    scale = np.max(np.abs(A)) if A.size else 0.0
    return np.max(np.abs(A - A.conj().T)) <= rtol * max(scale, 1e-300)


def check_density_matrix(rho):
    """Validate trace one and positivity of a Hermitian state, each to an
    absolute 1e-10; raise otherwise."""
    rho = _as_operator(rho)
    if not is_hermitian(rho):
        raise ValueError("density matrix is not Hermitian")
    tr = np.trace(rho)
    if abs(tr - 1.0) > 1e-10:
        raise ValueError("density matrix trace %r is not 1" % tr)
    evals = np.linalg.eigvalsh((rho + rho.conj().T) / 2)
    if evals.min() < -1e-10:
        raise ValueError("density matrix has negative eigenvalue %g" % evals.min())
    return rho


def trace_norm(A):
    """Sum of singular values; for Hermitian input the sum of |eigenvalues|."""
    A = _as_operator(A)
    if is_hermitian(A):
        return float(np.sum(np.abs(np.linalg.eigvalsh((A + A.conj().T) / 2))))
    return float(np.sum(np.linalg.svd(A, compute_uv=False)))


def max_norm(A):
    """Largest singular value; for Hermitian input the largest |eigenvalue|."""
    A = _as_operator(A)
    if is_hermitian(A):
        evals = np.linalg.eigvalsh((A + A.conj().T) / 2)
        return float(np.max(np.abs(evals))) if evals.size else 0.0
    return float(np.linalg.svd(A, compute_uv=False)[0])


def hermitian_eigensystem(A):
    """Eigendecomposition of a Hermitian operator with deterministic phases.

    Returns (eigenvalues ascending, eigenvector columns). Each eigenvector is
    rotated so its largest-magnitude component is real and positive, which
    makes the output reproducible across runs.
    """
    A = _as_operator(A)
    if not is_hermitian(A):
        raise ValueError("hermitian_eigensystem requires a Hermitian operator")
    evals, vecs = np.linalg.eigh((A + A.conj().T) / 2)
    for k in range(vecs.shape[1]):
        idx = np.argmax(np.abs(vecs[:, k]))
        piv = vecs[idx, k]
        if abs(piv) > 0:
            vecs[:, k] *= np.conj(piv) / abs(piv)
    return evals, vecs


def sign_observable(A):
    """Difference of projectors onto nonnegative and negative eigenspaces of A.

    The returned reflection O satisfies Tr(O A) = trace_norm(A) and
    max_norm(O) = 1; zero eigenvalues are assigned to the + projector so the
    output is deterministic.
    """
    evals, vecs = hermitian_eigensystem(A)
    signs = np.where(evals >= 0, 1.0, -1.0)
    return (vecs * signs) @ vecs.conj().T
