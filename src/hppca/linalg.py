"""Dense linear-algebra kernels and reproducible random streams.

Everything here operates on plain float64 numpy arrays and is sized for
dense problems: up to a few thousand rows with a small number of columns.
The singular value and symmetric eigenvalue routines are thin wrappers
around LAPACK that enforce the contracts the rest of the package relies
on (orthonormal factors, sorted spectra, exact reconstruction bounds).
The operator norm is an explicit power iteration so it stays independent
of the eigendecomposition path and can be cross-checked against it.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

# Deviation allowed for orthonormal factors and reconstruction residuals.
FACTOR_TOL = 1e-10

# Most frames in any temporary (B, d, k) stack: the diagnostics samplers'
# chunks of random frames and the solver's buffer of iterates.
CHUNK = 64

# Internal entropy for the deterministic power-iteration start vector.
_POWER_START_ENTROPY = 0x5D2C0F1A


class PowerIterationError(RuntimeError):
    """Raised when power iteration does not reach its tolerance in time."""


def as_matrix(m, name: str = "matrix") -> np.ndarray:
    """Validate ``m`` as a dense 2-d float64 matrix with finite entries."""
    out = np.asarray(m, dtype=np.float64)
    if out.ndim != 2:
        raise ValueError(f"{name} must be 2-dimensional, got shape {out.shape}")
    if out.shape[0] == 0 or out.shape[1] == 0:
        raise ValueError(f"{name} must have positive dimensions, got shape {out.shape}")
    if not np.isfinite(out).all():
        raise ValueError(f"{name} has non-finite entries")
    return out


def frozen(a: np.ndarray) -> np.ndarray:
    """Read-only copy of an array."""
    out = a.copy()
    out.setflags(write=False)
    return out


def fro_norm(a: np.ndarray) -> float:
    """Frobenius norm by np.linalg.norm's own arithmetic (dot product of the
    array raveled in memory order, square root): bit-identical, less dispatch."""
    flat = a.ravel(order="K")
    return math.sqrt(flat.dot(flat))


@functools.lru_cache(maxsize=16)
def _identity(k: int) -> np.ndarray:
    return frozen(np.eye(k))


def fro_norms(stack: np.ndarray) -> np.ndarray:
    """fro_norm of each matrix of a C-ordered (B, d, k) stack, by the same
    arithmetic: one dot product of each raveled matrix with itself."""
    flat = stack.reshape(stack.shape[0], -1)
    return np.sqrt(np.matmul(flat[:, None, :], flat[:, :, None])[:, 0, 0])


def matrix_transpose(a: np.ndarray) -> np.ndarray:
    """Transpose of a matrix, or of each matrix of a stack."""
    return a.T if a.ndim == 2 else np.swapaxes(a, -1, -2)


def orthonormality_defect(a: np.ndarray) -> float:
    """||a.T a - I||_F; NaN when ``a`` has a non-finite entry."""
    return fro_norm(a.T @ a - _identity(a.shape[1]))


def orthonormality_defects(stack: np.ndarray) -> np.ndarray:
    """orthonormality_defect of each matrix of a (B, d, k) stack."""
    return fro_norms(matrix_transpose(stack) @ stack - _identity(stack.shape[2]))


def symmetrize(m: np.ndarray) -> np.ndarray:
    """Return the symmetric part (m + m.T) / 2."""
    return (m + m.T) / 2.0


def check_symmetric(m, name: str = "matrix", tol: float = FACTOR_TOL) -> np.ndarray:
    """Validate that ``m`` is symmetric within an entrywise tolerance."""
    out = as_matrix(m, name)
    if out.shape[0] != out.shape[1]:
        raise ValueError(f"{name} must be square, got shape {out.shape}")
    scale = max(1.0, float(np.max(np.abs(out))))
    dev = float(np.max(np.abs(out - out.T)))
    if dev > tol * scale:
        raise ValueError(f"{name} is not symmetric (max asymmetry {dev:.3e})")
    return out


@dataclass(frozen=True)
class RngStream:
    """Stateless handle for one reproducible random stream.

    The same (seed, stream) pair always yields the same draw sequence, on
    any platform, because the generator is a PCG64 keyed by a SeedSequence
    built from exactly these two integers. Distinct stream ids give
    statistically independent streams, which is how parallel trials are
    seeded.
    """

    seed: int
    stream: int = 0

    def __post_init__(self):
        for label in ("seed", "stream"):
            value = getattr(self, label)
            if not isinstance(value, (int, np.integer)) or not 0 <= int(value) < 2**64:
                raise ValueError(f"{label} must be an unsigned 64-bit integer, got {value!r}")

    def generator(self) -> np.random.Generator:
        """Fresh generator positioned at the start of this stream."""
        root = np.random.SeedSequence(entropy=int(self.seed), spawn_key=(int(self.stream),))
        return np.random.Generator(np.random.PCG64(root))


def random_gaussian(rows: int, cols: int, rng: RngStream) -> np.ndarray:
    """Matrix of iid standard normal draws, deterministic per stream."""
    _check_dims(rows, cols)
    return rng.generator().standard_normal((rows, cols))


def random_uniform_sym(rows: int, cols: int, half_width: float, rng: RngStream) -> np.ndarray:
    """Matrix of iid uniform draws on the symmetric interval [-half_width, half_width]."""
    _check_dims(rows, cols)
    if not half_width > 0:
        raise ValueError(f"half_width must be positive, got {half_width}")
    return rng.generator().uniform(-half_width, half_width, size=(rows, cols))


def _check_dims(rows: int, cols: int) -> None:
    if rows < 1 or cols < 1:
        raise ValueError(f"dimensions must be positive, got ({rows}, {cols})")


class ThinSvd(NamedTuple):
    """Thin SVD m = u @ diag(sigma) @ v.T of a tall d-by-k matrix.

    u has orthonormal columns (d-by-k), v is k-by-k orthogonal and sigma
    is nonnegative and nonincreasing. The SVD of a (B, d, k) stack holds
    one such factorization per matrix: u (B, d, k), sigma (B, k), v (B, k, k).
    """

    u: np.ndarray
    sigma: np.ndarray
    v: np.ndarray

    def reconstruct(self) -> np.ndarray:
        return self.u @ (self.sigma[..., None] * matrix_transpose(self.v))

    def polar_factor(self) -> np.ndarray:
        """Orthonormal polar factor u @ v.T, the closest orthonormal frame."""
        return self.u @ matrix_transpose(self.v)


def thin_svd(m) -> ThinSvd:
    """Thin SVD of a d-by-k matrix with d >= k, or of each matrix of a
    (B, d, k) stack array in one np.linalg.svd call.

    The input must be finite and the factors must meet the orthonormality
    and reconstruction tolerances; every tolerance test fails on NaN. A
    stack passes only if each of its matrices passes every test.
    """
    if getattr(m, "ndim", 2) == 3:
        return _thin_svd_stack(np.asarray(m, dtype=np.float64))
    mat = as_matrix(m)
    if mat.shape[0] < mat.shape[1]:
        raise ValueError(f"need at least as many rows as columns, got shape {mat.shape}")
    u, sigma, vt = np.linalg.svd(mat, full_matrices=False)
    f = ThinSvd(u=u, sigma=sigma, v=vt.T)
    if not orthonormality_defect(u) <= FACTOR_TOL:
        raise RuntimeError("svd left factor lost orthonormality")
    if not orthonormality_defect(f.v) <= FACTOR_TOL:
        raise RuntimeError("svd right factor lost orthogonality")
    if not ((sigma[:-1] >= sigma[1:]).all() and sigma[-1] >= 0):
        raise RuntimeError("singular values are not sorted nonnegative")
    resid = fro_norm(f.reconstruct() - mat)
    if not resid <= FACTOR_TOL * max(1.0, fro_norm(mat)):
        raise RuntimeError(f"svd reconstruction residual too large ({resid:.3e})")
    return f


def _thin_svd_stack(stack: np.ndarray) -> ThinSvd:
    """thin_svd of a (B, d, k) stack: the same tests, each taken per matrix.

    Kept apart from the one-matrix path, which the solver runs every
    iteration and which these stacked reductions would slow down.
    """
    if min(stack.shape) == 0:
        raise ValueError(f"matrix stack must have positive dimensions, got shape {stack.shape}")
    if stack.shape[1] < stack.shape[2]:
        raise ValueError(f"need at least as many rows as columns, got shape {stack.shape}")
    norms = fro_norms(stack)
    if not np.isfinite(norms).all() and not np.isfinite(stack).all():
        raise ValueError("matrix stack has non-finite entries")
    u, sigma, vt = np.linalg.svd(stack, full_matrices=False)
    f = ThinSvd(u=u, sigma=sigma, v=matrix_transpose(vt))
    if not (orthonormality_defects(u) <= FACTOR_TOL).all():
        raise RuntimeError("svd left factor lost orthonormality")
    if not (orthonormality_defects(f.v) <= FACTOR_TOL).all():
        raise RuntimeError("svd right factor lost orthogonality")
    if not ((sigma[:, :-1] >= sigma[:, 1:]).all() and (sigma[:, -1] >= 0).all()):
        raise RuntimeError("singular values are not sorted nonnegative")
    resid = fro_norms(f.reconstruct() - stack)
    if not (resid <= FACTOR_TOL * np.maximum(1.0, norms)).all():
        raise RuntimeError(f"svd reconstruction residual too large ({np.max(resid):.3e})")
    return f


def sym_eig_topk(s, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Largest k eigenvalues and eigenvectors of a symmetric matrix.

    Returns (values, vectors) with values nonincreasing and vectors a
    d-by-k matrix of orthonormal columns satisfying s @ vectors ~=
    vectors @ diag(values).
    """
    mat = check_symmetric(s)
    d = mat.shape[0]
    if not 1 <= k <= d:
        raise ValueError(f"k must be in [1, {d}], got {k}")
    values, vectors = np.linalg.eigh(mat)
    order = slice(d - 1, d - 1 - k, -1)
    return values[order].copy(), vectors[:, order].copy()


def operator_norm(s, tol: float = 1e-9, max_iters: int = 20000) -> float:
    """Largest eigenvalue of a symmetric positive semidefinite matrix.

    Power iteration from a deterministic seeded start vector. Convergence
    is declared when the eigenpair residual ||s v - lam v|| drops below
    tol * lam; if that never happens within max_iters a
    PowerIterationError is raised. For an indefinite symmetric matrix,
    apply this to its square and take a square root.
    """
    mat = check_symmetric(s)
    if not tol > 0:
        raise ValueError(f"tol must be positive, got {tol}")
    d = mat.shape[0]
    start = np.random.SeedSequence(entropy=_POWER_START_ENTROPY, spawn_key=(d,))
    v = np.random.Generator(np.random.PCG64(start)).standard_normal(d)
    v /= np.linalg.norm(v)
    for iteration in range(max_iters):
        w = mat @ v
        norm_w = float(np.linalg.norm(w))
        if norm_w == 0.0:
            return 0.0
        lam = float(v @ w)
        # Require one full power step before trusting the residual test,
        # so the seeded start cannot satisfy it by accident.
        if iteration >= 1 and np.linalg.norm(w - lam * v) <= tol * max(abs(lam), 1e-30):
            return max(lam, 0.0)
        v = w / norm_w
    raise PowerIterationError(
        f"power iteration did not converge in {max_iters} iterations (tol {tol:g})"
    )
