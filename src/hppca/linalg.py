"""Dense linear-algebra kernels and reproducible random streams.

Everything here operates on plain float64 numpy arrays and is sized for
dense problems: up to a few thousand rows with a small number of columns.
The singular value and symmetric eigenvalue routines are thin wrappers
around LAPACK that enforce the contracts the rest of the package relies
on (orthonormal factors, sorted spectra, exact reconstruction bounds).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from numpy.linalg import LinAlgError, _umath_linalg

# Deviation allowed for orthonormal factors, reconstruction residuals and symmetry.
FACTOR_TOL = 1e-10

# Largest singular value above which the squares a Frobenius norm sums
# may overflow.
HUGE_SIGMA = 1e150

# Most frames in any temporary (B, d, k) stack: the diagnostics samplers'
# chunks of random frames and the solver's buffer of iterates.
CHUNK = 64

def as_matrix(m, name: str = "matrix") -> np.ndarray:
    """Validate ``m`` as a dense 2-d float64 matrix with finite entries."""
    out = _as_2d(m, name)
    _check_finite(out, name)
    return out


def _as_2d(m, name: str = "matrix") -> np.ndarray:
    """``m`` as a 2-d float64 array with positive dimensions; entries unchecked."""
    out = np.asarray(m, dtype=np.float64)
    if out.ndim != 2:
        raise ValueError(f"{name} must be 2-dimensional, got shape {out.shape}")
    if out.shape[0] == 0 or out.shape[1] == 0:
        raise ValueError(f"{name} must have positive dimensions, got shape {out.shape}")
    return out


def _check_finite(a: np.ndarray, name: str = "matrix") -> None:
    if not np.isfinite(a).all():
        raise ValueError(f"{name} has non-finite entries")


def frozen(a: np.ndarray) -> np.ndarray:
    """Read-only copy of an array."""
    out = a.copy()
    out.setflags(write=False)
    return out


@functools.lru_cache(maxsize=16)
def _identity(k: int) -> np.ndarray:
    return frozen(np.eye(k))


def fro_norms(stack: np.ndarray) -> np.ndarray:
    """Frobenius norm of each matrix of a C-ordered (B, d, k) stack by np.linalg.norm's
    own arithmetic: one dot product of each raveled matrix with itself, square root."""
    flat = stack.reshape(stack.shape[0], -1)
    return np.sqrt(np.matmul(flat[:, None, :], flat[:, :, None])[:, 0, 0])


def orthonormality_defects(stack: np.ndarray) -> np.ndarray:
    """||a.T a - I||_F of each matrix a of a (B, d, k) stack (by gemm, not syrk);
    NaN for a matrix with a non-finite entry."""
    gram = np.ascontiguousarray(stack.mT) @ stack
    return fro_norms(gram - _identity(stack.shape[2]))


def check_symmetric(m, name: str = "matrix") -> np.ndarray:
    """Validate that ``m`` is symmetric within FACTOR_TOL, relative to its largest entry."""
    out = as_matrix(m, name)
    if out.shape[0] != out.shape[1]:
        raise ValueError(f"{name} must be square, got shape {out.shape}")
    scale = max(1.0, float(np.max(np.abs(out))))
    dev = float(np.max(np.abs(out - out.T)))
    if dev > FACTOR_TOL * scale:
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
    if rows < 1 or cols < 1:
        raise ValueError(f"dimensions must be positive, got ({rows}, {cols})")
    return rng.generator().standard_normal((rows, cols))


class ThinSvd(NamedTuple):
    """Thin SVD m = u @ diag(sigma) @ v.T of a tall d-by-k matrix, with its
    polar factors m = p @ h.

    u has orthonormal columns (d-by-k), v is k-by-k orthogonal, sigma is
    nonnegative and nonincreasing, p = u @ v.T is the closest orthonormal
    frame and h = v @ diag(sigma) @ v.T is symmetric. The SVD of a (B, d, k)
    stack holds one such factorization per matrix: u and p (B, d, k), sigma
    (B, k), v and h (B, k, k).
    """

    u: np.ndarray
    sigma: np.ndarray
    v: np.ndarray
    p: np.ndarray
    h: np.ndarray


def thin_svd(m) -> ThinSvd:
    """Thin SVD of a d-by-k matrix with d >= k, or of each matrix of a
    (B, d, k) stack array in one LAPACK call (svd_factors).

    The input must be finite and the factors must meet the orthonormality
    and reconstruction tolerances; every tolerance test fails on NaN. The
    polar factors p, h are formed once (polar_factors) and the reconstruction
    is tested as ||p @ h - m||_F. Both shapes take the tests of check_thin_svd,
    one matrix as a stack of one, so a stack passes only if each of its
    matrices passes every test.
    """
    if getattr(m, "ndim", 2) == 3:
        stack = np.asarray(m, dtype=np.float64)
        if min(stack.shape) == 0:
            raise ValueError(f"matrix stack must have positive dimensions, got shape {stack.shape}")
    else:
        stack = _as_2d(m)
    if stack.shape[-2] < stack.shape[-1]:
        raise ValueError(f"need at least as many rows as columns, got shape {stack.shape}")
    u, sigma, vt = svd_factors(stack)
    with np.errstate(all="ignore"):  # an infinite sigma fails the check
        f = polar_factors(u, sigma, vt)
    if stack.ndim == 3:
        check_thin_svd(stack, f)
    else:
        check_thin_svd(stack[None], ThinSvd._make(a[None] for a in f), "matrix")
    return f


def polar_factors(u: np.ndarray, sigma: np.ndarray, vt: np.ndarray,
                  p: np.ndarray | None = None) -> ThinSvd:
    """The thin SVD u, sigma, vt of a matrix or a stack with its polar factors
    p = u @ vt (formed unless given) and h = v @ diag(sigma) @ v.T, unchecked."""
    v = vt.mT
    return ThinSvd(u, sigma, v, u @ vt if p is None else p, v @ (sigma[..., None] * vt))


# LAPACK's thin SVD: the gufunc np.linalg.svd(m, full_matrices=False) calls for float64
# input (numpy >= 2.0). Under np.linalg.svd's own svd_errstate() a failure raises LinAlgError.
lapack_svd = functools.partial(_umath_linalg.svd_s, signature="d->ddd")


def _svd_nonconvergence(err, flag):
    raise LinAlgError("SVD did not converge")


svd_errstate = functools.partial(np.errstate, call=_svd_nonconvergence, invalid="call",
                                 over="ignore", divide="ignore", under="ignore")


def svd_failure(exc: Exception, m: np.ndarray) -> Exception:
    """``exc``, or a ValueError when it is LAPACK failing on a non-finite ``m``."""
    if isinstance(exc, LinAlgError) and not np.isfinite(m).all():
        return ValueError(f"{'matrix' if m.ndim == 2 else 'matrix stack'} has non-finite entries")
    return exc


def svd_factors(m: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """lapack_svd's unchecked (u, sigma, vt) of a matrix or a (B, d, k) stack."""
    try:
        with svd_errstate():
            return lapack_svd(m)
    except LinAlgError as exc:
        raise svd_failure(exc, m) from None


def _norm_scale(sigma_max):
    """Power of two that takes a largest singular value into [1, 2).

    Scaling a matrix and its reconstruction error by it is exact and keeps
    ||m||_F >= 1, so the reconstruction test decides as it would unscaled,
    without the overflow of squaring entries above HUGE_SIGMA. A finite
    matrix whose norm exceeds the float range has no such scale.
    """
    if np.isinf(sigma_max).any():
        raise ValueError("matrix norm exceeds the floating-point range")
    return np.ldexp(1.0, 1 - np.frexp(sigma_max)[1])


def check_thin_svd(stack: np.ndarray, f: ThinSvd, name: str = "matrix stack") -> None:
    """Raise unless each matrix of a (B, d, k) stack and its thin SVD ``f``
    pass every factor test: finite input (ValueError), orthonormal u and v,
    sorted nonnegative sigma and ||p @ h - m||_F within FACTOR_TOL *
    max(1, ||m||_F) (RuntimeError). Each test is taken on the whole stack
    before the next one; a non-finite ||m||_F has the entries scanned."""
    with np.errstate(over="ignore"):  # a huge finite matrix is told apart below
        norms = fro_norms(stack)
    if not np.isfinite(norms).all():
        _check_finite(stack, name)
    if not (orthonormality_defects(f.u) <= FACTOR_TOL).all():
        raise RuntimeError("svd left factor lost orthonormality")
    if not (orthonormality_defects(f.v) <= FACTOR_TOL).all():
        raise RuntimeError("svd right factor lost orthogonality")
    if not ((f.sigma[:, :-1] >= f.sigma[:, 1:]).all() and (f.sigma[:, -1] >= 0).all()):
        raise RuntimeError("singular values are not sorted nonnegative")
    huge = f.sigma[:, 0] > HUGE_SIGMA
    if not huge.any():
        resid = fro_norms(f.p @ f.h - stack)
    else:
        # An infinite sigma raises here, before the reconstruction would warn on it.
        scales = _norm_scale(np.where(huge, f.sigma[:, 0], 1.0))[:, None, None]
        resid, norms = fro_norms((f.p @ f.h - stack) * scales), fro_norms(stack * scales)
    if not (resid <= FACTOR_TOL * np.maximum(1.0, norms)).all():
        raise RuntimeError(f"svd reconstruction residual too large ({np.max(resid):.3e})")


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
    return values[::-1][:k].copy(), vectors[:, ::-1][:, :k].copy()


def operator_norm(s) -> float:
    """Spectral norm of a symmetric, possibly indefinite matrix: its largest
    eigenvalue magnitude, from one symmetric eigensolve."""
    return float(np.abs(np.linalg.eigvalsh(check_symmetric(s))).max())
