"""Stiefel manifold points, projection and sign-invariant frame metrics."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .linalg import (RngStream, as_matrix, fro_norms, frozen, orthonormality_defects,
                     random_gaussian, thin_svd)

# Orthonormality slack for points, checked on construction.
ORTHO_TOL = 1e-8

# Below this smallest singular value the orthonormal projection is not unique.
RANK_TOL = 1e-12


@dataclass(frozen=True, eq=False)
class StiefelPoint:
    """A d-by-k real matrix with orthonormal columns (d >= k).

    ``nonunique`` marks a point produced by a degenerate operation, for
    example projecting a rank-deficient matrix or initializing from a
    covariance with a tied eigengap. The point itself is still valid.
    """

    x: np.ndarray
    nonunique: bool = field(default=False, compare=False)

    def __post_init__(self):
        mat = as_matrix(self.x, "stiefel point")
        d, k = mat.shape
        if d < k:
            raise ValueError(f"need d >= k, got shape {mat.shape}")
        dev = orthonormality_defects(mat[None])[0]
        if not dev <= ORTHO_TOL:
            raise ValueError(f"columns are not orthonormal (deviation {dev:.3e})")
        object.__setattr__(self, "x", frozen(mat))

    @property
    def d(self) -> int:
        return self.x.shape[0]

    @property
    def k(self) -> int:
        return self.x.shape[1]

    def __repr__(self) -> str:
        flag = ", nonunique" if self.nonunique else ""
        return f"StiefelPoint(d={self.d}, k={self.k}{flag})"


def frame_array(x) -> np.ndarray:
    """Unwrap a StiefelPoint to its matrix; pass arrays through validated."""
    if isinstance(x, StiefelPoint):
        return x.x
    return as_matrix(x)


def project_stiefel(m) -> StiefelPoint:
    """Closest orthonormal frame to ``m``: the polar factor of its thin SVD.

    The result maximizes trace(X.T @ m) over all orthonormal frames X.
    When the smallest singular value of ``m`` is (numerically) zero the
    maximizer is not unique; one valid frame is returned with its
    ``nonunique`` flag set.
    """
    f = thin_svd(m)
    return StiefelPoint(f.p, nonunique=bool(f.sigma[-1] <= RANK_TOL))


def _frame_pair(x, ref) -> tuple[np.ndarray, np.ndarray]:
    xa, ra = frame_array(x), frame_array(ref)
    if xa.shape != ra.shape:
        raise ValueError(f"shape mismatch: {xa.shape} vs {ra.shape}")
    return xa, ra


def frame_distance(x, ref) -> float:
    """Sign-invariant Frobenius distance between two orthonormal frames.

    Minimum of ||x - ref @ diag(q)||_F over all column sign flips q.
    Always in [0, sqrt(2k)].
    """
    xa, ra = _frame_pair(x, ref)
    return float(aligned_distances(xa[None], ra)[0])


def aligned_distances(stack: np.ndarray, ra: np.ndarray) -> np.ndarray:
    """frame_distance of each frame of a (B, d, k) stack from one frame array.

    The objective separates over columns, so the best sign q_k of column k is
    the sign of the k-th diagonal entry of ra.T @ frame, with exact ties
    resolved to +1; the distances are taken on (B, d * k) rows.
    """
    signs = np.where(np.diagonal(ra.T @ stack, axis1=-2, axis2=-1) >= 0, 1.0, -1.0)
    signed = np.tile(signs, ra.shape[0]) * ra.ravel()
    return fro_norms(stack.reshape(len(stack), -1) - signed)


def sin_theta_distance(x, ref) -> float:
    """Frobenius norm of the sines of the principal angles between spans.

    Computed as ||(I - X X.T) ref||_F, which stays accurate near zero.
    """
    xa, ra = _frame_pair(x, ref)
    residual = ra - xa @ (xa.T @ ra)
    return float(np.linalg.norm(residual))


def random_stiefel(d: int, k: int, rng: RngStream) -> StiefelPoint:
    """Uniform (Haar) random frame: polar projection of a Gaussian matrix."""
    if d <= k:
        raise ValueError(f"need d > k, got d={d}, k={k}")
    return project_stiefel(random_gaussian(d, k, rng))
