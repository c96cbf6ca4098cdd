"""Finite-sample and population objectives over the Stiefel manifold.

The estimation objective is a sum of per-column quadratic forms

    f(X) = sum_k  x_k.T @ M_k @ x_k,

where column k of X sees its own symmetric matrix

    M_k = (1/n) sum_l sum_i (w_{l,k} / v_l) y_{l,i} y_{l,i}.T  -  shift_k * I,

built from the data blocks with per-group weights w_{l,k} =
lambda_k / (lambda_k + v_l). In expectation M_k equals gain_k * S with
S = Q diag(lambdas) Q.T, which gives the exact decomposition

    f(X) = g(X) + h(X),
    g(X) = trace(X.T @ S @ X @ diag(gains))   (infinite-sample objective)
    h(X) = sum_k x_k.T @ D_k @ x_k            (sampling residual)

with D_k = M_k - gain_k * S. The solver only needs the column-wise map
X -> [M_1 x_1, ..., M_K x_K] and the stack of products M_k X, which the
finite-sample and the population problems both expose.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import check_symmetric, frozen
from .model import GroupedDataset, NoiseGroups, SignalModel, validate_lambdas
from .stiefel import StiefelPoint, frame_array


def _check_strictly_decreasing(arr: np.ndarray, label: str) -> None:
    if np.any(np.diff(arr) >= 0) or np.any(arr <= 0):
        raise ValueError(f"{label} must be positive and strictly decreasing")


@dataclass(frozen=True, eq=False)
class WeightTable:
    """Scalar families derived from signal strengths and noise groups.

    weights[l, k] = lambda_k / (lambda_k + v_l), in (0, 1), strictly
    decreasing in k for every group l. gains[k] sums weights[l, k] *
    (n_l / n) / v_l over groups and scales the signal covariance in the
    expected per-column matrix; shifts[k] sums weights[l, k] * (n_l / n)
    and is the diagonal shift subtracted when the matrices are assembled.
    Both derived families inherit the strict decrease in k.
    """

    weights: np.ndarray
    gains: np.ndarray
    shifts: np.ndarray

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=np.float64)
        if w.ndim != 2:
            raise ValueError("weights must be a 2-d (groups x columns) array")
        if np.any(w <= 0) or np.any(w >= 1):
            raise ValueError("weights must lie strictly inside (0, 1)")
        if np.any(np.diff(w, axis=1) >= 0):
            raise ValueError("weights must be strictly decreasing along columns")
        gains = np.asarray(self.gains, dtype=np.float64)
        shifts = np.asarray(self.shifts, dtype=np.float64)
        _check_strictly_decreasing(gains, "gains")
        _check_strictly_decreasing(shifts, "shifts")
        for name, arr in (("weights", w), ("gains", gains), ("shifts", shifts)):
            object.__setattr__(self, name, frozen(arr))

    def ascent_alpha_floor(self) -> float:
        """Smallest step weight guaranteeing monotone ascent of f.

        Each matrix is bounded below by -shift_k * I, so adding
        max(shifts) * I makes every per-column form positive semidefinite.
        A solve with alpha >= this floor ascends monotonically.
        """
        return float(np.max(self.shifts))


def build_weights(lambdas, groups: NoiseGroups) -> WeightTable:
    """Compute the weight, gain and shift families for a model setting."""
    lam = validate_lambdas(lambdas)
    variances = np.asarray(groups.variances, dtype=np.float64)
    props = groups.proportions
    weights = lam[None, :] / (lam[None, :] + variances[:, None])
    gains = np.einsum("lk,l,l->k", weights, props, 1.0 / variances)
    shifts = np.einsum("lk,l->k", weights, props)
    return WeightTable(weights=weights, gains=gains, shifts=shifts)


@dataclass(frozen=True, eq=False)
class HppcaProblem:
    """Sum of per-column quadratic forms sum_k x_k.T @ M_k @ x_k.

    The K symmetric d-by-d matrices are stored once, stacked in a
    read-only (K, d, d) array; ``m_matrices[k]`` is column k's matrix.
    Construction checks every matrix finite and symmetric. The sampled
    objective f and its residual h are both of this form.
    """

    m_matrices: np.ndarray

    def __post_init__(self):
        mats = np.stack([check_symmetric(m, f"column matrix {i}")
                         for i, m in enumerate(self.m_matrices)])
        mats.setflags(write=False)
        object.__setattr__(self, "m_matrices", mats)

    @property
    def d(self) -> int:
        return self.m_matrices.shape[1]

    @property
    def k(self) -> int:
        return self.m_matrices.shape[0]

    def columnwise_map(self, xa: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """[M_1 x_1, ..., M_K x_K] of a checked frame array (a StiefelPoint's
        ``x``), or of each frame of a (B, d, k) stack, written into ``out`` when
        given; the input is not re-checked."""
        # One batched matrix-vector product per column: (K,d,d) @ (..., K,d,1).
        out = np.empty_like(xa) if out is None else out
        np.matmul(self.m_matrices, xa.mT[..., None], out=out.mT[..., None])
        return out

    def products(self, xa: np.ndarray) -> np.ndarray:
        """The (K, d, k) stack of M_c @ X of a checked frame array; not re-checked."""
        return np.matmul(self.m_matrices, xa)

    def objective(self, x) -> float:
        """The sum of the per-column quadratic forms at a frame."""
        xa = frame_array(x)
        return float(np.sum(xa * self.columnwise_map(xa)))

    def __repr__(self) -> str:
        return f"HppcaProblem(d={self.d}, k={self.k})"


def build_problem(dataset: GroupedDataset, lambdas) -> HppcaProblem:
    """Assemble the per-column matrices from the dataset's block Grams."""
    lam = validate_lambdas(lambdas, dataset.k)
    weights = build_weights(lam, dataset.groups)
    variances = np.asarray(dataset.groups.variances)
    # coeffs[l, k] scales Gram l inside column k's matrix.
    coeffs = weights.weights / (variances[:, None] * dataset.n)
    # M_k = sum_l coeffs[l, k] Y_l Y_l.T - shifts[k] I, every column k at once.
    mats = sum(c[:, None, None] * gram for gram, c in zip(dataset.grams, coeffs))
    return HppcaProblem(mats - weights.shifts[:, None, None] * np.eye(dataset.d))


@dataclass(frozen=True, eq=False)
class PopulationProblem:
    """Infinite-sample limit: g(X) = trace(X.T @ S @ X @ diag(gains)).

    S = Q diag(lambdas) Q.T never needs to be formed; the map is
    applied through the frame Q at O(d k^2) cost.
    """

    q_truth: StiefelPoint
    lambdas: np.ndarray
    gains: np.ndarray

    def __post_init__(self):
        lam = validate_lambdas(self.lambdas, self.q_truth.k)
        gains = np.asarray(self.gains, dtype=np.float64)
        _check_strictly_decreasing(gains, "gains")
        if gains.size != self.q_truth.k:
            raise ValueError("need one gain per column")
        for name, arr in (("lambdas", lam), ("gains", gains)):
            object.__setattr__(self, name, frozen(arr))

    @classmethod
    def from_model(cls, model: SignalModel, groups: NoiseGroups) -> "PopulationProblem":
        table = build_weights(model.lambdas, groups)
        return cls(q_truth=model.q_truth, lambdas=model.lambdas, gains=table.gains)

    @property
    def d(self) -> int:
        return self.q_truth.d

    @property
    def k(self) -> int:
        return self.q_truth.k

    def signal_covariance(self) -> np.ndarray:
        return SignalModel(self.q_truth, self.lambdas).signal_covariance()

    def optimal_value(self) -> float:
        """g at the ground truth, sum_k lambda_k * gain_k; the global maximum."""
        return float(np.dot(self.lambdas, self.gains))

    def columnwise_map(self, xa: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """[g_1 S x_1, ..., g_K S x_K] of a checked frame array, or of each
        frame of a (B, d, k) stack, into ``out`` if given; not re-checked."""
        overlap = self.q_truth.x.T @ xa
        return np.multiply(self.q_truth.x @ (self.lambdas[:, None] * overlap), self.gains,
                           out=out)

    def products(self, xa: np.ndarray) -> np.ndarray:
        """The (K, d, k) stack of g_c S @ X of a checked frame array; not re-checked."""
        q = self.q_truth.x
        return self.gains[:, None, None] * (q @ (self.lambdas[:, None] * (q.T @ xa)))

    def objective(self, x) -> float:
        return float(self.frame_objective(frame_array(x)))

    def frame_objective(self, xa: np.ndarray) -> np.ndarray:
        """objective() of a validated frame array (a numpy scalar), or of each
        frame of a (B, d, k) stack; the input is not re-checked."""
        overlap = self.q_truth.x.T @ xa
        return (self.gains * (self.lambdas[:, None] * overlap**2).sum(axis=-2)).sum(axis=-1)

    def __repr__(self) -> str:
        return f"PopulationProblem(d={self.d}, k={self.k})"


def build_residuals(problem: HppcaProblem, population: PopulationProblem) -> HppcaProblem:
    """Exact residual matrices D_k = M_k - gain_k * S, as the problem whose
    objective is h; needs the ground truth, so analysis only."""
    if problem.d != population.d or problem.k != population.k:
        raise ValueError("problem and population dimensions do not match")
    signal = population.signal_covariance()
    return HppcaProblem(problem.m_matrices - population.gains[:, None, None] * signal)


def riemannian_gradient(population: PopulationProblem, x) -> np.ndarray:
    """Riemannian gradient of g at a frame on the manifold.

    Uses grad g(X) = (I - X X.T / 2) (G - X G.T X) with the ambient
    gradient G = 2 S X diag(gains); zero exactly at critical points.
    """
    xa = frame_array(x)
    ambient = 2.0 * population.columnwise_map(xa)
    skew = ambient - xa @ (ambient.T @ xa)
    return skew - 0.5 * xa @ (xa.T @ skew)
