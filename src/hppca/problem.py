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
X -> [M_1 x_1, ..., M_K x_K], which both problem flavors expose.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import check_symmetric, frozen, symmetrize
from .model import GroupedDataset, NoiseGroups, SignalModel, validate_lambdas
from .stiefel import StiefelPoint, frame_array

# Entrywise symmetry slack for the per-column matrices.
SYM_TOL = 1e-10


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

    @property
    def k(self) -> int:
        return self.weights.shape[1]

    @property
    def l(self) -> int:
        return self.weights.shape[0]


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
    """Sum of per-column quadratic forms assembled from a grouped dataset.

    Dense mode stores the K symmetric d-by-d matrices once, stacked in a
    read-only (K, d, d) array; ``m_matrices[k]`` is column k's matrix.
    Factored mode keeps the raw blocks and applies each form as a weighted
    sum of data-projected columns, which avoids d-by-d storage for large
    n; both modes implement the same map and agree to rounding.
    """

    weights: WeightTable
    d: int
    k: int
    n: int
    m_matrices: np.ndarray | None = None
    blocks: tuple[np.ndarray, ...] | None = None
    block_coeffs: np.ndarray | None = None

    def __post_init__(self):
        if (self.m_matrices is None) == (self.blocks is None):
            raise ValueError("exactly one of dense matrices or data blocks is required")
        if self.m_matrices is not None:
            mats = _frozen_stack(self.m_matrices, "column matrix")
            if mats.shape != (self.k, self.d, self.d):
                raise ValueError("need one d-by-d matrix per column")
            object.__setattr__(self, "m_matrices", mats)

    @property
    def factored(self) -> bool:
        return self.m_matrices is None

    def columnwise_map(self, x) -> np.ndarray:
        """Apply column k's matrix to column k: returns [M_1 x_1, ..., M_K x_K]."""
        xa = frame_array(x)
        if not self.factored:
            # One batched matrix-vector product per column: (K,d,d) @ (K,d,1).
            return np.matmul(self.m_matrices, xa.T[:, :, None])[:, :, 0].T
        out = -xa * self.weights.shifts[None, :]
        for block, coeffs in zip(self.blocks, self.block_coeffs):
            out += block @ ((block.T @ xa) * coeffs[None, :])
        return out

    def objective(self, x) -> float:
        """f(X), the sum of the per-column quadratic forms."""
        xa = frame_array(x)
        return float(np.sum(xa * self.columnwise_map(xa)))

    def materialized(self) -> "HppcaProblem":
        """Dense-mode copy (no-op if already dense)."""
        if not self.factored:
            return self
        mats = _column_matrices(self.blocks, self.block_coeffs, self.weights.shifts, self.d)
        return HppcaProblem(weights=self.weights, d=self.d, k=self.k, n=self.n,
                            m_matrices=mats)

    def ascent_alpha_floor(self) -> float:
        """Smallest step weight guaranteeing monotone ascent of f.

        Each matrix is bounded below by -shift_k * I, so adding
        max(shifts) * I makes every per-column form positive semidefinite.
        """
        return float(np.max(self.weights.shifts))

    def __repr__(self) -> str:
        mode = "factored" if self.factored else "dense"
        return f"HppcaProblem(d={self.d}, k={self.k}, n={self.n}, {mode})"


def build_problem(dataset: GroupedDataset, lambdas, factored: bool = False) -> HppcaProblem:
    """Assemble the per-column matrices (or their factored form) from data."""
    lam = validate_lambdas(lambdas, dataset.k)
    weights = build_weights(lam, dataset.groups)
    variances = np.asarray(dataset.groups.variances)
    # coeffs[l, k] scales block l inside column k's matrix.
    coeffs = weights.weights / (variances[:, None] * dataset.n)
    if factored:
        return HppcaProblem(
            weights=weights, d=dataset.d, k=dataset.k, n=dataset.n,
            blocks=dataset.blocks, block_coeffs=coeffs,
        )
    mats = _column_matrices(dataset.blocks, coeffs, weights.shifts, dataset.d)
    return HppcaProblem(weights=weights, d=dataset.d, k=dataset.k, n=dataset.n,
                        m_matrices=mats)


def _column_matrices(blocks, coeffs: np.ndarray, shifts: np.ndarray, d: int) -> list:
    """M_k = sum_l coeffs[l, k] Y_l Y_l.T - shifts[k] I for every column k."""
    group_covs = [symmetrize(block @ block.T) for block in blocks]
    mats = []
    for k in range(len(shifts)):
        acc = np.zeros((d, d))
        for cov, coeff in zip(group_covs, coeffs[:, k]):
            acc += coeff * cov
        acc -= shifts[k] * np.eye(d)
        mats.append(symmetrize(acc))
    return mats


def _frozen_stack(mats, label: str) -> np.ndarray:
    """Read-only (K, d, d) stack of square matrices, each checked symmetric."""
    stacked = np.stack([check_symmetric(m, f"{label} {i}", SYM_TOL)
                        for i, m in enumerate(mats)])
    stacked.setflags(write=False)
    return stacked


@dataclass(frozen=True, eq=False)
class PopulationProblem:
    """Infinite-sample limit: g(X) = trace(X.T @ S @ X @ diag(gains)).

    S = Q diag(lambdas) Q.T never needs to be materialized; the map is
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

    def columnwise_map(self, x) -> np.ndarray:
        xa = frame_array(x)
        overlap = self.q_truth.x.T @ xa
        return self.q_truth.x @ (self.lambdas[:, None] * overlap) * self.gains[None, :]

    def objective(self, x) -> float:
        return self.frame_objective(frame_array(x))

    def frame_objective(self, xa: np.ndarray) -> float:
        """objective() of a validated frame array, which it does not re-check."""
        overlap = self.q_truth.x.T @ xa
        return float((self.gains * (self.lambdas[:, None] * overlap**2).sum(axis=0)).sum())

    def ascent_alpha_floor(self) -> float:
        # The signal covariance is positive semidefinite, so any positive
        # step weight already ascends.
        return 0.0

    def __repr__(self) -> str:
        return f"PopulationProblem(d={self.d}, k={self.k})"


@dataclass(frozen=True, eq=False)
class ResidualSet:
    """Per-column sampling residuals D_k = M_k - gain_k * signal covariance."""

    deltas: np.ndarray  # read-only (K, d, d) stack

    def __post_init__(self):
        object.__setattr__(self, "deltas", _frozen_stack(self.deltas, "residual"))

    @property
    def k(self) -> int:
        return len(self.deltas)

    def value(self, x) -> float:
        """h(X), the residual part of the objective."""
        xa = frame_array(x)
        return float(sum(xa[:, k] @ (self.deltas[k] @ xa[:, k]) for k in range(self.k)))


def build_residuals(problem: HppcaProblem, population: PopulationProblem) -> ResidualSet:
    """Exact residual matrices; needs the ground truth, so analysis only."""
    if problem.d != population.d or problem.k != population.k:
        raise ValueError("problem and population dimensions do not match")
    dense = problem.materialized()
    signal = population.signal_covariance()
    deltas = tuple(
        dense.m_matrices[k] - population.gains[k] * signal for k in range(problem.k)
    )
    return ResidualSet(deltas=deltas)


def riemannian_gradient(population: PopulationProblem, x) -> np.ndarray:
    """Riemannian gradient of g at a frame on the manifold.

    Uses grad g(X) = (I - X X.T / 2) (G - X G.T X) with the ambient
    gradient G = 2 S X diag(gains); zero exactly at critical points.
    """
    xa = frame_array(x)
    ambient = 2.0 * population.columnwise_map(xa)
    skew = ambient - xa @ (ambient.T @ xa)
    return skew - 0.5 * xa @ (xa.T @ skew)


def gpm_map(problem, x, alpha: float) -> np.ndarray:
    """Matrix whose orthonormal projection is the next power-method iterate:
    alpha * X + [M_1 x_1, ..., M_K x_K] (finite-sample) or
    alpha * X + S X diag(gains) (population)."""
    xa = frame_array(x)
    return check_step_weight(alpha) * xa + problem.columnwise_map(xa)


def check_step_weight(alpha: float) -> float:
    """Return alpha if it is a valid step weight: nonnegative, not NaN."""
    if not alpha >= 0:
        raise ValueError(f"step weight must be nonnegative, got {alpha}")
    return alpha
