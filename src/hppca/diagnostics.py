"""Empirical verification aids for the population problem and its solver.

The infinite-sample objective has a fully known critical-point structure:
every critical frame consists of eigenvectors of the signal covariance,
i.e. signed selections of columns from the orthogonal completion of the
ground-truth frame, and only the identity selection attains the optimum.
This module generates such frames, estimates the constants appearing in
the growth and error-bound inequalities by sampling, bounds the distance
from a maximizer to the truth via the residual operator norms, and
checks the eigengap condition that certifies the spectral
initialization. Results are gathered in a flat report that exports as
key=value text plus a CSV of the raw sampled ratios.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .linalg import CHUNK, RngStream, check_symmetric, fro_norms, operator_norm, thin_svd
from .model import (GroupedDataset, NoiseGroups, SignalModel, expected_covariance,
                    sample_covariance)
from .problem import HppcaProblem, PopulationProblem, build_problem, build_residuals
from .solver import SolverConfig, fixed_point_residuals, pca_init
from .stiefel import StiefelPoint, aligned_distances, frame_distance

# Distances below this are treated as "at the optimum" when forming ratios.
ZERO_DIST = 1e-6
# Residuals below this are treated as exact fixed points.
ZERO_RESIDUAL = 1e-12
# Consecutive rejected tries after which the near sampler gives up.
MAX_TRIES = 200


def orthogonal_completion(q: StiefelPoint, rng: RngStream) -> np.ndarray:
    """Deterministic orthonormal basis of the complement of span(q).

    Seeded Gaussian columns are projected against q and orthonormalized
    twice, so the completion is reproducible per stream and orthogonal to
    q to machine precision.
    """
    d, k = q.d, q.k
    if d <= k:
        raise ValueError("the frame already spans the whole space")
    raw = rng.generator().standard_normal((d, d - k))
    proj = raw - q.x @ (q.x.T @ raw)
    basis, _ = np.linalg.qr(proj)
    basis = basis - q.x @ (q.x.T @ basis)
    basis, _ = np.linalg.qr(basis)
    return basis


def critical_point(population: PopulationProblem, columns, signs,
                   rng: RngStream) -> StiefelPoint:
    """A critical frame of the population objective.

    Picks the given columns (0-based, distinct) from [Q, Q_perp] and
    applies the given per-column signs. Column indices below k select
    ground-truth directions; the rest come from the seeded completion.
    The identity selection (0..k-1) with any signs is a global maximizer;
    every other selection is critical but strictly suboptimal.
    """
    cols = list(columns)
    if len(cols) != population.k:
        raise ValueError(f"need exactly {population.k} column indices")
    if len(set(cols)) != len(cols):
        raise ValueError("column indices must be distinct")
    if any(not 0 <= c < population.d for c in cols):
        raise ValueError(f"column indices must lie in [0, {population.d})")
    sgn = np.asarray(signs, dtype=np.float64)
    if sgn.shape != (population.k,) or not np.all(np.abs(sgn) == 1.0):
        raise ValueError("signs must be a vector of +1/-1, one per column")
    completion = orthogonal_completion(population.q_truth, rng)
    qbar = np.column_stack([population.q_truth.x, completion])
    return StiefelPoint(qbar[:, cols] * sgn[None, :])


def _near_chunks(q: StiefelPoint, radius: float, gen: np.random.Generator, n: int):
    """n random frames within ``radius`` of q (in sign-invariant distance),
    CHUNK tries at a time: yields the accepted frames of each chunk with
    their distances from q, in draw order.

    Perturb-and-project: each try is q plus a Gaussian direction of
    Frobenius norm ``radius``, projected back to the manifold and rejected
    if it lands outside the ball. Each try consumes one d-by-k draw from
    ``gen``, and a chunk makes at most as many tries as frames are still
    needed, so the stream is consumed exactly as n one-frame samplers
    would consume it. Raises RuntimeError after MAX_TRIES consecutive
    rejections, counted across chunk boundaries.
    """
    needed, misses = n, 0
    while needed > 0:
        directions = gen.standard_normal((min(CHUNK, needed), q.d, q.k))
        directions *= (radius / fro_norms(directions))[:, None, None]
        frames = thin_svd(q.x + directions).p
        dists = aligned_distances(frames, q.x)
        inside = dists <= radius
        for hit in inside.tolist():
            misses = 0 if hit else misses + 1
            if misses == MAX_TRIES:
                raise RuntimeError(
                    f"could not sample within radius {radius} after {MAX_TRIES} tries")
        if inside.any():
            needed -= int(inside.sum())
            yield frames[inside], dists[inside]


def _check_sample_count(n_samples: int) -> None:
    if n_samples < 1:
        raise ValueError(f"n_samples must be at least 1, got {n_samples}")


def _rows(rows: list) -> np.ndarray:
    return np.array(rows) if rows else np.empty((0, 2))


def growth_ratio_samples(population: PopulationProblem, n_samples: int,
                         radius: float, rng: RngStream) -> tuple[np.ndarray, np.ndarray]:
    """Sampled (distance, gap / distance^2) pairs near the optimum and globally.

    The gap is optimal value minus objective; the ratio is the quantity
    whose infimum is the quadratic growth constant. Points closer than
    ZERO_DIST to the optimum set are skipped. The n_samples near frames
    are drawn first, then the n_samples global ones, from one stream.
    """
    if radius <= 0:
        raise ValueError("radius must be positive")
    _check_sample_count(n_samples)
    gen = rng.generator()
    top = population.optimal_value()

    def ratio_rows(frames, dists) -> list:
        values = population.frame_objective(frames).tolist()
        return [(dist, (top - value) / dist**2)
                for dist, value in zip(dists.tolist(), values) if not dist < ZERO_DIST]

    near = []
    for frames, dists in _near_chunks(population.q_truth, radius, gen, n_samples):
        near += ratio_rows(frames, dists)
    far = []
    for start in range(0, n_samples, CHUNK):
        draws = gen.standard_normal((min(CHUNK, n_samples - start), population.d, population.k))
        frames = thin_svd(draws).p
        far += ratio_rows(frames, aligned_distances(frames, population.q_truth.x))
    return _rows(near), _rows(far)


def _growth_rate(near: np.ndarray, far: np.ndarray) -> float:
    """Quadratic growth constant of sampled ratios: their minimum."""
    ratios = np.concatenate([near[:, 1], far[:, 1]])
    if ratios.size == 0:
        raise RuntimeError("no usable growth samples (all points hit the optimum set)")
    return float(np.min(ratios))


def error_bound_samples(population: PopulationProblem, alpha: float, n_samples: int,
                        radius: float, rng: RngStream) -> np.ndarray:
    """Sampled (distance, distance / fixed-point residual) pairs near the optimum.

    The ratio's supremum over a neighborhood is the local error-bound
    constant tying distance to the solver's optimality residual. Points
    with numerically zero residual are skipped.
    """
    if not 0 < radius < np.sqrt(2) / 2:
        raise ValueError("radius must lie in (0, sqrt(2)/2) for the local bound")
    _check_sample_count(n_samples)
    gen = rng.generator()
    rows = []
    for frames, dists in _near_chunks(population.q_truth, radius, gen, n_samples):
        residuals = fixed_point_residuals(population, frames, alpha).tolist()
        rows += [(dist, dist / residual) for dist, residual in zip(dists.tolist(), residuals)
                 if not residual < ZERO_RESIDUAL]
    return _rows(rows)


def _error_bound_factor(rows: np.ndarray) -> float:
    """Error-bound constant of sampled ratios: their maximum."""
    if rows.size == 0:
        raise RuntimeError("no usable error-bound samples")
    return float(np.max(rows[:, 1]))


def residual_norms(residuals: HppcaProblem) -> np.ndarray:
    """Operator norm of each residual matrix D_k (see build_residuals).

    The matrices are symmetric but possibly indefinite, so the norm is the
    largest eigenvalue magnitude, from one eigensolve of the whole stack.
    """
    return np.abs(np.linalg.eigvalsh(residuals.m_matrices)).max(axis=1)


def optimum_distance_bound(max_residual_norm: float, growth_rate: float, k: int) -> float:
    """Distance bound for any global maximizer of the sampled objective:
    2 sqrt(k) * max residual norm / quadratic growth constant."""
    if growth_rate <= 0:
        raise ValueError("growth constant must be positive")
    if max_residual_norm < 0:
        raise ValueError("residual norm must be nonnegative")
    return 2.0 * np.sqrt(k) * max_residual_norm / growth_rate


class DavisKahanCheck(NamedTuple):
    """Eigengap certificate for the spectral initialization.

    lhs is the squared sign-invariant distance of the top-k eigenvector
    frame from the ground truth; rhs the aggregate Davis-Kahan bound
    8 * ||C - E[C]||^2 * sum_j gap_j^(-2); holds records lhs <= rhs.
    """

    lhs: float
    rhs: float
    holds: bool


def davis_kahan_check(model: SignalModel, groups: NoiseGroups, data) -> DavisKahanCheck:
    """Check the spectral initialization against its eigengap bound.

    ``data`` is a grouped dataset or a covariance matrix. The eigengaps
    are min(lambda_{j-1} - lambda_j, lambda_j - lambda_{j+1}) with the
    strengths extended by +inf above and 0 below; they are positive
    because SignalModel's strengths are positive and strictly decreasing.
    """
    if isinstance(data, GroupedDataset):
        cov = sample_covariance(data)
    else:
        cov = check_symmetric(data, "covariance")
    deviation = operator_norm(cov - expected_covariance(model, groups))
    padded = np.concatenate([[np.inf], model.lambdas, [0.0]])
    gaps = np.minimum(padded[:-2] - padded[1:-1], padded[1:-1] - padded[2:])
    rhs = float(np.sum((2.0**1.5 * deviation / gaps) ** 2))
    init = pca_init(cov, k=model.k)
    lhs = frame_distance(init, model.q_truth) ** 2
    # Absolute slack covers the degenerate case where both sides are zero
    # up to eigensolver rounding.
    return DavisKahanCheck(lhs=lhs, rhs=rhs, holds=bool(lhs <= rhs + 1e-12))


@dataclass(frozen=True, eq=False)
class DiagnosticsReport:
    """Flat summary of every estimated constant and checked bound."""

    quadratic_growth_rate: float
    error_bound_factor: float
    residual_operator_norms: tuple[float, ...]
    max_residual_norm: float
    optimum_distance_bound: float
    init_distance_sq: float
    init_distance_bound: float
    init_bound_holds: bool
    sample_count: int

    def __post_init__(self):
        if self.quadratic_growth_rate <= 0 or self.error_bound_factor <= 0:
            raise ValueError("estimated constants must be positive")
        if any(v < 0 for v in self.residual_operator_norms):
            raise ValueError("residual norms must be nonnegative")


@dataclass(frozen=True, eq=False)
class RatioSamples:
    """Raw sampled ratios backing the report's estimated constants."""

    growth_near: np.ndarray
    growth_global: np.ndarray
    error_bound: np.ndarray

    def to_csv(self) -> str:
        lines = ["family,dist_f,ratio"]
        for family, rows in (("growth-near", self.growth_near),
                             ("growth-global", self.growth_global),
                             ("error-bound", self.error_bound)):
            for dist, ratio in rows:
                lines.append(f"{family},{dist:.17g},{ratio:.17g}")
        return "\n".join(lines) + "\n"


def run_diagnostics(model: SignalModel, groups: NoiseGroups, dataset: GroupedDataset,
                    alpha: float = SolverConfig.alpha, n_samples: int = 500,
                    rng: RngStream = RngStream(0, 0), zero_residual: bool = False,
                    ) -> tuple[DiagnosticsReport, RatioSamples]:
    """Assemble the full report for one model setting and dataset.

    ``zero_residual`` replaces the sampled residual matrices by zero, the
    exact infinite-sample limit, which zeroes the distance bound.
    """
    radius = 0.3  # of the neighborhood of the truth the samplers draw from
    population = PopulationProblem.from_model(model, groups)
    near, far = growth_ratio_samples(population, n_samples, radius, rng)
    growth = _growth_rate(near, far)
    eb_rows = error_bound_samples(population, alpha, n_samples, radius,
                                  RngStream(rng.seed, rng.stream + 1))
    factor = _error_bound_factor(eb_rows)
    if zero_residual:
        norms = np.zeros(model.k)
    else:
        norms = residual_norms(build_residuals(build_problem(dataset, model.lambdas), population))
    bound = optimum_distance_bound(float(np.max(norms)), growth, model.k) \
        if np.max(norms) > 0 else 0.0
    dk = davis_kahan_check(model, groups, dataset)
    report = DiagnosticsReport(
        quadratic_growth_rate=growth,
        error_bound_factor=factor,
        residual_operator_norms=tuple(float(v) for v in norms),
        max_residual_norm=float(np.max(norms)),
        optimum_distance_bound=bound,
        init_distance_sq=dk.lhs,
        init_distance_bound=dk.rhs,
        init_bound_holds=dk.holds,
        sample_count=n_samples,
    )
    return report, RatioSamples(growth_near=near, growth_global=far, error_bound=eb_rows)


def report_text(report: DiagnosticsReport) -> str:
    """Flat key=value rendering of the report."""
    lines = [
        f"quadratic_growth_rate={report.quadratic_growth_rate:.17g}",
        f"error_bound_factor={report.error_bound_factor:.17g}",
        "residual_operator_norms=" + ",".join(f"{v:.17g}" for v in report.residual_operator_norms),
        f"max_residual_norm={report.max_residual_norm:.17g}",
        f"optimum_distance_bound={report.optimum_distance_bound:.17g}",
        f"init_distance_sq={report.init_distance_sq:.17g}",
        f"init_distance_bound={report.init_distance_bound:.17g}",
        f"init_bound_holds={str(report.init_bound_holds).lower()}",
        f"sample_count={report.sample_count}",
    ]
    return "\n".join(lines) + "\n"


def write_report(report: DiagnosticsReport, samples: RatioSamples, directory) -> Path:
    """Write report.txt and ratio_samples.csv into ``directory``."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    (directory / "report.txt").write_text(report_text(report))
    (directory / "ratio_samples.csv").write_text(samples.to_csv())
    return directory
