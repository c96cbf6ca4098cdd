"""Power-method solver for the grouped quadratic subspace program.

One iteration maps the current frame through the problem's column-wise
quadratic map plus an alpha-weighted copy of itself, then projects back
onto the orthonormal frames:

    X_next = polar(alpha * X + [M_1 x_1, ..., M_K x_K]).

The thin SVD computed for the projection is reused for two per-iteration
certificates:

* the fixed-point residual ||X V Sigma V.T - A||_F, which vanishes
  exactly at fixed points of the update and doubles as the stopping rule;
* the nuclear gap ||A||_* - trace(X.T A), nonnegative for every frame
  and zero precisely at fixed points.

Every iteration is recorded; traces export to CSV at full precision.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from enum import Enum
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .linalg import (ThinSvd, check_symmetric, fro_norm, orthonormality_defect,
                     sym_eig_topk, thin_svd)
from .model import GroupedDataset, sample_covariance
from .problem import PopulationProblem, check_step_weight, gpm_map
from .stiefel import (ORTHO_TOL, RANK_TOL, StiefelPoint, aligned_distance,
                      frame_array, project_stiefel)

# Eigengap below which the top-k eigenvector frame is not well determined.
EIGENGAP_TOL = 1e-12

TRACE_HEADER = "iter,f,g,dist_f,step_norm,rho_alpha,fixed_point_gap,wall_time_ms"


class Termination(str, Enum):
    RESIDUAL = "residual-converged"
    STEP = "step-converged"
    MAX_ITERS = "max-iters"
    PROJECTION_NONUNIQUE = "projection-nonunique"


@dataclass(frozen=True)
class SolverConfig:
    """Step weight, iteration budget and stopping tolerances.

    With ascent_safeguard on, solving a finite-sample problem lifts the
    effective step weight to at least the problem's ascent floor so the
    objective is monotone; the population problem ascends for any
    positive alpha already.
    """

    alpha: float = 0.05
    max_iters: int = 5000
    tol_step: float = 1e-12
    tol_residual: float = 1e-10
    ascent_safeguard: bool = False

    def __post_init__(self):
        if not self.alpha >= 0:
            raise ValueError("alpha must be nonnegative")
        if self.max_iters < 0:
            raise ValueError("max_iters must be nonnegative")
        if not (self.tol_step > 0 and self.tol_residual > 0):
            raise ValueError("tolerances must be positive")


@dataclass(frozen=True)
class IterationRecord:
    """Metrics of one iterate; step_norm is the step taken from it."""

    iteration: int
    objective: float
    population_objective: float | None
    dist_to_truth: float | None
    step_norm: float
    residual: float
    fixed_point_gap: float
    map_norm: float
    wall_time: float

    def __post_init__(self):
        if not (self.residual >= 0 and self.fixed_point_gap >= -1e-9 and self.wall_time >= 0):
            raise ValueError("iteration certificates out of range")


@dataclass(eq=False)
class SolveResult:
    """Final frame, full per-iteration trace and why the loop stopped."""

    x_final: StiefelPoint
    trace: list[IterationRecord]
    termination: Termination
    alpha: float
    nonunique_steps: int = 0

    @property
    def iterations(self) -> int:
        return len(self.trace) - 1

    def objective_trace(self) -> np.ndarray:
        return np.array([r.objective for r in self.trace])

    def population_trace(self) -> np.ndarray:
        return np.array([r.population_objective for r in self.trace], dtype=np.float64)

    def distance_trace(self) -> np.ndarray:
        return np.array([r.dist_to_truth for r in self.trace], dtype=np.float64)


class _Certificate(NamedTuple):
    """Checked SVD of a frame's mapped matrix and the certificates from it."""

    svd: ThinSvd
    residual: float
    gap: float
    objective: float


def _certify(problem, xa: np.ndarray, alpha: float) -> _Certificate:
    """Map a frame array (alpha already checked), take the checked thin SVD
    and derive the fixed-point residual, the nuclear gap and the objective
    trace(X.T A) - alpha * k from them, without a second map."""
    mapped = alpha * xa + problem.columnwise_map(xa)
    f = thin_svd(mapped)
    residual = fro_norm(xa @ (f.v @ (f.sigma[:, None] * f.v.T)) - mapped)
    inner = float((xa * mapped).sum())
    return _Certificate(f, residual, float(f.sigma.sum()) - inner, inner - alpha * xa.shape[1])


def gpm_step(problem, x: StiefelPoint, alpha: float) -> StiefelPoint:
    """One update: project the mapped frame back onto orthonormal frames."""
    return project_stiefel(gpm_map(problem, x, alpha))


def fixed_point_residual(problem, x: StiefelPoint, alpha: float) -> float:
    """||X V Sigma V.T - A(X)||_F from the thin SVD of the mapped frame.

    Zero exactly at fixed points of the update; used as the optimality
    residual for stopping and for empirical error-bound ratios.
    """
    return _certify(problem, frame_array(x), check_step_weight(alpha)).residual


def fixed_point_gap(problem, x: StiefelPoint, alpha: float) -> float:
    """Nuclear norm of the mapped frame minus its trace alignment with X.

    Nonnegative for every frame by the trace inequality for singular
    values, and zero exactly when X is a fixed point of the update.
    """
    return _certify(problem, frame_array(x), check_step_weight(alpha)).gap


def pca_init(data, k: int | None = None) -> StiefelPoint:
    """Top-k eigenvector frame of the (pooled) sample covariance.

    Accepts a grouped dataset or a covariance matrix directly. If the
    eigengap separating the kept eigenvalues from the rest is numerically
    zero the frame is not well determined and the result is flagged
    nonunique.
    """
    if isinstance(data, GroupedDataset):
        cov = sample_covariance(data)
        k = data.k if k is None else k
    else:
        cov = check_symmetric(data, "covariance")
        if k is None:
            raise ValueError("k is required when initializing from a raw covariance")
    d = cov.shape[0]
    if not 1 <= k < d:
        raise ValueError(f"k must be in [1, {d}), got {k}")
    values, vectors = sym_eig_topk(cov, min(k + 1, d))
    degenerate = values[k - 1] - values[k] <= EIGENGAP_TOL if k < d else False
    return StiefelPoint(vectors[:, :k], nonunique=bool(degenerate))


def gpm_solve(problem, init: StiefelPoint, config: SolverConfig,
              truth: PopulationProblem | None = None) -> SolveResult:
    """Iterate the power-method update from ``init`` until a stopping rule fires.

    Stops when the fixed-point residual or the step norm drops below its
    tolerance, or after max_iters updates. Non-convergence is reported in
    the termination field, never raised. When ``truth`` is supplied each
    record also carries the infinite-sample objective and the
    sign-invariant distance to the ground truth.

    The loop runs on plain arrays: thin_svd checks every SVD, and each new
    iterate must be orthonormal within ORTHO_TOL or a ValueError is raised.
    """
    alpha = config.alpha
    if config.ascent_safeguard:
        alpha = max(alpha, problem.ascent_alpha_floor())
    x = init.x
    records: list[IterationRecord] = []
    termination = Termination.MAX_ITERS
    nonunique_steps = 0
    last_step_nonunique = False

    for t in range(config.max_iters):
        tic = time.perf_counter()
        c = _certify(problem, x, alpha)
        x_next = c.svd.polar_factor()
        dev = orthonormality_defect(x_next)
        if not dev <= ORTHO_TOL:
            raise ValueError(f"iterate {t + 1} is not orthonormal (deviation {dev:.3e})")
        step = fro_norm(x_next - x)
        records.append(_record(truth, x, t, step, c, time.perf_counter() - tic))
        last_step_nonunique = bool(c.svd.sigma[-1] <= RANK_TOL)
        nonunique_steps += last_step_nonunique
        x = x_next
        if c.residual <= config.tol_residual:
            termination = Termination.RESIDUAL
            break
        if step <= config.tol_step:
            termination = Termination.STEP
            break

    tic = time.perf_counter()
    c = _certify(problem, x, alpha)
    records.append(_record(truth, x, len(records), 0.0, c, time.perf_counter() - tic))
    if last_step_nonunique:
        termination = Termination.PROJECTION_NONUNIQUE
    x_final = StiefelPoint(x, nonunique=last_step_nonunique) if len(records) > 1 else init
    return SolveResult(x_final=x_final, trace=records, termination=termination,
                       alpha=alpha, nonunique_steps=nonunique_steps)


def _record(truth, xa: np.ndarray, iteration: int, step: float, c: _Certificate,
            elapsed: float) -> IterationRecord:
    pop_value = None
    dist = None
    if truth is not None:
        pop_value = truth.frame_objective(xa)
        dist = aligned_distance(xa, truth.q_truth.x)
    return IterationRecord(
        iteration=iteration,
        objective=c.objective,
        population_objective=pop_value,
        dist_to_truth=dist,
        step_norm=step,
        residual=c.residual,
        fixed_point_gap=c.gap,
        map_norm=float(c.svd.sigma[0]),
        wall_time=elapsed,
    )


def trace_csv(trace: list[IterationRecord]) -> str:
    """Render a trace as CSV, 17 significant digits so floats round-trip."""
    lines = [TRACE_HEADER]
    for r in trace:
        lines.append(",".join([
            str(r.iteration), csv_cell(r.objective), csv_cell(r.population_objective),
            csv_cell(r.dist_to_truth), csv_cell(r.step_norm), csv_cell(r.residual),
            csv_cell(r.fixed_point_gap), csv_cell(r.wall_time * 1e3),
        ]))
    return "\n".join(lines) + "\n"


def csv_cell(value: float | None) -> str:
    """17 significant digits, so floats round-trip; None is an empty cell."""
    return "" if value is None else f"{value:.17g}"


def write_trace_csv(trace: list[IterationRecord], path) -> Path:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(trace_csv(trace))
    return path


def read_trace_csv(path) -> list[IterationRecord]:
    """Parse a trace CSV back into records (the map norm is not stored)."""
    lines = Path(path).read_text().strip().splitlines()
    if not lines or lines[0] != TRACE_HEADER:
        raise OSError(f"{path} is not a solver trace (unexpected header)")

    def parse(cellval: str) -> float | None:
        return None if cellval == "" else float(cellval)

    records = []
    for line in lines[1:]:
        cells = line.split(",")
        records.append(IterationRecord(
            iteration=int(cells[0]), objective=parse(cells[1]),
            population_objective=parse(cells[2]), dist_to_truth=parse(cells[3]),
            step_norm=parse(cells[4]), residual=parse(cells[5]),
            fixed_point_gap=parse(cells[6]), map_norm=math.nan,
            wall_time=parse(cells[7]) / 1e3,
        ))
    return records
