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

Every iteration is one row of a columnar trace, exported to CSV at full
precision. The truth metrics a row may carry are taken once per chunk of
iterates, while every check still fires in the iteration it concerns.

The plain update converges linearly, at a rate that can sit close to 1.
An accelerated solve (``SolverConfig.accelerate``) replaces each update by
a type-II Anderson mixture of the last ANDERSON_DEPTH updates (Walker &
Ni, 2011), projected back onto the orthonormal frames. A monotone
safeguard takes the plain update instead whenever the mixture's objective
is below it; the mixing history survives such a fallback.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from enum import Enum
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .linalg import (CHUNK, ThinSvd, check_symmetric, fro_norm, fro_norms,
                     matrix_transpose, orthonormality_defect, sym_eig_topk, thin_svd)
from .model import GroupedDataset, sample_covariance
from .problem import PopulationProblem, check_step_weight, gpm_map
from .stiefel import (ORTHO_TOL, RANK_TOL, StiefelPoint, aligned_distances,
                      frame_array, project_stiefel)

# Eigengap below which the top-k eigenvector frame is not well determined.
EIGENGAP_TOL = 1e-12

# Differences of past fixed-point residuals an accelerated step mixes.
ANDERSON_DEPTH = 10

TRACE_HEADER = "iter,f,g,dist_f,step_norm,rho_alpha,fixed_point_gap,wall_time_ms"

# One trace row per iterate; step_norm is the plain update's step, which an
# accelerated solve may replace by a mixture. Truth cells may be NaN.
TRACE_DTYPE = np.dtype([("iteration", np.int64)] + [(name, np.float64) for name in (
    "objective", "population_objective", "dist_to_truth", "step_norm", "residual",
    "fixed_point_gap", "map_norm", "wall_time")])


class Termination(str, Enum):
    RESIDUAL = "residual-converged"
    STEP = "step-converged"
    MAX_ITERS = "max-iters"
    PROJECTION_NONUNIQUE = "projection-nonunique"


@dataclass(frozen=True)
class SolverConfig:
    """Step weight, iteration budget and stopping tolerances.

    The solve uses alpha as given. A finite-sample solve ascends
    monotonically once alpha is at least the problem's
    ascent_alpha_floor(); the population problem ascends for any positive
    alpha. With accelerate on, every step that does not stop the solve is
    an Anderson mixture (see gpm_solve).
    """

    alpha: float = 0.05
    max_iters: int = 5000
    tol_step: float = 1e-12
    tol_residual: float = 1e-10
    accelerate: bool = False

    def __post_init__(self):
        if not self.alpha >= 0:
            raise ValueError("alpha must be nonnegative")
        if self.max_iters < 0:
            raise ValueError("max_iters must be nonnegative")
        if not (self.tol_step > 0 and self.tol_residual > 0):
            raise ValueError("tolerances must be positive")


def _check_certificates(residual: float, gap: float, wall_time: float,
                        where: str = "iteration") -> None:
    """Raise ValueError unless an iteration's residual, gap and time are in
    range; NaN fails."""
    if not (residual >= 0 and gap >= -1e-9 and wall_time >= 0):
        raise ValueError(f"{where} certificates out of range")


@dataclass(eq=False)
class SolveResult:
    """Final frame, full per-iteration trace (a recarray of TRACE_DTYPE)
    and why the loop stopped. safeguard_steps counts the accelerated steps
    that fell back to the plain update."""

    x_final: StiefelPoint
    trace: np.recarray
    termination: Termination
    alpha: float
    nonunique_steps: int = 0
    safeguard_steps: int = 0

    @property
    def iterations(self) -> int:
        return len(self.trace) - 1


class _Certificate(NamedTuple):
    """Checked SVD of a frame's mapped matrix and the certificates from it."""

    svd: ThinSvd
    residual: float
    gap: float
    objective: float


def _certify(problem, xa: np.ndarray, alpha: float,
             mapped: np.ndarray | None = None) -> _Certificate:
    """Map a frame array (alpha already checked), take the checked thin SVD
    and derive the fixed-point residual, the nuclear gap and the objective
    trace(X.T A) - alpha * k from them, without a second map. ``mapped``
    is the frame's mapped matrix when it is already known."""
    if mapped is None:
        mapped = alpha * xa + problem.columnwise_map(xa)
    f = thin_svd(mapped)
    residual = fro_norm(_residual_matrix(xa, f, mapped))
    inner = float((xa * mapped).sum())
    return _Certificate(f, residual, float(f.sigma.sum()) - inner, inner - alpha * xa.shape[1])


def _residual_matrix(xa: np.ndarray, f: ThinSvd, mapped: np.ndarray) -> np.ndarray:
    """X V Sigma V.T - A, whose Frobenius norm is the fixed-point residual,
    for one frame or for each frame of a (B, d, k) stack."""
    return xa @ (f.v @ (f.sigma[..., None] * matrix_transpose(f.v))) - mapped


def gpm_step(problem, x: StiefelPoint, alpha: float) -> StiefelPoint:
    """One update: project the mapped frame back onto orthonormal frames."""
    return project_stiefel(gpm_map(problem, x, alpha))


def fixed_point_residual(problem, x: StiefelPoint, alpha: float) -> float:
    """||X V Sigma V.T - A(X)||_F from the thin SVD of the mapped frame.

    Zero exactly at fixed points of the update; used as the optimality
    residual for stopping and for empirical error-bound ratios.
    """
    return _certify(problem, frame_array(x), check_step_weight(alpha)).residual


def fixed_point_residuals(population: PopulationProblem, frames: np.ndarray,
                          alpha: float) -> np.ndarray:
    """fixed_point_residual of each frame of a (B, d, k) stack of checked
    frame arrays, from one checked SVD of the stacked mapped frames."""
    mapped = check_step_weight(alpha) * frames + population.frame_map(frames)
    return fro_norms(_residual_matrix(frames, thin_svd(mapped), mapped))


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
    trace row also carries the infinite-sample objective and the
    sign-invariant distance to the ground truth.

    With ``config.accelerate`` every iteration whose stopping tests fail
    moves to the Anderson mixture of _anderson_step instead of the plain
    update; the tests themselves, and the plain update returned when one
    of them fires, are the plain solver's.

    The loop runs on plain arrays: thin_svd checks every SVD, each new
    iterate must be orthonormal within ORTHO_TOL and each iteration's
    certificates must be in range, or the iteration raises. With the
    truth, the iterates wait in a buffer of at most CHUNK frames whose
    truth metrics are taken on one (B, d, k) stack; the trace is built
    once, at the end. wall_time covers each iteration's own work.
    """
    alpha = config.alpha
    x = init.x
    rows: list[tuple] = []
    frames: list[np.ndarray] = []
    truth_cells: list[np.ndarray] = []
    termination = Termination.MAX_ITERS
    nonunique_steps = safeguard_steps = 0
    last_step_nonunique = False
    history: list[np.ndarray] = []
    mapped = None

    for t in range(config.max_iters):
        tic = time.perf_counter()
        c = _certify(problem, x, alpha, mapped)
        x_next = c.svd.polar_factor()
        _check_iterate(x_next, t + 1)
        step = fro_norm(x_next - x)
        mapped = None
        if config.accelerate and c.residual > config.tol_residual and step > config.tol_step:
            x_next, mapped, fell_back = _anderson_step(problem, x, x_next, alpha, history)
            _check_iterate(x_next, t + 1)
            safeguard_steps += fell_back
        rows.append(_row(t, c, step, tic))
        if truth is not None:
            frames.append(x)
            if len(frames) == CHUNK:
                _take_truth(truth, frames, truth_cells)
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
    c = _certify(problem, x, alpha, mapped)
    rows.append(_row(len(rows), c, 0.0, tic))
    trace = np.rec.fromrecords(rows, dtype=TRACE_DTYPE)
    if truth is not None:
        frames.append(x)
        _take_truth(truth, frames, truth_cells)
        trace.population_objective, trace.dist_to_truth = np.concatenate(truth_cells, axis=1)
    if last_step_nonunique:
        termination = Termination.PROJECTION_NONUNIQUE
    x_final = StiefelPoint(x, nonunique=last_step_nonunique) if len(rows) > 1 else init
    return SolveResult(x_final=x_final, trace=trace, termination=termination,
                       alpha=alpha, nonunique_steps=nonunique_steps,
                       safeguard_steps=safeguard_steps)


def _check_iterate(xa: np.ndarray, iteration: int) -> None:
    """Raise ValueError unless a new iterate is orthonormal within ORTHO_TOL."""
    dev = orthonormality_defect(xa)
    if not dev <= ORTHO_TOL:
        raise ValueError(f"iterate {iteration} is not orthonormal (deviation {dev:.3e})")


def _anderson_step(problem, xa: np.ndarray, g: np.ndarray, alpha: float,
                   history: list[np.ndarray]) -> tuple[np.ndarray, np.ndarray | None, bool]:
    """Accelerated successor of frame ``xa``, whose plain update is ``g``.

    ``history`` keeps, for up to ANDERSON_DEPTH + 1 consecutive iterates,
    the residual G(X) - X and the update G(X), flattened into one (2, d*k)
    array each. The mixture combines the latest update with the update
    differences, weighted by the least-squares fit of the residual
    differences to the latest residual, and is projected through the
    checked thin SVD. If the mixture's objective is below the plain
    update's, the plain update is taken. The history is kept either way:
    each pair records one iterate's plain update, whichever successor was
    taken from it.

    Returns the successor, its mapped matrix alpha * X + M(X) when it was
    computed (None otherwise) and whether the safeguard fell back.
    """
    history.append(np.stack([g - xa, g]).reshape(2, -1))
    del history[:-ANDERSON_DEPTH - 1]
    if len(history) == 1:
        return g, None, False
    pairs = np.array(history)
    diffs = np.diff(pairs, axis=0)
    gamma = np.linalg.lstsq(diffs[:, 0].T, pairs[-1, 0], rcond=None)[0]
    mixture = thin_svd((pairs[-1, 1] - gamma @ diffs[:, 1]).reshape(g.shape)).polar_factor()
    mapped_mixture = alpha * mixture + problem.columnwise_map(mixture)
    mapped_g = alpha * g + problem.columnwise_map(g)
    # Both frames are orthonormal, so their objectives differ as these
    # alignments trace(X.T A) do.
    if (mixture * mapped_mixture).sum() < (g * mapped_g).sum():
        return g, mapped_g, True
    return mixture, mapped_mixture, False


def _row(iteration: int, c: _Certificate, step: float, tic: float) -> tuple:
    """Check an iteration's certificates; return its trace row, truth cells NaN."""
    elapsed = time.perf_counter() - tic
    _check_certificates(c.residual, c.gap, elapsed)
    return (iteration, c.objective, math.nan, math.nan, step, c.residual, c.gap,
            c.svd.sigma[0], elapsed)


def _take_truth(truth: PopulationProblem, frames: list[np.ndarray],
                truth_cells: list[np.ndarray]) -> None:
    """Append the population objectives and the distances to the truth of
    the buffered frames, from one stack, to ``truth_cells``; empty the buffer."""
    stack = np.stack(frames)
    truth_cells.append(np.stack([truth.frame_objective(stack),
                                 aligned_distances(stack, truth.q_truth.x)]))
    frames.clear()


def _cells(column: np.ndarray) -> list[str]:
    """CSV cells of a truth column: a NaN is an empty cell."""
    return ["" if math.isnan(value) else "%.17g" % value for value in column.tolist()]


def trace_csv(trace: np.recarray) -> str:
    """Render a trace as CSV, 17 significant digits so floats round-trip;
    a NaN truth cell is an empty cell."""
    # "%.17g" formats a float as csv_cell does; the truth cells come rendered.
    template = "%d,%.17g,%s,%s,%.17g,%.17g,%.17g,%.17g"
    rows = zip(trace.iteration.tolist(), trace.objective.tolist(),
               _cells(trace.population_objective), _cells(trace.dist_to_truth),
               trace.step_norm.tolist(), trace.residual.tolist(),
               trace.fixed_point_gap.tolist(), (trace.wall_time * 1e3).tolist())
    return "\n".join([TRACE_HEADER, *(template % row for row in rows)]) + "\n"


def csv_cell(value: float | None) -> str:
    """17 significant digits, so floats round-trip; None is an empty cell."""
    return "" if value is None else f"{value:.17g}"


def write_trace_csv(trace: np.recarray, path) -> Path:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(trace_csv(trace))
    return path


def read_trace_csv(path) -> np.recarray:
    """Parse a trace CSV back into a trace: empty cells and the map norm,
    which is not stored, are NaN. Every row must have the header's cells
    and in-range certificates, or ValueError names its line."""
    lines = Path(path).read_text().strip().splitlines()
    if not lines or lines[0] != TRACE_HEADER:
        raise OSError(f"{path} is not a solver trace (unexpected header)")
    width = TRACE_HEADER.count(",") + 1
    rows = []
    for number, line in enumerate(lines[1:], start=2):
        cells = line.split(",")
        if len(cells) != width:
            raise ValueError(f"{path} line {number}: {len(cells)} cells, expected {width}")
        *values, wall_ms = (math.nan if cell == "" else float(cell) for cell in cells[1:])
        _check_certificates(values[4], values[5], wall_ms / 1e3, f"{path} line {number}:")
        rows.append((int(cells[0]), *values, math.nan, wall_ms / 1e3))
    return np.rec.fromrecords(rows, dtype=TRACE_DTYPE)
