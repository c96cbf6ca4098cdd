"""Power-method solver for the grouped quadratic subspace program.

One iteration maps the current frame through the problem's column-wise
quadratic map plus an alpha-weighted copy of itself, then projects back
onto the orthonormal frames:

    X_next = polar(alpha * X + [M_1 x_1, ..., M_K x_K]).

The thin SVD computed for the projection, A = P H with P = U V.T and
H = V Sigma V.T, is reused for two per-iteration certificates:

* the fixed-point residual ||X H - A||_F, which vanishes
  exactly at fixed points of the update and doubles as the stopping rule;
* the nuclear gap ||A||_* - trace(X.T A), nonnegative for every frame
  and zero precisely at fixed points.

Every iteration is one row of a columnar trace, exported to CSV at full
precision. A plain solve checks its iterations, and takes the truth
metrics a row may carry, once per chunk of iterates.

The plain update converges linearly, at a rate that can sit close to 1.
An accelerated solve (``SolverConfig.accelerate``) replaces each update by
a type-II Anderson mixture of the last ANDERSON_DEPTH updates (Walker &
Ni, 2011), projected back onto the orthonormal frames. A monotone
safeguard takes the plain update instead whenever the mixture's objective
is below it; the mixing history survives such a fallback.
"""

from __future__ import annotations

import itertools
import math
import time
from dataclasses import dataclass
from enum import Enum
from pathlib import Path
from typing import NamedTuple

import numpy as np

from . import linalg
from .linalg import (CHUNK, ThinSvd, check_symmetric, check_thin_svd, fro_norm, fro_norms,
                     matrix_transpose, sym_eig_topk, thin_svd)
from .model import GroupedDataset, sample_covariance
from .problem import PopulationProblem
from .stiefel import RANK_TOL, StiefelPoint, aligned_distances, frame_array

# Eigengap below which the top-k eigenvector frame is not well determined.
EIGENGAP_TOL = 1e-12

MAX_ALPHA = linalg.HUGE_SIGMA  # largest step weight: alpha * X has no larger singular value

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
    monotonically once alpha is at least WeightTable.ascent_alpha_floor();
    the population problem, whose signal covariance is positive
    semidefinite, ascends for any positive alpha. With accelerate on, every
    step that does not stop the solve is an Anderson mixture (see gpm_solve).
    """

    alpha: float = 0.05
    max_iters: int = 5000
    tol_step: float = 1e-12
    tol_residual: float = 1e-10
    accelerate: bool = False

    def __post_init__(self):
        check_step_weight(self.alpha)
        if self.max_iters < 0:
            raise ValueError("max_iters must be nonnegative")
        for name in ("tol_step", "tol_residual"):
            if not 0 < getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be positive and finite, got {getattr(self, name)}")


def _check_certificates(residual: float, gap: float, wall_time: float,
                        where: str = "iteration") -> None:
    """Raise ValueError unless a row's residual, gap and time (or the least
    of a chunk's) are in range; NaN fails."""
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
    and derive the fixed-point residual ||X H - A||_F from its symmetric
    polar factor H = V Sigma V.T, the nuclear gap and the objective
    trace(X.T A) - alpha * k, without a second map. ``mapped`` is the
    frame's mapped matrix when it is already known."""
    if mapped is None:
        mapped = alpha * xa + problem.columnwise_map(xa)
    f = thin_svd(mapped)
    residual = fro_norm(xa @ f.h - mapped)
    inner = float((xa * mapped).sum())
    return _Certificate(f, residual, float(f.sigma.sum()) - inner, inner - alpha * xa.shape[1])


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
    mapped = check_step_weight(alpha) * frames + population.columnwise_map(frames)
    return fro_norms(frames @ thin_svd(mapped).h - mapped)


def check_step_weight(alpha: float) -> float:
    """Return alpha if it is a valid step weight, in [0, MAX_ALPHA]."""
    if not 0 <= alpha < math.inf:
        raise ValueError(f"alpha: step weight must be nonnegative and finite, got {alpha}")
    if alpha > MAX_ALPHA:
        raise ValueError(f"alpha: step weight must be at most {MAX_ALPHA:g}, got {alpha}")
    return alpha


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
    values, vectors = sym_eig_topk(cov, k + 1)
    degenerate = values[k - 1] - values[k] <= EIGENGAP_TOL
    return StiefelPoint(vectors[:, :k], nonunique=bool(degenerate))


def gpm_solve(problem, init: StiefelPoint, config: SolverConfig,
              truth: PopulationProblem | None = None) -> SolveResult:
    """Iterate the power-method update from ``init`` until a stopping rule fires.

    Stops when the fixed-point residual or the step norm drops below its
    tolerance, or after max_iters updates. Non-convergence is reported in
    the termination field, never raised. With ``truth`` each trace row also
    carries the infinite-sample objective and the sign-invariant distance
    to the ground truth, taken on one (B, d, k) stack per chunk of rows.

    A plain solve runs CHUNK rows at a time: each row only maps into its
    chunk buffer, takes linalg.lapack_svd (one svd_errstate per chunk) and
    forms the next iterate P = U V.T; one stacked pass per chunk then
    forms H, the residuals and steps, finds the final row
    and takes every thin_svd test (check_thin_svd) and the certificate
    ranges on the rows up to it. A failing row raises when its chunk ends;
    rows past the final one, and their exceptions, are dropped. P needs no
    check of its own: with U and V orthonormal within FACTOR_TOL,
    ||P.T P - I||_F stays near 2 * FACTOR_TOL, far below ORTHO_TOL.

    With ``config.accelerate`` each iteration whose stopping tests fail moves
    to the Anderson mixture of _anderson_step instead of the plain update;
    each row takes one checked thin_svd call and raises when it fails.

    Iterates are mapped with ``problem.columnwise_map``, which does not
    re-validate them. wall_time is a row's own work plus, in a plain solve,
    an equal share of its chunk's pass and of any rows run past the final one.
    """
    if init.x.shape != (problem.d, problem.k):
        raise ValueError(f"initial frame has shape {init.x.shape}, "
                         f"the problem needs ({problem.d}, {problem.k})")
    blocks, smallest = [], []

    def emit(block: np.recarray, frames, sigma_min: np.ndarray) -> None:
        if truth is not None:
            stack = np.asarray(frames)
            block.population_objective = truth.frame_objective(stack)
            block.dist_to_truth = aligned_distances(stack, truth.q_truth.x)
        blocks.append(block)
        smallest.append(sigma_min)

    loop = _accelerated_rows if config.accelerate else _speculative_rows
    x, termination, safeguard_steps = loop(problem, init.x, config, emit)
    trace = blocks[0] if len(blocks) == 1 else np.concatenate(blocks).view(np.recarray)
    # The final row takes no step.
    nonunique = np.concatenate(smallest)[:-1] <= RANK_TOL
    last_step_nonunique = bool(nonunique.size and nonunique[-1])
    if last_step_nonunique:
        termination = Termination.PROJECTION_NONUNIQUE
    x_final = StiefelPoint(x, nonunique=last_step_nonunique) if len(trace) > 1 else init
    return SolveResult(x_final=x_final, trace=trace, termination=termination,
                       alpha=config.alpha, nonunique_steps=int(nonunique.sum()),
                       safeguard_steps=safeguard_steps)


def _speculative_rows(problem, x: np.ndarray, config: SolverConfig, emit):
    """gpm_solve's plain loop: emit each chunk's rows, frames and smallest
    singular values; return the final frame, termination and 0 safeguards."""
    alpha, (d, k), svd = config.alpha, x.shape, linalg.lapack_svd
    # xs[i] is row i's frame and xs[i + 1] its update P.
    xs, mapped, u = np.empty((CHUNK + 1, d, k)), np.empty((CHUNK, d, k)), np.empty((CHUNK, d, k))
    sigma, vt = np.empty((CHUNK, k)), np.empty((CHUNK, k, k))
    termination, t0 = Termination.MAX_ITERS, 0
    while True:
        stopped = termination is not Termination.MAX_ITERS
        n = 1 if stopped else min(CHUNK, config.max_iters + 1 - t0)
        xs[0], stamps, failure = x, [time.perf_counter()], None
        try:
            with linalg.svd_errstate():
                for i in range(n):
                    a = problem.columnwise_map(x, out=mapped[i])
                    a += alpha * x
                    u[i], sigma[i], vt[i] = ui, _, vti = svd(a)
                    x = np.matmul(ui, vti, out=xs[i + 1])
                    stamps.append(time.perf_counter())
        except Exception as exc:  # raised below if the row is needed
            n, failure = i, linalg.svd_failure(exc, mapped[i])
        if n == 0:
            raise failure
        with np.errstate(all="ignore"):  # a row that would warn here fails a check or is dropped
            v = matrix_transpose(vt[:n])
            f = ThinSvd(u[:n], sigma[:n], v, xs[1:n + 1], v @ (sigma[:n, :, None] * vt[:n]))
            residuals = fro_norms(xs[:n] @ f.h - mapped[:n])
            steps = fro_norms(f.p - xs[:n])
        final = 0 if stopped else config.max_iters - t0
        fires = np.flatnonzero((residuals[:final] <= config.tol_residual)
                               | (steps[:final] <= config.tol_step))
        if fires.size:
            final = fires[0] + 1
            termination = (Termination.RESIDUAL if residuals[fires[0]] <= config.tol_residual
                           else Termination.STEP)
        kept = min(final + 1, n)
        check_thin_svd(mapped[:kept], ThinSvd._make(a[:kept] for a in f), "matrix")
        inner = (xs[:kept] * mapped[:kept]).reshape(kept, -1).sum(axis=1)
        gaps = sigma[:kept].sum(axis=1) - inner
        steps[final:] = 0.0  # the final row takes no step
        own = np.diff(stamps)[:kept]
        wall = own + (time.perf_counter() - stamps[0] - own.sum()) / kept
        _check_certificates(residuals[:kept].min(), gaps.min(), wall.min())
        if failure is not None and final >= n:
            raise failure
        nan = np.full(kept, math.nan)
        emit(np.rec.fromarrays([np.arange(t0, t0 + kept), inner - alpha * k, nan, nan,
                                steps[:kept], residuals[:kept], gaps, sigma[:kept, 0], wall],
                               dtype=TRACE_DTYPE), xs[:kept], sigma[:kept, -1].copy())
        if final < n:
            return xs[final], termination, 0
        t0 += kept


def _accelerated_rows(problem, x: np.ndarray, config: SolverConfig, emit):
    """gpm_solve's accelerated loop, one certified row at a time; emits and
    returns as _speculative_rows does, with the safeguard steps."""
    alpha, termination, safeguard_steps = config.alpha, Termination.MAX_ITERS, 0
    rows, frames, minima, history, mapped = [], [], [], [], None
    for t in itertools.count():
        tic = time.perf_counter()
        c = _certify(problem, x, alpha, mapped)
        final = t == config.max_iters or termination is not Termination.MAX_ITERS
        step = 0.0
        if not final:
            x_next = c.svd.p
            step = fro_norm(x_next - x)
            mapped = None
            if c.residual <= config.tol_residual:
                termination = Termination.RESIDUAL
            elif step <= config.tol_step:
                termination = Termination.STEP
            else:
                x_next, mapped, fell_back = _anderson_step(problem, x, x_next, alpha, history)
                safeguard_steps += fell_back
        elapsed = time.perf_counter() - tic
        _check_certificates(c.residual, c.gap, elapsed)
        rows.append((t, c.objective, math.nan, math.nan, step, c.residual, c.gap,
                     c.svd.sigma[0], elapsed))
        frames.append(x)
        minima.append(c.svd.sigma[-1])
        if final or len(rows) == CHUNK:
            emit(np.rec.fromrecords(rows, dtype=TRACE_DTYPE), frames, np.array(minima))
            rows, frames, minima = [], [], []
        if final:
            return x, termination, safeguard_steps
        x = x_next


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
    mixture = thin_svd((pairs[-1, 1] - gamma @ diffs[:, 1]).reshape(g.shape)).p
    mapped_mixture = alpha * mixture + problem.columnwise_map(mixture)
    mapped_g = alpha * g + problem.columnwise_map(g)
    # Both frames are orthonormal, so their objectives differ as these
    # alignments trace(X.T A) do.
    if (mixture * mapped_mixture).sum() < (g * mapped_g).sum():
        return g, mapped_g, True
    return mixture, mapped_mixture, False


def _cells(column: np.ndarray) -> list[str]:
    """CSV cells of a truth column: a NaN is an empty cell."""
    return ["" if math.isnan(value) else "%.17g" % value for value in column.tolist()]


def trace_csv(trace: np.recarray) -> str:
    """Render a trace as CSV, 17 significant digits so floats round-trip;
    a NaN truth cell is an empty cell."""
    # "%.17g" formats a float as csv_cell does; the truth cells come rendered.
    # The milliseconds are Python floats, which overflow to inf without a warning.
    template = "%d,%.17g,%s,%s,%.17g,%.17g,%.17g,%.17g"
    rows = zip(trace.iteration.tolist(), trace.objective.tolist(),
               _cells(trace.population_objective), _cells(trace.dist_to_truth),
               trace.step_norm.tolist(), trace.residual.tolist(),
               trace.fixed_point_gap.tolist(), [t * 1e3 for t in trace.wall_time.tolist()])
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
