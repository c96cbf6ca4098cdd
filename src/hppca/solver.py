"""Power-method solver for the grouped quadratic subspace program.

An iteration maps the frame, A = alpha * X + [M_1 x_1, ..., M_K x_K], and moves to
P = U V.T from the thin SVD A = P H, H = V Sigma V.T. The fixed-point residual
||X H - A||_F (the stopping rule) and the nuclear gap ||A||_* - trace(X.T A) vanish
exactly at fixed points. An accelerated solve moves to a type-II Anderson mixture
of the last updates (Walker & Ni, 2011) unless its objective is below X's."""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from enum import Enum
from pathlib import Path

import numpy as np

from . import linalg
from .linalg import (CHUNK, ThinSvd, check_symmetric, check_thin_svd, fro_norms,
                     polar_factors, sym_eig_topk, thin_svd)
from .model import GroupedDataset, sample_covariance
from .problem import PopulationProblem
from .stiefel import RANK_TOL, StiefelPoint, aligned_distances, frame_array

# Eigengap below which the top-k eigenvector frame is not well determined.
EIGENGAP_TOL = 1e-12

MAX_ALPHA = linalg.HUGE_SIGMA  # largest step weight: alpha * X has no larger singular value

# Differences of past fixed-point residuals an accelerated step mixes.
ANDERSON_DEPTH = 10

# Mixing weights solve the normal equations of the differences' Gram G; lstsq fits them if
# a Cholesky pivot L_ii**2 is below this share of G_ii (the squared sine between difference i
# and the earlier ones), as G scaled to a unit diagonal then has a condition number over 1e10.
GRAM_PIVOT_TOL = 1e-10

# Rounding allowed in the nuclear gap ||A||_* - trace(X.T A) (>= 0 in exact arithmetic) per
# unit of ||A||_*: a backward-stable SVD's sigma sum is off by at most k * p(d, k) * eps *
# sigma_1, the pairwise inner product of d * k entries by (log2(d * k) + 2) * sqrt(k) * eps *
# ||A||_* (as ||X||_F ||A||_F <= sqrt(k) ||A||_*). For k <= 10, d * k <= 1e6 and p <= 20
# that is under 300 eps; 1e-12 is about 4500 eps.
GAP_RTOL = 1e-12

TRACE_HEADER = "iter,f,g,dist_f,step_norm,rho_alpha,fixed_point_gap,wall_time_ms"

# One trace row per iterate; step_norm is the plain update's step, which an
# accelerated solve may replace by a mixture. Truth cells may be NaN.
TRACE_DTYPE = np.dtype([("iteration", np.int64)] + [(name, np.float64) for name in (
    "objective", "population_objective", "dist_to_truth", "step_norm", "residual",
    "fixed_point_gap", "map_norm", "wall_time")])


class Termination(str, Enum):
    RESIDUAL = "residual-converged"
    MAX_ITERS = "max-iters"
    PROJECTION_NONUNIQUE = "projection-nonunique"


@dataclass(frozen=True)
class SolverConfig:
    """Step weight, iteration budget and residual tolerance. The solve uses
    alpha as given: a finite-sample solve ascends monotonically once alpha is
    at least WeightTable.ascent_alpha_floor(), the population problem (with a
    positive semidefinite signal covariance) for any positive alpha. With accelerate on,
    a step that does not stop the solve moves to an Anderson mixture, unless it is the
    first (no history to mix) or the mixture's objective is below the frame's (then P)."""

    alpha: float = 0.05
    max_iters: int = 5000
    tol_residual: float = 1e-10
    accelerate: bool = False

    def __post_init__(self):
        check_step_weight(self.alpha)
        if self.max_iters < 0:
            raise ValueError("max_iters must be nonnegative")
        if not 0 < self.tol_residual < math.inf:
            raise ValueError(f"tol_residual must be positive and finite, got {self.tol_residual}")


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


def fixed_point_residual(problem, x: StiefelPoint, alpha: float) -> float:
    """fixed_point_residuals of one frame, as a stack of one."""
    return float(fixed_point_residuals(problem, frame_array(x)[None], alpha)[0])


def fixed_point_residuals(problem, frames: np.ndarray, alpha: float) -> np.ndarray:
    """||X V Sigma V.T - A(X)||_F of each frame X of a (B, d, k) stack of checked frame
    arrays, from one checked thin SVD of the stacked A(X) = alpha * X + M(X): zero
    exactly at fixed points, the residual of the stopping rule."""
    mapped = check_step_weight(alpha) * frames + problem.columnwise_map(frames)
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
    """Iterate the power-method update from ``init`` until the residual test fires.

    Stops at the update of the first frame whose fixed-point residual is at most
    tol_residual, or after max_iters updates: the residual is the one convergence
    test. Non-convergence is reported, never raised. With ``truth`` each row also
    carries the infinite-sample objective and the sign-invariant distance
    to the ground truth, taken on one (B, d, k) stack per chunk of rows.

    Rows run CHUNK at a time, taking linalg.lapack_svd unchecked into chunk buffers
    and mapping by ``problem.columnwise_map``, which does not re-validate frames.
    One pass per chunk (check_chunk) forms the trace rows, with their step norms, and
    takes every thin_svd test and the certificate ranges: a failing row raises when its
    chunk ends, an exception in a row once the rows before it pass. A plain solve finds
    its final row after the chunk and drops those past it; an accelerated one tests the
    residual in each row and moves to _Anderson.step's mixture. P = U V.T needs no
    check: with U and V orthonormal within FACTOR_TOL, ||P.T P - I||_F stays near
    2 * FACTOR_TOL.
    """
    for name, frame in (("initial frame", init), ("truth frame", truth and truth.q_truth)):
        if frame is not None and frame.x.shape != (problem.d, problem.k):
            raise ValueError(f"{name} has shape {frame.x.shape}, "
                             f"the problem needs ({problem.d}, {problem.k})")
    blocks, smallest = [], []

    def check_chunk(t0, stamps, frames, stack: np.ndarray, f: ThinSvd, rows, residuals, final):
        """Check the chunk's SVDs, then its kept rows' certificates (their mapped matrices
        are stack[rows], their updates f.p[rows]): each residual and time nonnegative and
        each gap at least -max(1e-9, GAP_RTOL * ||A||_*), NaN failing. Add the rows, each
        timed with a share of the chunk's pass; a ``final`` chunk's last row takes no step."""
        kept, mapped, sigma = len(frames), stack[rows], f.sigma[rows]
        check_thin_svd(stack, f, "matrix")
        inner, nuclear = (frames * mapped).reshape(kept, -1).sum(axis=1), sigma.sum(axis=1)
        gaps = nuclear - inner
        steps = fro_norms(f.p[rows] - frames)
        if final:
            steps[-1] = 0.0
        own = np.diff(stamps)[:kept]
        wall = own + (time.perf_counter() - stamps[0] - own.sum()) / kept
        if not (residuals.min() >= 0 and wall.min() >= 0
                and (gaps >= -np.maximum(1e-9, GAP_RTOL * nuclear)).all()):
            raise ValueError("iteration certificates out of range")
        metrics = ((np.full(kept, math.nan),) * 2 if truth is None else
                   (truth.frame_objective(frames), aligned_distances(frames, truth.q_truth.x)))
        blocks.append(np.rec.fromarrays([np.arange(t0, t0 + kept), inner - config.alpha * problem.k,
                                         *metrics, steps, residuals, gaps, sigma[:, 0], wall],
                                        dtype=TRACE_DTYPE))
        smallest.append(sigma[:, -1].copy())

    loop = _accelerated_rows if config.accelerate else _speculative_rows
    x, termination, safeguard_steps = loop(problem, init.x, config, check_chunk)
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


def _speculative_rows(problem, x: np.ndarray, config: SolverConfig, check_chunk):
    """gpm_solve's plain loop: the final frame, termination and 0 safeguards."""
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
            f = polar_factors(u[:n], sigma[:n], vt[:n], xs[1:n + 1])
            residuals = fro_norms(xs[:n] @ f.h - mapped[:n])
        final = 0 if stopped else config.max_iters - t0
        fires = np.flatnonzero(residuals[:final] <= config.tol_residual)
        if fires.size:
            final, termination = fires[0] + 1, Termination.RESIDUAL
        kept = min(final + 1, n)
        check_chunk(t0, stamps, xs[:kept], mapped[:kept], ThinSvd._make(a[:kept] for a in f),
                    slice(None), residuals[:kept], final < n)
        if failure is not None and final >= n:
            raise failure
        if final < n:
            return xs[final], termination, 0
        t0 += kept


def _accelerated_rows(problem, x: np.ndarray, config: SolverConfig, check_chunk):
    """gpm_solve's accelerated loop: the final frame, termination, safeguards."""
    # xs[i] is row i's frame and acc.inputs[rows[i]] its mapped matrix.
    alpha, acc, xs = config.alpha, _Anderson(*x.shape), np.empty((CHUNK + 1, *x.shape))
    rows, residuals = np.empty(CHUNK, int), np.empty(CHUNK)
    termination, t0, carried, xs[0] = Termination.MAX_ITERS, 0, False, x
    while True:
        stamps, failure, kept, done = [time.perf_counter()], None, 0, 0
        try:
            with linalg.svd_errstate():
                for i in range(CHUNK):
                    x, a, rows[i] = xs[i], acc.inputs[acc.count], acc.count
                    if not carried:
                        problem.columnwise_map(x, out=a)
                        a += alpha * x
                    pi, si, vti = acc.take()
                    residuals[i] = residual = np.linalg.norm(x @ (vti.T @ (si[:, None] * vti)) - a)
                    final = t0 + i == config.max_iters or termination is not Termination.MAX_ITERS
                    successor, carried = pi, False
                    if not final:
                        if residual <= config.tol_residual:
                            termination = Termination.RESIDUAL
                        else:
                            successor, carried = acc.step(problem, pi, pi - x, alpha, (x * a).sum())
                        xs[i + 1] = successor
                    stamps.append(time.perf_counter())
                    kept, done = i + 1, acc.count
                    if final:
                        break
        except Exception as exc:  # raised below, after the rows before it are checked
            failure = linalg.svd_failure(exc, acc.inputs[acc.count])
        if kept == 0:
            raise failure
        with np.errstate(all="ignore"):  # an infinite sigma fails the check
            f = polar_factors(acc.u[:done], acc.sigma[:done], acc.vt[:done], acc.p[:done])
        check_chunk(t0, stamps, xs[:kept], acc.inputs[:done], f, rows[:kept], residuals[:kept],
                    final)
        if failure is not None:
            raise failure
        if final:
            return xs[kept - 1], termination, acc.fallbacks
        t0 += kept
        xs[0], acc.inputs[0], acc.count = xs[CHUNK], acc.inputs[acc.count], 0


class _Anderson:
    """An accelerated chunk's SVDs, rows' and mixtures', in ``inputs`` slot order, the
    fallbacks and the mixing history: the last differences of consecutive residuals G(X) - X
    and updates G(X), flat, in a ring of ANDERSON_DEPTH slots, their Gram and latest pair."""

    def __init__(self, d: int, k: int):
        size, slots = d * k, 2 * CHUNK + 1
        self.residual_diffs, self.update_diffs = np.empty((2, ANDERSON_DEPTH, size))
        self.gram, self.latest = np.empty((ANDERSON_DEPTH, ANDERSON_DEPTH)), np.empty((2, size))
        self.inputs, self.u, self.p = np.empty((3, slots, d, k))
        self.sigma, self.vt = np.empty((slots, k)), np.empty((slots, k, k))
        self.pushes = self.depth = self.count = self.fallbacks = 0

    def take(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Decompose the next slot; return its P = U V.T, sigma and V.T."""
        c = self.count
        self.u[c], self.sigma[c], self.vt[c] = u, sigma, vt = linalg.lapack_svd(self.inputs[c])
        self.count = c + 1
        return np.matmul(u, vt, out=self.p[c]), sigma, vt

    def push(self, residual: np.ndarray, update: np.ndarray) -> None:
        """Add one iterate's flat residual and update."""
        if self.pushes:
            slot, self.depth = (self.pushes - 1) % ANDERSON_DEPTH, min(self.pushes, ANDERSON_DEPTH)
            diff = np.subtract(residual, self.latest[0], out=self.residual_diffs[slot])
            np.subtract(update, self.latest[1], out=self.update_diffs[slot])
            self.gram[slot, :self.depth] = self.gram[:self.depth, slot] = (
                self.residual_diffs[:self.depth] @ diff)
        self.latest[0], self.latest[1] = residual, update
        self.pushes += 1

    def weights(self) -> np.ndarray:
        """Least-squares weights of the residual differences for the latest
        residual (see GRAM_PIVOT_TOL); under svd_errstate, a failing factor raises."""
        diffs, gram = self.residual_diffs[:self.depth], self.gram[:self.depth, :self.depth]
        try:
            if (linalg.lapack_cholesky(gram).diagonal() ** 2
                    >= GRAM_PIVOT_TOL * gram.diagonal()).all():
                return linalg.lapack_solve(gram, diffs @ self.latest[0])
        except np.linalg.LinAlgError:  # not positive definite in floating point
            pass
        return np.linalg.lstsq(diffs.T, self.latest[0], rcond=None)[0]

    def step(self, problem, g: np.ndarray, residual: np.ndarray, alpha: float,
             floor: float) -> tuple[np.ndarray, bool]:
        """Successor of frame X, given its plain update ``g``, residual G(X) - X (both join
        the history) and trace(X.T A) = ``floor``: the mixture projected through the next slot
        unless its trace is below ``floor``, then ``g``, so an accepted mixture never lowers f
        below f(X); and whether the next slot holds the successor's alpha * X + M(X)."""
        self.push(residual.ravel(), g.ravel())
        if self.pushes == 1:
            return g, False
        np.subtract(self.latest[1], self.weights() @ self.update_diffs[:self.depth],
                    out=self.inputs[self.count].reshape(-1))
        mixture = self.take()[0]
        mapped = problem.columnwise_map(mixture, out=self.inputs[self.count])
        mapped += alpha * mixture
        # Orthonormal frames' objectives differ as trace(X.T A) does; NaN takes the mixture.
        if (mixture * mapped).sum() < floor:
            self.fallbacks += 1
            return g, False
        return mixture, True


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
