"""Power-method solver for the grouped quadratic subspace program.

An iteration maps the frame, A = alpha * X + [M_1 x_1, ..., M_K x_K], and moves to
P = U V.T from the thin SVD A = P H, H = V Sigma V.T. The fixed-point residual
||X H - A||_F (the stopping rule) and the nuclear gap ||A||_* - trace(X.T A) vanish
exactly at fixed points. An accelerated solve first turns the frame of each odd row
within its span, X -> X R, by one cyclic sweep of plane rotations, each maximizing the
objective over its plane (_rotation)."""

from __future__ import annotations

import itertools
import math
import time
from dataclasses import dataclass
from enum import Enum
from pathlib import Path

import numpy as np

from . import linalg
from .linalg import (CHUNK, FACTOR_TOL, ThinSvd, check_symmetric, check_thin_svd, fro_norms,
                     orthonormality_defects, polar_factors, sym_eig_topk, thin_svd)
from .model import GroupedDataset, sample_covariance
from .problem import PopulationProblem
from .stiefel import RANK_TOL, StiefelPoint, aligned_distances, frame_array

# Eigengap below which the top-k eigenvector frame is not well determined.
EIGENGAP_TOL = 1e-12

MAX_ALPHA = linalg.HUGE_SIGMA  # largest step weight: alpha * X has no larger singular value

# Rounding allowed in the nuclear gap ||A||_* - trace(X.T A) (>= 0 in exact arithmetic) per
# unit of ||A||_*: a backward-stable SVD's sigma sum is off by at most k * p(d, k) * eps *
# sigma_1, the pairwise inner product of d * k entries by (log2(d * k) + 2) * sqrt(k) * eps *
# ||A||_* (as ||X||_F ||A||_F <= sqrt(k) ||A||_*). For k <= 10, d * k <= 1e6 and p <= 20
# that is under 300 eps; 1e-12 is about 4500 eps.
GAP_RTOL = 1e-12

TRACE_HEADER = "iter,f,g,dist_f,step_norm,rho_alpha,fixed_point_gap,wall_time_ms"

# One trace row per iterate, whose step_norm is ||P - X|| of its frame X (an accelerated
# solve's odd rows hold the rotated frame X R). Truth cells may be NaN.
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
    every odd row turns its frame within its span before its step (_rotation): the
    rotation never lowers f, so the solve ascends as the plain one does, to the same
    fixed points, but its frames are not the plain iterates; only the final frame counts."""

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
    and why the loop stopped."""

    x_final: StiefelPoint
    trace: np.recarray
    termination: Termination
    alpha: float
    nonunique_steps: int = 0

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
    takes every thin_svd test, the rotated frames' test and the certificate ranges: a
    failing row raises when its chunk ends, an exception in a row once the rows before
    it pass. A plain solve finds its final row after the chunk and drops those past it;
    an accelerated one tests the residual in each row, and maps its odd rows by
    ``problem.products``. P = U V.T needs no check: with U and V orthonormal within
    FACTOR_TOL, ||P.T P - I||_F stays near 2 * FACTOR_TOL.
    """
    for name, frame in (("initial frame", init), ("truth frame", truth and truth.q_truth)):
        if frame is not None and frame.x.shape != (problem.d, problem.k):
            raise ValueError(f"{name} has shape {frame.x.shape}, "
                             f"the problem needs ({problem.d}, {problem.k})")
    blocks, smallest = [], []

    def check_chunk(t0, stamps, frames, mapped: np.ndarray, f: ThinSvd, residuals, final,
                    rotated=slice(0)):
        """Check the chunk's SVDs, then its ``rotated`` rows' frames orthonormal within
        FACTOR_TOL (RuntimeError), then its rows' certificates (their mapped matrices are
        ``mapped``, their updates f.p): each residual and time nonnegative and each gap at
        least -max(1e-9, GAP_RTOL * ||A||_*), NaN failing. Add the rows, each timed with a
        share of the chunk's pass; a ``final`` chunk's last row takes no step."""
        kept, sigma = len(frames), f.sigma
        check_thin_svd(mapped, f, "matrix")
        turned = frames[rotated]
        if len(turned) and not (orthonormality_defects(turned) <= FACTOR_TOL).all():
            raise RuntimeError("rotated frame lost orthonormality")
        inner, nuclear = (frames * mapped).reshape(kept, -1).sum(axis=1), sigma.sum(axis=1)
        gaps = nuclear - inner
        steps = fro_norms(f.p - frames)
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
    x, termination = loop(problem, init.x, config, check_chunk)
    trace = blocks[0] if len(blocks) == 1 else np.concatenate(blocks).view(np.recarray)
    # The final row takes no step.
    nonunique = np.concatenate(smallest)[:-1] <= RANK_TOL
    last_step_nonunique = bool(nonunique.size and nonunique[-1])
    if last_step_nonunique:
        termination = Termination.PROJECTION_NONUNIQUE
    x_final = StiefelPoint(x, nonunique=last_step_nonunique) if len(trace) > 1 else init
    return SolveResult(x_final=x_final, trace=trace, termination=termination,
                       alpha=config.alpha, nonunique_steps=int(nonunique.sum()))


def _speculative_rows(problem, x: np.ndarray, config: SolverConfig, check_chunk):
    """gpm_solve's plain loop: the final frame and termination."""
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
                    residuals[:kept], final < n)
        if failure is not None and final >= n:
            raise failure
        if final < n:
            return xs[final], termination
        t0 += kept


def _accelerated_rows(problem, x: np.ndarray, config: SolverConfig, check_chunk):
    """gpm_solve's accelerated loop: the final frame and termination. Row t0 + i steps
    from xs[i], which an odd row first turns to X R by _rotation of X.T M_c X, mapping
    X R from the products M_c X as [(M_c X) R[:, c]]."""
    alpha, (d, k), svd = config.alpha, x.shape, linalg.lapack_svd
    # xs[i] is row i's frame and p[i] its update P, the next row's frame before a rotation.
    xs, (mapped, u, p) = np.empty((CHUNK + 1, d, k)), np.empty((3, CHUNK, d, k))
    sigma, vt, residuals = np.empty((CHUNK, k)), np.empty((CHUNK, k, k)), np.empty(CHUNK)
    termination, t0, xs[0] = Termination.MAX_ITERS, 0, x
    while True:
        stamps, failure, kept = [time.perf_counter()], None, 0
        try:
            with linalg.svd_errstate():
                for i in range(CHUNK):
                    x, a = xs[i], mapped[i]
                    if (t0 + i) % 2:
                        full = problem.products(x)
                        r = _rotation(x.T @ full)
                        x[...] = x @ r
                        np.matmul(full, r.T[:, :, None], out=a.T[:, :, None])
                    else:
                        problem.columnwise_map(x, out=a)
                    a += alpha * x
                    u[i], sigma[i], vt[i] = ui, si, vti = svd(a)
                    residuals[i] = residual = np.linalg.norm(x @ (vti.T @ (si[:, None] * vti)) - a)
                    np.matmul(ui, vti, out=p[i])
                    final = t0 + i == config.max_iters or termination is not Termination.MAX_ITERS
                    if not final:
                        if residual <= config.tol_residual:
                            termination = Termination.RESIDUAL
                        xs[i + 1] = p[i]
                    stamps.append(time.perf_counter())
                    kept = i + 1
                    if final:
                        break
        except Exception as exc:  # raised below, after the rows before it are checked
            failure = linalg.svd_failure(exc, mapped[i])
        if kept == 0:
            raise failure
        with np.errstate(all="ignore"):  # an infinite sigma fails the check
            f = polar_factors(u[:kept], sigma[:kept], vt[:kept], p[:kept])
        check_chunk(t0, stamps, xs[:kept], mapped[:kept], f, residuals[:kept], final,
                    slice((t0 + 1) % 2, None, 2))
        if failure is not None:
            raise failure
        if final:
            return xs[kept - 1], termination
        t0 += kept
        xs[0] = xs[CHUNK]


def _rotation(b: np.ndarray) -> np.ndarray:
    """The k-by-k rotation R of one cyclic sweep over the pairs i < j, given the (K, k, k)
    stack b[c] = X.T M_c X (not modified): R is the product of the plane rotations
    x_i <- cos t x_i + sin t x_j, x_j <- cos t x_j - sin t x_i, each at the angle
    t = atan2(q, p) / 2 that maximizes f(X R) = const + p cos 2t + q sin 2t over its plane,
    with p = (b_i[ii] + b_j[jj] - b_i[jj] - b_j[ii]) / 2 and q = b_i[ij] - b_j[ij] of b
    as the rotations before it left it. A pair with q == 0 and p >= 0 is skipped, so f
    never falls; k = 1 gives R = I."""
    k = b.shape[-1]
    b, r = b.tolist(), np.eye(k).tolist()
    for i, j in itertools.combinations(range(k), 2):
        bi, bj = b[i], b[j]
        p = 0.5 * (bi[i][i] + bj[j][j] - bi[j][j] - bj[i][i])
        q = bi[i][j] - bj[i][j]
        if q == 0 and p >= 0:
            continue
        angle = 0.5 * math.atan2(q, p)
        c, s = math.cos(angle), math.sin(angle)
        for row in itertools.chain(*b, r):  # columns i and j of each b[c] and of R
            row[i], row[j] = c * row[i] + s * row[j], c * row[j] - s * row[i]
        for m in b:  # then rows i and j of each b[c]
            m[i], m[j] = ([c * x + s * y for x, y in zip(m[i], m[j])],
                          [c * y - s * x for x, y in zip(m[i], m[j])])
    return np.array(r)


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
