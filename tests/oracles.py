"""Independent numerical oracles used to cross-check library routines.

Nothing here may call the code path it is used to verify: the eigen
oracle is a hand-rolled cyclic Jacobi iteration, the trace-maximization
oracle combines mass sampling with a QR-retraction ascent, and the sign
and critical-value oracles are exhaustive enumerations. The diagnostics
samplers and the solver's trace records are checked against
one-frame-at-a-time references built on one-frame formulas: thin_svd of
one matrix, project_stiefel, and this module's one_frame_distance,
one_frame_population_objective and one_frame_residual. The library's
frame_distance, PopulationProblem.objective and fixed_point_residual are its
stacked kernels on a stack of one, so the references do not call them. Those
references take their values from a one-matrix factorization (LAPACK on the
2-d matrix, then 2-d products) and their checks from check_thin_svd, which
thin_svd runs on one matrix as on a stack of one.
read_trace parses a trace CSV back, so that its 17 digits can be compared
with the trace they were written from.
"""

from __future__ import annotations

import itertools
import math
from pathlib import Path

import numpy as np

from hppca.diagnostics import ZERO_DIST, ZERO_RESIDUAL
from hppca.linalg import thin_svd
from hppca.solver import TRACE_DTYPE, TRACE_HEADER
from hppca.stiefel import project_stiefel


def jacobi_eigh(s, max_sweeps: int = 100, tol: float = 1e-13):
    """Full symmetric eigendecomposition by cyclic Jacobi rotations.

    Returns (values, vectors) sorted by decreasing eigenvalue. Intended
    for small matrices; deliberately avoids LAPACK.
    """
    a = np.array(s, dtype=np.float64)
    n = a.shape[0]
    vecs = np.eye(n)
    scale = max(1.0, float(np.linalg.norm(np.diag(a))))
    for _ in range(max_sweeps):
        off = np.sqrt(np.sum(np.tril(a, -1) ** 2))
        if off <= tol * scale:
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                if abs(a[p, q]) < 1e-300:
                    continue
                theta = (a[q, q] - a[p, p]) / (2.0 * a[p, q])
                if theta == 0.0:
                    t = 1.0
                else:
                    t = np.sign(theta) / (abs(theta) + np.sqrt(theta**2 + 1.0))
                c = 1.0 / np.sqrt(t**2 + 1.0)
                sn = t * c
                rot = np.eye(n)
                rot[p, p] = rot[q, q] = c
                rot[p, q] = sn
                rot[q, p] = -sn
                a = rot.T @ a @ rot
                vecs = vecs @ rot
    values = np.diag(a).copy()
    order = np.argsort(values)[::-1]
    return values[order], vecs[:, order]


def best_trace_by_search(m, n_samples: int = 100_000, seed: int = 0,
                         refine_iters: int = 400, step: float = 0.2) -> float:
    """Best trace(X.T @ m) over orthonormal frames found by brute search.

    Samples orthonormal frames via batched QR of Gaussians (with optimal
    per-column sign flips, which stay on the manifold), then refines the
    best one by Riemannian gradient ascent with a QR retraction. Never
    uses an SVD.
    """
    d, k = m.shape
    gen = np.random.Generator(np.random.PCG64(seed))
    batch = gen.standard_normal((n_samples, d, k))
    frames, _ = np.linalg.qr(batch)
    # For a linear objective the optimal sign of each column is free.
    per_column = np.einsum("ndk,dk->nk", frames, m)
    vals = np.sum(np.abs(per_column), axis=1)
    best_idx = int(np.argmax(vals))
    x = frames[best_idx] * np.sign(per_column[best_idx])[None, :]
    best = float(np.sum(x * m))
    for _ in range(refine_iters):
        sym = (x.T @ m + m.T @ x) / 2.0
        tangent = m - x @ sym
        q, r = np.linalg.qr(x + step * tangent)
        q = q * np.sign(np.diag(r))[None, :]
        value = float(np.sum(q * m))
        if value > best:
            best = value
            x = q
        else:
            step *= 0.5
            if step < 1e-12:
                break
    return best


def exhaustive_sign_distance(x, ref):
    """Minimum of ||x - ref * signs|| over all sign vectors, by enumeration."""
    k = x.shape[1]
    best_val, best_signs = np.inf, None
    for bits in itertools.product((1.0, -1.0), repeat=k):
        signs = np.array(bits)
        val = float(np.linalg.norm(x - ref * signs[None, :]))
        if val < best_val:
            best_val, best_signs = val, signs
    return best_val, best_signs


def one_frame_distance(x: np.ndarray, ref: np.ndarray) -> float:
    """frame_distance of two frame arrays by the one-frame formula: ||x - ref * q||_F,
    q_k the sign of the k-th diagonal entry of ref.T @ x (ties +1)."""
    return float(np.linalg.norm(x - ref * np.where(np.diagonal(ref.T @ x) >= 0, 1.0, -1.0)))


def one_frame_population_objective(q: np.ndarray, lambdas: np.ndarray, gains: np.ndarray,
                                   x: np.ndarray) -> float:
    """PopulationProblem.objective of a frame array by the one-frame formula:
    sum_k gains_k * sum_j lambdas_j * (q_j . x_k)**2."""
    return float(np.sum(gains * np.sum(lambdas[:, None] * (q.T @ x) ** 2, axis=0)))


def one_frame_residual(problem, x: np.ndarray, alpha: float) -> float:
    """fixed_point_residual of a frame array by the one-frame formula: ||X H - A||_F
    with H from thin_svd of the 2-d A = alpha * X + M(X)."""
    mapped = alpha * x + problem.columnwise_map(x)
    return float(np.linalg.norm(x @ thin_svd(mapped).h - mapped))


def population_critical_values(lambdas, gains):
    """All objective values attained at critical frames, sorted descending.

    A critical frame pairs each gain with either one distinct signal
    strength or a direction orthogonal to the signal (contributing zero);
    values follow by enumerating injective assignments.
    """
    lambdas = list(np.asarray(lambdas, dtype=np.float64))
    gains = np.asarray(gains, dtype=np.float64)
    k = len(gains)
    sources = lambdas + [0.0] * k
    values = set()
    for chosen in itertools.permutations(range(len(sources)), k):
        value = float(sum(g * sources[i] for g, i in zip(gains, chosen)))
        values.add(round(value, 12))
    return sorted(values, reverse=True)


def quadratic_form_sum_naive(matrices, x) -> float:
    """Sum of per-column quadratic forms by explicit scalar loops."""
    total = 0.0
    for k in range(x.shape[1]):
        column = x[:, k]
        m = matrices[k]
        for i in range(len(column)):
            for j in range(len(column)):
                total += column[i] * m[i, j] * column[j]
    return total


def blocks_map(blocks, coeffs, shifts):
    """The column-wise map formed straight from the data blocks, never
    from assembled d-by-d matrices:

        X -> -X diag(shifts) + sum_l Y_l ((Y_l.T X) diag(coeffs[l])).
    """
    def apply(x):
        out = -x * np.asarray(shifts)[None, :]
        for block, c in zip(blocks, coeffs):
            out = out + block @ ((block.T @ x) * c[None, :])
        return out
    return apply


def plain_gpm(apply, x0, alpha: float, max_iters: int, tol_residual: float,
              rank_tol: float = 1e-12):
    """The power-method loop in bare numpy, with no contract checks.

    ``apply`` is the column-wise map X -> [M_1 x_1, ..., M_K x_K]. Same
    arithmetic and stopping rules as the library solver: the solve stops
    after the first row whose fixed-point residual is at most tol_residual,
    or after max_iters steps, and a last step with a numerically singular
    mapped matrix is reported as projection-nonunique. Returns (x_final,
    iterations, termination value).
    """
    x = np.array(x0, dtype=np.float64)
    termination = "max-iters"
    last_nonunique = False
    iterations = 0
    for _ in range(max_iters):
        mapped = alpha * x + apply(x)
        u, sigma, vt = np.linalg.svd(mapped, full_matrices=False)
        v = vt.T
        residual = np.linalg.norm(x @ (v @ (sigma[:, None] * v.T)) - mapped)
        last_nonunique = bool(sigma[-1] <= rank_tol)
        x = u @ v.T
        iterations += 1
        if residual <= tol_residual:
            termination = "residual-converged"
            break
    if last_nonunique:
        termination = "projection-nonunique"
    return x, iterations, termination


def plain_trace(apply, x0, alpha: float, iterations: int, truth=None) -> list[tuple]:
    """Trace rows of ``iterations`` power-method steps from x0 and of the
    iterate they reach, one frame at a time and in plain_gpm's arithmetic.

    A row is (iteration, objective, population objective, distance to the
    truth, step norm, residual, gap, map norm). The truth metrics come from
    one_frame_population_objective and one_frame_distance, and are
    None without ``truth``.
    """
    x = np.array(x0, dtype=np.float64)
    rows = []
    for t in range(iterations + 1):
        mapped = alpha * x + apply(x)
        u, sigma, vt = np.linalg.svd(mapped, full_matrices=False)
        v = vt.T
        residual = np.linalg.norm(x @ (v @ (sigma[:, None] * v.T)) - mapped)
        inner = float((x * mapped).sum())
        x_next = u @ v.T
        step = np.linalg.norm(x_next - x) if t < iterations else 0.0
        truth_cells = (None, None) if truth is None else (
            one_frame_population_objective(truth.q_truth.x, truth.lambdas, truth.gains, x),
            one_frame_distance(x, truth.q_truth.x))
        rows.append((t, inner - alpha * x.shape[1], *truth_cells, float(step),
                     float(residual), float(sigma.sum()) - inner, float(sigma[0])))
        x = x_next
    return rows


def read_trace(path) -> np.recarray:
    """A trace CSV as rows of TRACE_DTYPE, each cell by float(): an empty cell,
    and the map norm, which the CSV does not store, are NaN."""
    header, *lines = Path(path).read_text().splitlines()
    assert header == TRACE_HEADER
    rows = []
    for line in lines:
        iteration, *cells, wall_ms = line.split(",")
        values = [math.nan if cell == "" else float(cell) for cell in cells]
        rows.append((int(iteration), *values, math.nan, float(wall_ms) / 1e3))
    return np.rec.fromrecords(rows, dtype=TRACE_DTYPE)


def _scalar_product(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a @ b by scalar loops: each entry summed left to right from 0, one rounding per
    product and per sum, never a fused multiply-add."""
    out = np.zeros((a.shape[0], b.shape[1]))
    for m, n in itertools.product(range(a.shape[0]), range(b.shape[1])):
        for l in range(a.shape[1]):
            out[m, n] += a[m, l] * b[l, n]
    return out


def givens_sweep(b) -> np.ndarray:
    """One cyclic sweep of plane rotations for the stack b[c] = X.T M_c X, R as an
    explicit product of k-by-k Givens matrices G (b[c] <- G.T (b[c] G), R <- R G): the
    pair i < j turns by t = atan2(q, p) / 2, which maximizes p cos 2t + q sin 2t, with
    p = (b_i[ii] + b_j[jj] - b_i[jj] - b_j[ii]) / 2 and q = b_i[ij] - b_j[ij], and is
    skipped when q == 0 and p >= 0."""
    b = [np.array(m, dtype=np.float64) for m in b]
    k = b[0].shape[0]
    r = np.eye(k)
    for i, j in itertools.combinations(range(k), 2):
        p = 0.5 * (b[i][i, i] + b[j][j, j] - b[i][j, j] - b[j][i, i])
        q = b[i][i, j] - b[j][i, j]
        if q == 0 and p >= 0:
            continue
        angle = 0.5 * math.atan2(q, p)
        g = np.eye(k)
        g[i, i] = g[j, j] = math.cos(angle)
        g[j, i], g[i, j] = math.sin(angle), -math.sin(angle)
        b = [_scalar_product(g.T, _scalar_product(m, g)) for m in b]
        r = _scalar_product(r, g)
    return r


def plain_rotated(apply, products, x0, alpha: float, max_iters: int, tol_residual: float):
    """The accelerated power-method loop one row at a time, in the library's arithmetic
    and stopping rules: the row after the first whose fixed-point residual is at most
    tol_residual, or row max_iters, is the last; a checked thin_svd per row. Row t steps
    from the previous row's update X, or from x0; an odd row first turns X to X R, R =
    givens_sweep(X.T M_c X), and maps X R as alpha * X R + [(M_c X) R[:, c]] from
    ``products``' M_c X, column by column.

    Returns (rows, x_final, termination value); a row is plain_trace's, without truth
    cells (None).
    """
    x = np.array(x0, dtype=np.float64)
    rows, termination = [], "max-iters"
    for t in itertools.count():
        if t % 2:
            full = products(x)
            r = givens_sweep([x.T @ m for m in full])
            x = x @ r
            mapped = alpha * x + np.column_stack([full[c] @ r[:, c] for c in range(len(full))])
        else:
            mapped = alpha * x + apply(x)
        f = thin_svd(mapped)
        residual = np.linalg.norm(x @ f.h - mapped)
        inner = float((x * mapped).sum())
        final = t == max_iters or termination != "max-iters"
        step = 0.0 if final else np.linalg.norm(f.p - x)
        if not final and residual <= tol_residual:
            termination = "residual-converged"
        rows.append((t, inner - alpha * x.shape[1], None, None, float(step), float(residual),
                     float(f.sigma.sum()) - inner, float(f.sigma[0])))
        if final:
            return rows, x, termination
        x = f.p


def reference_sample_near(q, radius: float, gen, max_tries: int = 200):
    """One frame within ``radius`` of q by perturb-and-project, one
    (d, k) draw per try."""
    for _ in range(max_tries):
        direction = gen.standard_normal((q.d, q.k))
        direction *= radius / np.linalg.norm(direction)
        candidate = project_stiefel(q.x + direction)
        if one_frame_distance(candidate.x, q.x) <= radius:
            return candidate
    raise RuntimeError(f"could not sample within radius {radius} after {max_tries} tries")


def _rows(rows):
    return np.array(rows) if rows else np.empty((0, 2))


def reference_near_frames(population, n_samples: int, radius: float, gen):
    """The near draw: n_samples frames within ``radius`` of the truth, one at a time."""
    return [reference_sample_near(population.q_truth, radius, gen) for _ in range(n_samples)]


def reference_growth_samples(population, n_samples: int, radius: float, rng):
    """(near, far) growth-ratio rows, one frame at a time: n_samples near
    frames first, then n_samples projected Gaussian frames."""
    gen = rng.generator()
    top = population.optimal_value()

    def ratio_rows(points):
        rows = []
        for point in points:
            dist = one_frame_distance(point.x, population.q_truth.x)
            if dist < ZERO_DIST:
                continue
            value = one_frame_population_objective(population.q_truth.x, population.lambdas,
                                                   population.gains, point.x)
            rows.append((dist, (top - value) / dist**2))
        return _rows(rows)

    near = ratio_rows(reference_near_frames(population, n_samples, radius, gen))
    far = ratio_rows(project_stiefel(gen.standard_normal((population.d, population.k)))
                     for _ in range(n_samples))
    return near, far


def reference_error_bound_samples(population, alpha: float, n_samples: int,
                                  radius: float, rng):
    """(distance, distance / fixed-point residual) rows, one frame at a time,
    of the near frames of reference_growth_samples on the same stream."""
    rows = []
    for point in reference_near_frames(population, n_samples, radius, rng.generator()):
        dist = one_frame_distance(point.x, population.q_truth.x)
        residual = one_frame_residual(population, point.x, alpha)
        if residual < ZERO_RESIDUAL:
            continue
        rows.append((dist, dist / residual))
    return _rows(rows)
