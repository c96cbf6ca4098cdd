"""Independent numerical oracles used to cross-check library routines.

Nothing here may call the code path it is used to verify: the eigen
oracle is a hand-rolled cyclic Jacobi iteration, the trace-maximization
oracle combines mass sampling with a QR-retraction ascent, and the sign
and critical-value oracles are exhaustive enumerations.
"""

from __future__ import annotations

import itertools

import numpy as np


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


def plain_gpm(apply, x0, alpha: float, max_iters: int, tol_step: float,
              tol_residual: float, rank_tol: float = 1e-12):
    """The power-method loop in bare numpy, with no contract checks.

    ``apply`` is the column-wise map X -> [M_1 x_1, ..., M_K x_K]. Same
    arithmetic and stopping rules as the library solver: residual test
    first, then the step test, and a last step with a numerically
    singular mapped matrix reported as projection-nonunique. Returns
    (x_final, iterations, termination value).
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
        x_next = u @ v.T
        step = np.linalg.norm(x_next - x)
        last_nonunique = bool(sigma[-1] <= rank_tol)
        x = x_next
        iterations += 1
        if residual <= tol_residual:
            termination = "residual-converged"
            break
        if step <= tol_step:
            termination = "step-converged"
            break
    if last_nonunique:
        termination = "projection-nonunique"
    return x, iterations, termination
