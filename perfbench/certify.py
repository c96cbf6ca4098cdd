"""Independent output checks in plain numpy.

Nothing here calls into ``hppca``: the per-column matrices are applied
from the raw data blocks in factored form,

    M_k x = sum_l c_{l,k} Y_l (Y_l.T x) - shift_k x,
    c_{l,k} = w_{l,k} / (v_l n),   shift_k = sum_l w_{l,k} n_l / n,
    w_{l,k} = lambda_k / (lambda_k + v_l),

which never forms a d-by-d matrix, so the checks stay cheap and add
little memory. Each check returns a list of problems; an
empty list means the output is certified.
"""

from __future__ import annotations

import numpy as np

ORTHO_TOL = 1e-8
# Relative slack for comparing a value the package reported with the same
# value recomputed here in another summation order.
REL_TOL = 1e-9


class Operator:
    """The column-wise map X -> [M_1 x_1, ..., M_K x_K] of one dataset."""

    def __init__(self, blocks, sizes, variances, lambdas):
        self.blocks = [np.asarray(b, dtype=np.float64) for b in blocks]
        sizes = np.asarray(sizes, dtype=np.float64)
        variances = np.asarray(variances, dtype=np.float64)
        lam = np.asarray(lambdas, dtype=np.float64)
        n = sizes.sum()
        weights = lam[None, :] / (lam[None, :] + variances[:, None])
        self.coeffs = weights / (variances[:, None] * n)
        self.shifts = weights.T @ (sizes / n)

    def apply(self, x: np.ndarray) -> np.ndarray:
        out = -x * self.shifts[None, :]
        for block, coeffs in zip(self.blocks, self.coeffs):
            out += block @ ((block.T @ x) * coeffs[None, :])
        return out

    def objective(self, x: np.ndarray) -> float:
        return float(np.sum(x * self.apply(x)))

    def residual(self, x: np.ndarray, alpha: float) -> float:
        """||X V S V.T - A||_F for A = alpha X + map(X) = U S V.T."""
        mapped = alpha * x + self.apply(x)
        _, sigma, vt = np.linalg.svd(mapped, full_matrices=False)
        return float(np.linalg.norm(x @ (vt.T * sigma) @ vt - mapped))


def frame_distance(x: np.ndarray, ref: np.ndarray) -> float:
    """Sign-invariant Frobenius distance between two frames."""
    signs = np.where(np.sum(x * ref, axis=0) >= 0, 1.0, -1.0)
    return float(np.linalg.norm(x - ref * signs))


def top_eigvecs(cov: np.ndarray, k: int) -> np.ndarray:
    _, vectors = np.linalg.eigh(cov)
    return vectors[:, ::-1][:, :k]


def pooled_covariance(blocks) -> np.ndarray:
    n = sum(b.shape[1] for b in blocks)
    return sum(b @ b.T for b in blocks) / n


def close(a: float, b: float, rel: float = REL_TOL) -> bool:
    return abs(a - b) <= rel * max(1.0, abs(a), abs(b))


def check_solve(op: Operator, x_final, termination: str, alpha: float,
                tol_residual: float, reported_objective: float | None = None) -> list[str]:
    """Certify one solver output against the data it was computed from.

    Always: the frame is orthonormal within ORTHO_TOL. When the run
    reports ``residual-converged``: the recomputed fixed-point residual is
    at most ``tol_residual``. When an objective is reported it matches
    the recomputed one.
    """
    problems = []
    x = np.asarray(x_final, dtype=np.float64)
    if not np.all(np.isfinite(x)):
        return ["final frame has non-finite entries"]
    k = x.shape[1]
    ortho = float(np.linalg.norm(x.T @ x - np.eye(k)))
    if ortho > ORTHO_TOL:
        problems.append(f"final frame not orthonormal ({ortho:.2e})")
    residual = op.residual(x, alpha)
    # The residual is recomputed in another summation order, so allow a
    # rounding-level excess over the solver's own stopping threshold.
    if termination == "residual-converged" and residual > tol_residual * (1 + 1e-6) + 1e-14:
        problems.append(f"residual {residual:.3e} above tolerance {tol_residual:.1e}")
    if reported_objective is not None:
        objective = op.objective(x)
        if not close(objective, reported_objective):
            problems.append(f"objective {reported_objective!r} != recomputed {objective!r}")
    return problems


def check_diagnostics(report, samples, blocks, sizes, variances, lambdas,
                      q_truth, n_samples: int) -> list[str]:
    """Certify a diagnostics report against quantities recomputed here.

    The constants are positive, the initialization bound holds, the
    residual operator norms equal max |eig(M_k - gain_k S)| computed by a
    dense eigensolver, and the initialization distance equals the one of
    the top eigenvectors of the pooled covariance.
    """
    problems = []
    if not (report.quadratic_growth_rate > 0 and report.error_bound_factor > 0):
        problems.append("estimated constants are not positive")
    if report.init_bound_holds is not True:
        problems.append("initialization bound does not hold")
    if report.sample_count != n_samples or len(samples.growth_near) == 0:
        problems.append("sample count mismatch")
    q = np.asarray(q_truth, dtype=np.float64)
    lam = np.asarray(lambdas, dtype=np.float64)
    op = Operator(blocks, sizes, variances, lam)
    # gain_k = sum_l w_{l,k} (n_l / n) / v_l = sum_l c_{l,k} n_l
    gains = op.coeffs.T @ np.asarray(sizes, dtype=np.float64)
    covs = [b @ b.T for b in op.blocks]
    signal = q @ (lam[:, None] * q.T)
    eye = np.eye(q.shape[0])
    norms = []
    for k in range(q.shape[1]):
        delta = (sum(c * cov for c, cov in zip(op.coeffs[:, k], covs))
                 - op.shifts[k] * eye - gains[k] * signal)
        norms.append(float(np.max(np.abs(np.linalg.eigvalsh((delta + delta.T) / 2)))))
    reported = np.asarray(report.residual_operator_norms, dtype=np.float64)
    if reported.shape != (len(norms),) or not np.allclose(reported, norms, rtol=1e-6, atol=0):
        problems.append(f"residual norms {reported} != recomputed {norms}")
    init = top_eigvecs(sum(covs) / float(np.sum(sizes)), q.shape[1])
    dist_sq = frame_distance(init, q) ** 2
    if not close(dist_sq, report.init_distance_sq, 1e-7):
        problems.append(f"init distance {report.init_distance_sq!r} != recomputed {dist_sq!r}")
    return problems
