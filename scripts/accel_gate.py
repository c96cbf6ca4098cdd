"""Agreement gate of the accelerated solver against the plain one.

For every trial of acceptance criterion 12 (heterogeneity sweep, seed 77,
6 levels x 20 trials), every trial of noise-sweep levels 1-5 at the same
seed and size (`robustness --sweep noise` also solves accelerated; its
level 0 repeats criterion 12's level 0 problem for problem, so it is
skipped) and every seed of criteria 10 and 11 (reference setting,
Gaussian and uniform noise, seeds 0-19), 260 problems in all, solve
plain GPM at the default settings, then continue it to a reference at
fixed-point residual 1e-13 under a raised cap (see `reference_of`), and check
the accelerated solve at the default settings against that reference:

* its final frame is within 1e-7 of the reference, and no farther from it
  than the plain default-cap frame plus 1e-9;
* its termination equals the plain solve's, or moves from max-iters to
  residual-converged;
* a residual-converged final frame has its own residual within tolerance.

Prints one line per solve, then per group (c12, noise, c10, c11) and in
total the worst distances, the iteration totals, the solve times and how
many accelerated solves converged on the residual; exits 1 if any check
fails. Takes 33-39 s at one BLAS thread on a 2-core x86-64 (24 s of it the
plain solves):

    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python scripts/accel_gate.py
"""

from __future__ import annotations

import sys
import time
from dataclasses import replace
from typing import NamedTuple

from hppca import (NoiseKind, SolveResult, SolverConfig, Termination, build_problem,
                   fixed_point_residual, frame_distance, gpm_solve, pca_init)
from hppca.experiments import ExperimentSpec, sweep_trials

REFERENCE = SolverConfig(tol_residual=1e-13, max_iters=100_000)


def trials():
    """(group, label, model, dataset) of every sweep trial and criterion-10/11 seed."""
    spec = ExperimentSpec(seed=77)
    # Noise level 0 has the variances (0.1, 0.6) of heterogeneity level 0,
    # and the same seed and trial ids: its 20 problems are criterion 12's.
    for group, sweep, first in (("c12", "heterogeneity", 0), ("noise", "noise", 1)):
        for level in range(first, spec.levels):
            for trial, (model, dataset) in enumerate(sweep_trials(spec, sweep, level)):
                yield group, f"{group} level {level} trial {trial:2d}", model, dataset
    for number, noise, variances in ((10, NoiseKind.GAUSSIAN, (1.0, 6.0)),
                                     (11, NoiseKind.UNIFORM, (0.5, 3.0))):
        for seed in range(20):
            seed_spec = ExperimentSpec(seed=seed, noise=noise, variances=variances)
            model = seed_spec.make_model()
            yield f"c{number}", f"c{number} seed {seed:2d}", model, seed_spec.make_dataset(model)


class Outcome(NamedTuple):
    """One problem's checks: plain and accelerated distances to the
    reference, iterations and solve seconds."""

    group: str
    ok: bool
    residual_converged: bool
    d_plain: float
    d_fast: float
    iterations: tuple[int, int]
    seconds: tuple[float, float]


def _summary(name: str, outcomes: list[Outcome]) -> str:
    return (f"{name}: {len(outcomes)} solves, {sum(not o.ok for o in outcomes)} failing, "
            f"{sum(o.residual_converged for o in outcomes)} accelerated residual-converged; "
            f"worst distance to the reference: accelerated "
            f"{max(o.d_fast for o in outcomes):.2e}, plain {max(o.d_plain for o in outcomes):.2e}, "
            f"worst excess over plain {max(o.d_fast - o.d_plain for o in outcomes):.2e}; "
            f"iterations: plain {sum(o.iterations[0] for o in outcomes)}, accelerated "
            f"{sum(o.iterations[1] for o in outcomes)}; seconds: plain "
            f"{sum(o.seconds[0] for o in outcomes):.1f}, accelerated "
            f"{sum(o.seconds[1] for o in outcomes):.1f}")


def reference_of(problem, plain: SolveResult) -> SolveResult:
    """A solve with the final frame and termination of REFERENCE from ``plain``'s start.

    A plain row depends only on its frame, so the default-cap solve ``plain`` is
    a prefix of the reference, and the reference is its continuation from
    x_final with the iterations left of the cap. If plain's last stepped row
    already has residual at most 1e-13, the reference stops there too: it is
    ``plain`` itself."""
    if plain.trace.residual[-2] <= REFERENCE.tol_residual:
        return plain
    return gpm_solve(problem, plain.x_final,
                     replace(REFERENCE, max_iters=REFERENCE.max_iters - plain.iterations))


def main() -> int:
    outcomes: list[Outcome] = []
    for group, label, model, dataset in trials():
        problem = build_problem(dataset, model.lambdas)
        start = pca_init(dataset)
        results, seconds = [], []
        for config in (SolverConfig(), SolverConfig(accelerate=True)):
            tic = time.perf_counter()
            results.append(gpm_solve(problem, start, config))
            seconds.append(time.perf_counter() - tic)
        plain, fast = results
        reference = reference_of(problem, plain)
        d_plain = frame_distance(plain.x_final, reference.x_final)
        d_fast = frame_distance(fast.x_final, reference.x_final)
        moved_ok = fast.termination is plain.termination or (
            plain.termination is Termination.MAX_ITERS
            and fast.termination is Termination.RESIDUAL)
        residual_ok = fast.termination is not Termination.RESIDUAL or fixed_point_residual(
            problem, fast.x_final, SolverConfig.alpha) <= SolverConfig.tol_residual
        ok = (reference.termination is Termination.RESIDUAL and d_fast <= 1e-7
              and d_fast <= d_plain + 1e-9 and moved_ok and residual_ok)
        outcomes.append(Outcome(group, ok, fast.termination is Termination.RESIDUAL, d_plain,
                                d_fast, (plain.iterations, fast.iterations), tuple(seconds)))
        print(f"{label}: plain {plain.iterations:5d} {plain.termination.value:18s} "
              f"dist {d_plain:.2e} | accelerated {fast.iterations:3d} "
              f"{fast.termination.value:18s} dist {d_fast:.2e}{'' if ok else '  FAIL'}",
              flush=True)
    for group in dict.fromkeys(o.group for o in outcomes):
        print(_summary(group, [o for o in outcomes if o.group == group]))
    print(_summary("total", outcomes))
    failures = sum(not o.ok for o in outcomes)
    print(f"{failures} failing solves")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
