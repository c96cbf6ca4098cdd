"""Agreement gate of the accelerated solver against the plain one.

For every trial of acceptance criterion 12 (heterogeneity sweep, seed 77,
6 levels x 20 trials) and every seed of criteria 10 and 11 (reference
setting, Gaussian and uniform noise, seeds 0-19), solve a reference with
plain GPM to fixed-point residual 1e-13 under a raised cap, then check
the accelerated solve at the default settings against it:

* its final frame is within 1e-7 of the reference, and no farther from it
  than the plain default-cap frame plus 1e-9;
* its termination equals the plain solve's, or moves from max-iters to
  residual-converged;
* a residual-converged final frame has its own residual within tolerance.

Prints one line per solve and the worst figures; exits 1 if any check
fails. Takes several minutes at one BLAS thread:

    PYTHONPATH=src python scripts/accel_gate.py
"""

from __future__ import annotations

import sys
import time
from dataclasses import replace

from hppca import (NoiseKind, SolverConfig, Termination, build_problem, fixed_point_residual,
                   frame_distance, gpm_solve, pca_init)
from hppca.experiments import ExperimentSpec, sweep_variances

REFERENCE = SolverConfig(tol_residual=1e-13, tol_step=1e-300, max_iters=100_000)


def trials():
    """(label, model, dataset) of every criterion-12 trial and criterion-10/11 seed."""
    spec = ExperimentSpec(seed=77)
    for level in range(6):
        level_spec = replace(spec, variances=sweep_variances("heterogeneity", level))
        for trial in range(20):
            trial_id = level * 1_000_003 + trial + 1
            model = level_spec.make_model(trial_id)
            yield f"c12 level {level} trial {trial:2d}", model, level_spec.make_dataset(model,
                                                                                      trial_id)
    for number, noise, variances in ((10, NoiseKind.GAUSSIAN, (1.0, 6.0)),
                                     (11, NoiseKind.UNIFORM, (0.5, 3.0))):
        for seed in range(20):
            seed_spec = ExperimentSpec(seed=seed, noise=noise, variances=variances)
            model = seed_spec.make_model()
            yield f"c{number} seed {seed:2d}", model, seed_spec.make_dataset(model)


def main() -> int:
    failures = 0
    worst = {"accelerated": 0.0, "plain": 0.0, "excess": -1.0}
    seconds = {"plain": 0.0, "accelerated": 0.0}
    iterations = {"plain": 0, "accelerated": 0}
    for label, model, dataset in trials():
        problem = build_problem(dataset, model.lambdas)
        start = pca_init(dataset)
        reference = gpm_solve(problem, start, REFERENCE)
        results = {}
        for name, config in (("plain", SolverConfig()),
                             ("accelerated", SolverConfig(accelerate=True))):
            tic = time.perf_counter()
            results[name] = gpm_solve(problem, start, config)
            seconds[name] += time.perf_counter() - tic
            iterations[name] += results[name].iterations
        plain, fast = results["plain"], results["accelerated"]
        d_plain = frame_distance(plain.x_final, reference.x_final)
        d_fast = frame_distance(fast.x_final, reference.x_final)
        worst["accelerated"] = max(worst["accelerated"], d_fast)
        worst["plain"] = max(worst["plain"], d_plain)
        worst["excess"] = max(worst["excess"], d_fast - d_plain)
        moved_ok = fast.termination is plain.termination or (
            plain.termination is Termination.MAX_ITERS
            and fast.termination is Termination.RESIDUAL)
        residual_ok = fast.termination is not Termination.RESIDUAL or \
            fixed_point_residual(problem, fast.x_final, 0.05) <= 1e-10
        ok = (reference.termination is Termination.RESIDUAL and d_fast <= 1e-7
              and d_fast <= d_plain + 1e-9 and moved_ok and residual_ok)
        failures += not ok
        print(f"{label}: plain {plain.iterations:5d} {plain.termination.value:18s} "
              f"dist {d_plain:.2e} | accelerated {fast.iterations:3d} "
              f"{fast.termination.value:18s} dist {d_fast:.2e} "
              f"safeguard {fast.safeguard_steps:2d}{'' if ok else '  FAIL'}", flush=True)
    print(f"worst distance to the reference: accelerated {worst['accelerated']:.2e}, "
          f"plain {worst['plain']:.2e}; worst excess over plain {worst['excess']:.2e}")
    print(f"iterations: plain {iterations['plain']}, accelerated {iterations['accelerated']}; "
          f"seconds: plain {seconds['plain']:.1f}, accelerated {seconds['accelerated']:.1f}")
    print(f"{failures} failing solves")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
