"""Infinite-sample problem: linear convergence and the critical-point zoo.

Runs the power-method solver on the population objective from a random
start, verifies the per-iteration ascent and safeguard certificates, and
shows that non-optimal critical frames are genuine fixed points sitting
at least sqrt(2) away from the truth.
"""

import numpy as np

from hppca import (NoiseGroups, PopulationProblem, RngStream, SignalModel,
                   SolverConfig, fixed_point_residual, frame_distance, gpm_solve,
                   random_stiefel, riemannian_gradient)
from hppca.diagnostics import critical_point
from hppca.experiments import fitted_rate

d, k = 50, 3
lambdas = np.array([5.0, 3.5, 2.0])
groups = NoiseGroups(sizes=(200, 800), variances=(1.0, 6.0))
model = SignalModel(random_stiefel(d, k, RngStream(1)), lambdas)
population = PopulationProblem.from_model(model, groups)
print(f"population problem in d={d}, optimal value {population.optimal_value():.7f}")

start = random_stiefel(d, k, RngStream(2))
result = gpm_solve(population, start, SolverConfig(alpha=0.05, max_iters=3000),
                   truth=population)
print(f"\nrandom start, dist {result.trace[0].dist_to_truth:.4f}")
print(f"terminated: {result.termination.value} after {result.iterations} iterations")
print(f"final dist to truth: {result.trace[-1].dist_to_truth:.2e}")

gaps = population.optimal_value() - result.trace.population_objective
print(f"fitted geometric decay rate of the optimality gap: {fitted_rate(gaps):.4f}")

ascent_ok = all(
    after.population_objective - before.population_objective
    >= result.alpha * before.step_norm**2 - 1e-10
    for before, after in zip(result.trace[:-1], result.trace[1:])
)
safeguard_ok = all(r.residual <= r.map_norm * r.step_norm + 1e-10
                   for r in result.trace[:-1])
print(f"sufficient ascent held every iteration: {ascent_ok}")
print(f"residual safeguard held every iteration: {safeguard_ok}")

print("\ncritical frames (columns picked from [Q, Q_perp], with signs):")
for selection, signs in [((0, 1, 2), (1, -1, 1)),      # signed truth: optimal
                         ((1, 0, 2), (1, 1, 1)),       # permuted truth columns
                         ((0, 1, 17), (1, 1, -1))]:    # one orthogonal column
    point = critical_point(population, selection, signs, RngStream(3))
    print(f"  columns {selection}: value {population.objective(point):.4f}, "
          f"grad norm {np.linalg.norm(riemannian_gradient(population, point)):.1e}, "
          f"residual {fixed_point_residual(population, point, 0.05):.1e}, "
          f"dist {frame_distance(point, population.q_truth):.4f}")
