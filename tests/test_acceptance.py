"""End-to-end acceptance suite.

Each test implements one numbered acceptance criterion at its stated
tolerance and prints a single PASS/FAIL line (visible with pytest -s;
captured otherwise). Shared heavy runs live in module-scoped fixtures.
"""

import itertools
from time import perf_counter

import numpy as np
import pytest

from hppca import (ExperimentSpec, NoiseGroups, NoiseKind, PopulationProblem,
                   RngStream, SolverConfig, StiefelPoint, Termination, build_problem,
                   build_residuals, davis_kahan_check, expected_covariance,
                   fixed_point_residual, frame_distance, gpm_solve,
                   pca_init, random_stiefel, riemannian_gradient, sample_dataset)
from hppca.diagnostics import critical_point, residual_norms
from hppca.experiments import count_trend_violations, fitted_rate, run_robustness
from hppca.stiefel import project_stiefel

from conftest import make_model
from oracles import exhaustive_sign_distance


def _report(number: int, description: str, ok: bool) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"[acceptance] criterion {number:02d} {status}: {description}")
    assert ok, f"criterion {number} failed: {description}"


NON_IDENTITY_SELECTIONS = [
    (0, 1, 3), (0, 4, 2), (5, 1, 2), (6, 7, 8), (2, 1, 0),
    (0, 1, 19), (3, 4, 5), (9, 0, 2), (1, 2, 3), (10, 11, 12),
    (0, 2, 1), (1, 0, 2), (4, 0, 1), (0, 5, 6), (7, 1, 0),
    (13, 14, 15), (2, 16, 17), (18, 0, 1), (2, 3, 4), (8, 9, 10),
]
SIGN_CYCLE = [(1.0, 1.0, 1.0), (1.0, -1.0, 1.0), (-1.0, 1.0, -1.0), (-1.0, -1.0, -1.0)]


@pytest.fixture(scope="module")
def population_50(ref_lambdas, ref_groups):
    model = make_model(50, ref_lambdas, seed=2024)
    return model, PopulationProblem.from_model(model, ref_groups)


@pytest.fixture(scope="module")
def qpoc_runs(population_50, ref_groups):
    """Criterion-1 run from the exact spectral start plus a random-start
    companion run on the same problem (the companion exercises the decay
    and per-iteration certificates on a long trajectory)."""
    model, population = population_50
    config = SolverConfig(alpha=0.05, max_iters=500)
    tic = perf_counter()
    start = pca_init(expected_covariance(model, ref_groups), k=3)
    literal = gpm_solve(population, start, config, truth=population)
    elapsed = perf_counter() - tic
    companion = gpm_solve(population, random_stiefel(50, 3, RngStream(2024, 9)),
                          SolverConfig(alpha=0.05, max_iters=3000), truth=population)
    return literal, companion, elapsed


def test_criterion_01_population_linear_convergence(population_50, qpoc_runs):
    _, population = population_50
    literal, companion, elapsed = qpoc_runs
    dists = literal.trace.dist_to_truth
    converged = bool(np.any(dists <= 1e-8)) and literal.iterations <= 500
    literal_rate = fitted_rate(population.optimal_value() - literal.trace.population_objective)
    companion_rate = fitted_rate(population.optimal_value() - companion.trace.population_objective)
    rates_ok = (literal_rate is None or literal_rate <= 0.999) \
        and companion_rate is not None and companion_rate <= 0.999
    _report(1, "population solve reaches dist 1e-8 within 500 iterations with a "
               "fitted gap ratio at most 0.999 in under 2 s",
            converged and rates_ok and elapsed < 2.0)


def test_criterion_02_sufficient_ascent(qpoc_runs):
    literal, companion, _ = qpoc_runs
    violations = 0
    for run in (literal, companion):
        values = run.trace.population_objective
        for t in range(len(run.trace) - 1):
            ascent = values[t + 1] - values[t]
            if ascent < run.alpha * run.trace[t].step_norm ** 2 - 1e-10:
                violations += 1
    _report(2, "objective ascent of at least alpha * step^2 on every population "
               "iteration", violations == 0)


def test_criterion_03_safeguard(qpoc_runs):
    violations = 0
    for run in qpoc_runs[:2]:
        for record in run.trace[:-1]:
            if record.residual > record.map_norm * record.step_norm + 1e-10:
                violations += 1
    _report(3, "fixed-point residual bounded by map norm times step norm on every "
               "iteration", violations == 0)


def test_criterion_04_fixed_point_certificate(population_50, qpoc_runs):
    _, population = population_50
    terminal_ok = all(
        run.trace[-1].fixed_point_gap <= 1e-8
        for run in qpoc_runs[:2] if run.termination is Termination.RESIDUAL
    )
    converged_runs = sum(run.termination is Termination.RESIDUAL for run in qpoc_runs[:2])
    # Row 0 of a trace is the nuclear gap at the starting frame.
    no_steps = SolverConfig(alpha=0.05, max_iters=0)
    random_ok = all(
        gpm_solve(population, random_stiefel(50, 3, RngStream(31000 + i)), no_steps)
        .trace.fixed_point_gap[0] >= -1e-10
        for i in range(500)
    )
    _report(4, "nuclear gap at most 1e-8 at residual-converged terminal points and "
               "at least -1e-10 at 500 random frames",
            terminal_ok and random_ok and converged_runs >= 1)


def test_criterion_05_critical_point_characterization(ref_lambdas, ref_groups):
    model = make_model(20, ref_lambdas, seed=2025)
    population = PopulationProblem.from_model(model, ref_groups)
    top = population.optimal_value()
    ok = True
    for i, selection in enumerate(NON_IDENTITY_SELECTIONS):
        point = critical_point(population, selection, SIGN_CYCLE[i % 4], RngStream(77))
        grad_norm = float(np.linalg.norm(riemannian_gradient(population, point)))
        residual = fixed_point_residual(population, point, 0.05)
        value = population.objective(point)
        dist = frame_distance(point, population.q_truth)
        ok &= grad_norm <= 1e-10
        ok &= residual <= 1e-10
        ok &= value < top - 1e-6 * top
        ok &= dist >= np.sqrt(2.0) - 1e-10
    _report(5, "20 generated critical frames: gradient and residual at most 1e-10, "
               "value strictly below the optimum, distance at least sqrt(2)", ok)


def test_criterion_06_optimal_value(population_50):
    _, population = population_50
    value = population.objective(population.q_truth)
    _report(6, "optimal objective matches 2.1860712 within 1e-6",
            abs(value - 2.1860712) <= 1e-6)


def test_criterion_07_decomposition_identity(ref_lambdas):
    groups = NoiseGroups((80, 320), (1.0, 6.0))
    ok = True
    for seed in range(100):
        model = make_model(40, ref_lambdas, seed=40000 + seed)
        ds = sample_dataset(model, groups, NoiseKind.GAUSSIAN, RngStream(40000 + seed, 1))
        problem = build_problem(ds, ref_lambdas)
        population = PopulationProblem.from_model(model, groups)
        residuals = build_residuals(problem, population)
        x = random_stiefel(40, 3, RngStream(40000 + seed, 2))
        f = problem.objective(x)
        split = population.objective(x) + residuals.objective(x)
        ok &= abs(f - split) <= 1e-10 * max(1.0, abs(f))
    _report(7, "objective equals population part plus residual part within "
               "1e-10 relative on 100 seeded pairs", ok)


def test_criterion_08_distance_identity_and_sign_invariance():
    ok = True
    for seed in range(100):
        x = random_stiefel(25, 3, RngStream(50000 + seed))
        q = random_stiefel(25, 3, RngStream(60000 + seed))
        direct = frame_distance(x, q)
        overlaps = np.abs(np.sum(x.x * q.x, axis=0))
        ok &= abs(direct**2 - 2.0 * (3 - overlaps.sum())) <= 1e-10
    for k in (1, 2, 3, 4):
        x = random_stiefel(7, k, RngStream(70000 + k))
        q = random_stiefel(7, k, RngStream(80000 + k))
        base = frame_distance(x, q)
        enumerated, _ = exhaustive_sign_distance(x.x, q.x)
        ok &= abs(base - enumerated) <= 1e-12
        for bits in itertools.product((1.0, -1.0), repeat=k):
            flipped = StiefelPoint(x.x * np.array(bits)[None, :])
            ok &= abs(frame_distance(flipped, q) - base) <= 1e-10
    _report(8, "squared distance identity within 1e-10 on 100 pairs and exhaustive "
               "sign invariance for k up to 4", ok)


def test_criterion_09_gradient_matches_finite_differences(ref_lambdas, ref_groups):
    step = 1e-6
    ok = True
    for seed in range(10):
        model = make_model(15, ref_lambdas, seed=90000 + seed)
        population = PopulationProblem.from_model(model, ref_groups)
        x = random_stiefel(15, 3, RngStream(90000 + seed, 2))
        grad = riemannian_gradient(population, x)
        gen = RngStream(90000 + seed, 3).generator()
        for _ in range(20):
            raw = gen.standard_normal((15, 3))
            sym = (x.x.T @ raw + raw.T @ x.x) / 2.0
            tangent = raw - x.x @ sym
            tangent /= np.linalg.norm(tangent)
            forward = population.objective(project_stiefel(x.x + step * tangent))
            backward = population.objective(project_stiefel(x.x - step * tangent))
            directional = (forward - backward) / (2.0 * step)
            inner = float(np.sum(grad * tangent))
            ok &= abs(inner - directional) <= 1e-5 * max(1.0, abs(inner), abs(directional))
    _report(9, "gradient agrees with central differences along 20 tangent "
               "directions within 1e-5 relative on 10 frames", ok)


def _plateau_seed_passes(seed: int, noise: NoiseKind,
                         variances: tuple[float, float]) -> tuple[bool, float]:
    spec = ExperimentSpec(seed=seed, noise=noise, variances=variances)
    tic = perf_counter()
    model = spec.make_model()
    ds = spec.make_dataset(model)
    problem = build_problem(ds, model.lambdas)
    population = PopulationProblem.from_model(model, spec.groups())
    result = gpm_solve(problem, pca_init(ds), spec.solver_config(), truth=population)
    elapsed = perf_counter() - tic
    dists = result.trace.dist_to_truth
    trend_ok = count_trend_violations(dists, window=5) == 0
    return bool(trend_ok and dists[-1] < dists[0]), elapsed


def test_criterion_10_estimation_plateau_gaussian():
    passes, worst_time = 0, 0.0
    for seed in range(20):
        ok, elapsed = _plateau_seed_passes(seed, NoiseKind.GAUSSIAN, (1.0, 6.0))
        passes += ok
        worst_time = max(worst_time, elapsed)
    _report(10, f"distance decreases in trend to a plateau below its start on "
                f"{passes}/20 Gaussian seeds (need 18) within 10 s per seed",
            passes >= 18 and worst_time < 10.0)


def test_criterion_11_estimation_plateau_uniform():
    passes, worst_time = 0, 0.0
    for seed in range(20):
        ok, elapsed = _plateau_seed_passes(seed, NoiseKind.UNIFORM, (0.5, 3.0))
        passes += ok
        worst_time = max(worst_time, elapsed)
    _report(11, f"same plateau behavior under uniform noise on {passes}/20 seeds "
                f"(need 18) within 10 s per seed",
            passes >= 18 and worst_time < 10.0)


def test_criterion_12_heterogeneity_robustness():
    spec = ExperimentSpec(seed=77, trials=20)
    stats = run_robustness(spec, sweep="heterogeneity", levels=6)
    pca_means = np.array([s.mean_error for s in stats if s.method == "pca"])
    gpm_means = np.array([s.mean_error for s in stats if s.method == "gpm"])
    dominated = bool(np.all(gpm_means <= pca_means))
    ranges_ok = (gpm_means.max() - gpm_means.min()) < (pca_means.max() - pca_means.min())
    _report(12, "solver error at most the spectral baseline at every heterogeneity "
                "level, with a strictly smaller range across levels",
            dominated and ranges_ok)


def test_criterion_13_residual_concentration_trend(ref_lambdas):
    medians = []
    for n in (500, 2000, 8000):
        worst = []
        for seed in range(10):
            groups = NoiseGroups((n // 5, 4 * n // 5), (1.0, 6.0))
            model = make_model(100, ref_lambdas, seed=91000 + seed)
            ds = sample_dataset(model, groups, NoiseKind.GAUSSIAN,
                                RngStream(91000 + seed, 1))
            problem = build_problem(ds, ref_lambdas)
            population = PopulationProblem.from_model(model, groups)
            worst.append(float(np.max(residual_norms(build_residuals(problem, population)))))
        medians.append(float(np.median(worst)))
    _report(13, f"median worst residual norm strictly decreases over n in "
                f"(500, 2000, 8000): {medians[0]:.3f} > {medians[1]:.3f} > {medians[2]:.3f}",
            medians[0] > medians[1] > medians[2])


def test_criterion_14_davis_kahan_initialization(ref_lambdas, ref_groups):
    holds = 0
    for seed in range(10):
        model = make_model(100, ref_lambdas, seed=92000 + seed)
        ds = sample_dataset(model, ref_groups, NoiseKind.GAUSSIAN,
                            RngStream(92000 + seed, 1))
        check = davis_kahan_check(model, ref_groups, ds)
        holds += check.holds
    _report(14, f"squared initialization distance within its eigengap bound on "
                f"{holds}/10 seeds (need 10)", holds == 10)
