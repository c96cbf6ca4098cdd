import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hppca import (GroupedDataset, NoiseGroups, NoiseKind, PopulationProblem,
                   RngStream, SolverConfig, Termination, build_problem,
                   expected_covariance, fixed_point_gap, fixed_point_residual,
                   frame_distance, gpm_solve, gpm_step, pca_init, random_stiefel,
                   read_trace_csv, riemannian_gradient, sample_dataset, trace_csv,
                   write_trace_csv)
from hppca.diagnostics import critical_point
from hppca.experiments import ExperimentSpec, sweep_variances
from hppca.linalg import CHUNK, ThinSvd
from hppca.problem import HppcaProblem
from hppca.solver import TRACE_DTYPE, TRACE_HEADER, csv_cell

from conftest import make_model, make_population
from oracles import plain_gpm, plain_trace


@pytest.fixture(scope="module")
def pop50(ref_lambdas, ref_groups):
    return make_population(50, ref_lambdas, ref_groups, seed=42)


def test_gpm_step_fixes_the_truth(pop50):
    stepped = gpm_step(pop50, pop50.q_truth, alpha=0.05)
    assert np.linalg.norm(stepped.x - pop50.q_truth.x) <= 1e-12


def test_gpm_step_fixes_every_critical_point(ref_lambdas, ref_groups):
    population = make_population(20, ref_lambdas, ref_groups, seed=1)
    selections = [
        (0, 1, 3), (0, 4, 2), (5, 1, 2), (6, 7, 8), (2, 1, 0),
        (0, 1, 19), (3, 4, 5), (9, 0, 2), (1, 2, 3), (10, 11, 12),
        (0, 2, 1), (1, 0, 2), (4, 0, 1), (0, 5, 6), (7, 1, 0),
        (13, 14, 15), (2, 16, 17), (18, 0, 1), (2, 3, 4), (8, 9, 10),
    ]
    signs = [(1.0, -1.0, 1.0), (-1.0, 1.0, 1.0), (1.0, 1.0, -1.0), (-1.0, -1.0, -1.0)]
    for i, sel in enumerate(selections):
        point = critical_point(population, sel, signs[i % 4], RngStream(99))
        stepped = gpm_step(population, point, alpha=0.05)
        assert np.linalg.norm(stepped.x - point.x) <= 1e-10
        assert fixed_point_residual(population, point, 0.05) <= 1e-10


def test_gpm_step_alpha_zero_is_pure_power_step(pop50):
    from hppca.stiefel import project_stiefel

    x = random_stiefel(50, 3, RngStream(3))
    stepped = gpm_step(pop50, x, alpha=0.0)
    direct = project_stiefel(pop50.columnwise_map(x))
    assert np.allclose(stepped.x, direct.x, atol=1e-13)


def test_fixed_point_residual_zero_at_truth_positive_nearby(pop50):
    assert fixed_point_residual(pop50, pop50.q_truth, 0.05) <= 1e-10
    gen = RngStream(4).generator()
    from hppca.diagnostics import sample_near

    near = sample_near(pop50.q_truth, 0.1, gen)
    assert fixed_point_residual(pop50, near, 0.05) > 0


def test_fixed_point_gap_nonnegative_at_500_random_points(pop50):
    assert fixed_point_gap(pop50, pop50.q_truth, 0.05) <= 1e-10
    for seed in range(500):
        x = random_stiefel(50, 3, RngStream(5000 + seed))
        assert fixed_point_gap(pop50, x, 0.05) >= -1e-10


def test_solve_population_from_exact_spectral_start(pop50, ref_groups, ref_lambdas):
    model = make_model(50, ref_lambdas, seed=42)
    start = pca_init(expected_covariance(model, ref_groups), k=3)
    result = gpm_solve(pop50, start, SolverConfig(max_iters=500), truth=pop50)
    assert result.termination is Termination.RESIDUAL
    assert frame_distance(result.x_final, pop50.q_truth) <= 1e-8
    assert result.trace[-1].fixed_point_gap <= 1e-8


def test_solve_starting_at_truth_stops_immediately(pop50):
    result = gpm_solve(pop50, pop50.q_truth, SolverConfig(), truth=pop50)
    assert result.iterations <= 1
    assert result.trace[0].step_norm <= 1e-12


def test_population_solve_invariants_from_random_start(pop50):
    start = random_stiefel(50, 3, RngStream(7))
    result = gpm_solve(pop50, start, SolverConfig(max_iters=3000), truth=pop50)
    assert result.termination is Termination.RESIDUAL
    trace = result.trace
    for before, after in zip(trace[:-1], trace[1:]):
        ascent = after.population_objective - before.population_objective
        assert ascent >= result.alpha * before.step_norm**2 - 1e-10
        assert before.residual <= before.map_norm * before.step_norm + 1e-10
    # The terminal point is a first-order critical point.
    grad = riemannian_gradient(pop50, result.x_final)
    assert np.linalg.norm(grad) <= 1e-6
    assert frame_distance(result.x_final, pop50.q_truth) <= 1e-8


def test_population_gap_decays_geometrically(pop50):
    from hppca.experiments import fitted_rate

    start = random_stiefel(50, 3, RngStream(8))
    result = gpm_solve(pop50, start, SolverConfig(max_iters=3000), truth=pop50)
    gaps = pop50.optimal_value() - result.trace.population_objective
    rate = fitted_rate(gaps)
    assert rate is not None and rate < 0.999


def test_finite_sample_monotone_ascent_with_safeguard(ref_lambdas, ref_groups):
    model = make_model(40, ref_lambdas, seed=9)
    ds = sample_dataset(model, ref_groups, NoiseKind.GAUSSIAN, RngStream(9, 1))
    problem = build_problem(ds, ref_lambdas)
    config = SolverConfig(alpha=max(0.05, problem.ascent_alpha_floor()), max_iters=800)
    result = gpm_solve(problem, pca_init(ds), config)
    assert result.alpha == pytest.approx(max(0.05, problem.ascent_alpha_floor()))
    objectives = result.trace.objective
    assert np.all(np.diff(objectives) >= -1e-10)


def test_reference_scale_solve_reduces_distance(ref_lambdas, ref_groups):
    model = make_model(100, ref_lambdas, seed=0)
    ds = sample_dataset(model, ref_groups, NoiseKind.GAUSSIAN, RngStream(0, 1))
    problem = build_problem(ds, ref_lambdas)
    population = PopulationProblem.from_model(model, ref_groups)
    result = gpm_solve(problem, pca_init(ds), SolverConfig(), truth=population)
    dists = result.trace.dist_to_truth
    assert dists[-1] < dists[0]
    assert result.termination in (Termination.RESIDUAL, Termination.STEP)


def test_zero_iteration_budget_records_initial_point(pop50):
    start = random_stiefel(50, 3, RngStream(10))
    result = gpm_solve(pop50, start, SolverConfig(max_iters=0), truth=pop50)
    assert len(result.trace) == 1
    assert result.termination is Termination.MAX_ITERS
    assert result.trace[0].step_norm == 0.0
    assert result.trace[0].dist_to_truth == pytest.approx(
        frame_distance(start, pop50.q_truth))


def test_pca_init_from_exact_covariance(ref_lambdas, ref_groups):
    model = make_model(30, ref_lambdas, seed=11)
    start = pca_init(expected_covariance(model, ref_groups), k=3)
    assert frame_distance(start, model.q_truth) <= 1e-8
    assert not start.nonunique


def test_pca_init_beats_median_random_start(ref_lambdas, ref_groups):
    model = make_model(100, ref_lambdas, seed=12)
    ds = sample_dataset(model, ref_groups, NoiseKind.GAUSSIAN, RngStream(12, 1))
    start = pca_init(ds)
    spectral_dist = frame_distance(start, model.q_truth)
    random_dists = [
        frame_distance(random_stiefel(100, 3, RngStream(12, 100 + i)), model.q_truth)
        for i in range(100)
    ]
    assert spectral_dist < np.median(random_dists)


def test_pca_init_flags_degenerate_gap():
    groups = NoiseGroups((4, 4), (1.0, 2.0))
    ds = GroupedDataset(blocks=(np.zeros((6, 4)), np.zeros((6, 4))), k=2, groups=groups)
    start = pca_init(ds)
    assert start.nonunique
    with pytest.raises(ValueError):
        pca_init(np.eye(4))  # k missing for raw covariance


def test_trace_csv_roundtrip(pop50, tmp_path):
    start = random_stiefel(50, 3, RngStream(13))
    result = gpm_solve(pop50, start, SolverConfig(max_iters=40), truth=pop50)
    text = trace_csv(result.trace)
    assert text.splitlines()[0] == TRACE_HEADER
    path = write_trace_csv(result.trace, tmp_path / "trace.csv")
    parsed = read_trace_csv(path)
    assert len(parsed) == len(result.trace)
    for original, loaded in zip(result.trace, parsed):
        assert loaded.iteration == original.iteration
        assert loaded.objective == original.objective  # exact at 17 digits
        assert loaded.population_objective == original.population_objective
        assert loaded.dist_to_truth == original.dist_to_truth
        assert loaded.step_norm == original.step_norm
        assert loaded.residual == original.residual


def test_trace_csv_without_analysis_context(pop50, tmp_path):
    start = random_stiefel(50, 3, RngStream(14))
    result = gpm_solve(pop50, start, SolverConfig(max_iters=3))
    parsed = read_trace_csv(write_trace_csv(result.trace, tmp_path / "t.csv"))
    assert math.isnan(parsed[0].population_objective)
    assert math.isnan(parsed[0].dist_to_truth)


@pytest.mark.parametrize("cells", ["0,1,,,0,0", "0,1,,,0,0,0,1,2"])
def test_read_trace_csv_rejects_a_row_with_the_wrong_cell_count(tmp_path, cells):
    path = tmp_path / "t.csv"
    path.write_text(f"{TRACE_HEADER}\n0,1,,,0,0,0,1\n{cells}\n")
    with pytest.raises(ValueError, match="line 3"):
        read_trace_csv(path)


def test_read_trace_csv_rejects_a_negative_residual(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text(f"{TRACE_HEADER}\n0,1,,,0.5,-1e-3,0,1\n")
    with pytest.raises(ValueError, match="line 2: certificates out of range"):
        read_trace_csv(path)


def test_solver_config_validation():
    with pytest.raises(ValueError):
        SolverConfig(alpha=-0.1)
    with pytest.raises(ValueError):
        SolverConfig(alpha=float("nan"))
    with pytest.raises(ValueError):
        SolverConfig(max_iters=-1)
    with pytest.raises(ValueError):
        SolverConfig(tol_step=0.0)


def test_degenerate_projection_reported_as_termination(pop50):
    # With alpha = 0 a frame orthogonal to the signal maps to the zero
    # matrix; the projection is then maximally non-unique. The solver takes
    # one valid frame, surfaces the flag and reports it as the termination.
    from hppca.diagnostics import orthogonal_completion

    completion = orthogonal_completion(pop50.q_truth, RngStream(21))
    from hppca import StiefelPoint

    off_signal = StiefelPoint(completion[:, :3])
    config = SolverConfig(alpha=0.0, max_iters=5)
    result = gpm_solve(pop50, off_signal, config, truth=pop50)
    assert result.termination is Termination.PROJECTION_NONUNIQUE
    assert result.nonunique_steps >= 1
    assert result.x_final.nonunique


def _oracle_map(problem):
    """The column-wise map rebuilt from the problem's raw arrays: K
    separate matrix-vector products for a finite-sample problem."""
    if isinstance(problem, PopulationProblem):
        q, lam, gains = problem.q_truth.x, problem.lambdas, problem.gains
        return lambda x: q @ (lam[:, None] * (q.T @ x)) * gains[None, :]
    mats = [np.array(m) for m in problem.m_matrices]
    return lambda x: np.column_stack([mats[k] @ x[:, k] for k in range(len(mats))])


@pytest.mark.parametrize("kind", ["dense", "population"])
def test_gpm_solve_matches_plain_numpy_loop_exactly(kind, ref_lambdas, ref_groups):
    model = make_model(30, ref_lambdas, seed=23)
    if kind == "population":
        problem = PopulationProblem.from_model(model, ref_groups)
        start = random_stiefel(30, 3, RngStream(23, 2))
    else:
        groups = NoiseGroups((40, 160), (1.0, 6.0))
        ds = sample_dataset(model, groups, NoiseKind.GAUSSIAN, RngStream(23, 1))
        problem = build_problem(ds, ref_lambdas)
        start = pca_init(ds)
    config = SolverConfig(max_iters=4000)
    result = gpm_solve(problem, start, config, truth=PopulationProblem.from_model(
        model, ref_groups))
    x, iterations, termination = plain_gpm(_oracle_map(problem), start.x, config.alpha,
                                           config.max_iters, config.tol_step,
                                           config.tol_residual)
    assert termination == "residual-converged"
    assert result.termination.value == termination
    assert result.iterations == iterations
    assert np.array_equal(result.x_final.x, x)


def _svd_faulty_on_call(monkeypatch, call: int, corrupt):
    """Patch numpy's SVD so that its ``call``-th use returns corrupted factors."""
    svd = np.linalg.svd
    calls = []

    def faulty(*args, **kwargs):
        u, sigma, vt = svd(*args, **kwargs)
        calls.append(1)
        if len(calls) == call:
            u, sigma, vt = corrupt(u.copy(), sigma.copy(), vt.copy())
        return u, sigma, vt

    monkeypatch.setattr(np.linalg, "svd", faulty)
    return calls


def test_svd_corrupted_at_iteration_5_stops_the_solve(pop50, monkeypatch):
    def tilt(u, sigma, vt):
        u[0, 0] += 1e-6
        return u, sigma, vt

    calls = _svd_faulty_on_call(monkeypatch, 6, tilt)
    start = random_stiefel(50, 3, RngStream(24))
    with pytest.raises(RuntimeError, match="orthonormality"):
        gpm_solve(pop50, start, SolverConfig(max_iters=50), truth=pop50)
    assert len(calls) == 6


def test_nan_operator_entry_is_rejected(ref_lambdas, ref_groups):
    model = make_model(20, ref_lambdas, seed=25)
    ds = sample_dataset(model, ref_groups, NoiseKind.GAUSSIAN, RngStream(25, 1))
    dense = build_problem(ds, ref_lambdas)
    mats = np.array(dense.m_matrices)
    mats[1, 3, 3] = np.nan
    with pytest.raises(ValueError):
        HppcaProblem(weights=dense.weights, d=20, k=3, n=dense.n, m_matrices=mats)


@pytest.mark.parametrize("damage", [2.0, np.nan])
def test_iterate_orthonormality_is_checked_every_iteration(pop50, monkeypatch, damage):
    import hppca.solver as solver_module

    thin_svd = solver_module.thin_svd
    calls = []

    def damaged(m):
        f = thin_svd(m)
        calls.append(1)
        return ThinSvd(u=f.u * damage, sigma=f.sigma, v=f.v) if len(calls) == 3 else f

    monkeypatch.setattr(solver_module, "thin_svd", damaged)
    start = random_stiefel(50, 3, RngStream(26))
    with pytest.raises(ValueError, match="iterate 3 is not orthonormal"):
        gpm_solve(pop50, start, SolverConfig(max_iters=50))


def _trace_rows(result) -> list[tuple]:
    """Trace rows without the wall time, NaN truth cells as None."""
    return [(t, f, *(None if math.isnan(v) else v for v in (pop_value, dist)), *rest)
            for t, f, pop_value, dist, *rest, _ in result.trace.tolist()]


@pytest.mark.parametrize("max_iters", [0, 1, 63, 64, 65, 200])
@pytest.mark.parametrize("kind", ["dense", "population"])
def test_truth_trace_equals_one_frame_reference(kind, max_iters, ref_lambdas, ref_groups,
                                                monkeypatch):
    # Records are built once per CHUNK = 64 iterates; every row must still
    # equal the one computed on its own frame, on either side of a chunk end.
    import hppca.solver as solver_module

    distances = solver_module.aligned_distances
    stack_sizes = []

    def counted(stack, ra):
        stack_sizes.append(len(stack))
        return distances(stack, ra)

    monkeypatch.setattr(solver_module, "aligned_distances", counted)
    model = make_model(30, ref_lambdas, seed=27)
    truth = PopulationProblem.from_model(model, ref_groups)
    if kind == "population":
        problem = truth
    else:
        ds = sample_dataset(model, NoiseGroups((40, 160), (1.0, 6.0)), NoiseKind.GAUSSIAN,
                            RngStream(27, 1))
        problem = build_problem(ds, ref_lambdas)
    start = random_stiefel(30, 3, RngStream(27, 2))
    config = SolverConfig(max_iters=max_iters, tol_residual=1e-300, tol_step=1e-300)
    result = gpm_solve(problem, start, config, truth=truth)
    assert result.iterations == max_iters
    expected = plain_trace(_oracle_map(problem), start.x, config.alpha, max_iters, truth)
    assert _trace_rows(result) == expected
    full, rest = divmod(max_iters + 1, CHUNK)
    assert stack_sizes == [CHUNK] * full + [rest] * (rest > 0)
    # Without the truth the rows are the same, their truth cells empty.
    bare = gpm_solve(problem, start, config)
    assert _trace_rows(bare) == [row[:2] + (None, None) + row[4:] for row in expected]


def test_negative_gap_raises_in_the_iteration_that_produced_it(pop50, monkeypatch):
    import hppca.solver as solver_module

    thin_svd = solver_module.thin_svd
    calls = []

    def halved(m):
        f = thin_svd(m)
        calls.append(1)
        return ThinSvd(u=f.u, sigma=f.sigma / 2, v=f.v) if len(calls) == 3 else f

    monkeypatch.setattr(solver_module, "thin_svd", halved)
    start = random_stiefel(50, 3, RngStream(28))
    with pytest.raises(ValueError, match="certificates out of range"):
        gpm_solve(pop50, start, SolverConfig(max_iters=200), truth=pop50)
    assert len(calls) == 3


_ANY_FLOAT = st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True) | \
    st.sampled_from([-0.0, 5e-324, -5e-324, 2.2250738585072009e-308, math.nan, -math.nan,
                     math.inf, -math.inf])


@settings(deadline=None)
@given(iteration=st.integers(min_value=0, max_value=10**9),
       cells=st.tuples(*[_ANY_FLOAT] * 8))
def test_trace_row_template_matches_csv_cell(iteration, cells):
    objective, pop_value, dist, step, residual, gap, _, wall_time = cells
    trace = np.rec.fromrecords([(iteration, *cells)], dtype=TRACE_DTYPE)
    truth_cells = [None if math.isnan(value) else value for value in (pop_value, dist)]
    expected = ",".join([str(iteration), *map(csv_cell, (objective, *truth_cells, step,
                                                         residual, gap, wall_time * 1e3))])
    assert trace_csv(trace) == f"{TRACE_HEADER}\n{expected}\n"


def _sweep_problem(d, sizes, seed, level):
    """Problem and spectral start of one heterogeneity-sweep trial."""
    spec = ExperimentSpec(d=d, sizes=sizes, seed=seed,
                          variances=sweep_variances("heterogeneity", level))
    model = spec.make_model()
    ds = spec.make_dataset(model)
    return build_problem(ds, model.lambdas), pca_init(ds)


_SWEEP_PROBLEMS = [
    (20, (30, 90), 0, 0), (20, (30, 90), 2, 3),
    (30, (40, 160), 1, 5),  # the plain solve hits the cap here
]


@pytest.mark.parametrize("d, sizes, seed, level", _SWEEP_PROBLEMS)
def test_accelerated_solve_agrees_with_a_tight_plain_reference(d, sizes, seed, level):
    problem, start = _sweep_problem(d, sizes, seed, level)
    reference = gpm_solve(problem, start, SolverConfig(tol_residual=1e-13, tol_step=1e-300,
                                                       max_iters=100_000))
    assert reference.termination is Termination.RESIDUAL
    plain = gpm_solve(problem, start, SolverConfig())
    accelerated = gpm_solve(problem, start, SolverConfig(accelerate=True))
    distance = frame_distance(accelerated.x_final, reference.x_final)
    assert distance <= 1e-7
    assert distance <= frame_distance(plain.x_final, reference.x_final) + 1e-9
    assert accelerated.termination is Termination.RESIDUAL
    assert plain.termination in (Termination.RESIDUAL, Termination.MAX_ITERS)
    assert accelerated.iterations <= 100 < plain.iterations
    assert fixed_point_residual(problem, accelerated.x_final, 0.05) <= 1e-10


@pytest.mark.parametrize("d, sizes, seed, level", _SWEEP_PROBLEMS)
def test_accelerated_solve_needs_few_iterations(d, sizes, seed, level):
    # 16, 17 and 21 iterations with a history that survives fallbacks; a
    # history restarted at every fallback took 35, 29 and 57.
    problem, start = _sweep_problem(d, sizes, seed, level)
    result = gpm_solve(problem, start, SolverConfig(accelerate=True))
    assert result.termination is Termination.RESIDUAL
    assert result.iterations <= 25


def test_anderson_history_survives_a_fallback():
    from hppca.solver import ANDERSON_DEPTH, _anderson_step

    rng = RngStream(31)
    frames = [random_stiefel(20, 3, rng).x for _ in range(2 * ANDERSON_DEPTH + 4)]
    history = []
    for xa, g in zip(frames[::2], frames[1::2]):
        # A map that projects onto span(G(X)) rates the plain update above
        # any mixture that leaves that span, so the safeguard falls back.
        problem = SimpleNamespace(columnwise_map=lambda x, g=g: 100.0 * g @ (g.T @ x))
        before = list(history)
        successor, mapped, fell_back = _anderson_step(problem, xa, g, 0.05, history)
        assert successor is g
        assert fell_back is (len(before) > 0)
        assert len(history) == min(len(before) + 1, ANDERSON_DEPTH + 1)
        kept = before[len(before) + 1 - len(history):]
        assert all(np.array_equal(a, b) for a, b in zip(history[:-1], kept))
        assert np.array_equal(history[-1], np.stack([g - xa, g]).reshape(2, -1))
    assert len(history) == ANDERSON_DEPTH + 1


def test_accelerated_safeguard_falls_back_and_keeps_the_ascent():
    problem, start = _sweep_problem(20, (30, 90), 1, 5)
    alpha = max(SolverConfig.alpha, problem.ascent_alpha_floor())
    result = gpm_solve(problem, start, SolverConfig(alpha=alpha, accelerate=True))
    assert result.termination is Termination.RESIDUAL
    assert result.safeguard_steps > 0
    assert np.all(np.diff(result.trace.objective) >= -1e-10)


@pytest.mark.parametrize("max_iters", [0, 1, 3])
def test_accelerated_solve_counts_tiny_budgets_as_plain(max_iters):
    # No mixture exists before the second iteration, so budgets of 0 and 1
    # give the plain frame itself.
    problem, start = _sweep_problem(20, (30, 90), 8, 0)
    plain = gpm_solve(problem, start, SolverConfig(max_iters=max_iters))
    accelerated = gpm_solve(problem, start, SolverConfig(max_iters=max_iters, accelerate=True))
    for result in (plain, accelerated):
        assert result.termination is Termination.MAX_ITERS
        assert result.iterations == max_iters == len(result.trace) - 1
    if max_iters <= 1:
        assert np.array_equal(accelerated.x_final.x, plain.x_final.x)


def test_accelerated_solve_checks_the_mixture_svd(pop50, monkeypatch):
    # SVD calls: the first two certify the start and its plain update; the
    # third projects the first mixture.
    def tilt(u, sigma, vt):
        u[0, 0] += 1e-6
        return u, sigma, vt

    calls = _svd_faulty_on_call(monkeypatch, 3, tilt)
    start = random_stiefel(50, 3, RngStream(24))
    with pytest.raises(RuntimeError, match="orthonormality"):
        gpm_solve(pop50, start, SolverConfig(max_iters=50, accelerate=True))
    assert len(calls) == 3


def test_accelerated_solve_checks_the_accepted_mixture_is_orthonormal(pop50, monkeypatch):
    import hppca.solver as solver_module

    thin_svd = solver_module.thin_svd
    calls = []

    def doubled(m):
        f = thin_svd(m)
        calls.append(1)
        return ThinSvd(u=f.u * 2.0, sigma=f.sigma, v=f.v) if len(calls) == 3 else f

    monkeypatch.setattr(solver_module, "thin_svd", doubled)
    start = random_stiefel(50, 3, RngStream(26))
    with pytest.raises(ValueError, match="iterate 2 is not orthonormal"):
        gpm_solve(pop50, start, SolverConfig(max_iters=50, accelerate=True))
