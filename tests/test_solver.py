import itertools
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from hppca import (GroupedDataset, NoiseGroups, NoiseKind, PopulationProblem,
                   RngStream, SolverConfig, Termination, build_problem,
                   build_weights, expected_covariance, fixed_point_residual,
                   frame_distance, gpm_solve, pca_init, random_stiefel,
                   riemannian_gradient, sample_dataset, trace_csv, write_trace_csv)
from hppca.diagnostics import critical_point
from hppca.experiments import ExperimentSpec, sweep_variances
from hppca import linalg
from hppca.linalg import CHUNK
from hppca.problem import HppcaProblem
from hppca.solver import MAX_ALPHA, TRACE_DTYPE, TRACE_HEADER, _rotation, csv_cell

from conftest import make_model, make_population
from oracles import (one_frame_residual, plain_gpm, plain_rotated, plain_trace, read_trace,
                     reference_sample_near)


@pytest.fixture(scope="module")
def pop50(ref_lambdas, ref_groups):
    return make_population(50, ref_lambdas, ref_groups, seed=42)


def _gpm_step(problem, x, alpha: float):
    """One solver update from x: the polar factor of alpha * X + M(X)."""
    return gpm_solve(problem, x, SolverConfig(alpha=alpha, max_iters=1)).x_final


def _fixed_point_gap(problem, x, alpha: float) -> float:
    """The nuclear gap at x, row 0 of a solve's trace."""
    return gpm_solve(problem, x, SolverConfig(alpha=alpha, max_iters=0)).trace.fixed_point_gap[0]


def test_gpm_step_fixes_the_truth(pop50):
    stepped = _gpm_step(pop50, pop50.q_truth, alpha=0.05)
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
        stepped = _gpm_step(population, point, alpha=0.05)
        assert np.linalg.norm(stepped.x - point.x) <= 1e-10
        assert fixed_point_residual(population, point, 0.05) <= 1e-10


def test_gpm_step_alpha_zero_is_pure_power_step(pop50):
    from hppca.stiefel import project_stiefel

    x = random_stiefel(50, 3, RngStream(3))
    stepped = _gpm_step(pop50, x, alpha=0.0)
    direct = project_stiefel(pop50.columnwise_map(x.x))
    assert np.allclose(stepped.x, direct.x, atol=1e-13)


def test_fixed_point_residual_zero_at_truth_positive_nearby(pop50):
    assert fixed_point_residual(pop50, pop50.q_truth, 0.05) <= 1e-10
    gen = RngStream(4).generator()
    near = reference_sample_near(pop50.q_truth, 0.1, gen)
    assert fixed_point_residual(pop50, near, 0.05) > 0


@pytest.mark.parametrize("d", [4, 25, 100])
def test_fixed_point_residual_is_the_solvers_row_residual_bit_for_bit(d, ref_lambdas,
                                                                      ref_groups):
    # The public residual and the solver's stopping rule are one formula.
    model = make_model(d, ref_lambdas, seed=d)
    ds = sample_dataset(model, ref_groups, NoiseKind.GAUSSIAN, RngStream(d, 1))
    for problem in (build_problem(ds, ref_lambdas), PopulationProblem.from_model(model,
                                                                                 ref_groups)):
        for seed, alpha in itertools.product(range(3), (0.0, 0.05, 10.0)):
            x = random_stiefel(d, 3, RngStream(d, 10 + seed))
            row = gpm_solve(problem, x, SolverConfig(alpha=alpha, max_iters=0)).trace.residual[0]
            assert fixed_point_residual(problem, x, alpha) == row
            assert one_frame_residual(problem, x.x, alpha) == row


def test_fixed_point_gap_nonnegative_at_500_random_points(pop50):
    assert _fixed_point_gap(pop50, pop50.q_truth, 0.05) <= 1e-10
    for seed in range(500):
        x = random_stiefel(50, 3, RngStream(5000 + seed))
        assert _fixed_point_gap(pop50, x, 0.05) >= -1e-10


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


@pytest.mark.parametrize("accelerate", [False, True])
@pytest.mark.parametrize("d, n", [(100, 1000), (20, 60)])
def test_homoscedastic_pca_frame_is_the_fixed_point(d, n, accelerate):
    # With one noise group every M_k is an affine function of the same
    # sample covariance, so the top-k eigenvector frame is the maximizer.
    for seed in range(4):
        spec = ExperimentSpec(seed=seed, d=d, sizes=(n,), variances=(1.0,))
        dataset = spec.make_dataset(spec.make_model())
        start = pca_init(dataset)
        result = gpm_solve(build_problem(dataset, np.asarray(spec.lambdas)), start,
                           replace(spec.solver_config(), accelerate=accelerate))
        assert result.termination is Termination.RESIDUAL and result.iterations == 1
        assert np.linalg.norm(result.x_final.x - start.x) <= 1e-14


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
    floor = build_weights(ref_lambdas, ref_groups).ascent_alpha_floor()
    config = SolverConfig(alpha=max(0.05, floor), max_iters=800)
    result = gpm_solve(problem, pca_init(ds), config)
    assert result.alpha == pytest.approx(max(0.05, floor))
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
    assert result.termination is Termination.RESIDUAL


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
    parsed = read_trace(path)
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
    parsed = read_trace(write_trace_csv(result.trace, tmp_path / "t.csv"))
    assert math.isnan(parsed[0].population_objective)
    assert math.isnan(parsed[0].dist_to_truth)


def test_solver_config_validation():
    with pytest.raises(ValueError):
        SolverConfig(alpha=-0.1)
    with pytest.raises(ValueError):
        SolverConfig(alpha=float("nan"))
    with pytest.raises(ValueError):
        SolverConfig(max_iters=-1)
    with pytest.raises(ValueError):
        SolverConfig(tol_residual=0.0)
    # The config and fixed_point_residual share one alpha check and message.
    with pytest.raises(ValueError, match="^alpha: step weight must be nonnegative and finite, "
                                         "got inf$"):
        SolverConfig(alpha=math.inf)
    with pytest.raises(ValueError, match="tol_residual must be"):
        SolverConfig(tol_residual=math.inf)
    # Past MAX_ALPHA, alpha * X alone could overflow the certificates' sums.
    assert SolverConfig(alpha=MAX_ALPHA).alpha == 1e150
    with pytest.raises(ValueError, match="^alpha: step weight must be at most 1e[+]150, "
                                         "got 1e[+]151$"):
        SolverConfig(alpha=1e151)


def test_a_truth_frame_of_the_wrong_shape_is_rejected(pop50, ref_lambdas, ref_groups):
    truth = make_population(30, ref_lambdas, ref_groups, seed=1)
    with pytest.raises(ValueError, match=r"^truth frame has shape \(30, 3\), "
                                         r"the problem needs \(50, 3\)$"):
        gpm_solve(pop50, random_stiefel(50, 3, RngStream(3)), SolverConfig(), truth=truth)


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
                                           config.max_iters, config.tol_residual)
    assert termination == "residual-converged"
    assert result.termination.value == termination
    assert result.iterations == iterations
    assert np.array_equal(result.x_final.x, x)


def _svd_faulty_on_call(monkeypatch, call: int, corrupt):
    """Patch the LAPACK SVD binding so that its ``call``-th use returns
    corrupted factors."""
    svd = linalg.lapack_svd
    calls = []

    def faulty(*args, **kwargs):
        u, sigma, vt = svd(*args, **kwargs)
        calls.append(1)
        if len(calls) == call:
            u, sigma, vt = corrupt(u.copy(), sigma.copy(), vt.copy())
        return u, sigma, vt

    monkeypatch.setattr(linalg, "lapack_svd", faulty)
    return calls


def _counted_calls(monkeypatch):
    """Log each SVD, column map and products call, in order, by the names
    "svd", "map" and "products"."""
    svd = linalg.lapack_svd
    columnwise_map, products = HppcaProblem.columnwise_map, HppcaProblem.products
    log = []

    def counted(*args, **kwargs):
        log.append("svd")
        return svd(*args, **kwargs)

    def counted_map(problem, xa, out=None):
        log.append("map")
        return columnwise_map(problem, xa, out)

    def counted_products(problem, xa):
        log.append("products")
        return products(problem, xa)

    monkeypatch.setattr(linalg, "lapack_svd", counted)
    # The solver maps through the one method that perfbench traces.
    monkeypatch.setattr(HppcaProblem, "columnwise_map", counted_map)
    monkeypatch.setattr(HppcaProblem, "products", counted_products)
    return log


@pytest.mark.parametrize("accelerate", [False, True])
def test_each_certificate_and_each_mixture_takes_one_thin_svd(accelerate, monkeypatch):
    problem, start = _sweep_problem(20, (30, 90), 0, 3)
    log = _counted_calls(monkeypatch)
    result = gpm_solve(problem, start, SolverConfig(max_iters=300, accelerate=accelerate))
    if accelerate:
        # An accelerated solve forms no mixture: each row takes one SVD, of
        # its frame's map on an even row and of the map formed from the
        # products M_c X on an odd one, and no row runs past the final one.
        assert log == [call for t in range(result.iterations + 1)
                       for call in (("products", "map")[t % 2 == 0], "svd")]
    else:
        # A plain solve also maps and decomposes the rows of the last chunk
        # that run past the final row, fewer than CHUNK of them.
        svds = log.count("svd")
        assert svds == log.count("map") == len(log) / 2
        assert 0 <= svds - (result.iterations + 1) <= CHUNK - 1
        assert result.iterations > 10


def test_svd_corrupted_at_iteration_5_stops_the_solve(pop50, monkeypatch):
    def tilt(u, sigma, vt):
        u[0, 0] += 1e-6
        return u, sigma, vt

    calls = _svd_faulty_on_call(monkeypatch, 6, tilt)
    start = random_stiefel(50, 3, RngStream(24))
    with pytest.raises(RuntimeError, match="orthonormality"):
        gpm_solve(pop50, start, SolverConfig(max_iters=50), truth=pop50)
    # After the start's SVD, the bad row's chunk runs all max_iters + 1 = 51
    # rows before it is checked.
    assert len(calls) == 1 + 51


def test_nan_operator_entry_is_rejected(ref_lambdas, ref_groups):
    model = make_model(20, ref_lambdas, seed=25)
    ds = sample_dataset(model, ref_groups, NoiseKind.GAUSSIAN, RngStream(25, 1))
    dense = build_problem(ds, ref_lambdas)
    mats = np.array(dense.m_matrices)
    mats[1, 3, 3] = np.nan
    with pytest.raises(ValueError):
        HppcaProblem(mats)


@pytest.mark.parametrize("damage", [2.0, np.nan])
def test_iterate_orthonormality_is_checked_every_iteration(pop50, monkeypatch, damage):
    # The third SVD projects the third iterate; the chunk's check rejects its
    # factors.
    def scaled(u, sigma, vt):
        return u * damage, sigma, vt

    calls = _svd_faulty_on_call(monkeypatch, 3, scaled)
    start = random_stiefel(50, 3, RngStream(26))
    with pytest.raises(RuntimeError, match="left factor lost orthonormality"):
        gpm_solve(pop50, start, SolverConfig(max_iters=50))
    # NaN factors make the next row's SVD raise, which ends the chunk there;
    # otherwise the chunk runs all max_iters + 1 = 51 rows after the start's SVD.
    assert len(calls) == (3 if np.isnan(damage) else 1 + 51)


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
    config = SolverConfig(max_iters=max_iters, tol_residual=1e-300)
    result = gpm_solve(problem, start, config, truth=truth)
    assert result.iterations == max_iters
    expected = plain_trace(_oracle_map(problem), start.x, config.alpha, max_iters, truth)
    assert _trace_rows(result) == expected
    full, rest = divmod(max_iters + 1, CHUNK)
    assert stack_sizes == [CHUNK] * full + [rest] * (rest > 0)
    # Without the truth the rows are the same, their truth cells empty.
    bare = gpm_solve(problem, start, config)
    assert _trace_rows(bare) == [row[:2] + (None, None) + row[4:] for row in expected]


def test_negative_gap_raises_before_the_solve_returns(pop50, monkeypatch):
    import hppca.solver as solver_module

    check = solver_module.check_thin_svd
    calls = []

    def halved(stack, f, name):
        # The chunk's rows pass the check; then the third row's singular
        # values, a view the gaps are taken from, are halved.
        check(stack, f, name)
        calls.append(1)
        f.sigma[2] /= 2

    monkeypatch.setattr(solver_module, "check_thin_svd", halved)
    start = random_stiefel(50, 3, RngStream(28))
    with pytest.raises(ValueError, match="certificates out of range"):
        gpm_solve(pop50, start, SolverConfig(max_iters=200), truth=pop50)
    assert len(calls) == 1


def test_the_gap_slack_scales_with_the_nuclear_norm():
    # At alpha = 1e7 the gap ||A||_* - trace(X.T A) is a difference of two
    # numbers near alpha * k, rounded by about alpha * k * eps; rows of this
    # solve fall below -1e-9, inside the slack that scales with ||A||_*.
    spec = ExperimentSpec(d=20, sizes=(30, 90), alpha=1e7)
    model = spec.make_model()
    ds = spec.make_dataset(model)
    result = gpm_solve(build_problem(ds, model.lambdas), pca_init(ds), spec.solver_config())
    assert result.termination is Termination.MAX_ITERS
    assert result.trace.fixed_point_gap.min() < -1e-9


def _falling_problem(lambdas, groups):
    """A d = 30 sample problem, its truth and its spectral start, from which
    the residual column falls strictly over the first 140 rows."""
    model = make_model(30, lambdas, seed=27)
    ds = sample_dataset(model, NoiseGroups((40, 160), (1.0, 6.0)), NoiseKind.GAUSSIAN,
                        RngStream(27, 1))
    return build_problem(ds, lambdas), pca_init(ds), PopulationProblem.from_model(model, groups)


_NO_STOP = dict(tol_residual=1e-300)


@pytest.mark.parametrize("stop_row", [0, 1, CHUNK - 2, CHUNK - 1, CHUNK, 2 * CHUNK - 1])
@pytest.mark.parametrize("rule", ["residual", "max_iters"])
def test_a_stop_on_any_row_of_a_chunk_matches_the_plain_loop(rule, stop_row, ref_lambdas,
                                                             ref_groups):
    # A plain solve runs its chunk past a residual stop, then keeps the rows up
    # to the final one, which follows the stop and may open the next chunk; a
    # solve capped at the row after the stop runs no row past it.
    problem, start, truth = _falling_problem(ref_lambdas, ref_groups)
    if rule == "residual":
        reference = gpm_solve(problem, start, SolverConfig(max_iters=2 * CHUNK + 5, **_NO_STOP))
        values = reference.trace.residual[:-1]
        assert np.flatnonzero(values <= values[stop_row])[0] == stop_row
        config = SolverConfig(tol_residual=values[stop_row])
    else:
        config = SolverConfig(max_iters=stop_row + 1, **_NO_STOP)
    result = gpm_solve(problem, start, config, truth=truth)
    assert _trace_rows(result) == plain_trace(_oracle_map(problem), start.x, config.alpha,
                                              stop_row + 1, truth)
    x, iterations, termination = plain_gpm(_oracle_map(problem), start.x, config.alpha,
                                           config.max_iters, config.tol_residual)
    expected = {"residual": Termination.RESIDUAL, "max_iters": Termination.MAX_ITERS}[rule]
    assert result.termination.value == termination == expected.value
    assert result.iterations == iterations == stop_row + 1
    assert np.array_equal(result.x_final.x, x)


def test_a_fault_past_the_final_row_is_dropped(ref_lambdas, ref_groups, monkeypatch):
    # The stop at row 10 makes row 11 the final one. Row 13 gets NaN factors,
    # so the SVD of row 14 raises; neither row is kept, nor checked.
    problem, start, truth = _falling_problem(ref_lambdas, ref_groups)
    reference = gpm_solve(problem, start, SolverConfig(max_iters=20, **_NO_STOP))
    config = SolverConfig(tol_residual=reference.trace.residual[10])
    clean = gpm_solve(problem, start, config, truth=truth)
    assert clean.iterations == 11

    def nan_factors(u, sigma, vt):
        return u * np.nan, sigma * np.nan, vt * np.nan

    calls = _svd_faulty_on_call(monkeypatch, 14, nan_factors)
    faulted = gpm_solve(problem, start, config, truth=truth)
    assert len(calls) == 14
    assert _trace_rows(faulted) == _trace_rows(clean)
    assert np.array_equal(faulted.x_final.x, clean.x_final.x)
    assert (faulted.termination, faulted.nonunique_steps) == (clean.termination,
                                                              clean.nonunique_steps)


def test_an_earlier_failing_row_is_raised_before_a_later_svd_error(pop50, monkeypatch):
    # Row 3 has a bad left factor and row 5 NaN factors, so the SVD of row 6
    # raises. The chunk checks rows 0-5 first and raises row 3's failure.
    def tilt(u, sigma, vt):
        u[0, 0] += 1e-6
        return u, sigma, vt

    def nan_factors(u, sigma, vt):
        return u * np.nan, sigma * np.nan, vt * np.nan

    start = random_stiefel(50, 3, RngStream(24))
    _svd_faulty_on_call(monkeypatch, 4, tilt)
    calls = _svd_faulty_on_call(monkeypatch, 6, nan_factors)
    with pytest.raises(RuntimeError, match="left factor lost orthonormality"):
        gpm_solve(pop50, start, SolverConfig(max_iters=50))
    assert len(calls) == 6


def _nan_on_map(monkeypatch, call: int) -> list:
    """Patch the map so that its ``call``-th use returns NaN; return the list of uses."""
    columnwise_map = HppcaProblem.columnwise_map
    maps = []

    def nan_map(problem, xa, out=None):
        maps.append(1)
        mapped = columnwise_map(problem, xa, out)
        if len(maps) == call:
            mapped *= np.nan
        return mapped

    monkeypatch.setattr(HppcaProblem, "columnwise_map", nan_map)
    return maps


def test_a_non_finite_mapped_matrix_mid_chunk_is_a_value_error(monkeypatch):
    # The SVD of row 5 raises on its NaN input; rows 0-4 pass their checks,
    # and the error is thin_svd's.
    problem, start = _sweep_problem(20, (30, 90), 0, 3)
    maps = _nan_on_map(monkeypatch, 6)
    with pytest.raises(ValueError, match="matrix has non-finite entries"):
        gpm_solve(problem, start, SolverConfig())
    assert len(maps) == 6


_ANY_FLOAT = st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True) | \
    st.sampled_from([-0.0, 5e-324, -5e-324, 2.2250738585072009e-308, math.nan, -math.nan,
                     math.inf, -math.inf])


@settings(deadline=None)
@given(iteration=st.integers(min_value=0, max_value=10**9),
       cells=st.tuples(*[_ANY_FLOAT] * 8))
# A finite wall time whose milliseconds overflow to inf.
@example(iteration=0, cells=(0.0,) * 7 + (1.797693134862316e305,))
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
    reference = gpm_solve(problem, start, SolverConfig(tol_residual=1e-13, max_iters=100_000))
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


@pytest.mark.parametrize("setting, cap, termination", [
    ((20, (30, 90), 0, 0), 100_000, Termination.RESIDUAL),
    ((30, (40, 160), 1, 5), 8000, Termination.MAX_ITERS),  # its first part is capped too
], ids=["converges", "capped"])
def test_a_continued_solve_equals_the_uninterrupted_one(setting, cap, termination):
    # A plain row depends only on its frame, so scripts/accel_gate.py takes
    # its residual-1e-13 reference as the default solve continued from its
    # final frame with the iterations left of the cap.
    problem, start = _sweep_problem(*setting)
    tight = SolverConfig(tol_residual=1e-13, max_iters=cap)
    whole = gpm_solve(problem, start, tight)
    first = gpm_solve(problem, start, SolverConfig())
    assert first.trace.residual[-2] > tight.tol_residual
    rest = gpm_solve(problem, first.x_final, replace(tight, max_iters=cap - first.iterations))
    assert np.array_equal(rest.x_final.x, whole.x_final.x)
    assert rest.termination is whole.termination is termination
    assert first.iterations + rest.iterations == whole.iterations


@pytest.mark.parametrize("accelerate", [False, True])
@pytest.mark.parametrize("setting", [*_SWEEP_PROBLEMS, None],
                         ids=[*(f"sweep{i}" for i in range(len(_SWEEP_PROBLEMS))), "reference"])
def test_a_residual_tolerance_of_1e_13_applies(setting, accelerate):
    # The residual is the one convergence test, so a tolerance below the
    # iterates' step of about 1e-12 still ends the solve on its residual.
    if setting is None:  # the reference setting at seed 0
        spec = ExperimentSpec()
        model = spec.make_model()
        ds = spec.make_dataset(model)
        problem, start = build_problem(ds, model.lambdas), pca_init(ds)
    else:
        problem, start = _sweep_problem(*setting)
    config = SolverConfig(tol_residual=1e-13, max_iters=100_000, accelerate=accelerate)
    result = gpm_solve(problem, start, config)
    assert result.termination is Termination.RESIDUAL
    assert result.trace.residual[-1] <= 1e-13


@pytest.mark.parametrize("d, sizes, seed, level", _SWEEP_PROBLEMS)
def test_accelerated_solve_needs_few_iterations(d, sizes, seed, level):
    # 11, 10 and 12 iterations with a rotation on every odd row; the Anderson
    # mixing it replaced took 17, 18 and 23.
    problem, start = _sweep_problem(d, sizes, seed, level)
    result = gpm_solve(problem, start, SolverConfig(accelerate=True))
    assert result.termination is Termination.RESIDUAL
    assert result.iterations <= 15


def _symmetric_stacks(k: int, elements):
    """(k, k, k) stacks of symmetric matrices, their entries drawn from ``elements``."""
    return hnp.arrays(np.float64, (k, k, k), elements=elements).map(lambda a: a + a.mT)


@settings(deadline=None, max_examples=200)
@given(data=st.data(), k=st.integers(1, 5))
def test_rotation_is_orthogonal_and_never_lowers_the_objective(data, k):
    b = data.draw(_symmetric_stacks(k, st.floats(-1e3, 1e3)))
    r = _rotation(b)
    assert np.linalg.norm(r.T @ r - np.eye(k)) <= 1e-14 * k
    # sum_c (X R)[:, c].T M_c (X R)[:, c] against sum_c x_c.T M_c x_c.
    turned, before = np.einsum("ic,cij,jc->", r, b, r), np.einsum("ccc->", b)
    assert turned >= before - 1e-14 * k**3 * np.abs(b).max()


@settings(deadline=None, max_examples=100)
@given(data=st.data(), k=st.integers(1, 5))
def test_rotation_of_a_stack_with_no_ascent_left_is_the_identity(data, k):
    # b[c] = S + t e_c e_c.T with integer entries: every pair has q = 0 and
    # p = t >= 0 exactly, so every pair is skipped.
    common = data.draw(_symmetric_stacks(1, st.integers(-8, 8).map(float)))[0]
    t = data.draw(st.integers(0, 8))
    b = common + t * np.eye(k)[:, :, None] * np.eye(k)[:, None, :]
    b_before = b.copy()
    assert np.array_equal(_rotation(b), np.eye(k))
    assert np.array_equal(b, b_before)


def test_accelerated_solve_keeps_the_ascent():
    # At alpha at or above the ascent floor the power step never lowers f,
    # and neither does a rotation, so the trace objective never falls.
    problem, start = _sweep_problem(20, (30, 90), 1, 5)
    groups = NoiseGroups((30, 90), sweep_variances("heterogeneity", 5))
    floor = build_weights(ExperimentSpec.lambdas, groups).ascent_alpha_floor()
    alpha = max(SolverConfig.alpha, floor)
    result = gpm_solve(problem, start, SolverConfig(alpha=alpha, accelerate=True))
    assert result.termination is Termination.RESIDUAL
    assert np.all(np.diff(result.trace.objective) >= -1e-10)


@pytest.mark.parametrize("max_iters", [0, 1, 3])
def test_accelerated_solve_counts_tiny_budgets_as_plain(max_iters):
    # Budgets count rows as a plain solve does. Row 0 steps from the start
    # itself, so a budget of 0 gives the start; row 1 rotates the plain
    # update of the start, so a budget of 1 gives that update rotated.
    problem, start = _sweep_problem(20, (30, 90), 8, 0)
    plain = gpm_solve(problem, start, SolverConfig(max_iters=max_iters))
    accelerated = gpm_solve(problem, start, SolverConfig(max_iters=max_iters, accelerate=True))
    for result in (plain, accelerated):
        assert result.termination is Termination.MAX_ITERS
        assert result.iterations == max_iters == len(result.trace) - 1
    x = plain.x_final.x
    if max_iters == 0:
        assert accelerated.x_final is plain.x_final is start
    elif max_iters == 1:
        assert np.array_equal(accelerated.x_final.x, x @ _rotation(x.T @ problem.products(x)))


def _nan_on_products(monkeypatch, call: int) -> list:
    """Patch the products so that their ``call``-th use returns NaN; return the list of uses."""
    products = HppcaProblem.products
    uses = []

    def nan_products(problem, xa):
        uses.append(1)
        full = products(problem, xa)
        return full * np.nan if len(uses) == call else full

    monkeypatch.setattr(HppcaProblem, "products", nan_products)
    return uses


def test_a_non_finite_product_of_a_rotated_row_is_a_value_error(monkeypatch):
    # The products of row 7, the fourth odd row, are NaN, so its rotation,
    # frame and mapped matrix are NaN and its SVD raises thin_svd's error
    # once rows 0-6 pass their checks: a bad left factor at row 4 fails first.
    problem, start = _sweep_problem(20, (30, 90), 0, 3)
    with monkeypatch.context() as patch:
        uses = _nan_on_products(patch, 4)
        with pytest.raises(ValueError, match="matrix has non-finite entries"):
            gpm_solve(problem, start, SolverConfig(accelerate=True))
        assert len(uses) == 4

    def tilt(u, sigma, vt):
        u[0, 0] += 1e-6
        return u, sigma, vt

    uses = _nan_on_products(monkeypatch, 4)
    calls = _svd_faulty_on_call(monkeypatch, 5, tilt)
    with pytest.raises(RuntimeError, match="left factor lost orthonormality"):
        gpm_solve(problem, start, SolverConfig(accelerate=True))
    assert (len(uses), len(calls)) == (4, 7)  # rows 0-6 return their SVDs; row 7's raises


@pytest.mark.parametrize("call", [2, 18])
def test_a_non_finite_map_of_the_plain_update_is_a_value_error(call, monkeypatch):
    # Even rows map the plain update of the row before them: the map of row
    # 2 * (call - 1) is NaN, and that row's own SVD raises on it.
    problem, start = _sweep_problem(20, (30, 90), 0, 3)
    maps = _nan_on_map(monkeypatch, call)
    with pytest.raises(ValueError, match="matrix has non-finite entries"):
        gpm_solve(problem, start, SolverConfig(max_iters=40, accelerate=True, **_NO_STOP))
    assert len(maps) == call


@pytest.mark.parametrize("damage, message", [
    (lambda u, sigma, vt: (np.where(np.arange(u.size).reshape(u.shape) == 0, u + 1e-6, u),
                           sigma, vt), "left factor lost orthonormality"),
    (lambda u, sigma, vt: (u, sigma, 2.0 * vt), "right factor lost orthogonality"),
    (lambda u, sigma, vt: (u, sigma[::-1].copy(), vt), "not sorted nonnegative"),
], ids=["tilted-u", "doubled-v", "unsorted-sigma"])
def test_accelerated_solve_checks_a_rotated_row_svd(pop50, monkeypatch, damage, message):
    # The second SVD is row 1's, the first rotated row; the chunk pass runs
    # thin_svd's tests on it once the chunk ends at the solve's final row.
    clean = gpm_solve(pop50, random_stiefel(50, 3, RngStream(24)),
                      SolverConfig(max_iters=50, accelerate=True))
    calls = _svd_faulty_on_call(monkeypatch, 2, damage)
    start = random_stiefel(50, 3, RngStream(24))
    with pytest.raises(RuntimeError, match=message):
        gpm_solve(pop50, start, SolverConfig(max_iters=50, accelerate=True))
    # One call draws the start, then one per row.
    assert len(calls) == 1 + clean.iterations + 1


def test_accelerated_solve_checks_the_rotated_frame_is_orthonormal(pop50, monkeypatch):
    # A rotation off the orthogonal group by 1e-3 leaves every SVD sound; the
    # chunk pass's test of the rotated frames rejects it.
    import hppca.solver as solver_module

    rotation = solver_module._rotation
    monkeypatch.setattr(solver_module, "_rotation", lambda b: 1.001 * rotation(b))
    start = random_stiefel(50, 3, RngStream(26))
    with pytest.raises(RuntimeError, match="rotated frame lost orthonormality"):
        gpm_solve(pop50, start, SolverConfig(max_iters=50, accelerate=True))


@pytest.mark.parametrize("d, sizes, seed, level, max_iters", [
    *(problem + (SolverConfig.max_iters,) for problem in _SWEEP_PROBLEMS),
    (20, (30, 90), 0, 0, 150),  # three chunks of rows
])
def test_accelerated_solve_equals_the_one_row_reference(d, sizes, seed, level, max_iters):
    problem, start = _sweep_problem(d, sizes, seed, level)
    stops = {} if max_iters == SolverConfig.max_iters else _NO_STOP
    config = SolverConfig(max_iters=max_iters, accelerate=True, **stops)
    result = gpm_solve(problem, start, config)
    mats = [np.array(m) for m in problem.m_matrices]
    rows, x, termination = plain_rotated(
        _oracle_map(problem), lambda x: [m @ x for m in mats], start.x, config.alpha,
        config.max_iters, config.tol_residual)
    assert _trace_rows(result) == rows
    assert np.array_equal(result.x_final.x, x)
    assert result.termination.value == termination
    assert result.iterations == (max_iters if stops else len(rows) - 1)
