import numpy as np
import pytest

from hppca import (HppcaProblem, NoiseGroups, NoiseKind, PopulationProblem, RngStream,
                   build_problem, build_residuals, davis_kahan_check,
                   error_bound_samples, expected_covariance, frame_distance,
                   gpm_solve, optimum_distance_bound, orthogonal_completion, pca_init,
                   residual_norms, riemannian_gradient, run_diagnostics,
                   sample_dataset, SolverConfig)
import hppca.diagnostics as diagnostics
from hppca import growth_ratio_samples, project_stiefel
from hppca.diagnostics import CHUNK, _near_chunks, critical_point, report_text, write_report

from conftest import make_model, make_population
from oracles import (jacobi_eigh, population_critical_values,
                     reference_error_bound_samples, reference_growth_samples)

TWENTY_SELECTIONS = [
    (0, 1, 3), (0, 4, 2), (5, 1, 2), (6, 7, 8), (2, 1, 0),
    (0, 1, 19), (3, 4, 5), (9, 0, 2), (1, 2, 3), (10, 11, 12),
    (0, 2, 1), (1, 0, 2), (4, 0, 1), (0, 5, 6), (7, 1, 0),
    (13, 14, 15), (2, 16, 17), (18, 0, 1), (2, 3, 4), (8, 9, 10),
]
SIGN_CYCLE = [(1.0, 1.0, 1.0), (1.0, -1.0, 1.0), (-1.0, 1.0, -1.0), (-1.0, -1.0, -1.0)]


@pytest.fixture(scope="module")
def pop20(ref_lambdas, ref_groups):
    return make_population(20, ref_lambdas, ref_groups, seed=3)


def test_orthogonal_completion_is_orthonormal_complement(pop20):
    completion = orthogonal_completion(pop20.q_truth, RngStream(5))
    assert completion.shape == (20, 17)
    assert np.linalg.norm(completion.T @ completion - np.eye(17)) <= 1e-12
    assert np.max(np.abs(pop20.q_truth.x.T @ completion)) <= 1e-13
    again = orthogonal_completion(pop20.q_truth, RngStream(5))
    assert np.array_equal(completion, again)


def test_identity_selection_recovers_truth(pop20):
    point = critical_point(pop20, (0, 1, 2), (1.0, 1.0, 1.0), RngStream(5))
    assert np.allclose(point.x, pop20.q_truth.x, atol=1e-14)
    signed = critical_point(pop20, (0, 1, 2), (1.0, -1.0, 1.0), RngStream(5))
    assert frame_distance(signed, pop20.q_truth) <= 1e-12


def test_twenty_critical_points_are_critical_and_far(pop20, ref_lambdas):
    top = pop20.optimal_value()
    for i, selection in enumerate(TWENTY_SELECTIONS):
        point = critical_point(pop20, selection, SIGN_CYCLE[i % 4], RngStream(5))
        assert np.linalg.norm(riemannian_gradient(pop20, point)) <= 1e-10
        # Non-identity selections are strictly suboptimal and no closer
        # than sqrt(2) to the truth.
        value = pop20.objective(point)
        assert value < top - 1e-6 * top
        assert frame_distance(point, pop20.q_truth) >= np.sqrt(2.0) - 1e-10


def test_critical_values_match_enumeration(pop20, ref_lambdas):
    oracle_values = population_critical_values(ref_lambdas, pop20.gains)
    # Permuting the truth's own columns attains exactly the enumerated values.
    point = critical_point(pop20, (1, 2, 0), (1.0, 1.0, 1.0), RngStream(5))
    assert any(abs(pop20.objective(point) - v) <= 1e-9 for v in oracle_values)
    assert pop20.optimal_value() == pytest.approx(oracle_values[0], abs=1e-12)


def test_critical_point_validation(pop20):
    with pytest.raises(ValueError):
        critical_point(pop20, (0, 0, 1), (1.0, 1.0, 1.0), RngStream(5))
    with pytest.raises(ValueError):
        critical_point(pop20, (0, 1, 25), (1.0, 1.0, 1.0), RngStream(5))
    with pytest.raises(ValueError):
        critical_point(pop20, (0, 1, 2), (1.0, 0.5, 1.0), RngStream(5))
    with pytest.raises(ValueError):
        critical_point(pop20, (0, 1), (1.0, 1.0), RngStream(5))


def _growth_rate(population, n_samples, radius, rng) -> float:
    """Quadratic growth constant: the least sampled growth ratio."""
    near, far = growth_ratio_samples(population, n_samples, radius, rng)
    return float(np.min(np.concatenate([near, far])[:, 1]))


def _error_bound_factor(population, alpha, n_samples, radius, rng) -> float:
    """Error-bound constant: the largest sampled error-bound ratio."""
    return float(np.max(error_bound_samples(population, alpha, n_samples, radius, rng)[:, 1]))


def test_quadratic_growth_estimate_positive(pop20):
    growth = _growth_rate(pop20, 500, 0.3, RngStream(6))
    assert growth > 0


def test_growth_samples_exclude_near_optimal_points(pop20):
    near, far = growth_ratio_samples(pop20, 200, 0.3, RngStream(6))
    for rows in (near, far):
        assert np.all(np.isfinite(rows))
        assert np.all(rows[:, 0] >= 1e-6)


def test_growth_ratio_at_far_critical_points(pop20, ref_lambdas):
    # Gap to the second-best critical value over the maximal squared
    # distance lower-bounds the sampled ratio at any critical point.
    values = population_critical_values(ref_lambdas, pop20.gains)
    second_best = values[1]
    floor = (pop20.optimal_value() - second_best) / (2.0 * 3)
    for i, selection in enumerate(TWENTY_SELECTIONS[:8]):
        point = critical_point(pop20, selection, SIGN_CYCLE[i % 4], RngStream(5))
        dist = frame_distance(point, pop20.q_truth)
        ratio = (pop20.optimal_value() - pop20.objective(point)) / dist**2
        assert ratio >= floor - 1e-12


def test_error_bound_samples_all_finite(pop20):
    rows = error_bound_samples(pop20, 0.05, 500, 0.3, RngStream(7))
    assert rows.shape[0] > 0
    assert np.all(np.isfinite(rows))
    assert np.all(rows[:, 1] > 0)


def test_error_bound_factor_stable_across_batches(pop20):
    first = _error_bound_factor(pop20, 0.05, 500, 0.3, RngStream(8))
    second = _error_bound_factor(pop20, 0.05, 500, 0.3, RngStream(9))
    assert first <= 2.0 * second and second <= 2.0 * first


def test_error_bound_radius_validation(pop20):
    with pytest.raises(ValueError):
        error_bound_samples(pop20, 0.05, 10, 0.8, RngStream(0))


def test_sample_near_respects_radius(pop20):
    gen = RngStream(10).generator()
    for frames, _ in _near_chunks(pop20.q_truth, 0.25, gen, 50):
        for frame in frames:
            assert frame_distance(frame, pop20.q_truth) <= 0.25


@pytest.mark.parametrize("d, seed", [(20, 0), (20, 1), (100, 2)])
def test_stacked_samplers_match_per_frame_reference(ref_lambdas, ref_groups, d, seed):
    population = make_population(d, ref_lambdas, ref_groups, seed=40 + seed)
    n = 2 * CHUNK + 2  # the last chunk is a short one
    near, far = growth_ratio_samples(population, n, 0.3, RngStream(seed))
    ref_near, ref_far = reference_growth_samples(population, n, 0.3, RngStream(seed))
    assert near.shape == far.shape == (n, 2)
    assert np.array_equal(near, ref_near) and np.array_equal(far, ref_far)
    rows = error_bound_samples(population, 0.05, n, 0.3, RngStream(seed, 1))
    ref_rows = reference_error_bound_samples(population, 0.05, n, 0.3, RngStream(seed, 1))
    assert rows.shape == (n, 2) and np.array_equal(rows, ref_rows)


def _reject_tries(monkeypatch, rejected, radius):
    """Make the near sampler reject its tries numbered (from 0) in ``rejected``."""
    distances = diagnostics.aligned_distances
    tries = [0]

    def patched(frames, ref):
        out = distances(frames, ref)
        for i in range(len(out)):
            if tries[0] + i in rejected:
                out[i] = 2.0 * radius
        tries[0] += len(out)
        return out

    monkeypatch.setattr(diagnostics, "aligned_distances", patched)


def test_rejected_try_consumes_exactly_one_draw(pop20, monkeypatch):
    radius, n = 0.3, CHUNK + 6
    rejected = {3, CHUNK - 1, CHUNK, CHUNK + 5}
    _reject_tries(monkeypatch, rejected, radius)
    gen = RngStream(11).generator()
    frames = np.concatenate([f for f, _ in _near_chunks(pop20.q_truth, radius, gen, n)])
    replay = RngStream(11).generator()
    expected = []
    for t in range(n + len(rejected)):
        direction = replay.standard_normal((20, 3))
        direction *= radius / np.linalg.norm(direction)
        if t not in rejected:
            expected.append(project_stiefel(pop20.q_truth.x + direction).x)
    assert np.array_equal(frames, np.stack(expected))
    # The stream is left exactly after the last accepted try.
    assert gen.standard_normal() == replay.standard_normal()


@pytest.mark.parametrize("run, raises", [(9, False), (10, True)])
def test_max_tries_counts_rejections_across_chunks(pop20, monkeypatch, run, raises):
    _reject_tries(monkeypatch, set(range(CHUNK - 4, CHUNK - 4 + run)), 0.3)
    monkeypatch.setattr(diagnostics, "MAX_TRIES", 10)
    sample = _near_chunks(pop20.q_truth, 0.3, RngStream(12).generator(), 2 * CHUNK)
    if raises:
        with pytest.raises(RuntimeError, match="after 10 tries"):
            list(sample)
    else:
        assert sum(len(f) for f, _ in sample) == 2 * CHUNK


def test_residual_norms_simple_cases():
    zero = HppcaProblem((np.zeros((4, 4)),))
    assert residual_norms(zero)[0] == 0.0
    spike = np.zeros((5, 5))
    spike[0, 0] = 0.3
    assert residual_norms(HppcaProblem((spike,)))[0] == pytest.approx(0.3, rel=1e-8)
    indefinite = np.diag([0.2, -0.4, 0.0])
    assert residual_norms(HppcaProblem((indefinite,)))[0] == pytest.approx(
        0.4, rel=1e-8)


def test_residual_norms_match_jacobi_oracle():
    # Indefinite deltas whose most negative eigenvalue dominates in one and
    # whose most positive one dominates in the other.
    gen = RngStream(40).generator()
    basis, _ = np.linalg.qr(gen.standard_normal((6, 6)))
    deltas = [basis @ np.diag(values) @ basis.T
              for values in ([0.3, 0.1, 0.0, -0.05, -0.2, -0.7],
                             [0.9, 0.4, -0.1, -0.3, -0.5, -0.6])]
    deltas = [(m + m.T) / 2 for m in deltas]
    norms = residual_norms(HppcaProblem(tuple(deltas)))
    for norm, delta in zip(norms, deltas):
        assert norm == pytest.approx(np.max(np.abs(jacobi_eigh(delta)[0])), rel=1e-10)
    assert norms == pytest.approx([0.7, 0.9], rel=1e-10)


def test_residual_norm_trend_with_sample_size(ref_lambdas):
    medians = []
    for n in (500, 2000, 8000):
        worst = []
        for rep in range(6):
            groups = NoiseGroups((n // 5, 4 * n // 5), (1.0, 6.0))
            model = make_model(40, ref_lambdas, seed=8100 + rep)
            ds = sample_dataset(model, groups, NoiseKind.GAUSSIAN,
                                RngStream(8100 + rep, 1))
            problem = build_problem(ds, ref_lambdas)
            population = PopulationProblem.from_model(model, groups)
            worst.append(float(np.max(residual_norms(build_residuals(problem, population)))))
        medians.append(float(np.median(worst)))
    assert medians[2] < medians[1] < medians[0]


def test_optimum_distance_bound_properties():
    assert optimum_distance_bound(0.0, 0.5, 3) == 0.0
    base = optimum_distance_bound(0.2, 0.5, 3)
    assert optimum_distance_bound(0.4, 0.5, 3) == pytest.approx(2.0 * base, rel=1e-12)
    assert optimum_distance_bound(0.2, 0.25, 3) == pytest.approx(2.0 * base, rel=1e-12)
    assert base == pytest.approx(2.0 * np.sqrt(3) * 0.2 / 0.5, rel=1e-12)
    with pytest.raises(ValueError):
        optimum_distance_bound(0.1, 0.0, 3)


def test_final_iterate_within_distance_bound(ref_lambdas, ref_groups):
    # The bound targets a global maximizer; the solver's limit satisfies it
    # on most seeds, with occasional misses tolerated.
    hits = 0
    for seed in range(10):
        model = make_model(100, ref_lambdas, seed=600 + seed)
        ds = sample_dataset(model, ref_groups, NoiseKind.GAUSSIAN,
                            RngStream(600 + seed, 1))
        problem = build_problem(ds, ref_lambdas)
        population = PopulationProblem.from_model(model, ref_groups)
        norms = residual_norms(build_residuals(problem, population))
        growth = _growth_rate(population, 300, 0.3, RngStream(600 + seed, 3))
        bound = optimum_distance_bound(float(np.max(norms)), growth, 3)
        result = gpm_solve(problem, pca_init(ds), SolverConfig())
        if frame_distance(result.x_final, model.q_truth) <= bound:
            hits += 1
    assert hits >= 9


def test_davis_kahan_zero_deviation_case(ref_lambdas, ref_groups):
    model = make_model(25, ref_lambdas, seed=13)
    exact = expected_covariance(model, ref_groups)
    check = davis_kahan_check(model, ref_groups, exact)
    assert check.rhs <= 1e-18
    assert check.lhs <= 1e-16
    assert check.holds


def test_davis_kahan_holds_at_reference_scale(ref_lambdas, ref_groups):
    model = make_model(100, ref_lambdas, seed=14)
    ds = sample_dataset(model, ref_groups, NoiseKind.GAUSSIAN, RngStream(14, 1))
    check = davis_kahan_check(model, ref_groups, ds)
    assert check.holds
    # rhs = 8 ||C - E[C]||^2 sum_j gap_j^(-2), the spectral norm here by an SVD.
    from hppca import sample_covariance

    deviation = np.linalg.norm(sample_covariance(ds) - expected_covariance(model, ref_groups), 2)
    gaps = np.array([1.5, 1.5, 1.5])  # lambdas 5, 3.5, 2 against +inf above and 0 below
    expected = 8.0 * deviation**2 * np.sum(gaps**-2.0)
    assert check.rhs == pytest.approx(expected, rel=1e-10)


def test_davis_kahan_quadratic_homogeneity(ref_lambdas, ref_groups):
    model = make_model(30, ref_lambdas, seed=15)
    ds = sample_dataset(model, ref_groups, NoiseKind.GAUSSIAN, RngStream(15, 1))
    from hppca import sample_covariance

    expected = expected_covariance(model, ref_groups)
    deviation = sample_covariance(ds) - expected
    one = davis_kahan_check(model, ref_groups, expected + deviation)
    two = davis_kahan_check(model, ref_groups, expected + 2.0 * deviation)
    assert two.rhs == pytest.approx(4.0 * one.rhs, rel=1e-12)


def test_run_diagnostics_report(ref_lambdas):
    groups = NoiseGroups((40, 160), (1.0, 6.0))
    model = make_model(30, ref_lambdas, seed=17)
    ds = sample_dataset(model, groups, NoiseKind.GAUSSIAN, RngStream(17, 1))
    report, samples = run_diagnostics(model, groups, ds, rng=RngStream(17, 3),
                                      n_samples=100)
    assert report.quadratic_growth_rate > 0
    assert report.error_bound_factor > 0
    assert len(report.residual_operator_norms) == 3
    assert report.max_residual_norm == max(report.residual_operator_norms)
    assert report.optimum_distance_bound > 0
    assert np.isfinite(report.init_distance_sq) and np.isfinite(report.init_distance_bound)
    assert report.sample_count == 100
    # Deterministic per stream.
    again, _ = run_diagnostics(model, groups, ds, rng=RngStream(17, 3), n_samples=100)
    assert again.quadratic_growth_rate == report.quadratic_growth_rate
    assert again.error_bound_factor == report.error_bound_factor
    # Ratio samples render to CSV with one row per sample.
    csv = samples.to_csv()
    lines = csv.strip().splitlines()
    assert lines[0] == "family,dist_f,ratio"
    assert len(lines) == 1 + len(samples.growth_near) + len(samples.growth_global) \
        + len(samples.error_bound)


def test_run_diagnostics_zero_residual_mode(ref_lambdas):
    groups = NoiseGroups((40, 160), (1.0, 6.0))
    model = make_model(30, ref_lambdas, seed=18)
    ds = sample_dataset(model, groups, NoiseKind.GAUSSIAN, RngStream(18, 1))
    report, _ = run_diagnostics(model, groups, ds, rng=RngStream(18, 3),
                                n_samples=50, zero_residual=True)
    assert report.optimum_distance_bound == 0.0
    assert report.max_residual_norm == 0.0


def test_report_text_and_write(tmp_path, ref_lambdas):
    groups = NoiseGroups((40, 160), (1.0, 6.0))
    model = make_model(30, ref_lambdas, seed=19)
    ds = sample_dataset(model, groups, NoiseKind.GAUSSIAN, RngStream(19, 1))
    report, samples = run_diagnostics(model, groups, ds, rng=RngStream(19, 3),
                                      n_samples=50)
    text = report_text(report)
    parsed = dict(line.split("=", 1) for line in text.strip().splitlines())
    assert float(parsed["quadratic_growth_rate"]) == report.quadratic_growth_rate
    assert parsed["init_bound_holds"] in ("true", "false")
    out = write_report(report, samples, tmp_path)
    assert (out / "report.txt").read_text() == text
    assert (out / "ratio_samples.csv").is_file()


def test_run_diagnostics_shares_the_estimators_checks(ref_lambdas, monkeypatch):
    groups = NoiseGroups((40, 160), (1.0, 6.0))
    model = make_model(20, ref_lambdas, seed=20)
    ds = sample_dataset(model, groups, NoiseKind.GAUSSIAN, RngStream(20, 1))
    population = PopulationProblem.from_model(model, groups)
    with pytest.raises(ValueError, match="n_samples"):
        run_diagnostics(model, groups, ds, n_samples=0)
    with pytest.raises(ValueError, match="n_samples"):
        error_bound_samples(population, 0.05, 0, 0.3, RngStream(0))
    # Every sampled point skipped: the estimators' own error, not numpy's.
    monkeypatch.setattr(diagnostics, "ZERO_DIST", 10.0)
    with pytest.raises(RuntimeError, match="no usable growth samples"):
        run_diagnostics(model, groups, ds, n_samples=5)
    monkeypatch.setattr(diagnostics, "ZERO_DIST", 1e-6)
    monkeypatch.setattr(diagnostics, "ZERO_RESIDUAL", np.inf)
    with pytest.raises(RuntimeError, match="no usable error-bound samples"):
        run_diagnostics(model, groups, ds, n_samples=5)
