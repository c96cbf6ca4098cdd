from fractions import Fraction

import numpy as np
import pytest

from hppca import ExperimentSpec, NoiseKind, frame_distance, pca_init
from hppca.experiments import (count_trend_violations, fitted_rate,
                               iterations_to_reach, robustness_csv,
                               run_convergence, run_diagnose, run_robustness,
                               svg_line_chart, sweep_trials, sweep_variances)


def test_count_trend_violations_synthetic():
    falling = np.linspace(10.0, 1.0, 50)
    assert count_trend_violations(falling) == 0
    bumpy = falling.copy()
    bumpy[25:] += 3.0  # a rise of a third of the descent
    assert count_trend_violations(bumpy) > 0
    # Tiny wiggles below the slack do not count.
    wiggly = falling + 0.001 * np.sin(np.arange(50))
    assert count_trend_violations(wiggly) == 0
    # The window-2 average of [4, 0, 2, 0] is [2, 1, 1]: the raw rise is gone.
    assert count_trend_violations([4.0, 0.0, 2.0, 0.0], window=2) == 0
    assert count_trend_violations([4.0, 0.0, 2.0, 0.0], window=1) == 1
    for window in (0, 2):
        with pytest.raises(ValueError, match="window"):
            count_trend_violations([1.0], window=window)


def test_fitted_rate_on_synthetic_decay():
    gaps = 3.0 * 0.9 ** np.arange(60)
    rate = fitted_rate(gaps)
    assert rate == pytest.approx(0.9, abs=1e-6)
    assert fitted_rate(np.zeros(5)) is None
    assert fitted_rate(gaps[:8]) is None  # too short after burn-in


def test_iterations_to_reach():
    assert iterations_to_reach([5.0, 3.0, 1.0, 1.0], 1.5) == 2
    assert iterations_to_reach([5.0, 3.0], 0.5) is None


def test_sweep_variance_formulas():
    # Level zero leaves the base pair unchanged.
    assert sweep_variances("noise", 0) == (0.1, 0.6)
    v4 = sweep_variances("heterogeneity", 4)
    assert v4[0] == pytest.approx(0.1)
    assert v4[1] == pytest.approx(float(Fraction(6, 10) + Fraction(4, 10)))
    v3 = sweep_variances("noise", 3)
    assert v3[0] == pytest.approx(0.1 * 1.3)
    assert v3[1] == pytest.approx(0.6 * 1.3)
    with pytest.raises(ValueError):
        sweep_variances("sideways", 1)


def test_run_convergence_population_mode():
    spec = ExperimentSpec(d=50, seed=0, max_iters=3000)
    run = run_convergence(spec, population_mode=True)
    pca = run.summaries["pca"]
    rand = run.summaries["random"]
    assert pca.final_dist <= 1e-8
    assert rand.final_dist <= 1e-8
    assert rand.rate is not None and rand.rate < 1.0


def test_run_convergence_data_mode_reference_setting():
    spec = ExperimentSpec(seed=0)
    run = run_convergence(spec)
    pca = run.runs["pca"].trace.dist_to_truth
    rand = run.runs["random"].trace.dist_to_truth
    # The spectral start reaches the common plateau level in fewer iterations.
    threshold = 1.02 * max(pca[-1], rand[-1])
    pca_hit = iterations_to_reach(pca, threshold)
    rand_hit = iterations_to_reach(rand, threshold)
    assert pca_hit is not None and rand_hit is not None
    assert pca_hit < rand_hit
    assert run.summaries["pca"].final_dist < run.summaries["pca"].init_dist


def test_run_convergence_zero_budget():
    spec = ExperimentSpec(d=30, sizes=(20, 60), seed=1, max_iters=0)
    run = run_convergence(spec)
    assert len(run.runs["pca"].trace) == 1
    assert len(run.runs["random"].trace) == 1


def test_run_robustness_structure_and_determinism():
    spec = ExperimentSpec(d=30, sizes=(40, 160), seed=2, trials=3, max_iters=400)
    stats = run_robustness(spec, sweep="noise", levels=2)
    assert len(stats) == 4  # 2 levels x 2 methods
    assert {s.method for s in stats} == {"pca", "gpm"}
    assert all(s.trials_ok == 3 and s.trials_failed == 0 for s in stats)
    again = run_robustness(spec, sweep="noise", levels=2)
    assert [s.mean_error for s in again] == [s.mean_error for s in stats]
    csv = robustness_csv(stats)
    lines = csv.strip().splitlines()
    assert lines[0] == "level,method,mean_error,std_error"
    assert len(lines) == 5
    float(lines[1].split(",")[2])  # parses


@pytest.mark.filterwarnings("error")
def test_run_robustness_single_trial_has_no_std_error():
    spec = ExperimentSpec(d=20, sizes=(30, 90), seed=6, trials=1, max_iters=300)
    stats = run_robustness(spec, sweep="noise", levels=1)
    assert all(s.trials_ok == 1 and s.std_error is None for s in stats)
    assert all(np.isfinite(s.mean_error) for s in stats)
    for line in robustness_csv(stats).strip().splitlines()[1:]:
        assert line.endswith(",") and line.count(",") == 3


@pytest.mark.filterwarnings("error")
def test_run_robustness_level_where_every_solve_failed(monkeypatch):
    import hppca.experiments as experiments

    def failing_solve(*args, **kwargs):
        raise RuntimeError("svd left factor lost orthonormality")

    monkeypatch.setattr(experiments, "gpm_solve", failing_solve)
    spec = ExperimentSpec(d=20, sizes=(30, 90), seed=7, trials=2)
    stats = {s.method: s for s in run_robustness(spec, sweep="noise", levels=1)}
    gpm = stats["gpm"]
    assert gpm.mean_error is None and gpm.std_error is None
    assert gpm.trials_ok == 0 and gpm.trials_failed == 2
    assert "0,gpm,,\n" in robustness_csv(list(stats.values()))


def test_a_failed_sweep_trial_counts_for_neither_method(monkeypatch):
    import hppca.experiments as experiments

    solve, calls = experiments.gpm_solve, []

    def fails_first(*args, **kwargs):
        calls.append(None)
        if len(calls) == 1:
            raise RuntimeError("svd left factor lost orthonormality")
        return solve(*args, **kwargs)

    monkeypatch.setattr(experiments, "gpm_solve", fails_first)
    spec = ExperimentSpec(d=20, sizes=(30, 90), seed=7, trials=3)
    stats = {s.method: s for s in run_robustness(spec, sweep="noise", levels=1)}
    assert all(s.trials_ok == 2 and s.trials_failed == 1 for s in stats.values())
    # The pca mean is over the two trials that solved: level 0's trial ids 2 and 3.
    level_spec = ExperimentSpec(d=20, sizes=(30, 90), seed=7, variances=(0.1, 0.6))
    errors = []
    for trial_id in (2, 3):
        model = level_spec.make_model(trial_id)
        start = pca_init(level_spec.make_dataset(model, trial_id))
        errors.append(frame_distance(start, model.q_truth))
    assert stats["pca"].mean_error == np.mean(errors)


@pytest.mark.parametrize("sweep, level", [("heterogeneity", 0), ("noise", 2)])
def test_sweep_trials_draw_from_their_trial_ids(sweep, level):
    spec = ExperimentSpec(d=12, sizes=(10, 30), seed=9, trials=3)
    level_spec = ExperimentSpec(d=12, sizes=(10, 30), seed=9,
                                variances=sweep_variances(sweep, level))
    trials = list(sweep_trials(spec, sweep, level))
    assert len(trials) == 3
    for t, (model, dataset) in enumerate(trials):
        trial_id = level * 1_000_003 + t + 1
        expected_model = level_spec.make_model(trial_id)
        expected = level_spec.make_dataset(expected_model, trial_id)
        assert np.array_equal(model.q_truth.x, expected_model.q_truth.x)
        assert dataset.groups == expected.groups and dataset.stream == expected.stream
        assert all(np.array_equal(a, b) for a, b in zip(dataset.blocks, expected.blocks,
                                                       strict=True))


def test_run_robustness_counts_capped_trials():
    spec = ExperimentSpec(d=20, sizes=(30, 90), seed=8, trials=2, max_iters=3)
    stats = run_robustness(spec, sweep="noise", levels=1)
    assert all(s.trials_capped == 2 and s.trials_ok == 2 for s in stats)


def test_run_robustness_sin_theta_metric():
    spec = ExperimentSpec(d=25, sizes=(30, 90), seed=3, trials=2, max_iters=300)
    stats = run_robustness(spec, sweep="heterogeneity", levels=1, metric="sin-theta")
    assert all(np.isfinite(s.mean_error) for s in stats)
    with pytest.raises(ValueError):
        run_robustness(spec, sweep="heterogeneity", levels=1, metric="spectral")


def test_run_diagnose_smoke():
    spec = ExperimentSpec(d=30, sizes=(40, 160), seed=4)
    model = spec.make_model()
    dataset = spec.make_dataset(model)
    report, samples = run_diagnose(spec, model, dataset)
    assert report.quadratic_growth_rate > 0
    assert samples.error_bound.shape[1] == 2
    zero, _ = run_diagnose(spec, model, dataset, zero_residual=True)
    assert zero.optimum_distance_bound == 0.0


def test_svg_line_chart():
    xs = np.arange(10)
    chart = svg_line_chart({"a": (xs, xs + 1.0), "b": (xs, 2.0 * xs + 1.0)},
                           title="demo", x_label="x", y_label="y")
    assert chart.startswith("<svg")
    assert chart.count("<polyline") == 2
    assert "demo" in chart


def test_experiment_spec_helpers():
    spec = ExperimentSpec(d=20, sizes=(10, 30), variances=(0.5, 3.0), seed=5,
                          noise=NoiseKind.UNIFORM)
    model = spec.make_model()
    assert model.d == 20 and model.k == 3
    ds = spec.make_dataset(model)
    assert ds.noise is NoiseKind.UNIFORM
    assert ds.groups.sizes == (10, 30)
    config = spec.solver_config()
    assert config.alpha == 0.05
