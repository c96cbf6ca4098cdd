"""Experiment drivers: convergence runs, robustness sweeps, diagnostics.

These functions sit behind the command-line interface but are plain
library code, so scripted studies can call them directly. Every run is
seeded through explicit stream ids; trials use disjoint streams and can
be replayed independently.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from .diagnostics import DiagnosticsReport, RatioSamples, run_diagnostics
from .linalg import RngStream
from .model import (GroupedDataset, NoiseGroups, NoiseKind, SignalModel,
                    expected_covariance, sample_dataset)
from .problem import PopulationProblem, build_problem
from .solver import (SolveResult, SolverConfig, Termination, csv_cell, gpm_solve,
                     pca_init)
from .stiefel import frame_distance, random_stiefel, sin_theta_distance

# Role offsets inside a trial's stream block.
_ROLE_TRUTH = 0
_ROLE_DATA = 1
_ROLE_INIT = 2
_ROLE_DIAG = 3
_STREAMS_PER_TRIAL = 8


def trial_stream(seed: int, trial: int, role: int) -> RngStream:
    """Independent stream for one role of one trial."""
    return RngStream(seed, trial * _STREAMS_PER_TRIAL + role)


@dataclass(frozen=True)
class ExperimentSpec:
    """One experiment configuration; defaults reproduce the reference setting
    of 1000 samples in dimension 100 with groups (200, v=1) and (800, v=6)."""

    d: int = 100
    k: int = 3
    sizes: tuple[int, ...] = (200, 800)
    variances: tuple[float, ...] = (1.0, 6.0)
    lambdas: tuple[float, ...] = (5.0, 3.5, 2.0)
    alpha: float = 0.05
    max_iters: int = 5000
    tol_step: float = 1e-12
    tol_residual: float = 1e-10
    seed: int = 0
    trials: int = 20
    levels: int = 6
    noise: NoiseKind = NoiseKind.GAUSSIAN
    init: str = "pca"
    out: Path = Path("out")

    def groups(self) -> NoiseGroups:
        return NoiseGroups(sizes=self.sizes, variances=self.variances)

    def solver_config(self) -> SolverConfig:
        return SolverConfig(alpha=self.alpha, max_iters=self.max_iters,
                            tol_step=self.tol_step, tol_residual=self.tol_residual)

    def make_model(self, trial: int = 0) -> SignalModel:
        q = random_stiefel(self.d, self.k, trial_stream(self.seed, trial, _ROLE_TRUTH))
        return SignalModel(q_truth=q, lambdas=np.asarray(self.lambdas))

    def make_dataset(self, model: SignalModel, trial: int = 0) -> GroupedDataset:
        return sample_dataset(model, self.groups(), self.noise,
                              trial_stream(self.seed, trial, _ROLE_DATA))


def moving_average(values, window: int = 5) -> np.ndarray:
    """Trailing boxcar average; output length len(values) - window + 1."""
    arr = np.asarray(values, dtype=np.float64)
    if window < 1 or arr.size < window:
        raise ValueError("window must be positive and no longer than the series")
    return np.convolve(arr, np.ones(window) / window, mode="valid")


def count_trend_violations(values, window: int = 5, slack_fraction: float = 0.01) -> int:
    """Steps where the moving average rises by more than a fraction of the
    total raw descent; zero means the series decreases monotonically in trend."""
    arr = np.asarray(values, dtype=np.float64)
    ma = moving_average(arr, window)
    slack = slack_fraction * max(float(arr[0] - arr[-1]), 1e-12)
    return int(np.sum(np.diff(ma) > slack))


def fitted_rate(gaps, burn_in: int = 10, floor_rel: float = 1e-12) -> float | None:
    """Least-squares geometric decay rate of a gap sequence.

    Fits log(gap) against iteration over the segment after ``burn_in``
    where the gap is still above floor_rel times its starting value, and
    returns exp(slope). None when fewer than three points qualify (for
    example when the run starts at the optimum).
    """
    arr = np.asarray(gaps, dtype=np.float64)
    positive = arr[np.isfinite(arr) & (arr > 0)]
    if positive.size == 0:
        return None
    floor = floor_rel * positive[0]
    t = np.arange(arr.size)
    mask = (t >= burn_in) & np.isfinite(arr) & (arr > max(floor, 0.0))
    if int(mask.sum()) < 3:
        return None
    slope = np.polyfit(t[mask], np.log(arr[mask]), 1)[0]
    return float(np.exp(slope))


def iterations_to_reach(distances, threshold: float) -> int | None:
    """First trace index whose distance is at or below ``threshold``."""
    arr = np.asarray(distances, dtype=np.float64)
    hits = np.nonzero(arr <= threshold)[0]
    return int(hits[0]) if hits.size else None


@dataclass(frozen=True)
class RunSummary:
    init_dist: float
    final_dist: float
    final_objective: float
    iterations: int
    termination: str
    rate: float | None

    def lines(self, label: str) -> list[str]:
        rate = "" if self.rate is None else f"{self.rate:.17g}"
        return [
            f"{label}.init_dist={self.init_dist:.17g}",
            f"{label}.final_dist={self.final_dist:.17g}",
            f"{label}.final_objective={self.final_objective:.17g}",
            f"{label}.iterations={self.iterations}",
            f"{label}.termination={self.termination}",
            f"{label}.fitted_rate={rate}",
        ]


@dataclass(eq=False)
class ConvergenceResult:
    model: SignalModel
    population: PopulationProblem
    dataset: GroupedDataset | None
    runs: dict[str, SolveResult] = field(default_factory=dict)
    summaries: dict[str, RunSummary] = field(default_factory=dict)


def _summarize(result: SolveResult, population: PopulationProblem,
               population_mode: bool) -> RunSummary:
    trace = result.trace
    if population_mode:
        gaps = population.optimal_value() - trace.population_objective
    else:
        gaps = trace.objective[-1] - trace.objective
    return RunSummary(
        init_dist=float(trace.dist_to_truth[0]),
        final_dist=float(trace.dist_to_truth[-1]),
        final_objective=float(trace.objective[-1]),
        iterations=result.iterations,
        termination=result.termination.value,
        rate=fitted_rate(gaps),
    )


def run_convergence(spec: ExperimentSpec, population_mode: bool = False) -> ConvergenceResult:
    """Solve one instance from both the spectral and a random start.

    In population mode the infinite-sample problem is solved directly and
    the spectral start comes from the exact expected covariance; otherwise
    a dataset is drawn and both starts attack the sampled objective.
    """
    model = spec.make_model()
    groups = spec.groups()
    population = PopulationProblem.from_model(model, groups)
    config = spec.solver_config()
    if population_mode:
        dataset = None
        problem = population
        spectral = pca_init(expected_covariance(model, groups), k=spec.k)
    else:
        dataset = spec.make_dataset(model)
        problem = build_problem(dataset, model.lambdas)
        spectral = pca_init(dataset)
    random_start = random_stiefel(spec.d, spec.k, trial_stream(spec.seed, 0, _ROLE_INIT))
    out = ConvergenceResult(model=model, population=population, dataset=dataset)
    for label, start in (("pca", spectral), ("random", random_start)):
        result = gpm_solve(problem, start, config, truth=population)
        out.runs[label] = result
        out.summaries[label] = _summarize(result, population, population_mode)
    return out


def sweep_variances(sweep: str, level: int,
                    base: tuple[float, float] = (0.1, 0.6)) -> tuple[float, float]:
    """Noise-variance pair for one sweep level (levels are 0-based).

    noise sweep:          scale both variances by (1 + level / 10);
    heterogeneity sweep:  keep the first, raise the second by level / 10.
    """
    if level < 0:
        raise ValueError("level must be nonnegative")
    if sweep == "noise":
        factor = 1.0 + level / 10.0
        return (base[0] * factor, base[1] * factor)
    if sweep == "heterogeneity":
        return (base[0], base[1] + level / 10.0)
    raise ValueError(f"unknown sweep {sweep!r} (expected 'noise' or 'heterogeneity')")


@dataclass(frozen=True)
class LevelStat:
    """One method's errors at one sweep level. A statistic with too few
    successful trials is None; the failed and capped (max-iters, still
    counted as ok) trial counts are the level's, on both methods' rows."""

    level: int
    variances: tuple[float, float]
    method: str
    mean_error: float | None
    std_error: float | None
    trials_ok: int
    trials_failed: int
    trials_capped: int


ROBUSTNESS_HEADER = "level,method,mean_error,std_error"


def run_robustness(spec: ExperimentSpec, sweep: str, levels: int | None = None,
                   metric: str = "dist-f") -> list[LevelStat]:
    """Compare the spectral baseline against the full solver across noise levels.

    Each level runs ``spec.trials`` seeded replicates; each replicate
    draws a fresh ground truth and dataset, measures the spectral
    initialization's subspace error and the solver's final error. Trials
    that fail are excluded and counted, and so are solves that hit the
    iteration cap. Only the final frame counts here, so the solves are
    accelerated (SolverConfig.accelerate).
    """
    if metric == "dist-f":
        error = frame_distance
    elif metric == "sin-theta":
        error = sin_theta_distance
    else:
        raise ValueError(f"unknown metric {metric!r} (expected 'dist-f' or 'sin-theta')")
    levels = spec.levels if levels is None else levels
    if levels < 1:
        raise ValueError("need at least one sweep level")
    if spec.trials < 1:
        raise ValueError("need at least one trial per sweep level")
    config = replace(spec.solver_config(), accelerate=True)
    stats: list[LevelStat] = []
    for level in range(levels):
        variances = sweep_variances(sweep, level)
        level_spec = replace(spec, variances=variances)
        errors: dict[str, list[float]] = {"pca": [], "gpm": []}
        failed = capped = 0
        for trial in range(spec.trials):
            trial_id = level * 1_000_003 + trial + 1
            try:
                model = level_spec.make_model(trial_id)
                dataset = level_spec.make_dataset(model, trial_id)
                start = pca_init(dataset)
                errors["pca"].append(error(start, model.q_truth))
                problem = build_problem(dataset, model.lambdas)
                result = gpm_solve(problem, start, config)
                errors["gpm"].append(error(result.x_final, model.q_truth))
                capped += result.termination is Termination.MAX_ITERS
            except (ValueError, RuntimeError):
                failed += 1
        for method, values in errors.items():
            arr = np.asarray(values)
            stats.append(LevelStat(
                level=level, variances=variances, method=method,
                mean_error=float(arr.mean()) if arr.size else None,
                std_error=float(arr.std(ddof=1)) if arr.size > 1 else None,
                trials_ok=arr.size, trials_failed=failed, trials_capped=capped,
            ))
    return stats


def robustness_csv(stats: list[LevelStat]) -> str:
    """One row per level and method; an undefined statistic is an empty cell."""
    lines = [ROBUSTNESS_HEADER]
    for s in stats:
        lines.append(f"{s.level},{s.method},{csv_cell(s.mean_error)},{csv_cell(s.std_error)}")
    return "\n".join(lines) + "\n"


def run_diagnose(spec: ExperimentSpec, zero_residual: bool = False,
                 data: tuple[SignalModel, GroupedDataset] | None = None,
                 ) -> tuple[DiagnosticsReport, RatioSamples]:
    """Diagnostics report for a model and the dataset drawn from it, by
    default the spec's trial-0 ones; the groups are the dataset's."""
    if data is None:
        model = spec.make_model()
        data = model, spec.make_dataset(model)
    model, dataset = data
    return run_diagnostics(
        model, dataset.groups, dataset, alpha=spec.alpha,
        rng=trial_stream(spec.seed, 0, _ROLE_DIAG), zero_residual=zero_residual,
    )


# Fixed palette for the SVG emitter.
_COLORS = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")


def svg_line_chart(series: dict[str, tuple], title: str = "", x_label: str = "",
                   y_label: str = "", log_y: bool = False,
                   width: int = 640, height: int = 420) -> str:
    """Minimal static SVG line chart; one polyline per named series."""
    margin = 56
    xs_all = np.concatenate([np.asarray(xs, dtype=np.float64) for xs, _ in series.values()])
    ys_all = np.concatenate([np.asarray(ys, dtype=np.float64) for _, ys in series.values()])
    if log_y:
        ys_all = ys_all[ys_all > 0]
        if ys_all.size == 0:
            raise ValueError("log scale needs positive values")
        ys_all = np.log10(ys_all)
    x_lo, x_hi = float(xs_all.min()), float(xs_all.max())
    y_lo, y_hi = float(ys_all.min()), float(ys_all.max())
    x_span = (x_hi - x_lo) or 1.0
    y_span = (y_hi - y_lo) or 1.0

    def sx(v: float) -> float:
        return margin + (v - x_lo) / x_span * (width - 2 * margin)

    def sy(v: float) -> float:
        return height - margin - (v - y_lo) / y_span * (height - 2 * margin)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<line x1="{margin}" y1="{height - margin}" x2="{width - margin}" '
        f'y2="{height - margin}" stroke="black"/>',
        f'<line x1="{margin}" y1="{margin}" x2="{margin}" y2="{height - margin}" '
        f'stroke="black"/>',
        f'<text x="{width / 2:.1f}" y="20" text-anchor="middle" font-size="14">{title}</text>',
        f'<text x="{width / 2:.1f}" y="{height - 12}" text-anchor="middle" '
        f'font-size="12">{x_label}</text>',
        f'<text x="16" y="{height / 2:.1f}" text-anchor="middle" font-size="12" '
        f'transform="rotate(-90 16 {height / 2:.1f})">{y_label}</text>',
        f'<text x="{margin}" y="{height - margin + 16}" font-size="10">{x_lo:.4g}</text>',
        f'<text x="{width - margin}" y="{height - margin + 16}" text-anchor="end" '
        f'font-size="10">{x_hi:.4g}</text>',
        f'<text x="{margin - 4}" y="{height - margin}" text-anchor="end" '
        f'font-size="10">{(10 ** y_lo if log_y else y_lo):.4g}</text>',
        f'<text x="{margin - 4}" y="{margin + 4}" text-anchor="end" '
        f'font-size="10">{(10 ** y_hi if log_y else y_hi):.4g}</text>',
    ]
    for i, (name, (xs, ys)) in enumerate(series.items()):
        xs = np.asarray(xs, dtype=np.float64)
        ys = np.asarray(ys, dtype=np.float64)
        if log_y:
            keep = ys > 0
            xs, ys = xs[keep], np.log10(ys[keep])
        pts = " ".join(f"{sx(xv):.2f},{sy(yv):.2f}" for xv, yv in zip(xs, ys))
        color = _COLORS[i % len(_COLORS)]
        parts.append(f'<polyline fill="none" stroke="{color}" stroke-width="1.5" '
                     f'points="{pts}"/>')
        parts.append(f'<text x="{width - margin + 4}" y="{margin + 14 * i + 10}" '
                     f'font-size="11" fill="{color}">{name}</text>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
