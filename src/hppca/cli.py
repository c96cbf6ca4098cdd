"""Command-line interface: generate | solve | convergence | robustness | diagnose.

Every command is deterministic given --seed (timing columns aside) and
writes its outputs under --out. A flat key=value --config file supplies
defaults; explicit command-line flags win over the file.
"""

from __future__ import annotations

import argparse
import functools
import sys
from dataclasses import fields
from pathlib import Path
from typing import get_args, get_origin, get_type_hints

import numpy as np

from .experiments import (METRICS, SWEEPS, ExperimentSpec, robustness_csv, run_convergence,
                          run_diagnose, run_robustness, svg_line_chart)
from .diagnostics import report_text, write_report
from .model import GroupedDataset, NoiseKind, SignalModel, load_dataset, save_dataset
from .problem import PopulationProblem, build_problem
from .solver import gpm_solve, pca_init, write_trace_csv
from .stiefel import StiefelPoint, frame_distance

# Settings that are not ExperimentSpec fields; the spec supplies the rest.
_EXTRA_DEFAULTS = {"sweep": "heterogeneity", "metric": "dist-f"}
_SPEC_HINTS = get_type_hints(ExperimentSpec)


def _split(value) -> list:
    if isinstance(value, (tuple, list)):
        return list(value)
    return [part.strip() for part in str(value).split(",") if part.strip()]


def read_config(path) -> dict[str, str]:
    """Parse a flat key=value file; '#' starts a comment; a key may appear once."""
    out: dict[str, str] = {}
    for lineno, raw in enumerate(Path(path).read_text().splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"{path}:{lineno}: expected key=value, got {raw!r}")
        key, value = line.split("=", 1)
        key = key.strip().replace("-", "_")
        if key in out:
            raise ValueError(f"{path}:{lineno}: duplicate key {key!r}")
        out[key] = value.strip()
    return out


# argparse options by destination; values stay text, which resolve_spec converts.
_FLAGS = {
    "out": dict(help="output directory (default: out)"),
    "config": dict(help="flat key=value settings file; flags override"),
    "d": dict(help="ambient dimension"),
    "sizes": dict(help="comma-separated group sizes"),
    "variances": dict(help="comma-separated group noise variances"),
    "lambdas": dict(help="comma-separated signal strengths, one per column"),
    "noise": dict(choices=[kind.value for kind in NoiseKind]),
    "tol_residual": dict(help="fixed-point residual at which a solve stops"),
    "init": dict(help="pca | random | file:PATH"),
    "sweep": dict(choices=SWEEPS),
    "metric": dict(choices=list(METRICS)),
    "svg": dict(action="store_true", help="also render SVG charts"),
    "data": dict(help="directory of a previously generated dataset"),
    "population": dict(action="store_true",
                       help="solve the infinite-sample problem instead of sampled data"),
    "zero_residual": dict(action="store_true",
                          help="report with the residual matrices replaced by zero"),
}

# The flags each subcommand reads; argparse rejects the others, and
# resolve_spec rejects a --config key that names none of its settings.
_MODEL = ("seed", "out", "config", "d", "sizes", "variances", "lambdas", "noise")
_SOLVER = ("alpha", "max_iters", "tol_residual")
_COMMAND_FLAGS = {
    "generate": _MODEL,
    "solve": _MODEL + _SOLVER + ("init", "data"),
    "convergence": _MODEL + _SOLVER + ("svg", "population"),
    # Each sweep level sets the variances itself.
    "robustness": tuple(name for name in _MODEL if name != "variances") + _SOLVER
    + ("trials", "levels", "sweep", "metric", "svg"),
    "diagnose": _MODEL + ("alpha", "data", "zero_residual"),
}


def _add_flags(p: argparse.ArgumentParser, command: str) -> None:
    for name in _COMMAND_FLAGS[command]:
        p.add_argument("--" + name.replace("_", "-"), dest=name, **_FLAGS.get(name, {}))
    # So that a flag the subcommand does not take is reported with its usage.
    p.set_defaults(subparser=p)


@functools.cache  # built once per process; parsing leaves it unchanged
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hppca",
        description="Heteroscedastic PCA experiments: data generation, the "
                    "generalized power method and its diagnostics.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, help_text, func in (
            ("generate", "draw a dataset and write it to disk", cmd_generate),
            ("solve", "run the solver once and write its trace", cmd_solve),
            ("convergence", "solver traces from spectral and random starts", cmd_convergence),
            ("robustness", "error sweep against a spectral baseline", cmd_robustness),
            ("diagnose", "estimate constants and check bounds", cmd_diagnose)):
        p = sub.add_parser(command, help=help_text)
        _add_flags(p, command)
        p.set_defaults(func=func)
    return parser


def _where(args, name: str) -> str | None:
    """How the run set ``name``: as a flag, as a --config key, or not at all (None)."""
    if getattr(args, name, None) is not None:
        return "--" + name.replace("_", "-")
    return f"{name} (in --config)" if name in args.config_keys else None


def resolve_spec(args) -> tuple[ExperimentSpec, dict[str, str]]:
    """Merge ExperimentSpec defaults, config file and explicit flags into a
    spec, coercing each value to its field's type (comma lists to tuples).
    A value that does not convert is an error naming its flag or key.

    Returns the spec and the merged settings that are not spec fields
    (sweep and metric), so a config file sets those too.
    """
    defaults = {f.name: f.default for f in fields(ExperimentSpec)} | _EXTRA_DEFAULTS
    file_values = read_config(args.config) if getattr(args, "config", None) else {}
    unknown = set(file_values) - (set(defaults) & set(_COMMAND_FLAGS[args.command]))
    if unknown:
        raise ValueError(f"unknown config keys for {args.command}: {sorted(unknown)}")
    args.config_keys = set(file_values)  # for _where, so a run reads the file once
    settings = defaults | file_values
    for key in defaults:
        value = getattr(args, key, None)
        if value is not None:
            settings[key] = value

    def coerce(key):
        hint = _SPEC_HINTS[key]
        try:
            if get_origin(hint) is tuple:
                return tuple(get_args(hint)[0](v) for v in _split(settings[key]))
            return hint(settings[key])
        except ValueError as exc:
            raise ValueError(f"{_where(args, key)}: {exc}") from None

    extras = {key: str(settings[key]) for key in _EXTRA_DEFAULTS}
    return ExperimentSpec(**{key: coerce(key) for key in _SPEC_HINTS}), extras


def _outdir(spec: ExperimentSpec) -> Path:
    """The output directory, made only once the outputs are ready to write,
    so a rejected run leaves none behind."""
    spec.out.mkdir(parents=True, exist_ok=True)
    return spec.out


def cmd_generate(args) -> int:
    spec, _ = resolve_spec(args)
    model = spec.make_model()
    dataset = spec.make_dataset(model)
    out = _outdir(spec)
    data_dir = save_dataset(dataset, out / "dataset")
    np.save(out / "dataset" / "qtruth.npy", model.q_truth.x)
    np.save(out / "dataset" / "lambdas.npy", model.lambdas)
    print(f"seed={spec.seed}")
    print(f"dataset written to {data_dir} "
          f"(d={dataset.d}, k={dataset.k}, sizes={dataset.groups.sizes}, "
          f"variances={dataset.groups.variances}, noise={dataset.noise.value})")
    return 0


def _reject_flags(args, names, reason: str) -> None:
    """Raise "<settings> <reason>" if a flag or a --config key sets one of ``names``."""
    given = [where for name in names if (where := _where(args, name))]
    if given:
        raise ValueError(f"{', '.join(given)} {reason}")


def _load_or_generate(args, spec: ExperimentSpec) -> tuple[GroupedDataset, SignalModel | None]:
    """The --data dataset, or the spec's trial-0 one, plus the model that
    drew it when that is recoverable. With --data, the settings the dataset
    fixes are rejected: the shape always, the lambdas when it holds them.
    A directory holding only one of qtruth.npy and lambdas.npy is an error."""
    if not args.data:
        model = spec.make_model()
        return spec.make_dataset(model), model
    _reject_flags(args, ("d", "sizes", "variances", "noise"),
                  "cannot be used with --data: the dataset fixes them")
    dataset = load_dataset(args.data)
    truth_path = Path(args.data) / "qtruth.npy"
    lambdas_path = Path(args.data) / "lambdas.npy"
    missing = [path for path in (truth_path, lambdas_path) if not path.is_file()]
    if len(missing) == 2:
        return dataset, None
    if missing:
        raise ValueError(f"{missing[0]} is missing: the ground truth needs both "
                         "qtruth.npy and lambdas.npy")
    _reject_flags(args, ("lambdas",),
                  "cannot be used with --data: the dataset's lambdas.npy fixes them")
    truth = np.load(truth_path)
    if truth.shape != (dataset.d, dataset.k):
        raise ValueError(f"{truth_path} has shape {truth.shape}, "
                         f"the dataset needs ({dataset.d}, {dataset.k})")
    return dataset, SignalModel(StiefelPoint(truth), np.load(lambdas_path))


def _initial_point(spec: ExperimentSpec, dataset) -> StiefelPoint:
    if spec.init == "pca":
        return pca_init(dataset)
    if spec.init == "random":
        return spec.random_start(dataset.d, dataset.k)
    if spec.init.startswith("file:"):
        return StiefelPoint(np.load(spec.init[len("file:"):]))
    raise ValueError(f"unknown init {spec.init!r} (expected pca, random or file:PATH)")


def cmd_solve(args) -> int:
    spec, _ = resolve_spec(args)
    dataset, model = _load_or_generate(args, spec)
    population = None if model is None else PopulationProblem.from_model(model, dataset.groups)
    lambdas = population.lambdas if population is not None else np.asarray(spec.lambdas)
    problem = build_problem(dataset, lambdas)
    start = _initial_point(spec, dataset)
    result = gpm_solve(problem, start, spec.solver_config(), truth=population)
    out = _outdir(spec)
    write_trace_csv(result.trace, out / "trace.csv")
    np.save(out / "x_final.npy", result.x_final.x)
    lines = [
        f"termination={result.termination.value}",
        f"iterations={result.iterations}",
        f"final_objective={result.trace[-1].objective:.17g}",
    ]
    if population is not None:
        lines.append(f"final_dist={frame_distance(result.x_final, population.q_truth):.17g}")
    (out / "summary.txt").write_text("\n".join(lines) + "\n")
    for line in lines:
        print(line)
    print(f"trace written to {out / 'trace.csv'}")
    return 0


def cmd_convergence(args) -> int:
    spec, _ = resolve_spec(args)
    if args.population:
        _reject_flags(args, ("noise",),
                      "cannot be used with --population: the population problem draws no noise")
    run = run_convergence(spec, population_mode=args.population)
    out = _outdir(spec)
    summary_lines: list[str] = []
    for label, result in run.runs.items():
        write_trace_csv(result.trace, out / f"trace_{label}.csv")
        summary_lines.extend(run.summaries[label].lines(label))
    (out / "summary.txt").write_text("\n".join(summary_lines) + "\n")
    if args.svg:
        series = {label: (np.arange(len(res.trace)), res.trace.dist_to_truth)
                  for label, res in run.runs.items()}
        (out / "convergence.svg").write_text(svg_line_chart(
            series, title="distance to ground truth", x_label="iteration",
            y_label="dist_f"))
    for line in summary_lines:
        print(line)
    return 0


def cmd_robustness(args) -> int:
    spec, extras = resolve_spec(args)
    sweep, metric = extras["sweep"], extras["metric"]
    stats = run_robustness(spec, sweep=sweep, metric=metric)
    out = _outdir(spec)
    (out / "robustness.csv").write_text(robustness_csv(stats))
    if args.svg:
        series = {}
        for method in ("pca", "gpm"):
            rows = [s for s in stats if s.method == method and s.mean_error is not None]
            series[method] = ([s.level for s in rows], [s.mean_error for s in rows])
        (out / "robustness.svg").write_text(svg_line_chart(
            series, title=f"{sweep} sweep", x_label="level", y_label=metric))
    print(robustness_csv(stats), end="")
    for s in stats:  # one line per level with failed or capped trials
        if s.method == "gpm" and (s.trials_failed or s.trials_capped):
            print(f"note=level {s.level}: {s.trials_failed} failed, {s.trials_capped} capped "
                  f"of {spec.trials} trials")
    return 0


def cmd_diagnose(args) -> int:
    spec, _ = resolve_spec(args)
    dataset, model = _load_or_generate(args, spec)
    if model is None:
        raise ValueError(f"{args.data} has no qtruth.npy and lambdas.npy, which diagnose needs")
    report, samples = run_diagnose(spec, model, dataset, zero_residual=args.zero_residual)
    write_report(report, samples, spec.out)
    print(report_text(report), end="")
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    args, unknown = parser.parse_known_args(argv)
    if unknown:
        args.subparser.error(f"unrecognized arguments: {' '.join(unknown)}")
    try:
        return args.func(args)
    except (ValueError, OSError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
