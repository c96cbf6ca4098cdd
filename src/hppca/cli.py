"""Command-line interface: generate | solve | convergence | robustness | diagnose.

Every command is deterministic given --seed (timing columns aside) and
writes its outputs under --out. A flat key=value --config file supplies
defaults; explicit command-line flags win over the file.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import fields
from pathlib import Path
from typing import get_args, get_origin, get_type_hints

import numpy as np

from .experiments import (ExperimentSpec, robustness_csv, run_convergence,
                          run_diagnose, run_robustness, svg_line_chart,
                          trial_stream)
from .diagnostics import report_text, write_report
from .model import GroupedDataset, SignalModel, load_dataset, save_dataset
from .problem import PopulationProblem, build_problem
from .solver import gpm_solve, pca_init, write_trace_csv
from .stiefel import StiefelPoint, frame_distance, random_stiefel

# Settings that are not ExperimentSpec fields; the spec supplies the rest.
_EXTRA_DEFAULTS = {"sweep": "heterogeneity", "metric": "dist-f"}


def _split(value) -> list:
    if isinstance(value, (tuple, list)):
        return list(value)
    return [part.strip() for part in str(value).split(",") if part.strip()]


def read_config(path) -> dict[str, str]:
    """Parse a flat key=value file; '#' starts a comment."""
    out: dict[str, str] = {}
    for lineno, raw in enumerate(Path(path).read_text().splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"{path}:{lineno}: expected key=value, got {raw!r}")
        key, value = line.split("=", 1)
        out[key.strip().replace("-", "_")] = value.strip()
    return out


# argparse options of every shared flag, keyed by its destination.
_FLAGS = {
    "seed": dict(type=int),
    "out": dict(help="output directory (default: out)"),
    "config": dict(help="flat key=value settings file; flags override"),
    "d": dict(type=int, help="ambient dimension"),
    "k": dict(type=int, help="subspace dimension"),
    "sizes": dict(help="comma-separated group sizes"),
    "variances": dict(help="comma-separated group noise variances"),
    "lambdas": dict(help="comma-separated signal strengths"),
    "noise": dict(choices=("gaussian", "uniform")),
    "alpha": dict(type=float),
    "max_iters": dict(type=int),
    "tol_step": dict(type=float),
    "tol_residual": dict(type=float, help="fixed-point residual tolerance; below about "
                         "1e-11 lower --tol-step too, or the solve stops step-converged first"),
    "init": dict(help="pca | random | file:PATH"),
    "trials": dict(type=int),
    "levels": dict(type=int),
    "sweep": dict(choices=("noise", "heterogeneity")),
    "metric": dict(choices=("dist-f", "sin-theta")),
    "svg": dict(action="store_true", help="also render SVG charts"),
}

# The shared flags each subcommand reads; argparse rejects the others. The
# keys of a --config file stay shared by every subcommand.
_MODEL = ("seed", "out", "config", "d", "k", "sizes", "variances", "lambdas", "noise")
_SOLVER = ("alpha", "max_iters", "tol_step", "tol_residual")
_COMMAND_FLAGS = {
    "generate": _MODEL,
    "solve": _MODEL + _SOLVER + ("init",),
    "convergence": _MODEL + _SOLVER + ("svg",),
    # Each sweep level sets the variances itself.
    "robustness": tuple(name for name in _MODEL if name != "variances") + _SOLVER
    + ("trials", "levels", "sweep", "metric", "svg"),
    "diagnose": _MODEL + ("alpha",),
}


def _add_common(p: argparse.ArgumentParser, command: str) -> None:
    for name in _COMMAND_FLAGS[command]:
        p.add_argument("--" + name.replace("_", "-"), dest=name, **_FLAGS[name])
    # So that a flag the subcommand does not take is reported with its usage.
    p.set_defaults(subparser=p)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hppca",
        description="Heteroscedastic PCA experiments: data generation, the "
                    "generalized power method and its diagnostics.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="draw a dataset and write it to disk")
    _add_common(p, "generate")
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("solve", help="run the solver once and write its trace")
    _add_common(p, "solve")
    p.add_argument("--data", help="directory of a previously generated dataset")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("convergence", help="solver traces from spectral and random starts")
    _add_common(p, "convergence")
    p.add_argument("--population", action="store_true",
                   help="solve the infinite-sample problem instead of sampled data")
    p.set_defaults(func=cmd_convergence)

    p = sub.add_parser("robustness", help="error sweep against a spectral baseline")
    _add_common(p, "robustness")
    p.set_defaults(func=cmd_robustness)

    p = sub.add_parser("diagnose", help="estimate constants and check bounds")
    _add_common(p, "diagnose")
    p.add_argument("--data", help="directory of a previously generated dataset")
    p.add_argument("--zero-residual", action="store_true",
                   help="report with the residual matrices replaced by zero")
    p.set_defaults(func=cmd_diagnose)

    return parser


def resolve_spec(args) -> tuple[ExperimentSpec, dict[str, str]]:
    """Merge ExperimentSpec defaults, config file and explicit flags into a
    spec, coercing each value to its field's type (comma lists to tuples).

    Returns the spec and the merged settings that are not spec fields
    (sweep and metric), so a config file sets those too.
    """
    hints = get_type_hints(ExperimentSpec)
    defaults = {f.name: f.default for f in fields(ExperimentSpec)} | _EXTRA_DEFAULTS
    settings = dict(defaults)
    if getattr(args, "config", None):
        file_values = read_config(args.config)
        unknown = set(file_values) - set(defaults)
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        settings.update(file_values)
    for key in defaults:
        value = getattr(args, key, None)
        if value is not None:
            settings[key] = value

    def coerce(key):
        hint = hints[key]
        if get_origin(hint) is tuple:
            return tuple(get_args(hint)[0](v) for v in _split(settings[key]))
        return hint(settings[key])

    extras = {key: str(settings[key]) for key in _EXTRA_DEFAULTS}
    return ExperimentSpec(**{key: coerce(key) for key in hints}), extras


def _outdir(spec: ExperimentSpec) -> Path:
    spec.out.mkdir(parents=True, exist_ok=True)
    return spec.out


def cmd_generate(args) -> int:
    spec, _ = resolve_spec(args)
    out = _outdir(spec)
    model = spec.make_model()
    dataset = spec.make_dataset(model)
    data_dir = save_dataset(dataset, out / "dataset")
    np.save(out / "dataset" / "qtruth.npy", model.q_truth.x)
    np.save(out / "dataset" / "lambdas.npy", model.lambdas)
    print(f"seed={spec.seed}")
    print(f"dataset written to {data_dir} "
          f"(d={dataset.d}, k={dataset.k}, sizes={dataset.groups.sizes}, "
          f"variances={dataset.groups.variances}, noise={dataset.noise.value})")
    return 0


# Settings a dataset directory fixes, so `solve --data` and `diagnose --data`
# reject them, as flags or in the --config file.
_DATASET_FLAGS = ("d", "k", "sizes", "variances", "noise")


def _reject_flags(args, names, reason: str) -> None:
    in_file = read_config(args.config) if args.config else {}
    given = [f"--{name}" if getattr(args, name, None) is not None else f"{name} (in --config)"
             for name in names if getattr(args, name, None) is not None or name in in_file]
    if given:
        raise ValueError(f"{', '.join(given)} cannot be used with --data: {reason}")


def _load_or_generate(args, spec: ExperimentSpec) -> tuple[GroupedDataset, SignalModel | None]:
    """The --data dataset, or the spec's trial-0 one, plus the model that
    drew it when that is recoverable. With --data, the settings the dataset
    fixes are rejected: the shape always, the lambdas when it holds them."""
    if not args.data:
        model = spec.make_model()
        return spec.make_dataset(model), model
    _reject_flags(args, _DATASET_FLAGS, "the dataset fixes them")
    dataset = load_dataset(args.data)
    truth_path = Path(args.data) / "qtruth.npy"
    lambdas_path = Path(args.data) / "lambdas.npy"
    if not (truth_path.is_file() and lambdas_path.is_file()):
        return dataset, None
    _reject_flags(args, ("lambdas",), "the dataset's lambdas.npy fixes them")
    return dataset, SignalModel(StiefelPoint(np.load(truth_path)), np.load(lambdas_path))


def _initial_point(spec: ExperimentSpec, dataset) -> StiefelPoint:
    if spec.init == "pca":
        return pca_init(dataset)
    if spec.init == "random":
        return random_stiefel(dataset.d, dataset.k, trial_stream(spec.seed, 0, 2))
    if spec.init.startswith("file:"):
        return StiefelPoint(np.load(spec.init[len("file:"):]))
    raise ValueError(f"unknown init {spec.init!r} (expected pca, random or file:PATH)")


def cmd_solve(args) -> int:
    spec, _ = resolve_spec(args)
    dataset, model = _load_or_generate(args, spec)
    out = _outdir(spec)
    population = None if model is None else PopulationProblem.from_model(model, dataset.groups)
    lambdas = population.lambdas if population is not None else np.asarray(spec.lambdas)
    problem = build_problem(dataset, lambdas)
    start = _initial_point(spec, dataset)
    result = gpm_solve(problem, start, spec.solver_config(), truth=population)
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
    out = _outdir(spec)
    run = run_convergence(spec, population_mode=bool(getattr(args, "population", False)))
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
    out = _outdir(spec)
    sweep, metric = extras["sweep"], extras["metric"]
    stats = run_robustness(spec, sweep=sweep, metric=metric)
    (out / "robustness.csv").write_text(robustness_csv(stats))
    if args.svg:
        series = {}
        for method in ("pca", "gpm"):
            rows = [s for s in stats if s.method == method and s.mean_error is not None]
            series[method] = ([s.level for s in rows], [s.mean_error for s in rows])
        (out / "robustness.svg").write_text(svg_line_chart(
            series, title=f"{sweep} sweep", x_label="level", y_label=metric))
    print(robustness_csv(stats), end="")
    return 0


def cmd_diagnose(args) -> int:
    spec, _ = resolve_spec(args)
    dataset, model = _load_or_generate(args, spec)
    if model is None:
        raise ValueError(f"{args.data} has no qtruth.npy and lambdas.npy, which diagnose needs")
    out = _outdir(spec)
    report, samples = run_diagnose(spec, zero_residual=args.zero_residual,
                                   data=(model, dataset))
    write_report(report, samples, out)
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
