"""The three benchmark workloads.

Each workload draws its inputs from the run seed in ``setup``, exposes
one timed entry point ``op`` (one call into the package) and certifies
every op's output in ``check`` with the independent numpy code in
``certify``. Package functions are always looked up through their module
at call time, so the tracer's rebinding sees every call.

Why these three (each stresses a different layer of ``hppca``):

* plateau  - ``hppca solve`` on reference datasets (d=100, k=3, groups
  200/800, variances 1/6): one long solve per op with truth metrics every
  iteration and a full trace CSV; solver/stiefel/linalg bookkeeping
  dominates.
* sweep    - ``run_robustness`` heterogeneity sweep (6 levels x 2 trials):
  many independent short solves that need only the final frame; this is
  where batching across trials and fewer iterations show.
* diagnose - ``run_diagnostics`` at the reference setting: no solver loop,
  about 2000 one-off SVD projections plus power iterations; the bypass
  workload for solver-loop changes.
"""

from __future__ import annotations

import contextlib
import io
import json
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import hppca.cli as cli
import hppca.diagnostics as diagnostics
import hppca.experiments as experiments
import hppca.linalg as linalg
import hppca.model as model
import hppca.solver as solver
from certify import (Operator, check_diagnostics, check_solve, frame_distance,
                     pooled_covariance, top_eigvecs, close)
from tracer import CHECK_SPAN

# Documented defaults of `hppca solve` and ExperimentSpec; the checks
# certify against these.
ALPHA = 0.05
TOL_RESIDUAL = 1e-10
DIAG_SAMPLES = 500


def child_seeds(seed: int, count: int) -> list[int]:
    """Distinct, reproducible per-input seeds derived from the run seed."""
    return [int(s) for s in np.random.SeedSequence(seed).generate_state(count)]


@dataclass
class Outcome:
    """What the checks learned from one op."""

    problems: list[str] = field(default_factory=list)
    # One (termination, iterations, final distance to truth) per solve.
    solves: list[tuple[str, int, float]] = field(default_factory=list)
    out_bytes: int = 0
    trials_failed: int = 0
    uncertified: int = 0


def _generate(out: Path, seed: int, flags: list[str]) -> Path:
    """Write a dataset the way `hppca generate` does, truth files included."""
    with contextlib.redirect_stdout(io.StringIO()):
        rc = cli.main(["generate", "--seed", str(seed), "--out", str(out), *flags])
    if rc != 0:
        raise RuntimeError(f"hppca generate failed for seed {seed}")
    return out / "dataset"


def _read_dataset(directory: Path):
    """Blocks, sizes, variances, lambdas and truth, read without the package."""
    meta = json.loads((directory / "meta.json").read_text())
    blocks = [np.load(directory / f"block_{i:03d}.npy") for i in range(meta["l"])]
    return (blocks, meta["sizes"], meta["variances"],
            np.load(directory / "lambdas.npy"), np.load(directory / "qtruth.npy"))


class Workload:
    """Defaults for the optional steps of a workload."""

    # Seconds the last op spent in the benchmark's own checks; the op
    # latency excludes them.
    in_op_check_s = 0.0

    def span(self, name: str):
        """Context for checks run inside an op; a traced run records it."""
        return contextlib.nullcontext()

    def prepare(self, item):
        """Turn a pool entry into the op's input, outside the timed op."""
        return item

    def install_capture(self) -> None:
        pass

    def uninstall_capture(self) -> None:
        pass


class Plateau(Workload):
    name = "plateau"

    def __init__(self, smoke: bool = False):
        self.pool = 4 if smoke else 64
        self.flags = ["--d", "20", "--sizes", "40,160"] if smoke else []

    def setup(self, seed: int, workdir: Path) -> list:
        return [(_generate(workdir / f"data{i:03d}", s, self.flags), workdir / f"out{i:03d}")
                for i, s in enumerate(child_seeds(seed, self.pool))]

    def op(self, item):
        data, out = item
        with contextlib.redirect_stdout(io.StringIO()):
            return cli.main(["solve", "--data", str(data), "--out", str(out)])

    def check(self, item, rc) -> Outcome:
        data, out = item
        if rc != 0:
            return Outcome(problems=[f"hppca solve exited {rc}"])
        summary = dict(line.split("=", 1)
                       for line in (out / "summary.txt").read_text().splitlines())
        blocks, sizes, variances, lambdas, q = _read_dataset(data)
        x = np.load(out / "x_final.npy")
        iterations = int(summary["iterations"])
        result = Outcome(out_bytes=sum(f.stat().st_size for f in out.iterdir()))
        result.problems = check_solve(Operator(blocks, sizes, variances, lambdas), x,
                                      summary["termination"], ALPHA, TOL_RESIDUAL,
                                      reported_objective=float(summary["final_objective"]))
        dist = frame_distance(x, q)
        if not close(dist, float(summary["final_dist"])):
            result.problems.append(f"final_dist {summary['final_dist']} != recomputed {dist!r}")
        rows = (out / "trace.csv").read_text().count("\n") - 1
        if rows != iterations + 1:
            result.problems.append(f"trace has {rows} records for {iterations} iterations")
        result.solves.append((summary["termination"], iterations, dist))
        return result


@dataclass
class Trial:
    """What a sweep keeps of one certified trial."""

    problems: list[str]
    termination: str
    iterations: int
    gpm_dist: float
    pca_dist: float


class Sweep(Workload):
    name = "sweep"
    captured = ("sample_dataset", "gpm_solve")

    def __init__(self, smoke: bool = False):
        self.pool = 2 if smoke else 8
        self.trials = 2
        self.levels = 2 if smoke else 6
        self.shape = {"d": 20} if smoke else {}
        self._pending = None
        self._trials: list[Trial] = []
        self._restore: list = []

    def setup(self, seed: int, workdir: Path) -> list:
        return [experiments.ExperimentSpec(seed=s, trials=self.trials, **self.shape)
                for s in child_seeds(seed, self.pool)]

    def install_capture(self) -> None:
        """Certify each trial inside the op, as its solve returns.

        run_robustness returns only per-level means, so the per-solve
        certificates need the solver's inputs and outputs. The wrapper on
        sample_dataset holds the trial's model and dataset only until the
        wrapper on gpm_solve has certified the solve; a Trial of a few
        numbers is all that is kept, so the benchmark holds no dataset or
        result longer than run_robustness does. The checks' time goes
        into ``in_op_check_s``. The wrappers call through the home
        modules, so a traced run still sees the calls; a refactor that
        removes either name leaves the trials uncertified (counted)
        rather than failing the run.
        """
        if not all(hasattr(experiments, attr) for attr in self.captured):
            return

        def sample_dataset(mdl, groups, *args, **kwargs):
            dataset = model.sample_dataset(mdl, groups, *args, **kwargs)
            self._pending = (mdl, dataset)
            return dataset

        def gpm_solve(prob, init, config, *args, **kwargs):
            result = solver.gpm_solve(prob, init, config, *args, **kwargs)
            start = time.perf_counter()
            with self.span(CHECK_SPAN):
                self._trials.append(self._certify(config, result))
            self.in_op_check_s += time.perf_counter() - start
            return result

        for attr, wrapper in zip(self.captured, (sample_dataset, gpm_solve)):
            self._restore.append((attr, getattr(experiments, attr)))
            setattr(experiments, attr, wrapper)

    def uninstall_capture(self) -> None:
        while self._restore:
            attr, value = self._restore.pop()
            setattr(experiments, attr, value)

    def _certify(self, config, res) -> Trial:
        mdl, dataset = self._pending
        self._pending = None
        blocks = [np.asarray(b) for b in dataset.blocks]
        q = np.asarray(mdl.q_truth.x)
        op = Operator(blocks, dataset.groups.sizes, dataset.groups.variances,
                      np.asarray(mdl.lambdas))
        x = np.asarray(res.x_final.x)
        init = top_eigvecs(pooled_covariance(blocks), q.shape[1])
        return Trial(check_solve(op, x, res.termination.value, res.alpha, config.tol_residual),
                     res.termination.value, res.iterations, frame_distance(x, q),
                     frame_distance(init, q))

    def prepare(self, item):
        self._trials.clear()
        self.in_op_check_s = 0.0
        return item

    def op(self, spec):
        return experiments.run_robustness(spec, "heterogeneity", levels=self.levels)

    def check(self, spec, stats) -> Outcome:
        result = Outcome()
        expected = {(level, method) for level in range(self.levels) for method in ("pca", "gpm")}
        rows = {(s.level, s.method): s for s in stats}
        if set(rows) != expected or len(stats) != len(expected):
            return Outcome(problems=[f"unexpected rows {sorted(rows)}"])
        result.trials_failed = sum(rows[(level, "gpm")].trials_failed
                                   for level in range(self.levels))
        if result.trials_failed or any(s.trials_ok != spec.trials for s in stats):
            result.problems.append(f"{result.trials_failed} trials failed")
        if not self._restore:
            result.uncertified = self.levels * spec.trials
            return result
        if len(self._trials) != self.levels * spec.trials:
            result.problems.append(f"certified {len(self._trials)} of "
                                   f"{self.levels * spec.trials} trials")
            return result
        errors = {key: [] for key in expected}
        for j, trial in enumerate(self._trials):
            level = j // spec.trials
            result.problems += trial.problems
            result.solves.append((trial.termination, trial.iterations, trial.gpm_dist))
            errors[(level, "gpm")].append(trial.gpm_dist)
            errors[(level, "pca")].append(trial.pca_dist)
        for key, values in errors.items():
            if not close(float(np.mean(values)), rows[key].mean_error, 1e-7):
                result.problems.append(f"{key} mean error {rows[key].mean_error!r} "
                                       f"!= recomputed {float(np.mean(values))!r}")
        return result


class Diagnose(Workload):
    name = "diagnose"

    def __init__(self, smoke: bool = False):
        self.pool = 2 if smoke else 8
        self.shape = {"d": 20, "sizes": (40, 160)} if smoke else {}

    def setup(self, seed: int, workdir: Path) -> list:
        pool = []
        for s in child_seeds(seed, self.pool):
            spec = experiments.ExperimentSpec(seed=s, **self.shape)
            mdl = spec.make_model()
            pool.append((mdl, spec.groups(), spec.make_dataset(mdl), linalg.RngStream(s, 3)))
        return pool

    def op(self, item):
        mdl, groups, dataset, rng = item
        return diagnostics.run_diagnostics(mdl, groups, dataset, alpha=ALPHA, rng=rng)

    def check(self, item, output) -> Outcome:
        mdl, groups, dataset, _ = item
        report, samples = output
        return Outcome(problems=check_diagnostics(
            report, samples, [np.asarray(b) for b in dataset.blocks], groups.sizes,
            groups.variances, np.asarray(mdl.lambdas), np.asarray(mdl.q_truth.x),
            DIAG_SAMPLES))


WORKLOADS = {cls.name: cls for cls in (Plateau, Sweep, Diagnose)}
