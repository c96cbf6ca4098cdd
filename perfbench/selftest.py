"""Self-test of the benchmark at smoke size.

    python3 perfbench/selftest.py

Checks three things and exits non-zero if any fails:

1. every workload, untraced and traced, emits exactly the end-to-end or
   per-layer metrics named in BENCHMARK.json, each with its unit, and
   BENCHMARK.json names exactly the workloads run.py has;
2. the output checks reject a perturbed final frame, a rotated (still
   orthonormal) final frame, a wrong objective and a failed
   initialization bound;
3. within each traced op the spans' self times add up to the root span's
   duration, and a traced name that does not exist is reported absent.
"""

from __future__ import annotations

import dataclasses
import json
import sys

import run  # sets the BLAS thread count before numpy loads

sys.path.insert(0, str(run.SRC))

import numpy as np  # noqa: E402

import certify  # noqa: E402
import hppca.diagnostics as diagnostics  # noqa: E402
import hppca.experiments as experiments  # noqa: E402
import hppca.linalg as linalg  # noqa: E402
import hppca.problem as problem  # noqa: E402
import hppca.solver as solver  # noqa: E402
from tracer import TARGETS, Tracer  # noqa: E402

FAILURES: list[str] = []


def expect(condition: bool, label: str) -> None:
    print(("ok    " if condition else "FAIL  ") + label)
    if not condition:
        FAILURES.append(label)


def check_emitted_metrics() -> None:
    contract = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    wanted = {0: {m["name"]: m["unit"] for m in contract["end_to_end"]},
              1: {m["name"]: m["unit"] for m in contract["per_layer"]}}
    expect(wanted[0] == run.END_TO_END and wanted[1] == run.PER_LAYER,
           "BENCHMARK.json lists the metrics run.py emits")
    expect([w["name"] for w in contract["workloads"]] == list(run.WORKLOADS),
           "BENCHMARK.json names the workloads run.py has")
    for name in run.WORKLOADS:
        for trace in (0, 1):
            out = run.run_child(name, seed=3, seconds=1, trace=trace, smoke=True)
            result = out["result"]
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            expect(set(result) == {"correct", "attempted", "failed", "metrics"}
                   and result["correct"] and result["attempted"] >= 1 and got == wanted[trace]
                   and all(isinstance(v["value"], (int, float))
                           for v in result["metrics"].values()),
                   f"{name} --trace {trace}: all {len(got)} metrics with units")


def small_solve():
    spec = experiments.ExperimentSpec(d=20, sizes=(40, 160), seed=5)
    mdl = spec.make_model()
    dataset = spec.make_dataset(mdl)
    result = solver.gpm_solve(problem.build_problem(dataset, mdl.lambdas),
                              solver.pca_init(dataset), spec.solver_config())
    op = certify.Operator([np.asarray(b) for b in dataset.blocks], spec.sizes,
                          spec.variances, np.asarray(mdl.lambdas))
    return spec, mdl, dataset, result, op


def check_negative_cases() -> None:
    spec, mdl, dataset, result, op = small_solve()
    x = np.asarray(result.x_final.x)
    term = result.termination.value
    objective = result.trace[-1].objective
    expect(term == "residual-converged" and not certify.check_solve(
        op, x, term, result.alpha, spec.tol_residual, objective), "a correct solve passes")
    noise = np.random.default_rng(0).standard_normal(x.shape)
    expect(bool(certify.check_solve(op, x + 1e-6 * noise, term, result.alpha,
                                    spec.tol_residual)), "a perturbed final frame is rejected")
    rotated, _ = np.linalg.qr(x + 1e-3 * noise)
    expect(bool(certify.check_solve(op, rotated, term, result.alpha, spec.tol_residual)),
           "an orthonormal frame off the fixed point is rejected")
    expect(bool(certify.check_solve(op, x, term, result.alpha, spec.tol_residual,
                                    objective * (1 + 1e-6))), "a wrong objective is rejected")
    report, samples = diagnostics.run_diagnostics(
        mdl, spec.groups(), dataset, alpha=spec.alpha, n_samples=40,
        rng=linalg.RngStream(5, 3))
    args = ([np.asarray(b) for b in dataset.blocks], spec.sizes, spec.variances,
            np.asarray(mdl.lambdas), np.asarray(mdl.q_truth.x), 40)
    expect(not certify.check_diagnostics(report, samples, *args), "a correct report passes")
    bad = dataclasses.replace(report, init_bound_holds=False)
    expect(bool(certify.check_diagnostics(bad, samples, *args)),
           "a failed initialization bound is rejected")


def check_self_times() -> None:
    spec, _, dataset, _, _ = small_solve()
    tracer = Tracer()
    tracer.install(TARGETS + (("solver", "no_such_function"),))
    try:
        for i in range(2):
            tracer.run_op(i, lambda: solver.gpm_solve(
                problem.build_problem(dataset, spec.lambdas), solver.pca_init(dataset),
                spec.solver_config()))
    finally:
        tracer.uninstall()
    spans, duration, self_t = tracer.self_times()
    root = tracer.names.index("op")
    for i in range(2):
        in_op = spans["op_id"] == i
        root_time = float(duration[in_op & (spans["name_id"] == root)].sum())
        total = float(self_t[in_op].sum())
        expect(abs(total - root_time) <= 1e-9 + 1e-9 * root_time and in_op.sum() > 100,
               f"op {i}: self times of {int(in_op.sum())} spans sum to the root span")
    expect(tracer.absent == ["solver.no_such_function"],
           "a missing traced name is reported absent")
    expect(not hasattr(solver.gpm_solve, "__wrapped_original__")
           and not hasattr(problem.HppcaProblem.columnwise_map, "__wrapped_original__"),
           "uninstall restores the package")


def main() -> int:
    check_negative_cases()
    check_self_times()
    check_emitted_metrics()
    print(f"{len(FAILURES)} failure(s)")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    raise SystemExit(main())
