"""hppca benchmark: one workload per process, seeded, checked, optionally traced.

Run one workload (the form the benchmark contract in BENCHMARK.json uses):

    python3 perfbench/run.py --workload plateau --seed 1 --seconds 25 --trace 0

It prints a human-readable report, a ``# detail`` JSON line and, last, one
JSON object {"correct", "attempted", "failed", "metrics"}. With --trace 0
the metrics are the end-to-end ones, with --trace 1 the per-layer ones.

Run every workload, each in a fresh process, over seeds 1-10, print the
medians and spreads and optionally record them:

    python3 perfbench/run.py --all --seconds 25 --record perfbench/baseline.json

The package is imported from ``src/`` of the checkout this file sits in;
without it the benchmark exits with status 2 and prints no result.
"""

from __future__ import annotations

import time

PROCESS_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

# One BLAS thread, fixed before numpy loads: on a small shared machine
# (2 cores measured) a single thread keeps op latencies steadiest.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
SPANS = ROOT / ".perfbench_out"
SETUP_REPS = 5
SEEDS = tuple(range(1, 11))
TAIL_LEVELS = (0.5, 0.75, 0.9, 0.95, 0.99, 0.999)
IMPORT_PROBE = ("import sys, time; t = time.perf_counter(); sys.path.insert(0, sys.argv[1]); "
                "import numpy, hppca.cli; print(time.perf_counter() - t)")

WORKLOADS = ("plateau", "sweep", "diagnose")
END_TO_END = {"setup_s": "s", "ops_per_s": "1/s", "op_ms.p50": "ms", "peak_rss_mb": "MB"}


def per_layer_units() -> dict[str, str]:
    units = {"cli.main.self_ms": "ms", "cli.out_bytes": "B",
             "experiments.run_robustness.self_ms": "ms", "experiments.trials_failed": "count",
             "diagnostics.run_diagnostics.self_ms": "ms"}
    for name in ("growth_ratio_samples", "error_bound_samples", "residual_norms",
                 "davis_kahan_check"):
        units[f"diagnostics.{name}.busy_ms"] = "ms"
    units.update({"solver.gpm_solve.calls": "count", "solver.gpm_solve.busy_ms": "ms",
                  "solver.gpm_solve.self_ms": "ms", "solver.gpm_solve.us_per_iter": "us",
                  "solver.gpm_solve.iters": "count"})
    for term in ("residual", "step", "max_iters", "nonunique"):
        units[f"solver.gpm_solve.term.{term}"] = "count"
    units.update({"solver.pca_init.busy_ms": "ms", "solver.write_trace_csv.busy_ms": "ms",
                  "solver.fixed_point_residual.calls": "count",
                  "solver.fixed_point_residual.busy_ms": "ms",
                  "problem.columnwise_map.calls": "count",
                  "problem.columnwise_map.busy_ms": "ms",
                  "problem.columnwise_map.us_per_call": "us",
                  "problem.map_flops": "flop", "problem.map_bytes": "B",
                  "problem.operator_bytes": "B", "problem.build_problem.busy_ms": "ms",
                  "problem.build_residuals.busy_ms": "ms",
                  "linalg.thin_svd.calls": "count", "linalg.thin_svd.busy_ms": "ms",
                  "linalg.thin_svd.us_per_call": "us", "linalg.sym_eig_topk.busy_ms": "ms",
                  "linalg.operator_norm.calls": "count", "linalg.operator_norm.busy_ms": "ms"})
    for name in ("StiefelPoint", "frame_distance", "project_stiefel"):
        units[f"stiefel.{name}.calls"] = "count"
        units[f"stiefel.{name}.busy_ms"] = "ms"
    for name in ("sample_dataset", "load_dataset", "sample_covariance"):
        units[f"model.{name}.busy_ms"] = "ms"
    units["trace.overhead_ratio"] = "ratio"
    return units


PER_LAYER = per_layer_units()

# Spans each workload is expected to spend most of its op time in; the
# traced run reports their measured share so the claim can be checked.
DOMINANT = {
    "plateau": (("solver.gpm_solve", "self_s"), ("linalg.thin_svd", "busy_s")),
    "sweep": (("solver.gpm_solve", "self_s"), ("linalg.thin_svd", "busy_s")),
    "diagnose": (("diagnostics.growth_ratio_samples", "busy_s"),
                 ("diagnostics.error_bound_samples", "busy_s")),
}

TERMINATIONS = {"residual-converged": "residual", "step-converged": "step",
                "max-iters": "max_iters", "projection-nonunique": "nonunique"}


# -- provenance -------------------------------------------------------------

def _getconf(name: str) -> int | None:
    try:
        out = subprocess.run(["getconf", name], capture_output=True, text=True, timeout=10)
        return int(out.stdout.strip())
    except (OSError, ValueError, subprocess.SubprocessError):
        return None


def _blas_runtime_threads(np) -> int | None:
    """Thread count reported by the OpenBLAS that numpy loaded, if reachable."""
    import ctypes
    libdir = Path(np.__file__).parent.parent / "numpy.libs"
    for lib in sorted(libdir.glob("*openblas*")):
        handle = ctypes.CDLL(str(lib))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _git_revision() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                         text=True, timeout=10)
    return out.stdout.strip() or "unknown"


def provenance(np, args) -> dict:
    deps = np.show_config(mode="dicts").get("Build Dependencies", {})
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{deps.get('blas', {}).get('name')} {deps.get('blas', {}).get('version')}",
        "lapack": f"{deps.get('lapack', {}).get('name')} "
                  f"{deps.get('lapack', {}).get('version')}",
        "blas_threads": BLAS_THREADS,
        "blas_threads_runtime": _blas_runtime_threads(np),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "l1d_bytes": _getconf("LEVEL1_DCACHE_SIZE"),
        "l2_bytes": _getconf("LEVEL2_CACHE_SIZE"),
        "l3_bytes": _getconf("LEVEL3_CACHE_SIZE"),
        "git_rev": _git_revision(),
        "workload": args.workload,
        "seed": args.seed,
        "smoke": args.smoke,
        "argv": sys.argv,
    }


# -- timing -----------------------------------------------------------------

def measure_import() -> float:
    """Median seconds to import numpy and the package in a fresh interpreter."""
    times = []
    for _ in range(SETUP_REPS):
        out = subprocess.run([sys.executable, "-c", IMPORT_PROBE, str(SRC)], cwd=ROOT,
                             capture_output=True, text=True, timeout=120, check=True)
        times.append(float(out.stdout.strip().splitlines()[-1]))
    return statistics.median(times)


def run_op(wl, raw_item, outcomes: list, tracer=None, index: int = 0) -> float:
    """Time one op, then check its output into ``outcomes``.

    A workload that has to check inside the op (``sweep``) reports the
    time its checks took there, and that time is taken off the latency.
    """
    item = wl.prepare(raw_item)
    start = time.perf_counter()
    try:
        output = wl.op(item) if tracer is None else tracer.run_op(index, wl.op, item)
        error = None
    except Exception as exc:  # an op that raises is a failed op, not a crash
        output, error = None, exc
    latency = time.perf_counter() - start - wl.in_op_check_s
    outcomes.append(_checked(wl, item, output, error))
    return latency


def timed_loop(wl, pool, seconds: float, outcomes: list) -> list[float]:
    """Closed loop, one client: run ops back to back over the input pool.

    Stops before an op that would, at the mean latency so far, end past
    ``seconds`` of op time; at least one op always runs.
    """
    latencies: list[float] = []
    while not latencies or sum(latencies) * (1 + 1 / len(latencies)) <= seconds:
        latencies.append(run_op(wl, pool[len(latencies) % len(pool)], outcomes))
    return latencies


def _checked(wl, item, output, error):
    from workloads import Outcome
    if error is not None:
        return Outcome(problems=[f"op raised {type(error).__name__}: {error}"])
    try:
        return wl.check(item, output)
    except Exception as exc:  # a check that cannot run is a failed check
        return Outcome(problems=[f"check raised {type(exc).__name__}: {exc}"])


def tail(latencies: list[float]) -> tuple[float, float, int] | None:
    """(level, value, samples beyond) at the highest listed percentile with
    at least ten samples beyond it; None when the run has too few ops."""
    ordered = sorted(latencies)
    best = None
    for level in TAIL_LEVELS:
        rank = math.ceil(level * len(ordered))
        beyond = len(ordered) - rank
        if rank >= 1 and beyond >= 10:
            best = (level, ordered[rank - 1], beyond)
    return best


def quality(outcomes: list) -> dict:
    """Failure, cap and accuracy figures from the checked outputs."""
    solves = [s for o in outcomes for s in o.solves]
    failed = sum(1 for o in outcomes if o.problems)
    return {
        "fail_ratio": failed / len(outcomes),
        "capped_ratio": (sum(1 for s in solves if s[0] == "max-iters") / len(solves)
                         if solves else None),
        "final_dist.mean": statistics.fmean(s[2] for s in solves) if solves else None,
        "iters.mean": statistics.fmean(s[1] for s in solves) if solves else None,
        "solves": len(solves),
        "uncertified_solves": sum(o.uncertified for o in outcomes),
        "problems": sorted({p for o in outcomes for p in o.problems})[:10],
    }


# -- per-layer metrics --------------------------------------------------------

class KernelCounts:
    """Computed (not measured) work of the column map, from array shapes."""

    def __init__(self):
        self.cache: dict[tuple, tuple[float, float, float]] = {}
        self.flops = 0.0
        self.bytes = 0.0
        self.operator_bytes = 0.0
        self.calls = 0
        self.unknown = False

    def shape_counts(self, prob, x) -> tuple[float, float, float]:
        """Counts for today's dense representation, one d-by-d matrix per
        column; any other representation leaves the counts absent."""
        mats = getattr(prob, "m_matrices", None)
        if mats is None:
            self.unknown = True
            return 0.0, 0.0, 0.0
        # One d-by-d matvec per column: 2 d^2 flops, the matrix read once.
        op_bytes = float(sum(m.nbytes for m in mats))
        return sum(2.0 * m.size for m in mats), op_bytes + 2.0 * x.nbytes, op_bytes

    def hook(self, args, kwargs, result) -> None:
        prob = args[0]
        key = (id(prob), result.shape)
        counts = self.cache.get(key)
        if counts is None:
            counts = self.cache[key] = self.shape_counts(prob, result)
        self.calls += 1
        self.flops += counts[0]
        self.bytes += counts[1]
        self.operator_bytes = max(self.operator_bytes, counts[2])


class SolveCounts:
    def __init__(self):
        self.iters = 0
        self.terms = {key: 0 for key in TERMINATIONS.values()}

    def hook(self, args, kwargs, result) -> None:
        self.iters += result.iterations
        key = TERMINATIONS.get(getattr(result.termination, "value", None))
        if key is not None:
            self.terms[key] += 1


def layer_metrics(totals, ops: int, kernel: KernelCounts, solves: SolveCounts,
                  outcomes: list, overhead: float) -> dict[str, float]:
    def field(name, key):
        return totals.get(name, {}).get(key, 0.0)

    out: dict[str, float] = {}
    for metric in PER_LAYER:
        span, _, stat = metric.rpartition(".")
        if stat in ("self_ms", "busy_ms"):
            out[metric] = 1e3 * field(span, stat.replace("_ms", "_s")) / ops
        elif stat == "calls":
            out[metric] = field(span, "calls") / ops
    map_calls = field("problem.columnwise_map", "calls")
    svd_calls = field("linalg.thin_svd", "calls")
    solve_calls = field("solver.gpm_solve", "calls")
    out["problem.columnwise_map.us_per_call"] = (
        1e6 * field("problem.columnwise_map", "busy_s") / map_calls if map_calls else 0.0)
    out["linalg.thin_svd.us_per_call"] = (
        1e6 * field("linalg.thin_svd", "busy_s") / svd_calls if svd_calls else 0.0)
    out["solver.gpm_solve.us_per_iter"] = (
        1e6 * field("solver.gpm_solve", "busy_s") / solves.iters if solves.iters else 0.0)
    out["solver.gpm_solve.iters"] = solves.iters / solve_calls if solve_calls else 0.0
    for key, count in solves.terms.items():
        out[f"solver.gpm_solve.term.{key}"] = count / ops
    out["problem.map_flops"] = kernel.flops / kernel.calls if kernel.calls else 0.0
    out["problem.map_bytes"] = kernel.bytes / kernel.calls if kernel.calls else 0.0
    out["problem.operator_bytes"] = kernel.operator_bytes
    out["cli.out_bytes"] = sum(o.out_bytes for o in outcomes) / ops
    out["experiments.trials_failed"] = sum(o.trials_failed for o in outcomes) / ops
    out["trace.overhead_ratio"] = overhead
    return out


def layer_split(totals, ops: int, workload: str) -> dict:
    """Share of op time by module (self time), the five largest spans and
    the workload's expected dominant spans. Checks run inside an op are
    spans of their own (CHECK_SPAN) and are left out of the op time."""
    from tracer import CHECK_SPAN
    op_time = (totals.get("op", {}).get("busy_s", 0.0)
               - totals.get(CHECK_SPAN, {}).get("busy_s", 0.0))
    dominant = DOMINANT[workload]
    modules: dict[str, float] = {}
    for name, row in totals.items():
        if name == CHECK_SPAN:
            continue
        module = "benchmark" if name == "op" else name.split(".")[0]
        modules[module] = modules.get(module, 0.0) + row["self_s"]
    top = sorted(((row["self_s"], name) for name, row in totals.items()
                  if name != CHECK_SPAN), reverse=True)[:5]
    return {
        "op_ms": 1e3 * op_time / ops,
        "module_self_share": {m: round(v / op_time, 4) for m, v in sorted(modules.items())},
        "top_self_share": {name: round(v / op_time, 4) for v, name in top},
        "dominant": {"spans": [f"{name}.{key}" for name, key in dominant],
                     "share": round(sum(totals.get(name, {}).get(key, 0.0)
                                        for name, key in dominant) / op_time, 4)},
    }


# -- one workload ---------------------------------------------------------------

def emit(lines: list[str], detail: dict, result: dict) -> None:
    for line in lines:
        print(line)
    print("# detail " + json.dumps(detail, sort_keys=True, default=str))
    print(json.dumps(result), flush=True)


def run_workload(args) -> int:
    if not (SRC / "hppca" / "__init__.py").is_file():
        print(f"error: no package source at {SRC / 'hppca'}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import numpy as np
    import workloads

    wl = workloads.WORKLOADS[args.workload](smoke=args.smoke)
    workdir = WORK / f"{args.workload}-{os.getpid()}"
    try:
        import_s = measure_import() if not args.trace else None
        reps = SETUP_REPS if not args.trace else 1
        setup_times = []
        for _ in range(reps):
            if workdir.exists():
                shutil.rmtree(workdir)
            workdir.mkdir(parents=True)
            start = time.perf_counter()
            pool = wl.setup(args.seed, workdir)
            setup_times.append(time.perf_counter() - start)
        wl.install_capture()
        first_op_at = time.perf_counter() - PROCESS_START
        detail = {"provenance": provenance(np, args), "pool": len(pool),
                  "process_to_first_op_s": first_op_at}
        if args.trace:
            result = traced_run(args, wl, pool, detail)
        else:
            result = untraced_run(args, wl, pool, detail, import_s, setup_times)
    finally:
        wl.uninstall_capture()
        shutil.rmtree(workdir, ignore_errors=True)
        if WORK.exists() and not any(WORK.iterdir()):
            WORK.rmdir()
    lines, detail, final = result
    emit(lines, detail, final)
    return 0


def untraced_run(args, wl, pool, detail, import_s, setup_times):
    outcomes: list = []
    latencies = timed_loop(wl, pool, args.seconds, outcomes)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    q = quality(outcomes)
    metrics = {
        "setup_s": import_s + statistics.median(setup_times),
        "ops_per_s": len(latencies) / sum(latencies),
        "op_ms.p50": 1e3 * statistics.median(latencies),
        "peak_rss_mb": peak_rss_mb,
    }
    t = tail(latencies)
    detail.update(q)
    detail.update({"ops": len(latencies), "import_s": import_s, "setup_gen_s": setup_times,
                   "op_ms.tail": None if t is None else
                   {"level": t[0], "value": 1e3 * t[1], "beyond": t[2]}})
    lines = [f"workload {args.workload}  seed {args.seed}  ops {len(latencies)}  "
             f"blas_threads {BLAS_THREADS}"]
    lines += [f"{name:<16} {metrics[name]:.6g} {unit}" for name, unit in END_TO_END.items()]
    lines.append("op_ms.tail       " + ("n/a (fewer than 20 ops)" if t is None else
                 f"{1e3 * t[1]:.6g} ms  (p{100 * t[0]:g}, {t[2]} samples beyond)"))
    for name, unit in (("fail_ratio", "ratio"), ("capped_ratio", "ratio"),
                       ("final_dist.mean", "dist_f"), ("iters.mean", "count")):
        value = q[name]
        lines.append(f"{name:<16} " + ("n/a" if value is None else f"{value:.6g} {unit}"))
    failed = sum(1 for o in outcomes if o.problems)
    final = {"correct": failed == 0, "attempted": len(outcomes), "failed": failed,
             "metrics": {name: {"value": metrics[name], "unit": unit}
                         for name, unit in END_TO_END.items()}}
    return lines, detail, final


def traced_run(args, wl, pool, detail):
    """Each input runs untraced, then traced, so the overhead ratio compares
    the same work at nearly the same moment; the tracer is installed only
    around the traced op."""
    from tracer import Tracer
    tracer = Tracer()
    kernel, solves = KernelCounts(), SolveCounts()
    tracer.hooks["problem.columnwise_map"] = kernel.hook
    tracer.hooks["solver.gpm_solve"] = solves.hook
    wl.span = tracer.span
    plain_outcomes: list = []
    outcomes: list = []
    plain: list[float] = []
    traced: list[float] = []
    while not traced or (sum(plain) + sum(traced)) * (1 + 1 / len(traced)) <= args.seconds:
        i = len(traced)
        plain.append(run_op(wl, pool[i % len(pool)], plain_outcomes))
        tracer.install()
        try:
            traced.append(run_op(wl, pool[i % len(pool)], outcomes, tracer, i))
        finally:
            tracer.uninstall()
    SPANS.mkdir(exist_ok=True)
    tracer.write(SPANS / f"spans_{args.workload}.npz")
    totals = tracer.totals()
    ops = len(traced)
    overhead = sum(plain) / sum(traced)
    metrics = layer_metrics(totals, ops, kernel, solves, outcomes, overhead)
    absent = list(tracer.absent) + (["problem.map_flops", "problem.map_bytes",
                                     "problem.operator_bytes"] if kernel.unknown else [])
    prov = detail["provenance"]
    detail.update({"ops": ops, "untraced_ops": len(plain), "absent": absent,
                   "split": layer_split(totals, ops, args.workload), "spans": len(tracer.start),
                   "computed": {"map_flops": metrics["problem.map_flops"],
                                "map_bytes": metrics["problem.map_bytes"],
                                "operator_bytes": metrics["problem.operator_bytes"],
                                "l2_bytes": prov["l2_bytes"], "l3_bytes": prov["l3_bytes"]}})
    lines = [f"workload {args.workload}  seed {args.seed}  traced ops {ops}  "
             f"(each also run untraced)"]
    lines += [f"{name:<44} {metrics[name]:.6g} {unit}" for name, unit in PER_LAYER.items()]
    lines.append("computed (from array shapes): problem.map_flops, problem.map_bytes, "
                 f"problem.operator_bytes; L2 {prov['l2_bytes']} B, L3 {prov['l3_bytes']} B")
    dominant = detail["split"]["dominant"]
    lines.append(f"dominant: {' + '.join(dominant['spans'])} = {dominant['share']:.1%} of op time")
    if absent:
        lines.append("absent (not traced, reported as 0): " + ", ".join(absent))
    all_outcomes = plain_outcomes + outcomes
    failed = sum(1 for o in all_outcomes if o.problems)
    final = {"correct": failed == 0, "attempted": len(all_outcomes), "failed": failed,
             "metrics": {name: {"value": metrics[name], "unit": unit}
                         for name, unit in PER_LAYER.items()}}
    return lines, detail, final


# -- all workloads -----------------------------------------------------------------


def run_child(workload: str, seed: int, seconds: float, trace: int, smoke: bool) -> dict:
    script = Path(__file__).resolve().relative_to(ROOT)
    cmd = [sys.executable, str(script), "--workload", workload,
           "--seed", str(seed), "--seconds", f"{seconds:g}", "--trace", str(trace)]
    if smoke:
        cmd.append("--smoke")
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if out.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {out.returncode}:\n{out.stderr}")
    lines = out.stdout.strip().splitlines()
    detail = next(json.loads(line[len("# detail "):]) for line in lines
                  if line.startswith("# detail "))
    return {"result": json.loads(lines[-1]), "detail": detail}


def spread(values: list[float]) -> dict:
    med = statistics.median(values)
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = med
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else None, "values": values}


def run_all(args) -> int:
    record = {"seconds": args.seconds, "seeds": list(SEEDS), "workloads": {}}
    for name in WORKLOADS:
        runs = [run_child(name, seed, args.seconds, 0, args.smoke) for seed in SEEDS]
        traced = run_child(name, SEEDS[0], args.seconds, 1, args.smoke)
        entry = {
            "end_to_end": {metric: spread([r["result"]["metrics"][metric]["value"]
                                           for r in runs]) | {"unit": unit}
                           for metric, unit in END_TO_END.items()},
            "attempted": sum(r["result"]["attempted"] for r in runs),
            "failed": sum(r["result"]["failed"] for r in runs),
            "correct": all(r["result"]["correct"] for r in runs),
            "quality": {key: [r["detail"].get(key) for r in runs]
                        for key in ("op_ms.tail", "fail_ratio", "capped_ratio",
                                    "final_dist.mean", "iters.mean", "ops")},
            "per_layer": {metric: value["value"]
                          for metric, value in traced["result"]["metrics"].items()},
            "trace": {key: traced["detail"].get(key)
                      for key in ("split", "absent", "computed", "ops", "untraced_ops")},
            "provenance": runs[0]["detail"]["provenance"],
        }
        record["workloads"][name] = entry
        print(f"== {name}: {entry['attempted']} ops, {entry['failed']} failed, "
              f"correct={entry['correct']}")
        for metric, row in entry["end_to_end"].items():
            print(f"   {metric:<12} median {row['median']:.6g} {row['unit']:<4} "
                  f"q1 {row['q1']:.6g}  q3 {row['q3']:.6g}  spread {row['spread']:.4f}")
        print(f"   gpm_solve.iters {entry['per_layer']['solver.gpm_solve.iters']:.6g}  "
              f"trace.overhead_ratio {entry['per_layer']['trace.overhead_ratio']:.4f}")
        print(f"   split {json.dumps(entry['trace']['split'])}", flush=True)
    if args.record:
        Path(args.record).write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    return 0 if all(w["correct"] for w in record["workloads"].values()) else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny problem sizes, for the self-test")
    parser.add_argument("--all", action="store_true",
                        help="run every workload over seeds 1-10, each in a fresh process")
    parser.add_argument("--record", help="with --all: write medians and spreads here")
    args = parser.parse_args(argv)
    if args.all:
        return run_all(args)
    if args.workload is None:
        parser.error("--workload is required unless --all is given")
    return run_workload(args)


if __name__ == "__main__":
    raise SystemExit(main())
