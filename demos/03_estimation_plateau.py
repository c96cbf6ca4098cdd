"""Finite-sample estimation: the error plateau and initialization quality.

Reproduces the reference experiment (n=1000, d=100, groups 200/800 with
variances 1 and 6, strengths 5/3.5/2): the distance to the ground truth
decreases geometrically until it plateaus at a level set by the sampling
residual, and the spectral start reaches that plateau far sooner than a
random one.
"""

from pathlib import Path

import numpy as np

from hppca import ExperimentSpec
from hppca.experiments import iterations_to_reach, run_convergence, svg_line_chart
from hppca.solver import write_trace_csv

spec = ExperimentSpec(seed=0)
print(f"setting: d={spec.d}, k={spec.k}, sizes={spec.sizes}, "
      f"variances={spec.variances}, alpha={spec.alpha}")

run = run_convergence(spec)
for label in ("pca", "random"):
    summary = run.summaries[label]
    print(f"\n{label} start:")
    print(f"  initial dist {summary.init_dist:.4f} -> final {summary.final_dist:.4f} "
          f"({summary.iterations} iterations, {summary.termination})")
    if summary.rate is not None:
        print(f"  fitted objective-gap decay rate {summary.rate:.4f}")

pca_dists = run.runs["pca"].trace.dist_to_truth
rand_dists = run.runs["random"].trace.dist_to_truth
threshold = 1.02 * max(pca_dists[-1], rand_dists[-1])
print(f"\niterations to reach the common plateau level {threshold:.4f}:")
print(f"  pca    {iterations_to_reach(pca_dists, threshold)}")
print(f"  random {iterations_to_reach(rand_dists, threshold)}")

out = Path("out")
out.mkdir(exist_ok=True)
for label, result in run.runs.items():
    write_trace_csv(result.trace, out / f"demo03_trace_{label}.csv")
chart = svg_line_chart(
    {"pca init": (np.arange(len(pca_dists)), pca_dists),
     "random init": (np.arange(len(rand_dists)), rand_dists)},
    title="distance to ground truth", x_label="iteration", y_label="dist")
(out / "demo03_plateau.svg").write_text(chart)
print(f"\ntraces and chart written under {out}/")
