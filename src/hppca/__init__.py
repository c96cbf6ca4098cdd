"""Heteroscedastic probabilistic PCA via a generalized power method.

Estimates a low-dimensional orthonormal frame from sample groups with
known, unequal noise variances. The estimation objective is a sum of
per-column quadratic forms over the Stiefel manifold; the solver
alternates the column-wise linear map with a polar projection back onto
the manifold and certifies its fixed points. Diagnostics estimate the
growth and error-bound constants empirically and check the spectral
initialization against its eigengap bound.
"""

from types import ModuleType as _ModuleType

from .linalg import (RngStream, ThinSvd, operator_norm, random_gaussian, sym_eig_topk,
                     thin_svd)
from .stiefel import (StiefelPoint, frame_distance, project_stiefel, random_stiefel,
                      sin_theta_distance)
from .model import (GroupedDataset, NoiseGroups, NoiseKind, SignalModel, draw_noise,
                    expected_covariance, expected_group_covariance, load_dataset,
                    sample_covariance, sample_dataset, save_dataset)
from .problem import (HppcaProblem, PopulationProblem, WeightTable, build_problem,
                      build_residuals, build_weights, riemannian_gradient)
from .solver import (SolveResult, SolverConfig, Termination, fixed_point_residual,
                     gpm_solve, pca_init, trace_csv, write_trace_csv)
from .diagnostics import (DavisKahanCheck, DiagnosticsReport, RatioSamples,
                          critical_point, davis_kahan_check, error_bound_samples,
                          growth_ratio_samples, optimum_distance_bound,
                          orthogonal_completion, residual_norms, run_diagnostics)
from .experiments import (ExperimentSpec, count_trend_violations, fitted_rate,
                          iterations_to_reach, run_convergence, run_diagnose,
                          run_robustness, sweep_variances)

__version__ = "0.1.0"

# Every public name imported above; the submodules bound by those imports
# are not part of the API.
__all__ = [name for name, value in globals().items()
           if not name.startswith("_") and not isinstance(value, _ModuleType)]
