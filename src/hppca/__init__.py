"""Heteroscedastic probabilistic PCA via a generalized power method.

Estimates a low-dimensional orthonormal frame from sample groups with
known, unequal noise variances. The estimation objective is a sum of
per-column quadratic forms over the Stiefel manifold; the solver
alternates the column-wise linear map with a polar projection back onto
the manifold and certifies its fixed points. Diagnostics estimate the
growth and error-bound constants empirically and check the spectral
initialization against its eigengap bound.
"""

from .linalg import (PowerIterationError, RngStream, ThinSvd, operator_norm,
                     random_gaussian, random_uniform_sym, sym_eig_topk, thin_svd)
from .stiefel import (StiefelPoint, frame_distance, project_stiefel, random_stiefel,
                      sign_align, sin_theta_distance)
from .model import (GroupedDataset, NoiseGroups, NoiseKind, SignalModel, draw_noise,
                    expected_covariance, expected_group_covariance, load_dataset,
                    sample_covariance, sample_dataset, save_dataset)
from .problem import (HppcaProblem, PopulationProblem, ResidualSet, WeightTable,
                      build_problem, build_residuals, build_weights, gpm_map,
                      riemannian_gradient)
from .solver import (SolveResult, SolverConfig, Termination, fixed_point_gap,
                     fixed_point_residual, gpm_solve, gpm_step, pca_init,
                     read_trace_csv, trace_csv, write_trace_csv)
from .diagnostics import (DavisKahanCheck, DiagnosticsReport, RatioSamples,
                          critical_point, davis_kahan_check, error_bound_samples,
                          estimate_error_bound_factor, estimate_quadratic_growth,
                          growth_ratio_samples, optimum_distance_bound,
                          orthogonal_completion, residual_norms, run_diagnostics,
                          sample_near)
from .experiments import (ExperimentSpec, count_trend_violations, fitted_rate,
                          iterations_to_reach, moving_average, run_convergence,
                          run_diagnose, run_robustness, sweep_variances)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
