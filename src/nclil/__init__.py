"""Desk-scale numerical laboratory for iterated-logarithm bounds on
matrix-valued martingales.

The package builds finite matrix probability spaces with a normalized
trace, runs adapted martingales through three filtration models, checks
the supporting inequalities (exponential moment, column maximal norm,
dual projection sum, constructive Chebyshev), and re-executes the block
decomposition argument behind the almost-uniform iterated-logarithm
bound, next to a classical scalar calibration run.
"""

from .errors import (ConfigError, HypothesisViolation,
                     InsufficientHorizonError, NclilError, ShapeError)
from .filtration import (AlgebraModel, CEAxiomReport, conditional_expectation,
                         random_full_element, random_level_element,
                         verify_ce_axioms)
from .inequalities import (BlockBound, ChebyshevResult, ColumnNormBounds,
                           DoobCheck, DualDoobCheck, ExpIneqParams,
                           ExpMomentResult, ProbcResult, ScalarBoundResult,
                           block_tail_bound, chebyshev_bound,
                           column_maximal_norm_bounds, doob_consequence_check,
                           dual_doob_check, exp_moment_sides, probc_upper,
                           scalar_power_exp_bound)
from .lil import (BaselineConfig, BaselineReport, BlockRow, LILParameters,
                  LILRunConfig, SemicircleConfig, TailReport, TrendReport,
                  ks_distance, run_lil_experiment, scalar_kolmogorov_baseline,
                  semicircle_cdf, semicircular_demo)
from .martingales import (MartingalePath, StoppingRule, bracket_norms,
                          gen_diagonal_martingale, gen_model_martingale,
                          gen_tensor_martingale, gue_matrix, iterlog,
                          iterlog_seq, sample_step_increments,
                          stopping_indices, validate_differences)
from .operators import (Operator, Projection, SpectralDecomposition,
                        apply_function, eigenvalues, lp_norm,
                        min_eigenvalue, normalized_trace, psd_sqrt,
                        real_statistic, singular_values,
                        spectral_decomposition, spectral_projection,
                        symmetrize)
from .rng import stream_rng
from .verify import (SweepResult, sweep_ce, sweep_chebyshev, sweep_doob,
                     sweep_dual_doob, sweep_expineq, sweep_scalar_bound,
                     write_rows_csv)

__version__ = "0.1.0"

__all__ = [
    "AlgebraModel", "BaselineConfig", "BaselineReport",
    "BlockBound", "BlockRow", "CEAxiomReport", "ChebyshevResult",
    "ColumnNormBounds", "ConfigError", "DoobCheck",
    "DualDoobCheck", "ExpIneqParams", "ExpMomentResult",
    "HypothesisViolation", "InsufficientHorizonError", "LILParameters",
    "LILRunConfig", "MartingalePath", "NclilError", "Operator",
    "ProbcResult", "Projection", "ScalarBoundResult",
    "SemicircleConfig", "ShapeError", "SpectralDecomposition",
    "StoppingRule", "SweepResult", "TailReport", "TrendReport",
    "apply_function", "block_tail_bound", "bracket_norms",
    "chebyshev_bound", "column_maximal_norm_bounds",
    "conditional_expectation",
    "doob_consequence_check", "dual_doob_check",
    "eigenvalues", "exp_moment_sides", "gen_diagonal_martingale",
    "gen_model_martingale", "gen_tensor_martingale", "gue_matrix",
    "iterlog", "iterlog_seq", "ks_distance",
    "lp_norm", "min_eigenvalue", "normalized_trace",
    "probc_upper", "psd_sqrt", "random_full_element",
    "random_level_element", "real_statistic", "run_lil_experiment",
    "sample_step_increments", "scalar_kolmogorov_baseline",
    "scalar_power_exp_bound", "semicircle_cdf", "semicircular_demo",
    "singular_values", "spectral_decomposition",
    "spectral_projection", "stopping_indices", "stream_rng", "symmetrize",
    "validate_differences", "verify_ce_axioms", "write_rows_csv",
]
