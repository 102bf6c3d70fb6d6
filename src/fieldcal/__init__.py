"""Posterior estimation of actual spatial fields from station
measurements and gridded simulator output."""

__version__ = "1.0.0"

from .covariance import (Hyperparameters, correlation_block,
                         correlation_matrix_arrays, rotate_array,
                         smooth_correlation)
from .dataio import (EventDataset, GridField, StationSet, load_grid,
                     load_stations, pair_and_threshold, rmse, save_grid)
from .diagnostics import (ValidationReport, VariogramTable, semivariogram,
                          validation_report)
from .inference import (EventFit, ModelFit, PriorSpec, default_prior,
                        event_statistics, fit, load_fit, log_posterior_theta,
                        save_fit)
from .numerics import (CholeskyFactor, OptimizerOptions,
                       PivotedCholeskyFactor, SearchResult, cholesky,
                       nelder_mead, pivoted_cholesky)
from .prediction import (PosteriorField, posterior_field, predict_grid,
                         predictive_measurements, sample_field)

__all__ = [
    "__version__",
    "Hyperparameters", "correlation_block", "correlation_matrix_arrays",
    "rotate_array", "smooth_correlation",
    "EventDataset", "GridField", "StationSet",
    "load_grid", "load_stations", "pair_and_threshold", "rmse", "save_grid",
    "ValidationReport", "VariogramTable", "semivariogram",
    "validation_report",
    "EventFit", "ModelFit", "PriorSpec", "default_prior",
    "event_statistics", "fit", "load_fit", "log_posterior_theta", "save_fit",
    "CholeskyFactor", "OptimizerOptions", "PivotedCholeskyFactor",
    "SearchResult", "cholesky", "nelder_mead", "pivoted_cholesky",
    "PosteriorField", "posterior_field", "predict_grid",
    "predictive_measurements", "sample_field",
]
