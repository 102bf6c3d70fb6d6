"""Model adequacy diagnostics.

Two families: a binned semivariogram comparing empirical residual
dependence against the fitted correlation model, and held-out
validation checks (standardized errors, pivoted decorrelated errors,
and a Mahalanobis statistic referenced to an F distribution), all read
off one predictive distribution by :func:`validation_report`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import special

from .covariance import pair_lags, smooth_correlation
from .dataio import EventDataset
from .inference import ModelFit
from .numerics import pivoted_cholesky
from .prediction import predictive_measurements

BIN_VARIABLES = ("h1", "h2", "delta_intensity")


class EmptyBin(Exception):
    """A semivariogram bin received no pairs; reduce the bin count."""


@dataclass(frozen=True)
class VariogramTable:
    """Binned empirical vs model semivariances with Monte Carlo bounds."""

    binning_variable: str
    bin_edges: np.ndarray
    bin_center: np.ndarray
    empirical: np.ndarray
    model: np.ndarray
    lower95: np.ndarray
    upper95: np.ndarray
    counts: np.ndarray

    def __post_init__(self):
        nb = len(self.empirical)
        if not (len(self.model) == len(self.lower95) == len(self.upper95)
                == len(self.counts) == len(self.bin_center) == nb):
            raise ValueError("variogram columns must share one length")
        if len(self.bin_edges) != nb + 1:
            raise ValueError("bin_edges must have bins+1 entries")
        if np.any(self.counts < 1):
            raise ValueError("every bin must contain at least one pair")
        if (np.any(self.lower95 > self.model)
                or np.any(self.model > self.upper95)):
            raise ValueError("bounds must bracket the model column")

    @property
    def bins(self) -> int:
        return len(self.empirical)

    def fraction_inside(self) -> float:
        """Share of empirical bins falling inside the 95% bounds."""
        ok = (self.empirical >= self.lower95) & (self.empirical <= self.upper95)
        return float(np.mean(ok))


def _bin_assignment(v: np.ndarray, bins: int):
    edges = np.quantile(v, np.linspace(0.0, 1.0, bins + 1))
    idx = np.clip(np.searchsorted(edges, v, side="right") - 1, 0, bins - 1)
    counts = np.bincount(idx, minlength=bins)
    if np.any(counts == 0):
        raise EmptyBin(
            f"{int(np.sum(counts == 0))} of {bins} bins received no pairs; reduce bins")
    return edges, idx, counts


def _bin_means(values: np.ndarray, idx: np.ndarray, bins: int,
               counts: np.ndarray) -> np.ndarray:
    return np.bincount(idx, weights=values, minlength=bins) / counts


def semivariogram(fit: ModelFit, event: str, variable: str, bins: int,
                  reps: int = 200, seed: int = 0) -> VariogramTable:
    """Equal-count binned semivariogram of one fitted event's regression
    residuals.

    Pairs are formed within the event only and binned on ``variable``
    (rotated-axis separation h1/h2 or intensity gap). The model column
    averages sigma_hat2 * (1 + lambda2 - c) over each bin's pairs; the
    95% bounds come from ``reps`` parametric simulations of the residual
    field under the fitted model, re-binned identically.
    """
    if bins < 3:
        raise ValueError("bins must be >= 3")
    if reps < 1:
        raise ValueError("reps must be >= 1")
    ef = fit.event(event)
    theta = fit.theta
    columns = {"h1": ef.locations_rot[:, 0], "h2": ef.locations_rot[:, 1],
               "delta_intensity": ef.x}
    if variable not in columns:
        raise ValueError(f"binning variable must be one of {BIN_VARIABLES}")
    v = pair_lags(columns[variable])
    edges, idx, counts = _bin_assignment(v, bins)
    e = ef.y - ef.H @ ef.beta_hat
    emp_pairs = 0.5 * pair_lags(e) ** 2
    # every pair's smooth correlation, in the same condensed order as v
    smooth = smooth_correlation(theta, ef.locations_rot, ef.x)
    model_pairs = ef.sigma_hat2 * (1.0 + theta.lambda2 - smooth)

    empirical = _bin_means(emp_pairs, idx, bins, counts)
    model = _bin_means(model_pairs, idx, bins, counts)
    center = _bin_means(v, idx, bins, counts)

    # parametric MC: residual fields drawn from the fitted marginal model
    lower_factor = ef.A_factor.lower * np.sqrt(ef.sigma_hat2)
    rng = np.random.default_rng(seed)
    sims = np.empty((reps, bins))
    for r in range(reps):
        e_star = lower_factor @ rng.standard_normal(ef.K)
        sims[r] = _bin_means(0.5 * pair_lags(e_star) ** 2,
                             idx, bins, counts)
    lower = np.quantile(sims, 0.025, axis=0)
    upper = np.quantile(sims, 0.975, axis=0)
    # MC quantiles should straddle the model mean; clamp the rare
    # finite-rep excursions so the table contract always holds
    lower = np.minimum(lower, model)
    upper = np.maximum(upper, model)

    return VariogramTable(binning_variable=variable, bin_edges=edges,
                          bin_center=center, empirical=empirical, model=model,
                          lower95=lower, upper95=upper, counts=counts)


@dataclass(frozen=True)
class ValidationReport:
    """Bundle of the held-out validation diagnostics for one event."""

    mean: np.ndarray               # predictive mean at the holdout
    standardized_errors: np.ndarray
    pivoted_errors: np.ndarray
    pivot_indices: np.ndarray
    qq_pairs: np.ndarray           # (n, 2): theoretical, observed
    mahalanobis: float
    mahalanobis_raw: float         # unscaled sum of squared standardized errors
    mahalanobis_pvalue: float
    df_pair: tuple

    def __post_init__(self):
        n = len(self.standardized_errors)
        if not (len(self.mean) == len(self.pivoted_errors)
                == len(self.pivot_indices) == len(self.qq_pairs) == n):
            raise ValueError("report vectors must share the holdout length")
        if not 0.0 <= self.mahalanobis_pvalue <= 1.0:
            raise ValueError("p-value must lie in [0, 1]")


def validation_report(fit: ModelFit,
                      validation: EventDataset) -> ValidationReport:
    """Held-out diagnostics from one predictive distribution of the holdout,
    conditioned on the fit's update of the holdout's event.

    With r = Y - m and V the joint predictive covariance of the held-out
    measurements:

    - standardized errors r / sd, each marginally standard normal, so
      about 5% fall outside +/-1.96;
    - pivoted errors e solving G e = r, with G G^T = V from the pivoted
      Cholesky factor, in pivot order (``pivot_indices[k]`` is the
      holdout row of the k-th error); jointly standard normal;
    - the Mahalanobis statistic D = r^T V^{-1} r / n = ||e||^2 / n,
      referenced to F(n, K - q) for its upper-tail p-value.

    Any n >= 1 works: at n = 1 the pivoted error is the standardized
    error and F(1, K - q) is the squared t test.
    """
    df2 = fit.event(validation.event).K - fit.prior.q
    pf = predictive_measurements(fit, validation.event,
                                 (validation.locations, validation.x),
                                 full_cov=True)
    resid = validation.y - pf.mean
    std = resid / pf.sd
    factor = pivoted_cholesky(pf.covariance)
    epc = factor.decorrelate(resid)
    n = len(resid)
    d_mh = float(epc @ epc) / n
    theo = special.ndtri((np.arange(1, n + 1) - 0.5) / n)
    # the F(n, df2) upper tail in the complementary form, accurate far out
    p = float(special.betainc(0.5 * df2, 0.5 * n, df2 / (n * d_mh + df2)))
    return ValidationReport(mean=pf.mean, standardized_errors=std,
                            pivoted_errors=epc,
                            pivot_indices=factor.permutation,
                            qq_pairs=np.column_stack([theo, np.sort(epc)]),
                            mahalanobis=d_mh,
                            mahalanobis_raw=float(np.sum(std ** 2)),
                            mahalanobis_pvalue=p,
                            df_pair=(n, df2))

