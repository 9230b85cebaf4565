"""AR(1) counterfactual estimator: OLS fit, recursive forecast, effects, CIs.

The autoregressive coefficient is estimated by pooled OLS over every
consecutive pre-event pair across series,

    phi_hat = sum_{i,t} Y[i,t-1] * Y[i,t] / sum_{i,t} Y[i,t-1]^2,   t = 1..t0,

and the innovation variance by the mean squared residual over the same
pairs.  Counterfactuals are forecast recursively from the last pre-event
observation, and per-period effects are observed-minus-counterfactual
cross-series means.  Uncertainty comes in two flavors: the large-N
limit variance sigma^2 / (1 - phi^2) per component, and the exact
finite-horizon variance sigma^2 * (1 - phi^(2k)) / (1 - phi^2) at window
depth k, which grows toward the limit value.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import ndtri

from .errors import ValidationError
from .panel import EventWindow, PanelSeries

__all__ = [
    "ARModelFit",
    "fit_ar1_ols",
    "forecast_counterfactual",
    "estimate_effect",
    "ar1_error_covariance",
    "effect_covariance",
    "confidence_intervals",
]


@dataclass(frozen=True)
class ARModelFit:
    """OLS estimate of the AR(1) coefficient and residual variance."""

    phi_hat: float
    sigma2_hat: float
    n_pairs: int

    def __post_init__(self):
        if self.n_pairs < 1:
            raise ValidationError(f"n_pairs must be >= 1, got {self.n_pairs}")
        if not np.isfinite(self.phi_hat):
            raise ValidationError("phi_hat must be finite")
        if not np.isfinite(self.sigma2_hat) or self.sigma2_hat < 0.0:
            raise ValidationError(f"sigma2_hat must be >= 0, got {self.sigma2_hat}")


def fit_ar1_ols(panel: PanelSeries, t0: int) -> ARModelFit:
    """Pooled OLS fit of the AR(1) coefficient from pre-event data.

    Uses every consecutive pair (Y[i,t-1], Y[i,t]) with t = 1..t0, giving
    N*t0 pairs.  Residual variance is the mean squared residual over the
    same pairs, with no degrees-of-freedom correction.

    Raises
    ------
    ValidationError
        If t0 is out of range or the pre-event data are identically zero
        (the OLS ratio would be 0/0).
    """
    if t0 < 1 or t0 > panel.horizon:
        raise ValidationError(f"t0 must be in [1, {panel.horizon}], got {t0}")
    prev = panel.values[:, :t0]
    curr = panel.values[:, 1 : t0 + 1]
    # one (N, t0) scratch buffer holds prev^2, then prev*curr, then the residuals
    buf = np.multiply(prev, prev)
    denom = float(np.sum(buf))
    if denom == 0.0:
        raise ValidationError(
            "pre-event data are identically zero; the OLS denominator is degenerate"
        )
    phi_hat = float(np.sum(np.multiply(prev, curr, out=buf))) / denom
    np.multiply(prev, phi_hat, out=buf)
    np.subtract(curr, buf, out=buf)
    sigma2_hat = float(np.mean(np.multiply(buf, buf, out=buf)))
    return ARModelFit(phi_hat=phi_hat, sigma2_hat=sigma2_hat, n_pairs=prev.size)


def forecast_counterfactual(
    fit: ARModelFit, panel: PanelSeries, window: EventWindow
) -> np.ndarray:
    """Iterate the fitted recursion through the window from the t0 anchor.

    Returns the (N, d) forecasts values[i, k] = phi_hat^(k+1) * Y[i, t0], each
    column phi_hat times the previous one.  Only the anchor column t0 is read.
    """
    if window.t0 > panel.horizon:
        raise ValidationError(f"window t0={window.t0} must be in [1, {panel.horizon}]")
    values = np.empty((panel.n_series, window.d), dtype=float)
    col = panel.values[:, window.t0]
    with np.errstate(over="ignore"):
        for k in range(window.d):
            col = fit.phi_hat * col
            values[:, k] = col
    if not np.all(np.isfinite(values)):
        raise ValidationError(
            f"counterfactual forecast overflows at phi_hat={fit.phi_hat}, d={window.d}"
        )
    return values


def estimate_effect(
    observed: np.ndarray, counterfactual: np.ndarray, window: EventWindow
) -> np.ndarray:
    """Cross-series mean of observed minus counterfactual at each window step.

    ``observed`` is the (N, d) window block ``values[:, window.columns]`` of
    the treated panel and ``counterfactual`` the (N, d) forecasts for it.
    Returns the (d,) per-day effect delta_hat.
    """
    if observed.shape[1:] != (window.d,) or counterfactual.shape != observed.shape:
        raise ValidationError(
            f"observed block {observed.shape} and counterfactual {counterfactual.shape} "
            f"must both be (N, {window.d}) for the window size"
        )
    return (observed - counterfactual).mean(axis=0)


def ar1_error_covariance(phi: float, sigma2: float, d: int) -> np.ndarray:
    """Covariance of the recursive forecast errors at window depths 1..d.

    Entry (k, l), 0-based, is sigma2 * phi^|k-l| * sum_{j=0..min(k,l)} phi^(2j),
    from the moving-average expansion of the forecast error.  The diagonal is
    the finite-horizon variance; the off-diagonals do not vanish.
    """
    k = np.arange(d)
    lags = np.abs(np.subtract.outer(k, k))
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            # lag powers by Python ** on purpose: np.power rounds some lags differently
            lag_powers = np.array([phi**j for j in range(d)])
            partial = np.cumsum(phi ** (2.0 * k))
            cov = sigma2 * lag_powers[lags] * partial[np.minimum.outer(k, k)]
    except OverflowError:
        cov = np.array(np.inf)
    if not np.all(np.isfinite(cov)):
        raise ValidationError(f"AR(1) error covariance overflows at phi={phi}, d={d}")
    return cov


def effect_covariance(
    fit: ARModelFit, window: EventWindow, n_series: int, mode: str = "finite_horizon"
) -> np.ndarray:
    """Covariance of the effect estimate under the fitted AR(1) model.

    ``asymptotic_diagonal`` puts sigma2_hat / ((1 - phi_hat^2) * N) on every
    diagonal entry and zeros elsewhere.  ``finite_horizon`` returns
    ``ar1_error_covariance`` / N: its diagonal is the depth-dependent variance
    sigma2_hat * sum_{j=0..k} phi_hat^(2j) / N at window step k, which is
    smaller at shallow depths and converges upward to the asymptotic value,
    and its off-diagonals carry the cross-step covariance of the errors.
    """
    if n_series < 1:
        raise ValidationError(f"n_series must be >= 1, got {n_series}")
    if mode == "asymptotic_diagonal":
        if abs(fit.phi_hat) >= 1.0:
            raise ValidationError(
                f"asymptotic variance undefined for nonstationary fit |phi_hat|={abs(fit.phi_hat)} >= 1"
            )
        var = fit.sigma2_hat / ((1.0 - fit.phi_hat**2) * n_series)
        return np.diag(np.full(window.d, var))
    if mode == "finite_horizon":
        return ar1_error_covariance(fit.phi_hat, fit.sigma2_hat, window.d) / n_series
    raise ValidationError(
        f"mode must be 'asymptotic_diagonal' or 'finite_horizon', got {mode!r}"
    )


def confidence_intervals(
    delta_hat: np.ndarray,
    covariance: np.ndarray,
    level: float = 0.95,
) -> list[tuple[float, float]]:
    """Symmetric Gaussian intervals delta_hat[k] +/- z * sqrt(cov[k,k]).

    ``delta_hat`` is the (d,) effect and ``covariance`` its (d, d) covariance.
    """
    if not (0.0 < level < 1.0):
        raise ValidationError(f"level must be in (0, 1), got {level}")
    cov = np.asarray(covariance, dtype=float)
    d = len(delta_hat)
    if cov.shape != (d, d):
        raise ValidationError(f"covariance must be {d}x{d}, got {cov.shape}")
    variances = np.diag(cov)
    if np.any(variances < 0):
        raise ValidationError("covariance diagonal must be >= 0")
    z = float(ndtri((1.0 + level) / 2.0))
    half = z * np.sqrt(variances)
    return [(float(m - h), float(m + h)) for m, h in zip(delta_hat, half)]
