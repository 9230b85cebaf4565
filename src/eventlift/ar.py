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
    "CounterfactualPanel",
    "TreatmentEffectEstimate",
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


@dataclass
class CounterfactualPanel:
    """Recursive no-event forecasts for each series over an event window.

    ``values[i, k]`` holds the forecast for series i at time t0+1+k; column
    k+1 equals phi_hat times column k by construction.
    """

    values: np.ndarray
    window: EventWindow
    phi_hat: float


@dataclass
class TreatmentEffectEstimate:
    """Per-period effect estimates over a window.

    ``covariance`` is the variance of the estimate itself (already scaled
    by 1/N); it is None until filled by the covariance path.  The neural
    extraction path leaves it None permanently.
    """

    window: EventWindow
    delta_hat: np.ndarray
    n_series: int
    covariance: np.ndarray | None = None
    variance_mode: str | None = None

    def __post_init__(self):
        self.delta_hat = np.asarray(self.delta_hat, dtype=float)
        if self.delta_hat.shape != (self.window.d,):
            raise ValidationError(
                f"delta_hat length {self.delta_hat.size} != window size {self.window.d}"
            )
        if self.covariance is not None:
            cov = np.asarray(self.covariance, dtype=float)
            d = self.window.d
            if cov.shape != (d, d):
                raise ValidationError(f"covariance must be {d}x{d}, got {cov.shape}")
            if not np.allclose(cov, cov.T):
                raise ValidationError("covariance must be symmetric")
            if np.any(np.diag(cov) < 0):
                raise ValidationError("covariance diagonal must be >= 0")
            self.covariance = cov


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
) -> CounterfactualPanel:
    """Iterate the fitted recursion through the window from the t0 anchor.

    Starting from the observed column at t0, each forecast column is
    phi_hat times the previous one, so values[i, k] = phi_hat^(k+1) * Y[i, t0].
    """
    window.check_fits(panel.horizon)
    values = np.empty((panel.n_series, window.d), dtype=float)
    col = panel.values[:, window.t0]
    for k in range(window.d):
        col = fit.phi_hat * col
        values[:, k] = col
    return CounterfactualPanel(values=values, window=window, phi_hat=fit.phi_hat)


def estimate_effect(
    panel: PanelSeries, cf: CounterfactualPanel, window: EventWindow
) -> TreatmentEffectEstimate:
    """Cross-series mean of observed minus counterfactual at each window step."""
    if cf.window != window:
        raise ValidationError(f"counterfactual window {cf.window} != requested {window}")
    window.check_fits(panel.horizon)
    if cf.values.shape != (panel.n_series, window.d):
        raise ValidationError(
            f"counterfactual shape {cf.values.shape} does not match panel "
            f"({panel.n_series} series, window size {window.d})"
        )
    observed = panel.values[:, window.t0 + 1 : window.t0 + 1 + window.d]
    delta_hat = (observed - cf.values).mean(axis=0)
    return TreatmentEffectEstimate(
        window=window, delta_hat=delta_hat, n_series=panel.n_series
    )


def ar1_error_covariance(phi: float, sigma2: float, d: int) -> np.ndarray:
    """Covariance of the recursive forecast errors at window depths 1..d.

    Entry (k, l), 0-based, is sigma2 * phi^|k-l| * sum_{j=0..min(k,l)} phi^(2j),
    from the moving-average expansion of the forecast error.  The diagonal is
    the finite-horizon variance; the off-diagonals do not vanish.
    """
    partial = np.cumsum(phi ** (2.0 * np.arange(d)))
    # lag powers by Python ** on purpose: np.power rounds some lags differently
    lag_powers = np.array([phi**j for j in range(d)])
    k = np.arange(d)
    lags = np.abs(np.subtract.outer(k, k))
    return sigma2 * lag_powers[lags] * partial[np.minimum.outer(k, k)]


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
    estimate: TreatmentEffectEstimate,
    covariance: np.ndarray,
    level: float = 0.95,
) -> list[tuple[float, float]]:
    """Symmetric Gaussian intervals delta_hat[k] +/- z * sqrt(cov[k,k])."""
    if not (0.0 < level < 1.0):
        raise ValidationError(f"level must be in (0, 1), got {level}")
    cov = np.asarray(covariance, dtype=float)
    d = estimate.window.d
    if cov.shape != (d, d):
        raise ValidationError(f"covariance must be {d}x{d}, got {cov.shape}")
    variances = np.diag(cov)
    if np.any(variances < 0):
        raise ValidationError("covariance diagonal must be >= 0")
    z = float(ndtri((1.0 + level) / 2.0))
    half = z * np.sqrt(variances)
    return [
        (float(m - h), float(m + h)) for m, h in zip(estimate.delta_hat, half)
    ]
