"""AR(1) counterfactual estimator: OLS fit, recursive forecast, effects, CIs.

The autoregressive coefficient is estimated by pooled OLS over every
consecutive pre-event pair across series,

    phi_hat = sum_{i,t} Y[i,t-1] * Y[i,t] / sum_{i,t} Y[i,t-1]^2,   t = 1..t0,

and the innovation variance by the mean squared residual over the same
pairs.  Counterfactuals are forecast recursively from the last pre-event
observation, and per-period effects are observed-minus-counterfactual
cross-series means; on one series, ``recursive_control`` gives the control.
Uncertainty comes in two flavors: the large-N limit variance sigma^2 /
(1 - phi^2) per component, and the exact finite-horizon variance sigma^2 *
(1 - phi^(2k)) / (1 - phi^2) at window depth k, which grows toward the
limit value.

The intervals' normal quantile comes from ``_normal_quantile``, a port of
``ndtri`` from Moshier's Cephes Mathematical Library (1989), the routine
scipy ships as ``scipy.special.ndtri``.  It returns the same bits, so the
package needs no scipy at run time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .panel import EventWindow, PanelSeries

__all__ = [
    "ARModelFit",
    "fit_ar1_ols",
    "forecast_counterfactual",
    "recursive_control",
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


def recursive_control(series: np.ndarray, windows) -> np.ndarray:
    """The (T,) AR(1) control of one series: its recursive forecast on each window.

    Each window gets its own fit on the series up to that window's t0, and
    the forecast iterated from the t0 anchor.  A window that runs past the
    series end is cut there; every index outside the windows is NaN.  No
    value after a window's t0 enters its forecast.
    """
    x = np.asarray(series, dtype=float)
    if x.ndim != 1:
        raise ValidationError("recursive_control expects a single 1-D series")
    control = np.full(len(x), np.nan)
    for w in windows:
        history = PanelSeries(x[None, : w.t0 + 1])
        fit = fit_ar1_ols(history, w.t0)
        control[w.columns] = forecast_counterfactual(fit, history, w)[0, : len(x) - w.t0 - 1]
    return control


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


# Cephes ndtri coefficients, highest power first.  Central branch, for
# |p - 1/2| <= 1/2 - exp(-2):
_P0 = (
    -5.99633501014107895267e1,
    9.80010754185999661536e1,
    -5.66762857469070293439e1,
    1.39312609387279679503e1,
    -1.23916583867381258016e0,
)
_Q0 = (
    1.0,
    1.95448858338141759834e0,
    4.67627912898881538453e0,
    8.63602421390890590575e1,
    -2.25462687854119370527e2,
    2.00260212380060660359e2,
    -8.20372256168333339912e1,
    1.59056225126211695515e1,
    -1.18331621121330003142e0,
)
# tail branch for x = sqrt(-2 log p) in [2, 8), i.e. p down to exp(-32):
_P1 = (
    4.05544892305962419923e0,
    3.15251094599893866154e1,
    5.71628192246421288162e1,
    4.40805073893200834700e1,
    1.46849561928858024014e1,
    2.18663306850790267539e0,
    -1.40256079171354495875e-1,
    -3.50424626827848203418e-2,
    -8.57456785154685413611e-4,
)
_Q1 = (
    1.0,
    1.57799883256466749731e1,
    4.53907635128879210584e1,
    4.13172038254672030440e1,
    1.50425385692907503408e1,
    2.50464946208309415979e0,
    -1.42182922854787788574e-1,
    -3.80806407691578277194e-2,
    -9.33259480895457427372e-4,
)
# deep tail, x >= 8:
_P2 = (
    3.23774891776946035970e0,
    6.91522889068984211695e0,
    3.93881025292474443415e0,
    1.33303460815807542389e0,
    2.01485389549179081538e-1,
    1.23716634817820021358e-2,
    3.01581553508235416007e-4,
    2.65806974686737550832e-6,
    6.23974539184983293730e-9,
)
_Q2 = (
    1.0,
    6.02427039364742014255e0,
    3.67983563856160859403e0,
    1.37702099489081330271e0,
    2.16236993594496635890e-1,
    1.34204006088543189037e-2,
    3.28014464682127739104e-4,
    2.89247864745380683936e-6,
    6.79019408009981274425e-9,
)
_EXP_M2 = 0.13533528323661269189  # exp(-2)
_SQRT_2PI = 2.50662827463100050242


def _polevl(x: float, coef: tuple[float, ...]) -> float:
    """coef[0] * x^n + ... + coef[n], in Horner order.

    A leading coefficient of 1.0 gives Cephes ``p1evl``'s bits: 1.0 * x is x.
    """
    ans = coef[0]
    for c in coef[1:]:
        ans = ans * x + c
    return ans


def _normal_quantile(p: float) -> float:
    """Standard normal quantile, a port of Cephes ``ndtri`` (scipy's bits).

    Returns -inf at 0, inf at 1 and NaN outside [0, 1].  A rational
    approximation in p - 1/2 covers the centre; the tails use rational
    functions of 1/x, x = sqrt(-2 log p), one for x < 8 and one beyond.
    """
    if p == 0.0:
        return -math.inf
    if p == 1.0:
        return math.inf
    if not 0.0 < p < 1.0:
        return math.nan
    upper = p > 1.0 - _EXP_M2
    y = 1.0 - p if upper else p
    if y > _EXP_M2:
        y = y - 0.5
        y2 = y * y
        x = y + y * (y2 * _polevl(y2, _P0) / _polevl(y2, _Q0))
        return x * _SQRT_2PI
    x = math.sqrt(-2.0 * math.log(y))
    x0 = x - math.log(x) / x
    z = 1.0 / x
    if x < 8.0:
        x1 = z * _polevl(z, _P1) / _polevl(z, _Q1)
    else:
        x1 = z * _polevl(z, _P2) / _polevl(z, _Q2)
    x = x0 - x1
    return x if upper else -x


def confidence_intervals(
    delta_hat: np.ndarray,
    covariance: np.ndarray,
    level: float = 0.95,
) -> list[tuple[float, float]]:
    """Symmetric Gaussian intervals delta_hat[k] +/- z * sqrt(cov[k,k]).

    ``delta_hat`` is the (d,) effect and ``covariance`` its (d, d) covariance.
    z is the normal quantile at (1 + level) / 2 from ``_normal_quantile``,
    bit for bit ``scipy.special.ndtri``.
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
    z = _normal_quantile((1.0 + level) / 2.0)
    half = z * np.sqrt(variances)
    return [(float(m - h), float(m + h)) for m, h in zip(delta_hat, half)]
