"""Optimal fraction of frame energy spent on the pilot.

The effective SNR is maximized in rho by a closed form that depends
only on the link constants, not on the QoS exponent or the rate. The
closed form is the production path; the golden-section maximizer below
exists as an independent cross-check.
"""

import math
from dataclasses import dataclass

from ._scalar import golden_max
from .errors import DomainError, as_real
from .link_model import LinkConfig, effective_snr, nominal_snr

__all__ = ["TrainingSolution", "rho_opt_closed_form", "rho_opt_numeric"]


@dataclass(frozen=True)
class TrainingSolution:
    """rho_opt = sqrt(eta (eta + 1)) - eta, with eta from the link constants."""

    rho_opt: float
    eta: float
    snr_eff_opt: float


def rho_opt_closed_form(cfg: LinkConfig) -> TrainingSolution:
    """Training fraction that maximizes the effective SNR.

    eta = (gamma TB SNR + TB - 1) / (gamma TB (TB - 2) SNR), and
    rho_opt = sqrt(eta (eta + 1)) - eta, always inside (0, 1). As SNR
    shrinks eta grows without bound and rho_opt tends to 1/2; as SNR
    grows eta tends to 1/(TB - 2).
    """
    tb = cfg.symbols_per_frame
    rho, eta = _rho_opt(tb, cfg.fading_variance * tb * nominal_snr(cfg))
    return TrainingSolution(
        rho_opt=rho,
        eta=eta,
        snr_eff_opt=effective_snr(cfg, rho).effective_snr,
    )


def _rho_opt(tb: float, gts: float) -> tuple[float, float]:
    """(rho_opt, eta) on floats, with gts = gamma TB SNR.

    Raises DomainError when gts is so small (zero or subnormal) or so
    large that eta is not a finite positive number.
    """
    den = gts * (tb - 2.0)
    eta = (gts + tb - 1.0) / den if den > 0.0 else math.inf
    if not eta < math.inf:
        raise DomainError(
            f"gamma T B SNR = {gts!r} leaves no finite optimal training fraction"
        )
    # sqrt(eta (eta + 1)) - eta cancels badly for large eta; the
    # expm1/log1p form eta (sqrt(1 + 1/eta) - 1) is exact in both regimes
    return eta * math.expm1(0.5 * math.log1p(1.0 / eta)), eta


def rho_opt_numeric(cfg: LinkConfig, xtol: float = 1e-10) -> float:
    """Training fraction found by derivative-free search on [0, 1].

    A 64-point coarse scan brackets the maximizer, golden-section
    search shrinks the bracket, and a few rounds of parabolic-vertex
    refinement pull the estimate below xtol even where the objective
    is too flat for comparison-based search alone. Endpoints are never
    returned since the effective SNR vanishes there.
    """
    xtol = as_real("xtol", xtol)
    if not 0.0 < xtol < 1.0:
        raise DomainError(f"xtol must lie in (0, 1), got {xtol!r}")

    def objective(rho: float) -> float:
        return effective_snr(cfg, rho).effective_snr

    n = 64
    values = [objective(k / (n - 1)) for k in range(n)]
    best = max(range(n), key=values.__getitem__)
    lo = max(best - 1, 0) / (n - 1)
    hi = min(best + 1, n - 1) / (n - 1)
    x = golden_max(objective, lo, hi, max(xtol, 1e-8))
    # comparison search stalls once the quadratic dip around the
    # maximum falls under float rounding; the vertex of a parabola fit
    # through three samples averages that noise away instead
    h = 1e-3
    for _ in range(4):
        xm, xp = max(x - h, lo), min(x + h, hi)
        fm, f0, fp = objective(xm), objective(x), objective(xp)
        denom = (fm - f0) * (xp - x) - (fp - f0) * (xm - x)
        if denom >= 0.0:  # not concave at this scale, stop polishing
            break
        num = (fm - f0) * (xp - x) ** 2 - (fp - f0) * (xm - x) ** 2
        step = 0.5 * num / denom
        x = min(max(x + step, lo), hi)
        h /= 8.0
    return x
