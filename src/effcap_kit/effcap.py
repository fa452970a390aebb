"""Effective capacity of the single flat-fading ON-OFF link.

The service process alternates between r*T bits per frame (channel ON,
probability exp(-alpha)) and zero (outage). The effective capacity is
the largest constant arrival rate the queue can absorb while the tail
P(Q >= q) decays like exp(-theta q). Normalized by bandwidth it reads

    R_E = -(1 / (theta T B)) ln(1 - exp(-alpha) (1 - exp(-theta T r)))

in bits/s/Hz. This module maximizes R_E over the fixed rate r (and,
composed with the training module, over the pilot fraction rho), and
derives the bit-energy diagnostics from it.
"""

import math
from dataclasses import dataclass

from scipy.optimize import brentq

from ._scalar import golden_min
from .errors import ConvergenceError, DomainError, GridEndpointError
from .link_model import (
    LN2,
    LinkConfig,
    effective_snr,
    nominal_snr,
    outage_threshold,
    with_nominal_snr,
)
from .training import rho_opt_closed_form

__all__ = [
    "QosSpec",
    "EffCapResult",
    "effective_capacity_at",
    "optimal_rate",
    "effective_capacity_theta0",
    "spectral_efficiency",
    "bit_energy",
    "bit_energy_db",
    "min_bit_energy_numeric",
]

# |stationarity residual| demanded of the returned rate, in the
# equation's own units
RESIDUAL_TOL = 1e-12

_BRACKET_ITER_MAX = 200


@dataclass(frozen=True)
class QosSpec:
    """Queue-tail decay target. theta is in 1/bits; theta = 0 means an
    unconstrained (long-term average) queue and selects the limiting
    formula, never a 0/0 evaluation."""

    theta: float

    def __post_init__(self):
        try:
            theta = float(self.theta)
        except (TypeError, ValueError):
            raise DomainError("theta must be a real number") from None
        if not math.isfinite(theta) or theta < 0.0:
            raise DomainError(f"theta must be finite and >= 0, got {theta!r}")
        object.__setattr__(self, "theta", theta)


@dataclass(frozen=True)
class EffCapResult:
    """Outcome of a rate (or joint rate/training) optimization."""

    rate_opt_bps: float
    alpha_opt: float
    rho_used: float
    spectral_efficiency: float
    on_probability: float


def _zero_result(rho: float) -> EffCapResult:
    # no usable estimate: the channel is OFF with certainty
    return EffCapResult(
        rate_opt_bps=0.0,
        alpha_opt=math.inf,
        rho_used=rho,
        spectral_efficiency=0.0,
        on_probability=0.0,
    )


def effective_capacity_at(
    cfg: LinkConfig, qos: QosSpec, rate_bps: float, rho: float
) -> float:
    """R_E in bits/s/Hz at a fixed rate and training fraction (theta > 0)."""
    if qos.theta <= 0.0:
        raise DomainError(
            "effective_capacity_at needs theta > 0; use "
            "effective_capacity_theta0 for the unconstrained limit"
        )
    if rate_bps < 0.0:
        raise DomainError(f"rate_bps must be >= 0, got {rate_bps!r}")
    if rate_bps == 0.0:
        return 0.0
    snr_eff = effective_snr(cfg, rho).effective_snr
    if snr_eff <= 0.0:
        return 0.0
    alpha = outage_threshold(cfg, rate_bps, snr_eff)
    theta_t = qos.theta * cfg.frame_duration_s
    s = theta_t * rate_bps
    # 1 - p_on (1 - e^-s) as a sum of two positive terms, taken from alpha
    # directly: when p_on rounds to 1 the outage term alpha survives, and
    # once s exceeds about 37 it is the larger term
    rest = -math.expm1(-alpha) + math.exp(-alpha - s)
    if rest < 0.5:
        # both terms underflow only at alpha = 0, where rest = e^-s
        log_rest = math.log(rest) if rest > 0.0 else -s
    else:
        log_rest = math.log1p(math.exp(-alpha) * math.expm1(-s))
    return -log_rest / (theta_t * cfg.bandwidth_hz)


def _pow2(x: float) -> float:
    try:
        return math.exp(x * LN2)
    except OverflowError:
        return math.inf


def _stationarity_lhs(cfg: LinkConfig, theta: float, snr_eff: float):
    """LHS of the rate-optimality condition and its derivative in r.

    f(r) = (2^(T r / (TB-1)) T ln2 / ((TB-1) snr_eff)) (1 - e^(-theta T r))
           - theta T e^(-theta T r)

    f is continuous, equals -theta T at r = 0 and grows without bound,
    so it has exactly one sign change: the optimal rate.
    """
    tb = cfg.symbols_per_frame
    t = cfg.frame_duration_s
    a = t / (tb - 1.0)
    k = t * LN2 / ((tb - 1.0) * snr_eff)
    theta_t = theta * t

    def f(r: float) -> float:
        grow = -math.expm1(-theta_t * r)
        return k * _pow2(a * r) * grow - theta_t * math.exp(-theta_t * r)

    def fprime(r: float) -> float:
        e = math.exp(-theta_t * r)
        p2 = _pow2(a * r)
        return (
            k * a * LN2 * p2 * (1.0 - e)
            + k * p2 * theta_t * e
            + theta_t * theta_t * e
        )

    return f, fprime


def _bracket_root(f, start: float):
    """Expand [0, start] by doubling until f changes sign."""
    lo = 0.0
    hi = start
    fhi = f(hi)
    for _ in range(_BRACKET_ITER_MAX):
        if fhi >= 0.0:
            return lo, hi
        lo, hi = hi, 2.0 * hi
        fhi = f(hi)
    raise ConvergenceError("no sign change bracketed for the rate solve")


def optimal_rate(cfg: LinkConfig, qos: QosSpec, rho: float) -> EffCapResult:
    """Rate maximizing R_E at fixed rho, from the stationarity condition.

    Brackets the unique root of the first-order condition by doubling
    from r = B, refines with Brent's method and polishes with Newton
    steps until the residual is below RESIDUAL_TOL.
    """
    if qos.theta <= 0.0:
        raise DomainError("optimal_rate needs theta > 0")
    snr_eff = effective_snr(cfg, rho).effective_snr
    if snr_eff <= 0.0:
        raise DomainError("effective SNR is zero at this rho; no rate is optimal")

    f, fprime = _stationarity_lhs(cfg, qos.theta, snr_eff)
    lo, hi = _bracket_root(f, cfg.bandwidth_hz)
    rate = brentq(f, lo, hi, maxiter=200)
    for _ in range(60):
        residual = f(rate)
        if abs(residual) < RESIDUAL_TOL:
            break
        step = residual / fprime(rate)
        candidate = rate - step
        if not (lo <= candidate <= hi and math.isfinite(candidate)):
            candidate = 0.5 * (lo + hi)
        if f(candidate) < 0.0:
            lo = candidate
        else:
            hi = candidate
        rate = candidate
    else:
        raise ConvergenceError(
            f"rate stationarity residual stuck at {f(rate):.3e}"
        )

    alpha = outage_threshold(cfg, rate, snr_eff)
    re = effective_capacity_at(cfg, qos, rate, rho)
    return EffCapResult(
        rate_opt_bps=rate,
        alpha_opt=alpha,
        rho_used=rho,
        spectral_efficiency=re,
        on_probability=math.exp(-alpha),
    )


def effective_capacity_theta0(cfg: LinkConfig, rho: float) -> EffCapResult:
    """Unconstrained-queue limit: maximize the average rate (r/B) e^(-alpha).

    The stationarity condition r alpha'(r) = 1 reads
    r c e^(c r) = snr_eff with c = T ln2 / (TB - 1); its left side is
    increasing from zero, so the root is unique and bracketed the same
    way as in optimal_rate.
    """
    snr_eff = effective_snr(cfg, rho).effective_snr
    if snr_eff <= 0.0:
        return _zero_result(rho)
    t = cfg.frame_duration_s
    tb = cfg.symbols_per_frame
    c = t * LN2 / (tb - 1.0)

    def g(r: float) -> float:
        return r * c * _pow2(r * c / LN2) - snr_eff

    lo, hi = _bracket_root(g, cfg.bandwidth_hz)
    rate = brentq(g, lo, hi, maxiter=200)
    for _ in range(60):
        residual = g(rate)
        if abs(residual) <= 1e-12 * snr_eff:
            break
        e = _pow2(rate * c / LN2)
        derivative = c * e * (1.0 + c * rate)
        candidate = rate - residual / derivative
        if not (lo <= candidate <= hi and math.isfinite(candidate)):
            candidate = 0.5 * (lo + hi)
        rate = candidate
    else:
        raise ConvergenceError(
            f"theta = 0 rate residual stuck at {g(rate):.3e}"
        )

    alpha = outage_threshold(cfg, rate, snr_eff)
    p_on = math.exp(-alpha)
    return EffCapResult(
        rate_opt_bps=rate,
        alpha_opt=alpha,
        rho_used=rho,
        spectral_efficiency=rate / cfg.bandwidth_hz * p_on,
        on_probability=p_on,
    )


def spectral_efficiency(cfg: LinkConfig, qos: QosSpec) -> EffCapResult:
    """Joint optimum over rate and training fraction.

    The training fraction that maximizes the effective SNR is optimal
    regardless of theta and the rate, so the joint problem decomposes:
    fix rho at its closed form, then optimize the rate.
    """
    rho = rho_opt_closed_form(cfg).rho_opt
    if qos.theta == 0.0:
        return effective_capacity_theta0(cfg, rho)
    return optimal_rate(cfg, qos, rho)


def bit_energy(cfg: LinkConfig, qos: QosSpec) -> float:
    """Energy per delivered bit over noise PSD, SNR / R_E (linear scale).

    Returns inf when the spectral efficiency is zero; that is the
    divergence signal, never an exception.
    """
    result = spectral_efficiency(cfg, qos)
    if result.spectral_efficiency <= 0.0:
        return math.inf
    return nominal_snr(cfg) / result.spectral_efficiency


def bit_energy_db(cfg: LinkConfig, qos: QosSpec) -> float:
    """bit_energy expressed as 10 log10 of the energy ratio."""
    return 10.0 * math.log10(bit_energy(cfg, qos))


def _bit_energy_db_at_snr(cfg: LinkConfig, qos: QosSpec, snr: float) -> float:
    return bit_energy_db(with_nominal_snr(cfg, snr), qos)


def min_bit_energy_numeric(
    cfg: LinkConfig, qos: QosSpec, snr_grid
) -> tuple[float, float]:
    """Locate the bit-energy minimum over nominal SNR.

    Scans the given grid (sorted, positive, at least 16 points), then
    refines around the best grid point with golden-section search in
    log10(SNR). cfg supplies the frame duration, bandwidth, noise PSD
    and fading variance; its power budget is swept, not read. Returns
    (snr_at_min, min bit energy in dB). A minimizer on a grid endpoint
    raises GridEndpointError since the true minimum may lie outside.
    """
    grid = [float(s) for s in snr_grid]
    if len(grid) < 16:
        raise DomainError(f"snr_grid needs at least 16 points, got {len(grid)}")
    if grid[0] <= 0.0:
        raise DomainError("snr_grid values must be positive")
    if any(b <= a for a, b in zip(grid, grid[1:])):
        raise DomainError("snr_grid must be strictly increasing")

    values = [_bit_energy_db_at_snr(cfg, qos, s) for s in grid]
    best = min(range(len(grid)), key=values.__getitem__)
    if best == 0 or best == len(grid) - 1:
        raise GridEndpointError(
            "bit-energy minimizer sits on a grid endpoint; widen the grid"
        )

    def objective(log_snr: float) -> float:
        return _bit_energy_db_at_snr(cfg, qos, 10.0**log_snr)

    lo = math.log10(grid[best - 1])
    hi = math.log10(grid[best + 1])
    log_best = golden_min(objective, lo, hi, 1e-6)
    return 10.0**log_best, objective(log_best)
