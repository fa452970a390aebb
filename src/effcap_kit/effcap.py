"""Effective capacity of the single flat-fading ON-OFF link.

The service process alternates between r*T bits per frame (channel ON,
probability exp(-alpha)) and zero (outage). The effective capacity is
the largest constant arrival rate the queue can absorb while the tail
P(Q >= q) decays like exp(-theta q). Normalized by bandwidth it reads

    R_E = -(1 / (theta T B)) ln(1 - exp(-alpha) (1 - exp(-theta T r)))

in bits/s/Hz. This module maximizes R_E over the fixed rate r (and,
composed with the training module, over the pilot fraction rho), and
derives the bit-energy diagnostics from it. Every rate is the root of
the stationarity condition, found by one method: Newton's method in
ln r from a start above the root, written once for a single SNR
(_newton_rate) and once for an array of SNRs
(_spectral_efficiency_grid).
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, DomainError, GridEndpointError
from .link_model import (
    _EXP_ARG_MAX,
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

# rate solve, scalar and array: Newton steps in ln r, stopped once every
# step is below _NEWTON_STEP_TOL (a relative rate change)
_NEWTON_ITER_MAX = 60
_NEWTON_STEP_TOL = 1e-12

# first-order condition of the bit-energy minimum: |h| is dimensionless
_SLOPE_GAP_TOL = 1e-10
_SLOPE_GAP_ITER_MAX = 60


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


def _newton_rate(cfg: LinkConfig, theta: float, snr_eff: float) -> float:
    """Optimal rate at one effective SNR, by Newton's method in u = ln r.

    The iteration of _spectral_efficiency_grid (same G, slope, start and
    step stop; see its docstring), written with math for a single
    entry. Raises DomainError at theta > 0 when k = T ln2 / ((TB-1)
    snr_eff) overflows; at theta = 0 the root of r c e^(c r) = snr_eff
    is then snr_eff / c, since c r rounds away against 1.
    """
    t = cfg.frame_duration_s
    tb = cfg.symbols_per_frame
    c = t * LN2 / (tb - 1.0)
    k = t * LN2 / ((tb - 1.0) * snr_eff)
    if math.isinf(k):
        if theta > 0.0:
            raise DomainError(
                f"effective SNR {snr_eff!r} is too small to resolve an optimal rate"
            )
        return snr_eff / c
    log_k = math.log(k)
    theta_t = theta * t
    u = math.log(math.log1p(snr_eff) / c)
    if theta > 0.0:
        u = min(u, math.log(math.log1p(theta_t * snr_eff / c) / theta_t))
    for _ in range(_NEWTON_ITER_MAX):
        r = math.exp(u)
        if theta > 0.0:
            x = theta_t * r
            grow = -math.expm1(-x)
            g = log_k + c * r + x + math.log(grow / theta_t)
            slope = c * r + x / grow
        else:
            g = log_k + u + c * r
            slope = 1.0 + c * r
        step = g / slope
        u = u - step
        if abs(step) <= _NEWTON_STEP_TOL:
            return math.exp(u)
    raise ConvergenceError(
        f"rate solve not converged after {_NEWTON_ITER_MAX} Newton steps"
    )


def optimal_rate(cfg: LinkConfig, qos: QosSpec, rho: float) -> EffCapResult:
    """Rate maximizing R_E at fixed rho, from the stationarity condition.

    The condition has one root, found by Newton's method in ln r from a
    start above it (_newton_rate), stopped once a step changes the rate
    by at most _NEWTON_STEP_TOL relative.
    """
    if qos.theta <= 0.0:
        raise DomainError("optimal_rate needs theta > 0")
    snr_eff = effective_snr(cfg, rho).effective_snr
    if snr_eff <= 0.0:
        raise DomainError("effective SNR is zero at this rho; no rate is optimal")

    rate = _newton_rate(cfg, qos.theta, snr_eff)
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
    increasing from zero, so the root is unique. It is solved by the
    same Newton iteration in ln r as optimal_rate (_newton_rate).
    """
    snr_eff = effective_snr(cfg, rho).effective_snr
    if snr_eff <= 0.0:
        return _zero_result(rho)
    rate = _newton_rate(cfg, 0.0, snr_eff)
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


def _spectral_efficiency_grid(cfg: LinkConfig, theta: float, snrs):
    """Jointly optimal R_E at every nominal SNR of an array, in one solve.

    The array form of spectral_efficiency on with_nominal_snr(cfg, snr):
    the closed-form rho and effective SNR in the scalar operation order,
    then Newton's method on the rate stationarity condition in log form,
    G(u) = 0 with u = ln r, for all SNRs at once (_newton_rate is the
    same iteration for one SNR). For theta > 0, dR_E/dr = 0 reads
    k e^(c r) (1 - e^(-x)) = theta T e^(-x) with x = theta T r, whose log
    is

        G(u) = ln k + c r + x + ln(-expm1(-x) / (theta T));

    for theta = 0, G(u) = ln k + u + c r is ln of r c e^(c r) = snr_eff.
    Here c = T ln2 / (TB - 1) and k = c / snr_eff. G is convex and
    increasing in u. G >= 0 at r = ln(1 + snr_eff) / c, because
    (1 + s) ln(1 + s) >= s, and for theta > 0 also at
    r = ln(1 + theta T / k) / (theta T), where the last term of G is at
    least -ln k. Newton's method started at the smaller of the two
    descends monotonically onto the root. An effective SNR so small
    (zero or subnormal) that k overflows raises DomainError at
    theta > 0 and gives rate and R_E zero at theta = 0. Returns the
    arrays (nominal SNR as with_nominal_snr realizes it, rate in
    bits/s, R_E in bits/s/Hz).
    """
    t = cfg.frame_duration_s
    b = cfg.bandwidth_hz
    n0 = cfg.noise_psd
    gamma = cfg.fading_variance
    tb = cfg.symbols_per_frame

    snr = np.asarray(snrs, dtype=float) * n0 * b / (n0 * b)
    gts = gamma * tb * snr
    eta = (gts + tb - 1.0) / (gts * (tb - 2.0))
    rho = eta * np.expm1(0.5 * np.log1p(1.0 / eta))
    with np.errstate(divide="ignore"):
        snr_eff = rho * (1.0 - rho) * gts / (rho * (tb - 2.0) + 1.0 + (tb - 1.0) / gts)
    # k is infinite where the effective SNR is zero or subnormal
    with np.errstate(divide="ignore", over="ignore"):
        k = t * LN2 / ((tb - 1.0) * snr_eff)
    usable = np.isfinite(k)
    if theta > 0.0 and not usable.all():
        raise DomainError("effective SNR is zero or too small to resolve an optimal rate")
    snr_eff = np.where(usable, snr_eff, 1.0)

    c = t * LN2 / (tb - 1.0)
    log_k = np.log(np.where(usable, k, c))
    theta_t = theta * t
    u = np.log(np.log1p(snr_eff) / c)
    if theta > 0.0:
        u = np.minimum(u, np.log(np.log1p(theta_t * snr_eff / c) / theta_t))
    for _ in range(_NEWTON_ITER_MAX):
        r = np.exp(u)
        if theta > 0.0:
            x = theta_t * r
            grow = -np.expm1(-x)
            g = log_k + c * r + x + np.log(grow / theta_t)
            slope = c * r + x / grow
        else:
            g = log_k + u + c * r
            slope = 1.0 + c * r
        step = g / slope
        u = u - step
        if np.all(np.abs(step) <= _NEWTON_STEP_TOL):
            break
    else:
        raise ConvergenceError(
            f"array rate solve not converged after {_NEWTON_ITER_MAX} Newton steps"
        )
    rate = np.where(usable, np.exp(u), 0.0)

    # outage_threshold and effective_capacity_at, elementwise
    exponent = rate * t * LN2 / (tb - 1.0)
    alpha = np.where(
        exponent > _EXP_ARG_MAX, np.inf, np.expm1(np.minimum(exponent, _EXP_ARG_MAX)) / snr_eff
    )
    if theta == 0.0:
        return snr, rate, rate / b * np.exp(-alpha)
    s = theta_t * rate
    rest = -np.expm1(-alpha) + np.exp(-alpha - s)
    with np.errstate(divide="ignore"):
        log_rest = np.where(
            rest < 0.5,
            np.where(rest > 0.0, np.log(rest), -s),
            np.log1p(np.exp(-alpha) * np.expm1(-s)),
        )
    return snr, rate, -log_rest / (theta_t * b)


def _log_slope_gap(cfg: LinkConfig, qos: QosSpec, log_snr: float) -> float:
    """h = d ln R_E / d ln SNR - 1 at SNR = e^log_snr, from one scalar solve.

    The bit energy SNR / R_E falls while h > 0 and rises while h < 0.
    The rate and rho are optimal, so by the envelope theorem only the
    effective SNR moves: d ln R_E / d ln snr_eff = alpha (e^w - 1) / w
    with w = theta T B R_E (alpha at w = 0, the theta = 0 limit), and
    d ln snr_eff / d ln SNR = 1 + (TB - 1) / D at fixed rho, where D is
    the denominator of the effective_snr closed form.
    """
    link = with_nominal_snr(cfg, math.exp(log_snr))
    res = spectral_efficiency(link, qos)
    tb = link.symbols_per_frame
    rho = res.rho_used
    gts = link.fading_variance * tb * nominal_snr(link)
    den = rho * gts * (tb - 2.0) + gts + tb - 1.0
    w = qos.theta * link.frame_duration_s * link.bandwidth_hz * res.spectral_efficiency
    growth = math.expm1(w) / w if w > 0.0 else 1.0
    return res.alpha_opt * growth * (1.0 + (tb - 1.0) / den) - 1.0


def _falling_root(h, lo: float, hi: float) -> float:
    """Root of h on [lo, hi], where h(lo) >= 0 >= h(hi), by Illinois false position.

    Stops once |h| <= _SLOPE_GAP_TOL or the bracket is down to a few
    ulps, and raises ConvergenceError without a sign change or when the
    iterations run out.
    """
    h_lo, h_hi = h(lo), h(hi)
    if not (math.isfinite(h_lo) and math.isfinite(h_hi) and h_lo >= 0.0 >= h_hi):
        raise ConvergenceError(
            f"no sign change of the bit-energy slope on [{lo!r}, {hi!r}]: "
            f"h = {h_lo!r}, {h_hi!r}"
        )
    kept = 0  # +1 (-1) when the last step kept the upper (lower) end
    for _ in range(_SLOPE_GAP_ITER_MAX):
        x = (lo * h_hi - hi * h_lo) / (h_hi - h_lo)
        hx = h(x)
        if abs(hx) <= _SLOPE_GAP_TOL or hi - lo <= 4e-16 * max(abs(lo), abs(hi), 1.0):
            return x
        if hx > 0.0:
            lo, h_lo = x, hx
            if kept == 1:
                h_hi *= 0.5
            kept = 1
        else:
            hi, h_hi = x, hx
            if kept == -1:
                h_lo *= 0.5
            kept = -1
    raise ConvergenceError(
        f"bit-energy slope not zeroed after {_SLOPE_GAP_ITER_MAX} steps: "
        f"bracket [{lo!r}, {hi!r}]"
    )


def min_bit_energy_numeric(
    cfg: LinkConfig, qos: QosSpec, snr_grid
) -> tuple[float, float]:
    """Locate the bit-energy minimum over nominal SNR.

    Evaluates the joint optimum on the whole grid (sorted, positive,
    finite, at least 16 points) in one array solve, takes the best grid
    point, and then solves the first-order condition
    h = d ln R_E / d ln SNR - 1 = 0 in ln(SNR) between its two
    neighbours, with h in closed form from one scalar solve per step.
    The returned minimum bit energy comes from the scalar route
    (bit_energy_db) at the located SNR. cfg supplies the frame
    duration, bandwidth, noise PSD and fading variance; its power
    budget is swept, not read. Returns (snr_at_min, min bit energy in
    dB). A minimizer on a grid endpoint raises GridEndpointError since
    the true minimum may lie outside.
    """
    grid = [float(s) for s in snr_grid]
    if len(grid) < 16:
        raise DomainError(f"snr_grid needs at least 16 points, got {len(grid)}")
    if grid[0] <= 0.0 or not all(math.isfinite(s) for s in grid):
        raise DomainError("snr_grid values must be positive and finite")
    if any(b <= a for a, b in zip(grid, grid[1:])):
        raise DomainError("snr_grid must be strictly increasing")

    snr, _, re = _spectral_efficiency_grid(cfg, qos.theta, grid)
    with np.errstate(divide="ignore"):
        energy = np.where(re > 0.0, snr / re, np.inf)
    best = int(np.argmin(energy))
    if best == 0 or best == len(grid) - 1:
        raise GridEndpointError(
            "bit-energy minimizer sits on a grid endpoint; widen the grid"
        )

    log_snr = _falling_root(
        lambda x: _log_slope_gap(cfg, qos, x),
        math.log(grid[best - 1]),
        math.log(grid[best + 1]),
    )
    snr_at_min = math.exp(log_snr)
    return snr_at_min, bit_energy_db(with_nominal_snr(cfg, snr_at_min), qos)
