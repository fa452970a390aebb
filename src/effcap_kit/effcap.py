"""Effective capacity of the single flat-fading ON-OFF link.

The service process alternates between r*T bits per frame (channel ON,
probability exp(-alpha)) and zero (outage). The effective capacity is
the largest constant arrival rate the queue can absorb while the tail
P(Q >= q) decays like exp(-theta q). Normalized by bandwidth it reads

    R_E = -(1 / (theta T B)) ln(1 - exp(-alpha) (1 - exp(-theta T r)))

in bits/s/Hz. This module maximizes R_E over the fixed rate r (and,
composed with the training module, over the pilot fraction rho), and
derives the bit-energy diagnostics from it. Every public function
validates its LinkConfig and QosSpec and then calls one solver on plain
floats (_solve): the closed-form rho, the effective SNR, and the rate
as the root of the stationarity condition, found by Newton's method in
ln r from a start above the root.
"""

import math
from dataclasses import dataclass

from .errors import ConvergenceError, DomainError, GridEndpointError, as_nonnegative, as_real
from .link_model import (
    LN2,
    LinkConfig,
    _check_rho,
    _effective_snr,
    _outage_threshold,
    _realized_snr,
    effective_snr,
    nominal_snr,
    outage_threshold,
)
from .training import _rho_opt

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

# rate solve: Newton steps in ln r, stopped once a step is below
# _NEWTON_STEP_TOL (a relative rate change)
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
        object.__setattr__(self, "theta", as_nonnegative("theta", self.theta))


@dataclass(frozen=True)
class EffCapResult:
    """Outcome of a rate (or joint rate/training) optimization."""

    rate_opt_bps: float
    alpha_opt: float
    rho_used: float
    spectral_efficiency: float
    on_probability: float


def effective_capacity_at(
    cfg: LinkConfig, qos: QosSpec, rate_bps: float, rho: float
) -> float:
    """R_E in bits/s/Hz at a fixed rate and training fraction (theta > 0)."""
    if qos.theta <= 0.0:
        raise DomainError(
            "effective_capacity_at needs theta > 0; use "
            "effective_capacity_theta0 for the unconstrained limit"
        )
    rate_bps = as_nonnegative("rate_bps", rate_bps)
    if rate_bps == 0.0:
        return 0.0
    snr_eff = effective_snr(cfg, rho).effective_snr
    if snr_eff <= 0.0:
        return 0.0
    alpha = outage_threshold(cfg, rate_bps, snr_eff)
    return _capacity(qos.theta * cfg.frame_duration_s, cfg.bandwidth_hz, rate_bps, alpha)


def _capacity(theta_t: float, b: float, rate: float, alpha: float) -> float:
    """R_E on floats at a positive rate with outage threshold alpha."""
    s = theta_t * rate
    # 1 - p_on (1 - e^-s) as a sum of two positive terms, taken from alpha
    # directly: when p_on rounds to 1 the outage term alpha survives, and
    # once s exceeds about 37 it is the larger term
    rest = -math.expm1(-alpha) + math.exp(-alpha - s)
    if rest < 0.5:
        # both terms underflow only at alpha = 0, where rest = e^-s
        log_rest = math.log(rest) if rest > 0.0 else -s
    else:
        log_rest = math.log1p(math.exp(-alpha) * math.expm1(-s))
    return -log_rest / (theta_t * b)


def _solve(t: float, b: float, gamma: float, snr: float, theta: float, rho=None):
    """The optimal operating point on plain floats.

    t, b and gamma are the link's T, B and fading variance, snr its
    nominal SNR as nominal_snr realizes it, and rho a checked training
    fraction, or None for the closed-form optimum. The caller has
    validated every argument. Returns (rho, effective SNR, rate in
    bits/s, alpha, R_E in bits/s/Hz), in the operation order of
    rho_opt_closed_form, effective_snr, outage_threshold and
    effective_capacity_at.

    The rate is the root of the stationarity condition in log form,
    G(u) = 0 with u = ln r, found by Newton's method. For theta > 0,
    dR_E/dr = 0 reads k e^(c r) (1 - e^(-x)) = theta T e^(-x) with
    x = theta T r, whose log is

        G(u) = ln k + c r + x + ln(-expm1(-x) / (theta T));

    for theta = 0 the mean rate (r/B) e^(-alpha) is maximal where
    r c e^(c r) = snr_eff, whose log is G(u) = ln k + u + c r. Here
    c = T ln2 / (TB - 1) and k = c / snr_eff. G is convex and increasing
    in u, and G >= 0 at r = ln(1 + snr_eff) / c, because
    (1 + s) ln(1 + s) >= s, and for theta > 0 also at
    r = ln(1 + theta T / k) / (theta T), where the last term of G is at
    least -ln k. Newton's method started at the smaller of the two
    descends monotonically onto the root; it stops once a step changes
    the rate by at most _NEWTON_STEP_TOL relative.

    An effective SNR of zero gives rate and R_E zero at theta = 0. One
    so small (zero or subnormal) that k overflows raises DomainError at
    theta > 0; at theta = 0 the root is then snr_eff / c, since c r
    rounds away against 1.
    """
    tb = t * b
    gts = gamma * tb * snr
    if rho is None:
        rho, _ = _rho_opt(tb, gts)
    snr_eff = _effective_snr(rho, tb, gts)
    if snr_eff <= 0.0:
        if theta > 0.0:
            raise DomainError("effective SNR is zero at this rho; no rate is optimal")
        return rho, snr_eff, 0.0, math.inf, 0.0
    c = t * LN2 / (tb - 1.0)
    k = t * LN2 / ((tb - 1.0) * snr_eff)
    theta_t = theta * t
    if math.isinf(k):
        if theta > 0.0:
            raise DomainError(
                f"effective SNR {snr_eff!r} is too small to resolve an optimal rate"
            )
        rate = snr_eff / c
    else:
        log_k = math.log(k)
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
                break
        else:
            raise ConvergenceError(
                f"rate solve not converged after {_NEWTON_ITER_MAX} Newton steps"
            )
        rate = math.exp(u)
    alpha = _outage_threshold(rate, t, tb, snr_eff)
    if theta == 0.0:
        return rho, snr_eff, rate, alpha, rate / b * math.exp(-alpha)
    return rho, snr_eff, rate, alpha, _capacity(theta_t, b, rate, alpha)


def _result(cfg: LinkConfig, theta: float, rho=None) -> EffCapResult:
    """_solve on a validated config, as an EffCapResult."""
    rho, _, rate, alpha, re = _solve(
        cfg.frame_duration_s,
        cfg.bandwidth_hz,
        cfg.fading_variance,
        nominal_snr(cfg),
        theta,
        rho,
    )
    return EffCapResult(
        rate_opt_bps=rate,
        alpha_opt=alpha,
        rho_used=rho,
        spectral_efficiency=re,
        on_probability=math.exp(-alpha),
    )


def optimal_rate(cfg: LinkConfig, qos: QosSpec, rho: float) -> EffCapResult:
    """Rate maximizing R_E at fixed rho, from the stationarity condition.

    The condition has one root, found by Newton's method in ln r from a
    start above it (see _solve), stopped once a step changes the rate
    by at most _NEWTON_STEP_TOL relative.
    """
    if qos.theta <= 0.0:
        raise DomainError("optimal_rate needs theta > 0")
    return _result(cfg, qos.theta, _check_rho(rho))


def effective_capacity_theta0(cfg: LinkConfig, rho: float) -> EffCapResult:
    """Unconstrained-queue limit: maximize the average rate (r/B) e^(-alpha).

    The stationarity condition r alpha'(r) = 1 reads
    r c e^(c r) = snr_eff with c = T ln2 / (TB - 1); its left side is
    increasing from zero, so the root is unique. It is solved by the
    same Newton iteration in ln r as optimal_rate (see _solve). With no
    usable estimate the channel is OFF with certainty: rate and R_E are
    zero and alpha is infinite.
    """
    return _result(cfg, 0.0, _check_rho(rho))


def spectral_efficiency(cfg: LinkConfig, qos: QosSpec) -> EffCapResult:
    """Joint optimum over rate and training fraction.

    The training fraction that maximizes the effective SNR is optimal
    regardless of theta and the rate, so the joint problem decomposes:
    fix rho at its closed form, then optimize the rate.
    """
    return _result(cfg, qos.theta)


def _bit_energy(t: float, b: float, gamma: float, snr: float, theta: float) -> float:
    re = _solve(t, b, gamma, snr, theta)[4]
    return snr / re if re > 0.0 else math.inf


def bit_energy(cfg: LinkConfig, qos: QosSpec) -> float:
    """Energy per delivered bit over noise PSD, SNR / R_E (linear scale).

    Returns inf when the spectral efficiency is zero; that is the
    divergence signal, never an exception.
    """
    return _bit_energy(
        cfg.frame_duration_s, cfg.bandwidth_hz, cfg.fading_variance, nominal_snr(cfg), qos.theta
    )


def bit_energy_db(cfg: LinkConfig, qos: QosSpec) -> float:
    """bit_energy expressed as 10 log10 of the energy ratio."""
    return 10.0 * math.log10(bit_energy(cfg, qos))


def _log_slope_gap(cfg: LinkConfig, qos: QosSpec, log_snr: float) -> float:
    """h = d ln R_E / d ln SNR - 1 at SNR = e^log_snr, from one solve.

    The bit energy SNR / R_E falls while h > 0 and rises while h < 0.
    The rate and rho are optimal, so by the envelope theorem only the
    effective SNR moves: d ln R_E / d ln snr_eff = alpha (e^w - 1) / w
    with w = theta T B R_E (alpha at w = 0, the theta = 0 limit), and
    d ln snr_eff / d ln SNR = 1 + (TB - 1) / D at fixed rho, where D is
    the denominator of the effective_snr closed form.
    """
    t, b, gamma = cfg.frame_duration_s, cfg.bandwidth_hz, cfg.fading_variance
    snr = _realized_snr(math.exp(log_snr), cfg.noise_psd, b)
    rho, _, _, alpha, re = _solve(t, b, gamma, snr, qos.theta)
    tb = t * b
    gts = gamma * tb * snr
    den = rho * gts * (tb - 2.0) + gts + tb - 1.0
    w = qos.theta * t * b * re
    growth = math.expm1(w) / w if w > 0.0 else 1.0
    return alpha * growth * (1.0 + (tb - 1.0) / den) - 1.0


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

    Evaluates the bit energy at every point of the grid (sorted,
    positive, finite, at least 16 points), takes the best grid point,
    and then solves the first-order condition
    h = d ln R_E / d ln SNR - 1 = 0 in ln(SNR) between its two
    neighbours, with h in closed form from one solve per step. The
    returned minimum bit energy is bit_energy_db at the located SNR,
    realized as with_nominal_snr realizes it. cfg supplies the frame
    duration, bandwidth, noise PSD and fading variance; its power
    budget is swept, not read. Returns (snr_at_min, min bit energy in
    dB). A minimizer on a grid endpoint raises GridEndpointError since
    the true minimum may lie outside.
    """
    grid = [as_real("snr_grid", s) for s in snr_grid]
    if len(grid) < 16:
        raise DomainError(f"snr_grid needs at least 16 points, got {len(grid)}")
    if grid[0] <= 0.0 or not all(math.isfinite(s) for s in grid):
        raise DomainError("snr_grid values must be positive and finite")
    if any(b <= a for a, b in zip(grid, grid[1:])):
        raise DomainError("snr_grid must be strictly increasing")

    t, b, n0, gamma = cfg.frame_duration_s, cfg.bandwidth_hz, cfg.noise_psd, cfg.fading_variance
    energy = [_bit_energy(t, b, gamma, _realized_snr(s, n0, b), qos.theta) for s in grid]
    best = energy.index(min(energy))
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
    energy = _bit_energy(t, b, gamma, _realized_snr(snr_at_min, n0, b), qos.theta)
    return snr_at_min, 10.0 * math.log10(energy)
