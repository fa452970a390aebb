"""Physical-layer configuration and the deterministic link formulas.

Single-antenna Rayleigh block-fading link. Every frame of duration T
spans T*B symbols, one of which is a pilot. The receiver forms an MMSE
estimate of the fading coefficient from the pilot and treats the
estimation error as extra Gaussian noise, which gives the effective SNR
used by everything downstream. The channel is ON for a frame when the
standardized fading power |w|^2 exceeds the outage threshold alpha, so
P(ON) = exp(-alpha) for the unit-mean exponential |w|^2.

Units are SI throughout: seconds, Hz, watts, W/Hz. Rates are bits/s;
per-frame bit counts are rate * frame_duration.
"""

import math
from dataclasses import dataclass, replace

from .errors import DomainError, as_nonnegative, as_positive, as_real

__all__ = [
    "LinkConfig",
    "EnergySplit",
    "EstimateStats",
    "nominal_snr",
    "with_nominal_snr",
    "energy_split",
    "effective_snr",
    "outage_threshold",
]

LN2 = math.log(2.0)

# exp/expm1 overflow just above this; beyond it the result is +inf anyway
_EXP_ARG_MAX = 700.0


@dataclass(frozen=True)
class LinkConfig:
    """Constants of one flat-fading link (or one subchannel).

    frame_duration_s:  frame length T in seconds
    bandwidth_hz:      bandwidth B in Hz (per subchannel this is B_c)
    noise_psd:         one-sided noise spectral density N0 in W/Hz
    avg_power_w:       average transmit power budget in W
    fading_variance:   E{|h|^2} of the fading coefficient, dimensionless
    """

    frame_duration_s: float
    bandwidth_hz: float
    noise_psd: float
    avg_power_w: float
    fading_variance: float = 1.0

    def __post_init__(self):
        for name in (
            "frame_duration_s",
            "bandwidth_hz",
            "noise_psd",
            "avg_power_w",
            "fading_variance",
        ):
            object.__setattr__(self, name, as_positive(name, getattr(self, name)))
        # TB - 2 divides the training formulas, so TB must exceed 2
        if self.symbols_per_frame <= 2.0:
            raise DomainError(
                "frame_duration_s * bandwidth_hz must exceed 2, got "
                f"{self.symbols_per_frame!r}"
            )

    @property
    def symbols_per_frame(self) -> float:
        """T*B, kept as a real number and never rounded."""
        return self.frame_duration_s * self.bandwidth_hz


@dataclass(frozen=True)
class EnergySplit:
    """Energy bookkeeping for one frame at training fraction rho.

    pilot_energy_j is rho * P * T; data_symbol_energy_j is the remaining
    energy spread evenly over the TB - 1 data symbols.
    """

    rho: float
    pilot_energy_j: float
    data_symbol_energy_j: float


@dataclass(frozen=True)
class EstimateStats:
    """MMSE estimation outcome at a given training fraction.

    estimate_variance + error_variance equals the fading variance (the
    estimate and its error are orthogonal), and effective_snr is zero
    exactly when rho is 0 or 1.
    """

    estimate_variance: float
    error_variance: float
    effective_snr: float


def _check_rho(rho: float) -> float:
    rho = as_real("rho", rho)
    if not (0.0 <= rho <= 1.0):
        raise DomainError(f"rho must lie in [0, 1], got {rho!r}")
    return rho


def nominal_snr(cfg: LinkConfig) -> float:
    """Average SNR of the link, avg_power / (noise_psd * bandwidth)."""
    return cfg.avg_power_w / (cfg.noise_psd * cfg.bandwidth_hz)


def with_nominal_snr(cfg: LinkConfig, snr: float) -> LinkConfig:
    """Copy of cfg whose power budget realizes the given nominal SNR."""
    power = as_positive("snr", snr) * cfg.noise_psd * cfg.bandwidth_hz
    return replace(cfg, avg_power_w=power)


def _realized_snr(snr: float, noise_psd: float, bandwidth: float) -> float:
    """nominal_snr(with_nominal_snr(cfg, snr)) without building the copy."""
    power = snr * noise_psd * bandwidth
    if not 0.0 < power < math.inf:
        raise DomainError(f"avg_power_w must be finite and > 0, got {power!r}")
    return power / (noise_psd * bandwidth)


def energy_split(cfg: LinkConfig, rho: float) -> EnergySplit:
    """Split the frame energy between the pilot and the data symbols."""
    rho = _check_rho(rho)
    total = cfg.avg_power_w * cfg.frame_duration_s
    pilot = rho * total
    per_symbol = (1.0 - rho) * total / (cfg.symbols_per_frame - 1.0)
    return EnergySplit(rho=rho, pilot_energy_j=pilot, data_symbol_energy_j=per_symbol)


def effective_snr(cfg: LinkConfig, rho: float) -> EstimateStats:
    """Estimate variances and effective SNR at training fraction rho.

    The effective SNR treats the channel-estimation error as additional
    Gaussian noise on the data symbols, which lower-bounds the rate the
    link can support. With g = gamma T B SNR it is computed here in the
    closed form

        rho (1-rho) g^2 / (rho g (TB-2) + g + TB - 1)
          = rho (1-rho) g / (rho (TB-2) + 1 + (TB-1) / g),

    the second form so that g^2 cannot overflow. It is algebraically
    identical to evaluating the defining ratio with explicit pilot and
    data-symbol energies; the tests exercise that second route
    independently.
    """
    rho = _check_rho(rho)
    gamma = cfg.fading_variance
    pilot = rho * cfg.avg_power_w * cfg.frame_duration_s
    denom = gamma * pilot + cfg.noise_psd
    est_var = gamma * gamma * pilot / denom
    err_var = gamma * cfg.noise_psd / denom

    tb = cfg.symbols_per_frame
    return EstimateStats(
        estimate_variance=est_var,
        error_variance=err_var,
        effective_snr=_effective_snr(rho, tb, gamma * tb * nominal_snr(cfg)),
    )


def _effective_snr(rho: float, tb: float, gts: float) -> float:
    """effective_snr's closed form on floats, with gts = gamma TB SNR."""
    if gts > 0.0:
        return rho * (1.0 - rho) * gts / (rho * (tb - 2.0) + 1.0 + (tb - 1.0) / gts)
    return 0.0  # gamma TB SNR underflowed


def outage_threshold(cfg: LinkConfig, rate_bps: float, snr_eff: float) -> float:
    """Fading-power threshold alpha above which the frame is ON.

    alpha = (2^(r T / (TB - 1)) - 1) / snr_eff. Zero exactly at zero
    rate, strictly increasing in the rate and strictly decreasing in
    the effective SNR.
    """
    rate_bps = as_nonnegative("rate_bps", rate_bps)
    if rate_bps == 0.0:
        return 0.0
    snr_eff = as_real("snr_eff", snr_eff)
    if not snr_eff > 0.0:
        raise DomainError(
            "snr_eff must be > 0 for a positive rate; the channel carries "
            "nothing without a usable estimate"
        )
    return _outage_threshold(rate_bps, cfg.frame_duration_s, cfg.symbols_per_frame, snr_eff)


def _outage_threshold(rate: float, t: float, tb: float, snr_eff: float) -> float:
    """outage_threshold on floats: rate >= 0 and snr_eff > 0 unchecked."""
    exponent = rate * t * LN2 / (tb - 1.0)
    if exponent > _EXP_ARG_MAX:
        return math.inf
    return math.expm1(exponent) / snr_eff
