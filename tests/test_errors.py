"""The shared argument checks, and every public boundary that uses them."""

import math

import numpy as np
import pytest

from effcap_kit import (
    ConvergenceError,
    DomainError,
    GrowthLaw,
    LinkConfig,
    QosSpec,
    SimSpec,
    WidebandConfig,
    asymptotics_sparse_bounded,
    bernoulli_trace,
    bit_energy_vs_bandwidth,
    effective_capacity_at,
    effective_snr,
    outage_threshold,
    rho_opt_numeric,
    with_nominal_snr,
)
from effcap_kit.cli import GridSpec, SweepJob
from effcap_kit.errors import as_integer, as_nonnegative, as_positive, as_real, as_seed

CFG = LinkConfig(2e-3, 1e5, 1.0, 1e5)
QOS = QosSpec(0.01)
WB_LINK = LinkConfig(2e-3, 2e4, 1.0, 1e3)
GROWTH = GrowthLaw("sublinear", 4, 1e5)

# each boundary with valid values for the arguments the pool replaces
BOUNDARIES = {
    "LinkConfig": (
        LinkConfig,
        dict(
            frame_duration_s=2e-3,
            bandwidth_hz=1e5,
            noise_psd=1.0,
            avg_power_w=1e5,
            fading_variance=1.0,
        ),
    ),
    "rho": (lambda rho: effective_snr(CFG, rho), dict(rho=0.5)),
    "with_nominal_snr": (lambda snr: with_nominal_snr(CFG, snr), dict(snr=1.0)),
    "outage_threshold": (
        lambda rate_bps, snr_eff: outage_threshold(CFG, rate_bps, snr_eff),
        dict(rate_bps=1e4, snr_eff=1.0),
    ),
    "effective_capacity_at": (
        lambda rate_bps, rho: effective_capacity_at(CFG, QOS, rate_bps, rho),
        dict(rate_bps=1e4, rho=0.5),
    ),
    "QosSpec": (QosSpec, dict(theta=0.01)),
    "rho_opt_numeric": (lambda xtol: rho_opt_numeric(CFG, xtol), dict(xtol=1e-6)),
    "GridSpec": (GridSpec, dict(axis="snr", lo=1.0, hi=10.0, points=4, spacing="log")),
    "SweepJob": (
        lambda target, out_path, theta, seed, jobs: SweepJob(
            target, out_path, {}, theta_list=(theta,), seed=seed, jobs=jobs
        ),
        dict(target="se-vs-ebn0", out_path="x.csv", theta=0.01, seed=0, jobs=1),
    ),
    "WidebandConfig": (
        lambda n, bc, variance, power, rho: WidebandConfig(
            n, bc, WB_LINK, (variance,) * 2, (power,) * 2, (rho,) * 2
        ),
        dict(n=2, bc=1e4, variance=1.0, power=500.0, rho=0.5),
    ),
    "ratio_args": (
        asymptotics_sparse_bounded,
        dict(theta=0.01, t_s=2e-3, n=1, power_over_nn0=1e4, gamma=1.0),
    ),
    "bit_energy_vs_bandwidth": (
        lambda theta, t_s, power_over_n0, gamma, b: bit_energy_vs_bandwidth(
            theta, t_s, GROWTH, power_over_n0, gamma, [b]
        ),
        dict(theta=0.01, t_s=2e-3, power_over_n0=1e7, gamma=1.0, b=1e6),
    ),
    "GrowthLaw": (GrowthLaw, dict(kind="sublinear", n_ref=4, b_ref=1e5, exponent=0.5)),
    "SimSpec": (
        lambda frames, seed, arrival_margin: SimSpec(CFG, QOS, frames, seed, arrival_margin),
        dict(frames=10**6, seed=0, arrival_margin=1.0),
    ),
    "bernoulli_trace": (bernoulli_trace, dict(p_on=0.5, frames=10, seed=0)),
}

POOL = (
    "x",
    None,
    True,
    math.nan,
    math.inf,
    -math.inf,
    0,
    -1,
    2.5,
    2**70,
    np.int64(3),
    np.float64(1.0),
)

CASES = [
    pytest.param(name, arg, value, id=f"{name}-{arg}-{value!r}")
    for name, (_, valid) in BOUNDARIES.items()
    for arg in valid
    for value in POOL
]


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("name, arg, value", CASES)
def test_boundary_returns_or_raises_typed(name, arg, value):
    call, valid = BOUNDARIES[name]
    try:
        call(**dict(valid, **{arg: value}))
    except (DomainError, ConvergenceError):
        pass


class TestChecks:
    def test_real(self):
        assert as_real("x", "2.5") == 2.5
        assert math.isnan(as_real("x", math.nan))
        for bad in ("x", None, 1j, 10**400):
            with pytest.raises(DomainError, match="x must be a real number"):
                as_real("x", bad)

    def test_sign(self):
        assert as_positive("x", np.float64(1.0)) == 1.0
        assert as_nonnegative("x", 0) == 0.0
        for bad in (0.0, -1.0, math.inf, math.nan):
            with pytest.raises(DomainError, match="finite and > 0"):
                as_positive("x", bad)
        for bad in (-1e-300, math.inf, math.nan):
            with pytest.raises(DomainError, match="finite and >= 0"):
                as_nonnegative("x", bad)

    def test_integer(self):
        got = as_integer("n", np.int64(3), 1)
        assert got == 3 and type(got) is int
        for bad in (True, np.True_, 3.0, np.float64(3.0), "3", None):
            with pytest.raises(DomainError, match="n must be an integer, got"):
                as_integer("n", bad, 1)
        with pytest.raises(DomainError, match="n must be an integer >= 2, got 1"):
            as_integer("n", 1, 2)

    def test_seed(self):
        assert as_seed("seed", np.uint64(2**64 - 1)) == 2**64 - 1
        for bad in (-1, 2**64):
            with pytest.raises(DomainError, match=r"seed must lie in \[0, 2\*\*64\)"):
                as_seed("seed", bad)
        with pytest.raises(DomainError, match="must be an integer"):
            as_seed("seed", False)
