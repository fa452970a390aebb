"""Link configuration, energy split, channel estimation and outage threshold."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from effcap_kit import (
    DomainError,
    LinkConfig,
    effective_snr,
    energy_split,
    nominal_snr,
    outage_threshold,
    with_nominal_snr,
)

LN2 = math.log(2.0)


def make_cfg(snr=0.1, t=2e-3, b=1e5, n0=1.0, gamma=1.0):
    return LinkConfig(t, b, n0, snr * n0 * b, gamma)


class TestLinkConfig:
    def test_symbols_per_frame(self):
        cfg = make_cfg(t=2e-3, b=1e5)
        assert cfg.symbols_per_frame == pytest.approx(200.0, rel=1e-15)

    def test_rejects_nonpositive_fields(self):
        with pytest.raises(DomainError):
            LinkConfig(0.0, 1e5, 1.0, 1e4)
        with pytest.raises(DomainError):
            LinkConfig(2e-3, -1e5, 1.0, 1e4)
        with pytest.raises(DomainError):
            LinkConfig(2e-3, 1e5, 0.0, 1e4)
        with pytest.raises(DomainError):
            LinkConfig(2e-3, 1e5, 1.0, 0.0)
        with pytest.raises(DomainError):
            LinkConfig(2e-3, 1e5, 1.0, 1e4, 0.0)

    def test_rejects_small_frames(self):
        # one training symbol plus data needs more than 2 symbols per frame
        with pytest.raises(DomainError):
            LinkConfig(2e-5, 1e5, 1.0, 1e4)
        with pytest.raises(DomainError):
            LinkConfig(1e-5, 2e5, 1.0, 1e4)
        LinkConfig(2.1e-5, 1e5, 1.0, 1e4)

    def test_nominal_snr_round_trip(self):
        cfg = make_cfg(snr=0.1)
        assert nominal_snr(cfg) == pytest.approx(0.1, rel=1e-15)
        cfg2 = with_nominal_snr(cfg, 3.5)
        assert nominal_snr(cfg2) == pytest.approx(3.5, rel=1e-15)
        assert cfg2.frame_duration_s == cfg.frame_duration_s
        assert cfg2.bandwidth_hz == cfg.bandwidth_hz

    def test_nominal_snr_direct(self):
        cfg = LinkConfig(2e-3, 1e5, 2.0, 5e4)
        # avg_power / (noise_psd * bandwidth) = 5e4 / 2e5
        assert nominal_snr(cfg) == pytest.approx(0.25, rel=1e-15)


class TestEnergySplit:
    def test_budget_partition(self):
        cfg = make_cfg()
        split = energy_split(cfg, 0.3)
        total = cfg.avg_power_w * cfg.frame_duration_s
        assert split.pilot_energy_j == pytest.approx(0.3 * total, rel=1e-15)
        assert split.data_symbol_energy_j * (cfg.symbols_per_frame - 1) == (
            pytest.approx(0.7 * total, rel=1e-12)
        )

    def test_rho_bounds(self):
        cfg = make_cfg()
        with pytest.raises(DomainError):
            energy_split(cfg, -0.1)
        with pytest.raises(DomainError):
            energy_split(cfg, 1.5)
        energy_split(cfg, 0.0)
        energy_split(cfg, 1.0)

    @given(rho=st.floats(0.0, 1.0))
    @settings(max_examples=50)
    def test_split_conserves_budget(self, rho):
        cfg = make_cfg()
        split = energy_split(cfg, rho)
        total = split.pilot_energy_j + split.data_symbol_energy_j * (
            cfg.symbols_per_frame - 1
        )
        assert total == pytest.approx(
            cfg.avg_power_w * cfg.frame_duration_s, rel=1e-9
        )


class TestEffectiveSnr:
    def test_degenerate_rho(self):
        cfg = make_cfg()
        # all energy on training leaves nothing to send; none leaves the
        # estimator blind, so either way the usable SNR is zero
        assert effective_snr(cfg, 0.0).effective_snr == 0.0
        assert effective_snr(cfg, 1.0).effective_snr == 0.0

    def test_against_variance_route(self):
        # independent oracle: build the same quantity from the estimator
        # variances and the per-symbol data energy instead of the closed
        # form that the implementation uses
        cfg = make_cfg(snr=0.1, t=2e-3, b=1e5, gamma=1.0)
        rho = 0.3
        stats = effective_snr(cfg, rho)
        split = energy_split(cfg, rho)
        es = split.data_symbol_energy_j
        oracle = (stats.estimate_variance * es) / (
            cfg.noise_psd + stats.error_variance * es
        )
        assert stats.effective_snr == pytest.approx(oracle, rel=1e-12)
        # and the hand value for this exact configuration
        assert stats.effective_snr == pytest.approx(4.0 / 67.0, rel=1e-12)

    @given(
        snr=st.floats(1e-6, 1e4),
        rho=st.floats(1e-6, 1.0 - 1e-6),
        gamma=st.floats(0.1, 10.0),
    )
    @settings(max_examples=200)
    def test_variance_conservation(self, snr, rho, gamma):
        cfg = make_cfg(snr=snr, gamma=gamma)
        stats = effective_snr(cfg, rho)
        assert stats.estimate_variance + stats.error_variance == pytest.approx(
            gamma, rel=1e-9
        )
        assert stats.estimate_variance >= 0.0
        assert stats.error_variance >= 0.0

    @given(
        snr=st.floats(1e-6, 1e4),
        rho=st.floats(1e-6, 1.0 - 1e-6),
        gamma=st.floats(0.1, 10.0),
    )
    @settings(max_examples=200)
    def test_both_routes_agree(self, snr, rho, gamma):
        cfg = make_cfg(snr=snr, gamma=gamma)
        stats = effective_snr(cfg, rho)
        es = energy_split(cfg, rho).data_symbol_energy_j
        oracle = (stats.estimate_variance * es) / (
            cfg.noise_psd + stats.error_variance * es
        )
        assert stats.effective_snr == pytest.approx(oracle, rel=1e-9)

    def test_huge_snr_does_not_overflow(self):
        # squaring gamma T B SNR = 2e157 overflows; the value is 5e155
        cfg = LinkConfig(2e-3, 1e4, 1.0, 1e160)
        assert effective_snr(cfg, 0.5).effective_snr == pytest.approx(5e155, rel=1e-12)

    def test_underflowed_nominal_snr_gives_zero(self):
        cfg = LinkConfig(2e-3, 1e4, 1.0, 1e-320)
        assert nominal_snr(cfg) == 0.0
        assert effective_snr(cfg, 0.5).effective_snr == 0.0

    def test_single_interior_maximum(self):
        # scanning rho on a fine grid must show one ascending run followed
        # by one descending run, nothing else
        cfg = make_cfg(snr=0.5)
        rhos = np.linspace(1e-4, 1.0 - 1e-4, 400)
        vals = np.array([effective_snr(cfg, r).effective_snr for r in rhos])
        diffs = np.sign(np.diff(vals))
        flips = np.count_nonzero(np.diff(diffs) != 0)
        assert flips == 1

    def test_low_snr_quadratic_scaling(self):
        # at vanishing SNR the usable SNR falls off as the square of the
        # nominal one: snr_eff ~ rho(1-rho) (gamma T B snr)^2 / (TB-1)
        t, b, gamma, rho = 2e-3, 1e5, 1.0, 0.5
        tb = t * b
        for snr in (1e-4, 1e-5):
            cfg = make_cfg(snr=snr, t=t, b=b, gamma=gamma)
            got = effective_snr(cfg, rho).effective_snr
            want = rho * (1 - rho) * (gamma * tb * snr) ** 2 / (tb - 1)
            assert got == pytest.approx(want, rel=1e-2)


class TestOutageThreshold:
    def test_zero_rate(self):
        cfg = make_cfg()
        assert outage_threshold(cfg, 0.0, 0.5) == 0.0
        assert outage_threshold(cfg, 0.0, 0.0) == 0.0

    def test_zero_snr_with_positive_rate(self):
        cfg = make_cfg()
        with pytest.raises(DomainError):
            outage_threshold(cfg, 100.0, 0.0)
        with pytest.raises(DomainError):
            outage_threshold(cfg, 100.0, -1.0)

    def test_unit_threshold_rate(self):
        # with snr_eff = 1, alpha = 1 exactly when the per-symbol rate
        # exponent is 1 bit, i.e. r = (TB-1)/T
        cfg = make_cfg(t=2e-3, b=1e5)
        tb = cfg.symbols_per_frame
        r = (tb - 1.0) / cfg.frame_duration_s
        assert outage_threshold(cfg, r, 1.0) == pytest.approx(1.0, rel=1e-12)

    def test_explicit_value(self):
        cfg = make_cfg(t=2e-3, b=1e5)
        tb = cfg.symbols_per_frame
        r = 2.0 * (tb - 1.0) / cfg.frame_duration_s
        # exponent is 2 bits, so alpha = (2^2 - 1) / snr_eff
        assert outage_threshold(cfg, r, 0.5) == pytest.approx(6.0, rel=1e-12)

    @given(
        r1=st.floats(1.0, 1e6),
        r2=st.floats(1.0, 1e6),
        snr_eff=st.floats(1e-6, 1e3),
    )
    @settings(max_examples=200)
    def test_monotone_in_rate(self, r1, r2, snr_eff):
        cfg = make_cfg()
        lo, hi = sorted((r1, r2))
        a_lo = outage_threshold(cfg, lo, snr_eff)
        a_hi = outage_threshold(cfg, hi, snr_eff)
        assert a_lo <= a_hi

    def test_overflow_to_inf(self):
        cfg = make_cfg()
        assert outage_threshold(cfg, 1e12, 1e-6) == math.inf

    def test_small_rate_linearizes(self):
        # expm1 keeps precision where a naive 2**x - 1 would round to zero
        cfg = make_cfg(t=2e-3, b=1e5)
        tb = cfg.symbols_per_frame
        r = 1e-9
        want = (cfg.frame_duration_s * r / (tb - 1.0)) * LN2
        got = outage_threshold(cfg, r, 1.0)
        assert got == pytest.approx(want, rel=1e-6)
