"""Effective capacity, optimal rate, bit energy and its minimum."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq, minimize_scalar

from effcap_kit import effcap as effcap_module
from effcap_kit._scalar import golden_max
from effcap_kit.effcap import _NEWTON_ITER_MAX, _NEWTON_STEP_TOL
from effcap_kit.link_model import _EXP_ARG_MAX
from effcap_kit import (
    ConvergenceError,
    DomainError,
    GridEndpointError,
    LinkConfig,
    QosSpec,
    bit_energy,
    bit_energy_db,
    effective_capacity_at,
    effective_capacity_theta0,
    effective_snr,
    min_bit_energy_numeric,
    nominal_snr,
    optimal_rate,
    rho_opt_closed_form,
    spectral_efficiency,
    with_nominal_snr,
)

LN2 = math.log(2.0)


def make_cfg(snr, t=2e-3, b=1e5, gamma=1.0):
    return LinkConfig(t, b, 1.0, snr * b, gamma)


def _spectral_efficiency_grid(cfg: LinkConfig, theta: float, snrs):
    """Jointly optimal R_E at every nominal SNR of an array, in one solve.

    A second, vectorized route to the optimum, kept as the oracle of the
    scalar solver effcap._solve.

    The array form of spectral_efficiency on with_nominal_snr(cfg, snr):
    the closed-form rho and effective SNR in the scalar operation order,
    then Newton's method on the rate stationarity condition in log form,
    G(u) = 0 with u = ln r, for all SNRs at once (effcap._solve is the
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


def eq14_raw(cfg, theta, rate, rho):
    """Independent scalar evaluation of the normalized effective capacity."""
    snr_eff = effective_snr(cfg, rho).effective_snr
    if rate == 0.0 or snr_eff <= 0.0:
        return 0.0
    tb = cfg.symbols_per_frame
    t = cfg.frame_duration_s
    alpha = (2.0 ** (rate * t / (tb - 1.0)) - 1.0) / snr_eff
    p_on = math.exp(-alpha)
    inner = 1.0 - p_on * (1.0 - math.exp(-theta * t * rate))
    return -math.log(inner) / (theta * t * cfg.bandwidth_hz)


class TestEffectiveCapacityAt:
    def test_zero_rate(self):
        cfg = make_cfg(0.1)
        assert effective_capacity_at(cfg, QosSpec(0.01), 0.0, 0.3) == 0.0

    def test_zero_snr_eff(self):
        cfg = make_cfg(0.1)
        # rho=0 starves the estimator, so the ON probability vanishes
        assert effective_capacity_at(cfg, QosSpec(0.01), 1e4, 0.0) == 0.0

    def test_rejects_theta_zero(self):
        cfg = make_cfg(0.1)
        with pytest.raises(DomainError):
            effective_capacity_at(cfg, QosSpec(0.0), 1e4, 0.3)

    def test_small_theta_taylor_limit(self):
        # around theta=0 the formula collapses to (r/B) e^{-alpha}
        cfg = make_cfg(0.5)
        rho, rate = 0.2, 2e4
        got = effective_capacity_at(cfg, QosSpec(1e-6), rate, rho)
        snr_eff = effective_snr(cfg, rho).effective_snr
        tb = cfg.symbols_per_frame
        alpha = (2.0 ** (rate * cfg.frame_duration_s / (tb - 1.0)) - 1.0) / snr_eff
        want = (rate / cfg.bandwidth_hz) * math.exp(-alpha)
        assert got == pytest.approx(want, rel=1e-3)

    def test_matches_raw_formula(self):
        cfg = make_cfg(0.5)
        for theta, rate, rho in [(0.01, 1e4, 0.2), (0.5, 3e4, 0.1), (2.0, 500.0, 0.4)]:
            got = effective_capacity_at(cfg, QosSpec(theta), rate, rho)
            assert got == pytest.approx(eq14_raw(cfg, theta, rate, rho), rel=1e-12)


class TestOptimalRate:
    def test_residual_recomputed_independently(self):
        # the stationarity condition, rebuilt here from scratch, must be
        # satisfied to 1e-12 at the returned rate
        for snr in (0.01, 0.1, 1.0, 10.0):
            for theta in (0.001, 0.01, 0.1, 1.0):
                cfg = make_cfg(snr)
                rho = rho_opt_closed_form(cfg).rho_opt
                res = optimal_rate(cfg, QosSpec(theta), rho)
                snr_eff = effective_snr(cfg, rho).effective_snr
                t = cfg.frame_duration_s
                tb = cfg.symbols_per_frame
                k = t * LN2 / ((tb - 1.0) * snr_eff)
                a = t / (tb - 1.0)
                r = res.rate_opt_bps
                e = math.exp(-theta * t * r)
                residual = k * 2.0 ** (a * r) * (1.0 - e) - theta * t * e
                assert abs(residual) < 1e-12, f"snr={snr} theta={theta}"

    def test_agrees_with_scalar_maximizer(self):
        # scipy's bounded Brent search over the rate is the oracle
        cfg = make_cfg(1.0)
        rho = rho_opt_closed_form(cfg).rho_opt
        for theta in (0.001, 0.1, 1.0):
            res = optimal_rate(cfg, QosSpec(theta), rho)
            opt = minimize_scalar(
                lambda r: -effective_capacity_at(cfg, QosSpec(theta), r, rho),
                bounds=(1.0, 20.0 * cfg.bandwidth_hz),
                method="bounded",
                options={"xatol": 1e-6},
            )
            assert res.spectral_efficiency == pytest.approx(-opt.fun, rel=1e-6)

    def test_rate_decreases_with_theta(self):
        cfg = make_cfg(0.5)
        rho = rho_opt_closed_form(cfg).rho_opt
        thetas = (1e-3, 1e-2, 1e-1, 1.0, 10.0)
        rates = [optimal_rate(cfg, QosSpec(th), rho).rate_opt_bps for th in thetas]
        assert all(a > b for a, b in zip(rates, rates[1:]))

    def test_dominates_random_rates(self):
        cfg = make_cfg(0.3)
        rho = rho_opt_closed_form(cfg).rho_opt
        qos = QosSpec(0.01)
        res = optimal_rate(cfg, qos, rho)
        rng = np.random.default_rng(20240817)
        rates = 10.0 ** rng.uniform(0.0, math.log10(20.0 * cfg.bandwidth_hz), 1000)
        for r in rates:
            other = effective_capacity_at(cfg, qos, float(r), rho)
            assert other <= res.spectral_efficiency * (1.0 + 1e-10)

    def test_fixed_point_consistency(self):
        cfg = make_cfg(2.0)
        rho = rho_opt_closed_form(cfg).rho_opt
        qos = QosSpec(0.05)
        res = optimal_rate(cfg, qos, rho)
        again = effective_capacity_at(cfg, qos, res.rate_opt_bps, rho)
        assert again == pytest.approx(res.spectral_efficiency, rel=1e-12)

    def test_rejects_bad_inputs(self):
        cfg = make_cfg(0.1)
        with pytest.raises(DomainError):
            optimal_rate(cfg, QosSpec(0.0), 0.3)
        with pytest.raises(DomainError):
            optimal_rate(cfg, QosSpec(0.01), 0.0)


def assert_local_maximizer(cfg, qos, res):
    for factor in (0.99, 1.01):
        other = effective_capacity_at(cfg, qos, factor * res.rate_opt_bps, res.rho_used)
        assert other < res.spectral_efficiency, f"beaten at {factor} x rate"


class TestRateAccuracy:
    """The scalar rate is as accurate as the array kernel's, at any scale."""

    @staticmethod
    def solve_both(t, b, snr, theta, gamma):
        cfg = LinkConfig(t, b, 1.0, snr * b, gamma)
        res = spectral_efficiency(cfg, QosSpec(theta))
        _, rate, _ = _spectral_efficiency_grid(cfg, theta, [snr])
        return cfg, res, float(rate[0])

    def test_rate_below_an_absolute_xtol(self):
        # an absolute brentq xtol of 2e-12 b/s returned 2e-12 here, which
        # 0.9 times the rate beats
        cfg, res, kernel = self.solve_both(
            2.274785400815622e-05,
            620397.0422462476,
            4.672822842284603e-08,
            1.4949290532635424e-08,
            0.01597426644841989,
        )
        assert res.rate_opt_bps == pytest.approx(kernel, rel=1e-12, abs=0.0)
        assert res.rate_opt_bps == pytest.approx(1.7595e-12, rel=1e-4)
        assert_local_maximizer(cfg, QosSpec(1.4949290532635424e-08), res)

    def test_residual_bound_scales_with_theta_t(self):
        # theta T = 5.6e-6: an absolute 1e-12 residual bound accepted a rate
        # 2.5e-9 relative off the root
        _, res, kernel = self.solve_both(
            10.0**-1.25, 10.0**6.75, 10.0**-7.5, 1e-4, 10.0**-0.5
        )
        assert res.rate_opt_bps == pytest.approx(kernel, rel=1e-12, abs=0.0)

    def test_huge_snr_does_not_overflow(self):
        # (gamma T B SNR)^2 = 4e314 overflowed the effective SNR to inf
        cfg = LinkConfig(2e-3, 1e4, 1.0, 1e160)
        qos = QosSpec(0.01)
        res = spectral_efficiency(cfg, qos)
        assert math.isfinite(res.spectral_efficiency)
        assert res.spectral_efficiency == pytest.approx(383.40177656501754, rel=1e-9)
        assert_local_maximizer(cfg, qos, res)
        _, _, re = _spectral_efficiency_grid(cfg, 0.01, [1e156])
        assert re[0] == pytest.approx(res.spectral_efficiency, rel=1e-12, abs=0.0)

    def test_subnormal_effective_snr(self):
        # snr_eff = 5e-324 makes k = T ln2 / ((TB-1) snr_eff) overflow
        cfg = LinkConfig(2e-3, 1e6, 1.0, 1e-157)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rho = rho_opt_closed_form(cfg).rho_opt
            assert 0.0 < effective_snr(cfg, rho).effective_snr < 1e-320
            with pytest.raises(DomainError, match="too small"):
                spectral_efficiency(cfg, QosSpec(0.01))
            assert spectral_efficiency(cfg, QosSpec(0.0)).spectral_efficiency == 0.0

    def test_newton_cap_raises(self, monkeypatch):
        # one Newton step cannot meet the step stop: the loop must raise,
        # not fall through with an unconverged rate
        monkeypatch.setattr(effcap_module, "_NEWTON_ITER_MAX", 1)
        cfg = make_cfg(0.5)
        with pytest.raises(ConvergenceError, match="Newton"):
            optimal_rate(cfg, QosSpec(0.01), 0.3)
        with pytest.raises(ConvergenceError, match="Newton"):
            effective_capacity_theta0(cfg, 0.3)

    @given(
        log_t=st.floats(-5.0, 0.0),
        log_b=st.floats(2.0, 10.0),
        log_snr=st.floats(-10.0, 160.0),
        theta=st.one_of(st.just(0.0), st.floats(-8.0, 3.0).map(lambda e: 10.0**e)),
        log_gamma=st.floats(-2.0, 2.0),
    )
    @settings(max_examples=500, deadline=None)
    def test_wide_box(self, log_t, log_b, log_snr, theta, log_gamma):
        t, b, gamma = 10.0**log_t, 10.0**log_b, 10.0**log_gamma
        assume(t * b > 2.0)
        cfg = LinkConfig(t, b, 1.0, 10.0**log_snr * b, gamma)
        qos = QosSpec(theta)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            try:
                res = spectral_efficiency(cfg, qos)
            except (DomainError, ConvergenceError):
                return
            fields = (
                res.rate_opt_bps,
                res.alpha_opt,
                res.rho_used,
                res.spectral_efficiency,
                res.on_probability,
            )
            assert all(math.isfinite(v) for v in fields), res
            if theta > 0.0:
                for factor in (0.99, 1.01):
                    other = effective_capacity_at(
                        cfg, qos, factor * res.rate_opt_bps, res.rho_used
                    )
                    assert other <= res.spectral_efficiency * (1.0 + 1e-12), factor


class TestThetaZero:
    def test_brute_force_grid_oracle(self):
        # pick the nominal SNR that makes the post-estimation SNR exactly 1
        # (solved here, independently), then compare the maximized r e^{-alpha}
        # with a million-point grid scan of the same objective
        t, b = 2e-3, 1e7
        rho = 0.3

        def snr_eff_at(snr):
            return effective_snr(make_cfg(snr, t=t, b=b), rho).effective_snr

        snr_star = brentq(lambda s: snr_eff_at(s) - 1.0, 1e-3, 1e3, xtol=1e-14)
        cfg = make_cfg(snr_star, t=t, b=b)
        res = effective_capacity_theta0(cfg, rho)

        tb = t * b
        rates = np.linspace(1.0, 3e7, 1_000_000)
        alpha = np.expm1(rates * (t / (tb - 1.0)) * LN2)  # snr_eff = 1
        values = rates * np.exp(-alpha)
        best = values.max()
        assert res.spectral_efficiency * b == pytest.approx(best, rel=1e-6)

    def test_rho_zero_gives_zero(self):
        cfg = make_cfg(0.1)
        res = effective_capacity_theta0(cfg, 0.0)
        assert res.spectral_efficiency == 0.0
        assert res.rate_opt_bps == 0.0
        assert res.on_probability == 0.0

    def test_upper_bounds_positive_theta(self):
        cfg = make_cfg(0.5)
        rho = rho_opt_closed_form(cfg).rho_opt
        r0 = effective_capacity_theta0(cfg, rho).spectral_efficiency
        r1 = optimal_rate(cfg, QosSpec(1e-4), rho).spectral_efficiency
        assert r0 >= r1

    def test_theta_continuity(self):
        cfg = make_cfg(0.5)
        rho = rho_opt_closed_form(cfg).rho_opt
        r0 = effective_capacity_theta0(cfg, rho).spectral_efficiency
        r_small = optimal_rate(cfg, QosSpec(1e-7), rho).spectral_efficiency
        assert abs(r_small - r0) / r0 < 1e-4


class TestSpectralEfficiency:
    def test_joint_grid_never_beats_composed(self):
        # exhaustive 200x200 grid over (rate, rho), built from raw numpy
        # without touching the package's own formulas
        t, b, gamma, theta = 2e-3, 1e5, 1.0, 0.01
        snr = 1.0
        cfg = make_cfg(snr, t=t, b=b, gamma=gamma)
        res = spectral_efficiency(cfg, QosSpec(theta))

        tb = t * b
        rhos = np.linspace(5e-3, 0.995, 200)[:, None]
        rates = np.linspace(1.0, 5.0 * b, 200)[None, :]
        e_t = rhos * snr * tb  # pilot energy over N0
        sigma_est = gamma**2 * e_t / (gamma * e_t + 1.0)
        sigma_err = gamma / (gamma * e_t + 1.0)
        e_s = (1.0 - rhos) * snr * tb / (tb - 1.0)  # data energy over N0
        snr_eff = sigma_est * e_s / (1.0 + sigma_err * e_s)
        alpha = np.expm1(rates * (t / (tb - 1.0)) * LN2) / snr_eff
        inner = 1.0 - np.exp(-alpha) * (-np.expm1(-theta * t * rates))
        grid = -np.log(inner) / (theta * t * b)
        assert grid.max() <= res.spectral_efficiency * (1.0 + 1e-6)

    def test_near_sure_on_keeps_outage_term(self):
        # p_on rounds to 1 here while theta T r is about 47, so the outage
        # term alpha ~ 1.4e-18 outweighs exp(-theta T r) and sets R_E
        cfg = LinkConfig(0.6195, 5.3964e7, 1.0, 4.458e7 * 5.3964e7, 22.294)
        res = spectral_efficiency(cfg, QosSpec(655.66))
        assert res.on_probability == 1.0
        assert res.spectral_efficiency == pytest.approx(1.8735916055e-9, rel=1e-9)

    def test_uses_closed_form_rho(self):
        cfg = make_cfg(0.7)
        res = spectral_efficiency(cfg, QosSpec(0.2))
        assert res.rho_used == rho_opt_closed_form(cfg).rho_opt

    def test_nondecreasing_in_snr(self):
        for theta in (0.0, 0.01, 1.0):
            values = [
                spectral_efficiency(make_cfg(s), QosSpec(theta)).spectral_efficiency
                for s in np.geomspace(1e-3, 1e2, 20)
            ]
            assert all(a <= b + 1e-15 for a, b in zip(values, values[1:]))

    def test_nonincreasing_in_theta(self):
        cfg = make_cfg(0.5)
        hi = spectral_efficiency(cfg, QosSpec(0.001)).spectral_efficiency
        lo = spectral_efficiency(cfg, QosSpec(1.0)).spectral_efficiency
        assert lo <= hi

    def test_on_off_bound(self):
        # R_E B <= r e^{-alpha}, tight as theta vanishes
        cfg = make_cfg(0.5)
        for theta, gap_cap in ((0.01, None), (1e-6, 1e-3)):
            res = spectral_efficiency(cfg, QosSpec(theta))
            cap = res.rate_opt_bps * res.on_probability
            achieved = res.spectral_efficiency * cfg.bandwidth_hz
            assert achieved <= cap * (1.0 + 1e-12)
            if gap_cap is not None:
                assert (cap - achieved) / achieved < gap_cap


class TestBitEnergy:
    def test_ratio_identity(self):
        for snr, theta in ((0.1, 0.01), (1.0, 0.0), (5.0, 1.0)):
            cfg = make_cfg(snr)
            qos = QosSpec(theta)
            se = spectral_efficiency(cfg, qos).spectral_efficiency
            assert bit_energy(cfg, qos) == pytest.approx(snr / se, rel=1e-12)
            assert bit_energy_db(cfg, qos) == pytest.approx(
                10.0 * math.log10(snr / se), rel=1e-12
            )

    def test_diverges_at_low_snr(self):
        qos = QosSpec(0.01)
        grid = np.geomspace(1e-6, 10.0, 48)
        cfg = make_cfg(1.0)
        _, min_db = min_bit_energy_numeric(cfg, qos, grid)
        low = bit_energy_db(make_cfg(1e-6), qos)
        assert low >= min_db + 10.0

    def test_interior_grid_minimum(self):
        qos = QosSpec(0.01)
        grid = np.geomspace(1e-6, 10.0, 48)
        values = [bit_energy_db(make_cfg(float(s)), qos) for s in grid]
        k = int(np.argmin(values))
        assert 0 < k < len(grid) - 1


class TestMinBitEnergy:
    def test_decreasing_then_increasing(self):
        qos = QosSpec(0.01)
        grid = np.geomspace(1e-6, 10.0, 48)
        values = [bit_energy_db(make_cfg(float(s)), qos) for s in grid]
        k = int(np.argmin(values))
        before, after = values[: k + 1], values[k:]
        assert all(a > b for a, b in zip(before, before[1:]))
        assert all(a < b for a, b in zip(after, after[1:]))

    def test_wider_band_lowers_minimum(self):
        qos = QosSpec(0.01)
        grid = np.geomspace(1e-6, 10.0, 48)
        _, narrow = min_bit_energy_numeric(make_cfg(1.0, b=1e5), qos, grid)
        _, wide = min_bit_energy_numeric(make_cfg(1.0, b=1e7), qos, grid)
        assert wide < narrow

    def test_refinement_is_grid_stable(self):
        qos = QosSpec(0.01)
        cfg = make_cfg(1.0)
        base = np.geomspace(1e-6, 10.0, 48)
        step = base[1] / base[0]
        _, db0 = min_bit_energy_numeric(cfg, qos, base)
        _, db_minus = min_bit_energy_numeric(cfg, qos, base / step)
        _, db_plus = min_bit_energy_numeric(cfg, qos, base * step)
        assert abs(db_minus - db0) < 1e-3
        assert abs(db_plus - db0) < 1e-3

    def test_endpoint_minimum_is_flagged(self):
        # the minimizer near snr 0.18 sits below this grid, so the best
        # grid point is the left edge
        qos = QosSpec(0.01)
        with pytest.raises(GridEndpointError):
            min_bit_energy_numeric(make_cfg(1.0), qos, np.geomspace(1.0, 10.0, 16))

    def test_grid_validation(self):
        cfg = make_cfg(1.0)
        qos = QosSpec(0.01)
        with pytest.raises(DomainError):
            min_bit_energy_numeric(cfg, qos, np.geomspace(1e-4, 1.0, 15))
        with pytest.raises(DomainError):
            min_bit_energy_numeric(cfg, qos, np.geomspace(1e-4, 1.0, 16)[::-1])
        with pytest.raises(DomainError):
            min_bit_energy_numeric(cfg, qos, np.linspace(-1.0, 1.0, 16))


def golden_min_bit_energy(cfg, qos, grid):
    """Reference route for min_bit_energy_numeric: a scalar scan of the
    grid, then golden-section search in log10(SNR) between the best grid
    point's neighbours, stopped at a 1e-6 bracket."""

    def objective(log_snr):
        return bit_energy_db(with_nominal_snr(cfg, 10.0**log_snr), qos)

    values = [bit_energy_db(with_nominal_snr(cfg, s), qos) for s in grid]
    best = min(range(len(grid)), key=values.__getitem__)
    lo, hi = math.log10(grid[best - 1]), math.log10(grid[best + 1])
    log_best = golden_max(lambda x: -objective(x), lo, hi, 1e-6)
    return 10.0**log_best, objective(log_best)


# recipes/fig6.cfg: 33 bandwidths, four thetas, the CLI's default SNR grid
FIG6_BANDS = np.geomspace(1e4, 1e8, 33)
FIG6_SNR_GRID = np.geomspace(1e-6, 10.0, 48)


def fig6_link(bandwidth):
    return LinkConfig(2e-3, float(bandwidth), 1.0, 1e-6 * bandwidth, 1.0)


class TestMinBitEnergyOracle:
    @pytest.mark.parametrize("theta", [0.0, 0.001, 0.01, 0.1, 1.0])
    def test_fig6_rows_match_golden_section(self, theta):
        qos = QosSpec(theta)
        for b in FIG6_BANDS:
            cfg = fig6_link(b)
            snr, db = min_bit_energy_numeric(cfg, qos, FIG6_SNR_GRID)
            want_snr, want_db = golden_min_bit_energy(cfg, qos, FIG6_SNR_GRID)
            assert snr == pytest.approx(want_snr, rel=1e-5, abs=0.0), f"B={b}"
            assert db == pytest.approx(want_db, rel=1e-9, abs=0.0), f"B={b}"

    def test_located_snr_zeroes_the_slope_gap(self):
        qos = QosSpec(0.01)
        cfg = fig6_link(1e6)
        snr, _ = min_bit_energy_numeric(cfg, qos, FIG6_SNR_GRID)
        gap = effcap_module._log_slope_gap(cfg, qos, math.log(snr))
        assert abs(gap) <= effcap_module._SLOPE_GAP_TOL


def log_capacity(cfg, qos, log_snr):
    link = with_nominal_snr(cfg, math.exp(log_snr))
    return math.log(spectral_efficiency(link, qos).spectral_efficiency)


class TestSlopeGap:
    @pytest.mark.parametrize("theta", [0.0, 1e-3, 1e-2, 1.0])
    def test_matches_central_difference(self, theta):
        qos = QosSpec(theta)
        step = 1e-4
        for b in (1e5, 1e7):
            cfg = fig6_link(b)
            for snr in (1e-4, 1e-2, 0.3, 10.0):
                x = math.log(snr)
                slope = (
                    log_capacity(cfg, qos, x + step) - log_capacity(cfg, qos, x - step)
                ) / (2.0 * step)
                got = effcap_module._log_slope_gap(cfg, qos, x)
                assert got == pytest.approx(slope - 1.0, abs=1e-7), f"B={b} snr={snr}"

    def test_no_sign_change_raises(self, monkeypatch):
        monkeypatch.setattr(effcap_module, "_log_slope_gap", lambda cfg, qos, x: 1.0)
        with pytest.raises(ConvergenceError, match="no sign change"):
            min_bit_energy_numeric(fig6_link(1e6), QosSpec(0.01), FIG6_SNR_GRID)

    def test_exhausted_iterations_raise(self, monkeypatch):
        monkeypatch.setattr(effcap_module, "_SLOPE_GAP_ITER_MAX", 1)
        with pytest.raises(ConvergenceError, match="not zeroed"):
            min_bit_energy_numeric(fig6_link(1e6), QosSpec(0.01), FIG6_SNR_GRID)


class TestSpectralEfficiencyGrid:
    @given(
        log_t=st.floats(-4.0, 0.0),
        log_b=st.floats(3.0, 9.0),
        log_snrs=st.lists(st.floats(-8.0, 4.0), min_size=1, max_size=4),
        theta=st.one_of(st.just(0.0), st.floats(-4.0, 1.0).map(lambda e: 10.0**e)),
        log_gamma=st.floats(-1.0, 1.0),
    )
    @settings(max_examples=300, deadline=None)
    def test_matches_scalar_route(self, log_t, log_b, log_snrs, theta, log_gamma):
        t, b, gamma = 10.0**log_t, 10.0**log_b, 10.0**log_gamma
        assume(t * b > 2.0)
        cfg = LinkConfig(t, b, 1.0, b, gamma)
        snrs = [10.0**e for e in log_snrs]
        nominal, rate, re = _spectral_efficiency_grid(cfg, theta, snrs)
        for i, snr in enumerate(snrs):
            link = with_nominal_snr(cfg, snr)
            want = spectral_efficiency(link, QosSpec(theta))
            assert nominal[i] == nominal_snr(link)
            assert rate[i] == pytest.approx(want.rate_opt_bps, rel=1e-12, abs=0.0)
            assert re[i] == pytest.approx(want.spectral_efficiency, rel=1e-12, abs=0.0)

    def test_iteration_cap_raises(self, monkeypatch):
        # the grid scan of min_bit_energy_numeric runs the scalar solver
        monkeypatch.setattr(effcap_module, "_NEWTON_ITER_MAX", 1)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for theta in (0.0, 0.01):
                with pytest.raises(ConvergenceError, match="Newton"):
                    min_bit_energy_numeric(fig6_link(1e6), QosSpec(theta), FIG6_SNR_GRID)

    @staticmethod
    def check_unusable_snr(snr, message):
        # an unusable grid point raises at theta > 0; at theta = 0 it has
        # zero capacity, so infinite bit energy, and the search goes on
        cfg = fig6_link(1e6)
        grid = [snr, *FIG6_SNR_GRID]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match=message):
                effcap_module._solve(2e-3, 1e6, 1.0, snr, 0.01)
            with pytest.raises(DomainError, match=message):
                min_bit_energy_numeric(cfg, QosSpec(0.01), grid)
            assert effcap_module._solve(2e-3, 1e6, 1.0, snr, 0.0)[4] == 0.0
            assert bit_energy(with_nominal_snr(cfg, snr), QosSpec(0.0)) == math.inf
            got = min_bit_energy_numeric(cfg, QosSpec(0.0), grid)
        assert got == min_bit_energy_numeric(cfg, QosSpec(0.0), FIG6_SNR_GRID)

    def test_subnormal_effective_snr(self):
        # SNR 1e-163 gives an effective SNR of 5e-324, so k overflows
        _, snr_eff, *_ = effcap_module._solve(2e-3, 1e6, 1.0, 1e-163, 0.0)
        assert 0.0 < snr_eff < 1e-320
        self.check_unusable_snr(1e-163, "too small")

    def test_zero_effective_snr(self):
        # gamma T B SNR = 2e-167 gives an effective SNR that underflows to zero
        _, snr_eff, rate, alpha, _ = effcap_module._solve(2e-3, 1e6, 1.0, 1e-170, 0.0)
        assert snr_eff == 0.0 and rate == 0.0 and alpha == math.inf
        self.check_unusable_snr(1e-170, "zero")


def test_underflowed_nominal_snr_raises_domain_error():
    # P / (N0 B) = 1e-30 / 1e304 underflows to zero; gamma T B SNR = 0 has
    # no finite training split, so every solve raises a typed error
    cfg = LinkConfig(1e-3, 1e4, 1e300, 1e-30)
    assert nominal_snr(cfg) == 0.0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError, match="training fraction"):
            rho_opt_closed_form(cfg)
        for theta in (0.0, 0.01):
            with pytest.raises(DomainError, match="training fraction"):
                spectral_efficiency(cfg, QosSpec(theta))
            with pytest.raises(DomainError, match="training fraction"):
                bit_energy_db(cfg, QosSpec(theta))


def test_result_invariants():
    cfg = make_cfg(0.5)
    for theta in (0.0, 0.01, 1.0):
        res = spectral_efficiency(cfg, QosSpec(theta))
        assert res.rate_opt_bps >= 0.0
        assert res.alpha_opt >= 0.0
        assert 0.0 <= res.rho_used <= 1.0
        assert res.spectral_efficiency >= 0.0
        assert 0.0 <= res.on_probability <= 1.0
        assert res.on_probability == pytest.approx(
            math.exp(-res.alpha_opt), rel=1e-12
        )


def test_nominal_snr_identity_for_bit_energy_cfgs():
    cfg = make_cfg(0.25)
    assert nominal_snr(cfg) == pytest.approx(0.25, rel=1e-15)
