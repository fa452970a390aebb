"""Parallel-subchannel model, its asymptotics and the growth-law taxonomy."""

import decimal
import itertools
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import logsumexp
from scipy.stats import binom

from effcap_kit import (
    ConvergenceError,
    DomainError,
    GrowthLaw,
    LinkConfig,
    QosSpec,
    ScenarioTag,
    WidebandConfig,
    asymptotics_numeric_check,
    asymptotics_sparse_bounded,
    bit_energy_vs_bandwidth,
    classify_scenario,
    effective_capacity_at,
    effective_capacity_wideband,
    effective_snr,
    effective_snr_expansion,
    last_decade_rise_db,
    optimize_wideband_iid,
    outage_threshold,
    rho_opt_closed_form,
    spectral_efficiency,
    training_fraction_expansion,
    transition_probabilities,
    uniform_wideband_config,
)

LN2 = math.log(2.0)


def hetero_config(n, bc=1e4, t=2e-3, powers=None, variances=None, rhos=None):
    powers = tuple(powers) if powers is not None else tuple(1e3 + 100.0 * k for k in range(n))
    variances = tuple(variances) if variances is not None else tuple(1.0 + 0.1 * k for k in range(n))
    rhos = tuple(rhos) if rhos is not None else tuple(0.2 + 0.5 * k / max(n - 1, 1) for k in range(n))
    link = LinkConfig(t, n * bc, 1.0, sum(powers))
    return WidebandConfig(
        num_subchannels=n,
        coherence_bandwidth_hz=bc,
        link=link,
        per_subchannel_variances=variances,
        per_subchannel_powers=powers,
        per_subchannel_rho=rhos,
    )


def on_probability(bc, t, n0, power, gamma, rho, rate):
    sub = LinkConfig(t, bc, n0, power, gamma)
    snr_eff = effective_snr(sub, rho).effective_snr
    if snr_eff <= 0.0 and rate > 0.0:
        return 0.0
    return math.exp(-outage_threshold(sub, rate, snr_eff))


class TestWidebandConfig:
    def test_bandwidth_must_match(self):
        link = LinkConfig(2e-3, 5e4, 1.0, 1e3)
        with pytest.raises(DomainError):
            WidebandConfig(4, 1e4, link, (1.0,) * 4, (250.0,) * 4, (0.5,) * 4)

    def test_subchannel_frame_size(self):
        with pytest.raises(DomainError):
            hetero_config(2, bc=900.0)  # t * bc = 1.8 <= 2

    def test_power_budget_enforced(self):
        link = LinkConfig(2e-3, 2e4, 1.0, 1e3)
        with pytest.raises(DomainError):
            WidebandConfig(2, 1e4, link, (1.0, 1.0), (600.0, 600.0), (0.5, 0.5))

    def test_list_lengths_checked(self):
        link = LinkConfig(2e-3, 2e4, 1.0, 1e3)
        with pytest.raises(DomainError):
            WidebandConfig(2, 1e4, link, (1.0,), (500.0, 500.0), (0.5, 0.5))

    def test_rho_in_unit_interval(self):
        link = LinkConfig(2e-3, 2e4, 1.0, 1e3)
        with pytest.raises(DomainError):
            WidebandConfig(2, 1e4, link, (1.0, 1.0), (500.0, 500.0), (0.5, 1.5))

    def test_first_bad_entry_names_its_rule(self):
        link = LinkConfig(2e-3, 2e4, 1.0, 1e3)
        powers, rhos = (500.0, 500.0), (0.5, 0.5)
        with pytest.raises(DomainError, match="must be > 0"):
            WidebandConfig(2, 1e4, link, (-1.0, math.nan), powers, rhos)
        with pytest.raises(DomainError, match="must be finite"):
            WidebandConfig(2, 1e4, link, (math.inf, -1.0), powers, rhos)

    def test_derived_state_is_not_a_field(self):
        a, b = hetero_config(5), hetero_config(5)
        assert a == b
        assert hash(a) == hash(b)
        assert "snr_eff" not in repr(a)
        assert isinstance(a.per_subchannel_powers[0], float)

    def test_rejects_bad_count(self):
        link = LinkConfig(2e-3, 2e4, 1.0, 1e3)
        with pytest.raises(DomainError):
            WidebandConfig(0, 1e4, link, (), (), ())
        with pytest.raises(DomainError):
            WidebandConfig(True, 2e4, link, (1.0,), (1e3,), (0.5,))


class TestTransitionProbabilities:
    def test_single_subchannel_two_state(self):
        wcfg = uniform_wideband_config(1, 1e4, 2e-3, 1.0, 1e3, rho=0.3)
        rate = 5e3
        probs = transition_probabilities(wcfg, rate)
        p_on = on_probability(1e4, 2e-3, 1.0, 1e3, 1.0, 0.3, rate)
        assert probs.shape == (2,)
        assert probs[0] == pytest.approx(1.0 - p_on, abs=1e-15)
        assert probs[1] == pytest.approx(p_on, abs=1e-15)

    @pytest.mark.parametrize("n", [2, 5, 11, 20])
    def test_iid_matches_binomial(self, n):
        wcfg = uniform_wideband_config(n, 1e4, 2e-3, 1.0, 1e3 * n, rho=0.4)
        rate = 8e3
        probs = transition_probabilities(wcfg, rate)
        p_on = on_probability(1e4, 2e-3, 1.0, 1e3, 1.0, 0.4, rate)
        want = binom.pmf(np.arange(n + 1), n, p_on)
        np.testing.assert_allclose(probs, want, rtol=0, atol=1e-12)

    def test_three_heterogeneous_subsets(self):
        wcfg = hetero_config(3)
        rate = 4e3
        probs = transition_probabilities(wcfg, rate)
        ps = [
            on_probability(
                wcfg.coherence_bandwidth_hz,
                wcfg.link.frame_duration_s,
                wcfg.link.noise_psd,
                wcfg.per_subchannel_powers[k],
                wcfg.per_subchannel_variances[k],
                wcfg.per_subchannel_rho[k],
                rate,
            )
            for k in range(3)
        ]
        want = np.zeros(4)
        for states in itertools.product((0, 1), repeat=3):
            weight = 1.0
            for s, p in zip(states, ps):
                weight *= p if s else (1.0 - p)
            want[sum(states)] += weight
        np.testing.assert_allclose(probs, want, rtol=0, atol=1e-14)

    def test_random_heterogeneous_against_enumeration(self):
        rng = np.random.default_rng(41)
        for _ in range(50):
            n = int(rng.integers(1, 13))
            powers = rng.uniform(100.0, 5e3, n)
            variances = rng.uniform(0.5, 2.0, n)
            rhos = rng.uniform(0.05, 0.95, n)
            wcfg = hetero_config(
                n, powers=powers, variances=variances, rhos=rhos
            )
            rate = float(rng.uniform(1e3, 2e4))
            probs = transition_probabilities(wcfg, rate)
            ps = [
                on_probability(
                    1e4, 2e-3, 1.0, powers[k], variances[k], rhos[k], rate
                )
                for k in range(n)
            ]
            want = np.zeros(n + 1)
            for states in itertools.product((0, 1), repeat=n):
                weight = 1.0
                for s, p in zip(states, ps):
                    weight *= p if s else (1.0 - p)
                want[sum(states)] += weight
            np.testing.assert_allclose(probs, want, rtol=0, atol=1e-12)
            assert probs.sum() == pytest.approx(1.0, abs=1e-12)

    def test_normalization(self):
        for n in (1, 3, 8):
            wcfg = hetero_config(n)
            probs = transition_probabilities(wcfg, 6e3)
            assert probs.sum() == pytest.approx(1.0, abs=1e-12)
            assert (probs >= 0.0).all()


class TestWidebandCapacity:
    def test_iid_factorizes_to_subchannel_form(self):
        rng = np.random.default_rng(57)
        for _ in range(100):
            n = int(rng.integers(1, 30))
            bc = float(rng.uniform(2e3, 5e4))
            per_power = float(rng.uniform(50.0, 5e3))
            rho = float(rng.uniform(0.05, 0.95))
            gamma = float(rng.uniform(0.5, 2.0))
            theta = float(rng.uniform(1e-4, 2.0))
            rate = float(rng.uniform(1e2, 3e4))
            wcfg = uniform_wideband_config(
                n, bc, 2e-3, 1.0, per_power * n, gamma, rho
            )
            wide = effective_capacity_wideband(wcfg, QosSpec(theta), rate)
            sub = LinkConfig(2e-3, bc, 1.0, per_power, gamma)
            narrow = effective_capacity_at(sub, QosSpec(theta), rate, rho)
            assert wide == pytest.approx(narrow, rel=1e-10)

    def test_two_subchannel_identity(self):
        wcfg = uniform_wideband_config(2, 1e4, 2e-3, 1.0, 2e3, rho=0.35)
        theta, rate = 0.02, 7e3
        wide = effective_capacity_wideband(wcfg, QosSpec(theta), rate)
        p_on = on_probability(1e4, 2e-3, 1.0, 1e3, 1.0, 0.35, rate)
        t = 2e-3
        inner = (1.0 - p_on) + p_on * math.exp(-theta * t * rate)
        want = -math.log(inner**2) / (theta * t * 2e4)
        assert wide == pytest.approx(want, rel=1e-12)

    def test_huge_rate_gives_zero(self):
        wcfg = uniform_wideband_config(3, 1e4, 2e-3, 1.0, 3e3)
        assert effective_capacity_wideband(wcfg, QosSpec(0.01), 1e12) == 0.0

    def test_rejects_theta_zero(self):
        wcfg = uniform_wideband_config(2, 1e4, 2e-3, 1.0, 2e3)
        with pytest.raises(DomainError):
            effective_capacity_wideband(wcfg, QosSpec(0.0), 1e3)

    @pytest.mark.parametrize("rate", [-1.0, math.nan, math.inf])
    def test_rejects_bad_rate(self, rate):
        wcfg = hetero_config(3)
        with pytest.raises(DomainError):
            effective_capacity_wideband(wcfg, QosSpec(0.01), rate)
        with pytest.raises(DomainError):
            transition_probabilities(wcfg, rate)


class TestSubchannelEffectiveSnr:
    @pytest.mark.parametrize("per_power", [1e-150, 1e-3, 5e2, 1e160])
    def test_iid_matches_effective_snr_bit_for_bit(self, per_power):
        wcfg = uniform_wideband_config(4, 1e4, 2e-3, 1.0, 4 * per_power, 1.7, 0.3)
        sub = LinkConfig(2e-3, 1e4, 1.0, wcfg.per_subchannel_powers[0], 1.7)
        want = effective_snr(sub, 0.3).effective_snr
        assert math.isfinite(want)
        assert wcfg._snr_eff.tolist() == [want] * 4

    def test_unpowered_subchannels_give_zero_without_warnings(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            wcfg = hetero_config(3, powers=(0.0, 1e3, 0.0))
        assert wcfg._snr_eff[0] == 0.0 and wcfg._snr_eff[2] == 0.0
        assert wcfg._snr_eff[1] > 0.0


def poisson_binomial_capacity(wcfg, theta, rate):
    """R_E from the law of the ON count: the route the capacity used to take."""
    probs = transition_probabilities(wcfg, rate)
    theta_t = theta * wcfg.link.frame_duration_s
    j = np.arange(probs.size, dtype=float)
    log_mgf = logsumexp(-theta_t * rate * j, b=probs)
    return -log_mgf / (theta_t * wcfg.link.bandwidth_hz)


@st.composite
def hetero_cases(draw):
    n = draw(st.integers(1, 40))

    def per_subchannel(values):
        return draw(st.lists(values, min_size=n, max_size=n))

    powers = per_subchannel(st.one_of(st.just(0.0), st.floats(100.0, 5e3)))
    variances = per_subchannel(st.floats(0.5, 2.0))
    rhos = per_subchannel(st.floats(0.05, 0.95))
    # the budget only bounds the powers, so it may exceed their sum
    link = LinkConfig(2e-3, n * 1e4, 1.0, sum(powers) + 1.0)
    wcfg = WidebandConfig(n, 1e4, link, variances, powers, rhos)
    rate = draw(st.one_of(st.just(0.0), st.floats(0.0, 1e5)))
    theta = 10.0 ** draw(st.floats(-4.0, math.log10(2.0)))
    return wcfg, theta, rate


class TestFactorisedCapacity:
    @given(case=hetero_cases())
    @settings(max_examples=300, deadline=None)
    def test_matches_count_distribution(self, case):
        wcfg, theta, rate = case
        got = effective_capacity_wideband(wcfg, QosSpec(theta), rate)
        assert math.isfinite(got)
        assert 0.0 <= got <= rate / wcfg.coherence_bandwidth_hz * (1.0 + 1e-12)
        want = poisson_binomial_capacity(wcfg, theta, rate)
        assert got == pytest.approx(want, rel=1e-9, abs=1e-12)

    def test_tiny_capacity_stays_positive(self):
        # the count-distribution route returns -5.3e-121 here: its log of a
        # sum within 1e-16 of one cannot resolve the true 8.65e-121
        n, power, gamma, rho = 40, 882.720681721685, 1.6018657271138217, 0.15230481792926306
        theta, rate = 0.014917105851575307, 32454.19040941773
        wcfg = uniform_wideband_config(n, 1e4, 2e-3, 1.0, power * n, gamma, rho)
        got = effective_capacity_wideband(wcfg, QosSpec(theta), rate)
        sub = LinkConfig(2e-3, 1e4, 1.0, power, gamma)
        narrow = effective_capacity_at(sub, QosSpec(theta), rate, rho)
        assert narrow == pytest.approx(8.652e-121, rel=1e-3)
        assert got == pytest.approx(narrow, rel=1e-10, abs=0.0)

    def test_near_sure_on_matches_narrowband(self):
        # p_on rounds to 1 on every subchannel; the outage term must still
        # set the capacity, exactly as in the narrowband evaluation
        t, b, snr, theta, gamma = 0.6195, 5.3964e7, 4.458e7, 655.66, 22.294
        sub = LinkConfig(t, b, 1.0, snr * b, gamma)
        best = spectral_efficiency(sub, QosSpec(theta))
        wcfg = uniform_wideband_config(4, b, t, 1.0, 4 * snr * b, gamma, best.rho_used)
        got = effective_capacity_wideband(wcfg, QosSpec(theta), best.rate_opt_bps)
        assert got == pytest.approx(best.spectral_efficiency, rel=1e-10, abs=0.0)
        assert got == pytest.approx(1.8735916055e-9, rel=1e-9)


class TestOptimizeIid:
    def test_delegates_to_subchannel_problem(self):
        wcfg = uniform_wideband_config(8, 1e4, 2e-3, 1.0, 8e3, rho=0.7)
        qos = QosSpec(0.05)
        got = optimize_wideband_iid(wcfg, qos)
        sub = LinkConfig(2e-3, 1e4, 1.0, 1e3)
        want = spectral_efficiency(sub, qos)
        assert got == want

    def test_rejects_heterogeneous_config(self):
        wcfg = hetero_config(3)
        with pytest.raises(DomainError):
            optimize_wideband_iid(wcfg, QosSpec(0.05))

    def test_optimum_bounds_fixed_rate_evaluations(self):
        wcfg = uniform_wideband_config(4, 1e4, 2e-3, 1.0, 4e3, rho=0.5)
        qos = QosSpec(0.05)
        best = optimize_wideband_iid(wcfg, qos).spectral_efficiency
        for rate in np.geomspace(1e2, 1e5, 25):
            fixed = effective_capacity_wideband(wcfg, qos, float(rate))
            assert fixed <= best * (1.0 + 1e-10)


class TestAsymptotics:
    def test_known_limit_values_theta0(self):
        a = asymptotics_sparse_bounded(0.0, 2e-3, 1, 1e4, 1.0)
        assert 10.0 * math.log10(a.ebn0_min) == pytest.approx(4.6776, abs=5e-3)
        assert a.wideband_slope == pytest.approx(0.4720, abs=5e-4)
        assert a.alpha_star == 1.0
        assert a.xi == 1.0
        assert a.delta == 0.0

    def test_known_limit_values_theta1(self):
        a = asymptotics_sparse_bounded(1.0, 2e-3, 1, 1e4, 1.0)
        assert 10.0 * math.log10(a.ebn0_min) == pytest.approx(10.8333, abs=5e-3)
        assert a.wideband_slope == pytest.approx(0.6061, abs=5e-4)

    def test_alpha_star_fixed_point(self):
        for theta in (1e-3, 1e-2, 0.1, 1.0, 10.0):
            a = asymptotics_sparse_bounded(theta, 2e-3, 1, 1e4, 1.0)
            x = theta * 2e-3 * a.phi / LN2
            assert abs(a.alpha_star - math.log1p(x) / x) < 1e-12

    def test_rate_stationarity_at_limit(self):
        # the limiting optimal rate r* = phi alpha* / ln2 must satisfy the
        # stationarity condition of the limiting objective
        for theta in (1e-3, 0.1, 1.0):
            t = 2e-3
            a = asymptotics_sparse_bounded(theta, t, 1, 1e4, 1.0)
            r_star = a.phi * a.alpha_star / LN2
            residual = (LN2 / a.phi) * (
                1.0 - math.exp(-theta * t * a.phi * a.alpha_star / LN2)
            ) - theta * t * math.exp(-theta * t * r_star)
            assert abs(residual) < 1e-10

    def test_xi_in_unit_interval(self):
        for theta in (1e-4, 1e-2, 1.0, 100.0):
            a = asymptotics_sparse_bounded(theta, 2e-3, 1, 1e4, 1.0)
            assert 0.0 < a.xi < 1.0

    def test_count_does_not_enter_the_ratio_form(self):
        a1 = asymptotics_sparse_bounded(0.01, 2e-3, 1, 1e4, 1.0)
        a8 = asymptotics_sparse_bounded(0.01, 2e-3, 8, 1e4, 1.0)
        assert a1 == a8

    def test_input_validation(self):
        with pytest.raises(DomainError):
            asymptotics_sparse_bounded(-0.1, 2e-3, 1, 1e4, 1.0)
        with pytest.raises(DomainError):
            asymptotics_sparse_bounded(0.1, 0.0, 1, 1e4, 1.0)
        with pytest.raises(DomainError):
            asymptotics_sparse_bounded(0.1, 2e-3, 0, 1e4, 1.0)
        with pytest.raises(DomainError):
            asymptotics_sparse_bounded(0.1, 2e-3, 1, -1e4, 1.0)

    @pytest.mark.parametrize(
        "call",
        [
            # gamma p T = 1e-302: phi underflows to zero
            lambda: asymptotics_sparse_bounded(0.01, 1.0, 1, 1e-300, 1e-2),
            # gamma p T overflows, so q = 1 / (gamma p T) is zero
            lambda: training_fraction_expansion(1.0, 1e308, 100.0),
            lambda: effective_snr_expansion(1.0, 1e308, 100.0),
            lambda: asymptotics_sparse_bounded(0.01, 1.0, 1, 1e308, 100.0),
            # theta T phi / ln2 overflows; at theta = 1e300 it is 1.4e304
            # and xi = 5e-302 is finite (test_xi_matches_decimal_reference)
            lambda: asymptotics_sparse_bounded(1e305, 1.0, 1, 1e4, 1.0),
        ],
        ids=["phi-underflow", "q-zero-rho", "q-zero-phi", "q-zero-limits", "xi-zero"],
    )
    def test_out_of_range_intermediates_raise_domain_error(self, call):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError):
                call()


def _decimal_expansion(t, p, gamma):
    """phi and rho_dot0 to 60 significant digits from the float inputs.

    The difference sqrt(1 + q) - sqrt(q) cancels about log10(q) digits,
    so it is taken at 60 digits more than that.
    """
    with decimal.localcontext() as ctx:
        ctx.prec = 60
        t, p, gamma = decimal.Decimal(t), decimal.Decimal(p), decimal.Decimal(gamma)
        q = 1 / (gamma * p * t)
        ctx.prec += max(q.adjusted(), 0)
        spread = (1 + q).sqrt() - q.sqrt()
        phi = gamma * p * spread * spread
        rho_dot0 = (1 + gamma * p * t).sqrt() * spread * spread / (2 * t)
        return float(phi), float(rho_dot0)


def _decimal_limits(theta, t, p, gamma):
    """xi at theta and the theta = 0 wideband slope, from the float inputs.

    1 - (1 - xi) cancels about log10(theta T phi / ln2) digits and
    sqrt(1 + gamma p T) - 1 about -log10(gamma p T), so both are taken at
    60 digits more than they cancel.
    """
    D = decimal.Decimal
    with decimal.localcontext() as ctx:
        ctx.prec = 60
        theta, t, p, gamma = D(theta), D(t), D(p), D(gamma)
        gpt = gamma * p * t
        ctx.prec += abs(gpt.adjusted())
        q = 1 / gpt
        spread = (1 + q).sqrt() - q.sqrt()
        phi = gamma * p * spread * spread
        sqrt_term = (1 + gpt).sqrt() - 1
        slope0 = phi / (D(1).exp() * (sqrt_term / t + phi / 2))
        if theta == 0:
            return 1.0, float(slope0)
        x = theta * t * phi / D(2).ln()
        ctx.prec += max(x.adjusted(), 0)
        alpha = (1 + x).ln() / x
        xi = 1 - (-alpha).exp() * x / (1 + x)
        return float(xi), float(slope0)


class TestClosedFormLimits:
    @pytest.mark.parametrize("theta", [0.01, 1.0, 1e8, 1e10, 1e12, 1e14, 1e16, 1e300])
    def test_xi_matches_decimal_reference(self, theta):
        # xi = 1 - (1 - xi) lost 2.8e-2 relative at theta = 1e12 and
        # raised DomainError from theta = 1e14 on
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            a = asymptotics_sparse_bounded(theta, 1.0, 1, 1e4, 1.0)
        want, _ = _decimal_limits(theta, 1.0, 1e4, 1.0)
        assert a.xi == pytest.approx(want, rel=1e-13, abs=0.0)
        assert all(math.isfinite(v) for v in vars(a).values())

    @pytest.mark.parametrize("gpt", [1e2, 1e-4, 1e-8, 1e-12])
    def test_sqrt_term_matches_decimal_reference(self, gpt):
        # sqrt(1 + gamma p T) - 1 sets the theta = 0 slope; it lost 8.9e-5
        # relative at gamma p T = 1e-12
        t, gamma = 2e-3, 1.0
        p = gpt / (gamma * t)
        a = asymptotics_sparse_bounded(0.0, t, 1, p, gamma)
        _, want = _decimal_limits(0.0, t, p, gamma)
        assert a.wideband_slope == pytest.approx(want, rel=1e-13, abs=0.0)


class TestExpansionCoefficients:
    @pytest.mark.parametrize(
        "gpt", [1e2, 1e-2, 1e-6, 1e-8, 1e-12, 1e-16, 1e-40, 1e-100, 1e40, 1e100, 1e300]
    )
    def test_spread_matches_decimal_reference(self, gpt):
        # sqrt(1 + q) - sqrt(q) lost 1.5e-5 relative at gamma p T = 1e-12
        # and was zero below about 1e-16
        t, gamma = 2e-3, 1.0
        p = gpt / (gamma * t)
        phi, _ = effective_snr_expansion(t, p, gamma)
        _, rho_dot0 = training_fraction_expansion(t, p, gamma)
        want_phi, want_rho_dot0 = _decimal_expansion(t, p, gamma)
        assert phi == pytest.approx(want_phi, rel=1e-13, abs=0.0)
        assert rho_dot0 == pytest.approx(want_rho_dot0, rel=1e-13, abs=0.0)

    def test_rho_star_is_the_vanishing_snr_limit(self):
        # at B_c = 1e10 the per-symbol SNR is tiny and the narrowband
        # optimum must land on the expansion's leading coefficient
        p, t, gamma = 1e4, 2e-3, 1.0
        bc = 1e10
        cfg = LinkConfig(t, bc, 1.0, p, gamma)
        rho_star, _ = training_fraction_expansion(t, p, gamma)
        assert rho_opt_closed_form(cfg).rho_opt == pytest.approx(rho_star, rel=1e-4)

    def test_rho_slope_matches_finite_difference(self):
        p, t, gamma = 1e4, 2e-3, 1.0
        rho_star, rho_dot0 = training_fraction_expansion(t, p, gamma)
        z = 1e-9
        cfg = LinkConfig(t, 1.0 / z, 1.0, p, gamma)
        fd = (rho_opt_closed_form(cfg).rho_opt - rho_star) / z
        assert fd == pytest.approx(rho_dot0, rel=1e-2)

    def test_snr_curvature_matches_finite_difference(self):
        p, t, gamma = 1e4, 2e-3, 1.0
        phi, omega = effective_snr_expansion(t, p, gamma)
        z = 1e-8
        cfg = LinkConfig(t, 1.0 / z, 1.0, p, gamma)
        snr_eff = rho_opt_closed_form(cfg).snr_eff_opt
        fd = (snr_eff - phi * z) / (z * z)
        assert fd == pytest.approx(omega, rel=1e-2)

    def test_phi_omega_identity(self):
        # 1/T - omega/phi collapses to (1/T)(sqrt(1 + gamma p T) - 1)
        for p in (1e3, 1e4, 1e5):
            t, gamma = 2e-3, 1.0
            phi, omega = effective_snr_expansion(t, p, gamma)
            lhs = 1.0 / t - omega / phi
            rhs = (math.sqrt(1.0 + gamma * p * t) - 1.0) / t
            assert lhs == pytest.approx(rhs, rel=1e-12)

    def test_phi_closed_value(self):
        # phi at gamma=1, T=2e-3, p=1e4 reduces to 11000 - 1000 sqrt(21)
        phi, _ = effective_snr_expansion(2e-3, 1e4, 1.0)
        assert phi == pytest.approx(11000.0 - 1000.0 * math.sqrt(21.0), rel=1e-12)


class TestNumericCheck:
    def test_matches_closed_form(self):
        closed = asymptotics_sparse_bounded(0.01, 2e-3, 1, 1e4, 1.0)
        want_db = 10.0 * math.log10(closed.ebn0_min)
        got_db, got_s0 = asymptotics_numeric_check(
            0.01, 2e-3, 1, 1e4, 1.0, np.geomspace(1e7, 1e10, 16)
        )
        assert abs(got_db - want_db) < 0.05
        assert got_s0 == pytest.approx(closed.wideband_slope, rel=0.05)

    def test_unsettled_grid_is_flagged(self):
        with pytest.raises(ConvergenceError):
            asymptotics_numeric_check(
                0.01, 2e-3, 1, 1e4, 1.0, np.geomspace(1.1e3, 1.1e6, 8)
            )

    def test_grid_validation(self):
        with pytest.raises(DomainError):
            asymptotics_numeric_check(0.01, 2e-3, 1, 1e4, 1.0, [1e7, 1e8, 1e9])
        with pytest.raises(DomainError):
            asymptotics_numeric_check(
                0.01, 2e-3, 1, 1e4, 1.0, np.geomspace(1e7, 1e8, 8)
            )


class TestGrowthLaws:
    def test_classification(self):
        assert classify_scenario(GrowthLaw("bounded", 10, 1e8)) is ScenarioTag.SPARSE_BOUNDED
        assert classify_scenario(GrowthLaw("linear", 10, 1e8)) is ScenarioTag.RICH
        assert (
            classify_scenario(GrowthLaw("sublinear", 10, 1e8, 0.5))
            is ScenarioTag.SPARSE_UNBOUNDED
        )

    def test_unknown_kind_rejected(self):
        with pytest.raises(DomainError):
            GrowthLaw("quadratic", 10, 1e8)
        with pytest.raises(DomainError):
            classify_scenario("bounded")

    def test_sublinear_exponent_bounds(self):
        with pytest.raises(DomainError):
            GrowthLaw("sublinear", 10, 1e8, 1.0)
        with pytest.raises(DomainError):
            GrowthLaw("sublinear", 10, 1e8, 0.0)
        GrowthLaw("bounded", 10, 1e8, 1.0)  # exponent ignored elsewhere

    def test_subchannel_counts(self):
        bounded = GrowthLaw("bounded", 7, 1e8)
        assert bounded.subchannels(1e12) == 7
        linear = GrowthLaw("linear", 10, 1e8)
        assert linear.subchannels(2e8) == 20
        sub = GrowthLaw("sublinear", 10, 1e8, 0.5)
        assert sub.subchannels(1e10) == 100

    def test_count_never_below_one(self):
        linear = GrowthLaw("linear", 1, 1e8)
        assert linear.subchannels(1e6) == 1


class TestBandwidthSweep:
    def test_bounded_growth_approaches_limit_from_above(self):
        growth = GrowthLaw("bounded", 10, 1e8)
        points = bit_energy_vs_bandwidth(
            0.001, 2e-3, growth, 1e5, 1.0, np.geomspace(1e8, 1e11, 10)
        )
        db = [pt.ebn0_db for pt in points]
        assert all(a >= b for a, b in zip(db, db[1:]))
        closed = asymptotics_sparse_bounded(0.001, 2e-3, 10, 1e4, 1.0)
        limit_db = 10.0 * math.log10(closed.ebn0_min)
        assert db[-1] > limit_db
        assert db[-1] - limit_db < 0.05

    def test_growth_law_that_shreds_coherence_is_rejected(self):
        growth = GrowthLaw("linear", 1000, 1e6)  # B_c = 1e3, T B_c = 2
        with pytest.raises(DomainError):
            bit_energy_vs_bandwidth(0.001, 2e-3, growth, 1e5, 1.0, [1e6])

    def test_last_decade_rise(self):
        b = [1.0, 5.0, 10.0, 20.0, 100.0]
        e = [5.0, 4.0, 3.5, 3.0, 2.0]
        # top decade covers b >= 10: rise = 2.0 - 3.5
        assert last_decade_rise_db(b, e) == pytest.approx(-1.5, abs=1e-12)
        with pytest.raises(DomainError):
            last_decade_rise_db([1.0], [2.0])
