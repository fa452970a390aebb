"""Wideband decomposition into N independent flat subchannels.

A channel of total bandwidth B with coherence bandwidth B_c splits into
N = B / B_c parallel flat-fading subchannels, each running the pilot
scheme of the narrowband model. The service state of a frame is the
number J of subchannels that are ON, which gives an N+1-state effective
capacity. The subchannels fade independently, so the moment generating
function of the service factorises,

    E[exp(-theta T r J)] = prod_k (1 - p_k (1 - exp(-theta T r))),

and the capacity is a sum over subchannels that needs no law of J
(Wu & Negi 2003). Each term is taken from the outage threshold alpha_k
rather than from p_k = exp(-alpha_k), so a near-sure-ON subchannel,
whose p_k rounds to 1, keeps its outage term. The law of J, a Poisson
binomial, is still available from transition_probabilities. For i.i.d.
subchannels with uniform power and training split the capacity
collapses to the single-subchannel problem at bandwidth B_c.

As B_c grows with everything else held fixed, the bit energy converges
to a closed-form minimum with a closed-form slope; both are expansions
in z = 1/B_c around z = 0 (the number of subchannels never enters, only
the power-to-noise ratio per subchannel does). When the subchannel
count grows with total bandwidth instead, bounded bit energy is lost:
that is the scenario classification at the bottom of the module.
"""

import enum
import math
from dataclasses import dataclass

import numpy as np

from .effcap import EffCapResult, QosSpec, _solve, spectral_efficiency
from .errors import ConvergenceError, DomainError, as_integer, as_nonnegative, as_positive, as_real
from .link_model import LN2, LinkConfig, outage_threshold

__all__ = [
    "WidebandConfig",
    "WidebandAsymptotics",
    "GrowthLaw",
    "ScenarioTag",
    "WidebandPoint",
    "uniform_wideband_config",
    "transition_probabilities",
    "effective_capacity_wideband",
    "optimize_wideband_iid",
    "training_fraction_expansion",
    "effective_snr_expansion",
    "asymptotics_sparse_bounded",
    "asymptotics_numeric_check",
    "bit_energy_vs_bandwidth",
    "last_decade_rise_db",
    "classify_scenario",
]

_REL_TOL = 1e-12

# per-subchannel tuple, the message naming its admissible range, and the
# test for an out-of-range (finite) entry
_SUBCHANNEL_FIELDS = (
    ("per_subchannel_variances", "must be > 0", lambda v: v <= 0.0),
    ("per_subchannel_powers", "must be >= 0", lambda v: v < 0.0),
    ("per_subchannel_rho", "must lie in [0, 1]", lambda v: (v < 0.0) | (v > 1.0)),
)


@dataclass(frozen=True)
class WidebandConfig:
    """N parallel subchannels of width B_c each.

    link carries the totals: bandwidth_hz must equal N * B_c and
    avg_power_w bounds the per-subchannel powers from above. The three
    per-subchannel tuples hold fading variance, power and training
    fraction for each subchannel in order.

    Construction also derives, once, the rate-independent state every
    evaluation needs: the effective SNR of each subchannel as a
    read-only array. It is stored beside the fields, not as one, so
    equality, hashing and repr see only the fields.
    """

    num_subchannels: int
    coherence_bandwidth_hz: float
    link: LinkConfig
    per_subchannel_variances: tuple
    per_subchannel_powers: tuple
    per_subchannel_rho: tuple

    def __post_init__(self):
        n = as_integer("num_subchannels", self.num_subchannels, 1)
        object.__setattr__(self, "num_subchannels", n)
        bc = as_positive("coherence_bandwidth_hz", self.coherence_bandwidth_hz)
        object.__setattr__(self, "coherence_bandwidth_hz", bc)
        if bc * self.link.frame_duration_s <= 2.0:
            raise DomainError(
                "each subchannel needs frame_duration_s * coherence_bandwidth_hz > 2"
            )
        total = n * bc
        if abs(total - self.link.bandwidth_hz) > _REL_TOL * total:
            raise DomainError(
                "link.bandwidth_hz must equal num_subchannels * "
                f"coherence_bandwidth_hz ({total!r}), got {self.link.bandwidth_hz!r}"
            )
        arrays = []
        for name, rule, out_of_range in _SUBCHANNEL_FIELDS:
            try:
                values = np.fromiter(getattr(self, name), dtype=float)
            except (TypeError, ValueError):
                raise DomainError(f"{name} entries must be real numbers") from None
            if values.size != self.num_subchannels:
                raise DomainError(f"{name} must have one entry per subchannel")
            finite = np.isfinite(values)
            bad = ~finite | out_of_range(values)
            if np.count_nonzero(bad):
                # report the first offending entry, finiteness before range
                if not finite[bad.argmax()]:
                    raise DomainError(f"{name} entries must be finite")
                raise DomainError(f"{name} entries {rule}")
            object.__setattr__(self, name, tuple(values.tolist()))
            arrays.append(values)
        budget = self.link.avg_power_w
        if sum(self.per_subchannel_powers) > budget * (1.0 + _REL_TOL):
            raise DomainError("per-subchannel powers exceed the power budget")

        gamma, power, rho = arrays
        # link_model.effective_snr's closed form on every subchannel at once,
        # with its operation order, so i.i.d. subchannels reproduce it bit
        # for bit:
        #   rho (1-rho) g / (rho (TB-2) + 1 + (TB-1) / g),  g = gamma TB SNR
        # An unpowered subchannel has g = 0 and (TB-1) / g = inf, so 0.
        tb = self.link.frame_duration_s * bc
        gts = gamma * tb * (power / (self.link.noise_psd * bc))
        with np.errstate(divide="ignore"):
            snr_eff = rho * (1.0 - rho) * gts / (rho * (tb - 2.0) + 1.0 + (tb - 1.0) / gts)
        unpowered = power == 0.0
        snr_eff.flags.writeable = unpowered.flags.writeable = False
        object.__setattr__(self, "_snr_eff", snr_eff)
        object.__setattr__(self, "_unpowered", unpowered)
        # one subchannel's frame geometry, for the rate's SNR requirement
        object.__setattr__(
            self,
            "_subchannel",
            LinkConfig(self.link.frame_duration_s, bc, self.link.noise_psd, budget),
        )


def uniform_wideband_config(
    num_subchannels: int,
    coherence_bandwidth_hz: float,
    frame_duration_s: float,
    noise_psd: float,
    total_power_w: float,
    fading_variance: float = 1.0,
    rho: float = 0.5,
) -> WidebandConfig:
    """i.i.d. subchannels with the power budget spread evenly."""
    n = int(num_subchannels)
    link = LinkConfig(
        frame_duration_s=frame_duration_s,
        bandwidth_hz=n * float(coherence_bandwidth_hz),
        noise_psd=noise_psd,
        avg_power_w=total_power_w,
        fading_variance=fading_variance,
    )
    return WidebandConfig(
        num_subchannels=n,
        coherence_bandwidth_hz=float(coherence_bandwidth_hz),
        link=link,
        per_subchannel_variances=(float(fading_variance),) * n,
        per_subchannel_powers=(float(total_power_w) / n,) * n,
        per_subchannel_rho=(float(rho),) * n,
    )


def _outage_thresholds(wcfg: WidebandConfig, rate_bps: float) -> np.ndarray:
    """Outage threshold alpha_k of every subchannel at one rate.

    alpha_k = (2^(r T / (T B_c - 1)) - 1) / snr_eff,k at a positive
    rate, and +inf (never ON) for a subchannel without a usable
    estimate. Raises DomainError for a negative, NaN or infinite rate.
    """
    # outage_threshold at unit effective SNR is the SNR the rate requires
    required = outage_threshold(wcfg._subchannel, rate_bps, 1.0)
    if rate_bps == 0.0:
        # every powered subchannel carries the zero rate
        return np.where(wcfg._unpowered, np.inf, 0.0)
    snr_eff = wcfg._snr_eff
    alpha = np.full(wcfg.num_subchannels, np.inf)
    with np.errstate(over="ignore"):
        return np.divide(required, snr_eff, out=alpha, where=snr_eff > 0.0)


def transition_probabilities(wcfg: WidebandConfig, rate_bps: float) -> np.ndarray:
    """Distribution of the number of ON subchannels in a frame.

    Entry j is the probability that exactly j of the N subchannels are
    ON. Each subchannel is an independent Bernoulli with its own ON
    probability p_k = exp(-alpha_k), so the counts follow a
    Poisson-binomial law, built in O(N^2) by a running convolution
    rather than summing over the 2^N subchannel subsets. The capacity
    does not need this law; it is the reference the factorised capacity
    is tested against.
    """
    p_on = np.exp(-_outage_thresholds(wcfg, rate_bps))
    probs = np.zeros(wcfg.num_subchannels + 1)
    probs[0] = 1.0
    for p in p_on:
        nxt = probs * (1.0 - p)
        nxt[1:] += probs[:-1] * p
        probs = nxt
    return probs


def effective_capacity_wideband(
    wcfg: WidebandConfig, qos: QosSpec, rate_bps: float
) -> float:
    """R_E of the N+1-state service model, per Hz of total bandwidth.

    With J ON subchannels, each delivering r T bits, and s = theta T r,
    independence factorises the moment generating function, so

        R_E = -(1/(theta T B)) sum_k l_k,   l_k = ln(1 - p_k (1 - e^-s))

    with B the total bandwidth N * B_c and p_k = exp(-alpha_k). The sum
    is O(N) array work and needs no count distribution. Where
    1 - p_k (1 - e^-s) falls below 1/2, l_k is the log of its two
    positive terms (1 - p_k) + p_k e^-s, added in log space and taken
    from alpha_k directly, so a near-sure-ON subchannel whose p_k rounds
    to 1 keeps its outage term (about alpha_k), which outweighs e^-s
    once s exceeds about 37. Elsewhere l_k = log1p(p_k expm1(-s)). The
    two branches are those of effective_capacity_at, which i.i.d.
    subchannels reproduce.
    """
    if qos.theta <= 0.0:
        raise DomainError("effective_capacity_wideband needs theta > 0")
    alpha = _outage_thresholds(wcfg, rate_bps)
    if rate_bps == 0.0:
        return 0.0
    theta_t = qos.theta * wcfg.link.frame_duration_s
    s = theta_t * rate_bps
    neg_alpha = -alpha
    with np.errstate(divide="ignore"):
        # log(0) at alpha_k = 0 is absorbed by logaddexp, and log1p(-1)
        # only arises where the log_rest branch is the one taken
        log_rest = np.logaddexp(np.log(-np.expm1(neg_alpha)), neg_alpha - s)
        log_near_one = np.log1p(np.exp(neg_alpha) * math.expm1(-s))
    ell = np.where(log_rest < -LN2, log_rest, log_near_one)
    total_bandwidth = wcfg.num_subchannels * wcfg.coherence_bandwidth_hz
    return -float(ell.sum()) / (theta_t * total_bandwidth)


def _require_iid(wcfg: WidebandConfig) -> None:
    def uniform(values) -> bool:
        lo, hi = min(values), max(values)
        return hi - lo <= _REL_TOL * max(abs(hi), 1.0)

    if not (
        uniform(wcfg.per_subchannel_variances)
        and uniform(wcfg.per_subchannel_powers)
        and uniform(wcfg.per_subchannel_rho)
    ):
        raise DomainError(
            "optimize_wideband_iid needs identical variances, powers and "
            "training fractions across subchannels"
        )


def optimize_wideband_iid(wcfg: WidebandConfig, qos: QosSpec) -> EffCapResult:
    """Joint rate/training optimum for i.i.d. uniform subchannels.

    The N+1-state capacity factorizes, so the problem is the
    narrowband one at bandwidth B_c and per-subchannel power; the
    stored per-subchannel rho is ignored because rho is optimized. The
    returned spectral efficiency is per Hz of either B_c or the total
    bandwidth, the normalizations coincide.
    """
    _require_iid(wcfg)
    sub = LinkConfig(
        frame_duration_s=wcfg.link.frame_duration_s,
        bandwidth_hz=wcfg.coherence_bandwidth_hz,
        noise_psd=wcfg.link.noise_psd,
        avg_power_w=wcfg.per_subchannel_powers[0],
        fading_variance=wcfg.per_subchannel_variances[0],
    )
    return spectral_efficiency(sub, qos)


def _check_ratio_args(theta: float, t_s: float, n: int, power_over_nn0: float, gamma: float):
    return (
        as_nonnegative("theta", theta),
        as_positive("T_s", t_s),
        as_integer("n", n, 1),
        as_positive("power_over_NN0", power_over_nn0),
        as_positive("gamma", gamma),
    )


def _spread(t_s: float, p: float, gamma: float) -> tuple[float, float]:
    """q = 1 / (gamma p T) and sqrt(1 + q) - sqrt(q), without cancellation."""
    gpt = gamma * p * t_s
    q = 1.0 / gpt if gpt > 0.0 else math.inf
    if not 0.0 < q < math.inf:
        raise DomainError(f"gamma p T = {gpt!r} has no finite nonzero inverse")
    return q, 1.0 / (math.sqrt(1.0 + q) + math.sqrt(q))


def training_fraction_expansion(
    t_s: float, power_over_nn0: float, gamma: float
) -> tuple[float, float]:
    """First-order behavior of the optimal training fraction in z = 1/B_c.

    rho_opt(z) = rho* + rho_dot0 z + o(z) with, writing
    q = 1 / (gamma p T) for the inverse power-time product,

        rho*     = sqrt(q (1 + q)) - q
        rho_dot0 = (1 / 2T) sqrt(1 + gamma p T) (sqrt(1 + q) - sqrt(q))^2
    """
    q, spread = _spread(t_s, power_over_nn0, gamma)
    rho_star = q * math.expm1(0.5 * math.log1p(1.0 / q))
    rho_dot0 = (
        0.5 / t_s * math.sqrt(1.0 + gamma * power_over_nn0 * t_s) * spread * spread
    )
    return rho_star, rho_dot0


def effective_snr_expansion(
    t_s: float, power_over_nn0: float, gamma: float
) -> tuple[float, float]:
    """Coefficients (phi, omega) of snr_eff at the training optimum.

    snr_eff,opt(z) = phi z + omega z^2 + o(z^2) in z = 1/B_c, with

        phi   = gamma p (sqrt(1 + q) - sqrt(q))^2
        omega = -(gamma p / T) (sqrt(1 + q) - sqrt(q))^2
                 (sqrt(1 + gamma p T) - 2)

    and q = 1 / (gamma p T) as above.
    """
    _, spread = _spread(t_s, power_over_nn0, gamma)
    base = gamma * power_over_nn0 * spread * spread
    phi = base
    omega = -base / t_s * (math.sqrt(1.0 + gamma * power_over_nn0 * t_s) - 2.0)
    return phi, omega


@dataclass(frozen=True)
class WidebandAsymptotics:
    """Closed-form wideband limits for bounded subchannel count.

    ebn0_min is the linear-scale minimum of E_b/(N N0), reached as
    B_c grows without bound; wideband_slope is the slope of the
    spectral-efficiency versus bit-energy curve at that point.
    """

    phi: float
    delta: float
    alpha_star: float
    xi: float
    ebn0_min: float
    wideband_slope: float
    rho_star: float


def asymptotics_sparse_bounded(
    theta: float, t_s: float, n: int, power_over_nn0: float, gamma: float
) -> WidebandAsymptotics:
    """Closed-form bit-energy minimum and slope for fixed subchannel count.

    Only the per-subchannel ratio p = avg_power / (N noise_psd) enters;
    the count n is validated for interface symmetry with the numeric
    check but does not appear in the limits. theta = 0 uses the exact
    limiting forms (alpha* = 1, ebn0_min = p e ln2 / phi) rather than a
    small-theta substitution.
    """
    theta, t_s, n, p, gamma = _check_ratio_args(theta, t_s, n, power_over_nn0, gamma)
    gpt = gamma * p * t_s
    phi, _ = effective_snr_expansion(t_s, p, gamma)
    if phi == 0.0:
        raise DomainError(f"phi underflowed to zero at gamma p T = {gpt!r}")
    rho_star, _ = training_fraction_expansion(t_s, p, gamma)
    # sqrt(1 + gpt) - 1 without the cancellation at small gpt
    sqrt_term = gpt / (math.sqrt(1.0 + gpt) + 1.0)

    if theta == 0.0:
        bracket = sqrt_term / t_s + 0.5 * phi
        return WidebandAsymptotics(
            phi=phi,
            delta=0.0,
            alpha_star=1.0,
            xi=1.0,
            ebn0_min=p * math.e * LN2 / phi,
            wideband_slope=phi / (math.e * bracket),
            rho_star=rho_star,
        )

    x = theta * t_s * phi / LN2
    if not 0.0 < x < math.inf:  # overflowed, or underflowed to 0 at theta > 0
        raise DomainError(f"theta T phi / ln2 = {x!r} leaves the limits no finite value")
    alpha_star = math.log1p(x) / x
    # exp(-theta T r*) with r* = phi alpha* / ln2 equals 1/(1+x) exactly,
    # by the fixed-point relation x alpha* = log(1 + x); xi = 1 - (1 - xi)
    # is then taken in the form without cancellation
    one_minus_xi = math.exp(-alpha_star) * x / (1.0 + x)
    xi = (1.0 - x * math.expm1(-alpha_star)) / (1.0 + x)
    ln_xi = math.log1p(-one_minus_xi) if one_minus_xi < 0.5 else math.log(xi)
    delta = theta * t_s * p / LN2
    ebn0_min = -delta * LN2 / ln_xi
    bracket = sqrt_term / t_s + 0.5 * phi * alpha_star
    slope = (
        xi
        * ln_xi
        * ln_xi
        * LN2
        / (theta * t_s * alpha_star * one_minus_xi * bracket)
    )
    return WidebandAsymptotics(
        phi=phi,
        delta=delta,
        alpha_star=alpha_star,
        xi=xi,
        ebn0_min=ebn0_min,
        wideband_slope=slope,
        rho_star=rho_star,
    )


def asymptotics_numeric_check(
    theta: float,
    t_s: float,
    n: int,
    power_over_nn0: float,
    gamma: float,
    bc_grid,
) -> tuple[float, float]:
    """Estimate the wideband limits from finite-B_c optimizations.

    Evaluates the i.i.d. optimum along bc_grid (spanning at least three
    decades), extrapolates the last decade of bit energies linearly in
    z = 1/B_c to z = 0, and rebuilds the slope from the two largest B_c
    points via the two-term expansion R_E(z) = Rdot z + Rddot z^2 / 2.
    Returns (bit energy limit in dB, slope estimate). Raises
    ConvergenceError if the last decade has not settled to 0.05 dB.
    """
    theta, t_s, n, p, gamma = _check_ratio_args(theta, t_s, n, power_over_nn0, gamma)
    grid = np.sort([as_positive("bc_grid entries", b) for b in bc_grid])
    if grid.size < 4:
        raise DomainError("bc_grid needs at least 4 points")
    if grid[-1] / grid[0] < 1e3 * (1.0 - 1e-9):
        raise DomainError("bc_grid must span at least three decades")
    if not t_s * grid[0] > 2.0:
        raise DomainError("bc_grid needs T_s * B_c > 2")
    # each point is the narrowband problem of LinkConfig(t_s, bc, 1.0, p, gamma)
    re = np.array([_solve(t_s, bc, gamma, p / bc, theta)[4] for bc in grid.tolist()])

    zeta = 1.0 / grid
    ebn0 = (p / grid) / re
    last = grid >= grid[-1] / 10.0 * (1.0 - 1e-12)
    ebn0_db = 10.0 * np.log10(ebn0[last])
    if ebn0_db.max() - ebn0_db.min() > 0.05:
        raise ConvergenceError(
            "bit energy still moving by more than 0.05 dB over the last "
            "decade of B_c; no finite limit in sight"
        )
    slope_fit, intercept = np.polyfit(zeta[last], ebn0[last], 1)
    limit_db = 10.0 * math.log10(intercept)

    # slope from the two largest B_c: R_E/z is linear in z to first order
    z1, z2 = zeta[-1], zeta[-2]
    y1, y2 = re[-1] / z1, re[-2] / z2
    rddot = 2.0 * (y2 - y1) / (z2 - z1)
    rdot = y1 - 0.5 * rddot * z1
    if rddot >= 0.0 or rdot <= 0.0:
        raise ConvergenceError("slope construction failed on this grid")
    s0 = 2.0 * rdot * rdot * LN2 / (-rddot)
    return limit_db, s0


class ScenarioTag(enum.Enum):
    """How the bit energy behaves as total bandwidth grows."""

    RICH = "rich"  # N grows linearly with B: bit energy diverges
    SPARSE_BOUNDED = "sparse-bounded"  # N bounded: finite minimum
    SPARSE_UNBOUNDED = "sparse-unbounded"  # N grows sublinearly: diverges


@dataclass(frozen=True)
class GrowthLaw:
    """Subchannel count as a function of total bandwidth.

    kind is one of "bounded", "linear" or "sublinear"; n_ref is the
    count at the reference bandwidth b_ref; the exponent only applies
    to the sublinear law and must lie strictly between 0 and 1.
    """

    kind: str
    n_ref: int
    b_ref: float
    exponent: float = 0.5

    def __post_init__(self):
        if self.kind not in ("bounded", "linear", "sublinear"):
            raise DomainError(f"unknown growth-law kind {self.kind!r}")
        object.__setattr__(self, "n_ref", as_integer("n_ref", self.n_ref, 1))
        object.__setattr__(self, "b_ref", as_positive("b_ref", self.b_ref))
        e = as_real("exponent", self.exponent)
        if self.kind == "sublinear" and not 0.0 < e < 1.0:
            raise DomainError(f"sublinear exponent must lie in (0, 1), got {e!r}")
        object.__setattr__(self, "exponent", e)

    def subchannels(self, bandwidth_hz: float) -> int:
        if self.kind == "bounded":
            return self.n_ref
        ratio = float(bandwidth_hz) / self.b_ref
        if self.kind == "linear":
            return max(1, round(self.n_ref * ratio))
        return max(1, round(self.n_ref * ratio**self.exponent))


def classify_scenario(n_of_b: GrowthLaw) -> ScenarioTag:
    """Map a subchannel growth law onto its bit-energy behavior."""
    if not isinstance(n_of_b, GrowthLaw):
        raise DomainError("classify_scenario expects a GrowthLaw")
    return {
        "bounded": ScenarioTag.SPARSE_BOUNDED,
        "linear": ScenarioTag.RICH,
        "sublinear": ScenarioTag.SPARSE_UNBOUNDED,
    }[n_of_b.kind]


@dataclass(frozen=True)
class WidebandPoint:
    """One point of a bit-energy sweep over total bandwidth."""

    bandwidth_hz: float
    num_subchannels: int
    coherence_bandwidth_hz: float
    snr: float
    spectral_efficiency: float
    ebn0_db: float


def bit_energy_vs_bandwidth(
    theta: float,
    t_s: float,
    growth: GrowthLaw,
    power_over_n0: float,
    gamma: float,
    b_grid,
) -> list:
    """Evaluate E_b/(N N0) along a total-bandwidth grid.

    The subchannel count at each point comes from the growth law; the
    per-subchannel power is the budget split N ways. power_over_n0 is
    the total avg_power / noise_psd ratio in Hz.
    """
    if not isinstance(growth, GrowthLaw):
        raise DomainError("growth must be a GrowthLaw")
    theta = as_nonnegative("theta", theta)
    t_s, gamma = as_positive("T_s", t_s), as_positive("gamma", gamma)
    power_over_n0 = as_positive("power_over_n0", power_over_n0)
    points = []
    for b in b_grid:
        b = as_positive("bandwidth", b)
        n = growth.subchannels(b)
        bc = b / n
        if t_s * bc <= 2.0:
            raise DomainError(
                f"growth law leaves coherence bandwidth {bc!r} Hz with "
                "frame_duration_s * B_c <= 2"
            )
        # the narrowband problem of LinkConfig(t_s, bc, 1.0, power_over_n0 / n, gamma)
        re = _solve(t_s, bc, gamma, power_over_n0 / n / bc, theta)[4]
        snr = power_over_n0 / (n * bc)
        ebn0_db = math.inf if re <= 0.0 else 10.0 * math.log10(snr / re)
        points.append(
            WidebandPoint(
                bandwidth_hz=b,
                num_subchannels=n,
                coherence_bandwidth_hz=bc,
                snr=snr,
                spectral_efficiency=re,
                ebn0_db=ebn0_db,
            )
        )
    return points


def last_decade_rise_db(b_values, ebn0_db_values) -> float:
    """Increase of the bit energy over the top decade of the sweep.

    Positive means the bit energy is still climbing (divergence);
    near zero means it has settled.
    """
    b = np.asarray([float(v) for v in b_values])
    e = np.asarray([float(v) for v in ebn0_db_values])
    if b.size != e.size or b.size < 2:
        raise DomainError("need matching b and ebn0 sequences, at least 2 points")
    order = np.argsort(b)
    b, e = b[order], e[order]
    mask = b >= b[-1] / 10.0 * (1.0 - 1e-12)
    tail = e[mask]
    return float(tail[-1] - tail[0])
