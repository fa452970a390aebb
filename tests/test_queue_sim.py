"""Buffer simulation and queue-tail exponent recovery."""

import math

import numpy as np
import pytest

from effcap_kit import (
    DegenerateQueueError,
    DomainError,
    EffcapError,
    InsufficientTailError,
    LinkConfig,
    QosSpec,
    SimSpec,
    bernoulli_trace,
    lindley_path,
    on_off_trace,
    simulate_queue,
    spectral_efficiency,
)
from effcap_kit import queue_sim
from effcap_kit.queue_sim import (
    _BOOTSTRAP_BLOCKS,
    _BOOTSTRAP_RESAMPLES,
    _FIT_POINTS,
    _MIN_TAIL_SAMPLES,
    TailEstimate,
    _fit_slope,
)


def make_cfg(snr=1.0, t=2e-3, b=1e5):
    return LinkConfig(t, b, 1.0, snr * b)


def _estimate_tail(q: np.ndarray, seed: int) -> TailEstimate:
    """Whole-array tail fit: the oracle for the streamed estimator."""
    n = q.size
    q_lo = float(np.quantile(q, 0.99))
    if q_lo <= 0.0:
        raise DegenerateQueueError(
            "queue is empty at the fit-range start; no tail to fit"
        )
    q_sorted = np.sort(q)
    q_hi = float(q_sorted[n - _MIN_TAIL_SAMPLES])
    if not q_hi > q_lo:
        raise InsufficientTailError(
            "fewer than 50 samples spread beyond the fit-range start"
        )
    grid = np.linspace(q_lo, q_hi, _FIT_POINTS)
    counts = n - np.searchsorted(q_sorted, grid, side="left")
    samples_in_tail = int(counts[0])
    if samples_in_tail < _MIN_TAIL_SAMPLES:
        raise InsufficientTailError(
            f"only {samples_in_tail} samples beyond the fit-range start"
        )
    log_ccdf = np.log(counts / n)
    theta_hat = _fit_slope(grid, log_ccdf)
    if theta_hat <= 0.0:
        raise InsufficientTailError("tail fit produced a nonpositive decay rate")

    # block bootstrap on per-block exceedance counts: resampling whole
    # blocks keeps the short-range dependence of the queue path
    blocks = _BOOTSTRAP_BLOCKS
    block_len = n // blocks
    if block_len < 1:
        raise InsufficientTailError("too few frames for the block bootstrap")
    used = blocks * block_len
    per_block = np.empty((blocks, grid.size), dtype=np.int64)
    for b in range(blocks):
        chunk = np.sort(q[b * block_len : (b + 1) * block_len])
        per_block[b] = block_len - np.searchsorted(chunk, grid, side="left")

    rng = np.random.default_rng([seed, 0xB007])
    estimates = np.empty(_BOOTSTRAP_RESAMPLES)
    for i in range(_BOOTSTRAP_RESAMPLES):
        pick = rng.integers(0, blocks, size=blocks)
        counts_r = per_block[pick].sum(axis=0)
        valid = counts_r > 0
        if valid.sum() < 8:
            raise InsufficientTailError("bootstrap resample lost the tail")
        estimates[i] = _fit_slope(
            grid[valid], np.log(counts_r[valid] / used)
        )
    half = 0.5 * float(
        np.quantile(estimates, 0.975) - np.quantile(estimates, 0.025)
    )
    return TailEstimate(
        theta_hat=theta_hat,
        fit_range_bits=(q_lo, q_hi),
        ci_halfwidth=half,
        samples_in_tail=samples_in_tail,
    )


class TestLindley:
    def test_hand_computed_path(self):
        # worked by hand: Q_n = max(Q_{n-1} + inc_n, 0) starting at zero
        inc = [3.0, -1.0, -5.0, 2.0, 2.0, -1.0, -4.0, 6.0, -2.0, -10.0]
        want = [3.0, 2.0, 0.0, 2.0, 4.0, 3.0, 0.0, 6.0, 4.0, 0.0]
        np.testing.assert_allclose(lindley_path(inc), want, rtol=0, atol=0)

    def test_all_negative_stays_empty(self):
        q = lindley_path([-1.0] * 100)
        assert (q == 0.0).all()

    def test_all_positive_accumulates(self):
        q = lindley_path([2.5] * 10)
        np.testing.assert_allclose(q, 2.5 * np.arange(1, 11))

    def test_matches_scalar_recursion(self):
        rng = np.random.default_rng(11)
        inc = rng.normal(-0.1, 1.0, 5000)
        q = lindley_path(inc)
        state = 0.0
        for i, x in enumerate(inc):
            state = max(state + x, 0.0)
            assert q[i] == pytest.approx(state, abs=1e-9)

    def test_overflow_flagged(self):
        with pytest.raises(DegenerateQueueError):
            lindley_path(np.full(10, 1e15))

    def test_rejects_bad_shape(self):
        with pytest.raises(DomainError):
            lindley_path([])
        with pytest.raises(DomainError):
            lindley_path([[1.0, 2.0]])

    @pytest.mark.parametrize("bad", [math.nan, -math.inf])
    def test_rejects_nan_and_minus_inf(self, bad):
        # both used to come back as a silent [1, nan, nan]
        with pytest.raises(DomainError) as info:
            lindley_path([1.0, bad, 2.0])
        assert info.type is DomainError

    def test_plus_inf_overflows(self):
        with pytest.raises(DegenerateQueueError):
            lindley_path([1.0, math.inf, 2.0])


class TestTraces:
    def test_all_on_at_probability_one(self):
        assert bernoulli_trace(1.0, 1000, 3).all()
        assert not bernoulli_trace(0.0, 1000, 3).any()

    def test_empirical_mean(self):
        # three-sigma band around p for a million draws
        p = 0.37
        trace = bernoulli_trace(p, 1_000_000, 123)
        sigma = math.sqrt(p * (1 - p) / trace.size)
        assert abs(trace.mean() - p) < 3 * sigma

    def test_same_seed_same_trace(self):
        a = bernoulli_trace(0.5, 10_000, 99)
        b = bernoulli_trace(0.5, 10_000, 99)
        assert (a == b).all()
        c = bernoulli_trace(0.5, 10_000, 100)
        assert (a != c).any()

    def test_probability_bounds(self):
        with pytest.raises(DomainError):
            bernoulli_trace(1.5, 10, 0)
        with pytest.raises(DomainError):
            bernoulli_trace(-0.1, 10, 0)

    def test_zero_frames_is_empty(self):
        trace = bernoulli_trace(0.5, 0, 1)
        assert trace.dtype == bool and trace.size == 0
        assert bernoulli_trace(0.5, np.int64(3), np.uint64(2**64 - 1)).size == 3

    @pytest.mark.parametrize("frames", [-1, 2.5, True, "10", None])
    def test_rejects_bad_frames(self, frames):
        with pytest.raises(DomainError):
            bernoulli_trace(0.5, frames, 0)

    @pytest.mark.parametrize("seed", [-3, 2**64, 1.5, False, None])
    def test_rejects_bad_seed(self, seed):
        with pytest.raises(DomainError):
            bernoulli_trace(0.5, 10, seed)

    def test_on_off_trace_uses_optimal_on_probability(self):
        cfg = make_cfg()
        qos = QosSpec(0.05)
        p_on = spectral_efficiency(cfg, qos).on_probability
        trace = on_off_trace(cfg, qos, 200_000, 5)
        direct = bernoulli_trace(p_on, 200_000, 5)
        assert (trace == direct).all()


class TestSimSpec:
    def test_validation(self):
        cfg = make_cfg()
        qos = QosSpec(0.01)
        with pytest.raises(DomainError):
            SimSpec(cfg, qos, 0, 0)
        with pytest.raises(DomainError):
            SimSpec(cfg, qos, 1.5, 0)
        with pytest.raises(DomainError):
            SimSpec(cfg, qos, 1000, -1)
        with pytest.raises(DomainError):
            SimSpec(cfg, qos, 1000, 2**64)
        with pytest.raises(DomainError):
            SimSpec(cfg, qos, 1000, 0, arrival_margin=0.0)
        with pytest.raises(DomainError):
            SimSpec(cfg, qos, 1000, 0, arrival_margin=1.2)
        with pytest.raises(DomainError):
            SimSpec(cfg, qos, True, 0)


class TestSimulateQueue:
    def test_recovers_theta_at_capacity(self):
        # ten million frames push the fit range deep enough into the
        # tail for the decay rate to settle within ten percent
        spec = SimSpec(make_cfg(), QosSpec(0.01), 10_000_000, 0)
        est = simulate_queue(spec)
        assert 0.9 * 0.01 <= est.theta_hat <= 1.1 * 0.01
        assert abs(est.theta_hat - 0.01) <= est.ci_halfwidth
        assert est.ci_halfwidth > 0.0
        assert est.samples_in_tail >= 50
        assert est.fit_range_bits[1] > est.fit_range_bits[0] > 0.0
        # the whole-array estimator gave exactly this
        assert est == TailEstimate(
            theta_hat=0.010133020392436756,
            fit_range_bits=(436.558666408062, 1180.4455468729138),
            ci_halfwidth=0.0008948939015222196,
            samples_in_tail=100286,
        )

    def test_matches_reference_csv_row(self):
        # queue-validate seeds theta list entry i with seed + i; this is
        # the theta = 0.01 row of the seed-0 reference run
        spec = SimSpec(make_cfg(), QosSpec(0.01), 10_000_000, 1)
        assert simulate_queue(spec) == TailEstimate(
            theta_hat=0.010574825439141268,
            fit_range_bits=(434.0850861426443, 1138.3946862574667),
            ci_halfwidth=0.0011696572910385146,
            samples_in_tail=100042,
        )

    def test_matches_whole_array_route(self):
        # a run that is not a multiple of the chunk length, through the
        # public stages and the whole-array estimator
        cfg, qos, frames, seed = make_cfg(), QosSpec(0.02), 1_000_003, 4
        res = spectral_efficiency(cfg, qos)
        t = cfg.frame_duration_s
        arrival = res.spectral_efficiency * t * cfg.bandwidth_hz
        service = res.rate_opt_bps * t
        on = bernoulli_trace(res.on_probability, frames, seed)
        q = lindley_path(np.where(on, arrival - service, arrival))
        want = _estimate_tail(q, seed)
        assert simulate_queue(SimSpec(cfg, qos, frames, seed)) == want

    def test_deterministic_for_fixed_spec(self):
        spec = SimSpec(make_cfg(), QosSpec(0.02), 1_000_000, 7)
        a = simulate_queue(spec)
        b = simulate_queue(spec)
        assert a == b

    def test_different_seeds_differ(self):
        a = simulate_queue(SimSpec(make_cfg(), QosSpec(0.02), 1_000_000, 1))
        b = simulate_queue(SimSpec(make_cfg(), QosSpec(0.02), 1_000_000, 2))
        assert a.theta_hat != b.theta_hat

    def test_underload_decays_faster(self):
        # arrivals below capacity push the tail exponent above theta
        theta = 0.01
        at_cap = simulate_queue(SimSpec(make_cfg(), QosSpec(theta), 1_000_000, 9))
        light = simulate_queue(
            SimSpec(make_cfg(), QosSpec(theta), 1_000_000, 9, arrival_margin=0.5)
        )
        assert light.theta_hat > at_cap.theta_hat
        assert light.theta_hat > theta

    def test_rejects_theta_zero(self):
        with pytest.raises(DomainError):
            simulate_queue(SimSpec(make_cfg(), QosSpec(0.0), 1_000_000, 0))

    def test_rejects_short_runs(self):
        with pytest.raises(DomainError):
            simulate_queue(SimSpec(make_cfg(), QosSpec(0.01), 999_999, 0))

    def test_degenerate_when_capacity_vanishes(self):
        # a starved link has zero effective capacity, so there is no
        # stationary operating point to validate
        cfg = make_cfg(snr=1e-30)
        with pytest.raises(DomainError):
            simulate_queue(SimSpec(cfg, QosSpec(0.01), 1_000_000, 0))


class TestTailDegeneracy:
    def test_empty_queue_has_no_tail(self):
        # heavy underload at a huge theta: the queue is almost always
        # empty, so the 99th percentile sits at zero
        cfg = make_cfg()
        spec = SimSpec(cfg, QosSpec(5.0), 1_000_000, 3, arrival_margin=0.01)
        with pytest.raises((DegenerateQueueError, InsufficientTailError)):
            simulate_queue(spec)


def test_fit_start_is_np_quantile():
    # the interpolation weight sweeps [0, 1) as n varies, through
    # both branches of numpy's lerp, which round differently only
    # when the two order statistics are far apart: hence the heavy
    # lognormal tail; ties come from the rounded path
    rng = np.random.default_rng(12)
    for n in [*range(2, 4_000, 13), 99_999, 1_000_001]:
        exact = rng.lognormal(0.0, 5.0, n)
        for path in (exact, np.round(np.log1p(exact))):
            want = float(np.quantile(path, 0.99))
            ordered = np.sort(path)
            top = ordered[math.floor((n - 1) * 0.99) :]
            assert queue_sim._fit_start(top, n) == want
            assert queue_sim._fit_start(ordered, n) == want


def _outcome(fit):
    try:
        return fit()
    except EffcapError as exc:
        return type(exc), str(exc)


def _chunked(increments):
    c = queue_sim._CHUNK_FRAMES
    return (increments[i : i + c].copy() for i in range(0, increments.size, c))


def _streamed_path(increments):
    return np.concatenate(list(queue_sim._lindley_chunks(_chunked(increments))))


def _assert_same_fit(increments, seed):
    """Streamed path and fit against lindley_path and the oracle."""
    want = _outcome(lambda: _estimate_tail(lindley_path(increments), seed))
    got = _outcome(
        lambda: queue_sim._streamed_tail(_chunked(increments), increments.size, seed)
    )
    assert got == want
    return want


class TestStreamedTail:
    """The chunked simulator against the whole-array route, bit for bit.

    The chunk length is cut to a few hundred frames so that short runs
    cross many chunk boundaries and the candidate set is re-partitioned
    many times.
    """

    @pytest.fixture(autouse=True, params=[256, 300, 1031])
    def small_chunks(self, request, monkeypatch):
        monkeypatch.setattr(queue_sim, "_CHUNK_FRAMES", request.param)
        return request.param

    def test_bernoulli_run(self, small_chunks):
        # 27_471 frames: a multiple of neither the chunk nor the 200 blocks
        p_on, arrival, service, n, seed = 0.6, 1.0, 2.5, 27_471, 5
        chunks = list(queue_sim._increment_chunks(p_on, arrival, service, n, seed))
        assert max(c.size for c in chunks) == small_chunks
        increments = np.concatenate(chunks)
        on = bernoulli_trace(p_on, n, seed)
        want = np.where(on, arrival - service, arrival)
        assert increments.tobytes() == want.tobytes()
        path = _streamed_path(increments)
        assert path.tobytes() == lindley_path(increments).tobytes()
        assert isinstance(_assert_same_fit(increments, seed), TailEstimate)

    def test_running_minimum_resets_at_chunk_boundaries(self, small_chunks):
        rng = np.random.default_rng(21)
        increments = rng.normal(-0.5, 1.0, 23_457)
        # the running sum reaches a new minimum on the first and on the
        # last frame of chunks, emptying the queue there
        c = small_chunks
        for i in (c, 2 * c - 1, 5 * c, 9 * c - 1):
            increments[i - 1] = 50.0
            increments[i] = -1e4
        path = _streamed_path(increments)
        assert path.tobytes() == lindley_path(increments).tobytes()
        assert path[c] == 0.0 and path[2 * c - 1] == 0.0
        assert path[c - 1] > 0.0
        assert isinstance(_assert_same_fit(increments, 8), TailEstimate)

    def test_integer_steps_tie_at_both_fit_ends(self):
        # a reflected +-1 walk: queue lengths are integers, so the fit
        # start and the 50th-largest sample sit inside runs of ties
        rng = np.random.default_rng(3)
        n = 40_037
        increments = np.where(rng.random(n) < 0.46, 1.0, -1.0)
        path = lindley_path(increments)
        top = np.sort(path)
        lower = math.floor((n - 1) * 0.99)
        assert top[lower - 1] == top[lower] == top[lower + 1]
        assert top[n - 51] == top[n - 50] == top[n - 49]
        assert _streamed_path(increments).tobytes() == path.tobytes()
        assert isinstance(_assert_same_fit(increments, 2), TailEstimate)

    def test_fit_start_ties_with_the_floor(self):
        # 400 frames of exactly 5 bits, then bursts above: the fit start
        # is 5, the floor settles at 5 once the candidates are pruned,
        # and every later 5 must still be counted
        n = 20_000
        rng = np.random.default_rng(4)
        increments = np.full(n, -1e3)
        increments[25::50] = 5.0
        increments[10::300] = rng.uniform(6.0, 100.0, 67)
        path = lindley_path(increments)
        assert _streamed_path(increments).tobytes() == path.tobytes()
        est = _assert_same_fit(increments, 4)
        assert isinstance(est, TailEstimate)
        assert est.fit_range_bits[0] == 5.0

    def test_mostly_empty_path(self):
        # over 98 % of frames leave the queue empty; the candidate set
        # leaves those samples out
        rng = np.random.default_rng(17)
        n = 30_011
        increments = np.where(
            rng.random(n) < 0.012, rng.uniform(20.0, 80.0, n), -60.0
        )
        path = lindley_path(increments)
        assert (path == 0.0).mean() > 0.98
        assert _streamed_path(increments).tobytes() == path.tobytes()
        assert isinstance(_assert_same_fit(increments, 6), TailEstimate)

    def test_fit_start_between_empty_and_busy(self):
        # 200 isolated bursts in 20 000 frames: the top 201 samples the
        # fit reads are every burst and one empty-queue sample, so the
        # fit start interpolates between 0 and the smallest burst
        n, bursts = 20_000, 200
        rng = np.random.default_rng(9)
        increments = np.full(n, -1e3)
        increments[50::100] = rng.uniform(1.0, 500.0, bursts)
        assert np.count_nonzero(lindley_path(increments)) == bursts
        assert queue_sim._top_count(n) == bursts + 1
        assert isinstance(_assert_same_fit(increments, 3), TailEstimate)

    def test_empty_at_fit_start(self):
        # fewer busy frames than the fit reads: the fit start is 0
        rng = np.random.default_rng(17)
        increments = np.where(rng.random(30_011) < 0.002, 40.0, -60.0)
        assert _assert_same_fit(increments, 6) == (
            DegenerateQueueError,
            "queue is empty at the fit-range start; no tail to fit",
        )

    def test_too_short_a_tail(self):
        # 2 % of frames hold exactly 5 bits and the rest none: the fit
        # range collapses to one point
        n = 20_000
        increments = np.full(n, -5.0)
        increments[::50] = 5.0
        assert _assert_same_fit(increments, 1) == (
            InsufficientTailError,
            "fewer than 50 samples spread beyond the fit-range start",
        )

    @pytest.mark.parametrize("bad", [math.nan, -math.inf])
    def test_rejects_nan_and_minus_inf(self, small_chunks, bad):
        increments = np.full(10 * small_chunks, -0.5)
        increments[3 * small_chunks + 7] = bad
        with pytest.raises(DomainError) as whole:
            lindley_path(increments)
        with pytest.raises(DomainError) as streamed:
            _streamed_path(increments)
        assert streamed.type is whole.type is DomainError
        assert str(streamed.value) == str(whole.value)

    def test_overflow_stops_early(self, small_chunks):
        # increments of 1e13 bits cross 1e15 within the first chunk
        n = 50 * small_chunks
        increments = np.full(n, 1e13)
        with pytest.raises(DegenerateQueueError) as whole:
            lindley_path(increments)
        drawn = []

        def counted():
            for chunk in _chunked(increments):
                drawn.append(chunk.size)
                yield chunk

        with pytest.raises(DegenerateQueueError) as streamed:
            queue_sim._streamed_tail(counted(), n, 0)
        assert str(streamed.value) == str(whole.value)
        assert len(drawn) == 1
