"""Monte Carlo check of the queue-tail semantics behind theta.

A buffer is fed at a constant rate and drained by the simulated ON-OFF
channel at the optimal fixed rate. When the arrival rate equals the
effective capacity at exponent theta, the stationary queue tail decays
like exp(-theta q), so the fitted decay rate of the empirical tail
should land near theta. The fit is a least-squares slope of the log
complementary CDF over a percentile-bounded range, with a block
bootstrap for the confidence interval.

The simulator streams the run: it draws the channel, runs the Lindley
recursion and screens the queue for tail samples in fixed chunks of
frames, and fits from the top 1 % of samples alone. Memory is
O(chunk + frames/100) rather than O(frames), and every result is
bit-identical to the whole-array route through `bernoulli_trace`,
`lindley_path` and a full sort of the queue path.

Randomness comes from numpy's default PCG64 generator; everything is
derived deterministically from the spec seed, so a SimSpec maps to a
bit-identical TailEstimate.
"""

import math
from dataclasses import dataclass

import numpy as np

from .effcap import QosSpec, spectral_efficiency
from .errors import DegenerateQueueError, DomainError, InsufficientTailError
from .link_model import LinkConfig

__all__ = [
    "RNG_ALGORITHM",
    "SimSpec",
    "TailEstimate",
    "bernoulli_trace",
    "on_off_trace",
    "lindley_path",
    "simulate_queue",
]

RNG_ALGORITHM = "pcg64"

# tail runs need enough frames for the asymptotic slope to mean anything
MIN_TAIL_FRAMES = 1_000_000

# queue state is double-precision bits; past this the run is declared
# non-stationary rather than silently losing integer resolution
OVERFLOW_BITS = 1e15
_OVERFLOW_MESSAGE = (
    f"queue exceeded {OVERFLOW_BITS:.0e} bits; the run is not stationary"
)
_NONFINITE_MESSAGE = "increments must not be NaN or -inf"

# frames drawn, accumulated and screened at a time: 256 KB per float
# working array, so a chunk stays in L2, and large enough that per-chunk
# overhead stays negligible
_CHUNK_FRAMES = 1 << 15

_FIT_QUANTILE = 0.99
_FIT_POINTS = 64
_MIN_TAIL_SAMPLES = 50
_BOOTSTRAP_BLOCKS = 200
_BOOTSTRAP_RESAMPLES = 200


def _is_integer(x) -> bool:
    return not isinstance(x, bool) and isinstance(x, (int, np.integer))


def _check_seed(seed) -> int:
    if not _is_integer(seed):
        raise DomainError(f"seed must be an integer, got {seed!r}")
    if not 0 <= int(seed) < 2**64:
        raise DomainError("seed must fit in 64 unsigned bits")
    return int(seed)


@dataclass(frozen=True)
class SimSpec:
    """One simulation run: link, QoS target, length, seed and load.

    arrival_margin scales the offered load relative to the effective
    capacity at theta; 1 means arrivals exactly at capacity, the point
    where the tail exponent should equal theta.
    """

    cfg: LinkConfig
    qos: QosSpec
    frames: int
    seed: int
    arrival_margin: float = 1.0

    def __post_init__(self):
        f = self.frames
        if not _is_integer(f) or f < 1:
            raise DomainError(f"frames must be a positive integer, got {f!r}")
        object.__setattr__(self, "frames", int(f))
        object.__setattr__(self, "seed", _check_seed(self.seed))
        m = float(self.arrival_margin)
        if not 0.0 < m <= 1.0:
            raise DomainError(f"arrival_margin must lie in (0, 1], got {m!r}")
        object.__setattr__(self, "arrival_margin", m)


@dataclass(frozen=True)
class TailEstimate:
    """Fitted exponential decay rate of the queue-length tail."""

    theta_hat: float
    fit_range_bits: tuple
    ci_halfwidth: float
    samples_in_tail: int


def bernoulli_trace(p_on: float, frames: int, seed: int) -> np.ndarray:
    """i.i.d. boolean ON/OFF sequence with P(ON) = p_on."""
    if not 0.0 <= p_on <= 1.0:
        raise DomainError(f"p_on must lie in [0, 1], got {p_on!r}")
    if not _is_integer(frames) or frames < 0:
        raise DomainError(f"frames must be a non-negative integer, got {frames!r}")
    rng = np.random.default_rng(_check_seed(seed))
    return rng.random(int(frames)) < p_on


def on_off_trace(cfg: LinkConfig, qos: QosSpec, frames: int, seed: int) -> np.ndarray:
    """Channel state sequence at the jointly optimal rate and training."""
    result = spectral_efficiency(cfg, qos)
    return bernoulli_trace(result.on_probability, frames, seed)


def lindley_path(increments) -> np.ndarray:
    """Queue lengths after each frame, starting empty.

    Q_n = max(Q_{n-1} + increment_n, 0), computed in closed form as the
    running sum minus its running minimum (clipped at zero). A NaN or
    -inf increment raises DomainError; +inf overflows the queue.
    """
    inc = np.asarray(increments, dtype=float)
    if inc.ndim != 1 or inc.size == 0:
        raise DomainError("increments must be a nonempty 1-d sequence")
    s = np.cumsum(inc)
    # a NaN or -inf increment leaves the running sum NaN or -inf from
    # there on, so its last entry tells without another pass
    if not s[-1] > -np.inf:
        raise DomainError(_NONFINITE_MESSAGE)
    q = s - np.minimum(np.minimum.accumulate(s), 0.0)
    if q.max() > OVERFLOW_BITS:
        raise DegenerateQueueError(_OVERFLOW_MESSAGE)
    return q


def _fit_slope(q_grid: np.ndarray, log_ccdf: np.ndarray) -> float:
    slope = np.polyfit(q_grid, log_ccdf, 1)[0]
    return -float(slope)


def _increment_chunks(p_on, arrival, service, frames, seed):
    """The per-frame queue increments, _CHUNK_FRAMES frames at a time.

    PCG64 yields the same doubles whether it is drawn at once or in
    pieces, so the chunks concatenate to the increments built from
    bernoulli_trace(p_on, frames, seed).
    """
    rng = np.random.default_rng(seed)
    for start in range(0, frames, _CHUNK_FRAMES):
        on = rng.random(min(_CHUNK_FRAMES, frames - start)) < p_on
        # np.where(on, arrival - service, arrival) bit for bit, since an
        # OFF frame adds -0.0 to arrival, and several times faster
        increments = on * -service
        increments += arrival
        yield increments


def _lindley_chunks(increment_chunks):
    """lindley_path of the concatenated chunks, one queue chunk per chunk.

    The running sum enters through each chunk's first increment before
    the sequential cumsum, and the running minimum, floored at zero, is
    carried across chunks, so every queue length is bit-identical to
    lindley_path (fmin is the faster minimum, and NaN is rejected). Each
    chunk is overwritten in place. A chunk that holds a NaN or -inf
    increment or overflows the queue raises at once, before later
    chunks are drawn.
    """
    total, low = 0.0, 0.0
    for s in increment_chunks:
        s[0] += total
        np.cumsum(s, out=s)
        if not s[-1] > -np.inf:
            raise DomainError(_NONFINITE_MESSAGE)
        run = np.fmin.accumulate(s)
        np.fmin(run, low, out=run)
        total, low = s[-1], run[-1]
        s -= run
        if s.max() > OVERFLOW_BITS:
            raise DegenerateQueueError(_OVERFLOW_MESSAGE)
        yield s


def _fit_start_rank(n):
    """Position in the sorted path of the fit start's lower order statistic."""
    return math.floor((n - 1) * _FIT_QUANTILE)


def _fit_start(top, n):
    """np.quantile(path, 0.99) from `top`, the largest samples sorted.

    This is numpy's 'linear' method operation for operation, including
    the two branches of its interpolation, so the value is bit-identical.
    """
    virtual = (n - 1) * _FIT_QUANTILE
    lower = _fit_start_rank(n)
    gamma = virtual - lower
    offset = n - top.size
    a = float(top[lower - offset])
    b = float(top[lower + 1 - offset])
    diff = b - a
    return b - diff * (1 - gamma) if gamma >= 0.5 else a + diff * gamma


def _top_count(n):
    """How many of the largest samples the fit reads.

    They reach down to the fit start's lower order statistic and to the
    50th-largest sample.
    """
    return n - max(0, min(_fit_start_rank(n), n - _MIN_TAIL_SAMPLES))


def _tail_candidates(queue_chunks, n):
    """Every positive queue sample that can be among the top k, with its
    frame index.

    The floor is the k-th largest value seen so far: a sample below it
    cannot be in the top k, and ties at the floor are kept. Empty-queue
    samples are never in the fit range, so they are not kept; _fit_tail
    restores any that the top k holds. Re-partitioning only once the
    set has doubled keeps it O(k), plus any ties at the floor, and the
    total work O(n).
    """
    k = _top_count(n)
    floor = np.nextafter(0.0, 1.0)
    values, index = [], []
    held, limit, start = 0, 2 * k, 0
    for q in queue_chunks:
        keep = np.flatnonzero(q >= floor)
        values.append(q[keep])
        index.append(keep + start)
        held += keep.size
        start += q.size
        if held > limit:
            v, i = np.concatenate(values), np.concatenate(index)
            floor = np.partition(v, v.size - k)[v.size - k]
            keep = v >= floor
            values, index = [v[keep]], [i[keep]]
            held = values[0].size
            limit = 2 * max(held, k)
    return np.concatenate(values), np.concatenate(index)


def _fit_tail(values: np.ndarray, index: np.ndarray, n: int, seed: int) -> TailEstimate:
    """The tail fit of an n-sample queue path, from its top candidates.

    values and index are every positive sample at or above some floor
    no higher than the fit start, with their frame indices. Sorted, and
    led by zeros for any empty-queue samples among the top k, they are
    the top of the sorted path and hold every sample the fit counts, so
    the result is bit-identical to fitting the whole path.
    """
    top = np.sort(values)
    missing = _top_count(n) - top.size
    if missing > 0:
        top = np.concatenate([np.zeros(missing), top])
    q_lo = _fit_start(top, n)
    if q_lo <= 0.0:
        raise DegenerateQueueError(
            "queue is empty at the fit-range start; no tail to fit"
        )
    q_hi = float(top[top.size - _MIN_TAIL_SAMPLES])
    if not q_hi > q_lo:
        raise InsufficientTailError(
            "fewer than 50 samples spread beyond the fit-range start"
        )
    grid = np.linspace(q_lo, q_hi, _FIT_POINTS)
    counts = top.size - np.searchsorted(top, grid, side="left")
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
    # a sample reaching `level` grid points counts in columns 0..level-1
    # of its block's row
    inside = index < used
    level = np.searchsorted(grid, values[inside], side="right")
    cells = np.bincount(
        index[inside] // block_len * (grid.size + 1) + level,
        minlength=blocks * (grid.size + 1),
    ).reshape(blocks, grid.size + 1)
    per_block = np.cumsum(cells[:, :0:-1], axis=1)[:, ::-1]

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


def _streamed_tail(increment_chunks, n: int, seed: int) -> TailEstimate:
    """Lindley recursion and tail fit over n increments given in chunks."""
    queue = _lindley_chunks(increment_chunks)
    values, index = _tail_candidates(queue, n)
    return _fit_tail(values, index, n, seed)


def simulate_queue(spec: SimSpec) -> TailEstimate:
    """Run the buffer at the capacity-matched load and fit the tail.

    Arrivals are arrival_margin * R_E(theta) * T * B bits per frame;
    service is rate_opt * T bits when the frame is ON, zero otherwise.
    The fit range starts at the empirical 99th percentile (above the
    90th, as far into the tail as the sample size supports) and ends at
    the 50th-largest sample.

    The run is streamed in chunks of _CHUNK_FRAMES frames, and only the
    samples that can reach the top 1 % are kept, with their frame
    indices; one sort of those gives the fit range, the tail counts and
    the per-block counts of the bootstrap. Memory is O(chunk + frames
    / 100), and the estimate is bit-identical to fitting the whole
    `lindley_path` of the `bernoulli_trace` run.
    """
    if spec.qos.theta <= 0.0:
        raise DomainError("simulate_queue needs theta > 0 as the tail target")
    if spec.frames < MIN_TAIL_FRAMES:
        raise DomainError(
            f"tail estimation needs at least {MIN_TAIL_FRAMES} frames"
        )
    result = spectral_efficiency(spec.cfg, spec.qos)
    if result.spectral_efficiency <= 0.0:
        raise DomainError("effective capacity is zero; nothing to offer the queue")
    t = spec.cfg.frame_duration_s
    arrival = (
        spec.arrival_margin
        * result.spectral_efficiency
        * t
        * spec.cfg.bandwidth_hz
    )
    service = result.rate_opt_bps * t
    mean_service = result.on_probability * service
    if arrival <= 0.0:
        raise DegenerateQueueError("zero arrivals leave the queue empty")
    if arrival >= mean_service:
        raise DegenerateQueueError(
            "arrivals at or above the mean service rate; queue is not stationary"
        )
    increments = _increment_chunks(
        result.on_probability, arrival, service, spec.frames, spec.seed
    )
    return _streamed_tail(increments, spec.frames, spec.seed)
