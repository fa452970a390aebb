"""Command-line front end: parameter sweeps with CSV output.

One subcommand per sweep target. Every parameter is a --key value flag;
a plain key = value file can be passed with --config, and explicit
flags override the file. Grid points are evaluated by a process pool
sized with --jobs, and rows are always written in grid order.

CSV layout: the first line is a comment header naming the tool version,
the job and the seed; the second line holds the snake_case column
names; floats carry 12 significant digits, dB columns end in _db, and
the only non-finite token ever emitted is the literal inf.

Exit codes: 0 success, 1 domain or validation error, 2 convergence
failure, 3 I/O error. EFFCAP_SEED provides a default seed.
"""

import argparse
import math
import os
import sys
import tempfile
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from . import __version__
from .effcap import QosSpec, min_bit_energy_numeric, spectral_efficiency
from .errors import ConvergenceError, DomainError, EffcapError
from .link_model import LinkConfig
from .queue_sim import RNG_ALGORITHM, SimSpec, simulate_queue
from .training import rho_opt_closed_form
from .wideband import GrowthLaw, asymptotics_sparse_bounded, bit_energy_vs_bandwidth

__all__ = ["GridSpec", "SweepJob", "run_sweep", "main"]

TARGETS = (
    "rho-vs-snr",
    "se-vs-ebn0",
    "ebn0-vs-snr",
    "ebn0min-vs-bandwidth",
    "wideband-se-vs-ebn0",
    "asymptotics-table",
    "queue-validate",
)

_SEED_ENV = "EFFCAP_SEED"


@dataclass(frozen=True)
class GridSpec:
    """Axis variable swept by a job."""

    axis: str
    lo: float
    hi: float
    points: int
    spacing: str = "log"

    def __post_init__(self):
        if self.spacing not in ("log", "linear"):
            raise DomainError(f"spacing must be log or linear, got {self.spacing!r}")
        p = self.points
        if isinstance(p, bool) or not isinstance(p, (int, np.integer)) or p < 2:
            raise DomainError(f"grid needs at least 2 points, got {p!r}")
        object.__setattr__(self, "points", int(p))
        lo, hi = float(self.lo), float(self.hi)
        if not (math.isfinite(lo) and math.isfinite(hi) and 0.0 < lo < hi):
            raise DomainError(
                f"grid bounds must be positive with lo < hi, got {lo!r}, {hi!r}"
            )
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)

    def values(self) -> np.ndarray:
        if self.spacing == "log":
            return np.geomspace(self.lo, self.hi, self.points)
        return np.linspace(self.lo, self.hi, self.points)


@dataclass(frozen=True)
class SweepJob:
    """A fully resolved sweep: target, grid, fixed parameters, output."""

    target: str
    out_path: str
    fixed: dict
    grid: GridSpec = None
    theta_list: tuple = ()
    seed: int = None
    jobs: int = 1

    def __post_init__(self):
        if self.target not in TARGETS:
            raise DomainError(f"unknown target {self.target!r}")
        if not self.out_path:
            raise DomainError("out_path must be set")
        thetas = tuple(float(t) for t in self.theta_list)
        if any(not (math.isfinite(t) and t >= 0.0) for t in thetas):
            raise DomainError("theta values must be finite and >= 0")
        object.__setattr__(self, "theta_list", thetas)
        j = self.jobs
        if isinstance(j, bool) or not isinstance(j, (int, np.integer)) or j < 1:
            raise DomainError(f"jobs must be a positive integer, got {j!r}")
        object.__setattr__(self, "jobs", int(j))
        if self.seed is not None:
            s = self.seed
            if isinstance(s, bool) or not isinstance(s, (int, np.integer)):
                raise DomainError(f"seed must be an integer, got {s!r}")
            object.__setattr__(self, "seed", int(s))


def _format_value(value) -> str:
    if isinstance(value, (int, np.integer)) and not isinstance(value, bool):
        return str(int(value))
    x = float(value)
    if math.isnan(x):
        raise ConvergenceError("NaN reached an output row")
    if math.isinf(x):
        if x < 0:
            raise ConvergenceError("negative infinity reached an output row")
        return "inf"
    return f"{x:.12g}"


def _db(x: float) -> float:
    return math.inf if x <= 0.0 else 10.0 * math.log10(x)


# row workers are module-level functions over plain tuples so that the
# process pool can pickle them

def _row_rho(item):
    snr, t, b, n0, gamma = item
    cfg = LinkConfig(t, b, n0, snr * n0 * b, gamma)
    sol = rho_opt_closed_form(cfg)
    return (snr, _db(snr), sol.rho_opt, sol.eta, sol.snr_eff_opt)


def _row_narrowband(item):
    theta, snr, t, b, n0, gamma = item
    cfg = LinkConfig(t, b, n0, snr * n0 * b, gamma)
    res = spectral_efficiency(cfg, QosSpec(theta))
    re = res.spectral_efficiency
    ebn0 = math.inf if re <= 0.0 else snr / re
    return (
        theta,
        snr,
        _db(snr),
        res.rho_used,
        res.rate_opt_bps,
        res.alpha_opt,
        res.on_probability,
        re,
        ebn0,
        _db(ebn0),
    )


def _row_ebn0min(item):
    theta, b, t, n0, gamma, s_lo, s_hi, s_points = item
    cfg = LinkConfig(t, b, n0, s_lo * n0 * b, gamma)
    grid = np.geomspace(s_lo, s_hi, s_points)
    snr_at_min, ebn0_db = min_bit_energy_numeric(cfg, QosSpec(theta), grid)
    return (theta, b, snr_at_min, ebn0_db)


def _row_wideband(item):
    theta, b, t, gamma, power_over_n0, growth = item
    point = bit_energy_vs_bandwidth(theta, t, growth, power_over_n0, gamma, [b])[0]
    return (
        theta,
        point.bandwidth_hz,
        point.num_subchannels,
        point.coherence_bandwidth_hz,
        point.snr,
        point.spectral_efficiency,
        point.ebn0_db,
    )


def _row_asymptotics(item):
    theta, t, n, power_over_nn0, gamma = item
    a = asymptotics_sparse_bounded(theta, t, n, power_over_nn0, gamma)
    return (
        theta,
        a.phi,
        a.rho_star,
        a.alpha_star,
        a.xi,
        a.delta,
        a.ebn0_min,
        _db(a.ebn0_min),
        a.wideband_slope,
    )


def _row_queue(item):
    theta, snr, t, b, n0, gamma, frames, margin, seed = item
    cfg = LinkConfig(t, b, n0, snr * n0 * b, gamma)
    spec = SimSpec(cfg, QosSpec(theta), frames, seed, margin)
    est = simulate_queue(spec)
    return (
        theta,
        est.theta_hat,
        est.theta_hat / theta,
        est.ci_halfwidth,
        est.fit_range_bits[0],
        est.fit_range_bits[1],
        est.samples_in_tail,
        frames,
        seed,
    )


@dataclass(frozen=True)
class _Target:
    columns: tuple
    worker: object
    build_items: object
    summarize: object


def _items_rho(job):
    t, b, n0, g = (job.fixed[k] for k in ("frame_duration", "bandwidth", "noise_psd", "gamma"))
    return [(float(s), t, b, n0, g) for s in job.grid.values()]


def _items_narrowband(job):
    t, b, n0, g = (job.fixed[k] for k in ("frame_duration", "bandwidth", "noise_psd", "gamma"))
    snrs = job.grid.values()
    return [(theta, float(s), t, b, n0, g) for theta in job.theta_list for s in snrs]


def _items_ebn0min(job):
    t, n0, g = (job.fixed[k] for k in ("frame_duration", "noise_psd", "gamma"))
    s_lo = job.fixed["search_snr_min"]
    s_hi = job.fixed["search_snr_max"]
    s_points = job.fixed["search_snr_points"]
    bands = job.grid.values()
    return [
        (theta, float(b), t, n0, g, s_lo, s_hi, s_points)
        for theta in job.theta_list
        for b in bands
    ]


def _items_wideband(job):
    t, g, p = (job.fixed[k] for k in ("frame_duration", "gamma", "power_over_n0"))
    growth = GrowthLaw(
        kind=job.fixed["growth"],
        n_ref=job.fixed["num_subchannels"],
        b_ref=job.fixed["b_ref"],
        exponent=job.fixed["growth_exponent"],
    )
    bands = job.grid.values()
    return [(theta, float(b), t, g, p, growth) for theta in job.theta_list for b in bands]


def _items_asymptotics(job):
    t, n, p, g = (
        job.fixed[k]
        for k in ("frame_duration", "num_subchannels", "power_over_nn0", "gamma")
    )
    return [(theta, t, n, p, g) for theta in job.theta_list]


def _items_queue(job):
    t, b, n0, g, snr = (
        job.fixed[k]
        for k in ("frame_duration", "bandwidth", "noise_psd", "gamma", "snr")
    )
    frames = job.fixed["frames"]
    margin = job.fixed["arrival_margin"]
    base_seed = job.seed if job.seed is not None else 0
    return [
        (theta, snr, t, b, n0, g, frames, margin, (base_seed + i) % 2**64)
        for i, theta in enumerate(job.theta_list)
    ]


def _summary_rho(rows):
    first, last = rows[0], rows[-1]
    return [
        f"rho_opt runs from {first[2]:.6g} at snr={first[0]:.6g} "
        f"to {last[2]:.6g} at snr={last[0]:.6g}"
    ]


def _summary_bit_energy(rows):
    lines = []
    for theta in sorted({r[0] for r in rows}):
        sub = [r for r in rows if r[0] == theta]
        best = min(sub, key=lambda r: r[-1])
        lines.append(
            f"theta={theta:g}: min ebn0_db={best[-1]:.6g} at {best[1]:.6g}"
        )
    return lines


def _summary_ebn0min(rows):
    lines = []
    for theta in sorted({r[0] for r in rows}):
        sub = [r for r in rows if r[0] == theta]
        best = min(sub, key=lambda r: r[3])
        lines.append(
            f"theta={theta:g}: min ebn0_db={best[3]:.6g} at "
            f"bandwidth={best[1]:.6g} snr={best[2]:.6g}"
        )
    return lines


def _summary_asymptotics(rows):
    return [
        f"theta={r[0]:g}: ebn0_min_db={r[7]:.6g} slope={r[8]:.6g}" for r in rows
    ]


def _summary_queue(rows):
    return [
        f"theta={r[0]:g}: theta_hat={r[1]:.6g} (ratio {r[2]:.4g}, "
        f"ci halfwidth {r[3]:.3g})"
        for r in rows
    ]


# se-vs-ebn0 and ebn0-vs-snr write the same columns; they differ only in
# the figure a recipe reads off them
_NARROWBAND = _Target(
    columns=(
        "theta",
        "snr",
        "snr_db",
        "rho_opt",
        "rate_opt_bps",
        "alpha_opt",
        "on_probability",
        "spectral_efficiency",
        "ebn0",
        "ebn0_db",
    ),
    worker=_row_narrowband,
    build_items=_items_narrowband,
    summarize=_summary_bit_energy,
)

_TARGET_TABLE = {
    "rho-vs-snr": _Target(
        columns=("snr", "snr_db", "rho_opt", "eta", "snr_eff_opt"),
        worker=_row_rho,
        build_items=_items_rho,
        summarize=_summary_rho,
    ),
    "se-vs-ebn0": _NARROWBAND,
    "ebn0-vs-snr": _NARROWBAND,
    "ebn0min-vs-bandwidth": _Target(
        columns=("theta", "bandwidth_hz", "snr_at_min", "ebn0_min_db"),
        worker=_row_ebn0min,
        build_items=_items_ebn0min,
        summarize=_summary_ebn0min,
    ),
    "wideband-se-vs-ebn0": _Target(
        columns=(
            "theta",
            "bandwidth_hz",
            "num_subchannels",
            "coherence_bandwidth_hz",
            "snr",
            "spectral_efficiency",
            "ebn0_nn0_db",
        ),
        worker=_row_wideband,
        build_items=_items_wideband,
        summarize=lambda rows: _summary_bit_energy(rows),
    ),
    "asymptotics-table": _Target(
        columns=(
            "theta",
            "phi",
            "rho_star",
            "alpha_star",
            "xi",
            "delta",
            "ebn0_min",
            "ebn0_min_db",
            "wideband_slope",
        ),
        worker=_row_asymptotics,
        build_items=_items_asymptotics,
        summarize=_summary_asymptotics,
    ),
    "queue-validate": _Target(
        columns=(
            "theta",
            "theta_hat",
            "theta_hat_over_theta",
            "ci_halfwidth",
            "q_lo_bits",
            "q_hi_bits",
            "samples_in_tail",
            "frames",
            "seed",
        ),
        worker=_row_queue,
        build_items=_items_queue,
        summarize=_summary_queue,
    ),
}


def _evaluate(job: SweepJob, worker, items):
    if job.jobs == 1 or len(items) <= 1:
        return [worker(item) for item in items]
    chunk = max(1, len(items) // (job.jobs * 4))
    with ProcessPoolExecutor(max_workers=job.jobs) as pool:
        return list(pool.map(worker, items, chunksize=chunk))


def _write_csv(job: SweepJob, columns, rows) -> None:
    seed_token = "none" if job.seed is None else str(job.seed)
    header = f"# effcap-kit v{__version__} job={job.target} seed={seed_token}"
    if job.target == "queue-validate":
        header += f" rng={RNG_ALGORITHM}"
    lines = [header, ",".join(columns)]
    for row in rows:
        if len(row) != len(columns):
            raise ConvergenceError("row width does not match the column header")
        lines.append(",".join(_format_value(v) for v in row))
    text = "\n".join(lines) + "\n"

    out = os.path.abspath(job.out_path)
    directory = os.path.dirname(out) or "."
    fd, tmp_path = tempfile.mkstemp(
        prefix=".effcap-", suffix=".csv.tmp", dir=directory, text=True
    )
    try:
        with os.fdopen(fd, "w", newline="") as handle:
            handle.write(text)
        os.replace(tmp_path, out)
    except BaseException:
        try:
            os.unlink(tmp_path)
        except OSError:
            pass
        raise


def run_sweep(job: SweepJob) -> str:
    """Evaluate the job, write its CSV and print a short summary.

    Returns the output path. All rows are computed before anything is
    written, and the file lands atomically, so a failed run never
    leaves a partial CSV behind.
    """
    target = _TARGET_TABLE[job.target]
    items = target.build_items(job)
    if not items:
        raise DomainError("job produced no grid points")
    rows = _evaluate(job, target.worker, items)
    _write_csv(job, target.columns, rows)
    print(f"wrote {job.out_path} ({len(rows)} rows)")
    for line in target.summarize(rows):
        print(line)
    return job.out_path


# parameter declarations: one row per flag, shared between the argument
# parser and the config-file merge

@dataclass(frozen=True)
class _Param:
    name: str
    kind: str  # float | int | str | thetas
    default: object = None  # None means required unless required=False
    required: bool = True
    help: str = ""


def _parse_thetas(text: str) -> tuple:
    try:
        values = tuple(float(part) for part in str(text).split(",") if part.strip())
    except ValueError:
        raise DomainError(f"could not parse theta list {text!r}") from None
    if not values:
        raise DomainError("theta-list must name at least one value")
    return values


_CASTS = {
    "float": float,
    "int": int,
    "str": str,
    "thetas": _parse_thetas,
}

_GRID_SNR = [
    _Param("snr-min", "float", help="lower edge of the nominal-SNR grid"),
    _Param("snr-max", "float", help="upper edge of the nominal-SNR grid"),
    _Param("points", "int", help="number of grid points"),
    _Param("spacing", "str", "log", help="grid spacing, log or linear"),
]

_GRID_BAND = [
    _Param("b-min", "float", help="lower edge of the bandwidth grid in Hz"),
    _Param("b-max", "float", help="upper edge of the bandwidth grid in Hz"),
    _Param("points", "int", help="number of grid points"),
    _Param("spacing", "str", "log", help="grid spacing, log or linear"),
]

_LINK = [
    _Param(
        "frame-duration",
        "float",
        2e-3,
        help="frame duration T in seconds (default 0.002, the value the "
        "reference curves assume)",
    ),
    _Param("gamma", "float", 1.0, help="fading variance"),
    _Param("noise-psd", "float", 1.0, help="noise spectral density in W/Hz"),
]

_THETAS = _Param("theta-list", "thetas", help="comma-separated QoS exponents")

_NARROWBAND_PARAMS = (
    _GRID_SNR + _LINK + [_Param("bandwidth", "float", help="link bandwidth in Hz"), _THETAS]
)

_TARGET_PARAMS = {
    "rho-vs-snr": _GRID_SNR
    + _LINK
    + [_Param("bandwidth", "float", help="link bandwidth in Hz")],
    "se-vs-ebn0": _NARROWBAND_PARAMS,
    "ebn0-vs-snr": _NARROWBAND_PARAMS,
    "ebn0min-vs-bandwidth": _GRID_BAND
    + _LINK
    + [
        _THETAS,
        _Param("search-snr-min", "float", 1e-6, help="SNR search grid lower edge"),
        _Param("search-snr-max", "float", 10.0, help="SNR search grid upper edge"),
        _Param("search-snr-points", "int", 48, help="SNR search grid size"),
    ],
    "wideband-se-vs-ebn0": _GRID_BAND
    + [
        _THETAS,
        _Param("frame-duration", "float", 2e-3, help="frame duration in seconds"),
        _Param("gamma", "float", 1.0, help="fading variance"),
        _Param("power-over-n0", "float", help="total avg_power / noise_psd in Hz"),
        _Param(
            "growth",
            "str",
            "bounded",
            help="subchannel growth law: bounded, linear or sublinear",
        ),
        _Param("num-subchannels", "int", help="subchannel count at the reference bandwidth"),
        _Param(
            "b-ref",
            "float",
            required=False,
            help="reference bandwidth for the growth law (default: b-min)",
        ),
        _Param("growth-exponent", "float", 0.5, help="sublinear growth exponent"),
    ],
    "asymptotics-table": [
        _THETAS,
        _Param("frame-duration", "float", 2e-3, help="frame duration in seconds"),
        _Param("gamma", "float", 1.0, help="fading variance"),
        _Param("power-over-nn0", "float", help="avg_power / (N noise_psd) in Hz"),
        _Param("num-subchannels", "int", 1, help="subchannel count (validated only)"),
    ],
    "queue-validate": _LINK
    + [
        _THETAS,
        _Param("snr", "float", help="nominal SNR of the simulated link"),
        _Param("bandwidth", "float", help="link bandwidth in Hz"),
        _Param("frames", "int", 1_000_000, help="simulated frames per theta"),
        _Param("arrival-margin", "float", 1.0, help="offered load relative to capacity"),
    ],
}


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--out", required=True, help="output CSV path")
    parser.add_argument("--config", help="key = value file; flags override it")
    parser.add_argument(
        "--jobs",
        type=int,
        default=None,
        help="worker processes (default: available parallelism)",
    )
    parser.add_argument(
        "--seed",
        type=int,
        default=None,
        help=f"seed for stochastic jobs (default: ${_SEED_ENV})",
    )


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise DomainError(message)


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="effcap-kit", description=__doc__.splitlines()[0])
    parser.add_argument("--version", action="version", version=__version__)
    subs = parser.add_subparsers(dest="target", required=True)
    for target, params in _TARGET_PARAMS.items():
        sub = subs.add_parser(target, help=f"{target} sweep")
        _add_common(sub)
        for p in params:
            sub.add_argument(
                f"--{p.name}",
                dest=p.name.replace("-", "_"),
                type=str,
                default=None,
                help=p.help,
            )
    return parser


def _read_config(path: str) -> dict:
    values = {}
    with open(path, encoding="utf-8") as handle:
        for lineno, raw in enumerate(handle, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise DomainError(f"{path}:{lineno}: expected key = value")
            key, _, value = line.partition("=")
            values[key.strip().replace("-", "_")] = value.strip()
    return values


def _merge_params(args: argparse.Namespace) -> dict:
    params = _TARGET_PARAMS[args.target]
    config = _read_config(args.config) if args.config else {}
    known = {p.name.replace("-", "_") for p in params} | {"seed", "jobs", "out"}
    for key in config:
        if key not in known:
            raise DomainError(f"unknown config key {key!r} for {args.target}")

    merged = {}
    for p in params:
        dest = p.name.replace("-", "_")
        raw = getattr(args, dest)
        if raw is None and dest in config:
            raw = config[dest]
        if raw is None:
            if p.default is not None:
                merged[dest] = p.default
                continue
            if not p.required:
                merged[dest] = None
                continue
            raise DomainError(f"missing required parameter --{p.name}")
        try:
            merged[dest] = _CASTS[p.kind](raw)
        except (TypeError, ValueError):
            raise DomainError(f"bad value for --{p.name}: {raw!r}") from None

    seed = args.seed
    if seed is None and "seed" in config:
        seed = int(config["seed"])
    if seed is None:
        env = os.environ.get(_SEED_ENV)
        if env is not None:
            try:
                seed = int(env)
            except ValueError:
                raise DomainError(f"{_SEED_ENV} must be an integer, got {env!r}") from None
    merged["seed"] = seed

    jobs = args.jobs
    if jobs is None and "jobs" in config:
        jobs = int(config["jobs"])
    merged["jobs"] = jobs if jobs is not None else (os.cpu_count() or 1)
    return merged


def _job_from_args(args: argparse.Namespace) -> SweepJob:
    merged = _merge_params(args)
    target = args.target
    seed = merged.pop("seed")
    jobs = merged.pop("jobs")

    grid = None
    if target in ("rho-vs-snr", "se-vs-ebn0", "ebn0-vs-snr"):
        grid = GridSpec(
            "snr",
            merged.pop("snr_min"),
            merged.pop("snr_max"),
            merged.pop("points"),
            merged.pop("spacing"),
        )
    elif target in ("ebn0min-vs-bandwidth", "wideband-se-vs-ebn0"):
        grid = GridSpec(
            "bandwidth",
            merged.pop("b_min"),
            merged.pop("b_max"),
            merged.pop("points"),
            merged.pop("spacing"),
        )
    if target == "wideband-se-vs-ebn0":
        if merged.get("b_ref") is None:
            merged["b_ref"] = grid.lo
        if merged["growth"] not in ("bounded", "linear", "sublinear"):
            raise DomainError(f"unknown growth law {merged['growth']!r}")
    if target == "queue-validate" and seed is None:
        seed = 0

    thetas = merged.pop("theta_list", ())
    return SweepJob(
        target=target,
        out_path=args.out,
        fixed=merged,
        grid=grid,
        theta_list=thetas,
        seed=seed,
        jobs=jobs,
    )


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        job = _job_from_args(args)
        run_sweep(job)
        return 0
    except SystemExit as exc:  # --help and --version land here
        code = exc.code
        return 0 if code in (None, 0) else 1
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ConvergenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except EffcapError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
