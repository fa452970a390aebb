"""Command-line front end: parameter sweeps with CSV output.

One subcommand per sweep target, which takes only the flags that change
its output, besides --out and --config. Every parameter is a --key
value flag; a plain key = value file can be passed with --config, and
explicit flags override the file. Grids are log-spaced. The analytic
targets evaluate their grid points in this process; queue-validate
simulates its thetas in min(thetas, CPUs) worker processes, or in this
process when that is 1. Rows are always written in grid order.

CSV layout: the first line is a comment header naming the tool version,
the job and the seed (seed=none for the analytic targets); the second
line holds the snake_case column names; floats carry 12 significant
digits, dB columns end in _db, and the only non-finite token ever
emitted is the literal inf.

Every flag, queue-validate's --seed included, is a _Param row: flag,
config value and cast go through one merge, and the checks in errors.py
judge the values. Only queue-validate draws random numbers, so only it
takes a seed: from --seed, the config, the EFFCAP_SEED fallback, then 0,
in [0, 2**64); its i-th theta uses (seed + i) mod 2**64.

Exit codes: 0 success, 1 domain or validation error (a bad config file
included), 2 convergence failure, 3 I/O error.
"""

import argparse
import math
import numbers
import os
import sys
import tempfile
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import __version__
from .effcap import QosSpec, min_bit_energy_numeric, spectral_efficiency
from .errors import ConvergenceError, DomainError, EffcapError, as_integer, as_positive, as_seed
from .link_model import LinkConfig
from .queue_sim import RNG_ALGORITHM, SimSpec, simulate_queue
from .training import rho_opt_closed_form
from .wideband import GrowthLaw, asymptotics_sparse_bounded, bit_energy_vs_bandwidth

__all__ = ["GridSpec", "SweepJob", "run_sweep", "main"]

_SEED_ENV = "EFFCAP_SEED"


@dataclass(frozen=True)
class GridSpec:
    """Log-spaced grid of the axis a job sweeps."""

    lo: float
    hi: float
    points: int

    def __post_init__(self):
        object.__setattr__(self, "points", as_integer("points", self.points, 2))
        lo, hi = as_positive("lo", self.lo), as_positive("hi", self.hi)
        if not lo < hi:
            raise DomainError(f"grid bounds need lo < hi, got {lo!r}, {hi!r}")
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)

    def values(self) -> np.ndarray:
        return np.geomspace(self.lo, self.hi, self.points)


@dataclass(frozen=True)
class SweepJob:
    """A fully resolved sweep: target, grid, fixed parameters, output."""

    target: str
    out_path: str
    fixed: dict
    grid: GridSpec = None
    theta_list: tuple = ()
    seed: int = None

    def __post_init__(self):
        if self.target not in _TARGETS:
            raise DomainError(f"unknown target {self.target!r}")
        if not self.out_path:
            raise DomainError("out_path must be set")
        object.__setattr__(self, "theta_list", tuple(QosSpec(t).theta for t in self.theta_list))
        if self.seed is not None:
            object.__setattr__(self, "seed", as_seed("seed", self.seed))


def _format_value(value) -> str:
    if type(value) is float:
        text = f"{value:.12g}"
    elif isinstance(value, numbers.Integral):
        return str(int(value))
    else:
        text = f"{float(value):.12g}"
    # of the texts with an n, only inf is a valid cell: nan and -inf raise
    if "n" in text and text != "inf":
        raise ConvergenceError(f"{text} reached an output row")
    return text


def _db(x: float) -> float:
    return math.inf if x <= 0.0 else 10.0 * math.log10(x)


# parameter declarations: one row per flag, shared between the argument
# parser and the config-file merge

@dataclass(frozen=True)
class _Param:
    name: str
    kind: str  # float | int | str | thetas
    default: object = None  # None means required unless required=False
    required: bool = True
    help: str = ""

    @property
    def dest(self) -> str:
        return self.name.replace("-", "_")


def _parse_thetas(text: str) -> tuple:
    # the parts stay text; SweepJob reads each as a QosSpec theta
    values = tuple(part for part in str(text).split(",") if part.strip())
    if not values:
        raise DomainError("theta-list must name at least one value")
    return values


_CASTS = {
    "float": float,
    "int": int,
    "str": str,
    "thetas": _parse_thetas,
}


def _grid_params(prefix: str, what: str) -> tuple:
    # in GridSpec's argument order: lo, hi, points
    return (
        _Param(f"{prefix}-min", "float", help=f"lower edge of the {what}"),
        _Param(f"{prefix}-max", "float", help=f"upper edge of the {what}"),
        _Param("points", "int", help="number of log-spaced grid points"),
    )


# flags of each GridSpec axis a target can sweep
_GRID_PARAMS = {
    "snr": _grid_params("snr", "nominal-SNR grid"),
    "bandwidth": _grid_params("b", "bandwidth grid in Hz"),
}

_FRAME_DURATION = _Param(
    "frame-duration",
    "float",
    2e-3,
    help="frame duration T in seconds (default 0.002, the value the "
    "reference curves assume)",
)
_GAMMA = _Param("gamma", "float", 1.0, help="fading variance")
_LINK = (
    _FRAME_DURATION,
    _GAMMA,
    _Param("noise-psd", "float", 1.0, help="noise spectral density in W/Hz"),
)
_BANDWIDTH = _Param("bandwidth", "float", help="link bandwidth in Hz")
_THETAS = _Param("theta-list", "thetas", help="comma-separated QoS exponents")


# row builders: rows(job) returns the CSV rows in output order

def _link(job: SweepJob, snr: float) -> LinkConfig:
    f = job.fixed
    t, b, n0 = f["frame_duration"], f["bandwidth"], f["noise_psd"]
    return LinkConfig(t, b, n0, snr * n0 * b, f["gamma"])


def _rows_rho(job):
    rows = []
    for snr in job.grid.values().tolist():
        sol = rho_opt_closed_form(_link(job, snr))
        rows.append((snr, _db(snr), sol.rho_opt, sol.eta, sol.snr_eff_opt))
    return rows


def _rows_narrowband(job):
    rows = []
    for theta in job.theta_list:
        qos = QosSpec(theta)
        for snr in job.grid.values().tolist():
            res = spectral_efficiency(_link(job, snr), qos)
            re = res.spectral_efficiency
            ebn0 = math.inf if re <= 0.0 else snr / re
            rows.append(
                (
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
            )
    return rows


def _rows_ebn0min(job):
    f = job.fixed
    t, n0, gamma, s_lo = f["frame_duration"], f["noise_psd"], f["gamma"], f["search_snr_min"]
    search = GridSpec(s_lo, f["search_snr_max"], f["search_snr_points"]).values()
    rows = []
    for theta in job.theta_list:
        qos = QosSpec(theta)
        for b in job.grid.values().tolist():
            cfg = LinkConfig(t, b, n0, s_lo * n0 * b, gamma)
            snr_at_min, ebn0_db = min_bit_energy_numeric(cfg, qos, search)
            rows.append((theta, b, snr_at_min, ebn0_db))
    return rows


def _rows_wideband(job):
    f = job.fixed
    b_ref = f["b_ref"] if f["b_ref"] is not None else job.grid.lo
    growth = GrowthLaw(f["growth"], f["num_subchannels"], b_ref, f["growth_exponent"])
    rows = []
    for theta in job.theta_list:
        points = bit_energy_vs_bandwidth(
            theta, f["frame_duration"], growth, f["power_over_n0"], f["gamma"], job.grid.values()
        )
        rows.extend(
            (
                theta,
                p.bandwidth_hz,
                p.num_subchannels,
                p.coherence_bandwidth_hz,
                p.snr,
                p.spectral_efficiency,
                p.ebn0_db,
            )
            for p in points
        )
    return rows


def _rows_asymptotics(job):
    f = job.fixed
    rows = []
    for theta in job.theta_list:
        # the limits depend on the power per subchannel, not on N
        a = asymptotics_sparse_bounded(
            theta, f["frame_duration"], 1, f["power_over_nn0"], f["gamma"]
        )
        rows.append(
            (
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
        )
    return rows


def _row_queue(item):
    # module level, over a picklable tuple, so that a worker process can run it
    theta, cfg, frames, margin, seed = item
    est = simulate_queue(SimSpec(cfg, QosSpec(theta), frames, seed, margin))
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


def _rows_queue(job):
    f = job.fixed
    cfg = _link(job, f["snr"])
    base_seed = job.seed if job.seed is not None else 0
    items = [
        (theta, cfg, f["frames"], f["arrival_margin"], (base_seed + i) % 2**64)
        for i, theta in enumerate(job.theta_list)
    ]
    # a theta simulates millions of frames, which pays for starting a
    # worker process; one grid point of an analytic target does not
    workers = min(len(items), os.cpu_count() or 1)
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(_row_queue, items))
    return [_row_queue(item) for item in items]


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


@dataclass(frozen=True)
class _Target:
    """One sweep target: its CSV columns, its flags and how its rows are built.

    axis names the GridSpec axis the target sweeps, whose flags come
    before params; None means the target has no grid.
    """

    columns: tuple
    params: tuple
    rows: object
    summarize: object
    axis: str = None

    @property
    def flags(self) -> tuple:
        return _GRID_PARAMS.get(self.axis, ()) + self.params


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
    params=_LINK + (_BANDWIDTH, _THETAS),
    rows=_rows_narrowband,
    summarize=_summary_bit_energy,
    axis="snr",
)

_TARGETS = {
    "rho-vs-snr": _Target(
        columns=("snr", "snr_db", "rho_opt", "eta", "snr_eff_opt"),
        params=_LINK + (_BANDWIDTH,),
        rows=_rows_rho,
        summarize=_summary_rho,
        axis="snr",
    ),
    "se-vs-ebn0": _NARROWBAND,
    "ebn0-vs-snr": _NARROWBAND,
    "ebn0min-vs-bandwidth": _Target(
        columns=("theta", "bandwidth_hz", "snr_at_min", "ebn0_min_db"),
        params=_LINK
        + (
            _THETAS,
            _Param("search-snr-min", "float", 1e-6, help="SNR search grid lower edge"),
            _Param("search-snr-max", "float", 10.0, help="SNR search grid upper edge"),
            _Param("search-snr-points", "int", 48, help="SNR search grid size"),
        ),
        rows=_rows_ebn0min,
        summarize=_summary_ebn0min,
        axis="bandwidth",
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
        params=(
            _THETAS,
            _FRAME_DURATION,
            _GAMMA,
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
        ),
        rows=_rows_wideband,
        summarize=_summary_bit_energy,
        axis="bandwidth",
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
        params=(
            _THETAS,
            _FRAME_DURATION,
            _GAMMA,
            _Param("power-over-nn0", "float", help="avg_power / (N noise_psd) in Hz"),
        ),
        rows=_rows_asymptotics,
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
        params=_LINK
        + (
            _THETAS,
            _Param("snr", "float", help="nominal SNR of the simulated link"),
            _BANDWIDTH,
            _Param("frames", "int", 1_000_000, help="simulated frames per theta"),
            _Param("arrival-margin", "float", 1.0, help="offered load relative to capacity"),
            _Param(
                "seed",
                "int",
                required=False,
                help=f"seed in [0, 2**64) (default: ${_SEED_ENV}, then 0)",
            ),
        ),
        rows=_rows_queue,
        summarize=_summary_queue,
    ),
}


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
    target = _TARGETS[job.target]
    rows = target.rows(job)
    if not rows:
        raise DomainError("job produced no grid points")
    _write_csv(job, target.columns, rows)
    print(f"wrote {job.out_path} ({len(rows)} rows)")
    for line in target.summarize(rows):
        print(line)
    return job.out_path


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--out", required=True, help="output CSV path")
    parser.add_argument("--config", help="key = value file; flags override it")


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise DomainError(message)


def _build_parser(argv) -> argparse.ArgumentParser:
    """The parser for argv, with flags for the target argv names only.

    A known target gets the only subparser, which holds its flags; any
    other argv gets an empty subparser per target, so that --help and
    the error for an unknown target list them all. The top level takes
    no option with a value, so the first non-option word is the target.
    """
    selected = next((a for a in argv if not a.startswith("-")), None)
    names = (selected,) if selected in _TARGETS else tuple(_TARGETS)
    parser = _Parser(prog="effcap-kit", description=__doc__.splitlines()[0])
    parser.add_argument("--version", action="version", version=__version__)
    subs = parser.add_subparsers(dest="target", required=True)
    for name in names:
        sub = subs.add_parser(name, help=f"{name} sweep")
        if name == selected:
            _add_common(sub)
            for p in _TARGETS[name].flags:
                sub.add_argument(f"--{p.name}", dest=p.dest, type=str, default=None, help=p.help)
    return parser


def _read_config(path: str) -> dict:
    try:
        with open(path, encoding="utf-8") as handle:
            text = handle.read()
    except UnicodeDecodeError as exc:
        raise DomainError(f"{path}: not UTF-8 text ({exc})") from None
    values = {}
    for lineno, raw in enumerate(text.split("\n"), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise DomainError(f"{path}:{lineno}: expected key = value")
        key, _, value = line.partition("=")
        values[key.strip().replace("-", "_")] = value.strip()
    return values


def _merge_params(args: argparse.Namespace, params) -> dict:
    config = _read_config(args.config) if args.config else {}
    known = {p.dest for p in params} | {"out"}
    for key in config:
        if key not in known:
            raise DomainError(f"unknown config key {key!r} for {args.target}")

    merged = {}
    for p in params:
        raw = getattr(args, p.dest)
        if raw is None:
            raw = config.get(p.dest)
        if raw is None:
            if p.default is None and p.required:
                raise DomainError(f"missing required parameter --{p.name}")
            merged[p.dest] = p.default
            continue
        try:
            merged[p.dest] = _CASTS[p.kind](raw)
        except (TypeError, ValueError):
            raise DomainError(f"bad value for --{p.name}: {raw!r}") from None
    return merged


def _job_from_args(args: argparse.Namespace) -> SweepJob:
    target = _TARGETS[args.target]
    merged = _merge_params(args, target.flags)
    # only queue-validate has a seed flag, so only it reads the environment
    seed = merged.pop("seed", None)
    if seed is None and args.target == "queue-validate":
        env = os.environ.get(_SEED_ENV, "0")
        try:
            seed = int(env)
        except ValueError:
            raise DomainError(f"{_SEED_ENV} must be an integer, got {env!r}") from None
        seed = as_seed(_SEED_ENV, seed)

    grid = None
    if target.axis is not None:
        grid = GridSpec(*(merged.pop(p.dest) for p in _GRID_PARAMS[target.axis]))

    thetas = merged.pop("theta_list", ())
    return SweepJob(
        target=args.target,
        out_path=args.out,
        fixed=merged,
        grid=grid,
        theta_list=thetas,
        seed=seed,
    )


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        args = _build_parser(argv).parse_args(argv)
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
