"""Shared pieces of the benchmark: paths, workload inputs and output checks.

Everything here is used by run.py and, for the cold wideband pass, by a
fresh interpreter running wideband_pass.py, so it imports effcap_kit
only inside functions.
"""

import math
import os

import numpy as np

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
RECIPE_DIR = os.path.join(ROOT, "recipes")
REFERENCE_DIR = os.path.join(BENCH_DIR, "reference")

# recipe file stem -> CLI target, as named in each recipe's "Run:" comment
RECIPES = {
    "fig3": "rho-vs-snr",
    "fig4": "se-vs-ebn0",
    "fig5": "ebn0-vs-snr",
    "fig6": "ebn0min-vs-bandwidth",
    "fig7": "wideband-se-vs-ebn0",
    "fig9": "wideband-se-vs-ebn0",
    "asymptotics_table": "asymptotics-table",
}

# queue-tail: acceptance criterion 09's operating point
QUEUE_THETAS = (0.005, 0.01, 0.05)
QUEUE_SNR = 1.0
QUEUE_BANDWIDTH_HZ = 1e5
QUEUE_FRAMES = 10_000_000
QUEUE_BAND = (0.85, 1.15)
# seed of the recorded reference CSV; the CLI's own default for queue-validate
QUEUE_REFERENCE_SEED = 0

# wideband-hetero: acceptance criterion 07's parameter ranges. One pass
# builds one N = 1024 and ten N = 64 configs and evaluates each on the
# same rate x theta grid; at the seed commit an N = 1024 evaluation cost
# about ten N = 64 ones, so each size takes about half the pass.
WB_FRAME_S = 2e-3
WB_COHERENCE_HZ = 1e4
WB_SIZES = (1024,) + (64,) * 10
WB_RATES = 4
WB_THETAS = 3
WB_IID_CASES = (64, 64, 1024, 1024)
# criterion 07 compares with pytest.approx(rel=1e-10), whose default absolute
# floor of 1e-12 is kept: near zero capacity the wideband route's log of a
# sum close to one has an absolute, not a relative, error
WB_IID_REL_TOL = 1e-10
WB_IID_ABS_TOL = 1e-12

# CSV cells are printed with 12 significant digits. A relative tolerance
# of 1e-9 leaves the last three digits free for a solver or summation
# order change and still catches any change of formula. snr_at_min comes
# out of a golden-section search stopped at 1e-6 in log10(SNR), so a
# different but equally valid minimizer may move it by ~2.3e-6 relative.
CSV_REL_TOL = 1e-9
CSV_COLUMN_REL_TOL = {"snr_at_min": 1e-5}


def child_env() -> dict:
    """Environment for a child interpreter: the checkout's src first, and no
    EFFCAP_SEED, whose value would change the CSV headers."""
    env = dict(os.environ)
    env.pop("EFFCAP_SEED", None)
    rest = env.get("PYTHONPATH")
    env["PYTHONPATH"] = SRC + (os.pathsep + rest if rest else "")
    return env


def recipe_argv(name: str, out: str) -> list:
    return [RECIPES[name], "--config", os.path.join(RECIPE_DIR, name + ".cfg"), "--out", out]


def queue_argv(seed: int, out: str) -> list:
    return [
        "queue-validate",
        "--theta-list", ",".join(repr(t) for t in QUEUE_THETAS),
        "--snr", repr(QUEUE_SNR),
        "--bandwidth", repr(QUEUE_BANDWIDTH_HZ),
        "--frames", str(QUEUE_FRAMES),
        "--seed", str(seed),
        "--out", out,
    ]


def read_text(path: str) -> str:
    with open(path, encoding="utf-8") as handle:
        return handle.read()


def parse_csv(text: str):
    """(header comment, column names, rows of cell strings) of a CLI CSV."""
    lines = text.splitlines()
    if len(lines) < 2 or not lines[0].startswith("# effcap-kit"):
        raise ValueError("not an effcap-kit CSV")
    columns = lines[1].split(",")
    rows = [line.split(",") for line in lines[2:]]
    for row in rows:
        if len(row) != len(columns):
            raise ValueError("row width does not match the header")
    return lines[0], columns, rows


def _header_tokens(header: str) -> list:
    # the tool version may change without changing any result
    return [t for t in header.split() if not t.startswith("v")]


def cells_match(got: str, want: str, rel_tol: float) -> bool:
    if want.lstrip("-").isdigit():
        return got == want
    try:
        return math.isclose(float(got), float(want), rel_tol=rel_tol, abs_tol=0.0)
    except ValueError:
        return False


def csv_problems(text: str, ref_text: str) -> list:
    """Differences between a CLI CSV and its reference, empty when it matches."""
    try:
        header, columns, rows = parse_csv(text)
    except ValueError as exc:
        return [str(exc)]
    ref_header, ref_columns, ref_rows = parse_csv(ref_text)
    if _header_tokens(header) != _header_tokens(ref_header):
        return [f"header {header!r} != {ref_header!r}"]
    if columns != ref_columns:
        return [f"columns {columns} != {ref_columns}"]
    if len(rows) != len(ref_rows):
        return [f"{len(rows)} rows, reference has {len(ref_rows)}"]
    problems = []
    for i, (row, ref) in enumerate(zip(rows, ref_rows)):
        for col, got, want in zip(columns, row, ref):
            if not cells_match(got, want, CSV_COLUMN_REL_TOL.get(col, CSV_REL_TOL)):
                problems.append(f"row {i} {col}: {got} != {want}")
    return problems


def rows_problems(columns, rows, values) -> list:
    """Differences between CSV rows and replayed row tuples (drift guard)."""
    if len(rows) != len(values):
        return [f"replay made {len(values)} rows, the CLI wrote {len(rows)}"]
    problems = []
    for i, (row, replay) in enumerate(zip(rows, values)):
        if len(replay) != len(columns):
            return [f"replay row {i} has {len(replay)} cells, the CLI wrote {len(columns)}"]
        for col, got, value in zip(columns, row, replay):
            want = str(int(value)) if isinstance(value, (int, np.integer)) else format_float(value)
            if not cells_match(got, want, CSV_COLUMN_REL_TOL.get(col, CSV_REL_TOL)):
                problems.append(f"row {i} {col}: CLI {got} != replay {want}")
    return problems


def format_float(x: float) -> str:
    x = float(x)
    return "inf" if math.isinf(x) else f"{x:.12g}"


def queue_shape_problems(text: str, seed: int) -> list:
    """Row count, thetas, frame counts and per-theta seeds of a queue-validate CSV."""
    try:
        _, columns, rows = parse_csv(text)
    except ValueError as exc:
        return [str(exc)]
    if len(rows) != len(QUEUE_THETAS):
        return [f"{len(rows)} rows for {len(QUEUE_THETAS)} thetas"]
    problems = []
    for i, (row, theta) in enumerate(zip(rows, QUEUE_THETAS)):
        cells = dict(zip(columns, row))
        want = (("theta", repr(theta)), ("frames", str(QUEUE_FRAMES)), ("seed", str((seed + i) % 2**64)))
        for column, value in want:
            if cells.get(column) != value:
                problems.append(f"row {i} {column}: {cells.get(column)} != {value}")
    return problems


def queue_band_misses(text: str) -> int:
    """Rows whose theta_hat / theta lies outside criterion 09's band."""
    _, columns, rows = parse_csv(text)
    ratio = columns.index("theta_hat_over_theta")
    lo, hi = QUEUE_BAND
    return sum(not lo <= float(row[ratio]) <= hi for row in rows)


def wideband_inputs(seed: int) -> dict:
    """Heterogeneous subchannel draws and the rate x theta grid of one seed."""
    rng = np.random.default_rng([seed, 7])
    configs = []
    for n in WB_SIZES:
        powers = rng.uniform(100.0, 5e3, n)
        variances = rng.uniform(0.5, 2.0, n)
        rhos = rng.uniform(0.05, 0.95, n)
        configs.append(
            (n, tuple(map(float, variances)), tuple(map(float, powers)), tuple(map(float, rhos)))
        )
    rates = tuple(float(r) for r in np.sort(rng.uniform(1e3, 2e4, WB_RATES)))
    thetas = tuple(float(t) for t in 10.0 ** rng.uniform(-3.0, 0.0, WB_THETAS))
    return {"configs": configs, "rates": rates, "thetas": thetas}


def build_wideband_config(n, variances, powers, rhos):
    from effcap_kit import LinkConfig, WidebandConfig

    link = LinkConfig(WB_FRAME_S, n * WB_COHERENCE_HZ, 1.0, sum(powers))
    return WidebandConfig(n, WB_COHERENCE_HZ, link, variances, powers, rhos)


def wideband_pass(inputs: dict) -> list:
    """Build every config and evaluate it over the grid; one value per evaluation."""
    from effcap_kit import QosSpec, effective_capacity_wideband

    qos = [QosSpec(t) for t in inputs["thetas"]]
    values = []
    for n, variances, powers, rhos in inputs["configs"]:
        wcfg = build_wideband_config(n, variances, powers, rhos)
        for q in qos:
            for rate in inputs["rates"]:
                values.append(effective_capacity_wideband(wcfg, q, rate))
    return values


def wideband_evaluations(inputs: dict) -> list:
    """(n, rate) of each evaluation, in the order wideband_pass makes them."""
    return [
        (cfg[0], rate)
        for cfg in inputs["configs"]
        for _ in inputs["thetas"]
        for rate in inputs["rates"]
    ]


def wideband_value_ok(value: float, rate: float) -> bool:
    # R_E per Hz of total bandwidth lies in [0, r / B_c]; the slack is the
    # rounding of a log of a probability-weighted sum near one
    return math.isfinite(value) and 0.0 <= value <= rate / WB_COHERENCE_HZ * (1.0 + 1e-12)
