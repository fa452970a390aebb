"""Traced run: per-layer metrics from replays of the workloads' inputs.

The replays call the public functions the CLI calls, with the inputs
the CLI would build, and put a span around each call. A span holds its
name, start, end, parent span and run id; spans and counts stay in
memory until the run ends. Spans are taken in the benchmark only, around
calls into the package, never inside it.

Every traced run replays all three workloads, so every per-layer metric
is printed each time; each metric comes from the replay of the workload
that uses its layer. link_model and training per-call times are
measured at the operating points of both workloads that reach them.
`--workload` selects the replay whose traced and untraced times give
trace.overhead_pct.

Replay-drift guard: a replay must reproduce the row count and values of
the CLI output it stands for, or the run is reported as not correct.
"""

import math
import os
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass

import numpy as np

import common
import workloads

_SETUP_PACKAGES = ("scipy", "numpy", "effcap_kit")
IMPORTTIME_SAMPLES = 3
WARM_CLI_PASSES = 3
MIN_OVERHEAD_PAIRS = 2

PER_LAYER_UNITS = {
    **{f"setup.{p}_ms": "ms" for p in _SETUP_PACKAGES},
    **{f"cli.main_ms.{r}": "ms" for r in common.RECIPES},
    **{f"cli.cold_wall_s.{r}": "s" for r in common.RECIPES},
    **{f"cli.self_ms.{r}": "ms" for r in common.RECIPES},
    **{
        f"{fn}_us.{w}": "us"
        for w in ("recipes", "wideband-hetero")
        for fn in (
            "link_model.LinkConfig",
            "link_model.effective_snr",
            "link_model.outage_threshold",
            "training.rho_opt_closed_form",
        )
    },
    "effcap.spectral_efficiency_us.theta_pos": "us",
    "effcap.spectral_efficiency_us.theta0": "us",
    "effcap.min_bit_energy_numeric_ms": "ms",
    "wideband.bit_energy_vs_bandwidth_us": "us",
    "wideband.asymptotics_sparse_bounded_us": "us",
    "wideband.WidebandConfig_ms.n64": "ms",
    "wideband.WidebandConfig_ms.n1024": "ms",
    "wideband.effective_capacity_wideband_ms.n64": "ms",
    "wideband.effective_capacity_wideband_ms.n1024": "ms",
    "wideband.subchannel_evals": "count",
    "queue_sim.bernoulli_trace_ms": "ms",
    "queue_sim.lindley_path_ms": "ms",
    "queue_sim.simulate_queue_ms": "ms",
    "queue_sim.tail_fit_ms": "ms",
    "queue_sim.bytes_computed": "bytes",
    "queue_sim.ci_miss": "count",
    "trace.overhead_pct": "%",
}


@dataclass(frozen=True)
class Span:
    name: str
    start_ns: int
    end_ns: int
    parent: int  # index of the enclosing span in Tracer.spans, -1 for none
    run_id: str

    @property
    def ns(self) -> int:
        return self.end_ns - self.start_ns


class Tracer:
    """Spans and counts of one replay, kept in memory.

    With enabled=False call() only calls, so the same replay code times
    the untraced run that the tracing overhead is measured against.
    """

    def __init__(self, run_id: str, enabled: bool = True):
        self.run_id = run_id
        self.enabled = enabled
        self.spans = []
        self.counts = {}
        self._open = []

    def call(self, name: str, fn, *args):
        if not self.enabled:
            return fn(*args)
        index = len(self.spans)
        self.spans.append(None)
        parent = self._open[-1] if self._open else -1
        self._open.append(index)
        start = time.perf_counter_ns()
        try:
            return fn(*args)
        finally:
            end = time.perf_counter_ns()
            self._open.pop()
            self.spans[index] = Span(name, start, end, parent, self.run_id)

    def count(self, name: str, n: int = 1) -> None:
        if self.enabled:
            self.counts[name] = self.counts.get(name, 0) + n

    def durations_ns(self, name: str) -> list:
        return [s.ns for s in self.spans if s.name == name]

    def children_ns(self, index: int) -> int:
        """The part of a span that its child spans cover."""
        return sum(s.ns for s in self.spans if s.parent == index)

    def find(self, name: str) -> int:
        return next(i for i, s in enumerate(self.spans) if s.name == name)


# -- recipes ---------------------------------------------------------------

# the CLI's documented defaults for keys a recipe may leave out
_RECIPE_DEFAULTS = {
    "frame_duration": "2e-3",
    "gamma": "1",
    "noise_psd": "1",
    "spacing": "log",
    "search_snr_min": "1e-6",
    "search_snr_max": "10",
    "search_snr_points": "48",
    "growth": "bounded",
    "growth_exponent": "0.5",
    "num_subchannels": "1",
}
_INT_KEYS = ("points", "search_snr_points", "num_subchannels")
_STR_KEYS = ("spacing", "growth")


def read_recipe(name: str) -> dict:
    raw = dict(_RECIPE_DEFAULTS)
    with open(os.path.join(common.RECIPE_DIR, name + ".cfg"), encoding="utf-8") as handle:
        for line in handle:
            line = line.split("#", 1)[0].strip()
            if line:
                key, _, value = line.partition("=")
                raw[key.strip().replace("-", "_")] = value.strip()
    params = {}
    for key, value in raw.items():
        if key == "theta_list":
            params[key] = tuple(float(v) for v in value.split(",") if v.strip())
        elif key in _INT_KEYS:
            params[key] = int(value)
        elif key in _STR_KEYS:
            params[key] = value
        else:
            params[key] = float(value)
    params.setdefault("b_ref", params.get("b_min"))
    return params


def _grid(p: dict, lo: str, hi: str) -> list:
    make = np.geomspace if p["spacing"] == "log" else np.linspace
    return [float(v) for v in make(p[lo], p[hi], p["points"])]


def _db(x: float) -> float:
    return math.inf if x <= 0.0 else 10.0 * math.log10(x)


def _se_span(theta: float) -> str:
    return "effcap.spectral_efficiency." + ("theta0" if theta == 0.0 else "theta_pos")


def _rows_rho(tr, p, probes):
    from effcap_kit import LinkConfig, rho_opt_closed_form

    t, b, n0, g = p["frame_duration"], p["bandwidth"], p["noise_psd"], p["gamma"]
    rows = []
    for s in _grid(p, "snr_min", "snr_max"):
        cfg = tr.call("link_model.LinkConfig", LinkConfig, t, b, n0, s * n0 * b, g)
        sol = tr.call("training.rho_opt_closed_form", rho_opt_closed_form, cfg)
        rows.append((s, _db(s), sol.rho_opt, sol.eta, sol.snr_eff_opt))
        probes.append((cfg, sol.rho_opt, 0.0))
    return rows


def _rows_narrowband(tr, p, probes):
    from effcap_kit import LinkConfig, QosSpec, spectral_efficiency

    t, b, n0, g = p["frame_duration"], p["bandwidth"], p["noise_psd"], p["gamma"]
    snrs = _grid(p, "snr_min", "snr_max")
    rows = []
    for theta in p["theta_list"]:
        for s in snrs:
            cfg = tr.call("link_model.LinkConfig", LinkConfig, t, b, n0, s * n0 * b, g)
            res = tr.call(_se_span(theta), spectral_efficiency, cfg, QosSpec(theta))
            re = res.spectral_efficiency
            ebn0 = math.inf if re <= 0.0 else s / re
            rows.append((
                theta, s, _db(s), res.rho_used, res.rate_opt_bps, res.alpha_opt,
                res.on_probability, re, ebn0, _db(ebn0),
            ))
            probes.append((cfg, res.rho_used, res.rate_opt_bps))
    return rows


def _rows_ebn0min(tr, p, probes):
    from effcap_kit import LinkConfig, QosSpec, min_bit_energy_numeric

    t, n0, g = p["frame_duration"], p["noise_psd"], p["gamma"]
    s_lo, s_hi, s_points = p["search_snr_min"], p["search_snr_max"], p["search_snr_points"]
    rows = []
    for theta in p["theta_list"]:
        for b in _grid(p, "b_min", "b_max"):
            cfg = tr.call("link_model.LinkConfig", LinkConfig, t, b, n0, s_lo * n0 * b, g)
            grid = np.geomspace(s_lo, s_hi, s_points)
            snr_at_min, ebn0_db = tr.call(
                "effcap.min_bit_energy_numeric", min_bit_energy_numeric, cfg, QosSpec(theta), grid
            )
            rows.append((theta, b, snr_at_min, ebn0_db))
    return rows


def _rows_wideband(tr, p, probes):
    from effcap_kit import GrowthLaw, LinkConfig, bit_energy_vs_bandwidth

    t, g, power = p["frame_duration"], p["gamma"], p["power_over_n0"]
    growth = GrowthLaw(p["growth"], p["num_subchannels"], p["b_ref"], p["growth_exponent"])
    rows = []
    for theta in p["theta_list"]:
        for b in _grid(p, "b_min", "b_max"):
            point = tr.call(
                "wideband.bit_energy_vs_bandwidth", bit_energy_vs_bandwidth, theta, t, growth, power, g, [b]
            )[0]
            rows.append((
                theta, point.bandwidth_hz, point.num_subchannels, point.coherence_bandwidth_hz,
                point.snr, point.spectral_efficiency, point.ebn0_db,
            ))
            if theta == 0.0:
                # the theta = 0 solve that bit_energy_vs_bandwidth runs inside
                sub = LinkConfig(t, point.coherence_bandwidth_hz, 1.0, power / point.num_subchannels, g)
                probes.append((sub, None, None))
    return rows


def _rows_asymptotics(tr, p, probes):
    from effcap_kit import asymptotics_sparse_bounded

    t, n, power, g = p["frame_duration"], p["num_subchannels"], p["power_over_nn0"], p["gamma"]
    rows = []
    for theta in p["theta_list"]:
        a = tr.call("wideband.asymptotics_sparse_bounded", asymptotics_sparse_bounded, theta, t, n, power, g)
        rows.append((
            theta, a.phi, a.rho_star, a.alpha_star, a.xi, a.delta, a.ebn0_min,
            _db(a.ebn0_min), a.wideband_slope,
        ))
    return rows


_ROW_REPLAYS = {
    "rho-vs-snr": _rows_rho,
    "se-vs-ebn0": _rows_narrowband,
    "ebn0-vs-snr": _rows_narrowband,
    "ebn0min-vs-bandwidth": _rows_ebn0min,
    "wideband-se-vs-ebn0": _rows_wideband,
    "asymptotics-table": _rows_asymptotics,
}


def replay_recipes(tr: Tracer, params: dict, probes: list) -> dict:
    """Recipe -> replayed rows; one span per recipe around its library calls."""
    return {
        r: tr.call(f"replay.{r}", _ROW_REPLAYS[common.RECIPES[r]], tr, params[r], probes)
        for r in common.RECIPES
    }


def probe_links(tr: Tracer, probes: list) -> None:
    """Time the link-level calls the library makes inside each row.

    A probe is (cfg, rho, rate) for a narrowband row, or (cfg, None, None)
    for the theta = 0 solve inside a wideband row.
    """
    from effcap_kit import QosSpec, effective_snr, outage_threshold, spectral_efficiency

    for cfg, rho, rate in probes:
        if rho is None:
            tr.call("effcap.spectral_efficiency.theta0", spectral_efficiency, cfg, QosSpec(0.0))
            continue
        est = tr.call("link_model.effective_snr", effective_snr, cfg, rho)
        if rate and est.effective_snr > 0.0:
            tr.call("link_model.outage_threshold", outage_threshold, cfg, rate, est.effective_snr)


# -- queue-tail ------------------------------------------------------------


def _queue_cfg():
    from effcap_kit import LinkConfig

    # the CLI's defaults: T = 2 ms, noise PSD 1, fading variance 1
    b = common.QUEUE_BANDWIDTH_HZ
    return LinkConfig(2e-3, b, 1.0, common.QUEUE_SNR * 1.0 * b, 1.0)


def replay_queue(tr: Tracer, seed: int) -> list:
    from effcap_kit import QosSpec, SimSpec, simulate_queue

    cfg = _queue_cfg()
    rows = []
    for i, theta in enumerate(common.QUEUE_THETAS):
        s = (seed + i) % 2**64
        spec = SimSpec(cfg, QosSpec(theta), common.QUEUE_FRAMES, s, 1.0)
        est = tr.call("queue_sim.simulate_queue", simulate_queue, spec)
        rows.append((
            theta, est.theta_hat, est.theta_hat / theta, est.ci_halfwidth,
            est.fit_range_bits[0], est.fit_range_bits[1], est.samples_in_tail,
            common.QUEUE_FRAMES, s,
        ))
    return rows


def replay_queue_stages(tr: Tracer, seed: int) -> None:
    """The simulator's public stages on the same specs, one span each."""
    from effcap_kit import QosSpec, bernoulli_trace, lindley_path, spectral_efficiency

    cfg = _queue_cfg()
    t = cfg.frame_duration_s
    for i, theta in enumerate(common.QUEUE_THETAS):
        res = tr.call("effcap.spectral_efficiency.theta_pos", spectral_efficiency, cfg, QosSpec(theta))
        arrival = res.spectral_efficiency * t * cfg.bandwidth_hz
        service = res.rate_opt_bps * t
        on = tr.call(
            "queue_sim.bernoulli_trace", bernoulli_trace, res.on_probability,
            common.QUEUE_FRAMES, (seed + i) % 2**64,
        )
        increments = np.where(on, arrival - service, arrival)
        q = tr.call("queue_sim.lindley_path", lindley_path, increments)
        tr.count("queue_sim.bytes_computed", on.nbytes + increments.nbytes + q.nbytes)
        del on, increments, q


# -- wideband-hetero -------------------------------------------------------


def replay_wideband(tr: Tracer, inputs: dict) -> list:
    from effcap_kit import QosSpec, effective_capacity_wideband

    qos = [QosSpec(t) for t in inputs["thetas"]]
    values = []
    for n, variances, powers, rhos in inputs["configs"]:
        wcfg = tr.call(f"wideband.WidebandConfig.n{n}", common.build_wideband_config, n, variances, powers, rhos)
        for q in qos:
            for rate in inputs["rates"]:
                values.append(tr.call(f"wideband.effective_capacity_wideband.n{n}",
                                      effective_capacity_wideband, wcfg, q, rate))
                tr.count("wideband.subchannel_evals", n)
    return values


def probe_subchannels(tr: Tracer, inputs: dict) -> None:
    """The per-subchannel link calls effective_capacity_wideband makes N times."""
    from effcap_kit import LinkConfig, effective_snr, outage_threshold, rho_opt_closed_form

    rate = inputs["rates"][0]
    for _, variances, powers, rhos in inputs["configs"]:
        for var, power, rho in zip(variances, powers, rhos):
            sub = tr.call("link_model.LinkConfig", LinkConfig, common.WB_FRAME_S, common.WB_COHERENCE_HZ, 1.0, power, var)
            est = tr.call("link_model.effective_snr", effective_snr, sub, rho)
            tr.call("link_model.outage_threshold", outage_threshold, sub, rate, est.effective_snr)
            tr.call("training.rho_opt_closed_form", rho_opt_closed_form, sub)


# -- the traced run ----------------------------------------------------------


def import_breakdown(stderr: str) -> dict:
    """Milliseconds of `-X importtime` self time owned by each package.

    Every imported module belongs to the nearest enclosing import of
    numpy, scipy or effcap_kit, so the stdlib modules scipy pulls in count
    for scipy, and numpy imported from inside scipy counts for numpy.
    """
    stack = []  # (depth, name, self_us, children); lines come in post-order
    for line in stderr.splitlines():
        if not line.startswith("import time:"):
            continue
        fields = line[len("import time:"):].split("|")
        if len(fields) != 3 or not fields[0].strip().isdigit():
            continue
        raw = fields[2].rstrip()
        depth = (len(raw) - len(raw.lstrip()) - 1) // 2
        children = []
        while stack and stack[-1][0] > depth:
            children.append(stack.pop())
        stack.append((depth, raw.strip(), int(fields[0]), children))
    totals = dict.fromkeys(_SETUP_PACKAGES, 0)

    def walk(node, owner):
        _, name, self_us, children = node
        top = name.split(".")[0]
        owner = top if top in totals else owner
        if owner is not None:
            totals[owner] += self_us
        for child in children:
            walk(child, owner)

    for root in stack:
        walk(root, None)
    return {p: us / 1e3 for p, us in totals.items()}


def _median_ms(values_ns) -> float:
    return statistics.median(values_ns) / 1e6


def _p50(tr_list, name: str, scale: float):
    values = [d for tr in tr_list for d in tr.durations_ns(name)]
    return statistics.median(values) / scale, len(values)


def trace_run(workload: str, seed: int, seconds: float, workdir: str, tally) -> dict:
    start = time.perf_counter()
    metrics = {}

    # setup: -X importtime in fresh interpreters
    breakdowns = []
    for _ in range(IMPORTTIME_SAMPLES):
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import effcap_kit"],
            cwd=common.ROOT, env=common.child_env(), capture_output=True, text=True,
        )
        tally.add("importtime", [] if proc.returncode == 0 else [f"exit {proc.returncode}"])
        if proc.returncode == 0:
            breakdowns.append(import_breakdown(proc.stderr))
    for p in _SETUP_PACKAGES:
        metrics[f"setup.{p}_ms"] = (
            statistics.median(b[p] for b in breakdowns), len(breakdowns), "-X importtime self time owned"
        )

    # recipes: warm and cold CLI runs, then the replay
    recipes = workloads.Recipes(seed, workdir, tally)
    recipes.warm_pass()
    main_ns = {r: [] for r in common.RECIPES}
    for _ in range(WARM_CLI_PASSES):
        for r in recipes.order:
            t0 = time.perf_counter_ns()
            code = workloads.call_cli(common.recipe_argv(r, recipes.out[r]))
            main_ns[r].append(time.perf_counter_ns() - t0)
            recipes.check(r, code, "warm")
    cli_rows = {r: common.parse_csv(common.read_text(recipes.out[r]))[1:] for r in common.RECIPES}
    for r in recipes.order:
        wall, code, _, _ = workloads.spawn(workloads.cli_argv(common.recipe_argv(r, recipes.out[r])), workdir)
        recipes.check(r, code, "cold")
        metrics[f"cli.cold_wall_s.{r}"] = (wall, 1, "one cold CLI process")

    params = {r: read_recipe(r) for r in common.RECIPES}
    probes = []
    rec_tr = Tracer(f"recipes:{seed}")
    replayed = replay_recipes(rec_tr, params, probes)
    for r in common.RECIPES:
        columns, rows = cli_rows[r]
        tally.add(f"replay drift {r}", common.rows_problems(columns, rows, replayed[r]))
    rec_probe = Tracer(f"recipes-probe:{seed}")
    probe_links(rec_probe, probes)

    # queue-tail: one CLI pass at the run's seed, the replay and its stages
    queue = workloads.QueueTail(seed, workdir, tally)
    queue.warm_pass()
    _, q_columns, q_rows = common.parse_csv(common.read_text(queue.out))
    q_tr = Tracer(f"queue-tail:{seed}")
    q_replayed = replay_queue(q_tr, seed)
    tally.add("replay drift queue-tail", common.rows_problems(q_columns, q_rows, q_replayed))
    stages = Tracer(f"queue-tail-stages:{seed}")
    replay_queue_stages(stages, seed)

    # wideband-hetero: untraced pass, traced replay, subchannel probes
    inputs = common.wideband_inputs(seed)
    expected = common.wideband_pass(inputs)
    wb_tr = Tracer(f"wideband-hetero:{seed}")
    wb_values = replay_wideband(wb_tr, inputs)
    tally.add("replay drift wideband-hetero", [] if wb_values == expected else ["values differ from the pass"])
    wb_probe = Tracer(f"wideband-hetero-probe:{seed}")
    probe_subchannels(wb_probe, inputs)

    # tracing overhead on the selected workload's replay
    replays = {
        "recipes": lambda tr: replay_recipes(tr, params, []),
        "queue-tail": lambda tr: replay_queue(tr, seed),
        "wideband-hetero": lambda tr: replay_wideband(tr, inputs),
    }
    traced, untraced = [], []
    while len(traced) < MIN_OVERHEAD_PAIRS or time.perf_counter() - start < seconds:
        for enabled, samples in ((False, untraced), (True, traced)):
            tr = Tracer(f"overhead:{workload}:{len(samples)}", enabled)
            t0 = time.perf_counter_ns()
            replays[workload](tr)
            samples.append(time.perf_counter_ns() - t0)
    metrics["trace.overhead_pct"] = (
        100.0 * (statistics.median(traced) / statistics.median(untraced) - 1.0),
        len(traced),
        f"{workload} replay, traced vs untraced pairs",
    )

    # per-layer metrics
    for r in common.RECIPES:
        main_ms = _median_ms(main_ns[r])
        index = rec_tr.find(f"replay.{r}")
        library_ms = rec_tr.children_ns(index) / 1e6
        metrics[f"cli.main_ms.{r}"] = (main_ms, WARM_CLI_PASSES, "warm cli.main, median")
        metrics[f"cli.self_ms.{r}"] = (
            main_ms - library_ms, WARM_CLI_PASSES,
            f"cli.main minus {library_ms:.3f} ms of replayed library spans",
        )
    for w, trs in (("recipes", (rec_tr, rec_probe)), ("wideband-hetero", (wb_probe,))):
        for fn in ("link_model.LinkConfig", "link_model.effective_snr",
                   "link_model.outage_threshold", "training.rho_opt_closed_form"):
            value, n = _p50(trs, fn, 1e3)
            metrics[f"{fn}_us.{w}"] = (value, n, "per call, p50")
    for case in ("theta_pos", "theta0"):
        value, n = _p50((rec_tr, rec_probe), f"effcap.spectral_efficiency.{case}", 1e3)
        metrics[f"effcap.spectral_efficiency_us.{case}"] = (value, n, "per call at recipe rows, p50")
    value, n = _p50((rec_tr,), "effcap.min_bit_energy_numeric", 1e6)
    metrics["effcap.min_bit_energy_numeric_ms"] = (value, n, "per call, p50")
    for fn in ("bit_energy_vs_bandwidth", "asymptotics_sparse_bounded"):
        value, n = _p50((rec_tr,), f"wideband.{fn}", 1e3)
        metrics[f"wideband.{fn}_us"] = (value, n, "per call, p50")
    for fn in ("WidebandConfig", "effective_capacity_wideband"):
        for size in (64, 1024):
            value, n = _p50((wb_tr,), f"wideband.{fn}.n{size}", 1e6)
            metrics[f"wideband.{fn}_ms.n{size}"] = (value, n, "per call, p50")
    metrics["wideband.subchannel_evals"] = (
        wb_tr.counts["wideband.subchannel_evals"], len(wb_values), "subchannels evaluated per pass"
    )
    sim = sum(q_tr.durations_ns("queue_sim.simulate_queue")) / 1e6
    trace_ms = sum(stages.durations_ns("queue_sim.bernoulli_trace")) / 1e6
    lindley = sum(stages.durations_ns("queue_sim.lindley_path")) / 1e6
    solve = sum(stages.durations_ns("effcap.spectral_efficiency.theta_pos")) / 1e6
    k = len(common.QUEUE_THETAS)
    metrics["queue_sim.bernoulli_trace_ms"] = (trace_ms, k, "per pass (all thetas)")
    metrics["queue_sim.lindley_path_ms"] = (lindley, k, "per pass (all thetas)")
    metrics["queue_sim.simulate_queue_ms"] = (sim, k, "per pass (all thetas), serial")
    metrics["queue_sim.tail_fit_ms"] = (
        sim - trace_ms - lindley - solve, k,
        "derived: simulate_queue - trace - lindley - spectral_efficiency (includes the increments)",
    )
    metrics["queue_sim.bytes_computed"] = (
        stages.counts["queue_sim.bytes_computed"], k, "computed: trace + increments + queue path array sizes"
    )
    ci = q_columns.index("ci_halfwidth")
    metrics["queue_sim.ci_miss"] = (
        sum(abs(float(r[1]) - float(r[0])) > float(r[ci]) for r in q_rows), len(q_rows),
        "rows with |theta_hat - theta| > ci_halfwidth",
    )
    return {name: metrics[name] for name in PER_LAYER_UNITS}
