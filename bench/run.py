"""effcap-kit benchmark: three workloads, end-to-end metrics and a traced run.

Usage, from the root of a checkout:

    python3 bench/run.py --workload recipes --seed 0 --seconds 35 --trace 0

Workloads (see bench/NOTES.md for why each was chosen):
  recipes          the seven recipes/*.cfg sweeps, cold (one CLI process
                   each) and warm (in-process effcap_kit.cli.main passes)
  queue-tail       queue-validate at acceptance criterion 09's point, warm
  wideband-hetero  effective_capacity_wideband on heterogeneous configs

With --trace 0 the run prints the end-to-end metrics; with --trace 1 it
replays the inputs of all three workloads through the public functions
the CLI calls, with a span around each call, and prints the per-layer
metrics. Each metric is printed on its own line with unit and sample
count, then the environment, and last one JSON line with the keys
correct, attempted, failed and metrics.

The program is run from the checkout's src directory; nothing is
installed. Load is one closed-loop client; the CLI's default process
pool (cpu_count workers) is the only concurrency.
"""

import argparse
import contextlib
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

import common
import workloads
from workloads import Tally

WORKLOADS = ("recipes", "queue-tail", "wideband-hetero")

END_TO_END_UNITS = {
    "setup_s": "s",
    "cold_wall_s.p50": "s",
    "work_per_s": "units/s",
    "pass_s.tail": "s",
    "peak_rss_mb": "MB",
}

# pass_s.tail is the highest percentile with this many passes beyond it
TAIL_BEYOND = 10

IMPORT_SNIPPET = (
    "import time\n"
    "t = time.perf_counter()\n"
    "import effcap_kit\n"
    "print(time.perf_counter() - t)\n"
)


def tail(samples: list):
    """(value, percentile, n): the highest percentile with TAIL_BEYOND samples beyond it."""
    ordered = sorted(samples)
    n = len(ordered)
    j = max(n - 1 - TAIL_BEYOND, 0)
    return ordered[j], 100.0 * j / max(n - 1, 1), n


def run_end_to_end(workload: str, seed: int, seconds: float, workdir: str, tally: Tally):
    """Return {metric: (value, n, note)} for every end-to-end metric.

    The measurement runs in rounds until `seconds` have passed: a fresh
    import, one cold process and a few warm passes per round. Spreading
    every kind of sample over the whole run makes each median see the
    same machine conditions.
    """
    w = workloads.WORKLOAD_CLASSES[workload](seed, workdir, tally)
    workloads.spawn([sys.executable, "-c", "import effcap_kit"], workdir)  # bytecode caches
    w.warm_pass()  # imports the package here and fills lazy caches, untimed
    if isinstance(w, workloads.WidebandHetero):
        w.check_iid_identity()

    setup, walls, peaks, passes, units = [], [], [], [], []
    start = time.perf_counter()
    rounds = 0
    while time.perf_counter() - start < seconds or rounds < w.min_rounds or len(passes) <= TAIL_BEYOND:
        _, code, _, out = workloads.spawn([sys.executable, "-c", IMPORT_SNIPPET], workdir)
        tally.add("import effcap_kit", [] if code == 0 else [f"exit {code}"])
        if code == 0:
            setup.append(float(out.split()[-1]))
        wall, rss = w.cold_once(rounds)
        walls.append(wall)
        peaks.append(rss)
        for _ in range(w.warm_per_round):
            elapsed, done = w.warm_pass()
            passes.append(elapsed)
            units.append(done)
        rounds += 1
    median_pass = statistics.median(passes)
    tail_value, tail_pct, n = tail(passes)
    return {
        "setup_s": (statistics.median(setup), len(setup), "fresh interpreter, import effcap_kit"),
        "cold_wall_s.p50": (statistics.median(walls), len(walls), "cold process, spawn to exit"),
        "work_per_s": (
            statistics.median(units) / median_pass,
            n,
            f"{w.unit} per pass ({statistics.median(units):g}) / median pass {median_pass:.4f} s",
        ),
        "pass_s.tail": (tail_value, n, f"p{tail_pct:.0f} of {n} warm passes"),
        "peak_rss_mb": (max(peaks), len(peaks), "largest process of the cold runs"),
    }


def environment() -> dict:
    import numpy
    import scipy

    sha = "none"
    try:
        top = subprocess.run(
            ["git", "rev-parse", "--show-toplevel", "HEAD"],
            cwd=common.ROOT, capture_output=True, text=True, timeout=10,
        )
        lines = top.stdout.split()
        if top.returncode == 0 and len(lines) == 2 and os.path.samefile(lines[0], common.ROOT):
            sha = lines[1]
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha256()
    pkg = os.path.join(common.SRC, "effcap_kit")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            digest.update(name.encode())
            with open(os.path.join(pkg, name), "rb") as handle:
                digest.update(handle.read())
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "git_sha": sha,
        "src_sha256": digest.hexdigest()[:16],
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not os.path.isfile(os.path.join(common.SRC, "effcap_kit", "__init__.py")):
        print(f"error: no effcap_kit sources under {common.SRC}", file=sys.stderr)
        return 2
    if not os.path.isdir(common.RECIPE_DIR):
        print(f"error: no recipes directory at {common.RECIPE_DIR}", file=sys.stderr)
        return 2
    sys.path.insert(0, common.SRC)
    os.environ.pop("EFFCAP_SEED", None)

    load_start = os.getloadavg()[0]
    scratch = os.path.join(common.BENCH_DIR, "_out")
    os.makedirs(scratch, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="run-", dir=scratch)
    tally = Tally()
    try:
        if args.trace:
            import replay

            units = replay.PER_LAYER_UNITS
            metrics = replay.trace_run(args.workload, args.seed, args.seconds, workdir, tally)
        else:
            units = END_TO_END_UNITS
            metrics = run_end_to_end(args.workload, args.seed, args.seconds, workdir, tally)
        env = environment()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(scratch)
    env["loadavg_1m_start"] = load_start
    env["loadavg_1m_end"] = os.getloadavg()[0]

    print(f"# workload {args.workload}, seed {args.seed}, trace {args.trace}")
    for name, (value, n, note) in metrics.items():
        print(f"{name} = {value:.6g} {units[name]}  (n={n}; {note})")
    rate = tally.failed / tally.attempted if tally.attempted else 0.0
    print(f"error_rate = {rate:.6g}  (n={tally.attempted}; {tally.failed} failed, {tally.wrong} failed an exact check)")
    print("# env " + json.dumps(env, sort_keys=True))
    result = {
        "correct": tally.wrong == 0 and tally.attempted > 0,
        "attempted": max(tally.attempted, 1),
        "failed": tally.failed if tally.attempted else 1,
        "metrics": {name: {"value": value, "unit": units[name]} for name, (value, _, _) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
