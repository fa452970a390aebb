"""The three workloads: their cold runs, warm passes and output checks.

Each workload class runs one cold process at a time (cold_once()) and
warm in-process passes (warm_pass()), and records every operation in a
Tally.
"""

import contextlib
import io
import json
import os
import random
import subprocess
import sys
import tempfile
import time
import traceback

import common


class Tally:
    """Operations attempted and failed.

    An operation is one CLI invocation, fresh import, capacity
    evaluation or replay comparison. It fails on a non-zero exit, an
    exception, or output that fails its check. `wrong` counts the failures of checks that must always hold;
    a queue-tail band miss is a sampling outcome and counts only as
    failed.
    """

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.wrong = 0

    def add(self, what: str, problems: list, sampling: bool = False) -> None:
        self.attempted += 1
        if not problems:
            return
        self.failed += 1
        if not sampling:
            self.wrong += 1
        kind = "outside band" if sampling else "FAILED"
        print(f"{what}: {kind}: " + "; ".join(problems[:3]), file=sys.stderr)


def spawn(argv: list, workdir: str):
    """Run a child in the checkout; return (wall s, exit code, peak RSS MB, stdout).

    The peak RSS is ru_maxrss from wait4: the largest resident set of the
    child or of any process it started and waited for (its pool workers),
    not their sum.
    """
    with tempfile.TemporaryFile(dir=workdir) as out, tempfile.TemporaryFile(dir=workdir) as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=common.ROOT, env=common.child_env(), stdout=out, stderr=err)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        stdout = out.read().decode(errors="replace")
        stderr = err.read().decode(errors="replace")
    if proc.returncode != 0 and stderr:
        print(stderr.rstrip()[-2000:], file=sys.stderr)
    return wall, proc.returncode, usage.ru_maxrss / 1024.0, stdout


def cli_argv(args: list) -> list:
    return [sys.executable, "-m", "effcap_kit.cli", *args]


def call_cli(argv: list):
    """effcap_kit.cli.main in this process, its summary lines discarded.

    Returns the exit code, or None when main raised.
    """
    from effcap_kit.cli import main

    try:
        with contextlib.redirect_stdout(io.StringIO()):
            return main(argv)
    except Exception:  # counted as a failed operation by the caller
        traceback.print_exc()
        return None


class Recipes:
    name = "recipes"
    unit = "CSV rows"
    # a round is one cold process and this many warm passes; every recipe
    # runs cold at least once
    warm_per_round = 2
    min_rounds = len(common.RECIPES)

    def __init__(self, seed: int, workdir: str, tally: Tally):
        self.tally = tally
        self.order = list(common.RECIPES)
        random.Random(seed).shuffle(self.order)
        self.out = {r: os.path.join(workdir, f"{r}.csv") for r in self.order}
        self.ref = {
            r: common.read_text(os.path.join(common.REFERENCE_DIR, f"{r}.csv"))
            for r in self.order
        }
        self.workdir = workdir

    def check(self, recipe: str, code: int, where: str) -> int:
        if code != 0:
            self.tally.add(f"{where} {recipe}", [f"exit {code}"])
            return 0
        text = common.read_text(self.out[recipe])
        self.tally.add(f"{where} {recipe}", common.csv_problems(text, self.ref[recipe]))
        return len(text.splitlines()) - 2

    def cold_once(self, i: int):
        """Cold CLI process for the i-th recipe in the run's order; (wall s, peak RSS MB)."""
        r = self.order[i % len(self.order)]
        wall, code, rss, _ = spawn(cli_argv(common.recipe_argv(r, self.out[r])), self.workdir)
        self.check(r, code, "cold")
        return wall, rss

    def warm_pass(self):
        """One pass; returns (seconds, units of work)."""
        codes = {}
        start = time.perf_counter()
        for r in self.order:
            codes[r] = call_cli(common.recipe_argv(r, self.out[r]))
        elapsed = time.perf_counter() - start
        return elapsed, sum(self.check(r, codes[r], "warm") for r in self.order)


class QueueTail:
    name = "queue-tail"
    unit = "simulated frames"
    warm_per_round = 3
    min_rounds = 3

    def __init__(self, seed: int, workdir: str, tally: Tally):
        self.seed = seed
        self.tally = tally
        self.workdir = workdir
        self.out = os.path.join(workdir, "queue.csv")
        self.cold_out = os.path.join(workdir, "queue_cold.csv")
        self.ref = common.read_text(os.path.join(common.REFERENCE_DIR, "queue_tail.csv"))
        self.first = None

    def check(self, text: str, code: int, where: str, expected: str) -> None:
        if code != 0:
            self.tally.add(where, [f"exit {code}"])
            return
        if expected is not None:
            problems = common.csv_problems(text, expected)
        else:
            problems = common.queue_shape_problems(text, self.seed)
        if problems:
            self.tally.add(where, problems)
            return
        misses = common.queue_band_misses(text)
        self.tally.add(where, [f"{misses} theta_hat/theta outside {common.QUEUE_BAND}"] if misses else [], sampling=True)

    def cold_once(self, i: int):
        # cold runs use the reference seed so that every run checks the
        # recorded CSV; warm passes use the run's seed
        argv = cli_argv(common.queue_argv(common.QUEUE_REFERENCE_SEED, self.cold_out))
        wall, code, rss, _ = spawn(argv, self.workdir)
        text = common.read_text(self.cold_out) if code == 0 else ""
        self.check(text, code, "cold queue-validate", self.ref)
        return wall, rss

    def warm_pass(self):
        start = time.perf_counter()
        code = call_cli(common.queue_argv(self.seed, self.out))
        elapsed = time.perf_counter() - start
        text = common.read_text(self.out) if code == 0 else ""
        if code == 0 and self.first is not None and text != self.first:
            self.tally.add("warm queue-validate", ["output differs from the first pass"])
        else:
            # the first pass is checked against the reference when the
            # seeds agree and fixes the bytes that later passes must repeat
            expected = self.ref if self.seed == common.QUEUE_REFERENCE_SEED else None
            self.check(text, code, "warm queue-validate", expected)
            if code == 0 and self.first is None:
                self.first = text
        return elapsed, len(common.QUEUE_THETAS) * common.QUEUE_FRAMES


class WidebandHetero:
    name = "wideband-hetero"
    unit = "capacity evaluations"
    warm_per_round = 4
    min_rounds = 3

    def __init__(self, seed: int, workdir: str, tally: Tally):
        self.seed = seed
        self.tally = tally
        self.workdir = workdir
        self.inputs = common.wideband_inputs(seed)
        self.evaluations = common.wideband_evaluations(self.inputs)
        self.first = None

    def check(self, values: list, where: str) -> None:
        if len(values) != len(self.evaluations):
            self.tally.add(where, [f"{len(values)} values for {len(self.evaluations)} evaluations"])
            return
        for i, (value, (n, rate)) in enumerate(zip(values, self.evaluations)):
            problems = []
            if not common.wideband_value_ok(value, rate):
                problems.append(f"evaluation {i} (N={n}, r={rate:g}): {value!r} not in [0, r/B_c]")
            elif self.first is not None and value != self.first[i]:
                problems.append(f"evaluation {i}: {value!r} differs from the first pass {self.first[i]!r}")
            self.tally.add(where, problems)

    def cold_once(self, i: int):
        out = os.path.join(self.workdir, "wideband.json")
        script = os.path.join(common.BENCH_DIR, "wideband_pass.py")
        wall, code, rss, _ = spawn([sys.executable, script, "--seed", str(self.seed), "--out", out], self.workdir)
        if code != 0:
            self.tally.add("cold wideband pass", [f"exit {code}"])
        else:
            with open(out, encoding="utf-8") as handle:
                self.check(json.load(handle), "cold wideband pass")
        return wall, rss

    def warm_pass(self):
        start = time.perf_counter()
        try:
            values = common.wideband_pass(self.inputs)
        except Exception:  # counted, reported, and the run goes on
            traceback.print_exc()
            self.tally.add("wideband pass", ["exception"])
            return time.perf_counter() - start, 0
        elapsed = time.perf_counter() - start
        self.check(values, "wideband pass")
        if self.first is None:
            self.first = values
        return elapsed, len(values)

    def check_iid_identity(self) -> None:
        """Criterion 07: i.i.d. subchannels reduce to the narrowband capacity."""
        from effcap_kit import (
            LinkConfig,
            QosSpec,
            effective_capacity_at,
            effective_capacity_wideband,
            uniform_wideband_config,
        )

        rng = random.Random(self.seed)
        bc, t = common.WB_COHERENCE_HZ, common.WB_FRAME_S
        for n in common.WB_IID_CASES:
            power = rng.uniform(100.0, 5e3)
            gamma = rng.uniform(0.5, 2.0)
            rho = rng.uniform(0.05, 0.95)
            qos = QosSpec(10.0 ** rng.uniform(-3.0, 0.0))
            rate = rng.uniform(1e3, 2e4)
            wcfg = uniform_wideband_config(n, bc, t, 1.0, power * n, gamma, rho)
            wide = effective_capacity_wideband(wcfg, qos, rate)
            narrow = effective_capacity_at(LinkConfig(t, bc, 1.0, power, gamma), qos, rate, rho)
            ok = abs(wide - narrow) <= max(common.WB_IID_REL_TOL * abs(narrow), common.WB_IID_ABS_TOL)
            self.tally.add(f"iid identity N={n}", [] if ok else [f"{wide!r} != {narrow!r}"])


WORKLOAD_CLASSES = {cls.name: cls for cls in (Recipes, QueueTail, WidebandHetero)}
