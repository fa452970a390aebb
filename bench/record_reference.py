"""Record the reference outputs the benchmark checks against.

Usage, from the root of a checkout of the commit to record:

    python3 bench/record_reference.py

Runs each recipe and the queue-tail point (seed QUEUE_REFERENCE_SEED)
through `python3 -m effcap_kit.cli` with the checkout's src, writes the
CSVs to bench/reference/ and lists the commit and the commands in
bench/reference/SOURCE.json.
"""

import json
import os
import subprocess
import sys

import common


def main() -> int:
    sha = subprocess.run(
        ["git", "rev-parse", "HEAD"], cwd=common.ROOT, capture_output=True, text=True, check=True
    ).stdout.strip()
    jobs = {f"{r}.csv": common.recipe_argv(r, "OUT") for r in common.RECIPES}
    jobs["queue_tail.csv"] = common.queue_argv(common.QUEUE_REFERENCE_SEED, "OUT")
    commands = {}
    for name, argv in jobs.items():
        out = os.path.join(common.REFERENCE_DIR, name)
        argv = [os.path.relpath(a, common.ROOT) if os.path.isabs(a) else a for a in argv]
        argv[argv.index("OUT")] = os.path.relpath(out, common.ROOT)
        cmd = ["python3", "-m", "effcap_kit.cli", *argv]
        subprocess.run(
            [sys.executable, *cmd[1:]], cwd=common.ROOT, env=common.child_env(),
            check=True, stdout=subprocess.DEVNULL,
        )
        commands[name] = "PYTHONPATH=src " + " ".join(cmd)
    with open(os.path.join(common.REFERENCE_DIR, "SOURCE.json"), "w", encoding="utf-8") as handle:
        json.dump({"commit": sha, "run_from": "checkout root", "commands": commands}, handle, indent=2)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
