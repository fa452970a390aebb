"""Regenerate every CSV in bench/reference/SOURCE.json and compare it with the reference.

Run from the root of a checkout: python .github/scripts/reference_csvs.py
Each CSV is written to a temporary directory and checked with
bench/common.csv_problems; the exit status is 1 if any CSV differs.
"""

import json
import os
import subprocess
import sys
import tempfile

sys.path.insert(0, "bench")
from common import csv_problems, parse_csv  # noqa: E402


def largest_deviation(text, ref_text):
    worst = 0.0
    for row, ref in zip(parse_csv(text)[2], parse_csv(ref_text)[2]):
        for got, want in zip(row, ref):
            if got != want:
                worst = max(worst, abs(float(got) / float(want) - 1.0))
    return worst


def main():
    with open("bench/reference/SOURCE.json") as f:
        commands = json.load(f)["commands"]
    failed = 0
    with tempfile.TemporaryDirectory() as tmp:
        for name, cmd in commands.items():
            ref = os.path.join("bench", "reference", name)
            out = os.path.join(tmp, name)
            cmd = cmd.replace(f"--out {ref}", f"--out {out}")
            if out not in cmd:
                sys.exit(f"{name}: no '--out {ref}' in {cmd!r}")
            subprocess.run(cmd, shell=True, check=True)
            with open(out) as got, open(ref) as want:
                text, ref_text = got.read(), want.read()
            problems = csv_problems(text, ref_text)
            if problems:
                print(f"{name}: {problems}")
            else:
                worst = largest_deviation(text, ref_text)
                print(f"{name}: matches, largest relative cell deviation {worst:.3g}")
            failed += bool(problems)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
