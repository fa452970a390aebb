"""One wideband-hetero pass in a fresh interpreter (the workload's cold run).

Usage: python3 bench/wideband_pass.py --seed N --out PATH

Imports effcap_kit, builds the seed's configs, evaluates them and writes
the values as JSON to PATH, so the parent can time spawn-to-exit and
check the output like the CLI's CSVs.
"""

import argparse
import json
import os

import common


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args()
    values = common.wideband_pass(common.wideband_inputs(args.seed))
    tmp = args.out + ".tmp"
    with open(tmp, "w", encoding="utf-8") as handle:
        json.dump(values, handle)
    os.replace(tmp, args.out)


if __name__ == "__main__":
    main()
