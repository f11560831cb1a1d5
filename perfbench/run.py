"""The repository benchmark: one workload, one seed, one run.

Usage::

    python3 perfbench/run.py --workload {offline-uniform,update-mix}
                             --seed N --seconds S --trace {0,1}

Run from the root of a checkout.  Every input derives from ``--seed``; every
answer is checked against ``LinearSearchClassifier``.  The last line of
standard output is the JSON result (see ``report.py``); ``--trace 1`` prints
the per-layer metrics instead of the end-to-end ones.  See ``README.md`` in
this directory for the workloads, the metrics and what they found.
"""

from __future__ import annotations

import argparse
import os
import shutil
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import common  # noqa: E402

WORKLOADS = ("offline-uniform", "update-mix")


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        common.import_repro()
    except common.SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    import report

    if args.workload == "offline-uniform":
        import offline as workload
    else:
        import mix as workload
    try:
        result = workload.run(args.seed, args.seconds, bool(args.trace))
    finally:
        shutil.rmtree(common.run_dir(), ignore_errors=True)
    print(report.render(result, args.workload, bool(args.trace)))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
