"""Benchmark entry point: one workload, one seed, one result line.

    python3 perfbench/run.py --workload pp-multipod --seed 1 \
        --seconds 12 --trace 0

``--trace 0`` prints the end-to-end metrics (setup_s, op_p50_ms,
peak_rss_mb); ``--trace 1`` runs the traced variant
and prints the per-layer metrics instead. The last line of standard
output is the JSON result; the exit code is non-zero if the run could
not complete (a wrong result is reported, not raised).
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import common  # noqa: E402
import servework  # noqa: E402
import simwork  # noqa: E402

WORKLOADS = sorted(simwork.WORKLOADS) + sorted(servework.WORKLOADS)


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="repro benchmark")
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True,
                   help="length of the timed window")
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--size", choices=["full", "tiny"], default="full",
                   help="tiny shrinks the inputs for the self-test")
    p.add_argument("--inject-wrong", dest="inject", action="store_true",
                   help="corrupt one op's result (self-test of the checks)")
    args = p.parse_args(argv)
    common.require_program()
    try:
        if args.workload in simwork.WORKLOADS:
            simwork.run_sim(args)
        else:
            servework.run_serve(args)
    finally:
        common.stop_all()
    return 0


if __name__ == "__main__":
    sys.exit(main())
