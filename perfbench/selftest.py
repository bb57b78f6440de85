"""Self-test of the benchmark: ``python3 perfbench/selftest.py``.

Runs every workload of ``run.py`` once at the tiny size, untraced and
traced, and checks that every metric BENCHMARK.json names is printed
with its unit and that no op failed. Then runs each workload with one result
deliberately corrupted and checks that it is counted as a failed op,
and checks that the benchmark exits non-zero, printing no result, in a
directory without the program's source. Exits 0 when all checks pass.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run as run_py  # noqa: E402


def run(root: Path, workload: str, trace: int, *extra: str):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "7", "--seconds", "1", "--trace", str(trace),
         "--size", "tiny", *extra],
        cwd=str(root), stdout=subprocess.PIPE, text=True, timeout=170,
    )
    lines = proc.stdout.splitlines()
    return proc.returncode, json.loads(lines[-1]) if lines else None


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    sets = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    problems = []
    # every workload run.py offers, also those BENCHMARK.json leaves out
    for w in run_py.WORKLOADS:
        for trace, wanted in sets.items():
            rc, res = run(ROOT, w, trace)
            if rc != 0 or res is None:
                problems.append(f"{w} trace={trace}: exit {rc}")
                continue
            got = {k: v["unit"] for k, v in res["metrics"].items()}
            if got != wanted:
                problems.append(f"{w} trace={trace}: metrics {got}")
            if res["failed"] or not res["correct"] or res["attempted"] < 1:
                problems.append(f"{w} trace={trace}: {res['failed']} of "
                                f"{res['attempted']} ops failed")
        rc, res = run(ROOT, w, 0, "--inject-wrong")
        if rc != 0 or res is None or res["failed"] < 1 or res["correct"]:
            problems.append(f"{w}: injected wrong result not counted")
        print(f"{w}: checked", flush=True)

    bare = BENCH / ".work" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(BENCH, bare / "perfbench",
                    ignore=shutil.ignore_patterns(".work", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    rc, res = run(bare, spec["workloads"][0]["name"], 0)
    shutil.rmtree(bare)
    if rc == 0 or res is not None:
        problems.append("ran without the program's source")

    for p in problems:
        print("FAIL", p)
    print("selftest:", "FAILED" if problems else "ok")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
