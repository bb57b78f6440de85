"""Shared helpers: paths, child processes, statistics, the result line."""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Sequence, Tuple

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
#: oracle cache and span dumps (git-ignored)
WORK = BENCH / ".work"

#: end-to-end metric -> unit; every workload reports all of them
END_TO_END = {
    "setup_s": "s",
    "op_p50_ms": "ms",
    "peak_rss_mb": "MB",
}


def require_program() -> None:
    """Exit non-zero unless the program's source is in the checkout."""
    if not (SRC / "repro" / "__init__.py").is_file():
        sys.stderr.write(f"perfbench: no program source under {SRC}\n")
        raise SystemExit(2)
    WORK.mkdir(exist_ok=True)
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


#: every child started by this process, for ``stop_all``
_CHILDREN: List[subprocess.Popen] = []


def spawn(args: Sequence[str]) -> subprocess.Popen:
    """Start a Python child from the checkout root with piped stdout."""
    proc = subprocess.Popen(
        [sys.executable, *args], cwd=str(ROOT),
        env=dict(os.environ, PYTHONPATH=str(SRC)),
        stdout=subprocess.PIPE, text=True,
    )
    _CHILDREN.append(proc)
    return proc


def stop(proc: subprocess.Popen, timeout: float = 20.0) -> None:
    """Wait for a child, killing it if it does not end in time."""
    try:
        proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
    if proc.stdout is not None:
        proc.stdout.close()


def stop_all() -> None:
    """Kill and reap every child still running (any way out of a run)."""
    for proc in _CHILDREN:
        if proc.poll() is None:
            proc.kill()
        proc.wait()


def peak_rss_mb(pid: int) -> float:
    """A live process's peak resident set (VmHWM), in MiB."""
    with open(f"/proc/{pid}/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


#: what the reference loop takes on the nominal host, in ms; CPU-bound
#: op times are reported scaled to this host speed
REF_NOMINAL_MS = 10.0


def reference_ms() -> float:
    """Wall time of a fixed pure-Python loop (dict, float, branch work).

    The shared host's speed swings by up to 2x over seconds to minutes;
    timing this loop next to each CPU-bound op gives the host speed the
    op ran at, so the op can be reported at nominal speed.
    """
    t0 = time.perf_counter()
    d: Dict[int, float] = {}
    acc = 0.0
    for i in range(30000):
        k = i & 511
        d[k] = d.get(k, 0.0) + i * 0.5
        acc += d[k] / (k + 1)
    return (time.perf_counter() - t0) * 1e3


def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated ``q``-th percentile (0..100)."""
    xs = sorted(values)
    if not xs:
        return 0.0
    pos = (len(xs) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def median(values: Sequence[float]) -> float:
    return percentile(values, 50.0)


def emit(attempted: int, failed: int,
         metrics: Dict[str, Tuple[float, str]]) -> None:
    """Print the result object as the last line of standard output."""
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    }), flush=True)


def read_result(proc: subprocess.Popen) -> Dict:
    """The JSON object on a child's last stdout line."""
    lines: List[str] = proc.stdout.read().splitlines()
    stop(proc)
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"child exited {proc.returncode}")
    return json.loads(lines[-1])
