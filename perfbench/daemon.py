"""``repro serve`` with the benchmark's span wrappers installed.

    python3 perfbench/daemon.py SPANS.json serve --port 0 ...

Installs the wrappers of ``tracing.py``, then hands the remaining
arguments to ``repro.cli.main``; the spans are written to SPANS.json
when the daemon exits.
"""

from __future__ import annotations

import atexit
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import common  # noqa: E402
from tracing import Tracer  # noqa: E402


def main() -> int:
    spans_file, argv = sys.argv[1], sys.argv[2:]
    common.require_program()
    tracer = Tracer()
    tracer.install()
    atexit.register(tracer.dump, spans_file)
    from repro.cli import main as repro_main

    return repro_main(argv)


if __name__ == "__main__":
    sys.exit(main())
