"""Run one command; record its wall time and peak resident memory.

Usage::

    python3 benchmarks/timed_command.py RECORD TIMEOUT_S PROGRAM [ARG ...]

Runs ``PROGRAM ARG ...`` with this process's standard streams, waits at
most ``TIMEOUT_S`` seconds for it, writes ``{"seconds": ..., "peak_mb":
...}`` as JSON to ``RECORD`` and exits with the command's exit code.

A child's peak resident memory as the kernel reports it starts at its
parent's high-water mark, so a command started straight from the benchmark
would report the benchmark's own peak whenever that is the larger.  This
small process has no large peak of its own to pass on.
"""

from __future__ import annotations

import json
import resource
import subprocess
import sys
import time


def main(argv: list[str]) -> int:
    record, timeout, command = argv[0], float(argv[1]), argv[2:]
    start = time.perf_counter()
    code = subprocess.run(command, timeout=timeout).returncode
    seconds = time.perf_counter() - start
    peak_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    with open(record, "w", encoding="utf-8") as fh:
        json.dump({"seconds": seconds, "peak_mb": peak_kb / 1024.0}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
