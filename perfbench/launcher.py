"""A small helper process that starts the `python -m argstable` children.

The kernel counts a child's peak resident memory from the moment it is
started, while it still shares the memory of the process that started it.
Started from the benchmark process, every child would report at least the
benchmark's own peak.  This helper stays small, so its children's peak is
their own; it also times each child, without the round trip to the
benchmark.
"""

from __future__ import annotations

import json
import subprocess
import sys
from dataclasses import dataclass

_HELPER = r"""
import json, resource, subprocess, sys, time
for line in sys.stdin:
    req = json.loads(line)
    start = time.perf_counter()
    try:
        proc = subprocess.run(req["argv"], env=req["env"], cwd=req["cwd"],
                              capture_output=True, text=True, timeout=req["timeout"])
        reply = {"code": proc.returncode, "out": proc.stdout, "err": proc.stderr}
    except subprocess.TimeoutExpired:
        reply = {"error": "timed out after %s s" % req["timeout"]}
    reply["start"] = start
    reply["seconds"] = time.perf_counter() - start
    reply["maxrss_kb"] = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    sys.stdout.write(json.dumps(reply) + "\n")
    sys.stdout.flush()
"""


@dataclass
class Process:
    """One finished child.  `start` is on the perf_counter clock, which is
    the same in every process on Linux (CLOCK_MONOTONIC)."""

    code: int
    out: str
    err: str
    start: float
    seconds: float


class Launcher:
    def __init__(self):
        self._proc = subprocess.Popen([sys.executable, "-c", _HELPER], text=True,
                                      stdin=subprocess.PIPE, stdout=subprocess.PIPE)
        self.maxrss_kb = 0

    def run(self, argv, env, cwd, timeout) -> Process:
        request = {"argv": list(argv), "env": env, "cwd": str(cwd), "timeout": timeout}
        self._proc.stdin.write(json.dumps(request) + "\n")
        self._proc.stdin.flush()
        reply = json.loads(self._proc.stdout.readline())
        self.maxrss_kb = reply["maxrss_kb"]
        if "error" in reply:
            raise TimeoutError(reply["error"])
        return Process(reply["code"], reply["out"], reply["err"],
                       reply["start"], reply["seconds"])

    def close(self) -> None:
        self._proc.stdin.close()
        self._proc.stdout.close()
        self._proc.wait(timeout=60)
