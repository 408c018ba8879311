"""Runs the benchmark's CLI commands from a small helper process.

On Linux a child's ``ru_maxrss`` includes the memory high-water mark of the
process it was forked from, carried across ``exec``. Spawned straight from
the benchmark, whose heap holds graphs and results, the CLI's peak RSS
would read as the benchmark's. So ``run.py`` starts this helper before it
builds anything, and the helper spawns each command, times it from spawn to
exit and reports the child's own ``ru_maxrss``. One command runs at a time.

Protocol: one JSON request per line on stdin
``{"argv", "env", "cwd", "stdout", "stderr", "timeout"}``, one JSON reply per
line on stdout ``{"code", "wall_s", "maxrss_kb"}``. End of input ends it.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time


class Spawner:
    """Client side: owns the helper process and stops it on ``close``."""

    def __init__(self) -> None:
        self._proc = subprocess.Popen(
            [sys.executable, os.path.abspath(__file__)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)

    def run(self, argv: list[str], env: dict, cwd: str, stdout: str, stderr: str,
            timeout: float) -> tuple[int, float, float]:
        """Run one command; return (exit code, wall seconds, peak RSS in MB)."""
        request = {"argv": argv, "env": env, "cwd": cwd, "stdout": stdout,
                   "stderr": stderr, "timeout": timeout}
        self._proc.stdin.write(json.dumps(request) + "\n")
        self._proc.stdin.flush()
        line = self._proc.stdout.readline()
        if not line:
            raise RuntimeError("spawner helper exited")
        reply = json.loads(line)
        return reply["code"], reply["wall_s"], reply["maxrss_kb"] / 1024

    def close(self) -> None:
        self._proc.stdin.close()
        self._proc.wait(timeout=30)
        self._proc.stdout.close()


def serve() -> None:
    for line in sys.stdin:
        req = json.loads(line)
        with open(req["stdout"], "wb") as out, open(req["stderr"], "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(req["argv"], stdout=out, stderr=err,
                                    env=req["env"], cwd=req["cwd"])
            while True:
                pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
                if pid:
                    break
                if time.perf_counter() - start > req["timeout"]:
                    proc.kill()
                    pid, status, usage = os.wait4(proc.pid, 0)
                    break
                time.sleep(0.001)
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        reply = {"code": proc.returncode, "wall_s": wall, "maxrss_kb": usage.ru_maxrss}
        sys.stdout.write(json.dumps(reply) + "\n")
        sys.stdout.flush()


if __name__ == "__main__":
    serve()
