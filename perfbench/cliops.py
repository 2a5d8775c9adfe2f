"""Run one crtkit CLI invocation as a child process and account for it.

A closed loop with one client: the caller starts the next invocation only
after this one has been reaped, so at most one child runs at a time.
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field

TIMEOUT_S = 60.0


def child_env(root: str) -> dict:
    """The environment every child gets: the checkout's sources on the path,
    a fixed hash seed, and no CRTKIT_BUDGET (crtkit ignores bad values of it
    silently, so a stray setting would change budgets unseen)."""
    env = {k: v for k, v in os.environ.items() if k != "CRTKIT_BUDGET"}
    env["PYTHONPATH"] = os.path.join(root, "src")
    env["PYTHONHASHSEED"] = "0"
    return env


@dataclass
class OpRecord:
    kind: str
    argv: list
    wall_s: float
    exit_code: int
    maxrss_kb: int
    stdout: str
    stderr: str
    timed_out: bool
    failure: str = ""  # first stderr line or cause, when the op failed
    notes: list = field(default_factory=list)


def _first_line(text: str) -> str:
    for line in text.splitlines():
        if line.strip():
            return line.strip()
    return ""


def failure_of(exit_code: int, stderr: str, timed_out: bool) -> str:
    """Why an invocation failed, or "" when it did not. Exit 2, a budget
    message, an uncaught exception and a timeout all count."""
    if timed_out:
        return f"timeout after {TIMEOUT_S:.0f} s"
    if "Traceback" in stderr:
        lines = [ln for ln in stderr.splitlines() if ln.strip()]
        return "exception: " + (lines[-1].strip() if lines else "")
    if "budget" in stderr:
        return "budget: " + _first_line(stderr)
    if exit_code not in (0, 10):
        return f"exit {exit_code}: " + _first_line(stderr)
    return ""


def run_cli(kind: str, args: list, env: dict, scratch: str) -> OpRecord:
    """Run `python -m crtkit.cli <args>`; time it and read its peak RSS."""
    argv = [sys.executable, "-m", "crtkit.cli", *args]
    out_path = os.path.join(scratch, "op.stdout")
    err_path = os.path.join(scratch, "op.stderr")
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=env, cwd=scratch)
        fired = threading.Event()

        def kill():
            fired.set()
            try:
                os.kill(proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass

        timer = threading.Timer(TIMEOUT_S, kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
            timer.join()
        wall = time.perf_counter() - start
    proc.returncode = code = os.waitstatus_to_exitcode(status)
    with open(out_path, encoding="ascii", errors="replace") as handle:
        stdout = handle.read()
    with open(err_path, encoding="ascii", errors="replace") as handle:
        stderr = handle.read()
    timed_out = fired.is_set()
    return OpRecord(
        kind=kind,
        argv=list(args),
        wall_s=wall,
        exit_code=code,
        maxrss_kb=usage.ru_maxrss,
        stdout=stdout,
        stderr=stderr,
        timed_out=timed_out,
        failure=failure_of(code, stderr, timed_out),
    )
