"""Host context: fingerprint, BLAS warm-up, /proc readers, program launches."""

from __future__ import annotations

import ctypes
import glob
import json
import os
import platform
import select
import signal
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

import numpy as np

#: Environment variables that would change what the program does; the
#: benchmark sets or clears every one of them for the program process.
_PROGRAM_ENV_CLEARED = (
    "REPRO_FAULTS", "REPRO_SUPERVISED", "REPRO_SCALE", "REPRO_STORE",
    "REPRO_STORE_DIR", "REPRO_OBS",
)


def _blas_threads() -> Optional[int]:
    """OpenBLAS's own thread count, asked through its C API."""
    libs = glob.glob(
        os.path.join(os.path.dirname(np.__file__), "..", "numpy.libs", "*openblas*")
    )
    for path in libs:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in (
            "scipy_openblas_get_num_threads64_",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.argtypes = []
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def fingerprint() -> Dict[str, object]:
    """The host context stored with every result."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_version = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas_version = "unknown"
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_version,
        "blas_threads": _blas_threads(),
        "repro_workers_env": os.environ.get("REPRO_WORKERS"),
        "repro_workers_program": "1",
        "loadavg": list(os.getloadavg()),
        "platform": platform.platform(),
    }


def warm_blas(max_seconds: float = 3.0, streak: int = 50) -> Dict[str, float]:
    """Untimed warm-up: two-thread ``lstsq`` until it is steadily fast.

    After a pause, the first two-thread OpenBLAS calls run an order of
    magnitude slower than steady state; timing starts only once
    ``streak`` consecutive calls stay within twice the best call seen.
    """
    rng = np.random.default_rng(0)
    design = rng.normal(size=(640, 40))
    target = design @ rng.normal(size=40)
    start = time.monotonic()
    best, run, calls = float("inf"), 0, 0
    while time.monotonic() - start < max_seconds and run < streak:
        t0 = time.perf_counter()
        np.linalg.lstsq(design, target, rcond=None)
        elapsed = time.perf_counter() - t0
        calls += 1
        best = min(best, elapsed)
        run = run + 1 if elapsed <= 2.0 * best else 0
    return {"calls": calls, "best_ms": best * 1e3, "steady": run >= streak}


def cpu_seconds(pid: int) -> float:
    """User + system CPU seconds of a live process, from ``/proc``."""
    with open(f"/proc/{pid}/stat") as handle:
        fields = handle.read().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


def own_cpu_seconds() -> float:
    times = os.times()
    return times.user + times.system


def program_env(root: Path, work: Path) -> Dict[str, str]:
    """Environment of a program process: fresh dirs, serial pipeline."""
    env = {k: v for k, v in os.environ.items() if k not in _PROGRAM_ENV_CLEARED}
    env["PYTHONPATH"] = str(root / "src")
    env["REPRO_CACHE_DIR"] = str(work / "cache")
    env["REPRO_REPORT_DIR"] = str(work / "reports")
    # Serial, so every layer runs in the traced process and the result does
    # not depend on how many cores happen to be free.
    env["REPRO_WORKERS"] = "1"
    env["PYTHONHASHSEED"] = "0"
    return env


def _die_with_parent() -> None:
    """Child-side: get SIGKILL if the benchmark process dies first (Linux)."""
    libc = ctypes.CDLL(None, use_errno=True)
    libc.prctl.argtypes = [ctypes.c_int, ctypes.c_ulong]
    libc.prctl.restype = ctypes.c_int
    libc.prctl(1, signal.SIGKILL)  # PR_SET_PDEATHSIG


class ProgramError(RuntimeError):
    """The program process failed, timed out, or said something unexpected."""


class Program:
    """One program process: launched, read line by line, reaped with rusage.

    ``started`` is taken just before the launch, so the time to its
    ``READY`` line is the program's set-up as a user would wait for it.
    Peak resident memory is read from outside, from the kernel's rusage
    of the reaped child.
    """

    def __init__(self, argv: List[str], env: Dict[str, str], log_path: Path):
        self._log = open(log_path, "ab")
        self.started = time.monotonic()
        self.proc = subprocess.Popen(
            [sys.executable, *argv],
            stdin=subprocess.DEVNULL,
            stdout=subprocess.PIPE,
            stderr=self._log,
            env=env,
            # Programs are launched while the benchmark runs no other thread.
            preexec_fn=_die_with_parent,
        )
        self._buffer = b""
        self.log_path = log_path

    @property
    def pid(self) -> int:
        return self.proc.pid

    def read_message(self, kind: str, timeout: float) -> dict:
        """Wait for the next ``<kind> <json>`` line on the program's stdout."""
        deadline = time.monotonic() + timeout
        fd = self.proc.stdout.fileno()
        while True:
            while b"\n" in self._buffer:
                line, self._buffer = self._buffer.split(b"\n", 1)
                head, _, body = line.decode("utf-8", "replace").partition(" ")
                if head == kind:
                    message = json.loads(body) if body else {}
                    message["_at"] = time.monotonic()
                    return message
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise ProgramError(f"no {kind} line within {timeout:.0f}s")
            ready, _, _ = select.select([fd], [], [], remaining)
            if ready:
                chunk = os.read(fd, 65536)
                if not chunk:
                    raise ProgramError(
                        f"program exited before {kind} (log: {self.log_path})"
                    )
                self._buffer += chunk

    def finish(self, timeout: float = 30.0) -> float:
        """Reap the process; returns its peak RSS in MiB.  Kills on timeout."""
        deadline = time.monotonic() + timeout
        try:
            while True:
                pid, status, usage = os.wait4(self.proc.pid, os.WNOHANG)
                if pid:
                    self.proc.returncode = os.waitstatus_to_exitcode(status)
                    break
                if time.monotonic() > deadline:
                    self.proc.kill()
                    _, status, usage = os.wait4(self.proc.pid, 0)
                    self.proc.returncode = os.waitstatus_to_exitcode(status)
                    raise ProgramError(f"program did not exit within {timeout:.0f}s")
                time.sleep(0.02)
        finally:
            self.proc.stdout.close()
            self._log.close()
        if self.proc.returncode != 0:
            raise ProgramError(
                f"program exited with {self.proc.returncode} (log: {self.log_path})"
            )
        return usage.ru_maxrss / 1024.0

    def kill(self) -> None:
        """Best-effort stop for error paths; always reaps the child."""
        if self.proc.returncode is None:
            self.proc.kill()
            try:
                os.wait4(self.proc.pid, 0)
            except ChildProcessError:
                pass
            self.proc.returncode = -9
        if not self.proc.stdout.closed:
            self.proc.stdout.close()
        if not self._log.closed:
            self._log.close()
