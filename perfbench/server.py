"""Start, time and stop ``python -m repro serve --async`` as its own process."""

from __future__ import annotations

import ctypes
import os
import re
import select
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from typing import Any, Dict, List, Optional

from loadgen import Conn

COUNTY = "charles"
SCALE = "0.25"
START_TIMEOUT_S = 120.0
_SERVING = re.compile(rb"serving .* on ([0-9.]+):([0-9]+)")
_PR_SET_PDEATHSIG = 1


def child_env(root: str) -> Dict[str, str]:
    """The environment of every process the benchmark starts.

    ``PYTHONDONTWRITEBYTECODE`` keeps imports from rewriting ``.pyc``
    files inside the checkout.
    """
    env = dict(os.environ)
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    return env


def _child_setup(cpus) -> None:
    """In the forked child: die with the benchmark, and pin if asked."""
    libc = ctypes.CDLL(None, use_errno=True)
    libc.prctl(_PR_SET_PDEATHSIG, signal.SIGTERM)
    if cpus:
        os.sched_setaffinity(0, cpus)


class Server:
    """One served index; ``setup_s`` is spawn to first OK ``ping``.

    ``cpus`` pins the server process (all its threads) to those CPUs.
    """

    def __init__(self, root: str, workload, tmp_dir: str, cpus=None) -> None:
        self.wal_dir: Optional[str] = None
        argv: List[str] = [
            sys.executable, "-m", "repro", "serve", "--async",
            "--host", "127.0.0.1", "--port", "0",
            "--county", COUNTY, "--scale", SCALE,
            "--structure", workload.structure,
            "--backend", workload.backend,
        ]
        if workload.durable:
            self.wal_dir = tempfile.mkdtemp(prefix="wal-", dir=tmp_dir)
            argv += ["--wal", os.path.join(self.wal_dir, "store")]
        start = time.perf_counter()
        self.proc = subprocess.Popen(
            argv,
            cwd=root,
            env=child_env(root),
            stdin=subprocess.DEVNULL,
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            preexec_fn=lambda: _child_setup(cpus),
        )
        try:
            self.address = self._await_address(start + START_TIMEOUT_S)
            conn = Conn(self.address, 1)
            try:
                if conn.call({"op": "ping"}) != "pong":
                    raise RuntimeError("ping did not answer pong")
            finally:
                conn.close()
            self.setup_s = time.perf_counter() - start
        except BaseException:
            self.stop()
            raise

    def _await_address(self, deadline: float):
        out = b""
        fd = self.proc.stdout.fileno()
        while time.perf_counter() < deadline:
            ready, _, _ = select.select([fd], [], [], 0.05)
            if ready:
                chunk = os.read(fd, 65536)
                if not chunk:
                    break
                out += chunk
                match = _SERVING.search(out)
                if match:
                    return match.group(1).decode(), int(match.group(2))
            elif self.proc.poll() is not None:
                break
        raise RuntimeError(f"server did not start: {out.decode(errors='replace')[-2000:]}")

    @property
    def pid(self) -> int:
        return self.proc.pid

    def peak_rss_mb(self) -> float:
        with open(f"/proc/{self.pid}/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("VmHWM missing from /proc status")

    def disk_bytes(self) -> int:
        total = 0
        for dirpath, _, files in os.walk(self.wal_dir):
            for name in files:
                total += os.path.getsize(os.path.join(dirpath, name))
        return total

    def stop(self) -> None:
        """Stop the process, wait for it, and delete its WAL directory."""
        proc = self.proc
        if proc.poll() is None:
            proc.send_signal(signal.SIGTERM)
            try:
                proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait(timeout=10)
        if proc.stdout is not None:
            proc.stdout.close()
        if self.wal_dir is not None:
            shutil.rmtree(self.wal_dir, ignore_errors=True)


def counters(stats: Dict[str, Any], metrics: Dict[str, Any]) -> Dict[str, float]:
    """Flatten the ``stats`` and ``metrics`` counters a phase delta needs."""
    out: Dict[str, float] = {
        "cache.hits": stats["cache"]["hits"],
        "cache.misses": stats["cache"]["misses"],
        "cache.invalidations": stats["cache"]["invalidations"],
        "latch.acquisitions": stats["latch"]["acquisitions"],
        "latch.contended": stats["latch"]["contended"],
        "wal.fsyncs": stats.get("wal", {}).get("fsyncs", 0),
    }
    for entry in metrics["counters"]:
        if entry["name"] == "repro_server_overloaded_total":
            out["overloaded"] = entry["value"]
    for entry in metrics["histograms"]:
        if entry["name"] == "repro_op_latency_seconds":
            op = entry["labels"].get("op")
            out[f"engine.{op}.count"] = entry["count"]
            out[f"engine.{op}.sum"] = entry["sum_seconds"]
    return out


def snapshot(conn: Conn) -> Dict[str, Any]:
    stats = conn.call({"op": "stats"})
    metrics = conn.call({"op": "metrics"})
    return {"stats": stats, "flat": counters(stats, metrics)}


def delta(after: Dict[str, Any], before: Dict[str, Any]) -> Dict[str, float]:
    a, b = after["flat"], before["flat"]
    return {k: a[k] - b.get(k, 0) for k in a}
