"""Shared helpers: statistics, process probes, HTTP clients, stamps, deltas."""

from __future__ import annotations

import http.client
import json
import os
import platform
import random
import socket
import subprocess
import threading
import time
from collections import deque
from pathlib import Path
from typing import Deque, Dict, List, Optional, Sequence, Tuple

ROOT = Path.cwd()
SRC = ROOT / "src"


def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated percentile, ``q`` in [0, 100]."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no values")
    rank = (len(ordered) - 1) * q / 100.0
    low = int(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def child_env() -> Dict[str, str]:
    """Environment for child processes: ``src`` on the import path."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    return env


# -- process probes ----------------------------------------------------------

_TICK = os.sysconf("SC_CLK_TCK")


def proc_cpu_s(pid: int) -> Tuple[float, float]:
    """User and system CPU seconds of a live process (all its threads)."""
    with open(f"/proc/{pid}/stat", encoding="ascii") as handle:
        fields = handle.read().rsplit(")", 1)[1].split()
    return int(fields[11]) / _TICK, int(fields[12]) / _TICK


def proc_peak_rss_mb(pid: int) -> float:
    """Peak resident set size (VmHWM) of a live process, in MiB."""
    with open(f"/proc/{pid}/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


def stop_process(proc: subprocess.Popen, timeout: float = 60.0) -> int:
    """SIGTERM, wait, SIGKILL if it hangs; always reaps the child."""
    if proc.poll() is None:
        proc.terminate()
        try:
            proc.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
    return proc.returncode


# -- machine and config stamp -----------------------------------------------

def _fs_type(path: Path) -> str:
    real = os.path.realpath(path)
    best, fstype = "", "unknown"
    with open("/proc/mounts", encoding="utf-8") as handle:
        for line in handle:
            parts = line.split()
            mount = parts[1]
            inside = real == mount or real.startswith(mount.rstrip("/") + "/")
            if inside and len(mount) > len(best):
                best, fstype = mount, parts[2]
    return fstype


def machine_stamp(wal_dir: Path) -> dict:
    cpu_model = "unknown"
    with open("/proc/cpuinfo", encoding="utf-8") as handle:
        for line in handle:
            if line.startswith("model name"):
                cpu_model = line.split(":", 1)[1].strip()
                break
    try:
        import numpy
        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        "python": platform.python_version(),
        "numpy": numpy_version,
        "wal_fs": _fs_type(wal_dir),
    }


# -- HTTP clients --------------------------------------------------------------

def free_port() -> int:
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


def request(conn: http.client.HTTPConnection, method: str, path: str,
            body: Optional[bytes] = None, headers: Optional[dict] = None):
    """One request on ``conn``; returns ``(status, headers, body bytes)``."""
    conn.request(method, path, body=body, headers=headers or {})
    response = conn.getresponse()
    data = response.read()
    return response.status, response.headers, data


def fresh_request(port: int, method: str, path: str, body: Optional[bytes] = None,
                  headers: Optional[dict] = None, timeout: float = 60.0):
    """A request on its own connection, as the repo's urllib clients do."""
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=timeout)
    try:
        return request(conn, method, path, body, headers)
    finally:
        conn.close()


def get_json(port: int, path: str) -> dict:
    status, _headers, data = fresh_request(port, "GET", path)
    if status != 200:
        raise RuntimeError(f"GET {path}: HTTP {status}: {data[:200]!r}")
    return json.loads(data)


def wait_ready(port: int, proc: subprocess.Popen, timeout: float = 120.0) -> None:
    deadline = time.monotonic() + timeout
    while True:
        if proc.poll() is not None:
            raise RuntimeError(f"server exited early with code {proc.returncode}")
        try:
            status, _headers, _data = fresh_request(port, "GET", "/healthz", timeout=5)
            if status == 200:
                return
        except OSError:
            pass
        if time.monotonic() > deadline:
            raise RuntimeError("server not ready in time")
        time.sleep(0.02)


# -- the family delta stream ---------------------------------------------------

class DeltaStream:
    """Seeded stream of small deltas against the family fixture.

    One-family additions alternate with whole-family retractions of the
    oldest family the stream added, so the corpus stays at its base size
    (a growing corpus would give a faster program slower later ops).  One
    delta in ten toggles the marriage link of a random base family instead:
    it retracts the link (``family_removal``) or restores a retracted one,
    so the stream never runs out.  A family is retracted only
    ``RETRACT_AFTER`` additions after it was added, which with at most two
    writers in flight is long after its addition was acknowledged, so every
    delta applies in full whatever order the writers' requests arrive in.
    """

    #: Additions between a family's addition and its retraction.
    RETRACT_AFTER = 16

    def __init__(self, seed: int, base_families: int) -> None:
        from repro.datasets import family_removal, family_triples

        self._family_triples = family_triples
        self._family_removal = family_removal
        self.rng = random.Random(seed)
        self.base = base_families
        self.next_family = base_families
        self.live: List[int] = []
        self.linked = set(range(base_families))
        # A retract and a restore of one link must never be in flight
        # together, or they could arrive in either order.
        self.recent_toggles: Deque[int] = deque(maxlen=4)
        self.retract_next = False
        self.lock = threading.Lock()

    @staticmethod
    def _payload(add1=(), add2=(), remove1=(), remove2=()) -> bytes:
        from repro.service.delta import Delta

        delta = Delta(add1=tuple(add1), remove1=tuple(remove1),
                      add2=tuple(add2), remove2=tuple(remove2))
        return json.dumps(delta.to_json()).encode("utf-8")

    def next(self) -> Tuple[str, bytes]:
        """The next ``(kind, JSON body)``; thread-safe."""
        with self.lock:
            if self.rng.random() < 0.1:
                family = self.rng.randrange(self.base)
                while family in self.recent_toggles:
                    family = self.rng.randrange(self.base)
                self.recent_toggles.append(family)
                left, right = self._family_removal([family])
                if family in self.linked:
                    self.linked.discard(family)
                    return "retract_link", self._payload(remove1=left, remove2=right)
                self.linked.add(family)
                return "restore_link", self._payload(add1=left, add2=right)
            if self.retract_next and len(self.live) > self.RETRACT_AFTER:
                self.retract_next = False
                family = self.live.pop(0)
                return "retract_family", self._payload(
                    remove1=self._family_triples([family], 0),
                    remove2=self._family_triples([family], 1),
                )
            self.retract_next = True
            family = self.next_family
            self.next_family += 1
            self.live.append(family)
            return "add", self._payload(
                add1=self._family_triples([family], 0),
                add2=self._family_triples([family], 1),
            )

    def corpus(self):
        """The two ontologies the stream has produced so far."""
        from repro.rdf.ontology import Ontology

        left, right = Ontology("final-left"), Ontology("final-right")
        for family in list(range(self.base)) + self.live:
            link1, link2 = self._family_removal([family])
            keep = family not in range(self.base) or family in self.linked
            for triple in self._family_triples([family], 0):
                if keep or triple not in link1:
                    left.add_triple(triple)
            for triple in self._family_triples([family], 1):
                if keep or triple not in link2:
                    right.add_triple(triple)
        return left, right


def write_family_fixture(directory: Path, families: int) -> Tuple[Path, Path]:
    from repro.datasets import family_pair
    from repro.rdf import ntriples

    left, right = family_pair(families)
    paths = directory / "families-left.nt", directory / "families-right.nt"
    ntriples.write_ntriples(left, paths[0])
    ntriples.write_ntriples(right, paths[1])
    return paths
