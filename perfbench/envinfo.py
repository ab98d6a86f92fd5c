"""Environment record and calibration kernel attached to every result.

The calibration kernel is a fixed piece of pure-Python and NumPy work,
timed at the start and at the end of each run.  When two results differ,
a matching change in ``env.calib_s`` points at the machine, not the
program.

:class:`QuietCpu` starts each timed round on a CPU running at full
speed.  On a shared virtual machine each virtual CPU slows down on its
own, by up to 1.8x for a second to tens of seconds, when its host core
is busy with a neighbour's work.  Probing the CPUs before each round,
pinning to the fastest and, when all are slow, waiting briefly for one
to recover keeps most rounds off a contended CPU.  The probe timed
again on that CPU before and after the round measures how fast the CPU
ran it; the round's wall time divided by the slower of those two probe
times is its *cost*, which stays put when the whole machine slows down
(see ``perfbench/README.md``).
"""

from __future__ import annotations

import hashlib
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path
from typing import Any

import numpy as np
import scipy

from repro.util.rng import ensure_rng


def calibrate(repeats: int = 5) -> float:
    """Median seconds of a fixed kernel (dict/loop work + a NumPy sort)."""
    data = ensure_rng(12345).random(200_000)
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        table: dict[int, int] = {}
        acc = 0
        for i in range(60_000):
            table[i & 4095] = acc
            acc = (acc * 31 + i) & 0xFFFFFFFF
        np.sort(data, kind="stable")
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def _probe() -> float:
    """Seconds of a short fixed pure-Python kernel (about 3 ms)."""
    t0 = time.perf_counter()
    table: dict[int, int] = {}
    acc = 0
    for i in range(20_000):
        table[i & 1023] = acc
        acc = (acc * 31 + i) & 0xFFFFFFFF
    return time.perf_counter() - t0


class QuietCpu:
    """Pins this process to a usable CPU running at full speed, and probes it.

    ``settle()`` times the probe on each of at most ``MAX_CPUS`` usable
    CPUs (best of two after one warm-up) and pins the process to the
    fastest.  A probe is *quiet* when it is at most ``SLOW`` slower than
    the best probe seen in this run.  If even the fastest CPU is not
    quiet, ``settle()`` sleeps ``NAP_S`` and probes again, for at most
    ``MAX_WAIT_S``; it returns whether it ended on a quiet CPU.
    ``probe()`` times the probe again on the pinned CPU (best of two):
    taken around timed work, it measures how fast the CPU was running
    it.  ``release()`` restores the original CPU set.  With one
    usable CPU, or without ``sched_setaffinity``, nothing is pinned.
    """

    MAX_CPUS = 4
    SLOW = 0.25
    NAP_S = 0.02
    MAX_WAIT_S = 1.0

    def __init__(self) -> None:
        try:
            self.allowed = set(os.sched_getaffinity(0))
        except AttributeError:  # pragma: no cover - non-Linux
            self.allowed = set()
        self.cpus = sorted(self.allowed)[: self.MAX_CPUS]
        self.pin = len(self.cpus) >= 2
        self.best_probe_s = float("inf")
        self.switches = 0
        self.waited_s = 0.0
        self.current: int | None = None

    def quiet(self, took: float) -> bool:
        self.best_probe_s = min(self.best_probe_s, took)
        return took <= self.best_probe_s * (1.0 + self.SLOW)

    def _fastest(self) -> tuple[int | None, float]:
        best, best_s = None, float("inf")
        for cpu in self.cpus if self.pin else [None]:
            if cpu is not None:
                os.sched_setaffinity(0, {cpu})
            _probe()
            took = min(_probe(), _probe())
            if took < best_s:
                best, best_s = cpu, took
        return best, best_s

    def settle(self) -> bool:
        t0 = time.perf_counter()
        while True:
            cpu, took = self._fastest()
            quiet = self.quiet(took)
            if quiet or time.perf_counter() - t0 >= self.MAX_WAIT_S:
                break
            time.sleep(self.NAP_S)
        self.waited_s += time.perf_counter() - t0
        if cpu is not None:
            os.sched_setaffinity(0, {cpu})
            if self.current is not None and cpu != self.current:
                self.switches += 1
            self.current = cpu
        return quiet

    def probe(self) -> float:
        return min(_probe(), _probe())

    def release(self) -> None:
        if self.pin:
            os.sched_setaffinity(0, self.allowed)
        self.current = None


def peak_rss_mb() -> float:
    """Peak resident set size of this process so far, in MB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _git_rev(root: Path) -> str | None:
    """HEAD commit read straight from ``.git`` (None outside a git checkout)."""
    head = root / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
    except OSError:
        return None
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    try:
        return (root / ".git" / name).read_text().strip()
    except OSError:
        pass
    try:
        for line in (root / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_digest(root: Path) -> str:
    """sha256 over the program's source files, in path order."""
    h = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        h.update(str(path.relative_to(root)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def filesystem_of(path: Path) -> str:
    """Filesystem type of the mount holding ``path`` (from /proc/mounts)."""
    target = str(path.resolve())
    best, fstype = "", "unknown"
    try:
        lines = Path("/proc/mounts").read_text().splitlines()
    except OSError:
        return fstype
    for line in lines:
        fields = line.split()
        if len(fields) < 3:
            continue
        mount = fields[1]
        inside = target == mount or target.startswith(mount.rstrip("/") + "/")
        if inside and len(mount) > len(best):
            best, fstype = mount, fields[2]
    return fstype


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment(root: Path, state_dir: Path) -> dict[str, Any]:
    """Machine and software fingerprint for one run."""
    try:
        usable = len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        usable = os.cpu_count() or 0
    return {
        "git_rev": _git_rev(root),
        "src_sha256": source_digest(root),
        "nproc": os.cpu_count(),
        "usable_cpus": usable,
        "cpu_model": _cpu_model(),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "state_dir_fs": filesystem_of(state_dir),
        "thread_env": {
            k: os.environ.get(k)
            for k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
        },
    }
