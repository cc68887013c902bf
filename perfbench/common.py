"""Shared helpers for the benchmark workloads: statistics, provenance,
seeded config generation and the result record.

Everything here is benchmark-side code; the program under test is
imported only as the installed ``repro`` package (``PYTHONPATH=src``).
"""

from __future__ import annotations

import json
import os
import platform
import resource
import statistics
import subprocess
import time
from pathlib import Path

import numpy as np

#: Repository root (the benchmark runs from a checkout's root).
ROOT = Path.cwd()
#: Recorded reference run: kernel tier and medians per workload.
BASELINE = Path(__file__).with_name("baseline.json")
_perf = time.perf_counter


# ----------------------------------------------------------------------
# Statistics
# ----------------------------------------------------------------------
def median(values) -> float:
    values = list(values)
    return float(statistics.median(values)) if values else 0.0


def quantile(values, q: float) -> float:
    """The ``q`` quantile (linear interpolation, numpy's default)."""
    values = list(values)
    return float(np.quantile(values, q)) if values else 0.0


def peak_rss_mb() -> float:
    """High-water resident set of this process, in MiB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ----------------------------------------------------------------------
# Host speed
# ----------------------------------------------------------------------
#: Probe kinds: (entries gathered from, gathers per pass, passes per
#: sample, one sample's time on the reference host in a quiet state).
#: ``llc``: a 28 MB working set in the shared last-level cache, like the
#: trench workloads'; ``l2``: 0.4 MB in the core's own L2, like a small
#: 2D job's; ``python``: no arrays, an interpreter loop of that many
#: iterations, like the service's HTTP, JSON and queue handling.
#: Changing a reference time rescales every time metric it scales.
PROBES = {
    "llc": (500_000, 1_000_000, 4, 0.020),
    "l2": (8_192, 16_384, 200, 0.007),
    "python": (0, 0, 10_000, 0.001),
}


class HostProbe:
    """A fixed kernel, independent of the program under test, timed next
    to each measurement to follow the speed of a shared host.

    The host drifts between speed states on a scale of minutes, and the
    drift slows every program alike (up to 1.5x on the reference host,
    fastest cycle included).  Each time metric is therefore reported in
    *reference-host seconds*: a statistic of the measured wall times
    times the probe's reference time over the same statistic of the
    probe's times, the probe timed between or beside the measurements
    (``at_ref_q``).  On a quiet reference host that is the wall time;
    the plain wall times are kept in the run record.

    The array kernels are the stepping's memory pattern in miniature: a
    mesh-like gather (each entry read by about two neighbours) and
    streaming multiply-adds, over a working set sized like the
    workload's (``PROBES``), since a shared cache and a shared core
    drift apart.  All of it is allocated once, so ``nbytes`` is exactly
    what the probe adds to the process's resident set."""

    def __init__(self, kind: str):
        n, m, self.reps, self.ref_s = PROBES[kind]
        self.nbytes = 0
        if not m:
            return
        rng = np.random.default_rng(20150525)
        self.u = rng.random(n)
        self.w = rng.random(m)
        self.idx = np.arange(m, dtype=np.intp)
        self.idx //= 2
        for i in range(0, m, 8192):  # small pieces: no large temporaries
            part = self.idx[i:i + 8192]
            part += rng.integers(0, 64, len(part))
        self.idx %= n
        self.x = np.empty(m)
        self.nbytes = sum(a.nbytes for a in (self.u, self.w, self.idx, self.x))
        self.sample()  # first touch, untimed

    def sample(self) -> float:
        """Wall time of one pass, in seconds."""
        if not self.nbytes:
            t0 = _perf()
            x = 0
            for i in range(self.reps):
                x += i * i % 7
            return _perf() - t0
        u, w, idx, x = self.u, self.w, self.idx, self.x
        t0 = _perf()
        for _ in range(self.reps):
            np.take(u, idx, out=x)
            np.multiply(x, w, out=x)
            np.add(x, w, out=x)
        return _perf() - t0

    def at_ref_q(self, samples, probes, q: float) -> float:
        """The ``q`` quantile of ``samples`` (seconds) in reference-host
        seconds: scaled by this probe's own ``q`` quantile over the same
        run (``probes``), so like host states are compared."""
        return quantile(samples, q) * self.ref_s / quantile(probes, q)


def process_hwm_mb(pid: int) -> float:
    """High-water resident set (``VmHWM``) of another live process."""
    with open(f"/proc/{pid}/status") as f:
        for line in f:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


def rel_diff(a, b) -> float:
    """``max|a - b|`` relative to ``max|b|`` (absolute when ``b`` is 0)."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape:
        return float("inf")
    scale = float(np.max(np.abs(b))) if b.size else 0.0
    diff = float(np.max(np.abs(a - b))) if b.size else 0.0
    return diff / scale if scale > 0 else diff


# ----------------------------------------------------------------------
# Provenance
# ----------------------------------------------------------------------
def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def _cache_sizes() -> dict:
    """L2/L3 sizes from sysfs (per cache instance, as the kernel reports)."""
    out = {}
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    for idx in sorted(base.glob("index*")) if base.exists() else []:
        try:
            level = (idx / "level").read_text().strip()
            kind = (idx / "type").read_text().strip()
            size = (idx / "size").read_text().strip()
        except OSError:
            continue
        if level in ("2", "3") and kind in ("Unified", "Data"):
            out[f"L{level}"] = size
    return out


def _git_commit() -> str:
    try:
        r = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10,
            # Never look above the checkout for a repository.
            env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return r.stdout.strip() if r.returncode == 0 else "unknown"


def provenance(kernel_tier: str) -> dict:
    """Where and on what a run was measured."""
    import scipy

    return {
        "cpu_model": _cpu_model(),
        "usable_cores": len(os.sched_getaffinity(0)),
        "caches": _cache_sizes(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "git_commit": _git_commit(),
        "kernel_tier": kernel_tier,
    }


def tier_guard(workload: str, kernel_tier: str) -> dict:
    """Compare this run's kernel tier with the recorded baseline's.

    A run on another tier (e.g. the fused C kernels fell back to NumPy
    because no compiler was found) measures a different program: its
    figures are incomparable with the baseline, not a speed change."""
    try:
        recorded = json.loads(BASELINE.read_text())["workloads"][workload][
            "kernel_tier"
        ]
    except (OSError, KeyError, ValueError):
        recorded = None
    return {
        "baseline_tier": recorded,
        "comparable": recorded is None or recorded == kernel_tier,
    }


# ----------------------------------------------------------------------
# Seeded inputs
# ----------------------------------------------------------------------
TRENCH = {"family": "trench", "params": {"nx": 20, "ny": 16, "nz": 8}}
#: Simulated end time of the trench workloads, in LTS cycles.
TRENCH_CYCLES = 120


def trench_config(rng: np.random.Generator, *, elastic: bool) -> dict:
    """The 20x16x8 trench with a jittered source and receiver line.

    Acoustic order 4 serial (173,745 DOFs) or isotropic elastic order 3
    on 4 SCOTCH-P ranks (224,175 DOFs); both matrix-free on the fused
    tier, one thread.  The jitter moves only where the source and the
    receivers sit, never how much work a step does."""
    src = [4.0 + rng.uniform(0, 2), 8.0 + rng.uniform(-1.5, 1.5), 1.0 + rng.uniform(0, 1)]
    x0 = 11.0 + rng.uniform(0, 2)
    y0 = 8.0 + rng.uniform(-1.5, 1.5)
    receivers = [[x0 + 2.0 * i, y0, 0.5] for i in range(4)]
    cfg = {
        "name": "trench3d-elastic-4rank" if elastic else "trench3d-acoustic-serial",
        "mesh": TRENCH,
        "material": {"model": "acoustic"},
        "order": 4,
        "time": {"n_cycles": TRENCH_CYCLES, "c_cfl": 0.4, "scheme": "lts"},
        "source": {"position": src, "f0": 0.5},
        "receivers": {"positions": receivers},
        "partition": {"n_ranks": 1},
        "backend": {"stiffness": "matfree", "fused": True},
    }
    if elastic:
        cfg["material"] = {"model": "elastic", "lam": 1.0, "mu": 1.0, "rho": 1.0}
        cfg["order"] = 3
        cfg["source"]["component"] = 2
        cfg["receivers"]["component"] = 2
        cfg["partition"] = {"n_ranks": 4, "strategy": "SCOTCH-P", "seed": 0}
    return cfg


def _iso_voigt(lam: float, mu: float) -> list:
    return [[lam + 2 * mu, lam, 0.0], [lam, lam + 2 * mu, 0.0], [0.0, 0.0, mu]]


_STRIP = [[0.0, 32.0], [14.0, 18.0]]  # a fast 4-element strip across x

#: The service workload's material models: each has a fast strip that
#: forces 2-4 LTS levels on the uniform 32x32 grid.
SERVICE_MODELS = {
    "ac-strip2": {"model": "acoustic", "regions": [{"box": _STRIP, "values": {"c": 2.0}}]},
    "ac-strip4": {"model": "acoustic", "regions": [{"box": _STRIP, "values": {"c": 4.0}}]},
    "ac-strip8": {"model": "acoustic", "regions": [{"box": _STRIP, "values": {"c": 8.0}}]},
    "ac-dense-strip4": {
        "model": "acoustic", "rho": 2.0,
        "regions": [{"box": _STRIP, "values": {"c": 4.0, "rho": 1.0}}],
    },
    "el-strip2": {
        "model": "elastic", "lam": 2.0, "mu": 1.0,
        "regions": [{"box": _STRIP, "values": {"lam": 8.0, "mu": 4.0}}],
    },
    "el-strip4": {
        "model": "elastic", "lam": 2.0, "mu": 1.0,
        "regions": [{"box": _STRIP, "values": {"lam": 32.0, "mu": 16.0}}],
    },
    "an-strip2": {
        "model": "anisotropic_elastic", "C": _iso_voigt(2.0, 1.0),
        "regions": [{"box": _STRIP, "values": {"C": _iso_voigt(8.0, 4.0)}}],
    },
    "an-vti-strip": {
        "model": "anisotropic_elastic", "C": _iso_voigt(2.0, 1.0),
        "regions": [{"box": _STRIP, "values": {
            "C": [[20.0, 5.0, 0.0], [5.0, 13.0, 0.0], [0.0, 0.0, 4.0]]}}],
    },
}
#: Warm-up model: outside the timed set, so its stages never pre-warm it.
WARMUP_MODEL = {"model": "acoustic", "regions": [{"box": _STRIP, "values": {"c": 3.0}}]}
SOURCES_PER_MODEL = 15
#: Acoustic jobs on the assembled backend, per acoustic model: 4 models
#: x 8 of 15 = 32 of the 120 jobs (about a quarter).  Elastic jobs stay
#: matrix-free, where the service runs them in its worker threads.
ASSEMBLED_PER_ACOUSTIC_MODEL = 8


def service_config(name: str, material: dict, source_x: float, backend: str) -> dict:
    """One 32x32 order-4 job: 20 LTS cycles, a short Ricker source at
    ``(source_x, 8)`` and three receivers one unit around it, so the
    traces carry signal within the job's short end time."""
    elastic = material["model"] != "acoustic"
    cfg = {
        "name": name,
        "mesh": {"family": "uniform_grid", "params": {"shape": [32, 32]}},
        "material": material,
        "order": 4,
        "time": {"n_cycles": 20, "c_cfl": 0.4, "scheme": "lts"},
        "source": {"position": [source_x, 8.0], "f0": 2.0, "t0": 0.3},
        "receivers": {"positions": [[source_x - 1.0, 8.0], [source_x, 9.0],
                                    [source_x + 1.0, 8.0]]},
        "partition": {"n_ranks": 1},
        "backend": {"stiffness": backend},
    }
    if elastic:
        cfg["source"]["component"] = 1
        cfg["receivers"]["component"] = 1
    return cfg


def service_jobs(rng: np.random.Generator) -> list[tuple[str, dict]]:
    """8 models x 15 jittered source positions, a quarter of them on the
    assembled backend, in seeded shuffled order: ``[(model, config)]``."""
    jobs = []
    for model, material in SERVICE_MODELS.items():
        xs = np.sort(rng.uniform(3.0, 29.0, SOURCES_PER_MODEL))
        n_asm = ASSEMBLED_PER_ACOUSTIC_MODEL if material["model"] == "acoustic" else 0
        assembled = set(rng.choice(SOURCES_PER_MODEL, n_asm, replace=False).tolist())
        for i, x in enumerate(xs):
            backend = "assembled" if i in assembled else "matfree"
            jobs.append((model, service_config(
                f"{model}-{i:02d}", material, round(float(x), 6), backend)))
    order = rng.permutation(len(jobs))
    return [jobs[i] for i in order]


# ----------------------------------------------------------------------
# The result record
# ----------------------------------------------------------------------
class Outcome:
    """Operations attempted/failed and the named correctness checks."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.checks: dict[str, dict] = {}
        self.errors: list[str] = []

    def op(self, ok: bool, what: str = "") -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if what and len(self.errors) < 20:
                self.errors.append(what)
        return ok

    def check(self, name: str, value: float, limit: float) -> bool:
        """One correctness check: an operation that fails unless
        ``value <= limit`` (a NaN never passes)."""
        ok = bool(value <= limit)
        self.checks[name] = {"value": float(value), "limit": float(limit), "ok": ok}
        return self.op(ok, f"check {name}: {value!r} > {limit!r}")

    @property
    def correct(self) -> bool:
        return self.failed == 0 and all(c["ok"] for c in self.checks.values())


def metric(value: float, unit: str) -> dict:
    return {"value": float(value), "unit": unit}
