"""Workload ``service-sweep-2d``: the simulation service under a closed
loop of one caller.

``python -m repro serve --workers 2`` runs in its own process with a
fresh data and stage-cache directory.  Set-up is server start until
``/healthz`` answers plus two warm-up jobs (one per backend, so the
assembled backend's process pool is spawned) on a model outside the
timed set; it is repeated on fresh servers, two before the timed phase
(the second serves it) and two after.  In the timed phase one caller
thread loops submit -> poll -> fetch over the seeded job list (8 models
x 15 sources, a quarter on the assembled backend, shuffled).  One
caller, not one per core: with two, the callers, the server's request
threads, its two workers and the process pool outnumber the two cores
of the reference host, and latency measured the scheduler (5-run
spreads of 0.12-0.27 against 0.06-0.09 with one).  Latency is
client-side, submit to result fetched; the server's record timestamps
split it into queue wait and run.  The service's times are scaled by
an interpreter probe (``HostProbe("python")``) timed beside the loop;
set-up stays plain wall time, which that probe followed worse.

After the timed phase one job per model (both backends covered) is
fetched again and compared with a direct in-process ``Simulation.run``
of the same config, and the job mix's stepping is timed directly, LTS
against Newmark on the same operator, for the efficiency figures.
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np

from common import (
    SERVICE_MODELS,
    WARMUP_MODEL,
    HostProbe,
    Outcome,
    median,
    metric,
    process_hwm_mb,
    quantile,
    rel_diff,
    service_config,
    service_jobs,
)
from tracing import RUN, Tracer

from repro.api import Simulation
from repro.core import LTSNewmarkSolver, NewmarkSolver, theoretical_speedup
from repro.service import ServiceClient, ServiceError

_now = time.perf_counter
CLIENTS = 1  # closed-loop callers (see the module docstring)
POLL_S = 0.02  # status poll interval (the client's default 0.25 s would quantize latency)
JOB_TIMEOUT_S = 60.0
SERVICE_SHARE = 0.8  # of the time budget; the rest times the job mix directly
TERMINAL = ("done", "failed", "cancelled")
PROBE_EVERY_S = 0.1  # interpreter-probe interval beside the closed loop


class Server:
    """One ``python -m repro serve`` process with its own directories."""

    def __init__(self, root: Path):
        self.root = root
        self.log = root / "server.log"
        self.proc: subprocess.Popen | None = None
        self.url = ""

    def start(self, timeout: float = 60.0) -> ServiceClient:
        self.root.mkdir(parents=True, exist_ok=True)
        with open(self.log, "w") as log:
            self.proc = subprocess.Popen(
                [sys.executable, "-m", "repro", "serve", "--workers", "2", "--port", "0",
                 "--data-dir", str(self.root / "data"), "--cache-dir", str(self.root / "cache")],
                stdout=log, stderr=subprocess.STDOUT, env=os.environ.copy(),
            )
        deadline = time.monotonic() + timeout
        while not self.url:
            if self.proc.poll() is not None or time.monotonic() > deadline:
                raise RuntimeError(f"server did not start: {self.log.read_text()[-2000:]}")
            for line in self.log.read_text().splitlines():
                if line.startswith("listening on "):
                    self.url = line.split()[2]
            time.sleep(0.005)
        client = ServiceClient(self.url, timeout=30.0)
        while True:
            try:
                if client.healthz()["status"] == "ok":
                    return client
            except ServiceError:
                if time.monotonic() > deadline:
                    raise
            time.sleep(0.005)

    def stop(self) -> None:
        if self.proc is None:
            return
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc = None


def wait_job(client: ServiceClient, job_id: str, tracer=None) -> dict:
    deadline = time.monotonic() + JOB_TIMEOUT_S
    while True:
        if tracer is None:
            rec = client.job(job_id)
        else:
            with tracer.span("service.poll", run=job_id):
                rec = client.job(job_id)
        if rec["state"] in TERMINAL:
            return rec
        if time.monotonic() > deadline:
            raise ServiceError(f"job {job_id} timed out in state {rec['state']}")
        time.sleep(POLL_S)


def _warm_up(client: ServiceClient) -> None:
    ids = [
        client.submit(config=service_config(f"warmup-{b}", WARMUP_MODEL, 10.0, b))["id"]
        for b in ("matfree", "assembled")
    ]
    for job_id in ids:
        rec = wait_job(client, job_id)
        if rec["state"] != "done":
            raise RuntimeError(f"warm-up job failed: {rec.get('error')}")


# ----------------------------------------------------------------------
# The timed closed loop
# ----------------------------------------------------------------------
def closed_loop(client: ServiceClient, jobs: list, seconds: float, out: Outcome,
                spool: Path, tracer: Tracer | None, probe: HostProbe) -> dict:
    lock = threading.Lock()
    state = {"next": 0}
    samples: list[dict] = []
    deadline = _now() + seconds

    def take():
        with lock:
            if _now() >= deadline:
                return None
            i = state["next"]
            state["next"] += 1
            return i

    def caller(c: int):
        path = spool / f"caller{c}.npz"
        while True:
            i = take()
            if i is None:
                return
            model, cfg = jobs[i % len(jobs)]
            job_id = None
            root = tracer.begin("service.job") if tracer is not None else None
            try:
                t0 = _now()
                if tracer is None:
                    job_id = client.submit(config=cfg)["id"]
                else:
                    with tracer.span("service.submit"):
                        job_id = client.submit(config=cfg)["id"]
                    tracer.spans[root][RUN] = job_id
                t1 = _now()
                rec = wait_job(client, job_id, tracer)
                t2, wall2 = _now(), time.time()
                if rec["state"] != "done":
                    raise ServiceError(f"job {job_id} {rec['state']}: {rec.get('error')}")
                if tracer is None:
                    client.fetch(job_id, path)
                else:
                    with tracer.span("service.fetch", run=job_id):
                        client.fetch(job_id, path)
                t3 = _now()
                with np.load(path) as z:
                    finite = all(bool(np.isfinite(z[k]).all())
                                 for k in z.files if z[k].dtype.kind == "f")
                member = rec.get("metadata", {}).get("member", {})
                sample = {
                    "index": i, "model": model, "id": job_id,
                    "backend": cfg["backend"]["stiffness"],
                    "latency": t3 - t0, "submit": t1 - t0, "fetch": t3 - t2,
                    "queue_wait": rec["started_at"] - rec["submitted_at"],
                    "run": rec["finished_at"] - rec["started_at"],
                    "poll_gap": wall2 - rec["finished_at"],
                    "build_seconds": member.get("build_seconds"),
                    "run_seconds": member.get("run_seconds"),
                    "end": t3,
                }
                with lock:
                    out.op(finite, f"non-finite result for job {job_id}")
                    if finite:
                        samples.append(sample)
            except (ServiceError, OSError, KeyError, ValueError) as e:
                with lock:
                    out.op(False, f"job {job_id or model}: {e}")
            finally:
                if root is not None:
                    tracer.end(root)

    t_start = _now()
    threads = [threading.Thread(target=caller, args=(c,), daemon=True) for c in range(CLIENTS)]
    for t in threads:
        t.start()
    # The host probe beside the loop: about 1 ms of interpreter work
    # every 100 ms, in this process, whose callers mostly wait.
    probes = []
    while any(t.is_alive() for t in threads):
        probes.append(probe.sample())
        time.sleep(PROBE_EVERY_S)
    for t in threads:
        t.join()
    wall = max((s["end"] for s in samples), default=_now()) - t_start
    return {"samples": samples, "wall": wall, "probes": probes}


# ----------------------------------------------------------------------
# Direct runs: correctness oracle and the job mix's stepping
# ----------------------------------------------------------------------
def check_sample(client: ServiceClient, samples: list[dict], jobs: list, spool: Path,
                 out: Outcome) -> list[str]:
    """One job per model (the assembled one where the model has any, on
    every other model), so both backends are covered: the fetched traces
    must equal a direct ``Simulation.run``."""
    configs = {cfg["name"]: cfg for _, cfg in jobs}
    chosen = []
    for m, model in enumerate(SERVICE_MODELS):
        want = "assembled" if m % 2 else "matfree"
        cands = [s for s in samples if s["model"] == model]
        pick = next((s for s in cands if s["backend"] == want), cands[0] if cands else None)
        out.check(f"sampled_{model}", 0.0 if pick else 1.0, 0.0)
        if pick is not None:
            chosen.append(pick)
    backends = {s["backend"] for s in chosen}
    out.check("sample_covers_both_backends", 0.0 if len(backends) == 2 else 1.0, 0.0)
    for s in chosen:
        name = jobs[s["index"] % len(jobs)][1]["name"]
        path = client.fetch(s["id"], spool / "check.npz")
        with np.load(path) as z:
            fetched = np.array(z["traces"])
        direct = Simulation(configs[name]).run()
        out.check(f"traces_{name}_{s['backend']}", rel_diff(fetched, direct.traces), 1e-12)
    return [f"{s['model']}:{s['backend']}" for s in chosen]


class DirectStepping:
    """LTS vs Newmark on one matfree config per model, stepped in this
    process without the service, interleaved per model in rounds, with
    the host probe timed after each model's pair."""

    def __init__(self, out: Outcome, probe: HostProbe):
        self.out = out
        self.probe = probe
        self.probes: list[float] = []
        self.cases = []
        for model, material in SERVICE_MODELS.items():
            sim = Simulation(service_config(model, material, 10.0, "matfree"))
            self.cases.append({
                "model": model, "sim": sim, "op": sim.operator(), "n": sim.assembler.n_dof,
                "speedup": theoretical_speedup(sim.levels), "lts": [], "nm": [],
            })
        self._round(record=False)  # warm-up

    def _one(self, case, record: bool) -> None:
        sim, n = case["sim"], case["n"]
        lts = LTSNewmarkSolver(case["op"], sim.dof_level, sim.dt, force=sim.force)
        nm = NewmarkSolver(case["op"], sim.levels.dt_min, force=sim.force)
        u, v, un, vn = (np.zeros(n) for _ in range(4))
        t0 = _now()
        for _ in range(sim.n_cycles):
            lts.step(u, v)
        t1 = _now()
        for _ in range(sim.n_cycles * sim.levels.p_max):
            nm.step(un, vn)
        t2 = _now()
        p = self.probe.sample()
        self.out.op(bool(np.isfinite(u).all() and np.isfinite(un).all()),
                    f"non-finite direct run {case['model']}")
        if record:
            case["lts"].append(t1 - t0)
            case["nm"].append(t2 - t1)
            self.probes.append(p)

    def _round(self, record: bool = True) -> None:
        for case in self.cases:
            self._one(case, record)

    def run_for(self, seconds: float) -> None:
        deadline = _now() + seconds
        while _now() < deadline:
            self._round()

    def result(self) -> dict:
        """Sums over the models of one job's LTS stepping and of its
        Newmark baseline, each the median over rounds scaled by the
        probe's median; the median over the models of the median per-round
        (Newmark / LTS) over the model speedup.  A job's 20 cycles take
        about 1 ms each, too short for the 10th percentiles used on the
        trench workloads: whole jobs and medians are steadier here."""
        ref = self.probe.ref_s / median(self.probes)
        return {
            "lts_run_s": sum(median(c["lts"]) for c in self.cases) * ref,
            "newmark_run_s": sum(median(c["nm"]) for c in self.cases) * ref,
            "efficiency": median(
                median(np.array(c["nm"]) / np.array(c["lts"])) / c["speedup"]
                for c in self.cases
            ),
            "rounds": len(self.probes) // len(self.cases),
            "tier": sorted({c["op"].tier for c in self.cases}),
            "wall": {
                "lts_run_s": sum(float(np.mean(c["lts"])) for c in self.cases),
                "newmark_run_s": sum(float(np.mean(c["nm"])) for c in self.cases),
            },
        }


# ----------------------------------------------------------------------
# Entry
# ----------------------------------------------------------------------
def run(workload: str, rng: np.random.Generator, seconds: float, trace: bool,
        run_dir: Path) -> dict:
    jobs = service_jobs(rng)
    out = Outcome()
    tracer = Tracer(workload) if trace else None
    probe, py = HostProbe("l2"), HostProbe("python")
    setups: list[float] = []

    def set_up(i: int) -> tuple[Server, ServiceClient]:
        server = Server(run_dir / f"server{i}")
        t0 = _now()
        try:
            client = server.start()
            _warm_up(client)
        except BaseException:
            server.stop()
            raise
        setups.append(_now() - t0)
        out.op(True)
        return server, client

    # Set-ups and direct stepping run before and after the service
    # phase, so their medians span two host states rather than one.
    stepping = DirectStepping(out, probe)
    stepping.run_for((1 - SERVICE_SHARE) * seconds / 2)
    set_up(0)[0].stop()
    server, client = set_up(1)
    try:
        info_server = client.healthz()
        spool = run_dir / "spool"
        spool.mkdir(parents=True, exist_ok=True)
        loop = closed_loop(client, jobs, SERVICE_SHARE * seconds, out, spool, tracer, py)
        rss = process_hwm_mb(server.proc.pid)
        server_metrics = client.metrics()
        sampled = check_sample(client, loop["samples"], jobs, spool, out)
    finally:
        server.stop()
    for i in (2, 3):
        set_up(i)[0].stop()
    stepping.run_for((1 - SERVICE_SHARE) * seconds / 2)
    direct = stepping.result()

    s = loop["samples"]
    # Service times are scaled by the interpreter probe timed beside the
    # loop: the server's work is Python, and so is its drift.
    scale = py.ref_s / median(loop["probes"])
    raw = [x["latency"] for x in s]
    lat = [x * scale for x in raw]
    metrics = {
        "setup_s": metric(median(setups), "s"),
        "lts_run_s": metric(direct["lts_run_s"], "s"),
        "newmark_run_s": metric(direct["newmark_run_s"], "s"),
        "lts_wall_efficiency": metric(direct["efficiency"], "ratio"),
        "peak_rss_mb": metric(rss, "MB"),
        "job_p50_ms": metric(1e3 * median(lat), "ms"),
        "job_p90_ms": metric(1e3 * quantile(lat, 0.9), "ms"),
        "jobs_per_s": metric(len(s) / (loop["wall"] * scale), "1/s"),
    }
    wall = dict(direct["wall"], job_p50_ms=1e3 * median(raw),
                job_p90_ms=1e3 * quantile(raw, 0.9), jobs_per_s=len(s) / loop["wall"],
                python_probe_ms_p50=1e3 * median(loop["probes"]),
                probe_ms_p10_p50_p90=[1e3 * quantile(stepping.probes, q)
                                      for q in (0.1, 0.5, 0.9)])
    info = {
        "closed_loop": f"{CLIENTS} callers, each submit -> poll every {POLL_S * 1e3:g} ms -> fetch",
        "latency_samples": len(s),
        "jobs": [{k: x[k] for k in ("model", "backend", "latency", "queue_wait", "run",
                                    "run_seconds", "build_seconds", "end")} for x in s],
        "jobs_in_set": len(jobs),
        "setup_s_each": setups,
        "wall": wall,
        "checked_jobs": sampled,
        "direct_rounds": direct["rounds"],
        "kernel_tier": ",".join(direct["tier"]),
        "server": {k: info_server.get(k) for k in ("version", "numpy", "scipy",
                                                   "fused_available", "usable_cores")},
        "server_metrics": server_metrics,
    }
    layers = None
    if trace:
        cache = server_metrics["cache"]
        looked = cache["hits"] + cache["misses"]

        def ms(key, q=0.5):
            return metric(1e3 * quantile([x[key] for x in s if x[key] is not None], q), "ms")

        layers = {
            "service.submit_ms.p50": ms("submit"),
            "service.queue_wait_ms.p50": ms("queue_wait"),
            "service.queue_wait_ms.p90": ms("queue_wait", 0.9),
            "service.run_ms.p50": ms("run"),
            "service.run_ms.p90": ms("run", 0.9),
            "service.fetch_ms.p50": ms("fetch"),
            "service.poll_gap_ms.p50": ms("poll_gap"),
            "api.stage_build_ms.p50": ms("build_seconds"),
            "core.job_run_ms.p50": ms("run_seconds"),
            "api.cache_hit_ratio": metric(cache["hits"] / looked if looked else 0.0, "ratio"),
            "api.cache_misses": metric(cache["misses"], "count"),
            "api.disk_hits": metric(cache["disk_hits"], "count"),
            "api.disk_writes": metric(cache["disk_writes"], "count"),
        }
    return {
        "outcome": out,
        "metrics": metrics,
        "layers": layers,
        "info": info,
        "tracers": [tracer] if tracer is not None else [],
        "layer_rows": [],
    }
