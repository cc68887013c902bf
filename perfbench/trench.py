"""Workloads ``trench3d-acoustic-serial`` and ``trench3d-elastic-4rank``.

One config (seeded source/receiver jitter) is set up several times
from scratch; the last set-up is then stepped in interleaved LTS and
Newmark segments of equal simulated time until the time budget is
spent, so machine drift lands on both sides of the efficiency ratio.
Afterwards the outputs are checked against an oracle:

* serial: the optimized LTS solver against ``mode="reference"`` (the
  literal Algorithm 1) on the same operator, and the Newmark baseline
  against the single-level LTS solver (which *is* Newmark);
* 4 ranks: the distributed LTS and Newmark solvers against the serial
  solvers on the same config.

With tracing on, the budget is split in three: the end-to-end phase,
then freshly built plain solvers and freshly built solvers over timing
proxies, whose difference is the overhead of tracing.
"""

from __future__ import annotations

import gc
import time
from dataclasses import replace

import numpy as np

from common import (
    TRENCH_CYCLES,
    HostProbe,
    Outcome,
    median,
    metric,
    peak_rss_mb,
    quantile,
    rel_diff,
    trench_config,
)
from tracing import END, NAME, RANK, START, TimedOperator, TimedRankStiffness, Tracer, TracingWorld

from repro.api import Simulation
from repro.core import LTSNewmarkSolver, NewmarkSolver, theoretical_speedup
from repro.core.lts_newmark import OperationCounter
from repro.partition.metrics import per_level_imbalance
from repro.runtime import (
    DistributedLTSSolver,
    DistributedNewmarkSolver,
    MailboxWorld,
    build_rank_layout,
)

_now = time.perf_counter
ORACLE_CYCLES = 4  # prefix compared against the oracle
SETUP_PROBES = 5  # probe passes timed before each set-up


class _Null:
    """Stand-in tracer for untraced set-ups: spans cost nothing."""

    def span(self, *a, **k):
        return self

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False


class Stepper:
    """One built trench config: both solvers, their state, and resets."""

    def __init__(self, cfg: dict, distributed: bool, tracer=None):
        tr = tracer or _Null()
        self.distributed = distributed
        t0 = _now()
        sim = Simulation(cfg)
        with tr.span("mesh.build"):
            sim.mesh
        with tr.span("sem.assemble"):
            sim.material
            sim.assembler
        with tr.span("core.levels"):
            sim.levels
            sim.dof_level
        self.sim = sim
        self.levels = sim.levels
        self.p_max = sim.levels.p_max
        if distributed:
            n_ranks = cfg["partition"]["n_ranks"]
            with tr.span("partition.partition"):
                self.parts = sim.parts
            with tr.span("runtime.layout"):
                self.layout = build_rank_layout(
                    sim.assembler, self.parts, n_ranks, dof_level=sim.dof_level,
                    backend="matfree", use_fused=True, threads=None,
                )
            with tr.span("core.solver_build"):
                self.lts, self.nm = self.solvers()
            self.tier = ",".join(sorted({K.tier for K in self.layout.K_local}))
        else:
            with tr.span("sem.operator_build"):
                self.op = sim.operator()
            with tr.span("core.solver_build"):
                self.lts, self.nm = self.solvers()
            self.tier = self.op.tier
        self.setup_s = _now() - t0
        self.n_dof = int(sim.assembler.n_dof)
        self._fresh_state()

    def solvers(self, op=None, layout=None, worlds=(None, None), counter=None):
        """A fresh LTS solver and Newmark baseline over the built stages
        (or over the given operator / rank layout, e.g. timing proxies)."""
        sim = self.sim
        if self.distributed:
            layout = layout or self.layout
            w_lts, w_nm = (w or MailboxWorld(layout.n_ranks) for w in worlds)
            return (
                DistributedLTSSolver(layout, sim.dt, world=w_lts, force=sim.force),
                DistributedNewmarkSolver(layout, sim.levels.dt_min, world=w_nm,
                                         force=sim.force),
            )
        op = op or self.op
        return (
            LTSNewmarkSolver(op, sim.dof_level, sim.dt, force=sim.force, counter=counter),
            NewmarkSolver(op, sim.levels.dt_min, force=sim.force),
        )

    # -- state ------------------------------------------------------------
    def _zeros(self):
        if self.distributed:
            return self.layout.scatter(np.zeros(self.n_dof))
        return np.zeros(self.n_dof)

    def _fresh_state(self):
        self.u, self.v = self._zeros(), self._zeros()
        self.un, self.vn = self._zeros(), self._zeros()

    def reset(self):
        """Back to t = 0 with zero fields (a new pass to the end time)."""
        for x in (self.u, self.v, self.un, self.vn):
            for a in (x if self.distributed else [x]):
                a[:] = 0.0
        self.lts.restore({"t": 0.0, "cycle": 0})
        self.nm.restore({"t": 0.0, "cycle": 0})

    def finite(self, *vecs) -> bool:
        if self.distributed:
            return all(bool(np.isfinite(a).all()) for x in vecs for a in x)
        return all(bool(np.isfinite(x).all()) for x in vecs)

    def retarget(self, lts, nm) -> None:
        """Step these solvers from now on, from rest."""
        self.lts, self.nm = lts, nm
        self._fresh_state()


# ----------------------------------------------------------------------
# The timed phase
# ----------------------------------------------------------------------
def interleaved(st: Stepper, seconds: float, out: Outcome, seg: int, probe: HostProbe,
                tracer: Tracer | None = None, after_warmup=None) -> dict:
    """Alternate LTS segments of ``seg`` cycles with Newmark segments of
    ``seg * p_max`` steps (equal simulated time), alternating which side
    goes first, until ``seconds`` are spent; the host probe is timed
    after every segment.  Each pass restarts from rest after the
    config's end time.  One untimed warm-up pair runs first;
    ``after_warmup()`` then zeroes any counters."""
    lts_step, nm_step = st.lts.step, st.nm.step
    cyc: list[float] = []
    cyc_ref: list[float] = []  # each cycle scaled by the probe after its segment
    nm_cyc: list[float] = []  # p_max Newmark steps: one cycle's simulated time
    probes: list[float] = []
    lts_name = "core.lts_step"
    nm_name = "core.newmark_step"

    def run_lts():
        u, v = st.u, st.v
        for _ in range(seg):
            a = _now()
            if tracer is None:
                lts_step(u, v)
            else:
                i = tracer.begin(lts_name)
                lts_step(u, v)
                tracer.end(i)
            cyc.append(_now() - a)
        p = probe.sample()
        probes.append(p)
        cyc_ref.extend(c * probe.ref_s / p for c in cyc[-seg:])

    def run_nm():
        u, v = st.un, st.vn
        for _ in range(seg):
            a = _now()
            for _ in range(st.p_max):
                if tracer is None:
                    nm_step(u, v)
                else:
                    i = tracer.begin(nm_name)
                    nm_step(u, v)
                    tracer.end(i)
            nm_cyc.append(_now() - a)
        probes.append(probe.sample())

    # Warm-up pair, untimed: first-touch of every pooled buffer.
    run_lts()
    run_nm()
    st.reset()
    for x in (cyc, cyc_ref, nm_cyc, probes):
        x.clear()
    if tracer is not None:
        tracer.spans.clear()
    if after_warmup is not None:
        after_warmup()
    deadline = _now() + seconds
    done = 0
    pair = 0
    while _now() < deadline:
        if pair % 2 == 0:
            run_lts()
            run_nm()
        else:
            run_nm()
            run_lts()
        out.op(st.finite(st.u, st.v), f"non-finite LTS state, segment pair {pair}")
        out.op(st.finite(st.un, st.vn), f"non-finite Newmark state, segment pair {pair}")
        done += seg
        pair += 1
        if done >= TRENCH_CYCLES:
            st.reset()
            done = 0
    return {
        "cycle_s": cyc,
        "cycle_ref_s": cyc_ref,
        "nm_cycle_s": nm_cyc,
        "probe_s": probes,
        "probe": probe,
        "pairs": pair,
    }


def lts_run_s(ph: dict) -> float:
    """LTS time to the end time, in reference-host seconds: 120 x the
    10th-percentile cycle time over the probe's 10th percentile."""
    return TRENCH_CYCLES * ph["probe"].at_ref_q(ph["cycle_s"], ph["probe_s"], 0.1)


def end_to_end(ph: dict, model: float) -> dict:
    """Run times from the quiet end of each distribution (10th
    percentiles, cycle over probe); cycle latency percentiles from every
    cycle scaled by the probe timed right after its segment."""
    lts_run = lts_run_s(ph)
    nm_run = TRENCH_CYCLES * ph["probe"].at_ref_q(ph["nm_cycle_s"], ph["probe_s"], 0.1)
    cyc = ph["cycle_ref_s"]
    return {
        "lts_run_s": metric(lts_run, "s"),
        "newmark_run_s": metric(nm_run, "s"),
        "lts_wall_efficiency": metric(nm_run / lts_run / model, "ratio"),
        "job_p50_ms": metric(1e3 * median(cyc), "ms"),
        "job_p90_ms": metric(1e3 * quantile(cyc, 0.9), "ms"),
        "jobs_per_s": metric(len(cyc) / sum(cyc), "1/s"),
    }


def raw_wall(ph: dict) -> dict:
    """The same figures in plain wall time (means and percentiles of the
    measured times, no probe), for the record."""
    cyc = ph["cycle_s"]
    return {
        "lts_run_s": TRENCH_CYCLES * float(np.mean(cyc)),
        "newmark_run_s": TRENCH_CYCLES * float(np.mean(ph["nm_cycle_s"])),
        "job_p50_ms": 1e3 * median(cyc),
        "job_p90_ms": 1e3 * quantile(cyc, 0.9),
        "jobs_per_s": len(cyc) / sum(cyc),
        "probe_ms_p10_p50_p90": [1e3 * quantile(ph["probe_s"], q) for q in (0.1, 0.5, 0.9)],
    }


# ----------------------------------------------------------------------
# Correctness
# ----------------------------------------------------------------------
def _run_serial(solver, n: int, steps: int, rec) -> tuple[np.ndarray, np.ndarray]:
    u, v = np.zeros(n), np.zeros(n)
    traces = np.zeros((steps, len(rec)))
    for i in range(steps):
        solver.step(u, v)
        traces[i] = u[rec]
    return u, traces


def _run_dist(solver, layout, steps: int, rec) -> tuple[np.ndarray, np.ndarray]:
    ul = layout.scatter(np.zeros(layout.n_dof_global))
    vl = layout.scatter(np.zeros(layout.n_dof_global))
    traces = np.zeros((steps, len(rec)))
    for i in range(steps):
        solver.step(ul, vl)
        traces[i] = layout.gather(ul)[rec]
    solver.check_no_leaks()
    return layout.gather(ul), traces


def check(st: Stepper, out: Outcome) -> None:
    sim = st.sim
    rec = sim.receiver_dofs
    n = st.n_dof
    steps = ORACLE_CYCLES
    nm_steps = ORACLE_CYCLES * st.p_max
    lts, nm = st.solvers()
    if st.distributed:
        # Oracle: the serial solvers on the same config.
        op = sim.operator()
        ref_lts = LTSNewmarkSolver(op, sim.dof_level, sim.dt, force=sim.force)
        ref_nm = NewmarkSolver(op, sim.levels.dt_min, force=sim.force)
        u, tr = _run_dist(lts, st.layout, steps, rec)
        un, trn = _run_dist(nm, st.layout, nm_steps, rec)
        what = "4rank_vs_serial"
    else:
        # Oracle: Algorithm 1 literally; Newmark = single-level LTS.
        ref_lts = LTSNewmarkSolver(st.op, sim.dof_level, sim.dt, mode="reference",
                                   force=sim.force)
        ref_nm = LTSNewmarkSolver(st.op, np.ones(n, dtype=np.int64), sim.levels.dt_min,
                                  mode="reference", force=sim.force)
        u, tr = _run_serial(lts, n, steps, rec)
        un, trn = _run_serial(nm, n, nm_steps, rec)
        what = "vs_reference"
    u_ref, tr_ref = _run_serial(ref_lts, n, steps, rec)
    un_ref, trn_ref = _run_serial(ref_nm, n, nm_steps, rec)
    for name, a, b in (
        (f"lts_traces_{what}", tr, tr_ref),
        (f"lts_field_{what}", u, u_ref),
        (f"newmark_traces_{what}", trn, trn_ref),
        (f"newmark_field_{what}", un, un_ref),
    ):
        out.check(name, rel_diff(a, b), 1e-12)
    finite = all(bool(np.isfinite(x).all()) for x in (u, tr, un, trn))
    out.check("outputs_finite", 0.0 if finite else 1.0, 0.0)
    # The wave must have left the source: an all-zero trace set would
    # make the comparisons above vacuous.
    out.check("field_nonzero", 0.0 if np.abs(u_ref).max() > 0 else 1.0, 0.0)


# ----------------------------------------------------------------------
# Per-layer metrics from the traced phase
# ----------------------------------------------------------------------
def _step_layers(tr: Tracer) -> tuple[dict, list[float], float]:
    """Cycle and step times, plus the LTS steps' total and self time."""
    steps = tr.durations("core.lts_step")
    own = tr.self_times()
    step_self = sum(o for s, o in zip(tr.spans, own) if s[NAME] == "core.lts_step")
    m = {
        "core.lts_cycle_ms.p50": metric(1e3 * median(steps), "ms"),
        "core.lts_cycle_ms.p90": metric(1e3 * quantile(steps, 0.9), "ms"),
        "core.newmark_step_ms.p50": metric(1e3 * median(tr.durations("core.newmark_step")), "ms"),
        "core.vector_update_share": metric(step_self / sum(steps), "ratio"),
    }
    return m, steps, step_self


def _apply_layers(m: dict, k: int, per_call: list[float], n_cyc: int, ops: int,
                  full_rate: float) -> float:
    """Level-``k`` apply time, calls per cycle and rate ratio; returns
    the level's total apply time."""
    t = median(per_call)
    m[f"sem.restricted_apply_ms.L{k}"] = metric(1e3 * t, "ms")
    m[f"sem.restricted_apply_calls.L{k}"] = metric(len(per_call) / n_cyc, "count")
    m[f"sem.restricted_rate_ratio.L{k}"] = metric((ops / t) / full_rate if t else 0.0, "ratio")
    return sum(per_call)


def serial_layers(st: Stepper, tr: Tracer, counter: OperationCounter, op: TimedOperator,
                  model: float) -> tuple[dict, list[str]]:
    m, steps, step_self = _step_layers(tr)
    n_cyc, step_total = len(steps), sum(steps)
    t_full = median(tr.durations("sem.full_apply"))
    m["sem.full_apply_ms.p50"] = metric(1e3 * t_full, "ms")
    rows = ["", "Eq. (9) work units per level (restricted-apply ops / full-apply ops, "
                "per cycle) next to the measured share of LTS step time:",
            f"{'level':<6} {'calls/cycle':>11} {'work units':>11} {'unit share':>10} {'time share':>10}"]
    units, times = {}, {}
    for k in range(1, st.levels.n_levels + 1):
        d = tr.durations(f"sem.restricted_apply.L{k}")
        ops = op.level_ops.get(k, 0)
        times[k] = _apply_layers(m, k, d, n_cyc, ops, op.nnz / t_full)
        units[k] = len(d) / n_cyc * ops / op.nnz
    for k in units:
        rows.append(f"L{k:<5} {m[f'sem.restricted_apply_calls.L{k}']['value']:>11.0f} "
                    f"{units[k]:>11.3f} {units[k] / sum(units.values()):>10.3f} "
                    f"{times[k] / step_total:>10.3f}")
    rows.append(f"{'other':<6} {'':>11} {'':>11} {'':>10} {step_self / step_total:>10.3f}"
                "  (self time of the step: active-set vector updates)")
    m["sem.restricted_apply_share"] = metric(sum(times.values()) / step_total, "ratio")
    stiff = counter.stiffness_ops / n_cyc
    m["core.stiffness_ops_per_cycle"] = metric(stiff, "ops")
    m["core.vector_ops_per_cycle"] = metric(counter.vector_ops / n_cyc, "ops")
    m["core.op_efficiency"] = metric((st.p_max * op.nnz / stiff) / model, "ratio")
    return m, rows


def _supersteps(tr: Tracer) -> tuple[list[tuple[str, dict[int, float]]], float]:
    """Group rank applies into supersteps: a run of applies of one kind,
    closed by the exchange that follows it.  Returns ``[(span name,
    {rank: apply seconds})]`` and the ``Send``/``recv`` time inside LTS
    steps."""
    supersteps: list[tuple[str, dict[int, float]]] = []
    cur: dict[int, float] = {}
    cur_name = None
    in_lts = False
    exchange = 0.0
    for s in tr.spans:
        name = s[NAME]
        if name in ("core.lts_step", "core.newmark_step"):
            in_lts = name == "core.lts_step"
        elif name.startswith("runtime.rank_apply."):
            if cur_name is not None and cur_name != name:
                supersteps.append((cur_name, cur))
                cur = {}
            cur_name = name
            cur[s[RANK]] = cur.get(s[RANK], 0.0) + (s[END] - s[START])
        elif name in ("runtime.send", "runtime.recv"):
            if cur_name is not None:
                supersteps.append((cur_name, cur))
                cur, cur_name = {}, None
            if in_lts:
                exchange += s[END] - s[START]
    if cur_name is not None:
        supersteps.append((cur_name, cur))
    return supersteps, exchange


def distributed_layers(st: Stepper, tr: Tracer, sent: tuple[int, int],
                       proxies: list[TimedRankStiffness], model: float) -> tuple[dict, list[str]]:
    m, steps, _ = _step_layers(tr)
    n_cyc, step_total = len(steps), sum(steps)
    n_ranks = st.layout.n_ranks
    supersteps, exchange = _supersteps(tr)

    def per_rank(what: str) -> np.ndarray:  # (supersteps, ranks) apply seconds
        rows = [[c.get(r, 0.0) for r in range(n_ranks)]
                for n, c in supersteps if n == f"runtime.rank_apply.{what}"]
        return np.array(rows).reshape(-1, n_ranks)

    t_full = median(per_rank("full").sum(axis=1))
    m["sem.full_apply_ms.p50"] = metric(1e3 * t_full, "ms")
    full_ops = sum(K.nnz for K in st.layout.K_local)
    stiff_ops = 0.0
    restricted = 0.0
    lts_apply = []
    for k in range(1, st.levels.n_levels + 1):
        a = per_rank(f"L{k}")
        ops = sum(p.subset_ops.get(k, 0) for p in proxies)
        stiff_ops += len(a) / n_cyc * ops
        restricted += _apply_layers(m, k, a.sum(axis=1).tolist(), n_cyc, ops, full_ops / t_full)
        total = a.sum(axis=0)
        m[f"runtime.level_apply_imbalance.L{k}"] = metric(
            total.max() / total.mean() if total.mean() > 0 else 0.0, "ratio")
        lts_apply.append(a)
    lts_apply = np.concatenate(lts_apply)
    m["sem.restricted_apply_share"] = metric(restricted / step_total, "ratio")
    m["core.stiffness_ops_per_cycle"] = metric(stiff_ops, "ops")
    m["core.op_efficiency"] = metric((st.p_max * full_ops / stiff_ops) / model, "ratio")
    m["runtime.exchange_ms_per_cycle"] = metric(1e3 * exchange / n_cyc, "ms")
    m["runtime.exchange_share"] = metric(exchange / step_total, "ratio")
    m["runtime.messages_per_cycle"] = metric(sent[0] / n_cyc, "count")
    m["runtime.doubles_per_cycle"] = metric(sent[1] / n_cyc, "count")
    m["runtime.rank_apply_ms.max"] = metric(1e3 * lts_apply.sum(axis=0).max() / n_cyc, "ms")
    m["runtime.stall_frac"] = metric(
        1.0 - lts_apply.mean(axis=1).sum() / lts_apply.max(axis=1).sum(), "ratio")
    model_imb = per_level_imbalance(st.levels, st.parts, n_ranks)
    for k in range(1, st.levels.n_levels + 1):
        m[f"partition.level_imbalance_model.L{k}"] = metric(model_imb[k - 1], "%")
    rows = ["", f"LTS supersteps traced: {len(lts_apply)} over {n_cyc} cycles; "
                f"exchange {1e3 * exchange / n_cyc:.2f} ms/cycle"]
    return m, rows


# ----------------------------------------------------------------------
# Entry
# ----------------------------------------------------------------------
#: Set-up spans -> per-layer metric names.
SETUP_STAGES = {
    "mesh.build": "mesh.build_s",
    "sem.assemble": "sem.assemble_s",
    "core.levels": "core.levels_s",
    "partition.partition": "partition.partition_s",
    "runtime.layout": "runtime.layout_s",
    "sem.operator_build": "sem.operator_build_s",
    "core.solver_build": "core.solver_build_s",
}


def traced_phase(st: Stepper, tracer: Tracer, budget: float, out: Outcome, seg: int,
                 probe: HostProbe, model: float) -> tuple[float, dict, list[str]]:
    """Half the budget on freshly built plain solvers, half on solvers
    built the same way over timing proxies: the per-layer metrics and
    the overhead of tracing (traced minus untraced ``lts_run_s``)."""
    sim = st.sim
    st.retarget(*st.solvers())
    plain = interleaved(st, budget, out, seg, probe)
    if st.distributed:
        lay = st.layout
        levels = sorted({int(x) for lv in lay.dof_level_local for x in np.unique(lv)})
        proxies = [
            TimedRankStiffness(K, r, tracer, levels=levels, dof_level=lay.dof_level_local[r])
            for r, K in enumerate(lay.K_local)
        ]
        world = TracingWorld(lay.n_ranks, tracer)
        st.retarget(*st.solvers(layout=replace(lay, K_local=proxies),
                                worlds=(world, TracingWorld(lay.n_ranks, tracer))))
        base: list[int] = []
        ph = interleaved(st, budget, out, seg, probe, tracer=tracer, after_warmup=lambda: base.extend(
            (world.sent_messages, world.sent_volume)))
        sent = (world.sent_messages - base[0], world.sent_volume - base[1])
        layers, rows = distributed_layers(st, tracer, sent, proxies, model)
    else:
        counter = OperationCounter()
        top = TimedOperator(st.op, tracer, sim.dof_level)
        st.retarget(*st.solvers(op=top, counter=counter))
        ph = interleaved(st, budget, out, seg, probe, tracer=tracer,
                         after_warmup=counter.reset)
        layers, rows = serial_layers(st, tracer, counter, top, model)
    overhead = lts_run_s(ph) - lts_run_s(plain)
    return overhead, layers, rows


def run(workload: str, rng: np.random.Generator, seconds: float, trace: bool,
        run_dir) -> dict:
    distributed = workload == "trench3d-elastic-4rank"
    cfg = trench_config(rng, elastic=distributed)
    out = Outcome()
    # Set-ups run before and after the timed phase, so their median
    # spans two host states rather than one; each is scaled by the
    # median of the probes timed just before it.
    n_setups = 2 if distributed else 3
    seg = 4 if distributed else 6
    probe = HostProbe("llc")
    setup_tracer = Tracer("setup") if trace else None
    setups: list[float] = []
    setups_ref: list[float] = []

    def set_up() -> Stepper:
        gc.collect()
        p = median(probe.sample() for _ in range(SETUP_PROBES))
        if setup_tracer is not None:
            setup_tracer.run = f"setup-{len(setups)}"
        built = Stepper(cfg, distributed, tracer=setup_tracer)
        setups.append(built.setup_s)
        setups_ref.append(built.setup_s * probe.ref_s / p)
        out.op(True)
        return built

    st = None
    for _ in range(n_setups):
        st = None  # drop the previous set-up before building the next
        st = set_up()
    model = theoretical_speedup(st.levels)
    budget = seconds / 3 if trace else seconds
    ph = interleaved(st, budget, out, seg, probe)
    # The probe's arrays are resident all along; they are not the program's.
    metrics = {"peak_rss_mb": metric(peak_rss_mb() - probe.nbytes / 2**20, "MB")}
    metrics.update(end_to_end(ph, model))
    info = {
        "config": cfg,
        "n_dof": st.n_dof,
        "level_counts": st.levels.counts().tolist(),
        "model_speedup": model,
        "kernel_tier": st.tier,
        "setup_s_each": setups,
        "segment_cycles": seg,
        "timed_pairs": ph["pairs"],
        "wall": raw_wall(ph),
        "probe_ms": [round(1e3 * x, 4) for x in ph["probe_s"]],
        "cycle_ms": [round(1e3 * x, 4) for x in ph["cycle_s"]],
        "computed_bytes": {
            "state_vector": st.n_dof * 8,
            "note": "computed, not measured; the state vectors fit in L2/L3",
        },
    }
    layers, rows, tracer = None, [], None
    if trace:
        tracer = Tracer(workload, origin=setup_tracer.origin)
        overhead, layers, rows = traced_phase(st, tracer, budget, out, seg, probe, model)
        layers["bench.trace_overhead_lts_run_s"] = metric(overhead, "s")
        layers["core.model_speedup"] = metric(model, "ratio")
    check(st, out)
    st = None
    for _ in range(n_setups):
        set_up()
    metrics["setup_s"] = metric(median(setups_ref), "s")
    info["wall"]["setup_s"] = median(setups)
    if setup_tracer is not None:
        for stage, name in SETUP_STAGES.items():
            d = setup_tracer.durations(stage)
            if d:
                layers[name] = metric(median(d), "s")
    return {
        "outcome": out,
        "metrics": metrics,
        "layers": layers,
        "info": info,
        "tracers": [t for t in (setup_tracer, tracer) if t is not None],
        "layer_rows": rows,
    }
