"""LTS wall efficiency end to end, with a per-level time breakdown.

The paper's claim (Sec. II-C) is that the optimized LTS scheme turns the
Eq. (9) model speedup into wall-clock time.  Operation counts already
match the model (``eq9.json``); this bench measures the wall clock:

* **wall efficiency** — best-of-rounds Newmark time over LTS time for
  the same simulated span (one LTS cycle against ``p_max`` Newmark
  steps at ``dt_min``), divided by the Eq. (9) model speedup;
* **per-level breakdown** — one instrumented pass that times every
  restricted apply on the solver's *own* restrictions (level 1 on the
  caller's operator, finer levels on the solver-order
  ``op.permuted(perm)``), and the vector updates of each recursion
  depth as its self time (depth inclusive time minus its applies and
  its child).  perfbench's traced run cannot show this split: its timing
  proxy has no ``permuted``, so the solver takes the identity order;
* **correctness** — the optimized run against ``mode="reference"``
  (<= 1e-12 relative) on every config.

Configs: the serial 3D acoustic trench (20x16x8 elements, order 4,
173,745 DOFs) on the fused and NumPy kernel tiers, and the 1D quickstart
(``examples/configs/quickstart.json``) on the assembled and matrix-free
NumPy tiers (1D has no fused tier).  The gate: LTS faster than Newmark
on the fused 3D trench.  Full runs write
``benchmarks/results/lts_wall.json`` with CPU provenance; ``--quick``
shrinks the trench for a CI smoke run (correctness at full strictness,
timings reported, no gate, nothing written).

Usage::

    PYTHONPATH=src python benchmarks/bench_lts_wall.py [--quick]
"""

from __future__ import annotations

import argparse
import copy
import json
import sys
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent))

from common import cpu_info, save_results  # noqa: E402

from repro.api import Simulation  # noqa: E402
from repro.core import LTSNewmarkSolver, NewmarkSolver, theoretical_speedup  # noqa: E402
from repro.core.operator import Restriction  # noqa: E402
from repro.sem import fused  # noqa: E402
from repro.util import Table  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]

TRENCH = {
    "name": "trench3d",
    "mesh": {"family": "trench", "params": {"nx": 20, "ny": 16, "nz": 8}},
    "material": {"model": "acoustic"},
    "order": 4,
    "time": {"n_cycles": 120, "c_cfl": 0.4, "scheme": "lts"},
    "source": {"position": [5.0, 8.0, 1.5], "f0": 0.5},
    "receivers": {"positions": [[12.0 + 2.0 * i, 8.0, 0.5] for i in range(4)]},
    "partition": {"n_ranks": 1},
}
QUICK_TRENCH = {
    **TRENCH,
    "mesh": {"family": "trench", "params": {"nx": 10, "ny": 8, "nz": 4}},
    "order": 3,
    "source": {"position": [2.0, 4.0, 1.0], "f0": 0.5},
    "receivers": {"positions": [[6.0, 4.0, 0.5]]},
}


def _quickstart() -> dict:
    return json.loads((ROOT / "examples/configs/quickstart.json").read_text())


def _configs(quick: bool) -> list[tuple[dict, str, int]]:
    """``(config, tier, rounds)``; ``tier`` is ``fused``/``numpy``
    (matrix-free) or ``assembled``."""
    trench = QUICK_TRENCH if quick else TRENCH
    return [
        (trench, "fused", 3 if quick else 8),
        (trench, "numpy", 2 if quick else 3),
        (_quickstart(), "assembled", 3 if quick else 8),
        (_quickstart(), "numpy", 3 if quick else 8),
    ]


def _simulation(cfg: dict, tier: str) -> Simulation:
    cfg = copy.deepcopy(cfg)
    if tier == "assembled":
        cfg["backend"] = {"stiffness": "assembled"}
    else:
        cfg["backend"] = {"stiffness": "matfree", "fused": tier == "fused"}
    return Simulation(cfg)


def _per_call(step, state, n: int) -> float:
    """Mean seconds of ``n`` back-to-back calls of ``step(*state)``."""
    t0 = time.perf_counter()
    for _ in range(n):
        step(*state)
    return (time.perf_counter() - t0) / n


def _breakdown(lts: LTSNewmarkSolver, u, v, n_cycles: int) -> dict:
    """Per-level restricted-apply and vector-update seconds per cycle,
    from one instrumented pass over ``n_cycles`` cycles."""
    apply_s: dict[int, float] = {}
    calls: dict[int, int] = {}
    incl: dict[int, float] = {}
    saved = dict(lts._restr)
    for k, r in saved.items():
        def _timed(x, out=None, _r=r, _k=k):
            t0 = time.perf_counter()
            z = _r.apply(x, out=out)
            apply_s[_k] = apply_s.get(_k, 0.0) + time.perf_counter() - t0
            calls[_k] = calls.get(_k, 0) + 1
            return z

        lts._restr[k] = Restriction(cols=r.cols, ops=r.ops, _apply=_timed, rows=r.rows)
    advance = lts._advance_pooled

    def _timed_advance(i, *args):
        t0 = time.perf_counter()
        out = advance(i, *args)
        incl[i] = incl.get(i, 0.0) + time.perf_counter() - t0
        return out

    lts._advance_pooled = _timed_advance
    try:
        t0 = time.perf_counter()
        for _ in range(n_cycles):
            lts.step(u, v)
        total = time.perf_counter() - t0
    finally:
        lts._restr.update(saved)
        del lts._advance_pooled
    levels = lts.active_levels
    rows = []
    for i, k in enumerate(levels):
        inner = total if i == 0 else incl.get(i, 0.0)
        child = incl.get(i + 1, 0.0)
        rows.append({
            "level": int(k),
            "apply_calls_per_cycle": calls.get(k, 0) / n_cycles,
            "apply_ms_per_cycle": 1e3 * apply_s.get(k, 0.0) / n_cycles,
            "vector_ms_per_cycle": 1e3 * (inner - child - apply_s.get(k, 0.0)) / n_cycles,
            "active_rows": int(lts._P[i]),
            "apply_rows": len(range(lts.n_dof)[lts._restr[k].rows]),
        })
    return {"cycle_ms_instrumented": 1e3 * total / n_cycles, "levels": rows}


def _correctness(sim: Simulation, op, n_cycles: int = 4) -> float:
    n = op.shape[0]
    out = []
    for mode in ("optimized", "reference"):
        s = LTSNewmarkSolver(op, sim.dof_level, sim.dt, mode=mode, force=sim.force)
        u, v = np.zeros(n), np.zeros(n)
        for _ in range(n_cycles):
            s.step(u, v)
        out.append(np.concatenate([u, v]))
    return float(np.abs(out[0] - out[1]).max() / np.abs(out[1]).max())


def measure(cfg: dict, tier: str, rounds: int) -> dict:
    sim = _simulation(cfg, tier)
    op = sim.operator()
    n = int(sim.assembler.n_dof)
    p_max = int(sim.levels.p_max)
    model = float(theoretical_speedup(sim.levels))
    t0 = time.perf_counter()
    lts = LTSNewmarkSolver(op, sim.dof_level, sim.dt, force=sim.force)
    build_s = time.perf_counter() - t0
    nm = NewmarkSolver(op, sim.levels.dt_min, force=sim.force)
    state_l = (np.zeros(n), np.zeros(n))
    state_n = (np.zeros(n), np.zeros(n))
    for _ in range(2):  # warm-up: first touch of every pooled buffer
        lts.step(*state_l)
        nm.step(*state_n)
    # Cycles per round: at least ~0.2 s of LTS stepping.
    t1 = time.perf_counter()
    lts.step(*state_l)
    per = max(time.perf_counter() - t1, 1e-6)
    n_cyc = int(np.clip(0.2 / per, 2, 24))
    lts_s = nm_s = np.inf
    for _ in range(rounds):  # interleaved: drift hits both sides
        lts_s = min(lts_s, _per_call(lts.step, state_l, n_cyc))
        nm_s = min(nm_s, p_max * _per_call(nm.step, state_n, n_cyc * p_max))
    breakdown = _breakdown(lts, *state_l, n_cyc)
    rel = _correctness(sim, op)
    assert rel <= 1e-12, f"{cfg['name']}/{tier}: optimized vs reference {rel:.2e}"
    tier_label = sim.kernel_tier()
    return {
        "config": cfg["name"],
        "tier": tier_label,
        "n_dof": n,
        "level_counts": sim.levels.counts().tolist(),
        "p_max": p_max,
        "model_speedup": model,
        "solver_build_ms": 1e3 * build_s,
        "lts_cycle_ms": 1e3 * lts_s,
        "newmark_cycle_ms": 1e3 * nm_s,
        "wall_speedup": nm_s / lts_s,
        "wall_efficiency": nm_s / lts_s / model,
        "cycles_per_round": n_cyc,
        "rounds": rounds,
        "max_rel_vs_reference": rel,
        "breakdown": breakdown,
    }


def run(quick: bool = False) -> dict:
    rows = []
    t = Table(
        ["config", "tier", "n_dof", "LTS ms/cyc", "NM ms/cyc", "wall x", "model x",
         "efficiency"],
        title="LTS vs Newmark wall clock (one cycle of simulated time, best of rounds)",
    )
    for cfg, tier, rounds in _configs(quick):
        if tier == "fused" and not fused.available():
            print(f"fused tier unavailable ({fused.load_error()}): skipping {cfg['name']}/fused")
            continue
        row = measure(cfg, tier, rounds)
        rows.append(row)
        t.add_row([row["config"], row["tier"], row["n_dof"], f"{row['lts_cycle_ms']:.2f}",
                   f"{row['newmark_cycle_ms']:.2f}", f"{row['wall_speedup']:.2f}",
                   f"{row['model_speedup']:.2f}", f"{row['wall_efficiency']:.3f}"])
    print(t.render())
    for row in rows:
        b = Table(["level", "calls/cyc", "apply rows", "active rows", "apply ms", "vector ms"],
                  title=f"{row['config']}/{row['tier']}: per-level time per cycle "
                        f"(instrumented {row['breakdown']['cycle_ms_instrumented']:.2f} ms)")
        for lv in row["breakdown"]["levels"]:
            b.add_row([lv["level"], f"{lv['apply_calls_per_cycle']:.0f}", lv["apply_rows"],
                       lv["active_rows"], f"{lv['apply_ms_per_cycle']:.2f}",
                       f"{lv['vector_ms_per_cycle']:.2f}"])
        print(b.render())
    payload = {"quick": bool(quick), "gate": "LTS faster than Newmark on the fused 3D trench",
               "rows": rows, **cpu_info()}
    print("BENCH " + json.dumps({"name": "lts_wall", "quick": quick, "efficiency": {
        f"{r['config']}/{r['tier']}": round(r["wall_efficiency"], 3) for r in rows}}))
    if not quick:
        for row in rows:
            if row["config"] == "trench3d" and row["tier"].startswith("fused"):
                assert row["wall_speedup"] > 1.0, row
        save_results("lts_wall", payload)
    return payload


if __name__ == "__main__":
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--quick", action="store_true", help="seconds-long smoke run")
    run(quick=ap.parse_args().quick)
