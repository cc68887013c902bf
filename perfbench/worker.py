"""One workload in one fresh process (started by ``run.py``).

Writes the run's record — outcome, metrics, provenance — as JSON to
``--out``, and with ``--trace 1`` the Chrome trace (``trace.json``) and
the per-layer self-time table (``layers.txt``) next to it.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import numpy as np  # noqa: E402

from common import ROOT, provenance, tier_guard  # noqa: E402
from tracing import write_chrome, write_layer_table  # noqa: E402


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", required=True)
    args = ap.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    out_path = Path(args.out)
    run_dir = out_path.parent
    rng = np.random.default_rng(args.seed)
    if args.workload == "service-sweep-2d":
        import service_bench as bench
    else:
        import trench as bench
    res = bench.run(args.workload, rng, args.seconds, bool(args.trace), run_dir)

    outcome = res["outcome"]
    if args.trace:
        metrics = dict(res["layers"])
        names = [m["name"] for m in spec["per_layer"]]
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
        # A layer this workload never enters reads 0 (listed, not hidden).
        idle = [n for n in names if n not in metrics]
        for n in idle:
            metrics[n] = {"value": 0.0, "unit": units[n]}
        extra = sorted(set(metrics) - set(names))
        if extra:
            raise RuntimeError(f"per-layer metrics missing from BENCHMARK.json: {extra}")
        write_chrome(run_dir / "trace.json", res["tracers"])
        write_layer_table(run_dir / "layers.txt", res["tracers"], res["layer_rows"])
    else:
        metrics = res["metrics"]
        names = [m["name"] for m in spec["end_to_end"]]
        idle = []
        if sorted(metrics) != sorted(names):
            raise RuntimeError(f"end-to-end metrics {sorted(metrics)} != {sorted(names)}")
    for name, m in metrics.items():
        if not np.isfinite(m["value"]):
            outcome.op(False, f"metric {name} is not finite")
            m["value"] = 0.0
    tier = res["info"]["kernel_tier"]
    record = {
        "correct": outcome.correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {n: metrics[n] for n in names},
        "checks": outcome.checks,
        "errors": outcome.errors,
        "not_exercised": idle,
        "tier_guard": tier_guard(args.workload, tier),
        "provenance": provenance(tier),
        "info": res["info"],
    }
    out_path.write_text(json.dumps(record, indent=1, default=str))
    return 0


if __name__ == "__main__":
    sys.exit(main())
