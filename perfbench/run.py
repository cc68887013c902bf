"""The repository benchmark: one workload per invocation, from a checkout's root.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Workloads and metrics are declared in ``BENCHMARK.json``; what each
metric means, per workload, is in ``perfbench/README.md``.  The run

1. builds the program's native kernels once (the fused C tier, cached
   under ``.bench_work/``), outside any timing;
2. runs the workload in a fresh process (``perfbench/worker.py``), so
   peak memory and caches belong to that workload alone;
3. prints each metric with its unit, the correctness checks, the
   provenance and the kernel-tier guard, and as the last line one JSON
   object: ``{"correct", "attempted", "failed", "metrics"}``.

Everything a run writes stays under ``.bench_work/`` in the checkout.
Exits 2 without a result when the program's sources are missing.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
from pathlib import Path

ROOT = Path.cwd()
HERE = Path(__file__).resolve().parent
WORK = ROOT / ".bench_work"
WORKER_TIMEOUT_S = 170


def fail(msg: str) -> int:
    print(f"perfbench: {msg}", file=sys.stderr)
    return 2


def environment() -> dict:
    """The program's environment: sources on the path, every cache and
    temporary file inside the checkout, no tier or thread overrides."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["XDG_CACHE_HOME"] = str(WORK / "xdg")
    env["TMPDIR"] = str(WORK / "tmp")
    env["OMP_NUM_THREADS"] = "1"  # every workload is specified single-threaded
    return env


def run_child(cmd: list[str], env: dict, timeout: float) -> int:
    """Run ``cmd`` in its own session; on timeout kill the whole group."""
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, start_new_session=True)
    try:
        return proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        return -1
    finally:
        try:  # stragglers of the session (none on a clean exit)
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    spec_path = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        return fail(f"no program sources under {ROOT / 'src'}; run from a checkout's root")
    if not spec_path.is_file():
        return fail("BENCHMARK.json not found in the working directory")
    spec = json.loads(spec_path.read_text())
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        return fail(f"unknown workload {args.workload!r}")
    if args.seconds <= 0:
        return fail("--seconds must be positive")

    for d in ("xdg", "tmp"):
        (WORK / d).mkdir(parents=True, exist_ok=True)
    run_dir = WORK / "runs" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    env = environment()

    # Build step: compile (or find cached) the fused kernels.  A missing
    # compiler is not an error here; the tier guard reports it.
    build = [sys.executable, "-c",
             "from repro.util.sysinfo import runtime_info; runtime_info()"]
    if run_child(build, env, 600) != 0:
        return fail("importing the program failed")

    out = run_dir / "result.json"
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--out", str(out)]
    code = run_child(cmd, env, WORKER_TIMEOUT_S)
    if code != 0 or not out.is_file():
        return fail(f"workload {args.workload} failed (exit {code})")
    rec = json.loads(out.read_text())

    print(f"workload {args.workload}  seed {args.seed}  {args.seconds:g}s  trace {args.trace}")
    prov = rec["provenance"]
    print(f"provenance: {prov['cpu_model']}, {prov['usable_cores']} usable cores, "
          f"caches {prov['caches']}, numpy {prov['numpy']}, scipy {prov['scipy']}, "
          f"commit {prov['git_commit']}")
    guard = rec["tier_guard"]
    verdict = "comparable" if guard["comparable"] else "INCOMPARABLE (not a speed change)"
    print(f"kernel tier: {prov['kernel_tier']} (baseline {guard['baseline_tier']}): {verdict}")
    for name, c in rec["checks"].items():
        print(f"check {name}: {c['value']:.3g} <= {c['limit']:g}  {'ok' if c['ok'] else 'FAIL'}")
    for err in rec["errors"]:
        print(f"error: {err}")
    for name, m in rec["metrics"].items():
        idle = "  (not exercised by this workload)" if name in rec["not_exercised"] else ""
        print(f"{name} = {m['value']:.6g} {m['unit']}{idle}")
    if args.trace:
        print(f"trace: {run_dir / 'trace.json'}  layers: {run_dir / 'layers.txt'}")
    print(f"operations: {rec['attempted']} attempted, {rec['failed']} failed")
    print(json.dumps({k: rec[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
