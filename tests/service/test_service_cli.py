"""CLI service verbs: ``info``/``--version`` plus the full
``serve`` + ``submit``/``status``/``fetch``/``cancel`` round trip as a
user would type it."""

import json
import os
import re
import signal
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

REPO = Path(__file__).resolve().parents[2]
QUICKSTART = REPO / "examples" / "configs" / "quickstart.json"


def _env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO / "src") + os.pathsep + env.get("PYTHONPATH", "")
    return env


def _repro(*args, check=True, timeout=120):
    proc = subprocess.run(
        [sys.executable, "-m", "repro", *args],
        capture_output=True,
        text=True,
        timeout=timeout,
        env=_env(),
    )
    if check:
        assert proc.returncode == 0, proc.stdout + proc.stderr
    return proc


class TestInfo:
    def test_version_flag(self):
        proc = _repro("--version")
        assert re.fullmatch(r"repro \d+\.\d+\.\d+\S*\n", proc.stdout)

    def test_info_report(self):
        out = _repro("info").stdout
        assert "kernel tiers" in out
        assert "cores" in out
        assert "env overrides" in out

    def test_info_json(self):
        info = json.loads(_repro("info", "--json").stdout)
        for key in ("version", "python", "numpy", "fused_available",
                    "usable_cores", "env"):
            assert key in info

    def test_info_says_why_fused_is_off(self):
        env = {**_env(), "REPRO_FUSED": "0"}

        def run(*args):
            return subprocess.run(
                [sys.executable, "-m", "repro", "info", *args],
                capture_output=True, text=True, timeout=120, env=env, check=True,
            ).stdout

        assert "fused C off: disabled by REPRO_FUSED=0" in run()
        info = json.loads(run("--json"))
        assert info["fused_available"] is False
        assert info["fused_error"]["reason"] == "disabled by REPRO_FUSED=0"


class _Server:
    """``python -m repro serve`` as a child process, URL parsed from
    its startup line, SIGTERM + drain check on exit."""

    def __init__(self, tmp_path: Path, workers: int = 1):
        self.proc = subprocess.Popen(
            [
                sys.executable, "-m", "repro", "serve",
                "--data-dir", str(tmp_path / "data"),
                "--cache-dir", str(tmp_path / "cache"),
                "--port", "0", "--workers", str(workers),
            ],
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
            env=_env(),
        )
        self.lines = []
        deadline = time.monotonic() + 60
        while time.monotonic() < deadline:
            line = self.proc.stdout.readline()
            self.lines.append(line)
            m = re.search(r"listening on (http://\S+)", line)
            if m:
                self.url = m.group(1)
                return
            if self.proc.poll() is not None:
                break
        raise AssertionError(
            "server never announced its URL:\n" + "".join(self.lines)
        )

    def stop(self) -> str:
        self.proc.send_signal(signal.SIGTERM)
        out = self.proc.stdout.read()
        assert self.proc.wait(timeout=60) == 0, out
        return "".join(self.lines) + out


@pytest.fixture
def server(tmp_path):
    srv = _Server(tmp_path)
    yield srv
    if srv.proc.poll() is None:
        srv.proc.kill()
        srv.proc.wait()


class TestServeRoundTrip:
    def test_submit_status_fetch_cancel(self, server, tmp_path):
        url = ["--url", server.url]
        out = _repro("submit", str(QUICKSTART), *url).stdout
        job_id = re.search(r"submitted job (\w+)", out).group(1)

        status = _repro("status", job_id, *url, "--wait", "--timeout", "120")
        assert f"job {job_id}: done" in status.stdout

        fetched = tmp_path / "fetched.npz"
        _repro("fetch", job_id, *url, "--output", str(fetched))
        direct = tmp_path / "direct.npz"
        _repro("run", str(QUICKSTART), "--output", str(direct))
        with np.load(fetched) as a, np.load(direct) as b:
            peak = np.abs(b["traces"]).max()
            assert np.abs(a["traces"] - b["traces"]).max() / peak <= 1e-12

        listing = _repro("status", *url).stdout
        assert job_id in listing

        # Cancelling a terminal job is a clean conflict: exit 2.
        conflict = _repro("cancel", job_id, *url, check=False)
        assert conflict.returncode == 2
        assert "only queued" in conflict.stderr

        log = server.stop()
        assert "draining" in log
        assert "1 done" in log

    def test_failed_job_surfaces_as_exit_3(self, server, tmp_path):
        # Valid at submission, fails at run time: the region points at
        # an element id the mesh does not have, which only surfaces
        # once the worker builds the pipeline.
        url = ["--url", server.url]
        cfg = {
            "mesh": {"family": "uniform_grid", "params": {"shape": [4, 4]}},
            "material": {
                "model": "acoustic",
                "regions": [{"elements": [999999], "values": {"c": 4.0}}],
            },
            "time": {"n_cycles": 2},
        }
        path = tmp_path / "doomed.json"
        path.write_text(json.dumps(cfg))

        out = _repro("submit", str(path), *url).stdout
        job_id = re.search(r"submitted job (\w+)", out).group(1)

        waited = _repro("status", job_id, *url, "--wait", check=False)
        assert waited.returncode == 3
        assert "failed" in waited.stdout
        assert "outside" in waited.stdout  # the worker's error message

        fetch = _repro(
            "fetch", job_id, *url, "--output", str(tmp_path / "never"),
            "--wait", check=False,
        )
        assert fetch.returncode == 3
