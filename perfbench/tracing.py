"""In-memory spans, recorded from the benchmark's side of each layer
boundary, and the timing proxies that put those boundaries around the
program's public surface without touching it.

* :class:`Tracer` keeps spans (name, start, end, parent, run id, rank)
  in memory and writes them out once, at the end, as Chrome trace-event
  JSON (open it in Perfetto) plus a per-layer self-time table.
* :class:`TimedOperator` is a duck-typed stiffness operator: the serial
  solvers take it in place of the real one (``as_operator`` passes any
  object with ``apply``/``restrict``/``reach`` through), so every full
  and level-restricted apply is a span.
* :class:`TimedRankStiffness` wraps one rank-local ``K_local[r]`` the
  same way (``masked_subset`` + ``apply``) for the distributed solver.
* :class:`TracingWorld` is a ``MailboxWorld`` whose ``RankComm``
  endpoints time ``Send`` and ``recv``.
"""

from __future__ import annotations

import json
import threading
import time
from collections import defaultdict
from pathlib import Path

import numpy as np

from repro.core.operator import Restriction
from repro.runtime.comm import MailboxWorld, RankComm

_now = time.perf_counter

# Span record fields (a list per span, cheap to append from hot loops).
NAME, START, END, PARENT, RUN, RANK, TID = range(7)


class Tracer:
    """Spans kept in memory; one parent stack per thread."""

    def __init__(self, run: str = "", origin: float | None = None):
        self.run = run
        self.spans: list[list] = []
        self._local = threading.local()
        self._lock = threading.Lock()
        self.origin = _now() if origin is None else origin

    def _stack(self) -> list[int]:
        st = getattr(self._local, "stack", None)
        if st is None:
            st = self._local.stack = []
        return st

    def begin(self, name: str, run: str | None = None, rank: int = -1) -> int:
        st = self._stack()
        rec = [name, 0.0, 0.0, st[-1] if st else -1,
               self.run if run is None else run, rank, threading.get_ident()]
        with self._lock:
            idx = len(self.spans)
            self.spans.append(rec)
        st.append(idx)
        rec[START] = _now()
        return idx

    def end(self, idx: int) -> float:
        t = _now()
        rec = self.spans[idx]
        rec[END] = t
        self._stack().pop()
        return t - rec[START]

    def span(self, name: str, run: str | None = None, rank: int = -1):
        return _Span(self, name, run, rank)

    # -- analysis ---------------------------------------------------------
    def durations(self, name: str) -> list[float]:
        return [s[END] - s[START] for s in self.spans if s[NAME] == name]

    def self_times(self) -> list[float]:
        """Per span: its duration minus the time its children cover."""
        own = [s[END] - s[START] for s in self.spans]
        for s in self.spans:
            if s[PARENT] >= 0:
                own[s[PARENT]] -= s[END] - s[START]
        return own

    def table(self) -> dict[str, dict]:
        """Per span name: calls, total and self seconds."""
        own = self.self_times()
        out: dict[str, dict] = defaultdict(lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        for s, o in zip(self.spans, own):
            row = out[s[NAME]]
            row["calls"] += 1
            row["total_s"] += s[END] - s[START]
            row["self_s"] += o
        return dict(out)


def write_chrome(path: Path, tracers: list[Tracer]) -> None:
    """Chrome trace-event JSON (complete ``X`` events, microseconds) of
    every span of ``tracers``, on the first tracer's clock origin."""
    origin = tracers[0].origin
    tids: dict[int, int] = {}
    events = []
    for tr in tracers:
        for s in tr.spans:
            tid = tids.setdefault(s[TID], len(tids))
            args = {"run": s[RUN]}
            if s[PARENT] >= 0:
                args["parent"] = tr.spans[s[PARENT]][NAME]
            if s[RANK] >= 0:
                args["rank"] = s[RANK]
            events.append({
                "name": s[NAME],
                "cat": s[NAME].split(".", 1)[0],
                "ph": "X",
                "ts": round((s[START] - origin) * 1e6, 3),
                "dur": round((s[END] - s[START]) * 1e6, 3),
                "pid": 1,
                "tid": tid,
                "args": args,
            })
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps({"traceEvents": events, "displayTimeUnit": "ms"}))


class _Span:
    __slots__ = ("tracer", "name", "run", "rank", "idx")

    def __init__(self, tracer, name, run, rank):
        self.tracer, self.name, self.run, self.rank = tracer, name, run, rank

    def __enter__(self):
        self.idx = self.tracer.begin(self.name, self.run, self.rank)
        return self

    def __exit__(self, *exc):
        self.tracer.end(self.idx)
        return False


def write_layer_table(path: Path, tracers: list[Tracer], extra_rows: list[str] = ()) -> None:
    """The per-layer self-time table (text), written to ``path``."""
    table: dict[str, dict] = {}
    for tr in tracers:
        for name, row in tr.table().items():
            acc = table.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            for key in acc:
                acc[key] += row[key]
    wall = sum(r["self_s"] for r in table.values()) or 1.0
    lines = [f"{'span':<34} {'calls':>8} {'total ms':>11} {'self ms':>11} {'self share':>10}"]
    for name, r in sorted(table.items(), key=lambda kv: -kv[1]["self_s"]):
        lines.append(
            f"{name:<34} {r['calls']:>8} {r['total_s'] * 1e3:>11.2f} "
            f"{r['self_s'] * 1e3:>11.2f} {r['self_s'] / wall:>10.3f}"
        )
    lines.extend(extra_rows)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text("\n".join(lines) + "\n")


# ----------------------------------------------------------------------
# Timing proxies
# ----------------------------------------------------------------------
class TimedOperator:
    """Forward the stiffness-operator protocol to ``op``, timing every
    full apply (``sem.full_apply``) and every level-restricted apply
    (``sem.restricted_apply.L<k>``, ``k`` read off ``dof_level``)."""

    def __init__(self, op, tracer: Tracer, dof_level: np.ndarray):
        self._op = op
        self._tracer = tracer
        self._dof_level = np.asarray(dof_level)
        #: Operations per restricted apply, by level (``Restriction.ops``).
        self.level_ops: dict[int, int] = {}

    @property
    def shape(self):
        return self._op.shape

    @property
    def nnz(self) -> int:
        return self._op.nnz

    def apply(self, u, out=None):
        tr = self._tracer
        idx = tr.begin("sem.full_apply")
        z = self._op.apply(u, out=out)
        tr.end(idx)
        return z

    def __matmul__(self, u):
        return self.apply(u)

    def reach(self, col_mask):
        return self._op.reach(col_mask)

    def restrict(self, cols) -> Restriction:
        inner = self._op.restrict(cols)
        levels = np.unique(self._dof_level[inner.cols])
        if len(levels) != 1:
            raise ValueError(f"restriction spans levels {levels.tolist()}")
        level = int(levels[0])
        self.level_ops[level] = int(inner.ops)
        name = f"sem.restricted_apply.L{level}"
        tr = self._tracer

        def _apply(u, out=None):
            idx = tr.begin(name)
            z = inner.apply(u, out=out)
            tr.end(idx)
            return z

        return Restriction(
            cols=inner.cols, ops=inner.ops, _apply=_apply,
            workspace_bytes=inner.workspace_bytes,
        )


class TimedRankStiffness:
    """One rank-local stiffness, timed per apply as
    ``runtime.rank_apply.<what>`` with the rank attached.

    ``masked_subset`` (the distributed solver's per-level restriction)
    returns a timed subset; the solver asks for one per level in
    ascending ``levels`` order, which names it."""

    def __init__(self, K, rank: int, tracer: Tracer, what: str = "full",
                 levels: list[int] | None = None, dof_level: np.ndarray | None = None):
        self._K = K
        self._rank = rank
        self._tracer = tracer
        self._name = f"runtime.rank_apply.{what}"
        self._levels = list(levels or [])
        self._dof_level = dof_level
        #: Operations per apply of each level subset built from this one.
        self.subset_ops: dict[int, int] = {}

    @property
    def shape(self):
        return self._K.shape

    @property
    def nnz(self) -> int:
        return self._K.nnz

    def apply(self, u, out=None):
        tr = self._tracer
        idx = tr.begin(self._name, rank=self._rank)
        z = self._K.apply(u, out=out)
        tr.end(idx)
        return z

    def __matmul__(self, u):
        return self.apply(u)

    def masked_subset(self, col_mask) -> "TimedRankStiffness":
        level = self._levels[len(self.subset_ops)]
        col_mask = np.asarray(col_mask, dtype=bool)
        if self._dof_level is not None and col_mask.any():
            if not np.all(self._dof_level[col_mask] == level):
                raise ValueError(f"rank {self._rank} subset is not level {level}")
        sub = self._K.masked_subset(col_mask)
        self.subset_ops[level] = int(sub.nnz)
        return TimedRankStiffness(sub, self._rank, self._tracer, f"L{level}")

    def row_support(self):
        return self._K.row_support()


class _TimedComm(RankComm):
    def __init__(self, world: "TracingWorld", rank: int):
        super().__init__(world, rank)
        self._tracer = world.tracer

    def Send(self, buf, dest, tag=0):
        idx = self._tracer.begin("runtime.send", rank=self.rank)
        super().Send(buf, dest, tag)
        self._tracer.end(idx)

    def recv(self, source, tag=0):
        idx = self._tracer.begin("runtime.recv", rank=self.rank)
        msg = super().recv(source, tag)
        self._tracer.end(idx)
        return msg


class TracingWorld(MailboxWorld):
    """A mailbox world whose endpoints time ``Send`` and ``recv``."""

    def __init__(self, n_ranks: int, tracer: Tracer):
        super().__init__(n_ranks)
        self.tracer = tracer

    def comm(self, rank: int) -> RankComm:
        return _TimedComm(self, rank)

    def comms(self) -> list[RankComm]:
        return [_TimedComm(self, r) for r in range(self.n_ranks)]
