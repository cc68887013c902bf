"""Multi-level LTS-Newmark (paper Sec. II, Algorithm 1, generalized).

One *LTS cycle* advances the whole system by the coarse step ``dt``.
Level 1 (coarsest) freezes its stiffness contribution ``w = A P_1 u^n``
over the cycle; the remaining levels advance an auxiliary system

    du~/dtau = v~,   dv~/dtau = -A P_1 u^n - A P_2 u~ - ... ,

recursively: each level ``k`` freezes ``z_k = A P_k u~`` over its own step
``dt / 2**(k-1)`` while the finer levels substep inside it, and
reconstructs its staggered velocity from the substepped displacement
(``v <- v + 2 (u_fine - u) / dt_k``, Eq. (14)).  With a single level the
scheme *is* explicit Newmark (tested to machine precision).

Two implementations share one recursion:

* ``mode="reference"`` — literal full-vector transcription of Algorithm 1.
  Every substep performs a full-size stiffness product and full-length
  vector updates.  Simple, obviously correct, slow.
* ``mode="optimized"`` — the high-performance variant the paper's Sec. II-C
  describes as requiring "great care".  Per level ``k`` it precomputes the
  restricted product ``A[:, dofs(level k)] u[dofs(level k)]`` so a substep
  costs only the work of the active columns, restricts vector updates to
  the *active set* (DOFs of levels >= k plus their stiffness halo -- the
  paper's gray nodes), skips empty levels by doubling the substep ratio,
  and handles the frozen complement in closed form: under constant force
  a leap-frog chain is exactly quadratic, ``u(T) = u(0) - T^2/2 * F``, so
  inactive DOFs need one axpy per cycle.  The two modes agree to machine
  precision (tested), which is the paper's implicit claim that the
  optimized implementation computes *the same scheme* with the minimal
  op set.

Solver order.  The pooled optimized path (the default) steps below the
top level in its own DOF order, built once: a stable sort of the DOFs by
descending active-set nesting depth.  There every depth's active set is
a prefix ``[0, P_i)``, every closed-form complement a range
``[P_{i+1}, P_i)`` and the inactive set the suffix, so each active-set
update is an in-place ufunc on a slice view, and the finer levels apply
the restrictions of ``op.permuted(perm)``, whose kernels touch only the
rows of their own hull.  The boundary map is one gather of ``u`` and the
frozen level-1 force onto the depth-1 prefix per cycle, and one
velocity write-back there; level 1 itself is applied by the caller's
operator and the state never leaves caller order, so checkpoints,
bitwise resume and every caller are unaffected.  An operator without
``permuted`` (e.g. a timing proxy) runs the same core in the identity
order with each active set widened to its prefix hull — a superset, so
the same scheme to rounding.

The solver is backend- and dimension-agnostic: ``A`` may be a scipy
sparse matrix (the assembled path), or any
:class:`repro.core.operator.StiffnessOperator` — in particular the
matrix-free sum-factorization operator of :mod:`repro.sem.matfree` from
any :class:`repro.sem.tensor.SemND` assembler (2D quads, 3D hexahedra),
whose per-level restriction applies the stiffness only on the active
level's elements plus their gray halo, exactly as the paper's SPECFEM
implementation does.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from repro.core.health import HealthGuard
from repro.core.levels import LevelAssignment
from repro.core.newmark import _checked_run
from repro.core.operator import AssembledOperator, as_operator
from repro.core.workspace import resolve_pooled, workspace_bytes
from repro.util.errors import SolverError
from repro.util.validation import check_positive, require


# ----------------------------------------------------------------------
# DOF-level assignment
# ----------------------------------------------------------------------
def dof_levels_from_elements(
    element_dofs: np.ndarray, element_levels: np.ndarray, n_dof: int
) -> np.ndarray:
    """Per-DOF level: the finest (largest) level of any touching element.

    This realizes the paper's selection matrices ``P_k``: a node shared by
    a fine and a coarse element belongs to the fine set (it must be
    updated at the fine rate), making the coarse-side copies the "gray
    halo" nodes of Fig. 2.
    """
    element_dofs = np.asarray(element_dofs)
    element_levels = np.asarray(element_levels)
    require(
        element_dofs.ndim == 2 and len(element_levels) == element_dofs.shape[0],
        "element_dofs must be (n_elem, dofs_per_elem) matching element_levels",
        SolverError,
    )
    dof_level = np.zeros(n_dof, dtype=np.int64)
    per_dof = np.repeat(element_levels, element_dofs.shape[1])
    np.maximum.at(dof_level, element_dofs.ravel(), per_dof)
    require(bool(np.all(dof_level >= 1)), "some DOFs belong to no element", SolverError)
    return dof_level


# ----------------------------------------------------------------------
# Operation accounting
# ----------------------------------------------------------------------
@dataclass
class OperationCounter:
    """Counts the arithmetic a careful native implementation would perform.

    ``stiffness_ops`` counts the work of stiffness applications in the
    operator backend's unit — touched nonzeros (= multiply-adds) for
    assembled sparse products, tensor-contraction flops for the
    matrix-free backend (see :mod:`repro.core.operator`); both scale
    identically between a full apply (``A.nnz``) and the per-level
    restricted applies, so Eq. (9) speedup ratios are backend-consistent.
    ``vector_ops`` counts elements touched by axpy-style updates.  The
    serial-efficiency benchmark (paper Eq. (9), Sec. II-C) compares LTS
    cycles against non-LTS steps in these units.
    """

    stiffness_ops: int = 0
    vector_ops: int = 0
    applications_per_level: dict[int, int] = field(default_factory=dict)

    def count_stiffness(self, level: int, nnz: int) -> None:
        self.stiffness_ops += int(nnz)
        self.applications_per_level[level] = self.applications_per_level.get(level, 0) + 1

    def count_vector(self, n: int) -> None:
        self.vector_ops += int(n)

    @property
    def total_ops(self) -> int:
        return self.stiffness_ops + self.vector_ops

    def reset(self) -> None:
        self.stiffness_ops = 0
        self.vector_ops = 0
        self.applications_per_level.clear()

    def snapshot(self) -> "OperationCounter":
        """Detached copy of the current counts (safe to keep across
        :meth:`reset` — used for per-repetition benchmark reporting)."""
        return OperationCounter(
            stiffness_ops=self.stiffness_ops,
            vector_ops=self.vector_ops,
            applications_per_level=dict(self.applications_per_level),
        )


def newmark_cycle_ops(A, n_substeps: int) -> int:
    """Op count for ``n_substeps`` plain Newmark steps (the non-LTS cost).

    ``A`` is any sparse matrix or :class:`~repro.core.operator
    .StiffnessOperator` (``nnz`` = ops per full apply either way).
    """
    n = A.shape[0]
    return n_substeps * (A.nnz + 2 * n)


# ----------------------------------------------------------------------
# The solver
# ----------------------------------------------------------------------
class LTSNewmarkSolver:
    """Multi-level LTS-Newmark integrator for ``u'' = -A u + f(t)``.

    Parameters
    ----------
    A:
        Stiffness operator ``M^{-1} K``: a scipy sparse matrix / dense
        array (wrapped into an assembled-CSR backend), or any
        :class:`repro.core.operator.StiffnessOperator` such as the
        matrix-free backend from :meth:`repro.sem.tensor.SemND.operator`
        (2D quads and 3D hexahedra alike).
    dof_level:
        ``(n,)`` int array of per-DOF levels, 1 = coarsest (from
        :func:`dof_levels_from_elements`).
    dt:
        Coarse (cycle) step, i.e. :attr:`LevelAssignment.dt`.
    mode:
        ``"optimized"`` (default) or ``"reference"`` (see module docs).
    force:
        Optional mass-scaled force ``f(t)``; frozen over each cycle at
        ``t_n`` and treated as a level-1 (coarse) contribution, which is
        second-order consistent for sources supported on coarse DOFs.
    counter:
        Optional :class:`OperationCounter` to fill while stepping.
    pooled:
        Workspace pooling for the optimized mode's stepping loop
        (default on; ``REPRO_POOLED=0`` or ``pooled=False`` pins the
        seed temporary-per-update path for A/B measurement).  The
        pooled path runs in solver order (see module docs) through
        per-depth scratch vectors allocated once here; it matches the
        seed to rounding (the active rows bitwise).  Reference mode is
        never pooled — it is the deliberately literal transcription.
    """

    def __init__(
        self,
        A,
        dof_level: np.ndarray,
        dt: float,
        mode: str = "optimized",
        force: Callable[[float], np.ndarray] | None = None,
        counter: OperationCounter | None = None,
        pooled: bool | None = None,
    ):
        require(mode in ("optimized", "reference"), f"unknown mode {mode!r}", SolverError)
        self.mode = mode
        self.dt = check_positive(dt, "dt", SolverError)
        self.force = force
        self.counter = counter
        self.t = 0.0
        self.n_cycles_taken = 0

        self.op = as_operator(A)
        n = self.op.shape[0]
        require(self.op.shape == (n, n), "A must be square", SolverError)
        #: Legacy attribute: the assembled CSR matrix when the backend is
        #: assembled, else the operator itself (both expose shape/nnz/@).
        self.A = self.op.A if isinstance(self.op, AssembledOperator) else self.op
        self.n_dof = n
        self.dof_level = np.asarray(dof_level, dtype=np.int64)
        require(self.dof_level.shape == (n,), "dof_level must be (n,)", SolverError)
        require(bool(np.all(self.dof_level >= 1)), "levels must be >= 1", SolverError)

        self.n_levels = int(self.dof_level.max())
        counts = np.bincount(self.dof_level, minlength=self.n_levels + 1)
        #: Non-empty levels, ascending (level 1 is always present: the
        #: coarsest existing level defines the cycle step).
        self.active_levels: list[int] = [
            k for k in range(1, self.n_levels + 1) if counts[k] > 0
        ]
        require(
            self.active_levels[0] >= 1 and self.active_levels[-1] == self.n_levels,
            "corrupt level histogram",
            SolverError,
        )

        self._restr: dict[int, object] = {}
        self.pooled = resolve_pooled(pooled) and self.mode == "optimized"
        # Per-level column sets in caller order (the pooled path needs
        # only level 1's).  Reference mode needs nothing else: it masks
        # and applies the full operator.
        self._cols: dict[int, np.ndarray] = {
            k: np.flatnonzero(self.dof_level == k)
            for k in self.active_levels[: 1 if self.pooled else None]
        }
        if self.mode == "reference":
            return
        # Active sets per recursion depth i (levels >= active_levels[i]):
        # rows reachable from the columns of those levels, plus the
        # columns themselves — nested, depth 1 outermost.  op.reach() is
        # one vectorized structural query per depth.
        act_masks = []
        for lv in self.active_levels[1:]:
            col_mask = self.dof_level >= lv
            act_masks.append(self.op.reach(col_mask) | col_mask)
        if self.pooled:
            self._build_solver_order(act_masks)
            return

        # Seed path (pooled=False): caller-order index arrays.
        for k in self.active_levels:
            self._restr[k] = self.op.restrict(self._cols[k])
        self._act = [np.flatnonzero(m) for m in act_masks]
        self._act_mask = act_masks
        # diff[i] = act[i] \ act[i+1]: DOFs the closed-form fix handles when
        # returning from depth i+1 to depth i.
        self._diff = [
            np.flatnonzero(act_masks[i] & ~act_masks[i + 1])
            for i in range(len(act_masks) - 1)
        ]

    def _build_solver_order(self, act_masks: list[np.ndarray]) -> None:
        """Solver DOF order and pooled scratch for the optimized path.

        The order is a stable sort of the DOFs by descending nesting
        depth (how many active sets hold the DOF — a small integer, so
        NumPy's stable sort is a linear-time radix sort).  In it the
        depth-``i`` active set is the prefix ``[0, P[i])``, the
        closed-form complement returning from depth ``i + 1`` is the
        range ``[P[i+1], P[i])`` and the inactive DOFs are the suffix.
        An operator without ``permuted`` (a timing proxy, say) keeps the
        identity order, with each active set widened to its prefix hull
        ``[0, max + 1)``: a superset, which is exact to rounding because
        a DOF with no finer-level coupling sees a constant force, under
        which leap-frog reproduces the closed form.
        """
        n = self.n_dof
        n_depths = len(self.active_levels)
        self._perm = None  # identity
        pop = self.op
        if n_depths > 1 and hasattr(self.op, "permuted"):
            depth = np.zeros(n, dtype=np.uint8)
            for m in act_masks:
                depth += m
            self._perm = np.argsort(n_depths - 1 - depth, kind="stable")
            self._P = [n] + [int(m.sum()) for m in act_masks]
            pop = self.op.permuted(self._perm)
        else:
            self._P = [n] + [int(np.flatnonzero(m)[-1]) + 1 for m in act_masks]
        # The operator the recursion below the top level applies (the
        # caller's, permuted into solver order when possible).
        self._pop = pop
        # Level 1 is applied with the caller op; finer levels in solver
        # order.  Each level writes its own zero-initialized buffer and
        # is its only writer, so rows outside its hull stay exactly zero.
        k1 = self.active_levels[0]
        self._restr[k1] = self.op.restrict(self._cols[k1])
        self._zl = {k1: np.zeros(n)}
        lv_sorted = (
            self.dof_level
            if self._perm is None
            else self.dof_level.take(self._perm, mode="clip")
        )
        for k in self.active_levels[1:]:
            self._restr[k] = pop.restrict(np.flatnonzero(lv_sorted == k))
            self._zl[k] = np.zeros(n)
        self._G = np.empty(n)  # full-length streaming scratch
        # Per recursion depth: the displacement buffer (full length: it is
        # what the restriction reads; only its prefix is ever refreshed,
        # zero-filled so untouched rows stay finite), the auxiliary
        # velocity, one scratch vector and the child's frozen force.
        self._ub: dict[int, np.ndarray] = {}
        self._vact: dict[int, np.ndarray] = {}
        self._r: dict[int, np.ndarray] = {}
        self._F2: dict[int, np.ndarray] = {}
        for i in range(1, n_depths):
            na = self._P[i]
            self._ub[i] = np.zeros(n)
            self._vact[i] = np.empty(na)
            self._r[i] = np.empty(na)
            if i < n_depths - 1:
                self._F2[i] = np.empty(na)
        if n_depths > 1:  # top-level gathers onto the depth-1 prefix
            na = self._P[1]
            self._top = np.arange(na) if self._perm is None else self._perm[:na]
            self._u0 = np.empty(na)
            self._Fs = np.empty(na)

    def workspace_bytes(self) -> int:
        """Bytes of pooled stepping scratch (solver, operators, and
        level restrictions)."""
        total = workspace_bytes(self.op)
        total += sum(int(r.workspace_bytes) for r in self._restr.values())
        if self.pooled:
            if self._pop is not self.op:
                total += workspace_bytes(self._pop)
            pools = [self._G, *self._zl.values()]
            for d in (self._ub, self._vact, self._r, self._F2):
                pools.extend(d.values())
            if len(self.active_levels) > 1:
                pools.extend([self._top, self._u0, self._Fs])
            total += sum(b.nbytes for b in pools)
        return total

    # ------------------------------------------------------------------
    def _apply_level(self, k: int, u: np.ndarray) -> np.ndarray:
        """``A P_k u`` — full-length result.

        Optimized mode multiplies only the level-``k`` column block;
        reference mode masks and runs the full product, as a direct
        transcription would.
        """
        if self.mode == "optimized":
            restr = self._restr[k]
            z = restr.apply(u)
            if self.counter is not None:
                self.counter.count_stiffness(k, restr.ops)
            return z
        masked = np.zeros_like(u)
        cols = self._cols[k]
        masked[cols] = u[cols]
        if self.counter is not None:
            self.counter.count_stiffness(k, self.op.nnz)
        return self.op.apply(masked)

    def _count_vec(self, n: int) -> None:
        if self.counter is not None:
            self.counter.count_vector(n)

    def _apply_level_into(self, k: int, u: np.ndarray, out: np.ndarray) -> np.ndarray:
        """Pooled ``A P_k u``: the restricted apply written into ``out``."""
        restr = self._restr[k]
        z = restr.apply(u, out=out)
        if self.counter is not None:
            self.counter.count_stiffness(k, restr.ops)
        return z

    # ------------------------------------------------------------------
    def _advance(self, i: int, u0: np.ndarray, F: np.ndarray, n_steps: int) -> np.ndarray:
        """Advance the auxiliary system of levels ``active_levels[i:]``.

        Starts from ``u0`` with zero auxiliary velocity, takes ``n_steps``
        steps of size ``dt / 2**(active_levels[i]-1)`` under the frozen
        coarser forcing ``F``.  Returns the advanced displacement; in
        optimized mode only entries in ``self._act[i-1]`` are meaningful
        (the caller applies the quadratic closed form elsewhere).
        """
        lv = self.active_levels[i]
        dt_k = self.dt / float(2 ** (lv - 1))
        u = u0.copy()
        last = i == len(self.active_levels) - 1

        if self.mode == "optimized":
            act = self._act[i - 1]
            if last:
                v = np.zeros(len(act))
                for s in range(n_steps):
                    z = self._apply_level(lv, u)
                    rhs = F[act] + z[act]
                    if s == 0:
                        v = -(0.5 * dt_k) * rhs
                    else:
                        v -= dt_k * rhs
                    u[act] += dt_k * v
                    self._count_vec(4 * len(act))
                return u
            ratio = 2 ** (self.active_levels[i + 1] - lv)
            diff = self._diff[i - 1]
            child_act = self._act[i]
            v = np.zeros(len(act))
            for m in range(n_steps):
                z = self._apply_level(lv, u)
                F2 = F + z  # full-length buffer; only act entries are read
                u_fine = self._advance(i + 1, u, F2, ratio)
                # Closed-form complement: constant-force leap-frog is
                # exactly quadratic over the child's whole span dt_k.
                u_fine[diff] = u[diff] - (0.5 * dt_k * dt_k) * F2[diff]
                recon = (u_fine[act] - u[act]) / dt_k
                if m == 0:
                    v = recon
                else:
                    v += 2.0 * recon
                u[act] += dt_k * v
                self._count_vec(6 * len(act) + 2 * len(diff))
            return u

        # ---------------- reference mode: full vectors -----------------
        n = self.n_dof
        if last:
            v = np.zeros(n)
            for s in range(n_steps):
                rhs = F + self._apply_level(lv, u)
                if s == 0:
                    v = -(0.5 * dt_k) * rhs
                else:
                    v -= dt_k * rhs
                u += dt_k * v
                self._count_vec(5 * n)
            return u
        ratio = 2 ** (self.active_levels[i + 1] - lv)
        v = np.zeros(n)
        for m in range(n_steps):
            z = self._apply_level(lv, u)
            u_fine = self._advance(i + 1, u, F + z, ratio)
            recon = (u_fine - u) / dt_k
            if m == 0:
                v = recon
            else:
                v += 2.0 * recon
            u += dt_k * v
            self._count_vec(7 * n)
        return u

    # ------------------------------------------------------------------
    def _advance_pooled(self, i: int, u0: np.ndarray, F: np.ndarray,
                        n_steps: int) -> np.ndarray:
        """Pooled optimized :meth:`_advance`, in solver order: the
        depth's active set is the prefix ``[0, P[i])``, so every update
        is an in-place ufunc on a slice view (same arithmetic as the
        seed's fancy-indexed axpys) and nothing is allocated.  Reads
        ``u0`` and ``F`` on that prefix only; returns the depth's
        persistent displacement buffer, which the caller consumes
        before the next child call overwrites it."""
        lv = self.active_levels[i]
        dt_k = self.dt / float(2 ** (lv - 1))
        na = self._P[i]
        u = self._ub[i]
        ua = u[:na]
        np.copyto(ua, u0[:na])
        zfull = self._zl[lv]
        z = zfull[:na]
        Fa = F[:na]
        v, r = self._vact[i], self._r[i]

        if i == len(self.active_levels) - 1:
            for s in range(n_steps):
                self._apply_level_into(lv, u, zfull)
                np.add(Fa, z, out=r)  # rhs
                if s == 0:
                    np.multiply(r, -(0.5 * dt_k), out=v)
                else:
                    r *= dt_k
                    v -= r
                np.multiply(v, dt_k, out=r)
                ua += r
                self._count_vec(4 * na)
            return u

        ratio = 2 ** (self.active_levels[i + 1] - lv)
        nc = self._P[i + 1]
        F2 = self._F2[i]
        for m in range(n_steps):
            self._apply_level_into(lv, u, zfull)
            np.add(Fa, z, out=F2)  # the child's frozen forcing
            u_fine = self._advance_pooled(i + 1, u, F2, ratio)
            # Closed-form complement [nc, na): constant-force leap-frog
            # is exactly quadratic over the child's whole span dt_k.
            uc = u_fine[nc:na]
            np.multiply(F2[nc:na], 0.5 * dt_k * dt_k, out=uc)
            np.subtract(u[nc:na], uc, out=uc)
            np.subtract(u_fine[:na], ua, out=r)
            r /= dt_k  # recon = (u_fine - u) / dt_k
            if m == 0:
                v[:] = r
            else:
                r *= 2.0
                v += r
            np.multiply(v, dt_k, out=r)
            ua += r
            self._count_vec(6 * na + 2 * (na - nc))
        return u

    def _step_pooled(self, u: np.ndarray, v: np.ndarray) -> None:
        """One pooled cycle.  The state stays in caller order: ``u`` and
        the frozen level-1 force are gathered on the depth-1 prefix of
        the solver order, the recursion runs there, and the velocity
        increment goes back on that prefix; the inactive closed form
        ``v -= dt F1`` rides along in the full-length passes."""
        dt = self.dt
        G = self._G
        F1 = self._zl[self.active_levels[0]]
        self._apply_level_into(self.active_levels[0], u, F1)
        F = F1
        if self.force is not None:
            F = G
            np.subtract(F1, self.force(self.t), out=F)
        n_sub = 2 ** (self.active_levels[1] - 1)
        top, u0, Fs = self._top, self._u0, self._Fs  # ``top``: distinct, in range
        u.take(top, out=u0, mode="clip")
        F.take(top, out=Fs, mode="clip")
        u_t = self._advance_pooled(1, u0, Fs, n_sub)
        # Active rows: v += (2/dt) (u_t - u); depth 1's scratch is free now.
        r, va = self._r[1], self._vact[1]
        np.subtract(u_t[: len(top)], u0, out=r)
        r *= 2.0 / dt
        v.take(top, out=va, mode="clip")
        va += r
        # Everywhere, then overwritten on the active rows: the inactive
        # closed form u_t - u = -dt^2/2 F1, i.e. v -= dt F1.
        np.multiply(F, dt, out=G)
        v -= G
        v[top] = va
        np.multiply(v, dt, out=G)
        u += G
        self._count_vec(6 * self.n_dof)

    # ------------------------------------------------------------------
    def step(self, u: np.ndarray, v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """One LTS cycle: advance ``(u^n, v^{n-1/2})`` by the coarse ``dt``."""
        n = self.n_dof
        require(u.shape == (n,) and v.shape == (n,), "state shape mismatch", SolverError)

        if len(self.active_levels) == 1:
            # Degenerate single-level mesh: LTS *is* explicit Newmark.
            if self.pooled:
                z, G = self._zl[self.active_levels[0]], self._G
                self._apply_level_into(self.active_levels[0], u, z)
                np.negative(z, out=G)
                if self.force is not None:
                    G += self.force(self.t)
                G *= self.dt
                v += G
                np.multiply(v, self.dt, out=G)
                u += G
            else:
                accel = -(self._apply_level(self.active_levels[0], u))
                if self.force is not None:
                    accel += self.force(self.t)
                v += self.dt * accel
                u += self.dt * v
            self._count_vec(4 * n)
        elif self.pooled:
            self._step_pooled(u, v)
        else:
            F1 = self._apply_level(self.active_levels[0], u)
            if self.force is not None:
                F1 = F1 - self.force(self.t)
            n_sub = 2 ** (self.active_levels[1] - 1)
            u_t = self._advance(1, u, F1, n_sub)
            if self.mode == "optimized":
                inactive = ~self._act_mask[0]
                u_t[inactive] = u[inactive] - (0.5 * self.dt * self.dt) * F1[inactive]
            v += (2.0 / self.dt) * (u_t - u)
            u += self.dt * v
            self._count_vec(6 * n)

        self.t += self.dt
        self.n_cycles_taken += 1
        return u, v

    # -- checkpoint/restart hooks ----------------------------------------
    def state(self) -> dict:
        """Schedule position for checkpointing: completed-cycle count
        and simulated time.  The LTS schedule is RNG-free and repeats
        identically every cycle, so the cycle index *is* the full
        schedule position; ``u``/``v`` live with the caller."""
        return {"t": self.t, "cycle": self.n_cycles_taken}

    def restore(self, state: dict) -> None:
        """Resume the schedule position saved by :meth:`state`.

        With field vectors restored alongside, continuing is bitwise
        identical to the uninterrupted run (same operator, same
        summation order, same force sampling times)."""
        self.t = float(state["t"])
        self.n_cycles_taken = int(state["cycle"])

    def run(
        self,
        u0: np.ndarray,
        v0: np.ndarray,
        n_cycles: int,
        health: HealthGuard | None = None,
        checkpoint_every: int | None = None,
        on_checkpoint: Callable | None = None,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Integrate ``n_cycles`` LTS cycles from staggered ``(u0, v^{-1/2})``.

        ``health`` runs a :class:`~repro.core.health.HealthGuard` on
        its cadence; ``on_checkpoint(cycle, u, v)`` fires every
        ``checkpoint_every`` completed cycles with snapshot copies.
        """
        u = np.array(u0, dtype=np.float64, copy=True)
        v = np.array(v0, dtype=np.float64, copy=True)
        return _checked_run(
            self, u, v, n_cycles, health, checkpoint_every, on_checkpoint,
            "n_cycles_taken",
        )


def lts_newmark_run(
    A,
    dof_level: np.ndarray,
    dt: float,
    u0: np.ndarray,
    v0: np.ndarray,
    n_cycles: int,
    mode: str = "optimized",
    force: Callable[[float], np.ndarray] | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """One-shot convenience wrapper around :class:`LTSNewmarkSolver`."""
    solver = LTSNewmarkSolver(A, dof_level, dt, mode=mode, force=force)
    return solver.run(u0, v0, n_cycles)


def make_solver_for_assignment(
    A,
    element_dofs: np.ndarray,
    assignment: LevelAssignment,
    mode: str = "optimized",
    force: Callable[[float], np.ndarray] | None = None,
    counter: OperationCounter | None = None,
) -> LTSNewmarkSolver:
    """Build an :class:`LTSNewmarkSolver` from an element-level assignment."""
    n_dof = A.shape[0]  # sparse matrices, arrays, and operators all have .shape
    dof_level = dof_levels_from_elements(element_dofs, assignment.level, n_dof)
    return LTSNewmarkSolver(
        A, dof_level, assignment.dt, mode=mode, force=force, counter=counter
    )
