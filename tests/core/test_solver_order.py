"""Generated differential tests for the LTS solver order.

The pooled optimized solver steps below the top level in its own DOF
order (active sets as prefixes) on ``op.permuted(perm)``'s row-limited
restrictions.  Hypothesis draws the inputs — small 1D/2D/3D meshes,
random element level maps (including an empty middle level and a single
level), a random DOF relabelling of the operator so the solver's order
is never the identity, with or without a point force — on the assembled,
matrix-free NumPy and fused (when compiled) backends, and checks:

* the pooled solver matches ``mode="reference"`` to <= 1e-12;
* so does the identity-order path an operator without ``permuted``
  takes (a minimal protocol wrapper, as perfbench's timing proxy is);
* ``permuted(perm)`` round-trips: ``(P A P^T) u[perm] == (A u)[perm]``;
* ``Restriction.apply(out=)`` writes only the rows in ``rows``;
* ``state()``/``restore()`` at a random cycle resumes bitwise.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core import assign_levels
from repro.core.lts_newmark import LTSNewmarkSolver, dof_levels_from_elements
from repro.mesh import uniform_grid
from repro.sem import Sem1D, Sem2D, Sem3D, fused

BACKENDS = ["assembled", "numpy"] + (["fused"] if fused.available() else [])


class NoPermute:
    """The operator protocol minus ``permuted``: the solver must fall
    back to the identity order (like perfbench's ``TimedOperator``)."""

    def __init__(self, op):
        self._op = op

    @property
    def shape(self):
        return self._op.shape

    @property
    def nnz(self):
        return self._op.nnz

    def apply(self, u, out=None):
        return self._op.apply(u, out=out)

    def __matmul__(self, u):
        return self.apply(u)

    def restrict(self, cols):
        return self._op.restrict(cols)

    def reach(self, col_mask):
        return self._op.reach(col_mask)


def _operator(sem, backend):
    if backend == "assembled":
        return sem.operator("assembled")
    return sem.operator("matfree", use_fused=backend == "fused")


@st.composite
def systems(draw):
    """``(op, dof_level, dt, force, rng)``: a relabelled operator on a
    small mesh with a random level map."""
    dim = draw(st.sampled_from([1, 2, 3]))
    backend = draw(st.sampled_from(BACKENDS))
    if dim == 1:
        shape = (draw(st.integers(6, 16)),)
        order = draw(st.integers(2, 5))
    elif dim == 2:
        shape = (draw(st.integers(3, 6)), draw(st.integers(3, 6)))
        order = draw(st.integers(2, 4))
    else:
        shape = (draw(st.integers(2, 3)), draw(st.integers(2, 3)), draw(st.integers(2, 3)))
        order = draw(st.integers(2, 3))
    mesh = uniform_grid(shape)
    sem = {1: Sem1D, 2: Sem2D, 3: Sem3D}[dim](
        mesh, order=order, dirichlet=draw(st.booleans())
    )
    if dim == 1 and backend != "assembled":
        backend = "numpy"  # no fused 1D tier
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["random", "gap", "single"]))
    ne = mesh.n_elements
    if kind == "single":
        elem_level = np.ones(ne, dtype=np.int64)
    elif kind == "gap":  # levels 1 and 3: level 2 is empty
        elem_level = np.where(rng.random(ne) < 0.3, 3, 1)
        elem_level[0] = 1
    else:
        elem_level = rng.integers(1, draw(st.integers(2, 4)) + 1, ne)
        elem_level[0] = 1
    dof_level = dof_levels_from_elements(sem.element_dofs, elem_level, sem.n_dof)
    # The single-level stable step: every level's substep is no larger.
    dt = assign_levels(mesh, c_cfl=0.4, order=order).dt
    op = _operator(sem, backend)
    relabel = rng.permutation(sem.n_dof)
    op = op.permuted(relabel)
    dof_level = dof_level[relabel]
    force = None
    if draw(st.booleans()):
        f = np.zeros(sem.n_dof)
        f[rng.integers(sem.n_dof)] = 1.0

        def force(t, f=f):
            return f * np.cos(3.0 * t)

    return op, dof_level, dt, force, rng


def _start(n, rng):
    return rng.standard_normal(n), 0.1 * rng.standard_normal(n)


def _run(solver, u0, v0, n_cycles):
    u, v = u0.copy(), v0.copy()
    for _ in range(n_cycles):
        solver.step(u, v)
    return u, v


def _rel(a, b):
    return np.abs(a - b).max() / max(np.abs(b).max(), 1e-300)


@given(sys=systems())
@settings(max_examples=30, deadline=None)
def test_solver_order_matches_reference(sys):
    op, dof_level, dt, force, rng = sys
    u0, v0 = _start(op.shape[0], rng)
    ref = LTSNewmarkSolver(op, dof_level, dt, mode="reference", force=force)
    u_ref, v_ref = _run(ref, u0, v0, 4)
    for A in (op, NoPermute(op)):
        solver = LTSNewmarkSolver(A, dof_level, dt, force=force, pooled=True)
        if len(solver.active_levels) > 1:
            assert (solver._perm is None) == (A is not op)
        u, v = _run(solver, u0, v0, 4)
        assert _rel(u, u_ref) <= 1e-12, type(A).__name__
        assert _rel(v, v_ref) <= 1e-12, type(A).__name__


@given(sys=systems())
@settings(max_examples=20, deadline=None)
def test_permuted_round_trip(sys):
    op, _, _, _, rng = sys
    n = op.shape[0]
    perm = rng.permutation(n)
    u = rng.standard_normal(n)
    Au = op.apply(u)
    PA = op.permuted(perm)
    assert _rel(PA.apply(u[perm]), Au[perm]) <= 1e-14
    cols = np.flatnonzero(rng.random(n) < 0.3)
    cols_p = np.sort(np.argsort(perm)[cols])  # the same DOFs, new labels
    got = PA.restrict(cols_p).apply(u[perm])
    assert _rel(got, op.restrict(cols).apply(u)[perm]) <= 1e-14


@given(sys=systems())
@settings(max_examples=20, deadline=None)
def test_restriction_writes_only_its_rows(sys):
    op, _, _, _, rng = sys
    n = op.shape[0]
    u = rng.standard_normal(n)
    for A in (op, op.permuted(rng.permutation(n))):
        cols = np.flatnonzero(rng.random(n) < 0.2)
        restr = A.restrict(cols)
        full = restr.apply(u)
        out = rng.standard_normal(n)
        before = out.copy()
        assert restr.apply(u, out=out) is out
        inside = np.zeros(n, dtype=bool)
        inside[restr.rows] = True
        assert np.array_equal(out[~inside], before[~inside])
        assert np.array_equal(out[inside], full[inside])
        assert not full[~inside].any()


@given(sys=systems(), data=st.data())
@settings(max_examples=15, deadline=None)
def test_state_restore_resumes_bitwise(sys, data):
    op, dof_level, dt, force, rng = sys
    u0, v0 = _start(op.shape[0], rng)
    n_cycles = 5
    k = data.draw(st.integers(0, n_cycles))
    straight = LTSNewmarkSolver(op, dof_level, dt, force=force)
    u_all, v_all = _run(straight, u0, v0, n_cycles)
    first = LTSNewmarkSolver(op, dof_level, dt, force=force)
    u, v = _run(first, u0, v0, k)
    resumed = LTSNewmarkSolver(op, dof_level, dt, force=force)
    resumed.restore(first.state())
    u, v = _run(resumed, u, v, n_cycles - k)
    assert np.array_equal(u, u_all) and np.array_equal(v, v_all)


@pytest.mark.parametrize("backend", BACKENDS)
def test_permuted_rejects_non_permutations(backend):
    from repro.util.errors import SolverError

    sem = Sem2D(uniform_grid((3, 3)), order=2)
    op = _operator(sem, backend)
    n = sem.n_dof
    for bad in (np.zeros(n, dtype=np.int64), np.arange(n) - 1, np.arange(n - 1),
                np.arange(n, dtype=float)):
        with pytest.raises(SolverError):
            op.permuted(bad)
