"""Matrix-free tensor-product (sum-factorization) stiffness application.

This is the SPECFEM-style *unassembled* operator the paper's Sec. II-C
implementation is built on: the stiffness action is computed
element-by-element — gather the element's GLL values, contract with the
1D derivative/stiffness kernels, scatter-add back — and never as a
global sparse matrix.  All elements are processed at once as batched
tensor contractions (``tensordot`` → one BLAS GEMM per contraction), so
the Python overhead is O(1) per apply instead of O(n_elem).

Two kernel families share the machinery, each generic over dimension:

* acoustic (:class:`AcousticKernelND`) — ``K_e u`` is one 1D GLL
  stiffness contraction per axis, each scaled by a per-element weight
  plane; :class:`AcousticKernel` (2D, fused-C capable) and
  :class:`AcousticKernel3D` pin the dimension.  In 3D this is the
  paper's asymptotic win: O(n^4) contraction work per element versus the
  O(n^6) of a dense element matvec;
* elastic (:class:`AnisotropicKernelND`) — the stress-form pipeline
  (gradient contractions, per-element Hooke combine with the rank-4
  ``C``, divergence contractions) for an arbitrary per-element Voigt
  stiffness, fused C tier ``an_apply``/``an_apply3``.  Isotropic elastic
  (:class:`repro.sem.tensor.ElasticSemND`, the paper's Eqs. (1)-(2))
  runs through it with ``C`` built from ``lam`` and ``mu``
  (:func:`repro.sem.materials.isotropic_stiffness`); general anisotropy
  (:class:`repro.sem.anisotropic.AnisotropicElasticSemND`) passes its
  own ``C``.

Which kernel applies is decided by the assembler's *explicit* physics
declaration — :meth:`repro.sem.tensor.SemND.kernel_spec` returning a
:class:`repro.core.operator.KernelSpec` — through the
:func:`kernel_from_spec` registry, never by duck-typed attribute
sniffing.

Layered on top:

* :class:`MatrixFreeStiffness` — the bare ``K u`` action (duck-types a
  sparse matrix: ``shape``/``nnz``/``@``), which is what the distributed
  runtime's rank-local partial products need;
* :class:`MatrixFreeOperator` — the full ``A u = M^{-1} K u`` with
  optional Dirichlet masking, implementing the
  :class:`repro.core.operator.StiffnessOperator` protocol including the
  element-subset level restriction LTS uses: ``restrict(cols)`` touches
  only the elements adjacent to ``cols`` (the active level plus its gray
  halo), never a column slice of a global matrix.

``nnz`` reports tensor-contraction flops per apply so
:class:`repro.core.lts_newmark.OperationCounter` ratios (Eq. (9)) stay
meaningful — see :mod:`repro.core.operator`.
"""

from __future__ import annotations

import os
import weakref
from concurrent.futures import ThreadPoolExecutor
from functools import cached_property

import numpy as np

from repro.core.operator import KernelSpec, Restriction, inverse_permutation
from repro.core.workspace import Workspace, resolve_pooled
from repro.sem import fused
from repro.sem.gll import gll_points_weights, lagrange_derivative_matrix
from repro.sem.materials import VOIGT_SIZE, isotropic_stiffness, voigt_to_tensor
from repro.util.errors import SolverError
from repro.util.validation import require


def resolve_threads(threads: int | None) -> int:
    """The effective thread count for a requested ``threads`` setting.

    ``REPRO_THREADS`` (when set and non-empty) overrides the argument;
    ``None`` means serial (1), ``0`` auto-detects the CPUs available to
    this process, positive integers are taken literally.  Negative
    values are rejected.
    """
    env = os.environ.get("REPRO_THREADS")
    if env:
        try:
            threads = int(env)
        except ValueError:
            raise SolverError(f"REPRO_THREADS must be an integer, got {env!r}")
    if threads is None:
        return 1
    threads = int(threads)
    require(threads >= 0, "threads must be >= 0 (0 = auto-detect)", SolverError)
    if threads == 0:
        try:
            return len(os.sched_getaffinity(0))
        except AttributeError:  # pragma: no cover - non-Linux
            return os.cpu_count() or 1
    return threads


# One shared worker pool for the chunked NumPy tier, grown to the
# largest thread count requested so far.  A superseded executor is left
# to the GC — its idle workers exit once the object is collected.
_POOL: ThreadPoolExecutor | None = None
_POOL_SIZE = 0


def _pool(n: int) -> ThreadPoolExecutor:
    global _POOL, _POOL_SIZE
    if _POOL is None or _POOL_SIZE < n:
        _POOL = ThreadPoolExecutor(max_workers=n, thread_name_prefix="repro-matfree")
        _POOL_SIZE = n
    return _POOL


def _fused_plan(kernel, element_dofs, n_dof, gmask=None, Minv=None, enabled=None,
                threads: int = 1):
    """Fused-kernel apply plan, or ``None`` to use the NumPy path.

    ``enabled=None`` auto-detects (compiler present, order and dimension
    supported — the acoustic and stress-form elastic kernels have fused
    tiers in 2D and 3D; anything else falls back to NumPy);
    ``False`` forces the NumPy path; ``True`` raises if unavailable.
    ``threads > 1`` requests the OpenMP element-block loop (honored only
    when the build has OpenMP — see :func:`repro.sem.fused.omp_enabled`).
    """
    if enabled is False:
        return None
    if isinstance(kernel, AcousticKernel):
        plan_cls = fused.AcousticPlan
    elif isinstance(kernel, AcousticKernel3D):
        plan_cls = fused.Acoustic3DPlan
    elif isinstance(kernel, AnisotropicKernelND):
        plan_cls = fused.Anisotropic3DPlan if kernel.dim == 3 else fused.AnisotropicPlan
    else:  # generic-ND kernels have no fused tier
        plan_cls = None
    ok = (
        fused.available()
        and plan_cls is not None
        and kernel.order <= plan_cls.max_order
    )
    if not ok:
        require(enabled is not True, "fused kernels unavailable", SolverError)
        return None
    return plan_cls(kernel, element_dofs, n_dof, gmask=gmask, Minv=Minv,
                    threads=threads)


# ----------------------------------------------------------------------
# Pooled contraction helpers
# ----------------------------------------------------------------------
def _kbuf(ws: Workspace, name: str, shape: tuple) -> np.ndarray:
    """Workspace buffer keyed by name *and* shape, so a kernel called
    with an unusual batch size (tests, one-off applies) gets its own
    buffer instead of tripping the pool's fixed-shape guard.  The key
    is a plain ``(name, shape)`` tuple — hashing it is the only
    per-call cost, no string formatting on the hot path."""
    return ws.buf((name, shape), shape)


def _contract_axis(U: np.ndarray, A: np.ndarray, At: np.ndarray, axis: int,
                   dim: int, out: np.ndarray) -> np.ndarray:
    """``out[..., i, ...] = sum_t A[i, t] U[..., t, ...]`` along spatial
    ``axis`` of the batched tensor ``U`` (leading axes are batch), as one
    ``matmul`` with ``out=``.

    Only *trailing* axes are ever merged by the reshapes, so strided
    batch views (a component slice of a gradient stack) stay views —
    nothing is copied and the write lands in the caller's buffer.
    ``At`` is the contiguous transpose of ``A`` (used for the last
    axis, where the contraction runs over columns).

    For the last axis with fully C-contiguous operands, *all* leading
    axes merge and the whole batch collapses into a single large GEMM —
    one BLAS call instead of one small ``matmul`` per element, the
    dominant cost of the batched contraction.  Strided views fall back
    to the batched form (where the reshape would silently copy and the
    write would be lost).
    """
    if axis == dim - 1:
        n1 = A.shape[0]
        if U.flags.c_contiguous and out.flags.c_contiguous:
            np.matmul(U.reshape(-1, n1), At, out=out.reshape(-1, n1))
        else:
            np.matmul(U, At, out=out)
    else:
        nbatch = U.ndim - dim
        shape = U.shape[: nbatch + axis + 1] + (-1,)
        np.matmul(A, U.reshape(shape), out=out.reshape(shape))
    return out


try:  # scipy's private sparse kernels; guarded so the pooled path
    from scipy.sparse import _sparsetools as _sptools  # degrades, not breaks
except ImportError:  # pragma: no cover - scipy internals moved
    _sptools = None


class _ScatterPlan:
    """Precomputed allocation-free scatter: an exact replacement for
    per-apply ``np.bincount``.

    Views the assembly scatter as the one-hot matrix whose column ``j``
    holds a single unit entry at row ``element_dofs.ravel()[j]`` and
    applies it with scipy's ``csc_matvec`` kernel: the kernel's
    column-major accumulation loop is then *exactly* bincount's loop —
    one pass over the flat element values in appearance order,
    ``out[dof[j]] += 1.0 * v[j]`` — bitwise equal to the seed path with
    no temporary and no per-row scan of the dof space (which is what
    makes it beat a CSR formulation: a fine LTS level touches a sliver
    of the dofs but a row scan would still walk all of them).

    ``coeff`` (a per-dof vector, typically ``M^{-1}``) folds a
    subsequent elementwise multiply into the accumulation
    coefficients — one fewer full-vector pass per apply.  The multiply
    distributes into the sum (``sum(c v_j)`` vs ``c sum(v_j)``), so
    with ``coeff`` the result is within 1 ulp per accumulation of the
    seed's separate multiply rather than bitwise identical.
    """

    def __init__(
        self,
        element_dofs: np.ndarray,
        n_dof: int,
        coeff: np.ndarray | None = None,
    ):
        flat = np.ascontiguousarray(
            np.asarray(element_dofs, dtype=np.int64).ravel()
        )
        self.n_dof = int(n_dof)
        self._flat = flat
        self._colptr = np.arange(flat.size + 1, dtype=np.int64)
        self.folds_coeff = coeff is not None and _sptools is not None
        self._data = (
            np.ascontiguousarray(coeff[flat])
            if self.folds_coeff
            else np.ones(flat.size)
        )

    def scatter(self, values_flat: np.ndarray, out: np.ndarray) -> np.ndarray:
        """``out[:] = bincount(dofs, weights=values_flat)`` (times the
        folded ``coeff``, when given), pooled."""
        if _sptools is None:  # pragma: no cover - scipy internals moved
            out[:] = np.bincount(
                self._flat, weights=values_flat, minlength=self.n_dof
            )
            return out
        out[:] = 0.0
        _sptools.csc_matvec(
            self.n_dof, self._flat.size, self._colptr, self._flat,
            self._data, values_flat, out,
        )
        return out

    @property
    def nbytes(self) -> int:
        return int(self._flat.nbytes + self._colptr.nbytes + self._data.nbytes)


# ----------------------------------------------------------------------
# Physics kernels: batched element contraction
# ----------------------------------------------------------------------
class AcousticKernelND:
    """Batched acoustic element stiffness action, generic over dimension.

    For axis ``a`` of an axis-aligned box element,

    ``(K_e u)_i = sum_a scale[e, a] * (prod_{b != a} w_{i_b})
                  * sum_j KxX[i_a, j] u_{i with i_a -> j}``

    with the per-axis scales of
    :func:`repro.sem.tensor.acoustic_axis_scales` (``ax = c^2 hy/hx``
    etc. in 2D).  Quadrature weights are folded into per-element scale
    planes so the apply is one GEMM-shaped ``tensordot`` per axis plus
    elementwise combines — O(n^{dim+1}) work per element.
    """

    def __init__(self, order: int, scales: np.ndarray):
        self.order = int(order)
        self.n1 = self.order + 1
        scales = np.atleast_2d(np.asarray(scales, dtype=np.float64))
        self.scales = scales
        self.dim = scales.shape[1]
        _, w = gll_points_weights(self.order)
        D = lagrange_derivative_matrix(self.order)
        self.KxX = (D.T * w) @ D
        self._KxT = np.ascontiguousarray(self.KxX.T)
        self._ws = Workspace()
        # Scale planes: plane ``a`` carries scale[e, a] times the tensor
        # weights of every axis but ``a`` (broadcast size 1 along ``a``).
        self._wplanes: list[np.ndarray] = []
        for a in range(self.dim):
            plane = np.ones((1,) * self.dim)
            for b in range(self.dim):
                axis_w = np.ones(1) if b == a else w
                shape = [1] * self.dim
                shape[b] = len(axis_w)
                plane = plane * axis_w.reshape(shape)
            self._wplanes.append(scales[:, a].reshape((-1,) + (1,) * self.dim) * plane[None])
        # Contiguous copies of the weight planes, materialized lazily by
        # the pooled path (broadcast multiplies with a size-1 middle
        # axis defeat SIMD and run 2-4x slower than dense ones).
        self._wfull: list[np.ndarray] | None = None

    @property
    def flops_per_element(self) -> int:
        """Multiply-adds of one element contraction (``dim`` rank-``dim+1``
        GEMMs plus the weighted combines)."""
        n1 = self.n1
        return 2 * self.dim * n1 ** (self.dim + 1) + 3 * self.dim * n1**self.dim

    @classmethod
    def _from_scales(cls, order: int, scales: np.ndarray) -> "AcousticKernelND":
        return cls(order, scales)

    def subset(self, ids: np.ndarray) -> "AcousticKernelND":
        return type(self)._from_scales(self.order, self.scales[ids])

    @property
    def workspace_nbytes(self) -> int:
        """Bytes of pooled contraction scratch built so far."""
        total = self._ws.nbytes
        if self._wfull is not None and self._wfull[0] is not self._wplanes[0]:
            total += sum(p.nbytes for p in self._wfull)
        return total

    def _pooled_planes(self) -> list[np.ndarray]:
        """Weight planes for the pooled contraction: dense contiguous
        copies when affordable (a broadcast multiply with a size-1
        inner axis defeats SIMD and runs 2-4x slower; the values are
        identical, so the result stays bitwise equal to the seed),
        falling back to the broadcast originals beyond ~32 MB."""
        if self._wfull is None:
            ne = self.scales.shape[0]
            if self.dim * ne * self.n1**self.dim <= 4_000_000:
                full = (ne,) + (self.n1,) * self.dim
                self._wfull = [
                    np.ascontiguousarray(np.broadcast_to(p, full))
                    for p in self._wplanes
                ]
            else:
                self._wfull = self._wplanes
        return self._wfull

    def contract(self, Ue: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """Apply all element stiffnesses: ``(ne, n_loc) -> (ne, n_loc)``.

        Pooled path: one batched ``matmul`` per axis through a cached
        scratch tensor, accumulated into ``out`` (allocated only when
        not supplied).  :meth:`contract_ref` keeps the seed
        ``tensordot`` path for A/B comparison.
        """
        if out is None:
            out = np.empty_like(Ue)
        n1, dim = self.n1, self.dim
        ne = Ue.shape[0]
        tshape = (ne,) + (n1,) * dim
        U = Ue.reshape(tshape)
        O = out.reshape(tshape)
        t = _kbuf(self._ws, "ac.t", tshape)
        w = self._pooled_planes()
        # Axis 0 contracts straight into the output (then scales in
        # place) — one full copy pass fewer than contract-to-scratch;
        # identical arithmetic, so still bitwise equal to the seed.
        _contract_axis(U, self.KxX, self._KxT, 0, dim, O)
        O *= w[0]
        for a in range(1, dim):
            _contract_axis(U, self.KxX, self._KxT, a, dim, t)
            t *= w[a]
            O += t
        return out

    def contract_ref(self, Ue: np.ndarray) -> np.ndarray:
        """Seed (allocating ``tensordot``) contraction — the reference
        the pooled path is validated against."""
        n1, dim = self.n1, self.dim
        U = Ue.reshape((-1,) + (n1,) * dim)
        out = None
        for a in range(dim):
            # t[..., i_a -> :] = sum_j KxX[i_a, j] U[..., j, ...]
            t = np.tensordot(U, self.KxX, axes=([a + 1], [1]))
            t = np.moveaxis(t, -1, a + 1)
            term = t * self._wplanes[a]
            out = term if out is None else out + term
        return out.reshape(Ue.shape)


class AcousticKernel(AcousticKernelND):
    """2D acoustic kernel: ``K_e = ax K1 + ay K2`` with ``ax = c^2 hy/hx``,
    ``ay = c^2 hx/hy``.  Keeps the named per-axis coefficient arrays the
    fused C tier (:class:`repro.sem.fused.AcousticPlan`) binds to.
    """

    def __init__(self, order: int, ax: np.ndarray, ay: np.ndarray):
        ax = np.asarray(ax, dtype=np.float64)
        ay = np.asarray(ay, dtype=np.float64)
        super().__init__(order, np.stack([ax, ay], axis=1))
        self.ax = ax
        self.ay = ay

    @classmethod
    def _from_scales(cls, order: int, scales: np.ndarray) -> "AcousticKernel":
        return cls(order, scales[:, 0], scales[:, 1])


class AcousticKernel3D(AcousticKernelND):
    """3D hexahedral acoustic kernel: three per-axis contractions per
    apply (O(n^4) per element — the sum-factorization payoff of paper
    Sec. II-C, against the O(n^6) dense element matvec).

    The NumPy tier overrides the generic ``tensordot`` contraction with
    copy-free batched ``matmul`` reshapes (``tensordot`` materializes a
    transposed copy per axis, which dominates at hex sizes); the fused C
    tier (:class:`repro.sem.fused.Acoustic3DPlan`) additionally keeps
    the whole element workspace on registers/L1 so only gather/scatter
    touch memory.
    """

    def __init__(self, order: int, scales: np.ndarray):
        scales = np.atleast_2d(np.asarray(scales, dtype=np.float64))
        require(scales.shape[1] == 3, "AcousticKernel3D needs 3 axis scales", SolverError)
        super().__init__(order, scales)

    def contract_ref(self, Ue: np.ndarray) -> np.ndarray:
        n1 = self.n1
        ne = Ue.shape[0]
        U = Ue.reshape(ne, n1, n1, n1)
        wx, wy, wz = self._wplanes
        out = (self.KxX @ U.reshape(ne, n1, n1 * n1)).reshape(U.shape) * wx
        out += (self.KxX @ U.reshape(ne * n1, n1, n1)).reshape(U.shape) * wy
        out += (Ue.reshape(-1, n1) @ self._KxT).reshape(U.shape) * wz
        return out.reshape(Ue.shape)


class AnisotropicKernelND:
    """Batched elastic stiffness action for any per-element Voigt ``C``
    (isotropic or anisotropic), generic over dimension
    (component-interleaved DOFs; fused C tier via ``an_apply``/``an_apply3``).

    Applies the operator in *stress form*, the classic SEM structure for
    arbitrary ``C``: with ``G_b`` the 1D derivative along axis ``b`` and
    ``W`` the full tensor quadrature weights, every component block is
    ``K_cd = sum_ab coef[e, c, a, d, b] G_a^T W G_b`` where ``coef`` is
    the rank-4 material tensor times the pair geometry scales
    (:func:`repro.sem.tensor.elastic_pair_scales`).  One apply is

    1. gradient: ``DU[d, b] = G_b u_d`` (``dim^2`` contractions),
    2. Hooke combine: ``S[c, a] = sum_db coef * DU[d, b]``, times ``W``
       (one batched einsum — ``dim^4`` multiply-adds per node),
    3. divergence: ``out_c = sum_a G_a^T S[c, a]`` (``dim^2``
       contractions),

    which reduces exactly to the assembled block structure of
    :class:`repro.sem.anisotropic.AnisotropicElasticSemND` (note
    ``G_a^T W G_a`` is the per-axis stiffness kernel and ``G_a^T W G_b``
    the axis-pair cross kernel).
    """

    def __init__(self, order: int, C, h_axes):
        from repro.sem.tensor import elastic_pair_scales

        self.order = int(order)
        self.n1 = self.order + 1
        self.h_axes = np.atleast_2d(np.asarray(h_axes, dtype=np.float64))
        self.dim = self.h_axes.shape[1]
        require(self.dim in (2, 3), "AnisotropicKernelND needs dim in (2, 3)", SolverError)
        nv = VOIGT_SIZE[self.dim]
        C = np.asarray(C, dtype=np.float64)
        if C.ndim == 2:
            C = C[None]
        require(
            C.shape == (self.h_axes.shape[0], nv, nv),
            f"C must be (n_elements, {nv}, {nv}) for dim {self.dim}",
            SolverError,
        )
        self.C = C
        self.n_comp = self.dim
        _, w = gll_points_weights(self.order)
        self.D = lagrange_derivative_matrix(self.order)
        self.Dt = np.ascontiguousarray(self.D.T)
        # coef[e, c, a, d, b] = c_cadb * g_ab (material times geometry).
        c4 = voigt_to_tensor(C, self.dim)
        g = elastic_pair_scales(self.h_axes)
        self.coef = c4 * g[:, None, :, None, :]
        # Matrix view (ne, dim^2, dim^2) of the same coefficients, rows
        # (c, a) / cols (d, b) — the pooled Hooke combine is one batched
        # matmul with it (a view: no extra storage).
        ne_c = self.coef.shape[0]
        self._coefmat = np.ascontiguousarray(
            self.coef.reshape(ne_c, self.dim**2, self.dim**2)
        )
        self._ws = Workspace()
        # Full tensor quadrature weights as a broadcast plane.
        wq = w
        for _ in range(self.dim - 1):
            wq = np.kron(wq, w)
        self._wfull = wq.reshape((1,) + (self.n1,) * self.dim)
        self._wflat = self._wfull.reshape(1, 1, -1)

    @property
    def flops_per_element(self) -> int:
        """Multiply-adds of one element apply: ``2 dim^2`` axis
        contractions plus the ``dim^4``-term Hooke combine."""
        n1 = self.n1
        return 4 * self.dim**2 * n1 ** (self.dim + 1) + (
            2 * self.dim**4 + self.dim**2
        ) * n1**self.dim

    def subset(self, ids: np.ndarray) -> "AnisotropicKernelND":
        return AnisotropicKernelND(self.order, self.C[ids], self.h_axes[ids])

    def _axis_apply(self, U: np.ndarray, A: np.ndarray, axis: int) -> np.ndarray:
        """Contract the batched tensor ``U`` along spatial ``axis`` with
        the 1D matrix ``A`` — every axis as a copy-free batched matmul
        (fold the leading axes into the batch dimension, the trailing
        ones into columns)."""
        n1 = self.n1
        if axis == self.dim - 1:
            return (U.reshape(-1, n1) @ A.T).reshape(U.shape)
        lead = U.shape[0] * n1**axis
        return (A @ U.reshape(lead, n1, -1)).reshape(U.shape)

    @property
    def workspace_nbytes(self) -> int:
        """Bytes of pooled contraction scratch built so far."""
        return self._ws.nbytes

    def contract(self, Ue: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """Pooled stress-form contraction: gradient stack and stress
        stack live in cached ``(dim^2, ne, n_loc)`` workspaces, the
        Hooke combine is one batched ``matmul`` with the ``(dim^2,
        dim^2)`` coefficient matrices (same multiply-add structure as
        the seed einsum).  :meth:`contract_ref` keeps the seed path."""
        if out is None:
            out = np.empty_like(Ue)
        n1, dim, nc = self.n1, self.dim, self.n_comp
        ne = Ue.shape[0]
        nl = n1**dim
        tshape = (ne,) + (n1,) * dim
        ws = self._ws
        Uc = _kbuf(ws, "an.u", tshape)
        t = _kbuf(ws, "an.t", tshape)
        acc = _kbuf(ws, "an.acc", tshape)
        # Component-major stacks: every gradient / stress plane is one
        # contiguous (ne, n_loc) block, so each axis contraction runs on
        # contiguous operands (the last axis as a single GEMM) — about
        # twice as fast as element-major planes, with identical results.
        DU = _kbuf(ws, "an.du", (dim * dim, ne, nl))
        S = _kbuf(ws, "an.s", (dim * dim, ne, nl))
        # 1. gradient of every component along every axis, plane (d, b).
        for d in range(nc):
            Uc.reshape(ne, nl)[:] = Ue[:, d::nc]
            for b in range(dim):
                _contract_axis(
                    Uc, self.D, self.Dt, b, dim, DU[d * dim + b].reshape(tshape)
                )
        # 2. Hooke combine (batched over elements) + quadrature weights.
        np.matmul(self._coefmat, DU.transpose(1, 0, 2), out=S.transpose(1, 0, 2))
        S *= self._wflat
        # 3. weighted divergence back onto each component.
        for c in range(nc):
            _contract_axis(S[c * dim].reshape(tshape), self.Dt, self.D, 0, dim, acc)
            for a in range(1, dim):
                _contract_axis(
                    S[c * dim + a].reshape(tshape), self.Dt, self.D, a, dim, t
                )
                acc += t
            out[:, c::nc] = acc.reshape(ne, nl)
        return out

    def contract_ref(self, Ue: np.ndarray) -> np.ndarray:
        """Seed (allocating einsum) contraction — the reference the
        pooled path is validated against."""
        n1, dim, nc = self.n1, self.dim, self.n_comp
        ne = Ue.shape[0]
        tshape = (ne,) + (n1,) * dim
        # 1. gradient of every component along every axis.
        DU = np.empty((ne, dim, dim) + (n1,) * dim)
        for d in range(nc):
            U = Ue[:, d::nc].reshape(tshape)
            for b in range(dim):
                DU[:, d, b] = self._axis_apply(U, self.D, b)
        # 2. Hooke combine with the per-element coefficients, then the
        #    quadrature weights (one plane for all (c, a)).
        S = np.einsum("ecadb,edb...->eca...", self.coef, DU, optimize=True)
        S *= self._wfull[:, None, None]
        # 3. weighted divergence back onto each component.
        res = np.empty_like(Ue)
        for c in range(nc):
            out = self._axis_apply(S[:, c, 0], self.Dt, 0)
            for a in range(1, dim):
                out += self._axis_apply(S[:, c, a], self.Dt, a)
            res[:, c::nc] = out.reshape(ne, -1)
        return res


# ----------------------------------------------------------------------
# Gather / contract / scatter operators
# ----------------------------------------------------------------------
class MatrixFreeStiffness:
    """The unassembled stiffness action: gather -> contract -> scatter-add.

    Duck-types the minimal sparse-matrix surface (``shape``, ``nnz``,
    ``@``) so rank-local partial products in the distributed runtime can
    swap it in for a CSR block unchanged.  ``nnz`` is contraction flops
    per apply.

    Computes ``K (gmask * u)`` with an optional per-element-node 0/1
    input mask, times the optional diagonal ``Minv`` — i.e. the bare
    ``K u`` by default, the full ``M^{-1} K`` action when ``Minv`` is
    given (both folded into the fused kernel pass when available).

    ``use_fused=None`` auto-selects the fused C kernels when available
    (:mod:`repro.sem.fused`); ``False`` pins the batched NumPy path.
    ``threads`` (resolved by :func:`resolve_threads` — ``None`` serial,
    ``0`` auto-detect, ``REPRO_THREADS`` overriding) parallelizes the
    element loop: on the fused tier via the kernels' OpenMP element-block
    loop, on the NumPy tier via contiguous element chunks fanned out on a
    shared :class:`~concurrent.futures.ThreadPoolExecutor` (NumPy
    releases the GIL inside the batched contractions).  Both scatters
    reduce partial results in a fixed order, so for a fixed thread count
    results are deterministic and agree with serial to summation order
    (<= 1e-12 relative).  Tiny workloads (fewer than 2 chunks / one
    ``VL`` block per thread) silently run serial; ``tier`` reports what
    actually runs.
    """

    def __init__(
        self,
        kernel,
        element_dofs: np.ndarray,
        n_dof: int,
        use_fused: bool | None = None,
        gmask: np.ndarray | None = None,
        Minv: np.ndarray | None = None,
        threads: int | None = None,
        pooled: bool | None = None,
    ):
        self.kernel = kernel
        self.element_dofs = np.ascontiguousarray(element_dofs, dtype=np.int64)
        self.n_dof = int(n_dof)
        self.gmask = None if gmask is None else np.ascontiguousarray(gmask, dtype=np.float64)
        self.Minv = None if Minv is None else np.ascontiguousarray(Minv, dtype=np.float64)
        self._use_fused = use_fused
        self._requested_threads = threads
        self.threads = resolve_threads(threads)
        self._plan = (
            _fused_plan(
                kernel,
                self.element_dofs,
                self.n_dof,
                gmask=self.gmask,
                Minv=self.Minv,
                enabled=use_fused,
                threads=self.threads,
            )
            if self.element_dofs.size
            else None
        )
        # The fused plan checked the dofs before binding them; the NumPy
        # tier's clipped gathers would not notice a bad index.
        require(
            self._plan is not None
            or self.element_dofs.size == 0
            or self.element_dofs.view(np.uint64).max() < self.n_dof,  # negatives wrap high
            "element dof index out of range",
            SolverError,
        )
        # Chunked NumPy tier: contiguous element ranges, one per worker,
        # each with its own kernel subset; partials are summed in chunk
        # order so the result is independent of completion order.
        self._chunks = None
        ne = self.element_dofs.shape[0]
        if self._plan is None and self.threads > 1 and ne >= 2 * self.threads:
            bounds = np.linspace(0, ne, self.threads + 1).astype(int)
            self._chunks = [
                (
                    self.element_dofs[lo:hi],
                    self.kernel.subset(np.arange(lo, hi)),
                    None if self.gmask is None else self.gmask[lo:hi],
                )
                for lo, hi in zip(bounds[:-1], bounds[1:])
            ]
        # Pooled hot path: gather/contract buffers and the sort-plan
        # scatter, built eagerly so workspace accounting is stable and
        # the first traced step is already steady-state.
        self._requested_pooled = pooled
        self.pooled = resolve_pooled(pooled)
        self._ws = Workspace()
        self._scatter = None
        self._chunk_state = None
        if self.pooled and self._plan is None and self._chunks is None and ne:
            self._scatter = _ScatterPlan(
                self.element_dofs, self.n_dof, coeff=self.Minv
            )
            self._ws.buf("Ue", self.element_dofs.shape)
            self._ws.buf("ku", self.element_dofs.shape)
        if self.pooled and self._chunks is not None:
            self._chunk_state = [
                {
                    "scatter": _ScatterPlan(ed, self.n_dof, coeff=self.Minv),
                    "ws": Workspace(),
                    "z": np.empty(self.n_dof),
                }
                for ed, _, _ in self._chunks
            ]

    @property
    def tier(self) -> str:
        """The kernel tier this operator actually runs (post-gating):
        ``"fused+openmp:N"``, ``"fused"``, ``"numpy-threads:N"``, or
        ``"numpy"``."""
        if self._plan is not None:
            if self._plan.threads > 1:
                return f"fused+openmp:{self._plan.threads}"
            return "fused"
        if self._chunks is not None:
            return f"numpy-threads:{self.threads}"
        return "numpy"

    @property
    def shape(self) -> tuple[int, int]:
        return (self.n_dof, self.n_dof)

    @property
    def nnz(self) -> int:
        return self.element_dofs.shape[0] * self.kernel.flops_per_element

    def apply(self, u: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        if self.element_dofs.shape[0] == 0:
            if out is None:
                return np.zeros(self.n_dof)
            out[:] = 0.0
            return out
        if self._plan is not None:
            return self._plan(u, out=out)
        if u.shape != (self.n_dof,):  # the clipped gather below would not notice
            raise SolverError(f"u has shape {u.shape}, expected ({self.n_dof},)")
        if self._chunks is not None:
            return self._apply_chunked(u, out=out)
        if not self.pooled:
            z = self._apply_ref(u)
            if out is None:
                return z
            out[:] = z
            return out
        Ue = self._ws.buf("Ue", self.element_dofs.shape)
        u.take(self.element_dofs, out=Ue, mode="clip")
        if self.gmask is not None:
            Ue *= self.gmask
        ku = self._ws.buf("ku", self.element_dofs.shape)
        self.kernel.contract(Ue, out=ku)
        z = out if out is not None else np.empty(self.n_dof)
        self._scatter.scatter(ku.reshape(-1), z)
        if self.Minv is not None and not self._scatter.folds_coeff:
            z *= self.Minv
        return z

    def _apply_ref(self, u: np.ndarray) -> np.ndarray:
        """Seed apply: fancy-index gather, allocating contraction,
        ``bincount`` scatter — the reference for the pooled path."""
        Ue = u[self.element_dofs]
        if self.gmask is not None:
            Ue = Ue * self.gmask
        ku = self.kernel.contract_ref(Ue)
        z = np.bincount(
            self.element_dofs.ravel(), weights=ku.ravel(), minlength=self.n_dof
        )
        if self.Minv is not None:
            z *= self.Minv
        return z

    def _apply_chunked(self, u: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        if self.pooled:

            def _partial(i):
                ed, kern, gm = self._chunks[i]
                st = self._chunk_state[i]
                Ue = st["ws"].buf("Ue", ed.shape)
                u.take(ed, out=Ue, mode="clip")
                if gm is not None:
                    Ue *= gm
                ku = st["ws"].buf("ku", ed.shape)
                kern.contract(Ue, out=ku)
                return st["scatter"].scatter(ku.reshape(-1), st["z"])

            parts = list(_pool(self.threads).map(_partial, range(len(self._chunks))))
        else:

            def _partial(chunk):
                ed, kern, gm = chunk
                Ue = u[ed]
                if gm is not None:
                    Ue = Ue * gm
                ku = kern.contract_ref(Ue)
                return np.bincount(
                    ed.ravel(), weights=ku.ravel(), minlength=self.n_dof
                )

            parts = list(_pool(self.threads).map(_partial, self._chunks))
        if out is None:
            z = parts[0] if not self.pooled else parts[0].copy()
        else:
            z = out
            z[:] = parts[0]
        for p in parts[1:]:
            z += p
        if self.Minv is not None and not (
            self.pooled and self._chunk_state[0]["scatter"].folds_coeff
        ):
            z *= self.Minv
        return z

    def workspace_bytes(self) -> int:
        """Bytes of pooled hot-path scratch currently held (gather and
        contraction buffers, scatter plans, per-chunk partials)."""
        total = self._ws.nbytes + getattr(self.kernel, "workspace_nbytes", 0)
        if self._scatter is not None:
            total += self._scatter.nbytes
        if self._plan is not None and getattr(self._plan, "_zt", None) is not None:
            total += self._plan._zt.nbytes
        if self._chunk_state is not None:
            for (_, kern, _), st in zip(self._chunks, self._chunk_state):
                total += st["ws"].nbytes + st["z"].nbytes + st["scatter"].nbytes
                total += getattr(kern, "workspace_nbytes", 0)
        return total

    def __matmul__(self, u: np.ndarray) -> np.ndarray:
        return self.apply(u)

    def masked_subset(self, col_mask: np.ndarray) -> "MatrixFreeStiffness":
        """The restricted action ``u -> K (1_cols * u)`` on the elements
        adjacent to the masked DOFs (active level + gray halo).

        This is the paper's per-level stiffness application for the
        distributed runtime: each rank applies only the elements of the
        active level instead of masking a full local product.
        """
        col_mask = np.asarray(col_mask, dtype=bool)
        ids = np.nonzero(col_mask[self.element_dofs].any(axis=1))[0]
        gm = col_mask[self.element_dofs[ids]].astype(np.float64)
        if self.gmask is not None:
            gm *= self.gmask[ids]
        return MatrixFreeStiffness(
            self.kernel.subset(ids),
            self.element_dofs[ids],
            self.n_dof,
            use_fused=self._use_fused,
            gmask=gm,
            Minv=self.Minv,
            threads=self._requested_threads,
            pooled=self._requested_pooled,
        )

    def row_support(self) -> np.ndarray:
        """Boolean mask of rows this operator can structurally write
        (the union of its element dofs).  The distributed LTS executor
        uses it to skip halo channels a level never touches."""
        mask = np.zeros(self.n_dof, dtype=bool)
        if self.element_dofs.size:
            mask[self.element_dofs.ravel()] = True
        return mask


class MatrixFreeOperator:
    """Matrix-free ``A u = M^{-1} K u`` implementing the
    :class:`repro.core.operator.StiffnessOperator` protocol.

    ``restrict(cols)`` realizes the paper's per-level application: only
    the elements adjacent to ``cols`` (active level + gray halo) are
    gathered and contracted, with the gathered values masked to ``cols``
    so the result equals ``A[:, cols] @ u[cols]`` of the assembled
    backend to machine precision.  The restriction's kernel runs over
    the hull ``[lo, hi)`` of its element DOFs (shifted ``element_dofs``,
    ``n_dof = hi - lo``, ``M^{-1}[lo:hi]``) on the views ``u[lo:hi]`` /
    ``out[lo:hi]``, so zeroing and ``M^{-1}`` scaling cost O(hull), and
    rows outside the hull are never written (the
    :class:`~repro.core.operator.Restriction` row contract).

    ``permuted(perm)`` is the same operator in another DOF order
    (``element_dofs``, ``M`` and the Dirichlet mask remapped, element
    order kept — so every DOF sums its element contributions in the same
    order and results are bitwise those of the original, permuted).  Its
    full apply is built on first use only: the LTS solver that asks for
    it applies nothing but its restrictions.
    """

    def __init__(
        self,
        kernel,
        element_dofs: np.ndarray,
        M: np.ndarray,
        dirichlet_mask: np.ndarray | None = None,
        use_fused: bool | None = None,
        threads: int | None = None,
        pooled: bool | None = None,
    ):
        self._setup(kernel, element_dofs, M, dirichlet_mask, use_fused, threads, pooled)
        self._stiffness  # the full apply is the common case: build it now

    def _setup(self, kernel, element_dofs, M, dirichlet_mask, use_fused, threads,
               pooled) -> None:
        self.kernel = kernel
        self.element_dofs = np.ascontiguousarray(element_dofs, dtype=np.int64)
        self.M = np.asarray(M, dtype=np.float64)
        self.n_dof = len(self.M)
        self._Minv = 1.0 / self.M
        self.dirichlet_mask = (
            None if dirichlet_mask is None else np.asarray(dirichlet_mask, dtype=np.float64)
        )
        self._use_fused = use_fused
        self._threads = threads
        self._pooled = pooled
        # Live restriction subsets, for workspace accounting only (weak:
        # a discarded solver's restrictions drop out of the count).
        self._restrictions = weakref.WeakSet()

    @cached_property
    def _stiffness(self) -> MatrixFreeStiffness:
        """The full pipeline (input mask, contraction, scatter,
        ``M^{-1}``) in one :class:`MatrixFreeStiffness`."""
        return MatrixFreeStiffness(
            self.kernel,
            self.element_dofs,
            self.n_dof,
            use_fused=self._use_fused,
            gmask=(
                None
                if self.dirichlet_mask is None
                else self.dirichlet_mask[self.element_dofs]
            ),
            Minv=self._Minv,
            threads=self._threads,
            pooled=self._pooled,
        )

    @property
    def shape(self) -> tuple[int, int]:
        return (self.n_dof, self.n_dof)

    @property
    def tier(self) -> str:
        """The kernel tier of the full-operator apply (see
        :attr:`MatrixFreeStiffness.tier`)."""
        return self._stiffness.tier

    @property
    def nnz(self) -> int:
        """Tensor-contraction flops of one full apply (see module docs)."""
        return self.element_dofs.shape[0] * self.kernel.flops_per_element

    def apply(self, u: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        z = self._stiffness.apply(u, out=out)  # input mask and M^{-1} folded in
        if self.dirichlet_mask is not None:
            z *= self.dirichlet_mask
        return z

    def workspace_bytes(self) -> int:
        """Bytes of pooled hot-path scratch currently held, including
        the live level restrictions built from this operator."""
        full = self.__dict__.get("_stiffness")  # not built by permuted()
        total = 0 if full is None else full.workspace_bytes()
        for sub in self._restrictions:
            total += sub.workspace_bytes()
        return total

    def __matmul__(self, u: np.ndarray) -> np.ndarray:
        return self.apply(u)

    def apply_on(self, cols: np.ndarray, u: np.ndarray) -> np.ndarray:
        """One-shot ``A[:, cols] @ u[cols]`` (uncached convenience)."""
        return self.restrict(cols).apply(u)

    def restrict(self, cols: np.ndarray) -> Restriction:
        n = self.n_dof
        cols = np.asarray(cols, dtype=np.int64)
        col_mask = np.zeros(n, dtype=bool)
        col_mask[cols] = True
        # element_dofs were range-checked when the operator was built
        ids = np.flatnonzero(col_mask.take(self.element_dofs, mode="clip").any(axis=1))
        ed = self.element_dofs.take(ids, axis=0)
        lo, hi = (int(ed.min()), int(ed.max()) + 1) if ed.size else (0, 0)
        gm = col_mask.take(ed, mode="clip").astype(np.float64)
        dmask = self.dirichlet_mask
        if dmask is not None:
            gm *= dmask[ed]
            dmask = dmask[lo:hi]
        ed -= lo  # a fresh copy: shift in place onto the hull
        sub = MatrixFreeStiffness(
            self.kernel.subset(ids),
            ed,
            hi - lo,
            use_fused=self._use_fused,
            gmask=gm,
            Minv=self._Minv[lo:hi],
            threads=self._threads,
            pooled=self._pooled,
        )
        self._restrictions.add(sub)
        rows = slice(lo, hi)

        def _apply(u: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
            if u.shape != (n,):
                raise SolverError(f"u has shape {u.shape}, expected ({n},)")
            if out is not None and out.shape != (n,):
                raise SolverError(f"out has shape {out.shape}, expected ({n},)")
            if out is None:
                out = np.zeros(n)
            z = sub.apply(u[rows], out=out[rows])
            if dmask is not None:
                z *= dmask
            return out

        return Restriction(cols=cols, ops=sub.nnz, _apply=_apply, rows=rows)

    def permuted(self, perm: np.ndarray) -> "MatrixFreeOperator":
        """The operator in DOF order ``perm`` (``P A P^T``, with
        ``(P A P^T) u[perm] == (A u)[perm]``); see the class docs."""
        perm, inv = inverse_permutation(perm, self.n_dof)
        dmask = self.dirichlet_mask
        op = MatrixFreeOperator.__new__(MatrixFreeOperator)  # full apply: lazy
        op._setup(
            self.kernel,
            inv.take(self.element_dofs, mode="clip"),  # range-checked at build
            self.M.take(perm),
            None if dmask is None else dmask.take(perm),
            self._use_fused,
            self._threads,
            self._pooled,
        )
        return op

    def reach(self, col_mask: np.ndarray) -> np.ndarray:
        """All DOFs of elements adjacent to the masked columns.

        A structural superset of the assembled backend's reach (it keeps
        same-element DOFs whose stiffness entry is exactly zero), which
        is valid for LTS active sets: any superset of the true coupling
        yields the identical scheme.
        """
        col_mask = np.asarray(col_mask, dtype=bool)
        require(col_mask.shape == (self.n_dof,), "col_mask must be (n_dof,)", SolverError)
        touch = col_mask.take(self.element_dofs, mode="clip").any(axis=1)
        out = np.zeros(self.n_dof, dtype=bool)
        out[self.element_dofs[touch]] = True
        return out


# ----------------------------------------------------------------------
# Builders
# ----------------------------------------------------------------------
def _param(spec: KernelSpec, name: str) -> np.ndarray:
    """A required per-element parameter array of ``spec``, as float64 —
    a missing key is a malformed spec, reported as a solver error."""
    require(
        name in spec.params,
        f"kernel spec for physics {spec.physics!r} is missing param {name!r}",
        SolverError,
    )
    return np.asarray(spec.params[name], dtype=np.float64)


def kernel_from_spec(spec: KernelSpec):
    """Element kernel for an explicit physics declaration.

    This is the registry behind backend dispatch: a
    :class:`repro.core.operator.KernelSpec` names the physics and
    carries the per-element parameter arrays; the dimension picks the
    specialized (fused-capable) kernel class.  Adding a physics means
    adding a spec + kernel pair here — never another ``hasattr`` chain.
    Unknown physics names and malformed parameter sets (missing keys,
    wrong shapes) raise :class:`~repro.util.errors.SolverError`.
    """
    if spec.physics == "acoustic":
        scales = np.atleast_2d(_param(spec, "scales"))
        require(
            scales.shape[1] == spec.dim,
            f"acoustic scales must be (n_elements, {spec.dim})",
            SolverError,
        )
        if spec.dim == 2:
            return AcousticKernel(spec.order, scales[:, 0], scales[:, 1])
        if spec.dim == 3:
            return AcousticKernel3D(spec.order, scales)
        return AcousticKernelND(spec.order, scales)
    if spec.physics in ("elastic", "anisotropic_elastic"):
        h = np.atleast_2d(_param(spec, "h_axes"))
        require(
            spec.dim in (2, 3) and h.shape[1] == spec.dim,
            f"{spec.physics} h_axes must be (n_elements, {spec.dim}), dim in (2, 3)",
            SolverError,
        )
        if spec.physics == "elastic":
            C = isotropic_stiffness(_param(spec, "lam"), _param(spec, "mu"), spec.dim)
        else:
            C = _param(spec, "C")
        return AnisotropicKernelND(spec.order, C, h)
    raise SolverError(f"no element kernel registered for physics {spec.physics!r}")


def _make_kernel(assembler, ids: np.ndarray | None = None):
    """Physics kernel for a SEM assembler, via its explicit kernel spec."""
    spec_fn = getattr(assembler, "kernel_spec", None)
    require(
        spec_fn is not None,
        "assembler does not export kernel_spec() "
        "(see repro.core.operator.KernelSpec)",
        SolverError,
    )
    return kernel_from_spec(spec_fn(ids))


def operator_for(
    assembler,
    backend: str = "assembled",
    use_fused: bool | None = None,
    threads: int | None = None,
    pooled: bool | None = None,
):
    """Backend dispatch behind ``Sem2D.operator`` / ``ElasticSem2D.operator``.

    ``"assembled"`` wraps the precomputed CSR; ``"matfree"`` builds the
    tensor-product operator.  One implementation, every assembler.
    ``pooled`` controls the NumPy tier's workspace pooling (default on;
    ``REPRO_POOLED=0`` or ``pooled=False`` pins the seed allocating
    path for A/B measurement).
    """
    if backend == "assembled":
        from repro.core.operator import AssembledOperator

        return AssembledOperator(assembler.A)
    if backend == "matfree":
        return matrix_free_operator(
            assembler, use_fused=use_fused, threads=threads, pooled=pooled
        )
    raise SolverError(f"unknown backend {backend!r}")


def matrix_free_operator(
    assembler,
    use_fused: bool | None = None,
    threads: int | None = None,
    pooled: bool | None = None,
) -> MatrixFreeOperator:
    """Matrix-free ``A = M^{-1} K`` for any :class:`~repro.sem.tensor.SemND`
    assembler (:class:`~repro.sem.assembly2d.Sem2D`,
    :class:`~repro.sem.assembly3d.Sem3D`) or
    :class:`~repro.sem.elastic2d.ElasticSem2D`, equivalent to its
    assembled ``assembler.A`` (including Dirichlet masking)."""
    return MatrixFreeOperator(
        _make_kernel(assembler),
        assembler.element_dofs,
        assembler.M,
        dirichlet_mask=getattr(assembler, "dirichlet_mask", None),
        use_fused=use_fused,
        threads=threads,
        pooled=pooled,
    )


def local_stiffness(
    assembler,
    element_ids: np.ndarray,
    local_dofs: np.ndarray,
    n_local: int,
    use_fused: bool | None = None,
    threads: int | None = None,
    pooled: bool | None = None,
) -> MatrixFreeStiffness:
    """Rank-local unassembled ``K`` for the distributed runtime.

    ``local_dofs`` is ``assembler.element_dofs[element_ids]`` mapped to
    rank-local numbering; the returned object drops into
    :class:`repro.runtime.halo.RankLayout.K_local` (partial products are
    summed across ranks by the usual halo exchange).
    """
    return MatrixFreeStiffness(
        _make_kernel(assembler, np.asarray(element_ids)),
        local_dofs,
        n_local,
        use_fused=use_fused,
        threads=threads,
        pooled=pooled,
    )


#: Fused-tier order ceilings by dimension (see :mod:`repro.sem.fused`).
_FUSED_MAX_ORDER = {2: fused.MAX_ORDER, 3: fused.MAX_ORDER_3D}
_FUSED_PHYSICS = frozenset({"acoustic", "elastic", "anisotropic_elastic"})


def fused_supported(physics: str, dim: int, order: int) -> bool:
    """True when a compiled fused C tier exists for this physics, mesh
    dimension, and polynomial order."""
    return (
        physics in _FUSED_PHYSICS
        and dim in _FUSED_MAX_ORDER
        and order <= _FUSED_MAX_ORDER[dim]
        and fused.available()
    )


def describe_tier(
    physics: str,
    dim: int,
    order: int,
    use_fused: bool | None = None,
    threads: int | None = None,
) -> str:
    """The kernel tier a matfree operator with these settings resolves
    to, without building one: ``"fused+openmp:N"``, ``"fused"``,
    ``"numpy-threads:N"``, or ``"numpy"``.

    This is the *configured* tier — per-operator size gating (an element
    count too small to split across ``N`` workers) can still downgrade a
    specific apply to serial; :attr:`MatrixFreeStiffness.tier` on a
    built operator is authoritative.
    """
    n = resolve_threads(threads)
    if use_fused is not False and fused_supported(physics, dim, order):
        if n > 1 and fused.omp_enabled():
            return f"fused+openmp:{n}"
        return "fused"
    return f"numpy-threads:{n}" if n > 1 else "numpy"
