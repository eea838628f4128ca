"""Exact unitary propagation and Lindblad evolution.

Matrix exponentials of Hamiltonians go through Hermitian eigendecomposition,
which keeps propagators unitary to roundoff.  ``_require_hermitian`` is the
package's one Hermiticity check of a Hamiltonian; ``propagator_matrix`` and
``LindbladSpec`` run it.  Open-system evolution applies exp(L t) exactly
through a channel built once per spec and time (``lindblad_channel``): the
Liouville space splits into the blocks that L never mixes, found from the
sparsity of the effective non-Hermitian Hamiltonian and the jump operators,
and each block is exponentiated once by scaling and squaring; applying the
channel is one small matrix-vector product per block.  The fixed-step
fourth-order (RK4) integrator ``integrate_master`` is kept as its
independent oracle in the tests; its right-hand side is the plain
commutator-plus-dissipator form.  Both guard the trace, which is asserted,
never renormalized.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .hilbert import HilbertSpace, Operator, QuantumState, SpaceMismatchError

HERMITIAN_ATOL = 1e-12
DEFAULT_TRACE_TOL = 1e-8
_EPS = np.finfo(float).eps
# With the 1-norm scaled below 1 the j-th Taylor term of exp is below 1 / j!,
# so 30 terms (1 / 30! ~ 4e-33) only fail on a non-finite generator.
_TAYLOR_MAX_TERMS = 30


class NonHermitianError(ValueError):
    """A Hermitian matrix was required."""


class TraceDriftError(RuntimeError):
    """Evolution lost the trace beyond tolerance, or its series did not converge."""


@dataclass(frozen=True, eq=False)
class LindbladSpec:
    """Hermitian Hamiltonian plus (collapse operator, rate) pairs on one space."""

    hamiltonian: Operator
    collapse_ops: tuple[tuple[Operator, float], ...]

    def __post_init__(self):
        _require_hermitian(self.hamiltonian.matrix)
        ops = tuple((op, float(rate)) for op, rate in self.collapse_ops)
        object.__setattr__(self, "collapse_ops", ops)
        for op, rate in ops:
            if not (rate >= 0 and math.isfinite(rate)):  # NaN fails too
                raise ValueError(f"collapse rate must be nonnegative and finite, got {rate}")
            if not np.isfinite(op.matrix).all():
                raise ValueError("collapse operator has non-finite entries")
            if op.space != self.hamiltonian.space:
                raise SpaceMismatchError("collapse operator space differs from Hamiltonian space")


@dataclass(frozen=True)
class IntegratorConfig:
    dt: float

    def __post_init__(self):
        if not (self.dt > 0 and math.isfinite(self.dt)):  # NaN fails too
            raise ValueError(f"dt must be positive and finite, got {self.dt}")


def _require_hermitian(matrix: np.ndarray):
    """The one Hermiticity check: max |H - H^+| <= HERMITIAN_ATOL * max(1, max |H|)."""
    scale = max(1.0, float(np.abs(matrix).max()))
    dev = float(np.abs(matrix - matrix.conj().T).max())
    if not dev <= HERMITIAN_ATOL * scale:  # NaN fails too
        raise NonHermitianError(f"matrix not Hermitian: max |H - H^+| = {dev:.3e}")


def propagator_matrix(h: np.ndarray, t: float, minus_identity: bool = False) -> np.ndarray:
    """exp(-i h t) of a Hermitian matrix via its eigendecomposition.

    Raises NonHermitianError first; serves ``propagator`` and callers whose
    basis is not a HilbertSpace (an excitation-capped one, say).  With
    minus_identity it returns exp(-i h t) - 1, to full relative precision
    where that difference is small.
    """
    _require_hermitian(h)
    evals, evecs = np.linalg.eigh(h)
    phases = (np.expm1 if minus_identity else np.exp)(-1j * evals * t)
    return (evecs * phases) @ evecs.conj().T


def propagator(H: Operator, t: float) -> Operator:
    """U = exp(-i H t) via Hermitian eigendecomposition."""
    return Operator(H.space, propagator_matrix(H.matrix, t))


def _lindblad_rhs(rho, h, jumps):
    out = -1j * (h @ rho - rho @ h)
    for l_op, l_dag, ldl in jumps:
        out += l_op @ rho @ l_dag - 0.5 * (ldl @ rho + rho @ ldl)
    return out


def _jump_terms(spec: LindbladSpec) -> list[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """(L, L^+, L^+ L) with L = sqrt(rate) A for each collapse operator of nonzero rate."""
    jumps = []
    for op, rate in spec.collapse_ops:
        if rate == 0.0:
            continue
        l_op = np.sqrt(rate) * op.matrix
        l_dag = l_op.conj().T
        jumps.append((l_op, l_dag, l_dag @ l_op))
    return jumps


def _invariant_labels(k_eff: np.ndarray, jumps) -> np.ndarray:
    """For each row-major Liouville index, the least index of the set L never leaves.

    Index i d + j stands for rho_ij.  K rho links (i, j) to (k, j) and
    rho K^+ links (j, i) to (j, k) wherever K has an entry (i, k); a jump
    L rho L^+ links (a, c) to (b, e) wherever L has entries (a, b) and
    (c, e).  The sets are the connected components of these links, found by
    propagating the least index along them.
    """
    dim = k_eff.shape[0]
    rows, cols = np.nonzero(k_eff)
    j = np.arange(dim)
    src = [(rows[:, None] * dim + j).ravel(), (j * dim + rows[:, None]).ravel()]
    dst = [(cols[:, None] * dim + j).ravel(), (j * dim + cols[:, None]).ravel()]
    for l_op, _, _ in jumps:
        a, b = np.nonzero(l_op)
        src.append((a[:, None] * dim + a).ravel())
        dst.append((b[:, None] * dim + b).ravel())
    src, dst = np.concatenate(src), np.concatenate(dst)
    labels = np.arange(dim * dim)
    while True:
        low = np.minimum(labels[src], labels[dst])
        new = labels.copy()
        np.minimum.at(new, src, low)
        np.minimum.at(new, dst, low)
        new = new[new]  # a label is an index of the same set, so follow it
        if np.array_equal(new, labels):
            break
        labels = new
    return labels


def _block_generator(idx: np.ndarray, k_eff: np.ndarray, jumps) -> np.ndarray:
    """L restricted to the row-major Liouville indices idx.

    Entry (i d + j, k d + l) of L is K_ik delta_jl + delta_ik conj(K_jl)
    + sum_L L_ik conj(L_jl).
    """
    i, j = np.divmod(idx, k_eff.shape[0])
    gen = (k_eff[np.ix_(i, i)] * (j[:, None] == j)
           + (i[:, None] == i) * k_eff[np.ix_(j, j)].conj())
    for l_op, _, _ in jumps:
        gen += l_op[np.ix_(i, i)] * l_op[np.ix_(j, j)].conj()
    return gen


def _block_generators(spec: LindbladSpec) -> list[tuple[np.ndarray, np.ndarray, np.ndarray | None]]:
    """(idx, L on idx, partner idx or None) for one block of each conjugate pair.

    L(rho^+) = L(rho)^+, so the block of the transposed pairs (j, i), taken
    in the order of idx, is the complex conjugate of the block of idx.  The
    partner is None when that block is idx itself.  Each idx is sorted.
    """
    dim = spec.hamiltonian.space.total_dim
    jumps = _jump_terms(spec)
    k_eff = -1j * spec.hamiltonian.matrix - 0.5 * sum(ldl for _, _, ldl in jumps)
    labels = _invariant_labels(k_eff, jumps)
    order = np.argsort(labels, kind="stable")
    out = []
    for idx in np.split(order, np.flatnonzero(np.diff(labels[order])) + 1):
        i, j = np.divmod(idx, dim)
        partner = j * dim + i
        if labels[partner[0]] < idx[0]:
            continue  # already served as the partner of an earlier block
        out.append((idx, _block_generator(idx, k_eff, jumps),
                    None if labels[partner[0]] == idx[0] else partner))
    return out


def _expm(a: np.ndarray) -> np.ndarray:
    """exp(a) by scaling and squaring a Taylor sum (Higham, SIAM J. Matrix Anal. Appl. 26, 1179 (2005)).

    a is scaled by 2^-s to 1-norm below 1.  Since max |X a| <= max |X| ||a||_1,
    each Taylor term's largest entry is then at most 1 / (j + 1) of the one
    before, so the sum stops at the first term whose largest entry is below
    double precision of the partial sum's, and the tail stays below one
    such term.  The result is squared s times.  A non-finite a never
    converges and raises TraceDriftError.
    """
    s = max(0, int(np.frexp(np.linalg.norm(a, 1))[1]))
    a = a / 2.0**s
    term = out = np.eye(a.shape[0], dtype=complex)
    for j in range(1, _TAYLOR_MAX_TERMS + 1):
        term = term @ a / j
        out = out + term
        if np.abs(term).max() <= _EPS * np.abs(out).max():
            break
    else:
        raise TraceDriftError(f"Taylor series of exp(L t) not converged after {_TAYLOR_MAX_TERMS} terms")
    for _ in range(s):
        out = out @ out
    return out


@dataclass(frozen=True, eq=False)
class LindbladChannel:
    """exp(L t) of one LindbladSpec and time, built by ``lindblad_channel``.

    blocks pairs each invariant set of row-major Liouville indices with its
    exponentiated block; together the sets partition range(d^2).
    """

    space: HilbertSpace
    blocks: tuple[tuple[np.ndarray, np.ndarray], ...]

    def __call__(self, rho0: QuantumState) -> QuantumState:
        """exp(L t) rho0: one matrix-vector product per block.

        Raises TraceDriftError if |tr rho - tr rho0| exceeds
        DEFAULT_TRACE_TOL; the trace is asserted, never renormalized.
        """
        if rho0.space != self.space:
            raise SpaceMismatchError("initial state space differs from Lindblad space")
        rho = rho0.density()
        flat = rho.ravel()
        out = np.empty_like(flat)
        for idx, block in self.blocks:
            out[idx] = block @ flat[idx]
        out = out.reshape(rho.shape)
        drift = abs(np.trace(out) - np.trace(rho))
        if not drift <= DEFAULT_TRACE_TOL:
            raise TraceDriftError(f"trace drift {drift:.3e} exceeds tolerance {DEFAULT_TRACE_TOL:.1e}")
        out = 0.5 * (out + out.conj().T)  # scrub roundoff anti-Hermitian part
        return QuantumState(self.space, "mixed", out)


def lindblad_channel(spec: LindbladSpec, t: float) -> LindbladChannel:
    """The map exp(L t) of the time-independent Liouvillian L of spec, to roundoff.

    L is split into the blocks of ``_invariant_labels`` and each block is
    exponentiated once by ``_expm``, one block of each conjugate pair only
    (``_block_generators``); no d^2 x d^2 array is formed unless L mixes
    every index.  A build costs far more than one application, so a channel
    pays off when one build serves many.  Raises ValueError for a negative
    or non-finite t.
    """
    if not (math.isfinite(t) and t >= 0):
        raise ValueError(f"t must be finite and nonnegative, got {t}")
    blocks = []
    for idx, gen, partner in _block_generators(spec):
        block = _expm(t * gen)
        blocks.append((idx, block))
        if partner is not None:
            blocks.append((partner, block.conj()))
    return LindbladChannel(spec.hamiltonian.space, tuple(blocks))


def integrate_master(
    rho0: QuantumState,
    spec: LindbladSpec,
    t_final: float,
    cfg: IntegratorConfig,
) -> QuantumState:
    """Propagate drho/dt = -i[H, rho] + sum_k gamma_k D[A_k] rho to t_final.

    Fixed-step RK4, kept as the independent oracle of lindblad_channel;
    raises TraceDriftError if |tr rho - 1| grows beyond DEFAULT_TRACE_TOL at
    any step.
    """
    if rho0.space != spec.hamiltonian.space:
        raise SpaceMismatchError("initial state space differs from Lindblad space")
    rho = rho0.density()
    if t_final == 0.0:
        return QuantumState(rho0.space, "mixed", rho)
    if t_final < 0:
        raise ValueError("t_final must be nonnegative")

    h = spec.hamiltonian.matrix
    jumps = _jump_terms(spec)
    n_steps = max(1, round(t_final / cfg.dt))
    h_step = t_final / n_steps
    for _ in range(n_steps):
        k1 = _lindblad_rhs(rho, h, jumps)
        k2 = _lindblad_rhs(rho + 0.5 * h_step * k1, h, jumps)
        k3 = _lindblad_rhs(rho + 0.5 * h_step * k2, h, jumps)
        k4 = _lindblad_rhs(rho + h_step * k3, h, jumps)
        rho = rho + (h_step / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        drift = abs(np.trace(rho) - 1.0)
        if not drift <= DEFAULT_TRACE_TOL:
            raise TraceDriftError(
                f"trace drift {drift:.3e} exceeds tolerance {DEFAULT_TRACE_TOL:.1e}; "
                f"reduce dt (currently {h_step:.3e})"
            )
    rho = 0.5 * (rho + rho.conj().T)  # scrub roundoff anti-Hermitian part
    return QuantumState(rho0.space, "mixed", rho)


def time_ordered_propagator(Hfun, t_final: float, slices: int) -> Operator:
    """Ordered product of midpoint-rule piecewise-constant exponentials.

    Hfun maps a time in [0, t_final] to an Operator; the result converges to
    the time-ordered exponential at second order in the slice width.
    """
    if slices < 1:
        raise ValueError(f"slices must be >= 1, got {slices}")
    h_step = t_final / slices
    first = Hfun(0.5 * h_step)
    space: HilbertSpace = first.space
    u = propagator(first, h_step).matrix
    for k in range(1, slices):
        hk = Hfun((k + 0.5) * h_step)
        if hk.space != space:
            raise SpaceMismatchError("Hfun returned an operator on a different space")
        u = propagator(hk, h_step).matrix @ u
    return Operator(space, u)
