"""Exact unitary propagation and Lindblad evolution.

Matrix exponentials of Hamiltonians go through Hermitian eigendecomposition,
which keeps propagators unitary to roundoff.  ``_require_hermitian`` is the
package's one Hermiticity check of a Hamiltonian; ``propagator_matrix`` and
``LindbladSpec`` run it.  Open-system evolution applies exp(L t) exactly
through a channel built once per spec, time and start state
(``lindblad_channel``): a forward traversal of the sparsity of the
effective non-Hermitian Hamiltonian and the jump operators finds the
Liouville indices L reaches from the start's support, that set splits into
the blocks L never mixes, and each block is exponentiated once by scaling
and squaring, with its Taylor polynomial evaluated by Paterson-Stockmeyer.
Applying the channel is one gather of the blocks' indices, one small
matrix-vector product per block on a contiguous slice, and one scatter.
The fixed-step fourth-order (RK4) integrator ``integrate_master`` is kept
as its independent oracle in the tests; its right-hand side is the plain
commutator-plus-dissipator form.  Both guard the trace, which is asserted,
never renormalized, and validate every output state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .hilbert import HilbertSpace, Operator, QuantumState, SpaceMismatchError

HERMITIAN_ATOL = 1e-12
DEFAULT_TRACE_TOL = 1e-8
_EPS = np.finfo(float).eps


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

    Raises ValueError for a non-finite t and NonHermitianError before any
    work; serves ``propagator`` and callers whose basis is not a
    HilbertSpace (an excitation-capped one, say).  With minus_identity it
    returns exp(-i h t) - 1, to full relative precision where that
    difference is small.
    """
    if not math.isfinite(t):
        raise ValueError(f"t must be finite, got {t}")
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


def _by_column(p: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The row indices of p's nonzero entries in column order, and where each column's rows start."""
    cols, rows = np.nonzero(p.T)
    return rows, np.searchsorted(cols, np.arange(p.shape[1] + 1))


def _links(terms, idx: np.ndarray, dim: int) -> tuple[np.ndarray, np.ndarray]:
    """The (output, input) links of L out of the row-major Liouville indices idx.

    Index i d + j stands for rho_ij.  Each term A (x) conj(B) of L, given as
    the ``_by_column`` pair of A and B, links input (k, l) to output (i, j)
    wherever A_ik and B_jl are nonzero.
    """
    k, l = np.divmod(idx, dim)
    out, inp = [], []
    for (rows_a, ptr_a), (rows_b, ptr_b) in terms:
        n_b = ptr_b[l + 1] - ptr_b[l]
        count = (ptr_a[k + 1] - ptr_a[k]) * n_b
        f = np.repeat(np.arange(idx.size), count)  # the input each link leaves
        p = np.arange(f.size) - np.repeat(np.cumsum(count) - count, count)  # its place among them
        out.append(rows_a[ptr_a[k[f]] + p // n_b[f]] * dim + rows_b[ptr_b[l[f]] + p % n_b[f]])
        inp.append(idx[f])
    return np.concatenate(out), np.concatenate(inp)


def _reachable_labels(k_eff: np.ndarray, jumps, start: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """R, the sorted row-major Liouville indices L reaches from start's support, and their block labels.

    In row-major order L = K (x) 1 + 1 (x) conj(K) + sum_L L (x) conj(L), so
    a forward traversal of its ``_links`` from the nonzero entries of start
    and of its transpose finds R, which L never leaves.  R splits into the
    connected components of the links it holds, found by propagating the
    least position in R along them; a label is the least position of its
    component.
    """
    dim = k_eff.shape[0]
    eye, k_cols = _by_column(np.eye(dim)), _by_column(k_eff)
    terms = [(k_cols, eye), (eye, k_cols)] + [(_by_column(l_op),) * 2 for l_op, _, _ in jumps]
    reached = ((start != 0) | (start.T != 0)).ravel()  # transposition-closed, as L is
    frontier = np.flatnonzero(reached)
    out, inp = [], []
    while frontier.size:
        to, fro = _links(terms, frontier, dim)
        out.append(to)
        inp.append(fro)
        frontier = np.unique(to[~reached[to]])
        reached[frontier] = True
    reach = np.flatnonzero(reached)
    src, dst = np.searchsorted(reach, np.concatenate(out)), np.searchsorted(reach, np.concatenate(inp))
    labels = np.arange(reach.size)
    while True:
        low = np.minimum(labels[src], labels[dst])
        new = labels.copy()
        np.minimum.at(new, src, low)
        np.minimum.at(new, dst, low)
        new = new[new]  # a label is a position of the same component, so follow it
        if np.array_equal(new, labels):
            return reach, labels
        labels = new


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


def _block_generators(spec: LindbladSpec,
                      start: np.ndarray) -> list[tuple[np.ndarray, np.ndarray, np.ndarray | None]]:
    """(idx, L on idx, partner idx or None) for one block of each conjugate pair of R.

    R is the set of ``_reachable_labels`` from start.  L(rho^+) = L(rho)^+,
    so R holds the transposed pair (j, i) of each of its (i, j), and the
    block of the transposed pairs, taken in the order of idx, is the complex
    conjugate of the block of idx.  The partner is None when that block is
    idx itself.  Each idx is sorted.
    """
    dim = spec.hamiltonian.space.total_dim
    jumps = _jump_terms(spec)
    k_eff = -1j * spec.hamiltonian.matrix - 0.5 * sum(ldl for _, _, ldl in jumps)
    reach, labels = _reachable_labels(k_eff, jumps, start)
    order = np.argsort(labels, kind="stable")
    out = []
    for pos in np.split(order, np.flatnonzero(np.diff(labels[order])) + 1):
        idx = reach[pos]
        i, j = np.divmod(idx, dim)
        partner = j * dim + i
        mate = labels[np.searchsorted(reach, partner[0])]
        if mate < pos[0]:
            continue  # already served as the partner of an earlier block
        out.append((idx, _block_generator(idx, k_eff, jumps), None if mate == pos[0] else partner))
    return out


def _expm(a: np.ndarray) -> np.ndarray:
    """exp(a) by scaling and squaring a Taylor polynomial (Higham, SIAM J. Matrix Anal. Appl. 26, 1179 (2005)).

    a is scaled by 2^-s to 1-norm theta below 1.  Since max |X a| <= max |X| ||a||_1,
    the j-th Taylor term's largest entry is then at most theta^j / j!, so the
    degree m is fixed up front as the smallest with theta^m / m! at or below
    double precision, and the tail stays below one such term.  The
    polynomial is evaluated by Paterson-Stockmeyer (SIAM J. Comput. 2, 60
    (1973)): the powers a^2 .. a^q with q ~ sqrt(m), then Horner in a^q over
    blocks of q terms, about 2 sqrt(m) products in all.  The result is
    squared s times.  A non-finite a raises TraceDriftError.
    """
    norm = float(np.linalg.norm(a, 1))
    if not math.isfinite(norm):
        raise TraceDriftError(f"exp(L t) of a generator with non-finite 1-norm {norm}")
    s = max(0, int(np.frexp(norm)[1]))
    theta = norm / 2.0**s
    a = a / 2.0**s
    m, bound = 1, theta
    while bound > _EPS:
        m += 1
        bound *= theta / m
    q = max(1, round(math.sqrt(m)))
    powers = [np.eye(a.shape[0], dtype=complex), a]
    for _ in range(q - 1):
        powers.append(powers[-1] @ a)
    coef = [1.0 / math.factorial(j) for j in range(m + 1)]
    top = -(-m // q) - 1  # the top block, of degree m - top q in 1 .. q, needs no a^(q+1)
    out = sum(coef[top * q + i] * powers[i] for i in range(m - top * q + 1))
    for k in range(top - 1, -1, -1):
        out = out @ powers[q] + sum(coef[k * q + i] * powers[i] for i in range(q))
    for _ in range(s):
        out = out @ out
    return out


@dataclass(frozen=True, eq=False)
class LindbladChannel:
    """exp(L t) of one LindbladSpec and time on the indices a start reaches.

    Built by ``lindblad_channel``.  blocks pairs each set of row-major
    Liouville indices that L never mixes with its exponentiated block, and
    support is R, the sorted union of those sets, which partition it.  The
    sets are also kept concatenated in block order, with each block's slice
    of the concatenation, so that an application gathers once.
    """

    space: HilbertSpace
    blocks: tuple[tuple[np.ndarray, np.ndarray], ...]
    support: np.ndarray = field(init=False)
    _gather: np.ndarray = field(init=False, repr=False)
    _slices: tuple[tuple[slice, np.ndarray], ...] = field(init=False, repr=False)

    def __post_init__(self):
        gather = np.concatenate([idx for idx, _ in self.blocks])
        ends = np.cumsum([idx.size for idx, _ in self.blocks])
        object.__setattr__(self, "support", np.sort(gather))
        object.__setattr__(self, "_gather", gather)
        object.__setattr__(self, "_slices", tuple(
            (slice(end - idx.size, end), block) for end, (idx, block) in zip(ends, self.blocks)))

    def __call__(self, rho0: QuantumState) -> QuantumState:
        """exp(L t) rho0 (see ``_apply``); SpaceMismatchError if rho0 is on another space."""
        if rho0.space != self.space:
            raise SpaceMismatchError("initial state space differs from Lindblad space")
        return self._apply(rho0.density())

    def _apply(self, rho: np.ndarray) -> QuantumState:
        """exp(L t) rho for a density matrix rho on the channel's space, exact zeros off R.

        One gather of R in block order, one matrix-vector product per block
        on its contiguous slice, one scatter.  rho itself is not validated:
        the caller passes a state, or one valid by construction.  Raises
        ValueError if rho has a nonzero entry outside R, and TraceDriftError
        if |tr out - tr rho| exceeds DEFAULT_TRACE_TOL; the trace is asserted,
        never renormalized.  The output is Hermitian-scrubbed and validated
        as a QuantumState.
        """
        flat = rho.ravel()
        x = flat[self._gather]
        if np.count_nonzero(flat) > np.count_nonzero(x):
            raise ValueError("state has support outside the set the channel was built on")
        y = np.empty(x.size, dtype=complex)
        for part, block in self._slices:
            y[part] = block @ x[part]
        out = np.zeros(flat.size, dtype=complex)
        out[self._gather] = y
        out = out.reshape(rho.shape)
        drift = abs(np.trace(out) - np.trace(rho))
        if not drift <= DEFAULT_TRACE_TOL:
            raise TraceDriftError(f"trace drift {drift:.3e} exceeds tolerance {DEFAULT_TRACE_TOL:.1e}")
        out = 0.5 * (out + out.conj().T)  # scrub roundoff anti-Hermitian part
        return QuantumState(self.space, "mixed", out)


def lindblad_channel(spec: LindbladSpec, t: float, start: np.ndarray) -> LindbladChannel:
    """The map exp(L t) of the time-independent Liouvillian L of spec, to roundoff,
    on every state whose support lies in what L reaches from start's.

    start is a d x d matrix, the first state the channel will see, say;
    only its nonzero pattern and that of its transpose are read.  The
    reachable set R is invariant, so exp(L t) restricted to R is
    exp(L t |_R) exactly.  R is split into the blocks L never mixes and each
    block is exponentiated once by ``_expm``, one block of each conjugate
    pair only (``_block_generators``); a full-support start gives the blocks
    of the whole Liouville space.  A build costs far more than one application, so
    a channel pays off when one build serves many.  Raises ValueError for a
    negative or non-finite t or a start that is zero or not d x d.
    """
    if not (math.isfinite(t) and t >= 0):
        raise ValueError(f"t must be finite and nonnegative, got {t}")
    dim = spec.hamiltonian.space.total_dim
    if start.shape != (dim, dim) or not start.any():
        raise ValueError(f"start must be a nonzero {dim} x {dim} matrix, got shape {start.shape}")
    blocks = []
    for idx, gen, partner in _block_generators(spec, start):
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
    Raises ValueError for a non-finite t_final or slices < 1.
    """
    if not math.isfinite(t_final):
        raise ValueError(f"t_final must be finite, got {t_final}")
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
