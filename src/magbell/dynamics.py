"""Exact unitary propagation and Lindblad evolution.

Matrix exponentials of Hamiltonians go through Hermitian eigendecomposition,
which keeps propagators unitary to roundoff.  ``_require_hermitian`` is the
package's one Hermiticity check of a Hamiltonian; ``propagator_matrix`` and
``LindbladSpec`` run it.  Open-system evolution applies exp(L t) exactly and
matrix-free: a Taylor series of the Liouvillian action, summed to double
precision in substeps of norm bound <= 2 (``lindblad_action``).  Each Taylor
term is formed from the effective non-Hermitian Hamiltonian as X + X^+,
Hermitian by construction.  The fixed-step fourth-order (RK4) integrator
``integrate_master`` is kept as its independent oracle in the tests; its
right-hand side is the plain commutator-plus-dissipator form and shares no
code with the Taylor terms.  Both guard the trace, which is asserted, never
renormalized.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .hilbert import HilbertSpace, Operator, QuantumState, SpaceMismatchError

HERMITIAN_ATOL = 1e-12
DEFAULT_TRACE_TOL = 1e-8
_EPS = np.finfo(float).eps
# With substeps of norm bound theta <= 2 the j-th Taylor term is below
# theta^j / j! of the state, so 30 terms (2^30 / 30! ~ 4e-24) only fail on a
# non-finite state.
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
            if not rate >= 0:  # NaN fails too
                raise ValueError(f"collapse rate must be nonnegative, got {rate}")
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


def unitary_from_generator(S: Operator) -> Operator:
    """exp(S) for anti-Hermitian S, through the Hermitian form iS."""
    return Operator(S.space, propagator_matrix(1j * S.matrix, 1.0))


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


def _stacked_generator(h, jumps, scale):
    """(scale [K; L_1; ...; L_n], [L_k^+ / 2]) with K = -iH - sum_k L_k^+ L_k / 2.

    K is the effective non-Hermitian Hamiltonian times -i; the rows are
    stacked so that one product takes K rho and every L_k rho at once.
    """
    k_eff = -1j * h - 0.5 * sum(ldl for _, _, ldl in jumps)
    stacked = scale * np.vstack([k_eff] + [l_op for l_op, _, _ in jumps])
    return stacked, [0.5 * l_dag for _, l_dag, _ in jumps]


def _hermitian_term(rho, stacked, half_daggers):
    """scale * L(rho) for Hermitian rho, Hermitian by construction.

    With Y = scale [K; L_1; ...] rho, X = Y_K + sum_k Y_k L_k^+ / 2 is
    scale (K rho + sum_k L_k rho L_k^+ / 2), and L(rho) = X + X^+.  Keeping
    the jump term inside X keeps the roundoff of the anti-Hermitian part
    from building up over the series.
    """
    dim = rho.shape[0]
    y = stacked @ rho
    x = y[:dim]
    for k, half_dag in enumerate(half_daggers, 1):
        x = x + y[k * dim:(k + 1) * dim] @ half_dag
    return x + x.conj().T


def lindblad_action(rho0: QuantumState, spec: LindbladSpec, t: float) -> QuantumState:
    """exp(L t) rho0 for the time-independent Liouvillian L of spec, to roundoff.

    Matrix-free: no superoperator is formed.  b = 2 ||H|| + sum_k (||L_k||^2
    + ||L_k^+ L_k||) bounds the Frobenius-induced norm of L, and the interval
    is cut into s substeps with theta = (t / s) * b <= 2.  Each substep sums
    the Taylor series of exp(L t / s); a term is scale * L(rho) in the form
    X + X^+ of ``_hermitian_term``, from one product with the stacked rows
    [K; L_1; ...] of K = -iH - sum_k L_k^+ L_k / 2.  The sum stops at the
    first term j >= 2 whose norm falls below double precision of the partial
    sum: from there the bound shrinks each later term by theta / (j + 1)
    <= 2/3, so the tail stays below two such terms (cf. Al-Mohy & Higham,
    SIAM J. Sci. Comput. 33, 488 (2011)).  Raises ValueError for a negative
    or non-finite t, and TraceDriftError if a series does not converge or
    |tr rho - tr rho0| exceeds DEFAULT_TRACE_TOL.
    """
    if rho0.space != spec.hamiltonian.space:
        raise SpaceMismatchError("initial state space differs from Lindblad space")
    if not (math.isfinite(t) and t >= 0):
        raise ValueError(f"t must be finite and nonnegative, got {t}")
    rho = rho0.density()
    h = spec.hamiltonian.matrix
    jumps = _jump_terms(spec)
    bound = 2.0 * np.linalg.norm(h, 2) + sum(
        np.linalg.norm(l_op, 2) ** 2 + np.linalg.norm(ldl, 2) for l_op, _, ldl in jumps
    )
    n_sub = max(1, math.ceil(0.5 * t * bound))
    stacked, half_daggers = _stacked_generator(h, jumps, t / n_sub)
    tol = _EPS**2  # on squared Frobenius norms
    trace0 = np.trace(rho)
    for _ in range(n_sub):
        term = rho
        for j in range(1, _TAYLOR_MAX_TERMS + 1):
            term = _hermitian_term(term, stacked, half_daggers)
            term /= j
            rho = rho + term
            if j >= 2 and np.vdot(term, term).real <= tol * np.vdot(rho, rho).real:
                break
        else:
            raise TraceDriftError(
                f"Taylor series of exp(L t) not converged after {_TAYLOR_MAX_TERMS} terms"
            )
        drift = abs(np.trace(rho) - trace0)
        if not drift <= DEFAULT_TRACE_TOL:
            raise TraceDriftError(f"trace drift {drift:.3e} exceeds tolerance {DEFAULT_TRACE_TOL:.1e}")
    rho = 0.5 * (rho + rho.conj().T)  # scrub roundoff anti-Hermitian part
    return QuantumState(rho0.space, "mixed", rho)


def integrate_master(
    rho0: QuantumState,
    spec: LindbladSpec,
    t_final: float,
    cfg: IntegratorConfig,
) -> QuantumState:
    """Propagate drho/dt = -i[H, rho] + sum_k gamma_k D[A_k] rho to t_final.

    Fixed-step RK4, kept as the independent oracle of lindblad_action;
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
