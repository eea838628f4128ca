"""Single-shot pulse design: CRAB detuning shaping plus a BFGS search.

Shapes the common qutrit detuning over one measurement interval so that a
single ground-state projection yields the Bell state.  The search runs over
the truncated trigonometric coefficients of the pulse (CRAB: Caneva,
Calarco & Montangero, PRA 84, 022326 (2011)); each restart runs BFGS from a
fresh uniform draw in the restart box.  ``optimize_single_shot(G, n_omega,
restarts, seed)`` is the whole search: the coupling G fixes the interval and
the pulse's boundary value, n_omega the number of CRAB frequencies, and
restart r draws its start with seed seed + r.

The search objective is exact on the two 2x2 excitation blocks the shaped
Hamiltonian closes on, and so is its gradient in the coefficients, taken in
reverse mode through the SU(2) slice products (as in GOAT: Machnes et al.,
PRL 120, 150401 (2018)).  The envelope-weighted CRAB table at the slice
midpoints is built once per search; a call takes the slice detunings as one
matvec, scans both blocks' slice products forward once, reads every suffix
product as the full product times the adjoint of a prefix (the products are
unitary), and maps the per-slice derivatives back with the table's
transpose.  In ``tests/conftest.py`` the value's oracle is the
slice-by-slice product loop ``sequential_block_amplitudes``, and the
gradient's is ``looped_block_gradient``, with explicit prefix and suffix
lists.  Every reported number is read from this reduction; the 27-dim
pipeline ``evaluate_single_shot`` runs in no search, and stays only as the
independent check of c08, the tests and perfbench.

Both blocks' slices share one slice-major array: entry 2k + b is slice k of
block b.  Each elementwise step then runs once over both blocks, and each
level of the Hillis-Steele scan is one contiguous 1-D product x[2s:] o x[:-2s]
rather than a product of two strided rows.  The layout moves no arithmetic:
every entry sees the same float operations in the same order as in a scan
along the rows of a (2, slices) array, so value, gradient, search and trace
are bit-identical to it (``tests/conftest.py`` freezes that scan as the
reference the tests compare with ``==``).  What keeps them so: real and
imaginary parts are written as the float products the complex expressions
form; every scan level takes its four products before it overwrites alpha
or beta; a rewritten sum differs from the original only by exact
negations; and the gradient leaves as a C-contiguous (2, slices) array, so
the adjoint contraction sums in the same order.

A restart ends when f = -F has fallen by at most STALL_ULPS ulps of |f| for
STALL_ITERATIONS iterations in a row: near F = 1 the objective is flat to
round-off, and a gradient tolerance would keep converged restarts iterating.
It also ends after MAX_CALLS objective calls, or when its line search would
step shorter than SPREAD_TOL.  The search and its trace cut the interval into
DEFAULT_SLICES midpoint slices.  The search reads these constants when it is
called, and no config sets them.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .dynamics import time_ordered_propagator
from .dynamics import propagator  # noqa: F401  (perfbench's tracer looks the propagator up here)
from .hilbert import QuantumState, product_state, superposed_state, bell_state, fidelity
from .measurement import _fidelity_and_norm, apply_projection, interval_for_target
from .model import (EffectiveParams, PulseCoefficients, _joint_space, _magnon_space, _with_ground,
                    build_time_dependent_jc)

DEFAULT_SLICES = 512
SINGLE_SHOT_CUTOFF = 3
STALL_ULPS = 4  # a decrease of f by at most this many ulps of |f| is no progress
STALL_ITERATIONS = 3  # iterations in a row without progress that end a restart
ARMIJO = 1e-4  # sufficient-decrease constant of the backtracking line search
MAX_CALLS = 4000  # objective calls (value and gradient) per restart
SPREAD_TOL = 1e-10  # shortest line-search step, in units of the restart box (largest coordinate)


class ObjectiveError(RuntimeError):
    """The objective returned a non-finite value or gradient."""


@dataclass(frozen=True, eq=False)
class OptimizationResult:
    """Best pulse found, its fidelity, probability and time trace, all from the block reduction."""

    pulse: PulseCoefficients
    fidelity: float
    success_probability: float
    times: np.ndarray
    fidelity_trace: np.ndarray
    iterations: int
    baseline_fidelity: float


def nelder_mead(objective, x0):
    """Minimize with the standard simplex moves.

    Reflection 1.0, expansion 2.0, contraction 0.5, shrink 0.5.  Terminates
    when both the function spread and the vertex spread fall below
    SPREAD_TOL, or after MAX_CALLS iterations.  Deterministic for a given
    starting point.  Returns (x_best, f_best).  The pulse search no longer
    calls it (it runs ``bfgs`` on the exact gradient); perfbench's tracer
    still wraps it by name.
    """
    x0 = np.asarray(x0, dtype=float)
    n = x0.size
    if n == 0:
        return x0, _checked(objective, x0)

    sim = np.tile(x0, (n + 1, 1))
    for i in range(n):
        sim[i + 1, i] += 0.25 * max(1.0, abs(x0[i]))
    fvals = np.array([_checked(objective, x) for x in sim])

    for _ in range(MAX_CALLS):
        order = np.argsort(fvals, kind="stable")
        sim, fvals = sim[order], fvals[order]
        f_spread = fvals[-1] - fvals[0]
        x_spread = np.abs(sim[1:] - sim[0]).max()
        if f_spread < SPREAD_TOL and x_spread < SPREAD_TOL:
            break
        centroid = sim[:-1].mean(axis=0)
        xr = centroid + 1.0 * (centroid - sim[-1])
        fr = _checked(objective, xr)
        if fr < fvals[0]:
            xe = centroid + 2.0 * (xr - centroid)
            fe = _checked(objective, xe)
            sim[-1], fvals[-1] = (xe, fe) if fe < fr else (xr, fr)
        elif fr < fvals[-2]:
            sim[-1], fvals[-1] = xr, fr
        else:
            if fr < fvals[-1]:
                xc = centroid + 0.5 * (xr - centroid)
            else:
                xc = centroid - 0.5 * (centroid - sim[-1])
            fc = _checked(objective, xc)
            if fc < min(fr, fvals[-1]):
                sim[-1], fvals[-1] = xc, fc
            else:
                for i in range(1, n + 1):
                    sim[i] = sim[0] + 0.5 * (sim[i] - sim[0])
                    fvals[i] = _checked(objective, sim[i])

    best = int(np.argmin(fvals))
    return sim[best].copy(), float(fvals[best])


def _checked(objective, x):
    """objective(x), a value or a (value, gradient) pair, raising ObjectiveError
    on a non-finite value or gradient entry."""
    out = objective(x)
    parts = out if isinstance(out, tuple) else (out,)
    if not all(np.isfinite(part).all() for part in parts):
        raise ObjectiveError(f"objective returned a non-finite value or gradient at x = {x}")
    return out


def bfgs(fun, x0):
    """Minimize fun: x -> (value, gradient) by BFGS with Armijo backtracking.

    The inverse-Hessian estimate starts as the identity, rescaled by the
    first accepted step's curvature; an update whose step and gradient
    change have no positive overlap is skipped.  Stops when f has fallen by
    at most STALL_ULPS ulps of |f| for STALL_ITERATIONS iterations in a row,
    when backtracking would shorten the step below SPREAD_TOL (largest
    coordinate) without an Armijo decrease, or when the calls to fun reach
    MAX_CALLS.  Deterministic.  Returns (x_best, f_best, calls).
    """
    x = np.asarray(x0, dtype=float)
    f, grad = _checked(fun, x)
    calls, stalled = 1, 0
    hinv = np.eye(x.size)
    scaled = False
    while calls < MAX_CALLS and stalled < STALL_ITERATIONS:
        direction = -hinv @ grad
        slope = grad @ direction
        if not slope < 0:  # a zero gradient: no descent direction left
            break
        step = 1.0
        while True:
            f_new, grad_new = _checked(fun, x + step * direction)
            calls += 1
            if f_new <= f + ARMIJO * step * slope:
                break
            step *= 0.5
            if calls >= MAX_CALLS or step * np.abs(direction).max() < SPREAD_TOL:
                return x, f, calls
        s, y = step * direction, grad_new - grad
        sy = s @ y
        if sy > 0:
            if not scaled:
                hinv *= sy / (y @ y)
                scaled = True
            hy = hinv @ y
            hinv += ((sy + y @ hy) * np.outer(s, s) / sy - np.outer(hy, s) - np.outer(s, hy)) / sy
        stalled = stalled + 1 if f - f_new <= STALL_ULPS * np.spacing(abs(f)) else 0
        x, f, grad = x + s, f_new, grad_new
    return x, f, calls


def _pulse_from_vector(x: np.ndarray, n_omega: int, tau: float, g: float) -> PulseCoefficients:
    return PulseCoefficients(a=tuple(x[:n_omega]), b=tuple(x[n_omega:]), tau_total=tau, G=g)


def _su2_product(a2, b2, a1, b1):
    """(alpha, beta) of [[a2, b2], [-b2*, a2*]] times [[a1, b1], [-b1*, a1*]]."""
    return a2 * a1 - b2 * b1.conj(), a2 * b1 + b2 * a1.conj()


def _running_products(alpha, beta):
    """Inclusive running products of the slice-major pairs, later slice times earlier.

    Entry 2k + b is slice k of block b, so entry i's predecessor s slices back
    is entry i - 2s of the same block.  Hillis-Steele scan: log2(slices)
    doubling steps, each one contiguous 1-D product x[2s:] o x[:-2s] of the
    ``_su2_product`` formula, its four products taken before alpha or beta
    is overwritten; entry 2k + b ends as block b's product of slices k,
    k-1, ..., 0.  Each entry sees the same products in the same order as a scan along the
    rows of a (2, slices) array, so the result is bit-identical to it.
    """
    alpha, beta = alpha.copy(), beta.copy()
    step = 2
    while step < alpha.size:
        a2, b2, a1, b1 = alpha[step:], beta[step:], alpha[:-step], beta[:-step]
        aa, bb, ab, ba = a2 * a1, b2 * b1.conj(), a2 * b1, b2 * a1.conj()
        np.subtract(aa, bb, out=a2)
        np.add(ab, ba, out=b2)
        step *= 2
    return alpha, beta


def _block_slices(deltas: np.ndarray, g: float, h: float):
    """SU(2) entries of every slice of both excitation blocks, and their p-derivatives.

    The shaped Hamiltonian closes on 2x2 blocks {|g;1 excitation>, bright
    state} with couplings G and sqrt(2) G; the midpoint-sliced product of
    their exponentials reproduces the full-space pipeline exactly (same
    invariant subspaces, same slicing).  A slice of width h at detuning d is
    exp(-i p h) times the SU(2) matrix S = [[alpha, beta], [-beta*, alpha*]],
    p = d/2, and the derivative of S in p has the same form.  Returns p,
    shape (slices,), and alpha, beta, dalpha, dbeta slice-major, shape
    (2 slices,): entry 2k + b is slice k of block b.  The real math runs once
    on the flat arrays and is written as the real and imaginary parts of
    the complex entries, each the same float product as in
    alpha = cos(qh) + i p sin(qh)/q.
    """
    p = 0.5 * deltas
    pairs = np.repeat(p, 2)
    minus_c = np.empty(2 * p.size)  # -c, whose square is c^2 and whose products are -(x c)
    minus_c[0::2], minus_c[1::2] = -g, -math.sqrt(2.0) * g
    # H = [[0, c], [c, d]] = p I + qz sz + qx sx with p = d/2, qz = -d/2
    q = np.sqrt(pairs * pairs + minus_c * minus_c)
    qh = q * h
    cq = np.cos(qh)
    sq = np.sin(qh) / q
    dsq = (h * cq - sq) * pairs / (q * q)  # d(sin(qh)/q)/dp, with dq/dp = p/q
    alpha, beta, dalpha, dbeta = np.zeros((4, 2 * p.size), dtype=complex)
    alpha.real = cq
    np.multiply(sq, pairs, out=alpha.imag)
    np.multiply(sq, minus_c, out=beta.imag)
    np.multiply(-h * sq, pairs, out=dalpha.real)
    np.add(dsq * pairs, sq, out=dalpha.imag)
    np.multiply(dsq, minus_c, out=dbeta.imag)
    return p, alpha, beta, dalpha, dbeta


def _block_amplitudes_and_gradient(deltas: np.ndarray, g: float, h: float):
    """Ground-return amplitudes [a01, a11] of the single- and double-excitation
    blocks, and their derivatives with respect to every slice detuning.

    Every product of the slices of ``_block_slices`` is carried by (alpha,
    beta) pairs, slice-major.  Reverse mode: one scan gives the inclusive
    prefix products P_k = S_k...S_0 of both blocks; the last prefix is the
    full product T, and slice k's derivative of it is suffix(k+1) dS_k P_k-1.
    The prefixes are unitary, so suffix(k+1) = S_N-1...S_k+1 = T P_k^+, one
    product more.  Returns shapes (2,) and (2, slices), the latter
    C-contiguous.
    """
    p, alpha, beta, dalpha, dbeta = _block_slices(deltas, g, h)
    scan_a, scan_b = _running_products(alpha, beta)
    total_a, total_b = np.empty((2, p.size, 2), dtype=complex)  # each block's T at its slices
    total_a[:], total_b[:] = scan_a[-2:], scan_b[-2:]
    total_a, total_b = total_a.ravel(), total_b.ravel()
    # T P_k^+, the adjoint of (alpha, beta) being (alpha*, -beta); the signs
    # are folded into the sums, which negation leaves bit for bit the same
    after_a = total_a * scan_a.conj() + total_b * scan_b.conj()
    after_b = total_b * scan_a - total_a * scan_b
    before_a, before_b = np.empty((2, 2 * p.size), dtype=complex)  # P_k-1, with P_-1 = I
    before_a[:2], before_a[2:] = 1.0, scan_a[:-2]
    before_b[:2], before_b[2:] = 0.0, scan_b[:-2]
    mid_a, mid_b = _su2_product(dalpha, dbeta, before_a, before_b)
    dtotal = after_a * mid_a - after_b * mid_b.conj()
    phase = np.exp(-1j * h * p.sum())
    # d/dd_k = (1/2) d/dp_k; the phase exp(-i h sum p) contributes -i h
    damps = 0.5 * phase * (dtotal - 1j * h * total_a)
    return phase * scan_a[-2:], damps.reshape(p.size, 2).T.copy()


def _block_objective(tau: float, g: float, n_omega: int, slices: int):
    """The search objective x = (a || b) -> (-F, -dF/dx) on the exact block reduction.

    The CRAB table at the slice midpoints is built once; a call is one
    matvec for the slice detunings, one scan over both blocks' slices, and
    one matvec with the table's transpose for the gradient.  With
    N = 1 + 2|a01|^2 + |a11|^2 and G = 2 dF/d(a*), that is
    G01 = -4F a01/N and G11 = ((1 + a11) - 2F a11)/N, dF = Re(G* da).
    """
    h = tau / slices
    mids = (np.arange(slices) + 0.5) * h
    basis = _pulse_from_vector(np.zeros(2 * n_omega), n_omega, tau, g).basis(mids)

    def objective(x):
        (a01, a11), damps = _block_amplitudes_and_gradient(g * (1.0 + basis @ x), g, h)
        fid, norm = _fidelity_and_norm(a01, a01, a11)
        adjoint = np.array([-4.0 * fid * a01, (1.0 + a11) - 2.0 * fid * a11]) / norm
        dfid = (adjoint.conj() @ damps).real
        return -fid, -g * (basis.T @ dfid)

    return objective


def evaluate_single_shot(pulse: PulseCoefficients, slices: int = DEFAULT_SLICES):
    """Full-pipeline evaluation of one shaped pulse.

    Builds the time-dependent Hamiltonian, forms the time-ordered propagator,
    applies it to |g> (x) |+>|+>, projects the qutrit onto its ground state,
    and returns (fidelity to the Bell state, success probability, conditional
    magnon state).  No run calls it: c08, the tests and perfbench use it as
    the independent check of the block reduction.
    """
    mag = _magnon_space(SINGLE_SHOT_CUTOFF)
    plus = superposed_state(SINGLE_SHOT_CUTOFF, 1)
    start = product_state(mag, {"n": plus, "m": plus})
    jc = _joint_space(mag)
    hfun = build_time_dependent_jc(pulse, pulse.G, jc)
    u = time_ordered_propagator(hfun, pulse.tau_total, slices)
    state, prob = apply_projection(QuantumState(jc, "pure", u.matrix @ _with_ground(start.data)))
    return fidelity(state, bell_state(mag, 1, +1)), prob, state


def _fidelity_time_trace(pulse: PulseCoefficients, slices: int) -> tuple[np.ndarray, np.ndarray, float]:
    """Conditional Bell fidelity of the ground branch at every slice boundary,
    and the success probability at the last one.

    The ground-return amplitudes after k slices are the running products of
    ``_block_slices`` (the search's scan, read as (2, slices)) times their
    phase exp(-i h (p_0 + ... + p_k-1)); time 0 is the identity, a01 = a11 = 1.
    The trace is clamped to [0, 1].
    """
    h = pulse.tau_total / slices
    p, alpha, beta, _, _ = _block_slices(pulse.detuning((np.arange(slices) + 0.5) * h), pulse.G, h)
    running = _running_products(alpha, beta)[0].reshape(slices, 2).T
    amps = np.concatenate((np.ones((2, 1)), np.exp(-1j * h * np.cumsum(p)) * running), axis=1)
    trace, norm = _fidelity_and_norm(amps[0], amps[0], amps[1])
    return np.arange(slices + 1) * h, np.clip(trace, 0.0, 1.0), float(norm[-1]) / 4.0


def optimize_single_shot(G: float, n_omega: int, restarts: int = 8, seed: int = 0) -> OptimizationResult:
    """Search the n_omega-term pulse of coupling G maximizing the one-measurement fidelity.

    The control interval is the resonant measurement interval, cut into
    DEFAULT_SLICES slices, and the boundary detuning is pinned to G.  Each
    of the ``restarts`` BFGS runs ends by the module's stopping rules
    (MAX_CALLS, SPREAD_TOL, STALL_*); restart r draws its start uniformly
    from the box |x_i| <= 2/tau^2 (envelope bounded to a few G) with seed
    seed + r, and runs ``bfgs`` in
    coordinates scaled by that box on the exact block reduction of the
    objective and its gradient.  The lowest final value wins, ties going to
    the earlier restart; a restart replaces the constant pulse (zero
    coefficients) only with a strictly lower value, so n_omega = 0 returns
    the constant pulse.  The fidelity and the baseline are minus the
    objective at the winner and at zero; P and the trace come from one scan
    of the winner's slices (``_fidelity_time_trace``).  The search compares
    raw values, and the reported fidelities and trace are clamped to [0, 1]:
    near F = 1, F = |1 + a11|^2 / (2N) can round an ulp above 1.
    ``iterations`` is the number of objective calls of the winning restart
    (0 for the constant pulse).
    """
    for name, value, least in (("n_omega", n_omega, 0), ("restarts", restarts, 1), ("seed", seed, 0)):
        if not (isinstance(value, numbers.Integral) and value >= least):
            raise ValueError(f"{name} must be an integer >= {least}, got {value!r}")
    tau0 = interval_for_target(1, EffectiveParams(G_e=G, G_f=G))  # the pulse sets the detuning
    dim = 2 * n_omega
    objective = _block_objective(tau0, G, n_omega, DEFAULT_SLICES)
    scale = 2.0 / tau0**2  # the restart box; the search runs in units of it

    def scaled(y):
        f, grad = objective(scale * y)
        return f, scale * grad

    # a value that overflows is non-finite, which _checked rejects: no warning on the way
    with np.errstate(over="ignore", invalid="ignore"):
        f_zero = _checked(objective, np.zeros(dim))[0]
        best_x, best_f, best_calls = np.zeros(dim), f_zero, 0
        for restart in range(restarts):
            rng = np.random.default_rng(seed + restart)
            y, f, calls = bfgs(scaled, rng.uniform(-scale, scale, size=dim) / scale)
            if f < best_f:  # strict: ties keep the lowest restart seed
                best_x, best_f, best_calls = scale * y, f, calls

    pulse = _pulse_from_vector(best_x, n_omega, tau0, G)
    times, trace, prob = _fidelity_time_trace(pulse, DEFAULT_SLICES)
    return OptimizationResult(
        pulse=pulse,
        fidelity=float(np.clip(-best_f, 0.0, 1.0)),
        success_probability=prob,
        times=times,
        fidelity_trace=trace,
        iterations=best_calls,
        baseline_fidelity=float(np.clip(-f_zero, 0.0, 1.0)),
    )
