"""Single-shot pulse design: CRAB detuning shaping plus Nelder-Mead search.

Shapes the common qutrit detuning over one measurement interval so that a
single ground-state projection yields the Bell state.  The search runs over
the truncated trigonometric coefficients of the pulse; restarts draw fresh
random simplexes and the best pulse is re-evaluated through the full
time-ordered-propagator pipeline before being reported.

The search objective is exact on the two 2x2 excitation blocks the shaped
Hamiltonian closes on.  The envelope-weighted CRAB table at the slice
midpoints is built once per search; a call takes the slice detunings as one
matvec and multiplies both blocks' slice propagators by pairwise tree
reduction.  Its oracle is the slice-by-slice product loop
``sequential_block_amplitudes`` in ``tests/conftest.py``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dynamics import propagator, time_ordered_propagator
from .hilbert import HilbertSpace, QuantumState, product_state, superposed_state, bell_state, fidelity
from .measurement import _ground_block, apply_projection, interval_for_target
from .model import LEVEL_G, EffectiveParams, PulseCoefficients, build_time_dependent_jc

DEFAULT_SLICES = 512
SINGLE_SHOT_CUTOFF = 3


class ObjectiveError(RuntimeError):
    """The objective returned a non-finite value."""


@dataclass(frozen=True)
class OptimizerConfig:
    """Simplex-search settings; n_omega = 0 evaluates the constant pulse only."""

    n_omega: int
    spread_tol: float = 1e-10
    max_iter: int = 4000
    restarts: int = 8
    seed: int = 0

    def __post_init__(self):
        if self.n_omega < 0:
            raise ValueError(f"n_omega must be >= 0, got {self.n_omega}")
        if self.restarts < 1:
            raise ValueError(f"restarts must be >= 1, got {self.restarts}")
        if self.max_iter < 1:
            raise ValueError(f"max_iter must be >= 1, got {self.max_iter}")
        if not self.spread_tol > 0:  # NaN fails too
            raise ValueError(f"spread_tol must be positive, got {self.spread_tol}")


@dataclass(frozen=True, eq=False)
class OptimizationResult:
    """Best pulse found, its pipeline fidelity, and the fidelity-vs-time trace."""

    pulse: PulseCoefficients
    fidelity: float
    success_probability: float
    times: np.ndarray
    fidelity_trace: np.ndarray
    iterations: int
    seed: int
    baseline_fidelity: float

    def __post_init__(self):
        if not 0.0 <= self.fidelity <= 1.0:
            raise ValueError(f"fidelity {self.fidelity} outside [0, 1]")


def nelder_mead(objective, x0, cfg: OptimizerConfig, initial_simplex=None):
    """Minimize with the standard simplex moves.

    Reflection 1.0, expansion 2.0, contraction 0.5, shrink 0.5.  Terminates
    when both the function spread and the vertex spread fall below
    cfg.spread_tol, or at the iteration cap.  Deterministic for a given
    starting point and simplex.  Returns (x_best, f_best).
    """
    x0 = np.asarray(x0, dtype=float)
    n = x0.size
    if n == 0:
        return x0, _checked(objective, x0)

    if initial_simplex is None:
        sim = np.tile(x0, (n + 1, 1))
        for i in range(n):
            step = 0.25 * max(1.0, abs(x0[i]))
            sim[i + 1, i] += step
    else:
        sim = np.array(initial_simplex, dtype=float)
        if sim.shape != (n + 1, n):
            raise ValueError(f"initial simplex shape {sim.shape} != {(n + 1, n)}")
    fvals = np.array([_checked(objective, x) for x in sim])

    for _ in range(cfg.max_iter):
        order = np.argsort(fvals, kind="stable")
        sim, fvals = sim[order], fvals[order]
        f_spread = fvals[-1] - fvals[0]
        x_spread = np.abs(sim[1:] - sim[0]).max()
        if f_spread < cfg.spread_tol and x_spread < cfg.spread_tol:
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


def _checked(objective, x) -> float:
    value = float(objective(x))
    if not math.isfinite(value):
        raise ObjectiveError(f"objective returned non-finite value {value} at x = {x}")
    return value


def _pulse_from_vector(x: np.ndarray, n_omega: int, tau: float, g: float) -> PulseCoefficients:
    return PulseCoefficients(a=tuple(x[:n_omega]), b=tuple(x[n_omega:]), tau_total=tau, G=g)


def _block_return_amplitudes(deltas: np.ndarray, g: float, h: float) -> np.ndarray:
    """Ground-return amplitudes [a01, a11] of the single- and double-excitation blocks.

    The shaped Hamiltonian closes on 2x2 blocks {|g;1 excitation>, bright
    state} with couplings G and sqrt(2) G; the midpoint-sliced product of
    their exponentials reproduces the full-space pipeline exactly (same
    invariant subspaces, same slicing).  A slice of width h at detuning d is
    exp(-i d h/2) times the SU(2) matrix [[alpha, beta], [-beta*, alpha*]],
    so a product is carried by (alpha, beta) alone.  Both blocks' slices are
    multiplied by pairwise tree reduction, later slice times earlier, with an
    odd slice out carried to the next level; the phases sum to one factor.
    """
    couplings = np.array([[g], [math.sqrt(2.0) * g]])
    # H = [[0, c], [c, d]] = p I + qz sz + qx sx with p = d/2, qz = -d/2
    p = 0.5 * deltas
    q = np.sqrt(p * p + couplings * couplings)
    sq = np.sin(q * h) / q
    alpha, beta = np.cos(q * h) + 1j * sq * p, -1j * sq * couplings
    while alpha.shape[-1] > 1:
        width = alpha.shape[-1]
        odd = width % 2
        a1, b1 = alpha[:, 0 : width - odd : 2], beta[:, 0 : width - odd : 2]  # earlier
        a2, b2 = alpha[:, 1::2], beta[:, 1::2]  # later
        pair_alpha, pair_beta = a2 * a1 - b2 * b1.conj(), a2 * b1 + b2 * a1.conj()
        if odd:
            pair_alpha = np.concatenate((pair_alpha, alpha[:, -1:]), axis=1)
            pair_beta = np.concatenate((pair_beta, beta[:, -1:]), axis=1)
        alpha, beta = pair_alpha, pair_beta
    return np.exp(-1j * h * p.sum()) * alpha[:, 0]


def _block_objective(tau: float, g: float, n_omega: int, slices: int):
    """The search objective x = (a || b) -> -F on the exact block reduction.

    The CRAB table at the slice midpoints is built once; a call is one
    matvec for the slice detunings and one tree-reduced block product.
    """
    h = tau / slices
    mids = (np.arange(slices) + 0.5) * h
    basis = _pulse_from_vector(np.zeros(2 * n_omega), n_omega, tau, g).basis(mids)

    def objective(x):
        a01, a11 = _block_return_amplitudes(g * (1.0 + basis @ x), g, h)
        return -_fidelity_from_amplitudes(a01, a11)

    return objective


def _fidelity_from_amplitudes(a01: complex, a11: complex) -> float:
    """Post-projection Bell fidelity from the block return amplitudes."""
    norm = 1.0 + 2.0 * abs(a01) ** 2 + abs(a11) ** 2
    return abs(1.0 + a11) ** 2 / (2.0 * norm)


def _single_shot_space() -> tuple[HilbertSpace, HilbertSpace]:
    mag = HilbertSpace((("n", SINGLE_SHOT_CUTOFF), ("m", SINGLE_SHOT_CUTOFF)))
    jc = HilbertSpace((("atom", 3),) + mag.subsystems)
    return mag, jc


def _initial_states() -> tuple[np.ndarray, QuantumState]:
    """The joint start |g> (x) |+>|+> and the Bell target on the magnons."""
    mag, _ = _single_shot_space()
    plus = superposed_state(SINGLE_SHOT_CUTOFF, 1)
    psi = product_state(mag, {"n": plus, "m": plus})
    g_vec = np.zeros(3, dtype=complex)
    g_vec[LEVEL_G] = 1.0
    return np.kron(g_vec, psi.data), bell_state(mag, 1, +1)


def evaluate_single_shot(pulse: PulseCoefficients, slices: int = DEFAULT_SLICES):
    """Full-pipeline evaluation of one shaped pulse.

    Builds the time-dependent Hamiltonian, forms the time-ordered propagator,
    projects the qutrit onto its ground state, and returns
    (fidelity, success probability, conditional magnon state).
    """
    _, jc = _single_shot_space()
    psi0, target = _initial_states()
    hfun = build_time_dependent_jc(pulse, pulse.G, jc)
    u = time_ordered_propagator(hfun, pulse.tau_total, slices)
    psi = QuantumState(jc, "pure", u.matrix @ psi0)
    state, prob = apply_projection(psi)
    return fidelity(state, target), prob, state


def _fidelity_time_trace(pulse: PulseCoefficients, slices: int) -> tuple[np.ndarray, np.ndarray]:
    """Conditional Bell fidelity of the ground branch at every slice boundary."""
    _, jc = _single_shot_space()
    psi, target = _initial_states()
    hfun = build_time_dependent_jc(pulse, pulse.G, jc)
    h = pulse.tau_total / slices
    times = np.arange(slices + 1) * h
    trace = np.empty(slices + 1)

    def conditional_fidelity(vec):
        branch = _ground_block(vec)
        nrm = np.linalg.norm(branch)
        return abs(np.vdot(target.data, branch / nrm)) ** 2

    trace[0] = conditional_fidelity(psi)
    for k in range(slices):
        u = propagator(hfun((k + 0.5) * h), h).matrix
        psi = u @ psi
        trace[k + 1] = conditional_fidelity(psi)
    return times, trace


def optimize_single_shot(
    eff: EffectiveParams,
    cfg: OptimizerConfig,
    slices: int = DEFAULT_SLICES,
) -> OptimizationResult:
    """Search the pulse coefficients maximizing the one-measurement fidelity.

    Requires G_e = G_f; the control interval is the resonant measurement
    interval and the boundary detuning is pinned to G.  Each restart draws a
    fresh uniform simplex with the envelope bounded to a few G; the search
    itself runs on the exact block reduction of the objective, and the
    winning coefficients (never worse than the zero-coefficient constant
    pulse) are re-simulated through the full pipeline for the reported
    fidelity, success probability, and time trace.
    """
    if not math.isclose(eff.G_e, eff.G_f, rel_tol=1e-12):
        raise ValueError(f"single-shot scheme needs G_e = G_f, got {eff.G_e} vs {eff.G_f}")
    if slices < 1:
        raise ValueError(f"slices must be >= 1, got {slices}")
    g = eff.G_e
    tau0 = interval_for_target(1, EffectiveParams(G_e=g, G_f=g))  # the pulse sets the detuning
    n_omega = cfg.n_omega
    dim = 2 * n_omega
    objective = _block_objective(tau0, g, n_omega, slices)
    evals = 0

    def counted(x):
        nonlocal evals
        evals += 1
        return objective(x)

    zero = np.zeros(dim)
    best_x, best_f, best_evals = zero, _checked(objective, zero), 0
    if n_omega > 0:
        scale = 2.0 / tau0**2
        for restart in range(cfg.restarts):
            rng = np.random.default_rng(cfg.seed + restart)
            simplex = rng.uniform(-scale, scale, size=(dim + 1, dim))
            evals = 0
            x, f = nelder_mead(counted, simplex[0], cfg, initial_simplex=simplex)
            if f < best_f:  # strict: ties keep the lowest restart seed
                best_x, best_f, best_evals = x, f, evals

    pulse = _pulse_from_vector(best_x, n_omega, tau0, g)
    fid, prob, _ = evaluate_single_shot(pulse, slices)
    baseline_pulse = _pulse_from_vector(zero, n_omega, tau0, g)
    baseline_fid, baseline_prob, _ = evaluate_single_shot(baseline_pulse, slices)
    if fid < baseline_fid:
        pulse, fid, prob, best_evals = baseline_pulse, baseline_fid, baseline_prob, 0
    times, trace = _fidelity_time_trace(pulse, slices)
    return OptimizationResult(
        pulse=pulse,
        fidelity=fid,
        success_probability=prob,
        times=times,
        fidelity_trace=trace,
        iterations=best_evals,
        seed=cfg.seed,
        baseline_fidelity=baseline_fid,
    )
