"""Measurement-induced Kraus operators and the evolve-and-project protocol.

Finding the ancilla qutrit in its ground state after a joint evolution
applies a diagonal, population-reshaping Kraus operator to the two magnon
modes.  Repeating the cycle suppresses every Fock component whose
coefficient magnitude is below one and distills the even-parity Bell pair
{|0,0>, |N,N>}.  The module provides the analytic coefficients, the
repeated protocol with optional magnon decay, stabilization runs, and the
coupling-ratio fidelity analysis.  Each closed-system quantity is written
once: the block amplitude (``_return_amplitudes``), the one-round |+>|+>
fidelity (``_fidelity_and_norm``) and the Bell-pair records
(``_pair_records``).  ``numeric_kraus``, the <g|exp(-i H tau)|g> block of
the effective Hamiltonian, is kept as the amplitude's oracle.  A
lossy round applies the magnon round map M = P_g exp(L tau) P_g to the
magnon density: the exact channel exp(L tau) of the joint qutrit-magnon
master equation (``dynamics.lindblad_channel``), built once per run on the
Liouville indices that |g><g| (x) rho_0 can reach, and compressed once to
the g-g entries of that set (``_round_map``).  A stabilization run shares
one channel, built from the Bell input, between its projected and free
legs, since every projected state stays in the g-g part of that set.
A run is planned, then run: ``_plan`` and ``_plan_stabilize`` make the
pre-round checks once and return the run, which builds the channel; the
CLI's plans keep these runs, and ``run_protocol`` and ``stabilize`` call them.
Closed, lossy and free-decay rounds all run in one loop (``_round_loop``),
the one place a round's array is checked, in place, with
``hilbert.check_state``, the check ``QuantumState`` runs.  A projected round
holds the outcome probability to a floor; a lossy round and a free-leg step
are each one ``BlockMap._apply``, which checks the input's support and
scrubs the anti-Hermitian roundoff.  Records are read off the |0,0> and
|N,N> entries of each round's array, and a run's final array becomes its
one ``QuantumState``.  The channel checks its trace preservation once, when
built; the round loop's stricter check catches a step that drifts it.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .dynamics import BlockMap, LindbladChannel, LindbladSpec, lindblad_channel, propagator
from .dynamics import integrate_master  # noqa: F401  (perfbench's tracer looks the RK4 oracle up here)
from .hilbert import DimensionError, HilbertSpace, Operator, QuantumState, check_state
from .model import (_JC_LABELS, EffectiveParams, _ground_block, _jc_matrix, _joint_space, _magnon_part,
                    _product_ops, _with_ground)

NULL_OUTCOME_FLOOR = 1e-12
SLOW_DAMPING_MARGIN = 1e-6
CONVERGED_EVEN_POPULATION = 1.0 - 1e-6


class NullOutcomeError(RuntimeError):
    """Ground-state projection hit a (numerically) zero-probability branch."""


class TargetOverlapError(ValueError):
    """Initial state has no population on the target even-parity pair."""


def rabi_frequency(n: int | np.ndarray, m: int | np.ndarray,
                   eff: EffectiveParams) -> float | np.ndarray:
    """Oscillation frequency of the (n, m) block: sqrt(Ge^2 n + Gf^2 m + D^2/4).

    n, m and the couplings are numbers or arrays; the result broadcasts, and
    an empty mode (occupation 0) adds nothing.  Raises ValueError if any
    entry is infinite, as when a coupling's square times n overflows, naming
    the first such entry in C order by its occupations, couplings and
    detuning.  A NaN coupling of an occupied mode gives NaN, for the caller.
    """
    if np.any(np.asarray(n) < 0) or np.any(np.asarray(m) < 0):
        raise ValueError("occupation numbers must be nonnegative")
    delta = eff.common_detuning()
    with np.errstate(over="ignore", invalid="ignore"):  # an empty mode adds 0, not inf * 0 = NaN
        omega = np.sqrt(np.where(n > 0, eff.G_e * eff.G_e * n, 0.0) + np.where(m > 0, eff.G_f * eff.G_f * m, 0.0)
                        + 0.25 * delta * delta)
    if np.isinf(omega).any():
        at = np.unravel_index(np.argmax(np.isinf(omega)), np.shape(omega))
        n_at, m_at, g_e, g_f = (np.broadcast_to(x, np.shape(omega))[at] for x in (n, m, eff.G_e, eff.G_f))
        raise ValueError(f"Omega_{n_at}{m_at} overflows at G_e = {g_e:g}, G_f = {g_f:g}, Delta = {delta:g}")
    return omega


def interval_for_target(N: int, eff: EffectiveParams) -> float:
    """Measurement interval 2 pi / Omega_NN that keeps |alpha_NN| = 1; ValueError if
    Omega_NN is 0 or NaN, as when a coupling's square underflows, or infinite
    (``rabi_frequency``)."""
    if N < 1:
        raise ValueError(f"target excitation must be >= 1, got {N}")
    omega = float(rabi_frequency(N, N, eff))
    if not omega > 0.0:  # NaN fails too
        raise ValueError(f"no measurement interval: Omega_{N}{N} = {omega} "
                         f"at G_e = {eff.G_e}, G_f = {eff.G_f}")
    return 2.0 * math.pi / omega


def _return_amplitudes(n, m, eff: EffectiveParams, tau: float) -> np.ndarray:
    """Ground-return amplitudes v_nm = exp(-i D tau / 2) alpha_nm(tau), D = eff.common_detuning().

    n and m are broadcast occupation arrays, the first mode coupling through
    G_e and the second through G_f; v_00 = 1.  Raises ValueError if any
    Omega_nm is infinite (``rabi_frequency``); a NaN coupling is left to the
    null-outcome floor of the round it empties.
    """
    delta = eff.common_detuning()
    omega = rabi_frequency(n, m, eff)
    ratio = 0.5 * delta / np.where(omega > 0.0, omega, np.inf)  # Omega is 0 where D = 0 or D^2 / 4 underflows
    alpha = np.cos(omega * tau) + 1j * ratio * np.sin(omega * tau)
    alpha = np.where((n == 0) & (m == 0), np.exp(0.5j * delta * tau), alpha)
    return np.exp(-0.5j * delta * tau) * alpha


def analytic_kraus(space: HilbertSpace, eff: EffectiveParams, tau: float) -> Operator:
    """Diagonal ground-outcome Kraus operator on a two-mode magnon space, entry (n, m)
    the amplitude v_nm of ``_return_amplitudes``."""
    if len(space.subsystems) != 2:
        raise DimensionError("analytic_kraus needs a two-subsystem magnon space")
    n, m = np.unravel_index(np.arange(space.total_dim), space.dims)
    return Operator(space, np.diag(_return_amplitudes(n, m, eff, tau)))


def numeric_kraus(H_eff: Operator, tau: float) -> Operator:
    """Ground-outcome Kraus operator <g| exp(-i H_eff tau) |g>.

    H_eff must live on a space whose first subsystem is the dim-3 qutrit;
    the result acts on the remaining magnon space.
    """
    mag = _magnon_part(H_eff.space)
    return Operator(mag, _ground_block(propagator(H_eff, tau).matrix))


def _normalized(branch: np.ndarray, where: str = "ground-state") -> tuple[np.ndarray, float]:
    """An unnormalized outcome branch, a vector over its norm or a matrix over its trace, and its probability.

    Raises NullOutcomeError, naming the outcome by where, below the floor.
    """
    pure = branch.ndim == 1
    prob = float(np.linalg.norm(branch) ** 2 if pure else np.real(np.trace(branch)))
    if not prob >= NULL_OUTCOME_FLOOR:  # NaN fails too
        raise NullOutcomeError(f"{where} outcome probability {prob:.3e} below floor")
    return branch / (math.sqrt(prob) if pure else prob), prob


def apply_projection(rho_tot: QuantumState) -> tuple[QuantumState, float]:
    """Project the qutrit onto |g>, renormalize, and drop the qutrit factor.

    Returns the conditional magnon state and the pre-normalization outcome
    probability.  Raises NullOutcomeError below the probability floor.
    """
    space = _magnon_part(rho_tot.space)
    data, prob = _normalized(_ground_block(rho_tot.data))
    return QuantumState(space, rho_tot.kind, data), prob


@dataclass(frozen=True)
class ProtocolConfig:
    """Settings for the repeated evolve-and-project protocol.

    tau is the per-round free-evolution interval; ``for_target`` picks it
    from the held (N, N) pair and halves it in half-interval mode.
    decoherence, when set, is the (gamma_n, gamma_m) pair of magnon decay
    rates and switches each round to the exact master-equation map
    exp(L tau) on the joint qutrit-magnon space.
    """

    eff: EffectiveParams
    tau: float
    rounds: int
    target_N: int = 1
    decoherence: tuple[float, float] | None = None

    def __post_init__(self):
        if not (self.tau > 0 and math.isfinite(self.tau)):  # NaN fails too, here and below
            raise ValueError(f"tau must be positive and finite, got {self.tau}")
        for name in ("rounds", "target_N"):
            value = getattr(self, name)
            if not (isinstance(value, numbers.Integral) and value >= 1):
                raise ValueError(f"{name} must be an integer >= 1, got {value!r}")
        if self.decoherence is not None:
            gn, gm = self.decoherence
            if not all(rate >= 0 and math.isfinite(rate) for rate in (gn, gm)):
                raise ValueError(f"decay rates must be nonnegative and finite, got {self.decoherence}")
            object.__setattr__(self, "decoherence", (float(gn), float(gm)))

    @classmethod
    def for_target(
        cls,
        eff: EffectiveParams,
        rounds: int,
        target_N: int = 1,
        interval_mode: str = "full",
        decoherence: tuple[float, float] | None = None,
    ) -> "ProtocolConfig":
        """Config with tau picked so the (N, N) pair is held exactly ("half": half that tau)."""
        if interval_mode not in ("full", "half"):
            raise ValueError(f"interval_mode must be 'full' or 'half', got {interval_mode!r}")
        tau = interval_for_target(target_N, eff)
        if interval_mode == "half":
            tau *= 0.5
        return cls(eff=eff, tau=tau, rounds=rounds, target_N=target_N, decoherence=decoherence)


@dataclass(frozen=True, eq=False)
class ProtocolRecord:
    """Per-round log of a protocol run (index 0 is the initial state).

    success_probability is cumulative; even_population is the normalized
    population on {|0,0>, |N,N>}.  slow_states lists non-target Fock pairs
    whose per-round damping factor exceeds 1 - 1e-6 (distillation will stall
    on them); converged_round is the first round where the even-pair
    population passed 1 - 1e-6, or None.  ``run_protocol`` reads every
    record off the two even-pair entries of each round's checked array, and
    final_state is the one QuantumState a run builds.
    """

    fidelity_plus: np.ndarray
    fidelity_minus: np.ndarray
    success_probability: np.ndarray
    even_population: np.ndarray
    final_state: QuantumState
    slow_states: tuple[tuple[int, int], ...]
    converged_round: int | None


def _joint_spec(mag_space: HilbertSpace, cfg: ProtocolConfig) -> LindbladSpec:
    """Qutrit-magnon Hamiltonian of cfg with its magnon loss (cfg.decoherence).

    The Hamiltonian (``build_jc_effective``'s matrix) and the jump
    operators, its lowering operators, come from one operator table.
    """
    jc_space = _joint_space(mag_space)
    ops = _product_ops(jc_space, _JC_LABELS)
    return LindbladSpec(Operator(jc_space, _jc_matrix(cfg.eff, ops)), tuple(
        (Operator(jc_space, ops[mode][0]), rate) for mode, rate in zip(("n", "m"), cfg.decoherence)
    ))


def _round_map(channel: LindbladChannel, mag_space: HilbertSpace) -> BlockMap:
    """M = P_g exp(L tau) P_g on the magnon density: the channel compressed to its g-g Liouville indices.

    Entry (a, b) of the magnon density is entry (g a, g b) of the joint one.
    M holds each channel block's rows and columns there, no more.
    """
    joint = channel.space.total_dim
    return channel._compress(mag_space, _ground_block(np.arange(joint * joint).reshape(joint, joint)).ravel())


def run_protocol(initial: QuantumState, cfg: ProtocolConfig) -> ProtocolRecord:
    """Run M rounds of (attach ground-state qutrit, evolve tau, project): ``_plan``, then its run.

    Every round applies one fixed map to the unnormalized magnon state, then
    renormalizes: closed runs the amplitudes v of ``_return_amplitudes``
    elementwise (v_i psi_i, or v_i conj(v_j) rho_ij for a mixed state); with
    decoherence set, M = P_g exp(L tau) P_g (``_round_map``), the g-g part
    of the exact magnon-loss map (``lindblad_channel``) on |g><g| (x) rho,
    which the run builds from |g><g| (x) initial and checks for trace preservation.

    ``_round_loop`` checks each round's renormalized magnon array in place.
    Each round holds the outcome probability to NULL_OUTCOME_FLOOR; a lossy
    round also raises ValueError if rho has support off M's set, and scrubs
    the anti-Hermitian roundoff of M rho.  No joint state and no per-round
    object is formed: the records are read off the |0,0> and |N,N> entries
    of each round's array (``_pair_records``), and the final array becomes
    the one QuantumState.
    """
    *_, run = _plan(initial, cfg)
    return run()[0]


def _plan(initial: QuantumState, cfg: ProtocolConfig):
    """(a, b, run) after a run's pre-round checks: the |0,0> and |N,N> indices, and run() ->
    (``run_protocol``'s record, the channel a lossy run builds or None)."""
    mag_space = initial.space
    if mag_space.labels != ("n", "m"):
        raise DimensionError(f"initial state must live on ('n', 'm'), got {mag_space.labels}")
    N, dim = cfg.target_N, mag_space.total_dim
    if N >= min(mag_space.dims):
        raise DimensionError(f"target excitation {N} outside cutoffs {mag_space.dims}")
    a, b = mag_space.index((0, 0)), mag_space.index((N, N))
    if initial.populations()[[a, b]].sum() <= NULL_OUTCOME_FLOOR:
        raise TargetOverlapError(
            f"initial population on {{|0,0>, |{N},{N}>}} is numerically zero"
        )
    v = _return_amplitudes(*np.unravel_index(np.arange(dim), mag_space.dims), cfg.eff, cfg.tau)
    slow = tuple(
        mag_space.occupations(k)
        for k in np.flatnonzero(np.abs(v) > 1.0 - SLOW_DAMPING_MARGIN)
        if mag_space.occupations(k) not in ((0, 0), (N, N))
    )

    # the per-round map on the unnormalized magnon data: the amplitudes (closed) or the run's channel
    if cfg.decoherence is None:
        kind, data = initial.kind, initial.data
        vv = v if kind == "pure" else np.outer(v, v.conj())
    else:
        kind, data = "mixed", initial.density()
    # the entries each round's records read: x_a, x_b (pure) or rho_aa, rho_bb, rho_ab (mixed)
    picks = [a, b] if kind == "pure" else [a * dim + a, b * dim + b, a * dim + b]

    def run():
        channel = (None if cfg.decoherence is None
                   else lindblad_channel(_joint_spec(mag_space, cfg), cfg.tau, _with_ground(data)))
        evolve = (lambda x: vv * x) if channel is None else _round_map(channel, mag_space)._apply
        x, entries, probs = _round_loop(
            data, lambda x, k: _normalized(evolve(x), f"round {k}: ground-state"), picks, cfg.rounds)
        even_pop, f_plus, f_minus = _pair_records(entries, kind == "pure")
        converged = np.flatnonzero(even_pop >= CONVERGED_EVEN_POPULATION)
        return ProtocolRecord(
            fidelity_plus=f_plus, fidelity_minus=f_minus, success_probability=np.cumprod(probs),
            even_population=even_pop, final_state=QuantumState(mag_space, kind, x), slow_states=slow,
            converged_round=int(converged[0]) if converged.size else None), channel

    return a, b, run


def _round_loop(x: np.ndarray, step, picks, rounds: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Apply step (x, k) -> (x', p) for k = 1 .. rounds, and check each x' in place.

    A vector is checked as a pure state, a matrix as a density matrix.
    Returns the last x, x.take(picks) of the input and of every round's x
    stacked, and the p of every round (index 0 of both is the input's, p = 1).
    """
    entries = np.empty((rounds + 1,) + np.shape(picks), dtype=complex)
    probs = np.ones(rounds + 1)
    entries[0] = x.take(picks)
    for k in range(1, rounds + 1):
        x, probs[k] = step(x, k)
        check_state(x)
        entries[k] = x.take(picks)
    return x, entries, probs


def _pair_records(entries: np.ndarray, pure: bool) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(even, F+, F-) per row of run_protocol's carried entries.

    even = |x_a|^2 + |x_b|^2 or rho_aa + rho_bb, the population on
    {|0,0>, |N,N>}; cross = Re(x_a conj(x_b)) or Re(rho_ab); and F+- =
    even / 2 +- cross, the fidelity with (|0,0> +- |N,N>)/sqrt(2), clamped
    to [0, 1] as ``fidelity`` clamps.
    """
    if pure:
        xa, xb = entries.T
        even = np.abs(xa) ** 2 + np.abs(xb) ** 2
        cross = (xa * xb.conj()).real
    else:
        even = entries[:, 0].real + entries[:, 1].real
        cross = entries[:, 2].real
    return even, np.clip(0.5 * even + cross, 0.0, 1.0), np.clip(0.5 * even - cross, 0.0, 1.0)


def stabilize(bell: QuantumState, cfg: ProtocolConfig) -> tuple[np.ndarray, np.ndarray]:
    """Hold a Bell state against magnon loss by repeated projection: ``_plan_stabilize``, then its run.

    Returns (F_stab, F_free): the per-round fidelity under the
    evolve-and-project cycle, and the fidelity of a measurement-free
    master-equation run over the same horizon, both sampled at multiples of
    tau (index 0 is t = 0).  One channel exp(L tau), built by the projected
    leg's run from the Bell input, serves both legs: the projected one
    applies its magnon round map M (the rounds of ``_plan``'s run), the free
    one the whole channel to the joint state, each by ``BlockMap._apply``,
    and ``_round_loop`` checks every round of both, its trace included.
    F_free is <B| tr_q rho |B>, read by ``_pair_records`` off the three
    entries of tr_q rho on {|0,0>, |N,N>}, each the sum of three joint entries.
    """
    return _plan_stabilize(bell, cfg)()


def _plan_stabilize(bell: QuantumState, cfg: ProtocolConfig):
    """``stabilize``'s checks (decay rates set, then ``_plan``'s) and its run, run() -> (F_stab, F_free)."""
    if cfg.decoherence is None:
        raise ValueError("stabilize requires decoherence rates in the config")
    a, b, protocol = _plan(bell, cfg)
    # (level, entry) -> joint index of (l a, l a), (l b, l b), (l a, l b), with a = |0,0>, b = |N,N>
    dim = bell.space.total_dim
    levels = dim * np.arange(3)[:, None]
    picks = np.ravel_multi_index((levels + [a, b, a], levels + [a, b, b]), (3 * dim, 3 * dim))

    def run():
        record, channel = protocol()
        _, entries, _ = _round_loop(_with_ground(bell.density()), lambda rho, k: (channel._apply(rho), 1.0),
                                    picks, cfg.rounds)
        return record.fidelity_plus, _pair_records(entries.sum(axis=1), False)[1]

    return run


def _fidelity_and_norm(a01, a10, a11):
    """Bell fidelity and norm N of the ground branch of |g> (x) |+>|+> after one round.

    a01, a10 and a11 are the ground-return amplitudes of the (0, 1), (1, 0)
    and (1, 1) blocks (scalars or arrays).  The branch is (|0,0> + a01 |0,1>
    + a10 |1,0> + a11 |1,1>) / 2, so N/4 is the success probability and F =
    |1 + a11|^2 / (2N), with N = 1 + |a01|^2 + |a10|^2 + |a11|^2.
    """
    norm = 1.0 + (abs(a01) ** 2 + abs(a10) ** 2) + abs(a11) ** 2
    return abs(1.0 + a11) ** 2 / (2.0 * norm), norm


def coupling_ratio_fidelity(xi, approximate: bool = False):
    """Single-round Bell fidelity versus the coupling ratio xi = G_f / G_e.

    Starting from |+>|+> and measuring once at the interval holding the
    (1, 1) pair (G_e = 1, G_f = xi, no detuning), F is ``_fidelity_and_norm``
    of the blocks' amplitudes ``_return_amplitudes``.  The approximate
    branch linearizes a01 and a10 around xi = 1 and holds a11 = 1.  A float
    xi gives a float; an array gives F at each of its entries in one
    evaluation.  Raises ValueError, naming the first xi whose Omega_11
    (``rabi_frequency``) or, in the approximate branch, whose norm
    overflows, if any does.
    """
    ratio = np.asarray(xi, dtype=float)
    if not np.all((ratio > 0) & np.isfinite(ratio)):  # NaN fails too
        raise ValueError(f"coupling ratio must be positive and finite, got {xi}")
    if approximate:
        c = math.cos(math.sqrt(2.0) * math.pi)
        s = (math.pi / math.sqrt(2.0)) * math.sin(math.sqrt(2.0) * math.pi)
        with np.errstate(over="ignore"):  # the norm, ~9.2 xi^2, leaves the float range past xi ~ 4.4e153
            fid, norm = _fidelity_and_norm(c - s * (ratio - 1.0), c + s * (ratio - 1.0), 1.0)
        if not np.isfinite(norm).all():
            first = ratio.flat[np.argmin(np.isfinite(norm))]
            raise ValueError(f"the linearized norm 2 + |a01|^2 + |a10|^2 overflows at coupling ratio "
                             f"xi = {first:g}")
    else:
        eff = EffectiveParams(G_e=1.0, G_f=ratio)
        n, m = np.array([[0, 1, 1], [1, 0, 1]]).reshape((2, 3) + (1,) * ratio.ndim)
        fid = _fidelity_and_norm(*_return_amplitudes(n, m, eff, 2.0 * math.pi / rabi_frequency(1, 1, eff)))[0]
    return float(fid) if ratio.ndim == 0 else fid
