"""Measurement-induced Kraus operators and the evolve-and-project protocol.

Finding the ancilla qutrit in its ground state after a joint evolution
applies a diagonal, population-reshaping Kraus operator to the two magnon
modes.  Repeating the cycle suppresses every Fock component whose
coefficient magnitude is below one and distills the even-parity Bell pair
{|0,0>, |N,N>}.  The module provides the analytic coefficients, the
repeated protocol with optional magnon decay, stabilization runs, and the
coupling-ratio fidelity analysis.  A closed round applies the analytic
diagonal of ``analytic_kraus``; ``numeric_kraus``, the <g|exp(-i H tau)|g>
block of the effective Hamiltonian, is kept as its independent oracle.  A
lossy round applies the magnon round map M = P_g exp(L tau) P_g to the
magnon density: the exact channel exp(L tau) of the joint qutrit-magnon
master equation (``dynamics.lindblad_channel``), built once per run on the
Liouville indices that |g><g| (x) rho_0 can reach, and compressed once to
the g-g entries of that set (``_round_map``).  A stabilization run shares
one channel, built from the Bell input, between its projected and free
legs, since every projected state stays in the g-g part of that set.
Every round holds the outcome probability to a floor and checks its
renormalized magnon array in place with ``hilbert.check_state``, the check
``QuantumState`` runs, without building a state; a lossy round also checks
that its input lies in M's set and scrubs the output's anti-Hermitian
roundoff.  A run's records are read off the |0,0> and |N,N> entries of each
round's array, and its final array becomes its one ``QuantumState``.  The
channel's trace preservation is checked once, when it is built, and each
free-leg step of a stabilization run checks the joint state in place.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .dynamics import BlockMap, LindbladChannel, LindbladSpec, lindblad_channel, propagator
from .dynamics import integrate_master  # noqa: F401  (perfbench's tracer looks the RK4 oracle up here)
from .hilbert import (DimensionError, HilbertSpace, Operator, QuantumState, SpaceMismatchError, bell_state,
                      check_state)
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

    n and m are occupation numbers or arrays of them; the result broadcasts.
    Squares are products: past the float range one is inf (not OverflowError),
    with no warning, for the caller to reject.
    """
    if np.any(np.asarray(n) < 0) or np.any(np.asarray(m) < 0):
        raise ValueError("occupation numbers must be nonnegative")
    delta = eff.common_detuning()
    with np.errstate(over="ignore", invalid="ignore"):
        return np.sqrt(eff.G_e * eff.G_e * n + eff.G_f * eff.G_f * m + 0.25 * delta * delta)


def interval_for_target(N: int, eff: EffectiveParams) -> float:
    """Measurement interval 2 pi / Omega_NN that keeps |alpha_NN| = 1; ValueError if
    Omega_NN is 0 or not finite, as when a coupling's square under- or overflows."""
    if N < 1:
        raise ValueError(f"target excitation must be >= 1, got {N}")
    omega = float(rabi_frequency(N, N, eff))
    if not 0.0 < omega < math.inf:  # NaN fails too
        raise ValueError(f"no measurement interval: Omega_{N}{N} = {omega} "
                         f"at G_e = {eff.G_e}, G_f = {eff.G_f}")
    return 2.0 * math.pi / omega


def analytic_kraus(space: HilbertSpace, eff: EffectiveParams, tau: float) -> Operator:
    """Diagonal ground-outcome Kraus operator on a two-mode magnon space.

    Entry (n, m) is exp(-i D tau / 2) alpha_nm(tau), D = eff.common_detuning();
    the first subsystem couples through G_e, the second through G_f.
    Raises ValueError, naming the largest block, if any Omega_nm is
    infinite, as when a coupling's square times n overflows (a NaN coupling
    is left to the null-outcome floor of the round it empties).
    """
    if len(space.subsystems) != 2:
        raise DimensionError("analytic_kraus needs a two-subsystem magnon space")
    delta = eff.common_detuning()
    dn, dm = space.dims
    n, m = np.meshgrid(np.arange(dn), np.arange(dm), indexing="ij")
    omega = rabi_frequency(n, m, eff)
    if np.isinf(omega).any():
        raise ValueError(f"Omega_nm overflows: Omega_{dn - 1}{dm - 1} = {omega[-1, -1]} "
                         f"at G_e = {eff.G_e}, G_f = {eff.G_f}")
    with np.errstate(invalid="ignore", divide="ignore"):
        ratio = np.where(omega > 0.0, 0.5 * delta / np.where(omega > 0.0, omega, 1.0), 0.0)
    alpha = np.cos(omega * tau) + 1j * ratio * np.sin(omega * tau)
    alpha = np.where(omega == 0.0, 1.0 + 0.0j, alpha)
    alpha[0, 0] = np.exp(0.5j * delta * tau)
    diag = np.exp(-0.5j * delta * tau) * alpha.ravel()
    return Operator(space, np.diag(diag))


def numeric_kraus(H_eff: Operator, tau: float) -> Operator:
    """Ground-outcome Kraus operator <g| exp(-i H_eff tau) |g>.

    H_eff must live on a space whose first subsystem is the dim-3 qutrit;
    the result acts on the remaining magnon space.
    """
    mag = _magnon_part(H_eff.space)
    return Operator(mag, _ground_block(propagator(H_eff, tau).matrix))


def _normalized(kind: str, branch: np.ndarray, where: str = "ground-state") -> tuple[np.ndarray, float]:
    """An unnormalized outcome branch divided by its norm (pure) or trace (mixed), and its probability.

    Raises NullOutcomeError, naming the outcome by where, below the floor.
    """
    pure = kind == "pure"
    prob = float(np.linalg.norm(branch) ** 2 if pure else np.real(np.trace(branch)))
    if not prob >= NULL_OUTCOME_FLOOR:  # NaN fails too
        raise NullOutcomeError(f"{where} outcome probability {prob:.3e} below floor")
    return branch / (math.sqrt(prob) if pure else prob), prob


def _renormalized(space: HilbertSpace, kind: str, branch: np.ndarray,
                  where: str = "ground-state") -> tuple[QuantumState, float]:
    """Conditional state and probability of an unnormalized outcome branch (``_normalized``)."""
    data, prob = _normalized(kind, branch, where)
    return QuantumState(space, kind, data), prob


def apply_projection(rho_tot: QuantumState) -> tuple[QuantumState, float]:
    """Project the qutrit onto |g>, renormalize, and drop the qutrit factor.

    Returns the conditional magnon state and the pre-normalization outcome
    probability.  Raises NullOutcomeError below the probability floor.
    """
    return _renormalized(_magnon_part(rho_tot.space), rho_tot.kind, _ground_block(rho_tot.data))


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


def run_protocol(
    initial: QuantumState, cfg: ProtocolConfig, channel: LindbladChannel | None = None
) -> ProtocolRecord:
    """Run M rounds of (attach ground-state qutrit, evolve tau, project).

    Every round applies one fixed map to the unnormalized magnon state, then
    renormalizes: closed runs the diagonal v of ``analytic_kraus``
    elementwise (v_i psi_i, or v_i conj(v_j) rho_ij for a mixed state); with
    decoherence set, M = P_g exp(L tau) P_g (``_round_map``), the g-g part
    of the exact magnon-loss map (``lindblad_channel``) on |g><g| (x) rho,
    read once per run off the channel's blocks.
    channel is that exp(L tau) for a lossy cfg, built on a set that holds
    |g><g| (x) initial, for a caller that has built it already; it is built
    here from |g><g| (x) initial when omitted, which also checks its trace
    preservation.  A channel on another joint space raises
    SpaceMismatchError, and one passed with a closed cfg ValueError, both
    before the first round.

    Each round holds the outcome probability to NULL_OUTCOME_FLOOR and
    checks its renormalized magnon array in place (``check_state``, the
    check ``QuantumState`` runs).  A lossy round also raises ValueError if
    rho has support off M's set, and scrubs the anti-Hermitian roundoff of
    M rho.  No joint state and no per-round object is formed: the records
    are read off the |0,0> and |N,N> entries a, b of each round's array
    (``_pair_records``), and the final array becomes the one QuantumState.
    """
    mag_space = initial.space
    if mag_space.labels != ("n", "m"):
        raise DimensionError(f"initial state must live on ('n', 'm'), got {mag_space.labels}")
    if channel is not None:
        if cfg.decoherence is None:
            raise ValueError("a channel was passed for a run without decoherence")
        joint = _joint_space(mag_space)
        if channel.space != joint:
            raise SpaceMismatchError(f"channel space {channel.space.subsystems} is not the joint space "
                                     f"of the initial state, {joint.subsystems}")
    N = cfg.target_N
    if N >= min(mag_space.dims):
        raise DimensionError(f"target excitation {N} outside cutoffs {mag_space.dims}")
    a, b = mag_space.index((0, 0)), mag_space.index((N, N))
    if initial.populations()[[a, b]].sum() <= NULL_OUTCOME_FLOOR:
        raise TargetOverlapError(
            f"initial population on {{|0,0>, |{N},{N}>}} is numerically zero"
        )

    v = np.diag(analytic_kraus(mag_space, cfg.eff, cfg.tau).matrix)
    slow = tuple(
        mag_space.occupations(k)
        for k in np.flatnonzero(np.abs(v) > 1.0 - SLOW_DAMPING_MARGIN)
        if mag_space.occupations(k) not in ((0, 0), (N, N))
    )

    # the per-round map on the unnormalized magnon data, picked once
    kind, data = initial.kind, initial.data
    if cfg.decoherence is not None:
        if channel is None:
            channel = lindblad_channel(_joint_spec(mag_space, cfg), cfg.tau,
                                       _with_ground(initial.density()))
        round_map = _round_map(channel, mag_space)

        def evolve(rho):
            out = round_map._map(rho)
            return 0.5 * (out + out.conj().T)  # scrub roundoff anti-Hermitian part

        kind, data = "mixed", initial.density()
    else:
        vv = v if kind == "pure" else np.outer(v, v.conj())

        def evolve(x):
            return vv * x

    # the entries each round's records read: x_a, x_b (pure) or rho_aa, rho_bb, rho_ab (mixed)
    dim = mag_space.total_dim
    picks = [a, b] if kind == "pure" else [a * dim + a, b * dim + b, a * dim + b]
    entries = np.empty((cfg.rounds + 1, len(picks)), dtype=complex)
    probs = np.ones(cfg.rounds + 1)
    entries[0] = data.take(picks)
    for k in range(1, cfg.rounds + 1):
        data, probs[k] = _normalized(kind, evolve(data), f"round {k}: ground-state")
        check_state(kind, data)
        entries[k] = data.take(picks)

    even_pop, f_plus, f_minus = _pair_records(entries, kind == "pure")
    converged = np.flatnonzero(even_pop >= CONVERGED_EVEN_POPULATION)
    return ProtocolRecord(
        fidelity_plus=f_plus,
        fidelity_minus=f_minus,
        success_probability=np.cumprod(probs),
        even_population=even_pop,
        final_state=QuantumState(mag_space, kind, data),
        slow_states=slow,
        converged_round=int(converged[0]) if converged.size else None,
    )


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
    """Hold a Bell state against magnon loss by repeated projection.

    Returns (F_stab, F_free): the per-round fidelity under the
    evolve-and-project cycle, and the fidelity of a measurement-free
    master-equation run over the same horizon, both sampled at multiples of
    tau (index 0 is t = 0).  Both legs apply one channel exp(L tau): the
    projected leg its magnon round map M (``run_protocol``, which checks
    each round's magnon state), the free leg the whole channel to the joint
    state (``LindbladChannel._apply``), which every step asserts the trace
    of, scrubs and checks in place as a density matrix (``check_state``).
    """
    if cfg.decoherence is None:
        raise ValueError("stabilize requires decoherence rates in the config")
    start = _with_ground(bell.density())
    channel = lindblad_channel(_joint_spec(bell.space, cfg), cfg.tau, start)
    f_stab = run_protocol(bell, cfg, channel).fidelity_plus

    # F_free = <B| tr_qutrit(rho) |B> = tr(W^+ rho W) with W = 1_3 (x) |B>, 3d^2 x 3
    w = np.kron(np.eye(3), bell_state(bell.space, cfg.target_N, +1).data[:, None])

    def overlap(rho):
        return float(np.real(np.trace(w.conj().T @ rho @ w)))

    f_free = np.empty(cfg.rounds + 1)
    rho = start
    f_free[0] = overlap(rho)
    for k in range(1, cfg.rounds + 1):
        rho = channel._apply(rho)
        f_free[k] = overlap(rho)
    return f_stab, f_free


def coupling_ratio_fidelity(xi: float, approximate: bool = False) -> float:
    """Single-round Bell fidelity versus the coupling ratio xi = G_f / G_e.

    Starting from equal single-excitation superpositions and measuring once
    at the interval holding the (1, 1) pair, F = 2 / (2 + a01^2 + a10^2).
    The approximate branch linearizes both coefficients around xi = 1.
    """
    if not (xi > 0 and math.isfinite(xi)):  # NaN fails too
        raise ValueError(f"coupling ratio must be positive and finite, got {xi}")
    if approximate:
        c = math.cos(math.sqrt(2.0) * math.pi)
        s = (math.pi / math.sqrt(2.0)) * math.sin(math.sqrt(2.0) * math.pi)
        a01 = c - s * (xi - 1.0)
        a10 = c + s * (xi - 1.0)
    else:
        root = math.sqrt(1.0 + xi * xi)
        a01 = math.cos(2.0 * math.pi * xi / root)
        a10 = math.cos(2.0 * math.pi / root)
    return 2.0 / (2.0 + a01 * a01 + a10 * a10)


def qubit_parity_reference(state: QuantumState) -> tuple[QuantumState, float]:
    """Reference even-parity projection |00><00| + |11><11| on two qubits."""
    if state.kind != "pure":
        raise ValueError("qubit parity reference expects a pure state")
    if state.space.dims != (2, 2):
        raise DimensionError(f"expected a two-qubit space, got dims {state.space.dims}")
    vec = np.zeros(4, dtype=complex)
    vec[state.space.index((0, 0))] = state.data[state.space.index((0, 0))]
    vec[state.space.index((1, 1))] = state.data[state.space.index((1, 1))]
    return _renormalized(state.space, "pure", vec, "even-parity")
