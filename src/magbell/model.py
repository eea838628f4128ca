"""Hamiltonian builders for the two-magnon / V-type-qutrit system.

Covers the full two-cavity model, its Schrieffer-Wolff dispersive reduction
to a Jaynes-Cummings-like magnon-qutrit Hamiltonian, the single-cavity
variant, and the time-dependent single-shot Hamiltonian with a CRAB-shaped
detuning.  All frequencies, couplings, and rates are in units of the magnon
frequency; times are in units of its inverse.

Qutrit level ordering is fixed package-wide: (g, e, f) = (0, 1, 2).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .hilbert import (
    DimensionError,
    HilbertSpace,
    Operator,
    annihilation,
    embed,
    level_projector,
    transition,
)

LEVEL_G, LEVEL_E, LEVEL_F = 0, 1, 2
DISPERSIVE_LIMIT = 0.1
DETUNING_MATCH_RTOL = 1e-12
# G_f/G_e for coherent inputs; criteria 06/07 all pass only for xi in [1.975, 2.035] (or 1/xi)
COHERENT_COUPLING_RATIO = 2.0


class ZeroDetuningError(ZeroDivisionError):
    """A dispersive formula was requested at zero detuning."""


class DispersiveRegimeWarning(UserWarning):
    """Coupling-to-detuning ratio exceeds the dispersive-regime limit."""


def _require_nonneg(**kwargs):
    for name, value in kwargs.items():
        if value < 0:
            raise ValueError(f"{name} must be nonnegative, got {value}")


@dataclass(frozen=True)
class ModelParams:
    """Bare two-cavity model parameters (units of the magnon frequency).

    Detunings are measured from the cavity coupled to each party:
    delta_n = omega_n - omega_a, delta_m = omega_m - omega_b,
    delta_e = omega_e - omega_a, delta_f = omega_f - omega_b.
    """

    omega_a: float
    omega_b: float
    omega_n: float
    omega_m: float
    omega_e: float
    omega_f: float
    g_n: float
    g_m: float
    g_e: float
    g_f: float
    gamma_n: float = 0.0
    gamma_m: float = 0.0

    def __post_init__(self):
        _require_nonneg(g_n=self.g_n, g_m=self.g_m, g_e=self.g_e, g_f=self.g_f,
                        gamma_n=self.gamma_n, gamma_m=self.gamma_m)

    @property
    def delta_n(self) -> float:
        return self.omega_n - self.omega_a

    @property
    def delta_m(self) -> float:
        return self.omega_m - self.omega_b

    @property
    def delta_e(self) -> float:
        return self.omega_e - self.omega_a

    @property
    def delta_f(self) -> float:
        return self.omega_f - self.omega_b

    def coupling_pairs(self) -> tuple[tuple[str, float, float], ...]:
        return (
            ("n", self.g_n, self.delta_n),
            ("m", self.g_m, self.delta_m),
            ("e", self.g_e, self.delta_e),
            ("f", self.g_f, self.delta_f),
        )

    def dispersive_margin(self) -> float:
        """Largest |g/Delta| over the four coupled pairs (inf at zero detuning)."""
        worst = 0.0
        for _, g, delta in self.coupling_pairs():
            if g == 0.0:
                continue
            worst = max(worst, abs(g / delta)) if delta != 0.0 else math.inf
        return worst

    def is_dispersive(self, limit: float = DISPERSIVE_LIMIT) -> bool:
        return self.dispersive_margin() <= limit


@dataclass(frozen=True)
class SingleModeParams:
    """Bare parameters for the shared-cavity variant; detunings from omega_a."""

    omega_a: float
    omega_n: float
    omega_m: float
    omega_e: float
    omega_f: float
    lambda_n: float
    lambda_m: float
    lambda_e: float
    lambda_f: float
    gamma_n: float = 0.0
    gamma_m: float = 0.0

    def __post_init__(self):
        _require_nonneg(lambda_n=self.lambda_n, lambda_m=self.lambda_m,
                        lambda_e=self.lambda_e, lambda_f=self.lambda_f,
                        gamma_n=self.gamma_n, gamma_m=self.gamma_m)

    @property
    def delta_n(self) -> float:
        return self.omega_n - self.omega_a

    @property
    def delta_m(self) -> float:
        return self.omega_m - self.omega_a

    @property
    def delta_e(self) -> float:
        return self.omega_e - self.omega_a

    @property
    def delta_f(self) -> float:
        return self.omega_f - self.omega_a

    def coupling_pairs(self) -> tuple[tuple[str, float, float], ...]:
        return (
            ("n", self.lambda_n, self.delta_n),
            ("m", self.lambda_m, self.delta_m),
            ("e", self.lambda_e, self.delta_e),
            ("f", self.lambda_f, self.delta_f),
        )


@dataclass(frozen=True)
class EffectiveParams:
    """Cavity-induced magnon-qutrit couplings, detunings, and Lamb shifts."""

    G_e: float
    G_f: float
    Delta_e_tilde: float = 0.0
    Delta_f_tilde: float = 0.0
    chi_n: float = 0.0
    chi_m: float = 0.0
    chi_e: float = 0.0
    chi_f: float = 0.0

    def common_detuning(self, atol: float = 1e-12) -> float:
        """The shared detuning Delta; requires both tilde detunings equal."""
        if abs(self.Delta_e_tilde - self.Delta_f_tilde) > atol:
            raise ValueError(
                "tilde detunings differ "
                f"({self.Delta_e_tilde} vs {self.Delta_f_tilde}); no common detuning"
            )
        return self.Delta_e_tilde


@dataclass(frozen=True)
class PulseCoefficients:
    """Truncated trigonometric detuning pulse with boundary-pinning envelope.

    Delta(t)/G = 1 + t(tau-t) * sum_n [a_n cos(w_n t) + b_n sin(w_n t)],
    w_n = 2 pi n / tau.  Empty coefficient lists give the constant pulse
    Delta(t) = G.
    """

    a: tuple[float, ...]
    b: tuple[float, ...]
    tau_total: float
    G: float

    def __post_init__(self):
        object.__setattr__(self, "a", tuple(float(x) for x in self.a))
        object.__setattr__(self, "b", tuple(float(x) for x in self.b))
        if len(self.a) != len(self.b):
            raise ValueError(f"coefficient lists differ in length: {len(self.a)} vs {len(self.b)}")
        if self.tau_total <= 0:
            raise ValueError(f"tau_total must be positive, got {self.tau_total}")

    @property
    def n_omega(self) -> int:
        return len(self.a)

    def detuning(self, t):
        """Detuning Delta(t); accepts a scalar or array of times in [0, tau_total]."""
        arr = np.asarray(t, dtype=float)
        tol = 1e-12 * max(1.0, self.tau_total)
        if np.any(arr < -tol) or np.any(arr > self.tau_total + tol):
            raise ValueError(f"time outside [0, {self.tau_total}]")
        if self.n_omega == 0:
            out = np.full_like(arr, self.G, dtype=float)
            return float(out) if out.ndim == 0 else out
        n = np.arange(1, self.n_omega + 1)
        omegas = 2.0 * np.pi * n / self.tau_total
        phase = np.multiply.outer(arr, omegas)
        series = np.cos(phase) @ np.asarray(self.a) + np.sin(phase) @ np.asarray(self.b)
        out = self.G * (1.0 + arr * (self.tau_total - arr) * series)
        return float(out) if out.ndim == 0 else out


def lamb_shifts(params: ModelParams | SingleModeParams) -> tuple[float, float, float, float]:
    """Second-order frequency shifts chi_i = g_i^2 / Delta_i for (n, m, e, f)."""
    shifts = []
    for name, g, delta in params.coupling_pairs():
        if delta == 0.0:
            raise ZeroDetuningError(f"zero detuning for pair {name!r}: Lamb shift undefined")
        shifts.append(g * g / delta)
    return tuple(shifts)  # type: ignore[return-value]


def _induced_coupling(g1: float, g2: float, d1: float, d2: float) -> float:
    return 0.5 * g1 * g2 * (1.0 / d1 + 1.0 / d2)


def effective_couplings(params: ModelParams) -> EffectiveParams:
    """Dispersive reduction of the two-cavity model.

    G_e = (g_e g_n / 2)(1/Delta_e + 1/Delta_n), likewise G_f; tilde detunings
    come from the Lamb-shifted frequencies.  Outside the dispersive regime a
    DispersiveRegimeWarning is emitted and the computation proceeds.
    """
    chi_n, chi_m, chi_e, chi_f = lamb_shifts(params)
    if not params.is_dispersive():
        warnings.warn(
            f"dispersive regime violated: max |g/Delta| = {params.dispersive_margin():.3g} "
            f"> {DISPERSIVE_LIMIT}",
            DispersiveRegimeWarning,
            stacklevel=2,
        )
    return EffectiveParams(
        G_e=_induced_coupling(params.g_e, params.g_n, params.delta_e, params.delta_n),
        G_f=_induced_coupling(params.g_m, params.g_f, params.delta_m, params.delta_f),
        Delta_e_tilde=(params.omega_e + chi_e) - (params.omega_n + chi_n),
        Delta_f_tilde=(params.omega_f + chi_f) - (params.omega_m + chi_m),
        chi_n=chi_n, chi_m=chi_m, chi_e=chi_e, chi_f=chi_f,
    )


def effective_couplings_single_mode(params: SingleModeParams) -> EffectiveParams:
    """Dispersive reduction of the shared-cavity model (direct n-e and m-f terms)."""
    chi_n, chi_m, chi_e, chi_f = lamb_shifts(params)
    return EffectiveParams(
        G_e=_induced_coupling(params.lambda_n, params.lambda_e, params.delta_n, params.delta_e),
        G_f=_induced_coupling(params.lambda_m, params.lambda_f, params.delta_m, params.delta_f),
        Delta_e_tilde=(params.omega_e + chi_e) - (params.omega_n + chi_n),
        Delta_f_tilde=(params.omega_f + chi_f) - (params.omega_m + chi_m),
        chi_n=chi_n, chi_m=chi_m, chi_e=chi_e, chi_f=chi_f,
    )


def detuning_match(params: SingleModeParams) -> bool:
    """True iff Delta_n = Delta_e = -Delta_m = -Delta_f (relative tol 1e-12)."""
    ref = params.delta_n
    return (
        math.isclose(params.delta_e, ref, rel_tol=DETUNING_MATCH_RTOL, abs_tol=1e-300)
        and math.isclose(params.delta_m, -ref, rel_tol=DETUNING_MATCH_RTOL, abs_tol=1e-300)
        and math.isclose(params.delta_f, -ref, rel_tol=DETUNING_MATCH_RTOL, abs_tol=1e-300)
    )


def _atom_ops(space: HilbertSpace) -> dict[str, np.ndarray]:
    """Embedded qutrit operators; requires a dim-3 subsystem labeled 'atom'."""
    if space.dim("atom") != 3:
        raise DimensionError(f"atom subsystem must have dimension 3, got {space.dim('atom')}")
    return {
        "pg": embed(level_projector(3, LEVEL_G), space, "atom").matrix,
        "pe": embed(level_projector(3, LEVEL_E), space, "atom").matrix,
        "pf": embed(level_projector(3, LEVEL_F), space, "atom").matrix,
        "se_plus": embed(transition(3, LEVEL_E, LEVEL_G), space, "atom").matrix,
        "sf_plus": embed(transition(3, LEVEL_F, LEVEL_G), space, "atom").matrix,
        "sfe_plus": embed(transition(3, LEVEL_F, LEVEL_E), space, "atom").matrix,
    }


def _mode_ops(space: HilbertSpace, label: str) -> tuple[np.ndarray, np.ndarray]:
    """(lowering, number) matrices for a bosonic subsystem."""
    low = embed(annihilation(space.dim(label)), space, label).matrix
    return low, low.conj().T @ low


def _jc_matrix(eff: EffectiveParams, space: HilbertSpace) -> np.ndarray:
    atom = _atom_ops(space)
    n_low, _ = _mode_ops(space, "n")
    m_low, _ = _mode_ops(space, "m")
    x_e = n_low @ atom["se_plus"]
    x_f = m_low @ atom["sf_plus"]
    return (
        eff.Delta_e_tilde * atom["pe"]
        + eff.Delta_f_tilde * atom["pf"]
        + eff.G_e * (x_e + x_e.conj().T)
        + eff.G_f * (x_f + x_f.conj().T)
    )


def build_jc_effective(eff: EffectiveParams, space: HilbertSpace) -> Operator:
    """Jaynes-Cummings-like magnon-qutrit Hamiltonian on [atom:3, n:d, m:d].

    H = Dte |e><e| + Dtf |f><f| + G_e (n s+_eg + h.c.) + G_f (m s+_fg + h.c.)
    """
    if space.labels != ("atom", "n", "m"):
        raise DimensionError(f"expected subsystems ('atom', 'n', 'm'), got {space.labels}")
    return Operator(space, _jc_matrix(eff, space), hamiltonian=True)


def build_full_two_cavity(params: ModelParams, space: HilbertSpace) -> Operator:
    """Full two-cavity Hamiltonian on [atom:3, a:c, b:c, n:d, m:d].

    Free frequencies plus the four excitation-exchange couplings
    (a-n, a-atom_e, b-m, b-atom_f).
    """
    if space.labels != ("atom", "a", "b", "n", "m"):
        raise DimensionError(f"expected subsystems ('atom', 'a', 'b', 'n', 'm'), got {space.labels}")
    atom = _atom_ops(space)
    a_low, a_num = _mode_ops(space, "a")
    b_low, b_num = _mode_ops(space, "b")
    n_low, n_num = _mode_ops(space, "n")
    m_low, m_num = _mode_ops(space, "m")
    h = (
        params.omega_a * a_num + params.omega_b * b_num
        + params.omega_n * n_num + params.omega_m * m_num
        + params.omega_e * atom["pe"] + params.omega_f * atom["pf"]
    )
    for g, cav, other in (
        (params.g_n, a_low, n_low),
        (params.g_m, b_low, m_low),
    ):
        x = cav.conj().T @ other  # a^+ n
        h += g * (x + x.conj().T)
    for g, cav, s_plus in (
        (params.g_e, a_low, atom["se_plus"]),
        (params.g_f, b_low, atom["sf_plus"]),
    ):
        x = cav @ s_plus  # a s+_ig
        h += g * (x + x.conj().T)
    return Operator(space, h, hamiltonian=True)


def build_single_mode_full(params: SingleModeParams, space: HilbertSpace) -> Operator:
    """Shared-cavity Hamiltonian on [atom:3, a:c, n:d, m:d]."""
    if space.labels != ("atom", "a", "n", "m"):
        raise DimensionError(f"expected subsystems ('atom', 'a', 'n', 'm'), got {space.labels}")
    atom = _atom_ops(space)
    a_low, a_num = _mode_ops(space, "a")
    n_low, n_num = _mode_ops(space, "n")
    m_low, m_num = _mode_ops(space, "m")
    h = (
        params.omega_a * a_num + params.omega_n * n_num + params.omega_m * m_num
        + params.omega_e * atom["pe"] + params.omega_f * atom["pf"]
    )
    for lam, other in ((params.lambda_n, n_low), (params.lambda_m, m_low)):
        x = a_low.conj().T @ other
        h += lam * (x + x.conj().T)
    for lam, s_plus in ((params.lambda_e, atom["se_plus"]), (params.lambda_f, atom["sf_plus"])):
        x = a_low @ s_plus
        h += lam * (x + x.conj().T)
    return Operator(space, h, hamiltonian=True)


def sw_generator(params: ModelParams | SingleModeParams, space: HilbertSpace) -> Operator:
    """Anti-Hermitian Schrieffer-Wolff generator removing the first-order couplings."""
    atom = _atom_ops(space)
    if isinstance(params, ModelParams):
        a_low, _ = _mode_ops(space, "a")
        b_low, _ = _mode_ops(space, "b")
        boson_terms = ((params.g_n, a_low, "n"), (params.g_m, b_low, "m"))
        atom_terms = ((params.g_e, a_low, "se_plus"), (params.g_f, b_low, "sf_plus"))
        deltas = {"n": params.delta_n, "m": params.delta_m,
                  "se_plus": params.delta_e, "sf_plus": params.delta_f}
    else:
        a_low, _ = _mode_ops(space, "a")
        boson_terms = ((params.lambda_n, a_low, "n"), (params.lambda_m, a_low, "m"))
        atom_terms = ((params.lambda_e, a_low, "se_plus"), (params.lambda_f, a_low, "sf_plus"))
        deltas = {"n": params.delta_n, "m": params.delta_m,
                  "se_plus": params.delta_e, "sf_plus": params.delta_f}
    s = np.zeros((space.total_dim, space.total_dim), dtype=complex)
    for g, cav, label in boson_terms:
        if g == 0.0:
            continue
        if deltas[label] == 0.0:
            raise ZeroDetuningError(f"zero detuning for pair {label!r}")
        mode_low, _ = _mode_ops(space, label)
        x = cav @ mode_low.conj().T  # a x^+
        s += (g / deltas[label]) * (x - x.conj().T)
    for g, cav, key in atom_terms:
        if g == 0.0:
            continue
        if deltas[key] == 0.0:
            raise ZeroDetuningError(f"zero detuning for pair {key!r}")
        x = cav @ atom[key]  # a s+_ig
        s += (g / deltas[key]) * (x - x.conj().T)
    return Operator(space, s)


def build_sw_effective(params: ModelParams, space: HilbertSpace) -> Operator:
    """Closed-form second-order effective Hamiltonian of the two-cavity model.

    Includes the Lamb-shifted free part, the induced magnon-qutrit exchange,
    the photon-number-conditioned dispersive shifts, and the cavity-swap
    three-body term.
    """
    chi_n, chi_m, chi_e, chi_f = lamb_shifts(params)
    atom = _atom_ops(space)
    a_low, a_num = _mode_ops(space, "a")
    b_low, b_num = _mode_ops(space, "b")
    n_low, n_num = _mode_ops(space, "n")
    m_low, m_num = _mode_ops(space, "m")
    eff = effective_couplings(params)
    g_fe = _induced_coupling(params.g_e, params.g_f, params.delta_e, params.delta_f)
    x_e = n_low @ atom["se_plus"]
    x_f = m_low @ atom["sf_plus"]
    swap = (a_low.conj().T @ b_low) @ atom["sfe_plus"]  # a^+ b s+_fe
    h = (
        (params.omega_a - chi_n) * a_num + (params.omega_b - chi_m) * b_num
        + (params.omega_n + chi_n) * n_num + (params.omega_m + chi_m) * m_num
        + (params.omega_e + chi_e) * atom["pe"] + (params.omega_f + chi_f) * atom["pf"]
        + eff.G_e * (x_e + x_e.conj().T) + eff.G_f * (x_f + x_f.conj().T)
        + chi_e * a_num @ (atom["pe"] - atom["pg"])
        + chi_f * b_num @ (atom["pf"] - atom["pg"])
        + g_fe * (swap + swap.conj().T)
    )
    return Operator(space, h, hamiltonian=True)


def build_sw_effective_single_mode(params: SingleModeParams, space: HilbertSpace) -> Operator:
    """Closed-form second-order effective Hamiltonian of the shared-cavity model.

    Carries every induced pair coupling G_ij = (l_i l_j / 2)(1/D_i + 1/D_j),
    the magnon-swap term, the photon-conditioned shifts, and the
    excited-level exchange with its vacuum contribution (a^+a + 1).
    """
    chi_n, chi_m, chi_e, chi_f = lamb_shifts(params)
    atom = _atom_ops(space)
    a_low, a_num = _mode_ops(space, "a")
    n_low, n_num = _mode_ops(space, "n")
    m_low, m_num = _mode_ops(space, "m")
    eye = np.eye(space.total_dim, dtype=complex)
    p = params
    g_ne = _induced_coupling(p.lambda_n, p.lambda_e, p.delta_n, p.delta_e)
    g_nf = _induced_coupling(p.lambda_n, p.lambda_f, p.delta_n, p.delta_f)
    g_me = _induced_coupling(p.lambda_m, p.lambda_e, p.delta_m, p.delta_e)
    g_mf = _induced_coupling(p.lambda_m, p.lambda_f, p.delta_m, p.delta_f)
    g_nm = _induced_coupling(p.lambda_n, p.lambda_m, p.delta_n, p.delta_m)
    g_fe = _induced_coupling(p.lambda_e, p.lambda_f, p.delta_e, p.delta_f)
    pairs = (
        (g_ne, n_low @ atom["se_plus"]),
        (g_nf, n_low @ atom["sf_plus"]),
        (g_me, m_low @ atom["se_plus"]),
        (g_mf, m_low @ atom["sf_plus"]),
        (g_nm, n_low.conj().T @ m_low),
        (g_fe, (a_num + eye) @ atom["sfe_plus"]),
    )
    h = (
        (p.omega_a - chi_n - chi_m) * a_num
        + (p.omega_n + chi_n) * n_num + (p.omega_m + chi_m) * m_num
        + (p.omega_e + chi_e) * atom["pe"] + (p.omega_f + chi_f) * atom["pf"]
        + a_num @ (chi_e * (atom["pe"] - atom["pg"]) + chi_f * (atom["pf"] - atom["pg"]))
    )
    for g, x in pairs:
        h += g * (x + x.conj().T)
    return Operator(space, h, hamiltonian=True)


def excitation_numbers(space: HilbertSpace, atom_label: str = "atom") -> np.ndarray:
    """Total excitation per basis state; qutrit levels e, f count as one each."""
    dims = space.dims
    grids = np.unravel_index(np.arange(space.total_dim), dims)
    total = np.zeros(space.total_dim, dtype=int)
    for (label, _), occ in zip(space.subsystems, grids):
        total += (occ > 0).astype(int) if label == atom_label else occ
    return total


def sw_reduction_check(
    params: ModelParams | SingleModeParams,
    space: HilbertSpace,
    max_excitation: int = 2,
) -> float:
    """Max-abs residual between the exact frame change and the closed form.

    Conjugates the full Hamiltonian by exp(S) with matrix exponentials,
    subtracts the closed-form second-order Hamiltonian, and restricts to the
    low-excitation block (total excitation <= max_excitation) to avoid
    truncation-edge artifacts.  The residual scales as the cube of the
    coupling-to-detuning ratio.
    """
    from .dynamics import unitary_from_generator

    if isinstance(params, ModelParams):
        full = build_full_two_cavity(params, space)
        closed = build_sw_effective(params, space)
    else:
        full = build_single_mode_full(params, space)
        closed = build_sw_effective_single_mode(params, space)
    u = unitary_from_generator(sw_generator(params, space)).matrix
    residual = u @ full.matrix @ u.conj().T - closed.matrix
    keep = np.flatnonzero(excitation_numbers(space) <= max_excitation)
    block = residual[np.ix_(keep, keep)]
    return float(np.abs(block).max())


def build_time_dependent_jc(
    pulse: PulseCoefficients, G: float, space: HilbertSpace
) -> Callable[[float], Operator]:
    """Time-dependent magnon-qutrit Hamiltonian with a shaped common detuning.

    H(t) = Delta(t) (|e><e| + |f><f|) + G (n s+_eg + m s+_fg + h.c.), with
    Delta(t) given by the pulse.  The returned callable rejects times outside
    [0, tau_total].
    """
    atom = _atom_ops(space)
    n_low, _ = _mode_ops(space, "n")
    m_low, _ = _mode_ops(space, "m")
    x = n_low @ atom["se_plus"] + m_low @ atom["sf_plus"]
    coupling = G * (x + x.conj().T)
    p_ef = atom["pe"] + atom["pf"]

    def hamiltonian_at(t: float) -> Operator:
        delta = pulse.detuning(t)
        return Operator(space, delta * p_ef + coupling, hamiltonian=True)

    return hamiltonian_at


def dispersive_evolution_fidelity(
    params: ModelParams,
    magnon_state,
    t: float,
    cavity_cutoff: int = 3,
) -> float:
    """Fidelity between full-model evolution and its dispersive prediction.

    Starting from the qutrit ground state, empty cavities, and the given
    two-mode magnon state, evolves once under the full two-cavity Hamiltonian
    and compares against the second-order prediction
    exp(-S) exp(-i H_R t) exp(-i H_eff t) exp(S) applied to the same initial
    state, where H_R is the Lamb-shifted rotating-frame generator.
    """
    from functools import reduce as _reduce

    from .dynamics import propagator, unitary_from_generator

    if magnon_state.kind != "pure" or len(magnon_state.space.subsystems) != 2:
        raise DimensionError("magnon_state must be pure on a two-subsystem space")
    dn, dm = magnon_state.space.dims
    space = HilbertSpace((("atom", 3), ("a", cavity_cutoff), ("b", cavity_cutoff),
                          ("n", dn), ("m", dm)))
    g_vec = np.zeros(3, dtype=complex)
    g_vec[LEVEL_G] = 1.0
    vac = np.zeros(cavity_cutoff, dtype=complex)
    vac[0] = 1.0
    psi0 = _reduce(np.kron, (g_vec, vac, vac, magnon_state.data))

    full = build_full_two_cavity(params, space)
    u_full = propagator(full, t).matrix
    u_s = unitary_from_generator(sw_generator(params, space)).matrix

    chi_n, chi_m, chi_e, chi_f = lamb_shifts(params)
    # built before the atom operators below, so its own temporaries are freed first
    h_eff = _jc_matrix(effective_couplings(params), space)
    atom = _atom_ops(space)
    _, a_num = _mode_ops(space, "a")
    _, b_num = _mode_ops(space, "b")
    _, n_num = _mode_ops(space, "n")
    _, m_num = _mode_ops(space, "m")
    h_rot = (
        (params.omega_a - chi_n) * a_num + (params.omega_b - chi_m) * b_num
        + (params.omega_n + chi_n) * (n_num + atom["pe"])
        + (params.omega_m + chi_m) * (m_num + atom["pf"])
    )
    u_eff = propagator(Operator(space, h_eff, hamiltonian=True), t).matrix
    u_rot = propagator(Operator(space, h_rot, hamiltonian=True), t).matrix

    psi_full = u_full @ psi0
    psi_pred = u_s.conj().T @ (u_rot @ (u_eff @ (u_s @ psi0)))
    return float(abs(np.vdot(psi_pred, psi_full)) ** 2)
