"""Hamiltonian builders for the two-magnon / V-type-qutrit system.

Two bare models reach the qutrit through cavities: one cavity per magnon
(``ModelParams``) or one shared cavity (``SingleModeParams``).  Each is its
fields plus one wiring table, from which its detunings, checks and induced
couplings are read.  One table of operators on occupation rows serves the bare
Hamiltonian, the Schrieffer-Wolff generator and the closed-form dispersive
Hamiltonian of both, and every term of each, the closed form's induced pair
terms included, is read from the wiring table.  The reduction leaves a
Jaynes-Cummings-like magnon-qutrit Hamiltonian, with a time-dependent variant
for a CRAB-shaped detuning.  All frequencies and couplings are in units of
the magnon frequency; times are in units of its inverse.  The bare models
carry no loss rates: magnon loss is set on the protocol (``ProtocolConfig``).

Qutrit level ordering is fixed package-wide: (g, e, f) = (0, 1, 2), and so is
the joint qutrit-magnon layout, the qutrit first, written once in the helpers below.
"""

from __future__ import annotations

import math
import operator
import warnings
from dataclasses import dataclass
from functools import reduce
from itertools import combinations
from typing import Callable, ClassVar

import numpy as np

from .dynamics import propagator_matrix
from .hilbert import DimensionError, HilbertSpace, Operator

LEVEL_G, LEVEL_E, LEVEL_F = 0, 1, 2
DISPERSIVE_LIMIT = 0.1
DETUNING_MATCH_RTOL = 1e-12
# G_f/G_e for coherent inputs; criteria 06/07 all pass only for xi in [1.975, 2.035] (or 1/xi)
COHERENT_COUPLING_RATIO = 2.0
_QUTRIT_PARTIES = ("e", "f")
_JC_LABELS = ("atom", "n", "m")


def _magnon_space(cutoff: int) -> HilbertSpace:
    """The two-mode magnon space (n, m), both modes cut at cutoff."""
    return HilbertSpace((("n", cutoff), ("m", cutoff)))


def _joint_space(mag: HilbertSpace) -> HilbertSpace:
    """The qutrit-magnon space: the dim-3 qutrit "atom" first, then the magnon factors."""
    return HilbertSpace((("atom", 3),) + mag.subsystems)


def _magnon_part(space: HilbertSpace) -> HilbertSpace:
    """The magnon factor of a joint space; DimensionError unless the qutrit comes first, with dimension 3."""
    if space.labels[0] != "atom" or space.dims[0] != 3:
        raise DimensionError(f"expected the qutrit first, with dimension 3, got {space.subsystems}")
    return space.subspace(space.labels[1:])


def _with_ground(x: np.ndarray) -> np.ndarray:
    """|g> (x) x for a magnon vector, |g><g| (x) x for a magnon matrix."""
    out = np.zeros((3 * x.shape[0],) * x.ndim, dtype=complex)
    _ground_block(out)[...] = x  # a view: the block is a basic slice
    return out


def _ground_block(x: np.ndarray) -> np.ndarray:
    """The |g> rows (and, for a matrix, columns) of a joint vector or matrix."""
    block = x.shape[0] // 3
    g = slice(LEVEL_G * block, (LEVEL_G + 1) * block)
    return x[g] if x.ndim == 1 else x[g, g]


class ZeroDetuningError(ZeroDivisionError):
    """A dispersive formula was requested at zero detuning."""


class DispersiveRegimeWarning(UserWarning):
    """Coupling-to-detuning ratio exceeds the dispersive-regime limit."""


class _BareModel:
    """A bare model: its frequencies and couplings plus one wiring table.

    A model declares CAVITIES, its cavity labels, and WIRING, which maps each
    party n, m, e, f to (cavity, coupling field).  Every frequency is a field
    omega_<label>.  The detunings, the nonnegativity check, the coupling pairs
    and the induced pair couplings are all read off the table.
    """

    CAVITIES: ClassVar[tuple[str, ...]]
    WIRING: ClassVar[dict[str, tuple[str, str]]]

    def __post_init__(self):
        for _, field in self.WIRING.values():
            if not getattr(self, field) >= 0:  # NaN fails too
                raise ValueError(f"{field} must be nonnegative, got {getattr(self, field)}")

    @property
    def space_labels(self) -> tuple[str, ...]:
        """Subsystem labels of the model's space: qutrit, cavities, then n and m."""
        return ("atom", *self.CAVITIES, "n", "m")

    def cavities(self) -> tuple[tuple[str, float], ...]:
        """(label, omega) per cavity."""
        return tuple((label, getattr(self, f"omega_{label}")) for label in self.CAVITIES)

    def detuning(self, party: str) -> float:
        """Delta_party = omega_party - omega of the cavity wired to the party."""
        cavity, _ = self.WIRING[party]
        return getattr(self, f"omega_{party}") - getattr(self, f"omega_{cavity}")

    def coupling_pairs(self) -> tuple[tuple[str, str, float, float], ...]:
        """(party, cavity, g, Delta) for n, m, e, f."""
        return tuple((party, cavity, getattr(self, field), self.detuning(party))
                     for party, (cavity, field) in self.WIRING.items())

    def induced_coupling(self, i: str, j: str) -> float:
        """G_ij = (g_i g_j / 2)(1/Delta_i + 1/Delta_j); 0 if either party is uncoupled."""
        g_i, g_j = (getattr(self, self.WIRING[party][1]) for party in (i, j))
        if g_i == 0.0 or g_j == 0.0:  # an uncoupled pair induces nothing, whatever its detuning
            return 0.0
        return 0.5 * g_i * g_j * (1.0 / self.detuning(i) + 1.0 / self.detuning(j))

    def dispersive_margin(self) -> float:
        """Largest |g/Delta| over the four coupled pairs (inf at zero detuning)."""
        worst = 0.0
        for _, _, g, delta in self.coupling_pairs():
            if g == 0.0:
                continue
            worst = max(worst, abs(g / delta)) if delta != 0.0 else math.inf
        return worst

    def is_dispersive(self) -> bool:
        return self.dispersive_margin() <= DISPERSIVE_LIMIT


@dataclass(frozen=True)
class ModelParams(_BareModel):
    """Bare two-cavity model parameters (units of the magnon frequency).

    Cavity a couples to magnon n and qutrit level e, cavity b to magnon m and
    level f; each detuning is measured from the party's own cavity.
    """

    CAVITIES = ("a", "b")
    WIRING = {"n": ("a", "g_n"), "m": ("b", "g_m"), "e": ("a", "g_e"), "f": ("b", "g_f")}

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


@dataclass(frozen=True)
class SingleModeParams(_BareModel):
    """Bare parameters for the shared-cavity variant; detunings from omega_a."""

    CAVITIES = ("a",)
    WIRING = {"n": ("a", "lambda_n"), "m": ("a", "lambda_m"),
              "e": ("a", "lambda_e"), "f": ("a", "lambda_f")}

    omega_a: float
    omega_n: float
    omega_m: float
    omega_e: float
    omega_f: float
    lambda_n: float
    lambda_m: float
    lambda_e: float
    lambda_f: float


@dataclass(frozen=True)
class EffectiveParams:
    """Cavity-induced magnon-qutrit couplings and Lamb-shifted detunings: all the
    parity measurement reads.  The Lamb shifts stay on the bare model (``lamb_shifts``)."""

    G_e: float
    G_f: float
    Delta_e_tilde: float = 0.0
    Delta_f_tilde: float = 0.0

    def common_detuning(self) -> float:
        """The shared detuning Delta; the two tilde detunings must agree within 1e-12."""
        if abs(self.Delta_e_tilde - self.Delta_f_tilde) > 1e-12:
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
        if not (self.tau_total > 0 and math.isfinite(self.tau_total)):  # NaN fails too
            raise ValueError(f"tau_total must be positive and finite, got {self.tau_total}")
        if not all(math.isfinite(v) for v in (self.G,) + self.a + self.b):
            raise ValueError(f"G and the coefficients must be finite, got G = {self.G}, "
                             f"a = {self.a}, b = {self.b}")

    @property
    def n_omega(self) -> int:
        return len(self.a)

    def basis(self, t) -> np.ndarray:
        """Envelope-weighted CRAB table, so that Delta(t) = G (1 + basis(t) @ (a || b)).

        Columns are t(tau-t) cos(w_n t), then t(tau-t) sin(w_n t), n = 1..n_omega;
        one row per time in [0, tau_total] (a scalar time gives one row).  The
        table depends on the coefficients only through their count.
        """
        arr = np.asarray(t, dtype=float)
        tol = 1e-12 * max(1.0, self.tau_total)
        if not np.all((arr >= -tol) & (arr <= self.tau_total + tol)):  # NaN fails too
            raise ValueError(f"time outside [0, {self.tau_total}]")
        omegas = 2.0 * np.pi * np.arange(1, self.n_omega + 1) / self.tau_total
        phase = np.multiply.outer(arr, omegas)
        envelope = (arr * (self.tau_total - arr))[..., np.newaxis]
        return np.concatenate((envelope * np.cos(phase), envelope * np.sin(phase)), axis=-1)

    def detuning(self, t):
        """Detuning Delta(t); accepts a scalar or array of times in [0, tau_total]."""
        out = self.G * (1.0 + self.basis(t) @ np.array(self.a + self.b))
        return float(out) if out.ndim == 0 else out


def lamb_shifts(params: ModelParams | SingleModeParams) -> tuple[float, float, float, float]:
    """Second-order frequency shifts chi_i = g_i^2 / Delta_i for (n, m, e, f); 0 if g_i = 0."""
    shifts = []
    for party, _, g, delta in params.coupling_pairs():
        if g != 0.0 and delta == 0.0:
            raise ZeroDetuningError(f"zero detuning for pair {party!r}: Lamb shift undefined")
        shifts.append(g * g / delta if g != 0.0 else 0.0)
    return tuple(shifts)  # type: ignore[return-value]


def effective_couplings(params: ModelParams | SingleModeParams) -> EffectiveParams:
    """Dispersive reduction of either bare model.

    G_e = (g_e g_n / 2)(1/Delta_e + 1/Delta_n), likewise G_f from the m and f
    pairs; tilde detunings come from the Lamb-shifted frequencies, whose
    shifts (``lamb_shifts``) are not kept.  Outside the dispersive regime a
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
        G_e=params.induced_coupling("e", "n"),
        G_f=params.induced_coupling("m", "f"),
        Delta_e_tilde=(params.omega_e + chi_e) - (params.omega_n + chi_n),
        Delta_f_tilde=(params.omega_f + chi_f) - (params.omega_m + chi_m),
    )


def detuning_match(params: SingleModeParams) -> bool:
    """True iff Delta_n = Delta_e = -Delta_m = -Delta_f (relative tol 1e-12)."""
    ref = params.detuning("n")
    return all(
        math.isclose(params.detuning(party), sign * ref,
                     rel_tol=DETUNING_MATCH_RTOL, abs_tol=1e-300)
        for party, sign in (("e", 1.0), ("m", -1.0), ("f", -1.0))
    )


def _operator_table(rows: np.ndarray, modes: tuple[str, ...]) -> dict:
    """The qutrit operators plus a (lowering, number) pair per listed mode, on a list of basis rows.

    Each row is the occupation of one basis state: the qutrit level, then one
    count per listed mode.  Every operator is an index map on the rows: it
    moves one occupation and drops any image that is not a row.  On the whole
    product basis in Kronecker order these are the embedded operators; on a
    smaller row set, the embedded operators sliced to it.
    """
    occupations = rows.tolist()
    index = {tuple(occ): i for i, occ in enumerate(occupations)}

    def hop(column: int, weights: np.ndarray, step: int) -> np.ndarray:
        """Map row i, times weights[i] where nonzero, to the row with that column moved by step."""
        mat = np.zeros((len(occupations), len(occupations)), dtype=complex)
        for i in np.flatnonzero(weights):
            image = list(occupations[i])
            image[column] += step
            j = index.get(tuple(image))
            if j is not None:
                mat[j, i] = weights[i]
        return mat

    level = rows[:, 0]
    ops = {
        "pg": hop(0, level == LEVEL_G, 0),
        "pe": hop(0, level == LEVEL_E, 0),
        "pf": hop(0, level == LEVEL_F, 0),
        "se_plus": hop(0, level == LEVEL_G, LEVEL_E - LEVEL_G),
        "sf_plus": hop(0, level == LEVEL_G, LEVEL_F - LEVEL_G),
        "sfe_plus": hop(0, level == LEVEL_E, LEVEL_F - LEVEL_E),
    }
    for column, label in enumerate(modes, start=1):
        low = hop(column, np.sqrt(rows[:, column]), -1)
        ops[label] = (low, low.conj().T @ low)
    return ops


def _product_ops(space: HilbertSpace, labels: tuple[str, ...]) -> dict:
    """Operator table on the whole product basis of a space [atom:3, modes...] labeled as given."""
    if space.labels != labels:
        raise DimensionError(f"expected subsystems {labels}, got {space.labels}")
    _magnon_part(space)  # the qutrit first, with dimension 3
    rows = np.indices(space.dims).reshape(len(labels), -1).T  # Kronecker order
    return _operator_table(rows, labels[1:])


def _excitation(rows: np.ndarray) -> np.ndarray:
    """Total excitation per occupation row; qutrit levels e, f count as one each."""
    return (rows[:, 0] != LEVEL_G) + rows[:, 1:].sum(axis=1)


def _capped_ops(params: ModelParams | SingleModeParams, cap: int) -> tuple[np.ndarray, dict]:
    """(rows, operator table) of a bare model on every state of total excitation <= cap.

    No mode has a cutoff: each block of excitation <= cap is held whole.
    Every bare-model term conserves total excitation, and each factor of a
    table product moves it by at most one, so with cap = K + 1 a product is
    cut only where it passes through a state above K + 1.  Every Hamiltonian
    and generator built from this table is therefore block-diagonal in the
    excitation and exact on the blocks <= K, and so are its exponentials.
    """
    labels = params.space_labels
    rows = np.indices((3, *[cap + 1] * (len(labels) - 1))).reshape(len(labels), -1).T
    rows = rows[_excitation(rows) <= cap]
    return rows, _operator_table(rows, labels[1:])


def _party_ops(ops: dict, party: str) -> tuple[np.ndarray, np.ndarray]:
    """(x^+, occupation) of a party: (n^+, n^+ n) for a magnon, (s+_ig, |i><i|) for a level."""
    if party in _QUTRIT_PARTIES:
        return ops[f"s{party}_plus"], ops[f"p{party}"]
    low, num = ops[party]
    return low.conj().T, num


def _jc_matrix(eff: EffectiveParams, ops: dict) -> np.ndarray:
    x_e = ops["n"][0] @ ops["se_plus"]
    x_f = ops["m"][0] @ ops["sf_plus"]
    return (
        eff.Delta_e_tilde * ops["pe"]
        + eff.Delta_f_tilde * ops["pf"]
        + eff.G_e * (x_e + x_e.conj().T)
        + eff.G_f * (x_f + x_f.conj().T)
    )


def build_jc_effective(eff: EffectiveParams, space: HilbertSpace) -> Operator:
    """Jaynes-Cummings-like magnon-qutrit Hamiltonian on [atom:3, n:d, m:d].

    H = Dte |e><e| + Dtf |f><f| + G_e (n s+_eg + h.c.) + G_f (m s+_fg + h.c.)
    """
    return Operator(space, _jc_matrix(eff, _product_ops(space, _JC_LABELS)))


def _lamb_shift_map(params: ModelParams | SingleModeParams) -> dict:
    """The Lamb shifts chi of a bare model by party, as ``_free_matrix`` takes them."""
    return dict(zip(params.WIRING, lamb_shifts(params)))  # lamb_shifts follows the wiring order


def _free_matrix(params: ModelParams | SingleModeParams, ops: dict, chi: dict) -> np.ndarray:
    """Sum of frequency times occupation over the cavities, then n, m, e, f.

    Each party's frequency moves up by its Lamb shift chi; each cavity moves
    down by the shifts of the magnons it couples to.
    """
    def levels():
        for label, omega in params.cavities():
            for party, (cavity, _) in params.WIRING.items():
                if cavity == label and party not in _QUTRIT_PARTIES:
                    omega -= chi[party]
            yield omega, ops[label][1]
        for party in params.WIRING:
            yield getattr(params, f"omega_{party}") + chi[party], _party_ops(ops, party)[1]

    return reduce(operator.add, (omega * occ for omega, occ in levels()))


def _full_matrix(params: ModelParams | SingleModeParams, ops: dict) -> np.ndarray:
    h = _free_matrix(params, ops, dict.fromkeys(params.WIRING, 0.0))
    for party, cavity, g, _ in params.coupling_pairs():
        x = ops[cavity][0] @ _party_ops(ops, party)[0]  # c x^+
        h += g * (x + x.conj().T)
    return h


def _generator_matrix(params: ModelParams | SingleModeParams, ops: dict) -> np.ndarray:
    s = np.zeros_like(ops["pg"])
    for party, cavity, g, delta in params.coupling_pairs():
        if g == 0.0:
            continue
        if delta == 0.0:
            raise ZeroDetuningError(f"zero detuning for pair {party!r}")
        x = ops[cavity][0] @ _party_ops(ops, party)[0]  # c x^+
        s += (g / delta) * (x - x.conj().T)
    return s


def _induced_pairs(params: ModelParams | SingleModeParams, ops: dict):
    """(i, j, x) per induced pair term G_ij (x + x^+) of the closed form, read from the wiring.

    Two parties wired to one cavity exchange x_i x_j^+, x a party's lowering
    operator; parties on different cavities induce nothing, since their
    couplings commute.  The qutrit levels are the exception: the transitions
    e-g and f-g share |g> and do not commute, so the levels exchange through
    their cavities c_e, c_f as (c_e^+ c_f + [c_e = c_f]) s+_fe, the bracket
    being the vacuum term of c c^+ = c^+ c + 1 on one shared cavity.
    """
    for i, j in combinations(params.WIRING, 2):
        (c_i, _), (c_j, _) = params.WIRING[i], params.WIRING[j]
        if i in _QUTRIT_PARTIES and j in _QUTRIT_PARTIES:
            swap = ops[c_i][0].conj().T @ ops[c_j][0]
            if c_i == c_j:
                swap = swap + np.eye(len(swap))
            yield i, j, swap @ ops["sfe_plus"]
        elif c_i == c_j:
            yield i, j, _party_ops(ops, i)[0].conj().T @ _party_ops(ops, j)[0]


def _sw_effective_matrix(params: ModelParams | SingleModeParams, ops: dict) -> np.ndarray:
    chi = _lamb_shift_map(params)
    h = _free_matrix(params, ops, chi)
    for party, (cavity, _) in params.WIRING.items():
        if party in _QUTRIT_PARTIES:  # chi_i c^+c (|i><i| - |g><g|)
            h += chi[party] * ops[cavity][1] @ (ops[f"p{party}"] - ops["pg"])
    for i, j, x in _induced_pairs(params, ops):
        h += params.induced_coupling(i, j) * (x + x.conj().T)
    return h


def build_full(params: ModelParams | SingleModeParams, space: HilbertSpace) -> Operator:
    """Bare Hamiltonian of either model on [atom:3, cavities..., n:d, m:d].

    Free frequencies plus the four excitation exchanges g (c x^+ + h.c.),
    with x^+ = n^+, m^+, s+_eg, s+_fg and c the cavity wired to each.
    """
    return Operator(space, _full_matrix(params, _product_ops(space, params.space_labels)))


def sw_generator(params: ModelParams | SingleModeParams, space: HilbertSpace) -> Operator:
    """Anti-Hermitian Schrieffer-Wolff generator S = sum (g/Delta)(c x^+ - h.c.).

    It removes the first-order couplings of ``build_full``; pairs with zero
    coupling are skipped.
    """
    return Operator(space, _generator_matrix(params, _product_ops(space, params.space_labels)))


def build_sw_effective(params: ModelParams | SingleModeParams, space: HilbertSpace) -> Operator:
    """Closed-form second-order effective Hamiltonian of either model.

    The Lamb-shifted free part, the photon-number-conditioned qutrit shifts
    chi_i c^+c (|i><i| - |g><g|), and the induced pair terms the wiring
    gives (``_induced_pairs``): for two cavities the exchanges G_e, G_f and
    the cavity swap; for the shared cavity every pair, including the magnon
    swap.
    """
    return Operator(space, _sw_effective_matrix(params, _product_ops(space, params.space_labels)))


def sw_reduction_check(params: ModelParams | SingleModeParams) -> float:
    """Max-abs residual between the exact frame change and the closed form.

    Conjugates the full Hamiltonian by exp(S) with matrix exponentials,
    subtracts the closed-form second-order Hamiltonian, and restricts to the
    low-excitation block (total excitation <= 2) to avoid truncation-edge
    artifacts.  The residual scales as the cube of the coupling-to-detuning
    ratio.  All of it runs on the states of excitation <= 3: H, S and the
    closed form conserve excitation, so exp(S) is block-diagonal and the
    capped operator table is exact on the blocks <= 2 (see ``_capped_ops``).
    The residual is formed as [exp(S) - 1, H] exp(-S) + (H - H_closed), so
    no product of O(1) matrices is cancelled against the closed form.
    Raises ValueError if the closed form is not finite, as when a Lamb shift
    g^2 / Delta, or a sum of them, is past the float range.
    """
    rows, ops = _capped_ops(params, 3)
    with np.errstate(over="ignore", invalid="ignore"):  # rejected below, not warned
        closed = _sw_effective_matrix(params, ops)
    if not np.isfinite(closed).all():
        raise ValueError(f"the closed-form Hamiltonian is not finite: its largest Lamb shift "
                         f"g^2 / Delta is {max(abs(chi) for chi in lamb_shifts(params)):.3g}")
    w = propagator_matrix(1j * _generator_matrix(params, ops), 1.0, minus_identity=True)
    full = _full_matrix(params, ops)
    u_inv = w.conj().T + np.eye(len(w))
    residual = (w @ full - full @ w) @ u_inv + (full - closed)
    low = _excitation(rows) <= 2
    return float(np.abs(residual[np.ix_(low, low)]).max())


def build_time_dependent_jc(
    pulse: PulseCoefficients, G: float, space: HilbertSpace
) -> Callable[[float], Operator]:
    """Time-dependent magnon-qutrit Hamiltonian with a shaped common detuning.

    H(t) = Delta(t) (|e><e| + |f><f|) + G (n s+_eg + m s+_fg + h.c.), with
    Delta(t) given by the pulse.  The returned callable rejects times outside
    [0, tau_total].
    """
    ops = _product_ops(space, _JC_LABELS)
    coupling = _jc_matrix(EffectiveParams(G_e=G, G_f=G), ops)
    p_ef = ops["pe"] + ops["pf"]

    def hamiltonian_at(t: float) -> Operator:
        delta = pulse.detuning(t)
        return Operator(space, delta * p_ef + coupling)

    return hamiltonian_at


def dispersive_evolution_fidelity(params: ModelParams, magnon_state, t: float) -> float:
    """Fidelity between full-model evolution and its dispersive prediction.

    Starting from the qutrit ground state, empty cavities, and the given
    two-mode magnon state, evolves once under the full two-cavity Hamiltonian
    and compares against the second-order prediction
    exp(-S) exp(-i H_R t) exp(-i H_eff t) exp(S) applied to the same initial
    state, where H_R is the Lamb-shifted rotating-frame generator.  Both run
    on the states of excitation <= K + 1, K the largest excitation in the
    initial state's support: every operator involved conserves excitation,
    so the state stays in the blocks <= K, where the capped operator table
    is exact (see ``_capped_ops``).
    """
    if not isinstance(params, ModelParams):
        raise DimensionError(f"needs the two-cavity model, got {type(params).__name__}")
    if magnon_state.kind != "pure" or len(magnon_state.space.subsystems) != 2:
        raise DimensionError("magnon_state must be pure on a two-subsystem space")
    amps = magnon_state.data.reshape(magnon_state.space.dims)
    support_n, support_m = np.nonzero(amps)
    rows, ops = _capped_ops(params, int((support_n + support_m).max()) + 1)
    level, a, b, n, m = rows.T
    start = (level == LEVEL_G) & (a == 0) & (b == 0) & (n < amps.shape[0]) & (m < amps.shape[1])
    psi0 = np.zeros(len(rows), dtype=complex)
    psi0[start] = amps[n[start], m[start]]

    eff = effective_couplings(params)
    # H_R is the Lamb-shifted free part less the detunings H_eff keeps; it is
    # diagonal in the product basis, so exp(-i H_R t) is elementwise
    h_rot = np.diag(_free_matrix(params, ops, _lamb_shift_map(params))
                    - eff.Delta_e_tilde * ops["pe"] - eff.Delta_f_tilde * ops["pf"]).real
    u_s = propagator_matrix(1j * _generator_matrix(params, ops), 1.0)  # exp(S)
    psi_full = propagator_matrix(_full_matrix(params, ops), t) @ psi0
    psi_pred = u_s.conj().T @ (np.exp(-1j * h_rot * t)
                               * (propagator_matrix(_jc_matrix(eff, ops), t) @ (u_s @ psi0)))
    return float(abs(np.vdot(psi_pred, psi_full)) ** 2)
