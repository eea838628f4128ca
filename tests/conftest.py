"""Shared fixtures and independent oracles for the test suite.

Oracles here deliberately avoid the library code paths they check:
the Kraus-block oracle diagonalizes each excitation block directly, the
coherent-state oracle sums the Poisson series, the protocol-power oracle
applies coefficient powers to the initial amplitudes, and the sliced-pulse
oracle multiplies the 2x2 slice exponentials one at a time in a Python loop.
The sliced-trace oracle steps the 27-dim qutrit-magnon state through the
pulse's slice propagators, where the library reads the trace from the 2x2
block scan of the search.  The dense dispersive-check oracles run on the
whole bare space with the public full-space builders, where the library
caps the excitation, and the embedded operator table builds each operator
as a Kronecker product of identities (``embed``, ``level_projector``,
``transition``, which only the tests use), where the library maps
occupation rows.  The reference closed form writes each model's induced
pair terms out by hand, where the library reads them from the wiring table.
The dense Lindblad oracle forms the whole column-stacked Liouvillian
superoperator and exponentiates it by a fixed-degree scaling and squaring,
where the library exponentiates the row-major blocks that L never mixes.
The looped protocol oracle builds a ``QuantumState`` every round and reads
its records with ``fidelity`` and ``populations``, and runs a lossy round
through the whole joint channel; the library reads each round's records
off two or three entries of a checked array, and applies the channel's
compression to the magnon density.  The frozen (2, slices) block scan
(``reference_block_amplitudes_and_gradient``,
``reference_fidelity_time_trace``) is the bit-equality reference of the
library's slice-major one.
"""

import math
from functools import reduce

import numpy as np
import pytest

from magbell import EffectiveParams, HilbertSpace, ModelParams
from magbell.dynamics import propagator, propagator_matrix
from magbell import measurement
from magbell.dynamics import lindblad_channel
from magbell.hilbert import (DimensionError, Operator, QuantumState, annihilation, bell_state, fidelity,
                             product_state, superposed_state)
from magbell.model import (
    LEVEL_E,
    LEVEL_F,
    LEVEL_G,
    SingleModeParams,
    _ground_block,
    _with_ground,
    build_full,
    build_sw_effective,
    build_time_dependent_jc,
    effective_couplings,
    lamb_shifts,
    sw_generator,
)


def level_projector(dim, level):
    """Single-subsystem projector |level><level|."""
    if not 0 <= level < dim:
        raise DimensionError(f"level {level} outside dimension {dim}")
    mat = np.zeros((dim, dim), dtype=complex)
    mat[level, level] = 1.0
    return Operator(HilbertSpace.single("mode", dim), mat)


def transition(dim, upper, lower):
    """Single-subsystem transition operator |upper><lower|."""
    if not (0 <= upper < dim and 0 <= lower < dim):
        raise DimensionError(f"levels ({upper}, {lower}) outside dimension {dim}")
    mat = np.zeros((dim, dim), dtype=complex)
    mat[upper, lower] = 1.0
    return Operator(HilbertSpace.single("mode", dim), mat)


def embed(op, space, slot):
    """Place a single-subsystem operator into a composite space.

    Returns identity (x) ... (x) op (x) ... (x) identity following the fixed
    Kronecker convention (first subsystem slowest).
    """
    if len(op.space.subsystems) != 1:
        raise DimensionError("embed expects an operator on a single subsystem")
    target_dim = space.dim(slot)  # raises UnknownLabelError
    if op.space.total_dim != target_dim:
        raise DimensionError(
            f"operator dimension {op.space.total_dim} != dimension {target_dim} of slot {slot!r}"
        )
    mats = [
        op.matrix if label == slot else np.eye(dim, dtype=complex)
        for label, dim in space.subsystems
    ]
    return Operator(space, reduce(np.kron, mats))


def block_return_amplitude(n, m, g_e, g_f, delta, tau):
    """Ground-return amplitude of one (n, m) block by direct diagonalization.

    The block is spanned by {|g,n,m>, |e,n-1,m>, |f,n,m-1>} (dropping states
    with negative occupation); couplings are g_e sqrt(n) and g_f sqrt(m) and
    the excited levels sit at the common detuning.
    """
    if n == 0 and m == 0:
        return 1.0 + 0.0j
    size = 1 + (n >= 1) + (m >= 1)
    h = np.zeros((size, size), dtype=complex)
    col = 1
    if n >= 1:
        h[col, col] = delta
        h[0, col] = h[col, 0] = g_e * math.sqrt(n)
        col += 1
    if m >= 1:
        h[col, col] = delta
        h[0, col] = h[col, 0] = g_f * math.sqrt(m)
    evals, evecs = np.linalg.eigh(h)
    return complex((evecs[0] * np.exp(-1j * evals * tau)) @ evecs[0].conj())


def coefficient_power_amplitudes(amps0, g_e, g_f, delta, tau, rounds, dims):
    """Unnormalized amplitudes after repeated projection, from block powers."""
    dn, dm = dims
    out = np.array(amps0, dtype=complex).reshape(dn, dm).copy()
    for n in range(dn):
        for m in range(dm):
            out[n, m] *= block_return_amplitude(n, m, g_e, g_f, delta, tau) ** rounds
    return out.ravel()


def looped_protocol_records(initial, cfg):
    """run_protocol's records, final state, slow pairs and converged round, one object per round.

    Each round maps the unnormalized magnon data (the analytic Kraus diagonal
    elementwise, or for a lossy cfg the whole channel exp(L tau) on
    |g><g| (x) rho, then its g-g block), renormalizes it into a new
    ``QuantumState`` and logs two ``fidelity`` calls and one ``populations``
    call.  NullOutcomeError carries the library's message; the floor and
    the thresholds are read from ``measurement`` at call time.
    """
    space, N = initial.space, cfg.target_N
    plus, minus = bell_state(space, N, +1), bell_state(space, N, -1)
    a, b = space.index((0, 0)), space.index((N, N))
    v = np.diag(measurement.analytic_kraus(space, cfg.eff, cfg.tau).matrix)
    slow = tuple(space.occupations(k) for k in range(space.total_dim)
                 if abs(v[k]) > 1.0 - measurement.SLOW_DAMPING_MARGIN
                 and space.occupations(k) not in ((0, 0), (N, N)))
    kind, data = initial.kind, initial.data
    if cfg.decoherence is not None:
        # H keeps n + P_e and m + P_f and loss only lowers n and m: no round
        # populates a pair above the input's support and the target
        top = np.max([space.occupations(k) for k in np.flatnonzero(initial.density().diagonal())] + [(N, N)],
                     axis=0)
        slow = tuple(pair for pair in slow if pair[0] <= top[0] and pair[1] <= top[1])
        channel = lindblad_channel(measurement._joint_spec(space, cfg), cfg.tau, _with_ground(initial.density()))
        kind, data = "mixed", initial.density()

        def step(rho):
            return _ground_block(channel._apply(_with_ground(rho)))
    elif kind == "pure":
        def step(x):
            return v * x
    else:
        def step(rho):
            return v[:, None] * rho * v.conj()[None, :]

    records = {key: [] for key in ("fidelity_plus", "fidelity_minus", "success_probability", "even_population")}

    def log(state, cumulative):
        pops = state.populations()
        for key, value in zip(records, (fidelity(state, plus), fidelity(state, minus), cumulative,
                                        float(pops[a] + pops[b]))):
            records[key].append(value)

    state, cumulative = initial, 1.0
    log(state, cumulative)
    for k in range(1, cfg.rounds + 1):
        branch = step(data)
        prob = float(np.linalg.norm(branch) ** 2 if kind == "pure" else np.real(np.trace(branch)))
        if not prob >= measurement.NULL_OUTCOME_FLOOR:
            raise measurement.NullOutcomeError(f"round {k}: ground-state outcome probability {prob:.3e} below floor")
        state = QuantumState(space, kind, branch / (math.sqrt(prob) if kind == "pure" else prob))
        data = state.data
        cumulative *= prob
        log(state, cumulative)
    even = records["even_population"]
    converged = next((k for k, e in enumerate(even) if e >= measurement.CONVERGED_EVEN_POPULATION), None)
    return dict({key: np.array(values) for key, values in records.items()},
                final_state=state, slow_states=slow, converged_round=converged)


def sequential_block_amplitudes(pulse, slices):
    """Single- and double-excitation ground-return amplitudes, slice by slice.

    The shaped Hamiltonian closes on 2x2 blocks {|g;1 excitation>, bright
    state} with couplings G and sqrt(2) G.  The midpoint detunings are
    summed from the CRAB series directly; each slice's full exponential (all
    four entries, phase included) multiplies the running product from the
    left in a plain loop.
    """
    g, tau = pulse.G, pulse.tau_total
    h = tau / slices
    t = (np.arange(slices) + 0.5) * h
    angles = np.multiply.outer(t, 2.0 * np.pi * np.arange(1, pulse.n_omega + 1) / tau)
    series = np.cos(angles) @ np.array(pulse.a) + np.sin(angles) @ np.array(pulse.b)
    deltas = g * (1.0 + t * (tau - t) * series)
    out = []
    for coupling in (g, math.sqrt(2.0) * g):
        # H = [[0, c], [c, d]] = p I + qz sz + qx sx with p = d/2, qz = -d/2
        p = 0.5 * deltas
        q = np.sqrt(p * p + coupling * coupling)
        phase = np.exp(-1j * p * h)
        cq = np.cos(q * h)
        sq = np.sin(q * h) / q
        u00 = (phase * (cq + 1j * sq * p)).tolist()
        u01 = (phase * (-1j * sq * coupling)).tolist()
        u11 = (phase * (cq - 1j * sq * p)).tolist()
        a, b, c_, d = 1.0 + 0.0j, 0.0j, 0.0j, 1.0 + 0.0j  # accumulated U
        for k in range(slices):
            s00, s01, s11 = u00[k], u01[k], u11[k]
            a, b, c_, d = (
                s00 * a + s01 * c_,
                s00 * b + s01 * d,
                s01 * a + s11 * c_,
                s01 * b + s11 * d,
            )
        out.append(a)
    return out[0], out[1]


def looped_block_gradient(deltas, g, h):
    """Ground-return amplitudes of both blocks and their derivatives in every
    slice detuning, in reverse mode with plain loops.

    Each slice's full exponential U_k = exp(-i H_k h), H_k = [[0, c], [c, d_k]],
    is written out in closed form (all four entries, phase included), and its
    derivative in d_k comes from the eigendecomposition of H_k
    (Daleckii-Krein: in H_k's eigenbasis the derivative along
    dH/dd_k = |1><1| has entries E_ij times the divided difference of
    exp(-i lambda h) over lambda_i, lambda_j).  The prefixes
    U_k...U_0 and suffixes U_N-1...U_k are two explicit lists, filled one
    2x2 product at a time, and slice k's derivative of the <0|.|0> entry of
    the full product is that entry of suffix(k+1) dU_k prefix(k-1).
    Returns shapes (2,) and (2, slices).
    """
    slices = len(deltas)
    amps, grads = [], []
    for coupling in (g, math.sqrt(2.0) * g):
        h_k = np.zeros((slices, 2, 2))
        h_k[:, 0, 1] = h_k[:, 1, 0] = coupling
        h_k[:, 1, 1] = deltas
        evals, evecs = np.linalg.eigh(h_k)  # distinct eigenvalues: the gap is >= 2c
        phases = np.exp(-1j * h * evals)
        half = 0.5 * deltas
        q = np.sqrt(half * half + coupling * coupling)
        cq, sq = np.cos(q * h), np.sin(q * h) / q
        units = [np.exp(-1j * p * h) * np.array([[c + 1j * s * p, -1j * s * coupling],
                                                  [-1j * s * coupling, c - 1j * s * p]])
                 for p, c, s in zip(half, cq, sq)]
        derivs = []
        for lam, vec, ph in zip(evals, evecs, phases):
            gap = lam[0] - lam[1]
            divided = np.diag(-1j * h * ph)  # the derivative of exp(-i lambda h) on the diagonal
            divided[0, 1] = divided[1, 0] = ph[1] * np.expm1(-1j * h * gap) / gap
            along = np.outer(vec[1].conj(), vec[1])  # |1><1| in the eigenbasis
            derivs.append(vec @ (along * divided) @ vec.conj().T)
        prefixes = [np.eye(2)]  # prefixes[k] = U_k-1...U_0
        for u in units:
            prefixes.append(u @ prefixes[-1])
        suffixes = [np.eye(2)]  # suffixes[j] = U_N-1...U_N-j
        for u in reversed(units):
            suffixes.append(suffixes[-1] @ u)
        amps.append(prefixes[-1][0, 0])
        grads.append([(suffixes[slices - 1 - k] @ derivs[k] @ prefixes[k])[0, 0] for k in range(slices)])
    return np.array(amps), np.array(grads)


# The (2, slices) block scan, frozen as the bit-equality reference of the
# slice-major one in ``magbell.optimize``: each block's slices along one row,
# every scan level a product of two strided (2, m) views.  The library must
# match it exactly, value, gradient and trace, so a reassociated product or a
# reordered sum fails even where it stays within the 1e-12 oracles.


def reference_su2_product(a2, b2, a1, b1):
    return a2 * a1 - b2 * b1.conj(), a2 * b1 + b2 * a1.conj()


def reference_running_products(alpha, beta):
    alpha, beta = alpha.copy(), beta.copy()
    step = 1
    while step < alpha.shape[-1]:
        alpha[..., step:], beta[..., step:] = reference_su2_product(
            alpha[..., step:], beta[..., step:], alpha[..., :-step], beta[..., :-step])
        step *= 2
    return alpha, beta


def reference_block_slices(deltas, g, h):
    couplings = np.array([[g], [math.sqrt(2.0) * g]])
    p = 0.5 * deltas
    q = np.sqrt(p * p + couplings * couplings)
    cq = np.cos(q * h)
    sq = np.sin(q * h) / q
    alpha, beta = cq + 1j * sq * p, -1j * sq * couplings
    dsq = (h * cq - sq) * p / (q * q)
    dalpha, dbeta = -h * sq * p + 1j * (dsq * p + sq), -1j * dsq * couplings
    return p, alpha, beta, dalpha, dbeta


def reference_block_amplitudes_and_gradient(deltas, g, h):
    p, alpha, beta, dalpha, dbeta = reference_block_slices(deltas, g, h)
    scan_a, scan_b = reference_running_products(alpha, beta)
    total = scan_a[:, -1]
    after_a, after_b = reference_su2_product(scan_a[:, -1:], scan_b[:, -1:], scan_a.conj(), -scan_b)
    before_a = np.concatenate((np.ones((2, 1)), scan_a[:, :-1]), axis=1)
    before_b = np.concatenate((np.zeros((2, 1)), scan_b[:, :-1]), axis=1)
    mid_a, mid_b = reference_su2_product(dalpha, dbeta, before_a, before_b)
    dtotal = after_a * mid_a - after_b * mid_b.conj()
    phase = np.exp(-1j * h * p.sum())
    return phase * total, 0.5 * phase * (dtotal - 1j * h * total[:, np.newaxis])


def reference_fidelity_time_trace(pulse, slices):
    h = pulse.tau_total / slices
    p, alpha, beta, _, _ = reference_block_slices(pulse.detuning((np.arange(slices) + 0.5) * h), pulse.G, h)
    running, _ = reference_running_products(alpha, beta)
    amps = np.concatenate((np.ones((2, 1)), np.exp(-1j * h * np.cumsum(p)) * running), axis=1)
    trace, norm = measurement._fidelity_and_norm(amps[0], amps[0], amps[1])
    return np.arange(slices + 1) * h, np.clip(trace, 0.0, 1.0), float(norm[-1]) / 4.0


def sliced_fidelity_trace(pulse, slices):
    """Conditional Bell fidelity of the ground branch at every slice boundary, on the 27-dim space.

    Starts from |g> (x) |+>|+> at cutoff 3 and multiplies the state by each
    midpoint slice's propagator of ``build_time_dependent_jc`` in turn.
    """
    mag = HilbertSpace((("n", 3), ("m", 3)))
    jc = HilbertSpace((("atom", 3),) + mag.subsystems)
    plus = superposed_state(3, 1)
    psi = np.kron(np.eye(3)[LEVEL_G], product_state(mag, {"n": plus, "m": plus}).data)
    target = bell_state(mag, 1, +1).data
    hfun = build_time_dependent_jc(pulse, pulse.G, jc)
    h = pulse.tau_total / slices

    def conditional_fidelity(vec):
        branch = vec.reshape(3, -1)[LEVEL_G]
        return abs(np.vdot(target, branch)) ** 2 / np.vdot(branch, branch).real

    trace = [conditional_fidelity(psi)]
    for k in range(slices):
        psi = propagator(hfun((k + 0.5) * h), h).matrix @ psi
        trace.append(conditional_fidelity(psi))
    return np.array(trace)


def excitation_numbers(space):
    """Total excitation per basis state; qutrit levels e, f count as one each."""
    grids = np.unravel_index(np.arange(space.total_dim), space.dims)
    total = np.zeros(space.total_dim, dtype=int)
    for (label, _), occ in zip(space.subsystems, grids):
        total += (occ > 0).astype(int) if label == "atom" else occ
    return total


def embedded_operator_table(space, modes):
    """The library's operator table for a space, each operator embedded with ``embed``."""
    def place(op, label):
        return embed(op, space, label).matrix

    ops = {
        "pg": place(level_projector(3, LEVEL_G), "atom"),
        "pe": place(level_projector(3, LEVEL_E), "atom"),
        "pf": place(level_projector(3, LEVEL_F), "atom"),
        "se_plus": place(transition(3, LEVEL_E, LEVEL_G), "atom"),
        "sf_plus": place(transition(3, LEVEL_F, LEVEL_G), "atom"),
        "sfe_plus": place(transition(3, LEVEL_F, LEVEL_E), "atom"),
    }
    for label in modes:
        low = place(annihilation(space.dim(label)), label)
        ops[label] = (low, low.conj().T @ low)
    return ops


def two_cavity_pairs(ops):
    """The two-cavity model's induced pairs, by hand: G_e, G_f and the cavity swap a^+ b s+_fe."""
    a_low, b_low = ops["a"][0], ops["b"][0]
    return (
        ("e", "n", ops["n"][0] @ ops["se_plus"]),
        ("m", "f", ops["m"][0] @ ops["sf_plus"]),
        ("e", "f", (a_low.conj().T @ b_low) @ ops["sfe_plus"]),
    )


def shared_cavity_pairs(ops):
    """The shared-cavity model's induced pairs, by hand: the four magnon-qutrit
    exchanges, the magnon swap, and the excited-level exchange (a^+a + 1) s+_fe."""
    n_low, m_low, a_num = ops["n"][0], ops["m"][0], ops["a"][1]
    return (
        ("n", "e", n_low @ ops["se_plus"]),
        ("n", "f", n_low @ ops["sf_plus"]),
        ("m", "e", m_low @ ops["se_plus"]),
        ("m", "f", m_low @ ops["sf_plus"]),
        ("n", "m", n_low.conj().T @ m_low),
        ("e", "f", (a_num + np.eye(len(a_num))) @ ops["sfe_plus"]),
    )


REFERENCE_PAIRS = {ModelParams: two_cavity_pairs, SingleModeParams: shared_cavity_pairs}


def reference_sw_effective(params, ops):
    """The closed-form effective Hamiltonian with each model's induced pairs from ``REFERENCE_PAIRS``.

    Lamb-shifted magnon and level frequencies, each cavity shifted down by the
    magnon shifts it mediates, the qutrit shifts chi_i c^+c (|i><i| - |g><g|),
    then G_ij (x + x^+) per listed pair.
    """
    chi = dict(zip("nmef", lamb_shifts(params)))
    occupation = {"n": ops["n"][1], "m": ops["m"][1], "e": ops["pe"], "f": ops["pf"]}
    h = sum(omega * ops[label][1] for label, omega in params.cavities())
    for party, (cavity, _) in params.WIRING.items():
        h = h + (getattr(params, f"omega_{party}") + chi[party]) * occupation[party]
        if party in ("n", "m"):
            h = h - chi[party] * ops[cavity][1]
        else:
            h = h + chi[party] * ops[cavity][1] @ (occupation[party] - ops["pg"])
    for i, j, x in REFERENCE_PAIRS[type(params)](ops):
        h = h + params.induced_coupling(i, j) * (x + x.conj().T)
    return h


def dense_sw_residual(params, space):
    """sw_reduction_check on the whole space: exp(S) H exp(-S) - H_closed on excitation <= 2."""
    u = propagator_matrix(1j * sw_generator(params, space).matrix, 1.0)  # exp(S)
    residual = u @ build_full(params, space).matrix @ u.conj().T - build_sw_effective(params, space).matrix
    low = np.flatnonzero(excitation_numbers(space) <= 2)
    return float(np.abs(residual[np.ix_(low, low)]).max())


def dense_evolution_fidelity(params, magnon_state, t, cavity_cutoff):
    """dispersive_evolution_fidelity on the whole two-cavity space.

    H_eff and the rotating-frame generator H_R are assembled here from
    embedded single-subsystem operators.
    """
    dn, dm = magnon_state.space.dims
    space = HilbertSpace((("atom", 3), ("a", cavity_cutoff), ("b", cavity_cutoff),
                          ("n", dn), ("m", dm)))
    ground = np.zeros(3 * cavity_cutoff ** 2)
    ground[0] = 1.0  # |g, 0, 0>: the qutrit and both cavities, slowest first
    psi0 = np.kron(ground, magnon_state.data)
    eff = effective_couplings(params)

    def placed(op, label):
        return embed(op, space, label).matrix

    low = {label: placed(annihilation(space.dim(label)), label) for label in "abnm"}
    num = {label: x.conj().T @ x for label, x in low.items()}
    p_e, p_f = (placed(level_projector(3, level), "atom") for level in (1, 2))
    x_e = low["n"] @ placed(transition(3, 1, 0), "atom")
    x_f = low["m"] @ placed(transition(3, 2, 0), "atom")
    h_eff = (eff.Delta_e_tilde * p_e + eff.Delta_f_tilde * p_f
             + eff.G_e * (x_e + x_e.conj().T) + eff.G_f * (x_f + x_f.conj().T))
    chi_n, chi_m, _, _ = lamb_shifts(params)
    h_rot = ((params.omega_a - chi_n) * num["a"] + (params.omega_b - chi_m) * num["b"]
             + (params.omega_n + chi_n) * (num["n"] + p_e)
             + (params.omega_m + chi_m) * (num["m"] + p_f))
    u_s = propagator_matrix(1j * sw_generator(params, space).matrix, 1.0)  # exp(S)
    u_rot, u_eff = (propagator(Operator(space, h), t).matrix for h in (h_rot, h_eff))
    psi_full = propagator(build_full(params, space), t).matrix @ psi0
    psi_pred = u_s.conj().T @ (u_rot @ (u_eff @ (u_s @ psi0)))
    return float(abs(np.vdot(psi_pred, psi_full)) ** 2)


def dense_liouvillian(spec):
    """Column-stacked Liouvillian of a LindbladSpec.

    Uses vec(A rho B) = (B^T kron A) vec(rho) for the column-stacked vec.
    """
    h = spec.hamiltonian.matrix
    eye = np.eye(h.shape[0])
    liou = -1j * (np.kron(eye, h) - np.kron(h.T, eye))
    for op, rate in spec.collapse_ops:
        l_op = math.sqrt(rate) * op.matrix
        ldl = l_op.conj().T @ l_op
        liou = liou + np.kron(l_op.conj(), l_op) - 0.5 * (np.kron(eye, ldl) + np.kron(ldl.T, eye))
    return liou


def expm_scaling_squaring(a):
    """exp(a): a degree-18 Taylor polynomial of a / 2^s with ||a / 2^s||_1 <= 1, squared s times."""
    degree = 18  # remainder below 1/19! ~ 8e-18
    norm = float(np.abs(a).sum(axis=0).max())
    s = max(0, math.ceil(math.log2(norm))) if norm > 0 else 0
    a = a / 2.0**s
    eye = np.eye(a.shape[0])
    out = eye + a / degree
    for k in range(degree - 1, 0, -1):
        out = eye + (a @ out) / k
    for _ in range(s):
        out = out @ out
    return out


def dense_lindblad_oracle(rho0, spec, t):
    """exp(L t) rho0 for a density matrix rho0, through the dense superoperator exponential."""
    dim = rho0.shape[0]
    prop = expm_scaling_squaring(t * dense_liouvillian(spec))
    return (prop @ rho0.reshape(-1, order="F")).reshape(dim, dim, order="F")


def poisson_mean_oracle(beta, dim):
    """Mean occupation of the truncated, renormalized coherent state by summation."""
    weights = np.array([abs(beta) ** (2 * j) / math.factorial(j) for j in range(dim)])
    weights /= weights.sum()
    return float((np.arange(dim) * weights).sum())


def random_hermitian(rng, dim, scale=1.0):
    mat = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return scale * 0.5 * (mat + mat.conj().T)


@pytest.fixture
def resonant_eff():
    """Equal couplings, zero detuning: the baseline distillation setting."""
    return EffectiveParams(G_e=1e-3, G_f=1e-3)


@pytest.fixture
def magnon_space():
    return HilbertSpace((("n", 3), ("m", 3)))


# equal cavity frequencies and four equal detunings: the fully degenerate case
DISPERSIVE = ModelParams(
    omega_a=0.6, omega_b=0.6,
    omega_n=1.0, omega_m=1.0, omega_e=1.0, omega_f=1.0,
    g_n=0.02, g_m=0.02, g_e=0.02, g_f=0.02,
)


@pytest.fixture
def dispersive_params():
    """Bare two-cavity parameters with g/Delta = 0.05 and G_e = G_f = 1e-3."""
    return DISPERSIVE
