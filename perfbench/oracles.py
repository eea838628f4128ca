"""Correctness checks for every benchmark input, run outside the timed section.

The closed-system and lossy oracles do not call magbell: the closed form
multiplies each Fock-pair amplitude by its ground-return coefficient once
per round, and the lossy oracle builds the exact round channel
P_g exp(L tau) (|g><g| x .) from its own Hamiltonian and Liouvillian.  The
single-shot check is the acceptance guard: F >= 0.99, above the flat-pulse
baseline, and stable when the pulse is re-simulated with twice the slices.
"""

from __future__ import annotations

import csv
import io
import json
import math

import numpy as np

import workloads

CLOSED_ATOL = 1e-9     # closed form vs. eigendecomposed Kraus operator, up to 2000 rounds
LOSSY_ATOL = 1e-9      # exact channel vs. RK4 at 2000 steps per round
SINGLE_SHOT_FLOOR = 0.99
SINGLE_SHOT_SLICE_TOL = 1e-4
REFINED_SLICES = 1024
FLAT_BASELINE = 2.0 / (2.0 + 2.0 * math.cos(math.sqrt(2.0) * math.pi) ** 2)
DISPERSIVE_FIDELITY_FLOOR = 0.99
DISPERSIVE_SLOPE = (2.5, 3.5)


def parse_csv(blob: bytes) -> tuple[dict, list[str], np.ndarray]:
    """(metadata, columns, rows) of an emitted CSV result."""
    lines = blob.decode().splitlines()
    if len(lines) < 3 or not lines[1].startswith("# {"):
        raise ValueError("result has no metadata header")
    metadata = json.loads(lines[1][2:])
    reader = csv.reader(io.StringIO("\n".join(lines[2:])))
    columns = next(reader)
    rows = np.array([[float(v) for v in row] for row in reader])
    return metadata, columns, rows


def check(spec: dict, output) -> list[str]:
    """Problems found in one input's output; an empty list means it is correct."""
    if isinstance(output, Exception):
        return [f"raised {type(output).__name__}: {output}"]
    try:
        if spec["kind"] == "mixed":
            return _check_mixed(spec, output)
        metadata, columns, rows = parse_csv(output)
        checker = _SCENARIO_CHECKS[spec["scenario"]]
        return checker(spec, metadata, columns, rows)
    except (ValueError, KeyError, IndexError) as exc:
        return [f"unreadable output: {type(exc).__name__}: {exc}"]


def _close(label: str, got, want, atol: float) -> list[str]:
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    if got.shape != want.shape:
        return [f"{label}: shape {got.shape} != {want.shape}"]
    err = float(np.max(np.abs(got - want))) if got.size else 0.0
    return [] if err <= atol else [f"{label}: max error {err:.3e} > {atol:.0e}"]


# --- closed system: c_nm alpha_nm^k ----------------------------------------------


def kraus_diagonal(g_e: float, g_f: float, tau: float, dims: tuple[int, int]) -> np.ndarray:
    """Ground-return coefficients cos(tau sqrt(G_e^2 n + G_f^2 m)) at zero detuning."""
    n = np.arange(dims[0])[:, None]
    m = np.arange(dims[1])[None, :]
    return np.cos(tau * np.sqrt(g_e**2 * n + g_f**2 * m))


def closed_form(rho0: np.ndarray, alpha: np.ndarray, rounds: int, target: int) -> dict[str, np.ndarray]:
    """Per-round (k = 0..rounds) records of the closed protocol on density matrix rho0.

    After k rounds the unnormalized state is rho0 * outer(a^k, a^k) elementwise
    (a = alpha flattened), so only its diagonal and the (0, NN) coherence
    are needed.
    """
    dims = alpha.shape
    a = alpha.ravel()
    i0, i_n = 0, target * dims[1] + target
    powers = a[None, :] ** np.arange(rounds + 1)[:, None]
    diag = np.real(np.diag(rho0))[None, :] * powers**2
    prob = diag.sum(axis=1)
    coherence = np.real(rho0[i0, i_n]) * powers[:, i0] * powers[:, i_n]
    even = diag[:, i0] + diag[:, i_n]
    return {
        "fidelity_plus": 0.5 * (even + 2.0 * coherence) / prob,
        "fidelity_minus": 0.5 * (even - 2.0 * coherence) / prob,
        "success_probability": prob,
        "even_population": even / prob,
    }


def _interval(g_e: float, g_f: float, target: int, mode: str = "full") -> float:
    tau = 2.0 * math.pi / math.sqrt(target * (g_e**2 + g_f**2))
    return 0.5 * tau if mode == "half" else tau


def _pure_density(amps_n, amps_m) -> np.ndarray:
    psi = np.kron(np.asarray(amps_n, dtype=complex), np.asarray(amps_m, dtype=complex))
    psi /= np.linalg.norm(psi)
    return np.outer(psi, psi.conj())


def _compare_protocol(label: str, got: dict, want: dict) -> list[str]:
    problems = []
    for key, expected in want.items():
        problems += _close(f"{label} {key}", got[key], expected, CLOSED_ATOL)
    return problems


def _check_protocol_table(spec, metadata, columns, rows, rho0, target, mode="full") -> list[str]:
    p = spec["params"]
    tau = _interval(p["G_e"], p["G_f"], target, mode)
    problems = _close("tau", metadata["results"]["tau"], tau, 1e-12 * tau)
    dim = round(math.sqrt(rho0.shape[0]))
    want = closed_form(rho0, kraus_diagonal(p["G_e"], p["G_f"], tau, (dim, dim)), p["rounds"], target)
    got = {name: rows[:, columns.index(name)] for name in want}
    return problems + _compare_protocol(spec["name"], got, want)


def _check_coherent(spec, metadata, columns, rows) -> list[str]:
    p = spec["params"]
    beta_n, beta_m = (p["beta"], p["beta"]) if "beta" in p else (p["beta_n"], p["beta_m"])
    rho0 = _pure_density(workloads.coherent_amplitudes(beta_n), workloads.coherent_amplitudes(beta_m))
    return _check_protocol_table(spec, metadata, columns, rows, rho0, p["target_N"])


def _superposed_density(cutoff: int) -> np.ndarray:
    plus = np.zeros(cutoff)
    plus[0] = plus[1] = 1.0
    return _pure_density(plus, plus)


def _check_bell_distill(spec, metadata, columns, rows) -> list[str]:
    mode = "half" if spec["scenario"] == "half-interval" else spec["params"]["interval_mode"]
    return _check_protocol_table(spec, metadata, columns, rows,
                                 _superposed_density(spec["params"]["cutoff"]), 1, mode)


def _check_coupling_ratio(spec, metadata, columns, rows) -> list[str]:
    rho0 = _superposed_density(2)
    want = []
    for xi in rows[:, columns.index("xi")]:
        alpha = kraus_diagonal(1.0, xi, _interval(1.0, xi, 1), (2, 2))
        want.append(closed_form(rho0, alpha, 1, 1)["fidelity_plus"][1])
    problems = _close("coupling-ratio fidelity_exact", rows[:, columns.index("fidelity_exact")],
                      want, CLOSED_ATOL)
    best = int(np.argmax(want))
    return problems + _close("coupling-ratio argmax_xi", metadata["results"]["argmax_xi"],
                             rows[best, columns.index("xi")], 1e-11)


def _check_mixed(spec: dict, record) -> list[str]:
    alpha = kraus_diagonal(spec["G_e"], spec["G_f"], _interval(spec["G_e"], spec["G_f"], spec["target_N"]),
                           (spec["cutoff"], spec["cutoff"]))
    want = closed_form(workloads.mixture_density(spec), alpha, spec["rounds"], spec["target_N"])
    got = {key: getattr(record, key) for key in want}
    return _compare_protocol(spec["name"], got, want)


def _check_dispersive(spec, metadata, columns, rows) -> list[str]:
    results = metadata["results"]
    problems = []
    if not results["evolution_fidelity"] >= DISPERSIVE_FIDELITY_FLOOR:
        problems.append(f"evolution fidelity {results['evolution_fidelity']} < {DISPERSIVE_FIDELITY_FLOOR}")
    lo, hi = DISPERSIVE_SLOPE
    if not lo <= results["residual_log2_slope"] <= hi:
        problems.append(f"residual log2 slope {results['residual_log2_slope']} outside [{lo}, {hi}]")
    return problems


# --- lossy: exact round channel ---------------------------------------------------


def _lowering(dim: int) -> np.ndarray:
    return np.diag(np.sqrt(np.arange(1, dim)), 1).astype(complex)


def exact_channel(g_e: float, g_f: float, gamma_n: float, gamma_m: float, tau: float, cutoff: int):
    """exp(L tau) on row-major vec(rho) of the joint [qutrit, n, m] space, zero detuning."""
    eye_q, eye_d = np.eye(3), np.eye(cutoff)
    sigma_e, sigma_f = np.zeros((3, 3)), np.zeros((3, 3))
    sigma_e[1, 0] = sigma_f[2, 0] = 1.0    # |e><g| and |f><g|
    low_n = np.kron(eye_q, np.kron(_lowering(cutoff), eye_d))
    low_m = np.kron(eye_q, np.kron(eye_d, _lowering(cutoff)))
    x_e = np.kron(sigma_e, np.eye(cutoff**2)) @ low_n
    x_f = np.kron(sigma_f, np.eye(cutoff**2)) @ low_m
    h = g_e * (x_e + x_e.conj().T) + g_f * (x_f + x_f.conj().T)
    eye = np.eye(h.shape[0])
    liouvillian = -1j * (np.kron(h, eye) - np.kron(eye, h.T))
    for low, gamma in ((low_n, gamma_n), (low_m, gamma_m)):
        number = low.conj().T @ low
        liouvillian += gamma * (np.kron(low, low.conj())
                                - 0.5 * np.kron(number, eye) - 0.5 * np.kron(eye, number.T))
    from scipy.linalg import expm  # loaded only here, after the worker's peak RSS is read

    return expm(liouvillian * tau)


def _bell_vector(cutoff: int, sign: int = +1) -> np.ndarray:
    vec = np.zeros(cutoff**2)
    vec[0] = 1.0
    vec[cutoff + 1] = sign
    return vec / math.sqrt(2.0)


def lossy_records(channel: np.ndarray, rho0: np.ndarray, rounds: int, cutoff: int) -> dict[str, np.ndarray]:
    """Per-round records with projection onto g, and the fidelity of the unprojected free decay."""
    block = cutoff**2
    plus, minus = _bell_vector(cutoff, +1), _bell_vector(cutoff, -1)
    ground = np.zeros((3, 3))
    ground[0, 0] = 1.0
    out = {key: np.empty(rounds + 1) for key in
           ("fidelity_plus", "fidelity_minus", "success_probability", "even_population", "fidelity_free")}
    rho, cumulative = rho0, 1.0
    free = np.kron(ground, rho0).ravel()
    for k in range(rounds + 1):
        if k:
            joint = (channel @ np.kron(ground, rho).ravel()).reshape(3 * block, 3 * block)
            sub = joint[:block, :block]
            prob = float(np.real(np.trace(sub)))
            rho, cumulative = sub / prob, cumulative * prob
            free = channel @ free
        out["fidelity_plus"][k] = float(np.real(plus @ rho @ plus))
        out["fidelity_minus"][k] = float(np.real(minus @ rho @ minus))
        out["success_probability"][k] = cumulative
        out["even_population"][k] = float(np.real(rho[0, 0] + rho[cutoff + 1, cutoff + 1]))
        magnons = np.einsum("aiaj->ij", free.reshape(3, block, 3, block))  # trace out the qutrit
        out["fidelity_free"][k] = float(np.real(plus @ magnons @ plus))
    return out


def _lossy_oracle(spec):
    p = spec["params"]
    tau = _interval(p["G_e"], p["G_f"], 1)
    channel = exact_channel(p["G_e"], p["G_f"], p["gamma_n"], p["gamma_m"], tau, p["cutoff"])
    return tau, channel


def _check_decohere(spec, metadata, columns, rows) -> list[str]:
    p = spec["params"]
    tau, channel = _lossy_oracle(spec)
    want = lossy_records(channel, _superposed_density(p["cutoff"]), p["rounds"], p["cutoff"])
    problems = _close("tau", metadata["results"]["tau"], tau, 1e-12 * tau)
    for key in ("fidelity_plus", "fidelity_minus", "success_probability", "even_population"):
        problems += _close(f"decohere {key}", rows[:, columns.index(key)], want[key], LOSSY_ATOL)
    return problems


def _check_stabilize(spec, metadata, columns, rows) -> list[str]:
    p = spec["params"]
    tau, channel = _lossy_oracle(spec)
    bell = _bell_vector(p["cutoff"])
    want = lossy_records(channel, np.outer(bell, bell), p["rounds"], p["cutoff"])
    stab, free = rows[:, columns.index("fidelity_stabilized")], rows[:, columns.index("fidelity_free")]
    problems = _close("stabilize time", rows[:, columns.index("time")], tau * np.arange(p["rounds"] + 1),
                      1e-9 * tau)
    problems += _close("stabilize fidelity_stabilized", stab, want["fidelity_plus"], LOSSY_ATOL)
    problems += _close("stabilize fidelity_free", free, want["fidelity_free"], LOSSY_ATOL)
    if not np.all(stab[1:] > free[1:]):
        problems.append("stabilized fidelity does not exceed free decay after round 1")
    return problems


# --- single shot: the acceptance guard ----------------------------------------------


def _check_single_shot(spec, metadata, columns, rows) -> list[str]:
    from magbell.model import PulseCoefficients
    from magbell.optimize import evaluate_single_shot

    results = metadata["results"]
    fid = results["achieved_fidelity"]
    problems = []
    if not fid >= SINGLE_SHOT_FLOOR:
        problems.append(f"fidelity {fid} < {SINGLE_SHOT_FLOOR}")
    if not fid > FLAT_BASELINE:
        problems.append(f"fidelity {fid} not above the flat-pulse baseline {FLAT_BASELINE}")
    pulse = PulseCoefficients(a=tuple(results["coefficients_a"]), b=tuple(results["coefficients_b"]),
                              tau_total=results["tau_total"], G=spec["params"]["G"])
    refined, _, _ = evaluate_single_shot(pulse, REFINED_SLICES)
    if not abs(refined - fid) <= SINGLE_SHOT_SLICE_TOL:
        problems.append(f"{REFINED_SLICES}-slice fidelity {refined} differs from {fid} "
                        f"by more than {SINGLE_SHOT_SLICE_TOL}")
    problems += _close("fidelity trace end", rows[-1, columns.index("fidelity")], fid, 1e-9)
    return problems


_SCENARIO_CHECKS = {
    "nbell": _check_coherent,
    "coherent-distill": _check_coherent,
    "bell-distill": _check_bell_distill,
    "half-interval": _check_bell_distill,
    "coupling-ratio": _check_coupling_ratio,
    "validate-dispersive": _check_dispersive,
    "decohere-prepare": _check_decohere,
    "stabilize": _check_stabilize,
    "single-shot": _check_single_shot,
}
