"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Every tolerance is pinned here.  Helper runs are shared through module-scoped
fixtures so the heavy master-equation and optimizer runs execute once.
"""

import math
import time

import numpy as np
import pytest

from magbell.dynamics import IntegratorConfig, LindbladSpec, integrate_master, propagator
from magbell.hilbert import (
    HilbertSpace,
    Operator,
    QuantumState,
    annihilation,
    bell_state,
    coherent_state,
    product_state,
    superposed_state,
)
from magbell.measurement import (
    ProtocolConfig,
    analytic_kraus,
    interval_for_target,
    numeric_kraus,
    run_protocol,
    stabilize,
    coupling_ratio_fidelity,
)
from magbell.model import COHERENT_COUPLING_RATIO, EffectiveParams, ModelParams, build_jc_effective
from magbell.model import dispersive_evolution_fidelity, effective_couplings, sw_reduction_check
from magbell.optimize import optimize_single_shot

from conftest import random_hermitian


def report(criterion: str, ok: bool, detail: str):
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} ({detail})")


def magnon(d):
    return HilbertSpace((("n", d), ("m", d)))


def superposed_pair(d):
    plus = superposed_state(d, 1)
    return product_state(magnon(d), {"n": plus, "m": plus})


def coherent_pair(beta, d):
    part = coherent_state(beta, d)
    return product_state(magnon(d), {"n": part, "m": part})


def distill_record(beta, target_n, rounds, cutoff, xi=COHERENT_COUPLING_RATIO, g_e=1e-3):
    eff = EffectiveParams(G_e=g_e, G_f=xi * g_e)
    cfg = ProtocolConfig.for_target(eff, rounds=rounds, target_N=target_n)
    return run_protocol(coherent_pair(beta, cutoff), cfg)


# --- criterion 1 -----------------------------------------------------------

def test_c01_kraus_oracle_equivalence():
    """Analytic coefficients match the propagator-block Kraus operator."""
    rng = np.random.default_rng(2024)
    d = 6
    mag = magnon(d)
    jc = HilbertSpace((("atom", 3), ("n", d), ("m", d)))
    worst = 0.0
    for _ in range(100):
        g_e, g_f = rng.uniform(2e-4, 5e-3, 2)
        delta = rng.uniform(-5e-3, 5e-3)
        eff = EffectiveParams(G_e=g_e, G_f=g_f, Delta_e_tilde=delta, Delta_f_tilde=delta)
        tau = rng.uniform(0.1, 2.0) * interval_for_target(1, eff)
        va = analytic_kraus(mag, eff, tau).matrix
        vn = numeric_kraus(build_jc_effective(eff, jc), tau).matrix
        worst = max(worst, float(np.abs(va - vn).max()))
    ok = worst <= 1e-10
    report("01 kraus oracle equivalence", ok, f"max elementwise deviation {worst:.3e}")
    assert ok


# --- criterion 2 -----------------------------------------------------------

def test_c02_distillation_infidelity_and_success():
    eff = EffectiveParams(G_e=1e-3, G_f=1e-3)
    cfg = ProtocolConfig.for_target(eff, rounds=8)
    rec = run_protocol(superposed_pair(3), cfg)
    infid = 1.0 - rec.fidelity_plus[-1]
    ps = rec.success_probability[-1]
    ok = infid <= 1e-9 and abs(ps - 0.50) <= 0.02
    report("02 distillation at full interval", ok, f"1-F = {infid:.3e}, Ps = {ps:.4f}")
    assert infid <= 1e-9
    assert abs(ps - 0.50) <= 0.02


# --- criterion 3 -----------------------------------------------------------

@pytest.fixture(scope="module")
def half_interval_record():
    eff = EffectiveParams(G_e=1e-3, G_f=1e-3)
    cfg = ProtocolConfig.for_target(eff, rounds=20, interval_mode="half")
    return run_protocol(superposed_pair(3), cfg)


def test_c03_half_interval_odd_bell(half_interval_record):
    rec = half_interval_record
    reached = [k for k in range(1, 21, 2) if rec.fidelity_minus[k] >= 1.0 - 1e-6]
    ok = bool(reached) and min(reached) >= 7
    detail = f"first odd round with F- >= 1-1e-6: {min(reached) if reached else None}"
    report("03a half interval reaches odd Bell state", ok, detail)
    assert reached, "F- never reached 1 - 1e-6"
    assert min(reached) >= 7
    assert min(reached) % 2 == 1


def test_c03_half_interval_alternation(half_interval_record):
    rec = half_interval_record
    ok = all(
        (rec.fidelity_minus[k] > rec.fidelity_plus[k]) == (k % 2 == 1)
        for k in range(1, 21)
    )
    report("03b even/odd alternation of F+/F-", ok, "rounds 1..20")
    assert ok


def test_c03_half_interval_even_population_monotone(half_interval_record):
    rec = half_interval_record
    diffs = np.diff(rec.even_population)
    ok = bool(np.all(diffs >= -1e-12) and rec.even_population[-1] >= 1.0 - 1e-6)
    report("03c even-pair population monotone to 1", ok,
           f"final population {rec.even_population[-1]:.9f}")
    assert np.all(diffs >= -1e-12)
    assert rec.even_population[-1] >= 1.0 - 1e-6


# --- criteria 4 and 5 ------------------------------------------------------

@pytest.fixture(scope="module")
def lossy_eff():
    return EffectiveParams(G_e=6e-3, G_f=6e-3)


def test_c04_preparation_under_decoherence(lossy_eff):
    cfg = ProtocolConfig.for_target(lossy_eff, rounds=8, decoherence=(1e-4, 1e-4))
    rec = run_protocol(superposed_pair(3), cfg)
    f = rec.fidelity_plus[-1]
    ok = 0.91 <= f <= 0.94  # stated floor with +0.03 headroom
    report("04 preparation with loss 1e-4", ok, f"F(M=8) = {f:.4f}")
    assert 0.91 <= f <= 0.94


def test_c05_stabilization_against_loss(lossy_eff):
    bell = bell_state(magnon(3), 1, +1)
    cfg = ProtocolConfig.for_target(lossy_eff, rounds=8, decoherence=(1e-4, 1e-4))
    f_stab, f_free = stabilize(bell, cfg)
    cfg_small = ProtocolConfig.for_target(lossy_eff, rounds=8, decoherence=(1e-5, 1e-5))
    f_stab_small, _ = stabilize(bell, cfg_small)
    ok = (abs(f_stab[-1] - 0.93) <= 0.02 and f_free[-1] < 0.77
          and f_stab_small[-1] >= 0.99)
    report("05 stabilization vs free decay", ok,
           f"F_stab = {f_stab[-1]:.4f}, F_free = {f_free[-1]:.4f}, "
           f"F_stab(1e-5) = {f_stab_small[-1]:.4f}")
    assert abs(f_stab[-1] - 0.93) <= 0.02
    assert f_free[-1] < 0.77
    assert f_stab_small[-1] >= 0.99


# --- criterion 6 -----------------------------------------------------------

def test_c06_coherent_distillation_fidelity():
    rec = distill_record(beta=1.0, target_n=1, rounds=50, cutoff=10)
    f = rec.fidelity_plus[-1]
    ok = abs(f - 0.97) <= 0.01
    report("06a coherent-input fidelity at 50 rounds", ok, f"F = {f:.4f}, want 0.97 +- 0.01")
    assert abs(f - 0.97) <= 0.01


def test_c06_cutoff_insensitivity():
    f10 = distill_record(beta=1.0, target_n=1, rounds=50, cutoff=10).fidelity_plus[-1]
    f20 = distill_record(beta=1.0, target_n=1, rounds=50, cutoff=20).fidelity_plus[-1]
    ok = abs(f20 - f10) <= 1e-3
    report("06b cutoff doubling insensitivity", ok, f"|dF| = {abs(f20 - f10):.2e}")
    assert abs(f20 - f10) <= 1e-3


# --- criterion 7 -----------------------------------------------------------

@pytest.fixture(scope="module")
def nbell_records():
    records = {}
    records[(1, 100)] = distill_record(beta=1.0, target_n=1, rounds=100, cutoff=10)
    records[(2, 100)] = distill_record(beta=1.2, target_n=2, rounds=100, cutoff=10)
    start = time.perf_counter()
    records[(3, 1000)] = distill_record(beta=1.3, target_n=3, rounds=1000, cutoff=10)
    records["n3_runtime"] = time.perf_counter() - start
    return records


def test_c07_two_excitation_fidelity(nbell_records):
    rec = nbell_records[(2, 100)]
    f50, f100 = rec.fidelity_plus[50], rec.fidelity_plus[100]
    ok = abs(f50 - 0.96) <= 0.01 and abs(f100 - 0.98) <= 0.01
    report("07a double-excitation Bell fidelity", ok,
           f"F(50) = {f50:.4f} want 0.96+-0.01, F(100) = {f100:.4f} want 0.98+-0.01")
    assert abs(f50 - 0.96) <= 0.01
    assert abs(f100 - 0.98) <= 0.01


def test_c07_three_excitation_fidelity(nbell_records):
    rec = nbell_records[(3, 1000)]
    f100, f1000 = rec.fidelity_plus[100], rec.fidelity_plus[1000]
    ok = abs(f100 - 0.68) <= 0.02 and abs(f1000 - 0.98) <= 0.01
    report("07b triple-excitation Bell fidelity", ok,
           f"F(100) = {f100:.4f} want 0.68+-0.02, F(1000) = {f1000:.4f} want 0.98+-0.01")
    assert abs(f100 - 0.68) <= 0.02
    assert abs(f1000 - 0.98) <= 0.01


def test_c07_success_probabilities(nbell_records):
    ps = [
        nbell_records[(1, 100)].success_probability[100],
        nbell_records[(2, 100)].success_probability[100],
        nbell_records[(3, 1000)].success_probability[100],
    ]
    wants = (0.28, 0.12, 0.08)
    ok = all(abs(p - w) <= 0.02 for p, w in zip(ps, wants))
    report("07c success probabilities for N = 1, 2, 3", ok,
           "Ps(100) = " + ", ".join(f"{p:.4f}" for p in ps) + " want 0.28/0.12/0.08 +- 0.02")
    for p, w in zip(ps, wants):
        assert abs(p - w) <= 0.02


def test_c07_runtime_budget(nbell_records):
    elapsed = nbell_records["n3_runtime"]
    ok = elapsed < 120.0
    report("07d long-run budget", ok, f"N=3, 1000 rounds took {elapsed:.1f} s")
    assert elapsed < 120.0


# --- criterion 8 -----------------------------------------------------------

def test_c08_single_shot_optimization(monkeypatch):
    from magbell import optimize
    from magbell.optimize import evaluate_single_shot

    monkeypatch.setattr(optimize, "MAX_CALLS", 2000)
    monkeypatch.setattr(optimize, "SPREAD_TOL", 1e-10)
    result = optimize_single_shot(1e-3, 4, restarts=8, seed=0)
    flat_baseline = 2.0 / (2.0 + 2.0 * math.cos(math.sqrt(2.0) * math.pi) ** 2)
    refid, _, _ = evaluate_single_shot(result.pulse, 1024)  # guard vs slicing overfit
    ok = (result.fidelity >= 0.99 and result.fidelity > flat_baseline
          and abs(refid - result.fidelity) <= 1e-4)
    report("08 single-shot pulse optimization", ok,
           f"F = {result.fidelity:.6f}, flat-detuning reference {flat_baseline:.4f}, "
           f"2x-slices |dF| = {abs(refid - result.fidelity):.2e}")
    assert result.fidelity >= 0.99
    assert result.fidelity > flat_baseline
    assert abs(refid - result.fidelity) <= 1e-4


# --- criterion 9 -----------------------------------------------------------

def test_c09_coupling_ratio_analysis():
    xis = np.linspace(0.8, 1.2, 81)
    exact = np.array([coupling_ratio_fidelity(float(x)) for x in xis])
    approx = np.array([coupling_ratio_fidelity(float(x), approximate=True) for x in xis])
    near = np.abs(xis - 1.0) <= 0.05
    max_gap = float(np.abs(exact - approx)[near].max())
    argmax = float(xis[int(np.argmax(exact))])
    ok = max_gap <= 5e-3 and argmax == pytest.approx(1.0, abs=1e-12)
    report("09 coupling-ratio fidelity", ok,
           f"max |exact-approx| near balance {max_gap:.2e}, argmax xi = {argmax}")
    assert max_gap <= 5e-3
    assert argmax == pytest.approx(1.0, abs=1e-12)


# --- criterion 10 ----------------------------------------------------------

def test_c10_dispersive_validation():
    def params_for(ratio):
        delta0 = 0.4
        g = ratio * delta0
        return ModelParams(omega_a=1.0 - delta0, omega_b=1.0 - delta0,
                           omega_n=1.0, omega_m=1.0, omega_e=1.0, omega_f=1.0,
                           g_n=g, g_m=g, g_e=g, g_f=g)

    r1 = sw_reduction_check(params_for(0.05))
    r2 = sw_reduction_check(params_for(0.025))
    slope = math.log2(r1 / r2)

    params = params_for(0.05)
    eff = effective_couplings(params)
    tau0 = interval_for_target(1, eff)
    state = product_state(magnon(4), {"n": superposed_state(4, 1), "m": superposed_state(4, 1)})
    fid = dispersive_evolution_fidelity(params, state, tau0)
    ok = fid >= 0.99 and 2.5 <= slope <= 3.5
    report("10 dispersive validation", ok,
           f"full-vs-effective fidelity {fid:.4f}, residual log2 slope {slope:.3f}")
    assert fid >= 0.99
    assert 2.5 <= slope <= 3.5


# --- criterion 11 ----------------------------------------------------------

def test_c11_conservation_suite():
    rng = np.random.default_rng(7)

    # propagator unitarity on random Hermitian generators
    worst_unitarity = 0.0
    for _ in range(10):
        dim = int(rng.integers(4, 24))
        space = HilbertSpace.single("s", dim)
        h = Operator(space, random_hermitian(rng, dim))
        u = propagator(h, float(rng.uniform(0.1, 5.0))).matrix
        worst_unitarity = max(worst_unitarity, float(np.abs(u.conj().T @ u - np.eye(dim)).max()))

    # trace and positivity of a lossy evolution
    dim = 6
    space = HilbertSpace.single("s", dim)
    a = annihilation(dim)
    h = Operator(space, a.matrix.conj().T @ a.matrix)
    vec = np.ones(dim, dtype=complex) / math.sqrt(dim)
    rho = integrate_master(
        QuantumState(space, "mixed", np.outer(vec, vec.conj())),
        LindbladSpec(h, ((Operator(space, a.matrix), 0.3),)),
        4.0, IntegratorConfig(dt=1e-3),
    )
    trace_drift = abs(float(np.real(np.trace(rho.data))) - 1.0)
    positivity_floor = float(np.linalg.eigvalsh(rho.data).min())

    # cumulative success probability bounded below by the initial target pair
    eff = EffectiveParams(G_e=1.3e-3, G_f=0.9e-3)
    cfg = ProtocolConfig.for_target(eff, rounds=6)
    mag = magnon(4)
    worst_margin = math.inf
    for _ in range(50):
        vec = rng.normal(size=16) + 1j * rng.normal(size=16)
        vec /= np.linalg.norm(vec)
        psi = QuantumState(mag, "pure", vec)
        pair0 = abs(vec[mag.index((0, 0))]) ** 2 + abs(vec[mag.index((1, 1))]) ** 2
        rec = run_protocol(psi, cfg)
        worst_margin = min(worst_margin, rec.success_probability[-1] - pair0)

    ok = (worst_unitarity <= 1e-12 and trace_drift <= 1e-8
          and positivity_floor >= -1e-8 and worst_margin >= -1e-10)
    report("11 conservation suite", ok,
           f"unitarity {worst_unitarity:.2e}, trace drift {trace_drift:.2e}, "
           f"positivity floor {positivity_floor:.2e}, Ps margin {worst_margin:.2e}")
    assert worst_unitarity <= 1e-12
    assert trace_drift <= 1e-8
    assert positivity_floor >= -1e-8
    assert worst_margin >= -1e-10
