import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from magbell import dynamics
from magbell.dynamics import (
    IntegratorConfig,
    LindbladSpec,
    NonHermitianError,
    TraceDriftError,
    integrate_master,
    lindblad_action,
    propagator,
    time_ordered_propagator,
    unitary_from_generator,
)
from magbell.hilbert import (
    HilbertSpace,
    Operator,
    QuantumState,
    annihilation,
    basis_state,
    embed,
    fidelity,
    product_state,
    superposed_state,
)
from magbell.measurement import interval_for_target
from magbell.model import EffectiveParams, build_jc_effective

from conftest import dense_lindblad_oracle, random_hermitian

JC_SPACE = HilbertSpace((("atom", 3), ("n", 3), ("m", 3)))


def random_h(seed, dim=8, scale=1.0):
    space = HilbertSpace.single("s", dim)
    return Operator(space, random_hermitian(np.random.default_rng(seed), dim, scale),
                    hamiltonian=True)


class TestPropagator:
    def test_zero_time_is_identity(self):
        h = random_h(0)
        assert np.abs(propagator(h, 0.0).matrix - np.eye(8)).max() <= 1e-14

    def test_group_property(self):
        h = random_h(1)
        u1 = propagator(h, 0.43).matrix
        u2 = propagator(h, 1.29).matrix
        u12 = propagator(h, 0.43 + 1.29).matrix
        assert np.abs(u1 @ u2 - u12).max() <= 1e-12

    def test_unitarity(self):
        for seed in range(5):
            u = propagator(random_h(seed, dim=12), 2.7).matrix
            assert np.abs(u.conj().T @ u - np.eye(12)).max() <= 1e-12

    def test_jc_block_rabi_oscillation(self):
        # resonant single-excitation block: return amplitude cos(G_e tau)
        g_e = 1e-3
        eff = EffectiveParams(G_e=g_e, G_f=g_e)
        h = build_jc_effective(eff, JC_SPACE)
        psi0 = basis_state(JC_SPACE, (0, 1, 0)).data
        for tau in (100.0, 700.0, 1300.0):
            amp = np.vdot(psi0, propagator(h, tau).matrix @ psi0)
            assert abs(amp - math.cos(g_e * tau)) < 1e-12

    def test_non_hermitian_rejected(self):
        space = HilbertSpace.single("s", 2)
        mat = np.array([[0.0, 1.0], [0.0, 0.0]])
        with pytest.raises(NonHermitianError):
            propagator(Operator(space, mat), 1.0)

    def test_nan_matrix_rejected(self):
        space = HilbertSpace.single("s", 2)
        with pytest.raises(NonHermitianError):
            propagator(Operator(space, np.full((2, 2), math.nan)), 1.0)


class TestUnitaryFromGenerator:
    def test_matches_series_on_small_generator(self):
        rng = np.random.default_rng(3)
        mat = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
        s = 0.01 * (mat - mat.conj().T)
        space = HilbertSpace.single("s", 6)
        u = unitary_from_generator(Operator(space, s)).matrix
        series = np.eye(6, dtype=complex)
        term = np.eye(6, dtype=complex)
        for k in range(1, 20):
            term = term @ s / k
            series += term
        assert np.abs(u - series).max() < 1e-14


class TestIntegrateMaster:
    @pytest.mark.parametrize("dim", [12, 24])
    def test_closed_system_matches_propagator(self, dim):
        rng = np.random.default_rng(4)
        space = HilbertSpace.single("s", dim)
        h = Operator(space, random_hermitian(rng, dim), hamiltonian=True)
        vec = rng.normal(size=dim) + 1j * rng.normal(size=dim)
        vec /= np.linalg.norm(vec)
        rho0 = QuantumState(space, "mixed", np.outer(vec, vec.conj()))
        spec = LindbladSpec(h, ())
        t = 1.0
        out = integrate_master(rho0, spec, t, IntegratorConfig(dt=t / 2000))
        target = QuantumState(space, "pure", propagator(h, t).matrix @ vec)
        assert fidelity(out, target) >= 1.0 - 1e-8

    def test_damped_mode_mean_occupation(self):
        # analytic decay of <n> under a lossy free mode
        dim = 6
        space = HilbertSpace.single("s", dim)
        a = annihilation(dim)
        num = a.dagger().matrix @ a.matrix
        h = Operator(space, 0.7 * num, hamiltonian=True)
        gamma, t = 0.1, 5.0
        vec = np.zeros(dim, dtype=complex)
        vec[3] = 1.0
        rho0 = QuantumState(space, "mixed", np.outer(vec, vec.conj()))
        out = integrate_master(rho0, LindbladSpec(h, ((Operator(space, a.matrix), gamma),)),
                               t, IntegratorConfig(dt=t / 4000))
        got = float(np.real(np.trace(out.data @ num)))
        assert abs(got - 3.0 * math.exp(-gamma * t)) < 1e-6

    def test_trace_preserved_along_run(self):
        dim = 6
        space = HilbertSpace.single("s", dim)
        a = annihilation(dim)
        h = Operator(space, 0.3 * (a.matrix + a.matrix.conj().T), hamiltonian=True)
        rho = QuantumState(space, "mixed", np.diag([0.5, 0.5, 0, 0, 0, 0]).astype(complex))
        spec = LindbladSpec(h, ((Operator(space, a.matrix), 0.05),))
        for _ in range(4):
            rho = integrate_master(rho, spec, 1.0, IntegratorConfig(dt=1e-3))
            assert abs(np.trace(rho.data) - 1.0) <= 1e-8

    def test_hermiticity_and_positivity_of_output(self):
        dim = 5
        space = HilbertSpace.single("s", dim)
        a = annihilation(dim)
        h = Operator(space, a.dagger().matrix @ a.matrix, hamiltonian=True)
        vec = np.ones(dim, dtype=complex) / math.sqrt(dim)
        rho0 = QuantumState(space, "mixed", np.outer(vec, vec.conj()))
        out = integrate_master(rho0, LindbladSpec(h, ((Operator(space, a.matrix), 0.2),)),
                               3.0, IntegratorConfig(dt=1e-3))
        assert np.abs(out.data - out.data.conj().T).max() <= 1e-10
        assert np.linalg.eigvalsh(out.data).min() >= -1e-8

    def test_oversized_step_raises_trace_drift(self):
        dim = 4
        space = HilbertSpace.single("s", dim)
        a = annihilation(dim)
        h = Operator(space, np.zeros((dim, dim)), hamiltonian=True)
        rho0 = QuantumState(space, "mixed", np.diag([0, 0, 0, 1.0]).astype(complex))
        spec = LindbladSpec(h, ((Operator(space, a.matrix), 50.0),))
        with pytest.raises(TraceDriftError):
            integrate_master(rho0, spec, 1.0, IntegratorConfig(dt=0.25))

    def test_nan_evolution_raises_trace_drift(self):
        space = HilbertSpace.single("s", 3)
        h = Operator(space, np.full((3, 3), math.nan))
        rho0 = QuantumState(space, "mixed", np.diag([1.0, 0.0, 0.0]).astype(complex))
        with pytest.raises(TraceDriftError):
            integrate_master(rho0, LindbladSpec(h, ()), 1.0, IntegratorConfig(dt=0.5))

    def test_nan_dt_rejected(self):
        with pytest.raises(ValueError, match="dt"):
            IntegratorConfig(dt=math.nan)

    def test_infinite_dt_rejected(self):
        with pytest.raises(ValueError, match="dt"):
            IntegratorConfig(dt=math.inf)

    def test_negative_rate_rejected(self):
        space = HilbertSpace.single("s", 3)
        a = annihilation(3)
        h = Operator(space, np.zeros((3, 3)), hamiltonian=True)
        with pytest.raises(ValueError):
            LindbladSpec(h, ((Operator(space, a.matrix), -0.1),))

    def test_nan_rate_rejected(self):
        space = HilbertSpace.single("s", 3)
        h = Operator(space, np.zeros((3, 3)), hamiltonian=True)
        with pytest.raises(ValueError, match="rate"):
            LindbladSpec(h, ((Operator(space, annihilation(3).matrix), math.nan),))


def random_density(rng, dim):
    mat = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = mat @ mat.conj().T
    return rho / np.trace(rho)


def random_lindblad(seed, dim, rates):
    """A drawn Hamiltonian, Gaussian collapse operators at the given rates and a density matrix."""
    rng = np.random.default_rng(seed)
    space = HilbertSpace.single("s", dim)
    h = Operator(space, random_hermitian(rng, dim, 0.5), hamiltonian=True)
    collapse = tuple(
        (Operator(space, rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))), rate)
        for rate in rates
    )
    rho0 = QuantumState(space, "mixed", random_density(rng, dim))
    return LindbladSpec(h, collapse), rho0


LINDBLAD_DRAWS = dict(
    seed=st.integers(0, 2**32 - 1), dim=st.integers(2, 4),
    rates=st.lists(st.floats(0.0, 1.0), min_size=0, max_size=2),
)


def decohere_prepare_round():
    """One decohere-prepare round: G_e = G_f = 6e-3, loss 1e-4 on both modes, cutoff 3."""
    eff = EffectiveParams(G_e=6e-3, G_f=6e-3)
    spec = LindbladSpec(build_jc_effective(eff, JC_SPACE), (
        (embed(annihilation(3), JC_SPACE, "n"), 1e-4),
        (embed(annihilation(3), JC_SPACE, "m"), 1e-4),
    ))
    plus = superposed_state(3, 1)
    magnons = product_state(HilbertSpace((("n", 3), ("m", 3))), {"n": plus, "m": plus})
    ground = np.diag([1.0, 0.0, 0.0]).astype(complex)
    rho0 = QuantumState(JC_SPACE, "mixed", np.kron(ground, magnons.density()))
    return spec, rho0, interval_for_target(1, eff)


class TestLindbladAction:
    def test_matches_rk4_for_one_decohere_prepare_round(self):
        spec, rho0, tau = decohere_prepare_round()
        exact = lindblad_action(rho0, spec, tau)
        rk4 = integrate_master(rho0, spec, tau, IntegratorConfig(dt=tau / 2000))
        assert np.abs(exact.data - rk4.data).max() <= 1e-9

    def test_matches_dense_oracle_for_one_decohere_prepare_round(self):
        spec, rho0, tau = decohere_prepare_round()
        exact = lindblad_action(rho0, spec, tau)
        dense = dense_lindblad_oracle(rho0.data, spec, tau)
        assert np.abs(exact.data - dense).max() <= 1e-12

    @settings(max_examples=40, deadline=None)
    @given(**LINDBLAD_DRAWS, t=st.floats(0.0, 5.0))
    def test_matches_dense_oracle(self, seed, dim, rates, t):
        spec, rho0 = random_lindblad(seed, dim, rates)
        out = lindblad_action(rho0, spec, t).data
        assert np.abs(out - dense_lindblad_oracle(rho0.data, spec, t)).max() <= 1e-12

    @settings(max_examples=40, deadline=None)
    @given(**LINDBLAD_DRAWS)
    def test_taylor_term_matches_commutator_form(self, seed, dim, rates):
        spec, _ = random_lindblad(seed, dim, rates)
        rho = random_hermitian(np.random.default_rng([seed, 1]), dim)  # drawn apart from H
        h = spec.hamiltonian.matrix
        jumps = dynamics._jump_terms(spec)
        term = dynamics._hermitian_term(rho, *dynamics._stacked_generator(h, jumps, 1.0))
        rhs = dynamics._lindblad_rhs(rho, h, jumps)
        assert np.linalg.norm(term - rhs) <= 1e-14 * np.linalg.norm(rhs)

    @pytest.mark.parametrize("t", [math.nan, math.inf, -1.0])
    def test_bad_time_rejected(self, t):
        spec, rho0 = random_lindblad(0, 2, [1.0])
        with pytest.raises(ValueError, match="t must be"):
            lindblad_action(rho0, spec, t)

    def test_closed_system_matches_propagator(self):
        rng = np.random.default_rng(11)
        space = HilbertSpace.single("s", 12)
        h = Operator(space, random_hermitian(rng, 12), hamiltonian=True)
        rho0 = QuantumState(space, "mixed", random_density(rng, 12))
        u = propagator(h, 1.7).matrix
        out = lindblad_action(rho0, LindbladSpec(h, ()), 1.7)
        assert np.abs(out.data - u @ rho0.data @ u.conj().T).max() <= 1e-12

    @settings(max_examples=40, deadline=None)
    @given(**LINDBLAD_DRAWS, t=st.floats(0.0, 5.0))
    @example(seed=0, dim=2, rates=[1.0], t=3.0)
    def test_output_is_a_density_matrix(self, seed, dim, rates, t):
        spec, rho0 = random_lindblad(seed, dim, rates)
        out = lindblad_action(rho0, spec, t).data
        assert abs(np.trace(out) - 1.0) <= 1e-12
        assert np.abs(out - out.conj().T).max() <= 1e-15
        assert np.linalg.eigvalsh(out).min() >= -1e-12

    def test_trace_guard_fires_on_impossible_tolerance(self, monkeypatch):
        dim = 6
        space = HilbertSpace.single("s", dim)
        a = annihilation(dim)
        h = Operator(space, 0.3 * (a.matrix + a.matrix.conj().T), hamiltonian=True)
        rho0 = QuantumState(space, "mixed", random_density(np.random.default_rng(5), dim))
        spec = LindbladSpec(h, ((Operator(space, a.matrix), 0.05),))
        lindblad_action(rho0, spec, 4.0)
        monkeypatch.setattr(dynamics, "DEFAULT_TRACE_TOL", 1e-30)
        with pytest.raises(TraceDriftError):
            lindblad_action(rho0, spec, 4.0)


class TestTimeOrderedPropagator:
    def test_constant_hamiltonian_matches_propagator(self):
        h = random_h(6, dim=6)
        u_ref = propagator(h, 2.0).matrix
        u = time_ordered_propagator(lambda t: h, 2.0, 64).matrix
        assert np.abs(u - u_ref).max() <= 1e-10

    def test_zero_hamiltonian_identity(self):
        space = HilbertSpace.single("s", 4)
        zero = Operator(space, np.zeros((4, 4)), hamiltonian=True)
        u = time_ordered_propagator(lambda t: zero, 5.0, 16).matrix
        assert np.abs(u - np.eye(4)).max() <= 1e-14

    def test_second_order_self_convergence(self):
        # noncommuting drive: deviation from a fine reference halves twice per doubling
        space = HilbertSpace.single("s", 2)
        sx = np.array([[0, 1], [1, 0]], dtype=complex)
        sz = np.diag([1.0, -1.0]).astype(complex)

        def hfun(t):
            return Operator(space, math.cos(3.0 * t) * sx + math.sin(2.0 * t) * sz,
                            hamiltonian=True)

        t_final = 2.0
        u_ref = time_ordered_propagator(hfun, t_final, 4096).matrix
        devs = [np.abs(time_ordered_propagator(hfun, t_final, s).matrix - u_ref).max()
                for s in (32, 64)]
        slope = math.log2(devs[0] / devs[1])
        assert 1.8 <= slope <= 2.2

    def test_unitarity(self):
        h = random_h(8, dim=5)
        u = time_ordered_propagator(lambda t: h, 1.0, 32).matrix
        assert np.abs(u.conj().T @ u - np.eye(5)).max() <= 1e-12

    def test_bad_slices(self):
        h = random_h(9, dim=2)
        with pytest.raises(ValueError):
            time_ordered_propagator(lambda t: h, 1.0, 0)
