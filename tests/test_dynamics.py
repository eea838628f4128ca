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
    lindblad_channel,
    propagator,
    propagator_matrix,
    time_ordered_propagator,
)
from magbell.hilbert import (
    HilbertSpace,
    Operator,
    QuantumState,
    annihilation,
    basis_state,
    bell_state,
    fidelity,
    product_state,
    superposed_state,
)
from magbell.measurement import interval_for_target
from magbell.model import EffectiveParams, PulseCoefficients, build_jc_effective, build_time_dependent_jc

from conftest import (dense_lindblad_oracle, dense_liouvillian, embed, expm_scaling_squaring,
                      random_hermitian)

JC_SPACE = HilbertSpace((("atom", 3), ("n", 3), ("m", 3)))


def random_h(seed, dim=8, scale=1.0):
    space = HilbertSpace.single("s", dim)
    return Operator(space, random_hermitian(np.random.default_rng(seed), dim, scale))


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

    @pytest.mark.parametrize("t", [math.nan, math.inf, -math.inf])
    def test_non_finite_time_rejected(self, t):
        h = random_h(2, dim=4)
        with pytest.raises(ValueError, match="t must be finite"):
            propagator(h, t)
        with pytest.raises(ValueError, match="t must be finite"):
            propagator_matrix(h.matrix, t)


class TestUnitaryFromGenerator:
    """exp(S) of an anti-Hermitian S, as propagator_matrix(1j S, 1)."""

    def test_matches_series_on_small_generator(self):
        rng = np.random.default_rng(3)
        mat = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
        s = 0.01 * (mat - mat.conj().T)
        u = propagator_matrix(1j * s, 1.0)  # exp(s), through the Hermitian form i s
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
        h = Operator(space, random_hermitian(rng, dim))
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
        num = a.matrix.conj().T @ a.matrix
        h = Operator(space, 0.7 * num)
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
        h = Operator(space, 0.3 * (a.matrix + a.matrix.conj().T))
        rho = QuantumState(space, "mixed", np.diag([0.5, 0.5, 0, 0, 0, 0]).astype(complex))
        spec = LindbladSpec(h, ((Operator(space, a.matrix), 0.05),))
        for _ in range(4):
            rho = integrate_master(rho, spec, 1.0, IntegratorConfig(dt=1e-3))
            assert abs(np.trace(rho.data) - 1.0) <= 1e-8

    def test_hermiticity_and_positivity_of_output(self):
        dim = 5
        space = HilbertSpace.single("s", dim)
        a = annihilation(dim)
        h = Operator(space, a.matrix.conj().T @ a.matrix)
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
        h = Operator(space, np.zeros((dim, dim)))
        rho0 = QuantumState(space, "mixed", np.diag([0, 0, 0, 1.0]).astype(complex))
        spec = LindbladSpec(h, ((Operator(space, a.matrix), 50.0),))
        with pytest.raises(TraceDriftError):
            integrate_master(rho0, spec, 1.0, IntegratorConfig(dt=0.25))

    def test_nan_evolution_raises_trace_drift(self):
        # the NaN comes from a finite rate whose products overflow (2e308 -> inf,
        # then inf * 0): NaN in H, in a collapse operator or in a rate stops at
        # LindbladSpec
        space = HilbertSpace.single("s", 3)
        h = Operator(space, np.zeros((3, 3)))
        spec = LindbladSpec(h, ((Operator(space, annihilation(3).matrix), 1e308),))
        rho0 = QuantumState(space, "mixed", np.diag([0.0, 0.0, 1.0]).astype(complex))
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(TraceDriftError):
                integrate_master(rho0, spec, 1.0, IntegratorConfig(dt=0.5))
            with pytest.raises(TraceDriftError):
                lindblad_channel(spec, 1.0, rho0.data)(rho0)

    def test_nan_dt_rejected(self):
        with pytest.raises(ValueError, match="dt"):
            IntegratorConfig(dt=math.nan)

    def test_infinite_dt_rejected(self):
        with pytest.raises(ValueError, match="dt"):
            IntegratorConfig(dt=math.inf)

    def test_negative_rate_rejected(self):
        space = HilbertSpace.single("s", 3)
        a = annihilation(3)
        h = Operator(space, np.zeros((3, 3)))
        with pytest.raises(ValueError):
            LindbladSpec(h, ((Operator(space, a.matrix), -0.1),))

    def test_nan_rate_rejected(self):
        space = HilbertSpace.single("s", 3)
        h = Operator(space, np.zeros((3, 3)))
        for rate in (math.nan, math.inf):
            with pytest.raises(ValueError, match="rate"):
                LindbladSpec(h, ((Operator(space, annihilation(3).matrix), rate),))

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_collapse_operator_rejected(self, bad):
        space = HilbertSpace.single("s", 3)
        h = Operator(space, np.zeros((3, 3)))
        op = annihilation(3).matrix.astype(complex)
        op[2, 0] = bad
        with pytest.raises(ValueError, match="collapse operator"):
            LindbladSpec(h, ((Operator(space, op), 1.0),))


class TestLindbladSpec:
    def test_non_hermitian_hamiltonian_rejected(self):
        space = HilbertSpace.single("s", 3)
        mat = np.zeros((3, 3))
        mat[0, 1] = 1.0
        with pytest.raises(NonHermitianError):
            LindbladSpec(Operator(space, mat), ())

    def test_nan_hamiltonian_rejected(self):
        space = HilbertSpace.single("s", 3)
        mat = np.zeros((3, 3))
        mat[0, 0] = math.nan
        with pytest.raises(NonHermitianError):
            LindbladSpec(Operator(space, mat), ())


def random_density(rng, dim):
    mat = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = mat @ mat.conj().T
    return rho / np.trace(rho)


def random_lindblad(seed, dim, rates):
    """A drawn Hamiltonian, Gaussian collapse operators at the given rates and a density matrix."""
    rng = np.random.default_rng(seed)
    space = HilbertSpace.single("s", dim)
    h = Operator(space, random_hermitian(rng, dim, 0.5))
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


def jc_loss_spec(space, eff, rates):
    """The JC effective Hamiltonian on space with loss on both magnon modes at rates."""
    dn, dm = space.dim("n"), space.dim("m")
    return LindbladSpec(build_jc_effective(eff, space), (
        (embed(annihilation(dn), space, "n"), rates[0]),
        (embed(annihilation(dm), space, "m"), rates[1]),
    ))


def ground_input(kind, dn, dm, seed=0):
    """|g><g| (x) a magnon density: the N = 1 Bell state, |+>|+>, or random on drawn basis states."""
    mag = HilbertSpace((("n", dn), ("m", dm)))
    if kind == "bell":
        rho = bell_state(mag, 1, +1).density()
    elif kind == "plus":
        rho = product_state(mag, {"n": superposed_state(dn, 1), "m": superposed_state(dm, 1)}).density()
    else:
        rng = np.random.default_rng(seed)
        support = rng.choice(dn * dm, size=rng.integers(1, dn * dm + 1), replace=False)
        rho = np.zeros((dn * dm,) * 2, dtype=complex)
        rho[np.ix_(support, support)] = random_density(rng, support.size)
    return np.kron(np.diag([1.0, 0.0, 0.0]), rho)


def decohere_prepare_round():
    """One decohere-prepare round: G_e = G_f = 6e-3, loss 1e-4 on both modes, cutoff 3."""
    eff = EffectiveParams(G_e=6e-3, G_f=6e-3)
    spec = jc_loss_spec(JC_SPACE, eff, (1e-4, 1e-4))
    rho0 = QuantumState(JC_SPACE, "mixed", ground_input("plus", 3, 3))
    return spec, rho0, interval_for_target(1, eff)


class TestLindbladAction:
    """exp(L t) rho0 as one channel build and one application."""

    def test_matches_rk4_for_one_decohere_prepare_round(self):
        spec, rho0, tau = decohere_prepare_round()
        exact = lindblad_channel(spec, tau, rho0.data)(rho0)
        rk4 = integrate_master(rho0, spec, tau, IntegratorConfig(dt=tau / 2000))
        assert np.abs(exact.data - rk4.data).max() <= 1e-9

    def test_matches_dense_oracle_for_one_decohere_prepare_round(self):
        spec, rho0, tau = decohere_prepare_round()
        exact = lindblad_channel(spec, tau, rho0.data)(rho0)
        dense = dense_lindblad_oracle(rho0.data, spec, tau)
        assert np.abs(exact.data - dense).max() <= 1e-12

    @settings(max_examples=40, deadline=None)
    @given(**LINDBLAD_DRAWS, t=st.floats(0.0, 5.0))
    def test_matches_dense_oracle(self, seed, dim, rates, t):
        spec, rho0 = random_lindblad(seed, dim, rates)
        out = lindblad_channel(spec, t, rho0.data)(rho0).data
        assert np.abs(out - dense_lindblad_oracle(rho0.data, spec, t)).max() <= 1e-12

    @settings(max_examples=40, deadline=None)
    @given(**LINDBLAD_DRAWS)
    def test_block_generators_match_commutator_form(self, seed, dim, rates):
        spec, _ = random_lindblad(seed, dim, rates)
        rho = random_hermitian(np.random.default_rng([seed, 1]), dim)  # drawn apart from H
        liou = np.zeros((dim * dim,) * 2, dtype=complex)
        for idx, gen, partner in dynamics._block_generators(spec, np.ones((dim, dim))):
            liou[np.ix_(idx, idx)] = gen
            if partner is not None:
                liou[np.ix_(partner, partner)] = gen.conj()
        rhs = dynamics._lindblad_rhs(rho, spec.hamiltonian.matrix, dynamics._jump_terms(spec))
        term = (liou @ rho.ravel()).reshape(dim, dim)
        assert np.linalg.norm(term - rhs) <= 1e-14 * np.linalg.norm(rhs)

    @settings(max_examples=8, deadline=None)
    @given(cutoffs=st.sampled_from([(2, 2), (2, 3), (3, 2), (2, 4), (4, 2), (3, 3)]),
           g_e=st.floats(1e-3, 1e-2), g_f=st.floats(1e-3, 1e-2), delta=st.floats(-5e-3, 5e-3),
           rates=st.tuples(*[st.just(0.0) | st.floats(1e-5, 1e-3)] * 2),
           t=st.floats(0.0, 3000.0), seed=st.integers(0, 2**32 - 1))
    def test_structured_spec_splits_into_exact_blocks(self, cutoffs, g_e, g_f, delta, rates, t, seed):
        # JC specs conserve excitation, so L splits; dense random specs give one block
        dn, dm = cutoffs
        space = HilbertSpace((("atom", 3), ("n", dn), ("m", dm)))
        eff = EffectiveParams(G_e=g_e, G_f=g_f, Delta_e_tilde=delta, Delta_f_tilde=delta)
        spec = jc_loss_spec(space, eff, rates)
        dim = space.total_dim
        rho0 = QuantumState(space, "mixed", random_density(np.random.default_rng(seed), dim))
        channel = lindblad_channel(spec, t, rho0.data)  # full support: the whole space's blocks
        label = np.full(dim * dim, -1)
        for b, (idx, _) in enumerate(channel.blocks):
            assert (label[idx] == -1).all()
            label[idx] = b
        assert (label >= 0).all() and len(channel.blocks) > 1
        assert any(partner is not None
                   for _, _, partner in dynamics._block_generators(spec, rho0.data))
        # dense_liouvillian stacks columns: its index j d + i is row-major i d + j
        i, j = np.divmod(np.arange(dim * dim), dim)
        col_label = np.empty_like(label)
        col_label[j * dim + i] = label
        rows, cols = np.nonzero(dense_liouvillian(spec))
        assert (col_label[rows] == col_label[cols]).all()
        out = channel(rho0).data
        assert np.abs(out - dense_lindblad_oracle(rho0.data, spec, t)).max() <= 1e-12

    @pytest.mark.parametrize("t", [math.nan, math.inf, -1.0])
    def test_bad_time_rejected(self, t):
        spec, rho0 = random_lindblad(0, 2, [1.0])
        with pytest.raises(ValueError, match="t must be"):
            lindblad_channel(spec, t, rho0.data)(rho0)

    def test_closed_system_matches_propagator(self):
        rng = np.random.default_rng(11)
        space = HilbertSpace.single("s", 12)
        h = Operator(space, random_hermitian(rng, 12))
        rho0 = QuantumState(space, "mixed", random_density(rng, 12))
        u = propagator(h, 1.7).matrix
        out = lindblad_channel(LindbladSpec(h, ()), 1.7, rho0.data)(rho0)
        assert np.abs(out.data - u @ rho0.data @ u.conj().T).max() <= 1e-12

    @settings(max_examples=40, deadline=None)
    @given(**LINDBLAD_DRAWS, t=st.floats(0.0, 5.0))
    @example(seed=0, dim=2, rates=[1.0], t=3.0)
    def test_output_is_a_density_matrix(self, seed, dim, rates, t):
        spec, rho0 = random_lindblad(seed, dim, rates)
        out = lindblad_channel(spec, t, rho0.data)(rho0).data
        assert abs(np.trace(out) - 1.0) <= 1e-12
        assert np.abs(out - out.conj().T).max() <= 1e-15
        assert np.linalg.eigvalsh(out).min() >= -1e-12

    def test_trace_guard_fires_on_impossible_tolerance(self, monkeypatch):
        dim = 6
        space = HilbertSpace.single("s", dim)
        a = annihilation(dim)
        h = Operator(space, 0.3 * (a.matrix + a.matrix.conj().T))
        rho0 = QuantumState(space, "mixed", random_density(np.random.default_rng(5), dim))
        spec = LindbladSpec(h, ((Operator(space, a.matrix), 0.05),))
        lindblad_channel(spec, 4.0, rho0.data)(rho0)
        monkeypatch.setattr(dynamics, "DEFAULT_TRACE_TOL", 1e-30)
        with pytest.raises(TraceDriftError):
            lindblad_channel(spec, 4.0, rho0.data)(rho0)


class TestExpm:
    """The block exponential against the scaling-and-squaring oracle of the tests."""

    @settings(max_examples=200, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), dim=st.integers(1, 20),
           norm=st.just(0.0) | st.floats(1e-300, 1e-6) | st.floats(0.0, 64.0),
           triangular=st.booleans())
    @example(seed=0, dim=5, norm=0.0, triangular=False)
    @example(seed=1, dim=20, norm=64.0, triangular=True)
    @example(seed=2, dim=1, norm=5e-324, triangular=False)
    def test_matches_oracle(self, seed, dim, norm, triangular):
        # Gaussian entries give a non-normal a; the triangular draws are far from normal
        rng = np.random.default_rng(seed)
        a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        if triangular:
            a = np.triu(a)
        a *= norm / np.linalg.norm(a, 1)
        want = expm_scaling_squaring(a)
        assert np.abs(dynamics._expm(a) - want).max() <= 1e-13 * max(1.0, np.abs(want).max())


def dense_reachable(spec, start):
    """Row-major indices the dense column-stacked Liouvillian reaches from start's support."""
    links = dense_liouvillian(spec) != 0
    reached = (start != 0).reshape(-1, order="F")
    while True:
        grown = reached | links[:, reached].any(axis=1)
        if (grown == reached).all():
            return np.flatnonzero(reached.reshape(start.shape, order="F"))
        reached = grown


class TestReachableChannel:
    """A channel built on the indices its start reaches, against the dense superoperator."""

    @settings(max_examples=8, deadline=None)
    @given(cutoffs=st.sampled_from([(2, 2), (2, 3), (3, 2), (2, 4), (4, 2), (3, 3)]),
           g_e=st.just(0.0) | st.floats(1e-3, 1e-2), g_f=st.just(0.0) | st.floats(1e-3, 1e-2),
           delta=st.just(0.0) | st.floats(-5e-3, 5e-3),
           rates=st.tuples(*[st.just(0.0) | st.floats(1e-5, 1e-3)] * 2),
           t=st.floats(0.0, 3000.0), kind=st.sampled_from(["bell", "plus", "random"]),
           seed=st.integers(0, 2**32 - 1))
    def test_matches_dense_oracle_on_reachable_set(self, cutoffs, g_e, g_f, delta, rates, t,
                                                   kind, seed):
        dn, dm = cutoffs
        space = HilbertSpace((("atom", 3), ("n", dn), ("m", dm)))
        eff = EffectiveParams(G_e=g_e, G_f=g_f, Delta_e_tilde=delta, Delta_f_tilde=delta)
        spec = jc_loss_spec(space, eff, rates)
        rho0 = QuantumState(space, "mixed", ground_input(kind, dn, dm, seed))
        channel = lindblad_channel(spec, t, rho0.data)
        dim = space.total_dim
        # the blocks partition R, and R is what the dense L reaches
        idx = np.concatenate([idx for idx, _ in channel.blocks])
        assert np.array_equal(np.sort(idx), channel.support)
        assert np.array_equal(channel.support, dense_reachable(spec, rho0.data))
        i, j = np.divmod(channel.support, dim)
        assert np.array_equal(np.sort(j * dim + i), channel.support)
        out = channel(rho0).data
        assert np.abs(out - dense_lindblad_oracle(rho0.data, spec, t)).max() <= 1e-12

    def test_state_outside_reachable_set_raises(self):
        spec, plus, tau = decohere_prepare_round()
        bell = QuantumState(JC_SPACE, "mixed", ground_input("bell", 3, 3))
        channel = lindblad_channel(spec, tau, bell.data)
        channel(bell)
        with pytest.raises(ValueError, match="outside"):
            channel(plus)

    def test_triangular_start_reaches_the_hermitian_set(self):
        spec, _, tau = decohere_prepare_round()
        bell = ground_input("bell", 3, 3)
        support = lindblad_channel(spec, tau, bell).support
        assert np.array_equal(lindblad_channel(spec, tau, np.triu(bell)).support, support)

    @pytest.mark.parametrize("start", [np.zeros((27, 27)), np.eye(9)])
    def test_zero_or_misshaped_start_rejected(self, start):
        spec, _, tau = decohere_prepare_round()
        with pytest.raises(ValueError, match="start"):
            lindblad_channel(spec, tau, start)


class TestTimeOrderedPropagator:
    def test_constant_hamiltonian_matches_propagator(self):
        h = random_h(6, dim=6)
        u_ref = propagator(h, 2.0).matrix
        u = time_ordered_propagator(lambda t: h, 2.0, 64).matrix
        assert np.abs(u - u_ref).max() <= 1e-10

    def test_zero_hamiltonian_identity(self):
        space = HilbertSpace.single("s", 4)
        zero = Operator(space, np.zeros((4, 4)))
        u = time_ordered_propagator(lambda t: zero, 5.0, 16).matrix
        assert np.abs(u - np.eye(4)).max() <= 1e-14

    def test_second_order_self_convergence(self):
        # noncommuting drive: deviation from a fine reference halves twice per doubling
        space = HilbertSpace.single("s", 2)
        sx = np.array([[0, 1], [1, 0]], dtype=complex)
        sz = np.diag([1.0, -1.0]).astype(complex)

        def hfun(t):
            return Operator(space, math.cos(3.0 * t) * sx + math.sin(2.0 * t) * sz)

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

    @pytest.mark.parametrize("t_final", [math.nan, math.inf])
    def test_non_finite_final_time_rejected(self, t_final):
        # the Hamiltonian is fine: the time is what is wrong
        pulse = PulseCoefficients(a=(0.1,), b=(0.0,), tau_total=50.0, G=2e-3)
        hfun = build_time_dependent_jc(pulse, 2e-3, JC_SPACE)
        with pytest.raises(ValueError, match="t_final must be finite"):
            time_ordered_propagator(hfun, t_final, 4)
