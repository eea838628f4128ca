import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from magbell import dynamics, hilbert, measurement
from magbell.dynamics import TraceDriftError, lindblad_channel
from magbell.hilbert import (
    DimensionError,
    HilbertSpace,
    Operator,
    QuantumState,
    SpaceMismatchError,
    StateValidationError,
    basis_state,
    bell_state,
    parity_operator,
    product_state,
    superposed_state,
)
from magbell.measurement import (
    NullOutcomeError,
    ProtocolConfig,
    TargetOverlapError,
    analytic_kraus,
    apply_projection,
    coupling_ratio_fidelity,
    interval_for_target,
    numeric_kraus,
    qubit_parity_reference,
    rabi_frequency,
    run_protocol,
    stabilize,
)
from magbell.model import EffectiveParams, _with_ground, build_jc_effective

from conftest import block_return_amplitude, coefficient_power_amplitudes

RECORD_FIELDS = ("fidelity_plus", "fidelity_minus", "success_probability", "even_population")
SQRT2PI_COS = math.cos(math.sqrt(2.0) * math.pi)  # single-excitation damping at resonance


def jc_space(d):
    return HilbertSpace((("atom", 3), ("n", d), ("m", d)))


def magnon(d):
    return HilbertSpace((("n", d), ("m", d)))


def detuned(eff, delta):
    """eff with both tilde detunings set to the common detuning delta."""
    return dataclasses.replace(eff, Delta_e_tilde=delta, Delta_f_tilde=delta)


def kraus_coefficient(n, m, eff, tau):
    """alpha_nm(tau): the (n, m) diagonal entry of analytic_kraus times exp(i delta tau / 2)."""
    d = max(n, m) + 1
    v = analytic_kraus(magnon(d), eff, tau).matrix
    return complex(np.exp(0.5j * eff.common_detuning() * tau) * v[n * d + m, n * d + m])


class TestRabiFrequency:
    def test_vacuum_pair_is_half_detuning(self, resonant_eff):
        assert rabi_frequency(0, 0, detuned(resonant_eff, 0.3)) == pytest.approx(0.15)

    def test_resonant_equal_couplings(self):
        eff = EffectiveParams(G_e=2e-3, G_f=2e-3)
        assert rabi_frequency(1, 1, eff) == pytest.approx(math.sqrt(2) * 2e-3)
        assert rabi_frequency(3, 3, eff) == pytest.approx(math.sqrt(6) * 2e-3)


class TestKrausCoefficient:
    @settings(max_examples=200, deadline=None)
    @given(
        n=st.integers(0, 6), m=st.integers(0, 6),
        g_e=st.floats(0.0, 0.01), g_f=st.floats(0.0, 0.01),
        delta=st.floats(-0.02, 0.02), tau=st.floats(0.0, 1e4),
    )
    def test_magnitude_bounded_by_one(self, n, m, g_e, g_f, delta, tau):
        eff = EffectiveParams(G_e=g_e, G_f=g_f, Delta_e_tilde=delta, Delta_f_tilde=delta)
        alpha = kraus_coefficient(n, m, eff, tau)
        assert abs(alpha) <= 1.0 + 1e-12
        if n == 0 and m == 0:
            assert abs(abs(alpha) - 1.0) <= 1e-12

    def test_vacuum_pair_unit_magnitude_at_nonzero_detuning(self, resonant_eff):
        alpha = kraus_coefficient(0, 0, detuned(resonant_eff, 0.7), 123.4)
        assert abs(alpha) == pytest.approx(1.0, abs=1e-15)

    def test_held_pair_returns_to_one(self, resonant_eff):
        tau0 = interval_for_target(1, resonant_eff)
        assert kraus_coefficient(1, 1, resonant_eff, tau0) == pytest.approx(1.0, abs=1e-12)

    def test_single_excitation_value_at_resonance(self, resonant_eff):
        tau0 = interval_for_target(1, resonant_eff)
        a01 = kraus_coefficient(0, 1, resonant_eff, tau0)
        assert a01.real == pytest.approx(SQRT2PI_COS, abs=1e-12)
        assert a01.real == pytest.approx(-0.2663, abs=1e-4)
        assert kraus_coefficient(1, 0, resonant_eff, tau0) == pytest.approx(a01)

    def test_revival_at_multiples_of_block_period(self, resonant_eff):
        eff = detuned(resonant_eff, 1.3e-3)
        omega = rabi_frequency(2, 1, eff)
        alpha = kraus_coefficient(2, 1, eff, 2 * math.pi / omega)
        assert abs(alpha) == pytest.approx(1.0, abs=1e-12)


class TestAnalyticKraus:
    def test_decoupled_limit_is_identity(self):
        eff = EffectiveParams(G_e=0.0, G_f=0.0)
        v = analytic_kraus(magnon(3), eff, 17.0).matrix
        assert np.abs(v - np.eye(9)).max() <= 1e-14

    def test_diagonal_magnitudes_bounded(self, resonant_eff):
        v = analytic_kraus(magnon(5), detuned(resonant_eff, 2e-3), 500.0).matrix
        assert np.abs(np.diag(v)).max() <= 1.0 + 1e-12

    def test_matches_numeric_on_small_grid(self, resonant_eff):
        d = 4
        tau = 0.7 * interval_for_target(1, resonant_eff)
        va = analytic_kraus(magnon(d), resonant_eff, tau).matrix
        vn = numeric_kraus(build_jc_effective(resonant_eff, jc_space(d)), tau).matrix
        assert np.abs(va - vn).max() <= 1e-10


class TestNumericKraus:
    def test_zero_time_identity(self, resonant_eff):
        v = numeric_kraus(build_jc_effective(resonant_eff, jc_space(3)), 0.0).matrix
        assert np.abs(v - np.eye(9)).max() <= 1e-13

    def test_diagonal_in_fock_basis(self):
        eff = EffectiveParams(G_e=1.7e-3, G_f=0.9e-3, Delta_e_tilde=2e-3, Delta_f_tilde=2e-3)
        v = numeric_kraus(build_jc_effective(eff, jc_space(4)), 800.0).matrix
        assert np.abs(v - np.diag(np.diag(v))).max() <= 1e-12

    def test_matches_block_diagonalization_oracle(self):
        rng = np.random.default_rng(42)
        d = 4
        for _ in range(25):
            g_e, g_f = rng.uniform(1e-4, 5e-3, 2)
            delta = rng.uniform(-5e-3, 5e-3)
            eff = EffectiveParams(G_e=g_e, G_f=g_f, Delta_e_tilde=delta, Delta_f_tilde=delta)
            tau = rng.uniform(0.1, 2.0) * interval_for_target(1, eff)
            v = numeric_kraus(build_jc_effective(eff, jc_space(d)), tau).matrix
            space = magnon(d)
            for k in range(d * d):
                n, m = space.occupations(k)
                want = block_return_amplitude(n, m, g_e, g_f, delta, tau)
                assert abs(v[k, k] - want) <= 1e-10


# the qutrit is not the first factor, or has the wrong dimension
NOT_QUTRIT_FIRST = (HilbertSpace((("n", 3), ("atom", 3))), HilbertSpace((("atom", 2), ("n", 3))),
                    HilbertSpace((("n", 3), ("m", 3))))


@pytest.mark.parametrize("space", NOT_QUTRIT_FIRST, ids=lambda space: ",".join(space.labels))
def test_joint_layout_required(space):
    with pytest.raises(DimensionError):
        numeric_kraus(Operator(space, np.zeros((space.total_dim,) * 2)), 1.0)
    with pytest.raises(DimensionError):
        apply_projection(basis_state(space, (0, 0)))


class TestApplyProjection:
    def test_ground_atom_passes_through(self, resonant_eff):
        space = jc_space(3)
        psi = basis_state(space, (0, 1, 1))
        state, prob = apply_projection(psi)
        assert prob == pytest.approx(1.0, abs=1e-14)
        assert np.allclose(state.data, basis_state(magnon(3), (1, 1)).data)

    def test_excited_atom_is_null_outcome(self):
        psi = basis_state(jc_space(3), (1, 0, 0))
        with pytest.raises(NullOutcomeError):
            apply_projection(psi)

    def test_born_rule_on_product_state(self):
        space = jc_space(2)
        theta = 0.4
        atom = np.array([math.cos(theta), math.sin(theta), 0.0], dtype=complex)
        chi = np.array([0.6, 0.0, 0.8, 0.0], dtype=complex)
        psi = QuantumState(space, "pure", np.kron(atom, chi))
        _, prob = apply_projection(psi)
        assert prob == pytest.approx(math.cos(theta) ** 2, abs=1e-12)


class TestIntervalForTarget:
    def test_single_excitation_reference(self, resonant_eff):
        tau0 = interval_for_target(1, resonant_eff)
        assert tau0 == pytest.approx(2 * math.pi / (math.sqrt(2) * 1e-3), rel=1e-12)

    def test_held_coefficient_magnitude(self):
        eff = EffectiveParams(G_e=1e-3, G_f=1.2e-3, Delta_e_tilde=0.8e-3, Delta_f_tilde=0.8e-3)
        for n in (1, 2, 3):
            tau = interval_for_target(n, eff)
            alpha = kraus_coefficient(n, n, eff, tau)
            assert abs(abs(alpha) - 1.0) <= 1e-12

    def test_inverse_sqrt_scaling_at_resonance(self, resonant_eff):
        tau1 = interval_for_target(1, resonant_eff)
        tau4 = interval_for_target(4, resonant_eff)
        assert tau4 == pytest.approx(tau1 / 2.0, rel=1e-12)

    @pytest.mark.parametrize("g", [1e-320, 1e300])
    def test_coupling_square_out_of_float_range_rejected(self, g):
        # Omega_11 underflows to 0 or overflows to inf: there is no interval
        with pytest.raises(ValueError, match="no measurement interval"):
            interval_for_target(1, EffectiveParams(G_e=g, G_f=g))


class TestProtocolConfig:
    def test_unknown_interval_mode_rejected(self, resonant_eff):
        with pytest.raises(ValueError):
            ProtocolConfig.for_target(resonant_eff, rounds=2, interval_mode="quarter")

    @pytest.mark.parametrize("field, value, message", [
        ("tau", math.nan, "tau"), ("rounds", math.nan, "rounds"), ("target_N", math.nan, "target_N"),
        ("decoherence", (math.nan, 0.0), "decay"), ("decoherence", (0.0, math.nan), "decay"),
        # infinite and fractional values are rejected here too, not deep in a run
        ("tau", math.inf, "tau"),
        ("decoherence", (math.inf, 1e-4), "decay"), ("decoherence", (1e-4, math.inf), "decay"),
        ("rounds", 2.5, "rounds"), ("rounds", 2.0, "rounds"), ("target_N", 1.5, "target_N"),
    ])
    def test_nan_field_rejected(self, resonant_eff, field, value, message):
        with pytest.raises(ValueError, match=message):
            ProtocolConfig(resonant_eff, **{"tau": 1.0, "rounds": 1, field: value})

    def test_numpy_integers_accepted(self, resonant_eff):
        cfg = ProtocolConfig(resonant_eff, tau=1.0, rounds=np.int64(3), target_N=np.int32(1))
        assert cfg.rounds == 3 and cfg.target_N == 1


class TestRunProtocol:
    def test_superposed_input_distills_even_bell(self, resonant_eff):
        cfg = ProtocolConfig.for_target(resonant_eff, rounds=8)
        plus = superposed_state(3, 1)
        psi = product_state(magnon(3), {"n": plus, "m": plus})
        rec = run_protocol(psi, cfg)
        assert 1.0 - rec.fidelity_plus[-1] <= 1e-9
        assert rec.success_probability[-1] == pytest.approx(0.5, abs=0.02)
        assert np.all(np.diff(rec.success_probability) <= 1e-15)

    def test_nan_coupling_is_null_outcome_in_round_one(self, resonant_eff):
        tau = ProtocolConfig.for_target(resonant_eff, rounds=1).tau
        cfg = ProtocolConfig(EffectiveParams(G_e=math.nan, G_f=1e-3), tau=tau, rounds=2)
        plus = superposed_state(3, 1)
        with pytest.raises(NullOutcomeError, match="round 1"):
            run_protocol(product_state(magnon(3), {"n": plus, "m": plus}), cfg)

    def test_half_interval_odd_rounds_give_odd_bell(self, resonant_eff):
        cfg = ProtocolConfig.for_target(resonant_eff, rounds=16, interval_mode="half")
        plus = superposed_state(3, 1)
        psi = product_state(magnon(3), {"n": plus, "m": plus})
        rec = run_protocol(psi, cfg)
        # closed form: F_minus(odd M) = 1 / (1 + cos(pi/sqrt2)^(2M))
        damp = math.cos(math.pi / math.sqrt(2.0))
        for k in (7, 13, 15):
            assert rec.fidelity_minus[k] == pytest.approx(1.0 / (1.0 + damp ** (2 * k)), abs=1e-12)
        reached = [k for k in range(1, 17, 2) if rec.fidelity_minus[k] >= 1.0 - 1e-6]
        assert reached and min(reached) == 15

    def test_fock_dark_state(self, resonant_eff):
        cfg = ProtocolConfig.for_target(resonant_eff, rounds=5)
        rec = run_protocol(basis_state(magnon(3), (0, 0)), cfg)
        assert np.allclose(rec.fidelity_plus, 0.5, atol=1e-12)
        assert np.allclose(rec.success_probability, 1.0, atol=1e-12)

    def test_zero_target_overlap_rejected(self, resonant_eff):
        cfg = ProtocolConfig.for_target(resonant_eff, rounds=2)
        with pytest.raises(TargetOverlapError):
            run_protocol(basis_state(magnon(3), (0, 1)), cfg)

    def test_unnormalized_populations_follow_coefficient_powers(self):
        # protocol output against the independent per-block power oracle, resonant and detuned
        rng = np.random.default_rng(9)
        vec = rng.normal(size=16) + 1j * rng.normal(size=16)
        vec /= np.linalg.norm(vec)
        psi = QuantumState(magnon(4), "pure", vec)
        for delta in (0.0, 0.8e-3):
            cfg = ProtocolConfig.for_target(detuned(EffectiveParams(G_e=1e-3, G_f=1.2e-3), delta),
                                            rounds=12)
            rec = run_protocol(psi, cfg)
            want = coefficient_power_amplitudes(vec, 1e-3, 1.2e-3, delta, cfg.tau, 12, (4, 4))
            got = rec.final_state.data * math.sqrt(rec.success_probability[-1])
            # global phase of the normalized state is fixed by the (0,0) component
            phase = want[0] / got[0]
            assert np.abs(got * phase - want).max() <= 1e-10

    def test_density_input_matches_pure_run(self):
        # the closed mixed-state round V rho V^+ against the pure round V psi
        eff = EffectiveParams(G_e=1e-3, G_f=1.2e-3)
        cfg = ProtocolConfig.for_target(eff, rounds=12)
        rng = np.random.default_rng(5)
        vec = rng.normal(size=16) + 1j * rng.normal(size=16)
        vec /= np.linalg.norm(vec)
        pure = run_protocol(QuantumState(magnon(4), "pure", vec), cfg)
        mixed = run_protocol(QuantumState(magnon(4), "mixed", np.outer(vec, vec.conj())), cfg)
        for field in ("fidelity_plus", "fidelity_minus", "success_probability", "even_population"):
            assert np.abs(getattr(mixed, field) - getattr(pure, field)).max() <= 1e-12

    def test_rank_two_mixture_follows_coefficient_powers(self):
        # unnormalized output sum_i w_i V^k psi_i psi_i^+ V^k^+ from the block-power oracle,
        # resonant and detuned
        rounds = 9
        rng = np.random.default_rng(23)
        weights = (0.7, 0.3)
        vecs = []
        for _ in weights:
            vec = rng.normal(size=16) + 1j * rng.normal(size=16)
            vecs.append(vec / np.linalg.norm(vec))
        rho0 = sum(w * np.outer(v, v.conj()) for w, v in zip(weights, vecs))
        for delta in (0.0, 0.8e-3):
            cfg = ProtocolConfig.for_target(detuned(EffectiveParams(G_e=1e-3, G_f=1.2e-3), delta),
                                            rounds=rounds)
            rec = run_protocol(QuantumState(magnon(4), "mixed", rho0), cfg)
            want = np.zeros((16, 16), dtype=complex)
            for w, v in zip(weights, vecs):
                amps = coefficient_power_amplitudes(v, 1e-3, 1.2e-3, delta, cfg.tau, rounds, (4, 4))
                want += w * np.outer(amps, amps.conj())
            assert rec.success_probability[-1] == pytest.approx(np.trace(want).real, abs=1e-12)
            got = rec.final_state.data * rec.success_probability[-1]
            assert np.abs(got - want).max() <= 1e-12

    def test_closed_run_builds_no_joint_hamiltonian(self, monkeypatch):
        # a closed round is the analytic diagonal: no 3d^2-dim build, no eigh
        def forbidden(*args, **kwargs):
            raise AssertionError("closed run reached the joint Hamiltonian")

        monkeypatch.setattr(measurement, "build_jc_effective", forbidden)
        monkeypatch.setattr(measurement, "numeric_kraus", forbidden)
        eff = detuned(EffectiveParams(G_e=1e-3, G_f=1.2e-3), 0.8e-3)
        cfg = ProtocolConfig.for_target(eff, rounds=3)
        plus = superposed_state(4, 1)
        psi = product_state(magnon(4), {"n": plus, "m": plus})
        for state in (psi, QuantumState(psi.space, "mixed", psi.density())):
            assert run_protocol(state, cfg).success_probability[-1] > 0.0

    def test_unequal_tilde_detunings_rejected(self):
        # a closed round needs one common detuning; a directly built config can split them
        eff = EffectiveParams(G_e=1e-3, G_f=1e-3, Delta_e_tilde=1e-4, Delta_f_tilde=2e-4)
        cfg = ProtocolConfig(eff=eff, tau=1000.0, rounds=2)
        plus = superposed_state(3, 1)
        with pytest.raises(ValueError, match="no common detuning"):
            run_protocol(product_state(magnon(3), {"n": plus, "m": plus}), cfg)

    def test_target_pair_population_conserved_unnormalized(self, resonant_eff):
        cfg = ProtocolConfig.for_target(resonant_eff, rounds=10)
        plus = superposed_state(3, 1)
        psi = product_state(magnon(3), {"n": plus, "m": plus})
        rec = run_protocol(psi, cfg)
        kept = rec.even_population * rec.success_probability
        assert np.abs(kept - kept[0]).max() <= 1e-10 * kept[0]

    def test_converged_state_supported_on_even_parity(self, resonant_eff):
        cfg = ProtocolConfig.for_target(resonant_eff, rounds=12)
        plus = superposed_state(3, 1)
        psi = product_state(magnon(3), {"n": plus, "m": plus})
        rec = run_protocol(psi, cfg)
        assert rec.converged_round is not None
        q = parity_operator(magnon(3), ("n", "m")).matrix
        expectation = float(np.real(np.vdot(rec.final_state.data, q @ rec.final_state.data)))
        assert expectation >= 1.0 - 1e-9

    def test_success_probability_lower_bound(self):
        eff = EffectiveParams(G_e=1.4e-3, G_f=0.9e-3)
        cfg = ProtocolConfig.for_target(eff, rounds=6)
        rng = np.random.default_rng(17)
        space = magnon(4)
        for _ in range(10):
            vec = rng.normal(size=16) + 1j * rng.normal(size=16)
            vec /= np.linalg.norm(vec)
            psi = QuantumState(space, "pure", vec)
            initial_pair = abs(vec[space.index((0, 0))]) ** 2 + abs(vec[space.index((1, 1))]) ** 2
            rec = run_protocol(psi, cfg)
            assert rec.success_probability[-1] >= initial_pair - 1e-10

    def test_slow_state_diagnostics_flag_degenerate_pairs(self):
        # equal couplings leave (0, 2) and (2, 0) exactly dark (same block
        # frequency as the held target pair); the record must surface them
        eff = EffectiveParams(G_e=1e-3, G_f=1e-3)
        cfg = ProtocolConfig.for_target(eff, rounds=2)
        plus = superposed_state(4, 1)
        rec = run_protocol(product_state(magnon(4), {"n": plus, "m": plus}), cfg)
        assert (0, 2) in rec.slow_states and (2, 0) in rec.slow_states
        # detuned couplings lift that degeneracy but keep the diagonal family
        eff_split = EffectiveParams(G_e=1e-3, G_f=1.2e-3)
        cfg_split = ProtocolConfig.for_target(eff_split, rounds=2)
        plus10 = superposed_state(10, 1)
        rec_split = run_protocol(product_state(magnon(10), {"n": plus10, "m": plus10}),
                                 cfg_split)
        assert (0, 2) not in rec_split.slow_states
        assert (4, 4) in rec_split.slow_states

    @pytest.mark.parametrize("g_e, g_f, delta", [(6e-3, 6e-3, 0.0), (6e-3, 9e-3, 0.0),
                                                 (6e-3, 6e-3, 2e-3)])
    def test_zero_loss_channel_matches_closed_kraus_path(self, g_e, g_f, delta):
        # the lossy branch at zero rates against the analytic diagonal: two independent paths
        eff = detuned(EffectiveParams(G_e=g_e, G_f=g_f), delta)
        closed_cfg = ProtocolConfig.for_target(eff, rounds=6)
        lossy_cfg = dataclasses.replace(closed_cfg, decoherence=(0.0, 0.0))
        rng = np.random.default_rng(31)
        for _ in range(3):
            mat = rng.normal(size=(9, 9)) + 1j * rng.normal(size=(9, 9))
            rho0 = mat @ mat.conj().T
            state = QuantumState(magnon(3), "mixed", rho0 / np.trace(rho0))
            closed = run_protocol(state, closed_cfg)
            lossy = run_protocol(state, lossy_cfg)
            for field in RECORD_FIELDS:
                assert np.abs(getattr(lossy, field) - getattr(closed, field)).max() <= 1e-13
            assert np.abs(lossy.final_state.data - closed.final_state.data).max() <= 1e-13

    @pytest.mark.parametrize("decoherence", [None, (1e-4, 0.5e-4)])
    def test_mode_swap_with_couplings_swapped_gives_same_records(self, decoherence):
        # n <-> m together with G_e <-> G_f (and gamma_n <-> gamma_m) is a symmetry
        def records(g_e, g_f, rates, rho):
            cfg = ProtocolConfig.for_target(EffectiveParams(G_e=g_e, G_f=g_f), rounds=5,
                                            decoherence=rates)
            return run_protocol(QuantumState(magnon(3), "mixed", rho), cfg)

        rng = np.random.default_rng(41)
        mat = rng.normal(size=(9, 9)) + 1j * rng.normal(size=(9, 9))
        rho = mat @ mat.conj().T
        rho /= np.trace(rho)
        swap = np.arange(9).reshape(3, 3).T.ravel()  # index of (m, n) for each (n, m)
        swapped_rates = None if decoherence is None else decoherence[::-1]
        rec = records(6e-3, 9e-3, decoherence, rho)
        mirror = records(9e-3, 6e-3, swapped_rates, rho[np.ix_(swap, swap)])
        for field in RECORD_FIELDS:
            assert np.abs(getattr(rec, field) - getattr(mirror, field)).max() <= 1e-13
        final = mirror.final_state.data[np.ix_(swap, swap)]
        assert np.abs(rec.final_state.data - final).max() <= 1e-13

    def test_decohere_prepare_final_fidelity_pinned(self):
        # the decohere-prepare config; acceptance c04 reads the window [0.91, 0.94],
        # which cannot see a shift of 1e-5 in the lossy round
        eff = EffectiveParams(G_e=6e-3, G_f=6e-3)
        cfg = ProtocolConfig.for_target(eff, rounds=8, decoherence=(1e-4, 1e-4))
        plus = superposed_state(3, 1)
        rec = run_protocol(product_state(magnon(3), {"n": plus, "m": plus}), cfg)
        assert abs(rec.fidelity_plus[-1] - 0.9104365885) <= 1e-9


def decohere_prepare_run(cutoff=3):
    """The decohere-prepare config and its |+>|+> input at a cutoff."""
    eff = EffectiveParams(G_e=6e-3, G_f=6e-3)
    cfg = ProtocolConfig.for_target(eff, rounds=8, decoherence=(1e-4, 1e-4))
    plus = superposed_state(cutoff, 1)
    return product_state(magnon(cutoff), {"n": plus, "m": plus}), cfg


class TestLossyRoundChecks:
    """A lossy round skips only the wrapper of its embedded input; every other check still runs."""

    def test_channel_on_another_space_rejected_before_the_first_round(self):
        psi, cfg = decohere_prepare_run(3)
        big, _ = decohere_prepare_run(4)
        channel = lindblad_channel(measurement._joint_spec(big.space, cfg), cfg.tau,
                                   _with_ground(big.density()))
        with pytest.raises(SpaceMismatchError, match="joint space"):
            run_protocol(psi, cfg, channel)

    def test_channel_with_closed_config_rejected(self):
        psi, cfg = decohere_prepare_run()
        channel = lindblad_channel(measurement._joint_spec(psi.space, cfg), cfg.tau,
                                   _with_ground(psi.density()))
        with pytest.raises(ValueError, match="without decoherence"):
            run_protocol(psi, dataclasses.replace(cfg, decoherence=None), channel)

    def test_trace_guard_fires_in_protocol_and_stabilize(self, monkeypatch):
        psi, cfg = decohere_prepare_run()
        monkeypatch.setattr(dynamics, "DEFAULT_TRACE_TOL", 1e-30)
        with pytest.raises(TraceDriftError):
            run_protocol(psi, cfg)
        with pytest.raises(TraceDriftError):
            stabilize(bell_state(magnon(3), 1, +1), cfg)

    def test_joint_output_validated(self, monkeypatch):
        # no density matrix has every eigenvalue >= 1, so the first validation after
        # the input raises: the joint output of round 1's channel
        psi, cfg = decohere_prepare_run()
        rho = psi.density()
        channel = lindblad_channel(measurement._joint_spec(psi.space, cfg), cfg.tau, _with_ground(rho))
        monkeypatch.setattr(hilbert, "MIXED_EIG_FLOOR", 1.0)
        with pytest.raises(StateValidationError, match="negative eigenvalues"):
            channel._apply(_with_ground(rho))
        with pytest.raises(StateValidationError, match="negative eigenvalues"):
            run_protocol(psi, cfg, channel)


class TestStabilize:
    def test_no_decoherence_config_rejected(self, resonant_eff):
        cfg = ProtocolConfig.for_target(resonant_eff, rounds=2)
        with pytest.raises(ValueError):
            stabilize(bell_state(magnon(3), 1, +1), cfg)

    def test_lossless_limit_holds_unit_fidelity(self):
        # zero loss rates: the exact lossy map must hold the Bell pair like the closed one
        eff = EffectiveParams(G_e=6e-3, G_f=6e-3)
        cfg = ProtocolConfig.for_target(eff, rounds=2, decoherence=(0.0, 0.0))
        f_stab, f_free = stabilize(bell_state(magnon(3), 1, +1), cfg)
        assert np.abs(f_stab - 1.0).max() <= 1e-8
        assert np.abs(f_free - 1.0).max() <= 1e-8

    def test_records_independent_of_cutoff(self):
        # the stabilize config: loss only lowers excitations, so levels above the
        # Bell pair's stay empty and the cutoff cannot move either record
        eff = EffectiveParams(G_e=6e-3, G_f=6e-3)
        cfg = ProtocolConfig.for_target(eff, rounds=8, decoherence=(1e-4, 1e-4))
        f_stab3, f_free3 = stabilize(bell_state(magnon(3), 1, +1), cfg)
        for d in (4, 6):
            f_stab, f_free = stabilize(bell_state(magnon(d), 1, +1), cfg)
            assert np.abs(f_stab - f_stab3).max() <= 1e-13
            assert np.abs(f_free - f_free3).max() <= 1e-13


class TestCouplingRatioFidelity:
    def test_balanced_value(self):
        want = 2.0 / (2.0 + 2.0 * SQRT2PI_COS**2)
        assert coupling_ratio_fidelity(1.0) == pytest.approx(want, abs=1e-15)
        assert coupling_ratio_fidelity(1.0) == pytest.approx(0.9338, abs=1e-4)

    def test_balanced_is_grid_argmax(self):
        xis = np.linspace(0.8, 1.2, 81)
        values = [coupling_ratio_fidelity(float(x)) for x in xis]
        assert xis[int(np.argmax(values))] == pytest.approx(1.0, abs=1e-12)

    def test_approximation_close_near_balance(self):
        for xi in np.linspace(0.95, 1.05, 21):
            exact = coupling_ratio_fidelity(float(xi))
            approx = coupling_ratio_fidelity(float(xi), approximate=True)
            assert abs(exact - approx) <= 5e-3

    def test_invalid_ratio(self):
        with pytest.raises(ValueError):
            coupling_ratio_fidelity(0.0)

    @pytest.mark.parametrize("approximate", [False, True])
    @pytest.mark.parametrize("xi", [math.nan, math.inf, -math.inf, 0.0, -1.0])
    def test_non_positive_or_non_finite_ratio_rejected(self, xi, approximate):
        with pytest.raises(ValueError, match="positive and finite"):
            coupling_ratio_fidelity(xi, approximate=approximate)

    @given(xi=st.floats(0.3, 3.0))
    def test_mirror_ratio_gives_same_fidelity(self, xi):
        # swapping which mode couples through G_e maps xi to 1 / xi
        assert abs(coupling_ratio_fidelity(xi) - coupling_ratio_fidelity(1.0 / xi)) <= 1e-15


class TestQubitParityReference:
    def test_plus_plus_projects_to_bell(self):
        space = HilbertSpace((("q1", 2), ("q2", 2)))
        plus = superposed_state(2, 1)
        state, prob = qubit_parity_reference(product_state(space, {"q1": plus, "q2": plus}))
        assert prob == pytest.approx(0.5, abs=1e-12)
        assert np.allclose(state.data, bell_state(space, 1, +1).data)

    def test_bell_state_unchanged(self):
        space = HilbertSpace((("q1", 2), ("q2", 2)))
        phi = bell_state(space, 1, +1)
        state, prob = qubit_parity_reference(phi)
        assert prob == pytest.approx(1.0, abs=1e-12)
        assert np.allclose(state.data, phi.data)

    def test_odd_state_is_null_outcome(self):
        space = HilbertSpace((("q1", 2), ("q2", 2)))
        with pytest.raises(NullOutcomeError):
            qubit_parity_reference(basis_state(space, (0, 1)))

    def test_nan_amplitudes_are_null_outcome(self):
        space = HilbertSpace((("q1", 2), ("q2", 2)))
        state = bell_state(space, 1, +1)
        object.__setattr__(state, "data", np.full(4, math.nan, dtype=complex))  # skip validation
        with pytest.raises(NullOutcomeError):
            qubit_parity_reference(state)
