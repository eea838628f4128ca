import dataclasses
import math
import sys

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
    StateValidationError,
    basis_state,
    bell_state,
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
    rabi_frequency,
    run_protocol,
    stabilize,
)
from magbell.model import EffectiveParams, _with_ground, build_jc_effective

from conftest import (block_return_amplitude, coefficient_power_amplitudes, dense_liouvillian, expm_scaling_squaring,
                      looped_protocol_records)

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

    @settings(max_examples=300, deadline=None)
    @given(g_e=st.floats(1e-320, 1e300, allow_subnormal=True), g_f=st.floats(1e-320, 1e300, allow_subnormal=True),
           n=st.integers(0, 12), m=st.integers(0, 12), delta=st.sampled_from([0.0, 1e-3, -1e-3]),
           tau=st.floats(0.0, 1e6), xi=st.floats(1e-320, 1e300, allow_subnormal=True))
    def test_closed_forms_are_finite_or_value_errors(self, g_e, g_f, n, m, delta, tau, xi):
        # every closed-form entry point returns finite values or raises ValueError; a
        # RuntimeWarning on the way fails the test (tier-1 runs with warnings as errors)
        eff = EffectiveParams(G_e=g_e, G_f=g_f, Delta_e_tilde=delta, Delta_f_tilde=delta)
        calls = [lambda: rabi_frequency(n, m, eff), lambda: interval_for_target(max(n, 1), eff),
                 lambda: analytic_kraus(magnon(max(n, m, 1) + 1), eff, tau).matrix,
                 lambda: coupling_ratio_fidelity(xi), lambda: coupling_ratio_fidelity(xi, approximate=True)]
        for call in calls:
            try:
                value = call()
            except ValueError:
                continue
            assert np.all(np.isfinite(value))

    def test_empty_mode_ignores_its_coupling(self):
        # Omega_01 = sqrt(G_f^2 + D^2 / 4) whatever G_e is, even past the float range of G_e^2
        eff = EffectiveParams(G_e=1e300, G_f=1.0)
        assert rabi_frequency(0, 1, eff) == 1.0
        with pytest.raises(ValueError, match="Omega_10 overflows at G_e = 1e\\+300, G_f = 1, Delta = 0"):
            rabi_frequency(np.array([0, 1]), np.array([1, 0]), eff)


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

    @settings(max_examples=100, deadline=None)
    @given(d=st.integers(2, 6), data=st.data(), xi=st.floats(0.5, 2.5), delta=st.floats(-5e-3, 5e-3),
           tau=st.floats(0.0, 1e5))
    def test_return_amplitudes_are_a_contraction_holding_the_target(self, d, data, xi, delta, tau):
        # |v_nm| <= 1 on every block, and |v_NN| = 1 at the held interval
        N = data.draw(st.integers(1, d - 1))
        eff = detuned(EffectiveParams(G_e=1e-3, G_f=xi * 1e-3), delta)
        n, m = np.unravel_index(np.arange(d * d), (d, d))
        assert np.abs(measurement._return_amplitudes(n, m, eff, tau)).max() <= 1.0 + 1e-15
        held = measurement._return_amplitudes(np.array(N), np.array(N), eff, interval_for_target(N, eff))
        assert abs(abs(held) - 1.0) <= 1e-15

    def test_revival_at_multiples_of_block_period(self, resonant_eff):
        eff = detuned(resonant_eff, 1.3e-3)
        omega = rabi_frequency(2, 1, eff)
        alpha = kraus_coefficient(2, 1, eff, 2 * math.pi / omega)
        assert abs(alpha) == pytest.approx(1.0, abs=1e-12)


class TestAnalyticKraus:
    def test_decoupled_limit_is_identity(self):
        # no detuning: every Omega is 0; a detuning: every Omega is |Delta| / 2, or 0 once Delta^2 underflows
        for delta in (0.0, -3e-3, 1e-200):
            eff = detuned(EffectiveParams(G_e=0.0, G_f=0.0), delta)
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

    @pytest.mark.parametrize("g, message", [
        (1e-320, "no measurement interval"), (1e300, "Omega_11 overflows at G_e = 1e\\+300"),
    ], ids=["1e-320", "1e+300"])
    def test_coupling_square_out_of_float_range_rejected(self, g, message):
        # Omega_11 underflows to 0 or overflows to inf: there is no interval
        with pytest.raises(ValueError, match=message):
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

        for name in ("_joint_spec", "lindblad_channel", "numeric_kraus"):
            monkeypatch.setattr(measurement, name, forbidden)
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
        n, m = np.unravel_index(np.arange(rec.final_state.space.total_dim), rec.final_state.space.dims)
        expectation = float((-1.0) ** (n + m) @ rec.final_state.populations())
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
        # frequency as the held target pair); the record must surface them.
        # The input populates every pair, so its box is the whole space
        def uniform(d):
            return QuantumState(magnon(d), "pure", np.full(d * d, 1.0 / d))

        eff = EffectiveParams(G_e=1e-3, G_f=1e-3)
        cfg = ProtocolConfig.for_target(eff, rounds=2)
        rec = run_protocol(uniform(4), cfg)
        assert (0, 2) in rec.slow_states and (2, 0) in rec.slow_states
        # detuned couplings lift that degeneracy but keep the diagonal family
        eff_split = EffectiveParams(G_e=1e-3, G_f=1.2e-3)
        cfg_split = ProtocolConfig.for_target(eff_split, rounds=2)
        rec_split = run_protocol(uniform(10), cfg_split)
        assert (0, 2) not in rec_split.slow_states
        assert (4, 4) in rec_split.slow_states

    @pytest.mark.parametrize("cutoff", [3, 5, 6, 9])
    def test_lossy_slow_states_lie_in_the_box(self, cutoff):
        # decohere-prepare's and bell-distill's equal couplings leave (0, 2) and (2, 0) dark, but
        # neither the lossy nor the closed |+>|+> run leaves n, m <= 1, so neither has a slow pair
        psi, cfg = decohere_prepare_run(cutoff)
        closed = ProtocolConfig.for_target(EffectiveParams(G_e=1e-3, G_f=1e-3), rounds=8)
        for run_cfg in (cfg, closed):
            assert run_protocol(psi, run_cfg).slow_states == ()

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

    @pytest.mark.parametrize("target_N", [1, 2])
    def test_lossy_run_works_on_its_input_box(self, target_N):
        # a mixed input on n <= 1, m <= 2 has the box n < max(1, N) + 1, m < max(2, N) + 1 at
        # cutoffs 3 and 5 alike: the same records, and the same final state on that box
        rng = np.random.default_rng(53)
        mat = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
        rho = mat @ mat.conj().T
        cfg = ProtocolConfig.for_target(EffectiveParams(G_e=6e-3, G_f=9e-3), rounds=6, target_N=target_N,
                                        decoherence=(1e-4, 0.5e-4))
        runs = []
        for d in (3, 5):
            support = np.ravel_multi_index(np.indices((2, 3)).reshape(2, -1), (d, d))
            initial = np.zeros((d * d, d * d), dtype=complex)
            initial[np.ix_(support, support)] = rho / np.trace(rho)
            rec = run_protocol(QuantumState(magnon(d), "mixed", initial), cfg)
            assert rec.final_state.space.dims == (max(1, target_N) + 1, max(2, target_N) + 1)
            runs.append((rec, rec.final_state.data))
        (rec3, final3), (rec5, final5) = runs
        for field in RECORD_FIELDS:
            assert np.array_equal(getattr(rec3, field), getattr(rec5, field)), field
        assert rec3.converged_round == rec5.converged_round
        assert np.array_equal(final3, final5)

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


def random_state(kind, d, seed):
    """A random pure state or a random full-rank density matrix on magnon(d)."""
    rng = np.random.default_rng(seed)
    if kind == "pure":
        vec = rng.normal(size=d * d) + 1j * rng.normal(size=d * d)
        return QuantumState(magnon(d), "pure", vec / np.linalg.norm(vec))
    mat = rng.normal(size=(d * d, d * d)) + 1j * rng.normal(size=(d * d, d * d))
    rho = mat @ mat.conj().T
    rho = 0.5 * (rho + rho.conj().T)
    return QuantumState(magnon(d), "mixed", rho / np.trace(rho).real)


def assert_matches_looped_oracle(initial, cfg):
    rec, want = run_protocol(initial, cfg), looped_protocol_records(initial, cfg)
    for field in RECORD_FIELDS:
        assert np.abs(getattr(rec, field) - want[field]).max() <= 1e-13, field
    assert rec.final_state.kind == want["final_state"].kind
    # the record's final state lives on the input's box; embed it in the oracle's space
    box = np.ravel_multi_index(np.indices(rec.final_state.space.dims).reshape(2, -1), initial.space.dims)
    final = np.zeros_like(want["final_state"].data)
    final[box if rec.final_state.kind == "pure" else np.ix_(box, box)] = rec.final_state.data
    assert np.abs(final - want["final_state"].data).max() <= 1e-13
    assert rec.slow_states == want["slow_states"]
    assert rec.converged_round == want["converged_round"]


class TestLoopedProtocolOracle:
    """run_protocol's records, read off the even-pair entries of checked arrays, against
    the looped oracle that builds a QuantumState and calls fidelity every round."""

    @settings(max_examples=40, deadline=None)
    @given(kind=st.sampled_from(["pure", "mixed"]), d=st.integers(2, 6), data=st.data(),
           xi=st.floats(0.5, 2.5), delta=st.sampled_from([0.0, 0.4e-3]),
           mode=st.sampled_from(["full", "half"]), rounds=st.integers(1, 300),
           seed=st.integers(0, 2**32 - 1))
    def test_closed_runs_match(self, kind, d, data, xi, delta, mode, rounds, seed):
        N = data.draw(st.integers(1, d - 1))
        eff = detuned(EffectiveParams(G_e=1e-3, G_f=xi * 1e-3), delta)
        cfg = ProtocolConfig.for_target(eff, rounds=rounds, target_N=N, interval_mode=mode)
        assert_matches_looped_oracle(random_state(kind, d, seed), cfg)

    @pytest.mark.parametrize("input_name", ["plus", "bell"])
    def test_lossy_cutoff_three_runs_match(self, input_name):
        psi, cfg = decohere_prepare_run()
        if input_name == "bell":
            psi = bell_state(magnon(3), 1, +1)
        assert_matches_looped_oracle(psi, dataclasses.replace(cfg, rounds=20))

    @pytest.mark.parametrize("mode", ["full", "half"])
    def test_null_outcome_raised_at_the_oracle_round(self, monkeypatch, mode):
        # a closed run's round probabilities never fall, so it can only fail round 1; the
        # lossy Bell run's fall for a few rounds.  A floor between each two neighbouring
        # round probabilities of the oracle's
        initial = bell_state(magnon(3), 1, +1)
        cfg = ProtocolConfig.for_target(EffectiveParams(G_e=6e-3, G_f=6e-3), rounds=12, interval_mode=mode,
                                        decoherence=(1e-4, 1e-4))
        p = looped_protocol_records(initial, cfg)["success_probability"]
        probs = np.unique(p[1:] / p[:-1])
        raised = set()
        for floor in 0.5 * (probs[1:] + probs[:-1]):
            monkeypatch.setattr(measurement, "NULL_OUTCOME_FLOOR", float(floor))
            with pytest.raises(NullOutcomeError) as want:
                looped_protocol_records(initial, cfg)
            with pytest.raises(NullOutcomeError) as got:
                run_protocol(initial, cfg)
            assert str(got.value) == str(want.value)
            raised.add(str(got.value).split(":")[0])
        assert len(raised) > 1


class TestLossyRoundChecks:
    """Where a lossy run's checks run.

    The channel's trace check runs once per build.  Each projected round
    (M on the magnon state) and each free-leg step of ``stabilize`` (the
    whole channel on the joint state) is one ``BlockMap._apply``, which
    checks its input's support and scrubs its Hermitian part; a projected
    round also holds the outcome probability to a floor.  The one round
    loop validates the array of every round of every leg, its trace
    included.
    """

    def test_trace_guard_fires_in_protocol_and_stabilize(self, monkeypatch):
        psi, cfg = decohere_prepare_run()
        monkeypatch.setattr(dynamics, "DEFAULT_TRACE_TOL", 1e-30)
        with pytest.raises(TraceDriftError):
            run_protocol(psi, cfg)
        with pytest.raises(TraceDriftError):
            stabilize(bell_state(magnon(3), 1, +1), cfg)

    def test_joint_output_validated(self, monkeypatch):
        # every free-leg step of stabilize is one _apply, whose joint output the round loop
        # validates: shifting population onto an empty level, trace and Hermiticity kept,
        # leaves a negative eigenvalue
        real = dynamics.LindbladChannel._apply

        def skewed(channel, rho):
            out = real(channel, rho)
            out[0, 0] += 0.1
            out[1, 1] -= 0.1
            return out

        monkeypatch.setattr(dynamics.LindbladChannel, "_apply", skewed)
        _, cfg = decohere_prepare_run()
        with pytest.raises(StateValidationError, match="negative eigenvalues"):
            stabilize(bell_state(magnon(3), 1, +1), cfg)

    @pytest.mark.parametrize("drift", [1e-9, 1e-7])
    def test_free_leg_trace_drift_fails_the_state_check(self, monkeypatch, drift):
        # M is a compression, a plain BlockMap, so scaling the whole channel's image moves
        # only the free leg's trace, by drift per step; the build check reads the blocks
        real = dynamics.LindbladChannel._map
        monkeypatch.setattr(dynamics.LindbladChannel, "_map",
                            lambda channel, rho: (1 + drift) * real(channel, rho))
        _, cfg = decohere_prepare_run()
        with pytest.raises(StateValidationError, match="trace"):
            stabilize(bell_state(magnon(3), 1, +1), cfg)

    def test_magnon_state_validated(self, monkeypatch):
        # the first state validated after the input is round 1's renormalized magnon state
        psi, cfg = decohere_prepare_run()
        monkeypatch.setattr(hilbert, "MIXED_EIG_FLOOR", 1.0)
        with pytest.raises(StateValidationError, match="negative eigenvalues"):
            run_protocol(psi, cfg)

    def test_each_round_validates_the_magnon_state_and_each_free_step_the_joint_state(self, monkeypatch):
        # the check QuantumState runs, called in place by the one round loop: once per round
        # on the magnon array, once per free-leg step on the joint one, and nowhere else.  At
        # cutoff 30 every run's arrays are its input's 2 x 2 box's, 4-dim and 12-dim joint, and
        # so is its final state
        seen = []

        def spy(arr, real=measurement.check_state):
            seen.append((sys._getframe(1).f_code.co_name, arr.shape))
            return real(arr)

        monkeypatch.setattr(measurement, "check_state", spy)
        assert not hasattr(dynamics, "check_state")
        psi, cfg = decohere_prepare_run(30)
        assert run_protocol(psi, cfg).final_state.space.dims == (2, 2)
        assert seen == [("_round_loop", (4, 4))] * cfg.rounds
        seen.clear()
        stabilize(bell_state(magnon(30), 1, +1), cfg)
        assert seen == [("_round_loop", (4, 4))] * cfg.rounds + [("_round_loop", (12, 12))] * cfg.rounds
        seen.clear()
        closed = ProtocolConfig.for_target(cfg.eff, rounds=cfg.rounds)
        for state, shape in ((psi, (4,)), (QuantumState(psi.space, "mixed", psi.density()), (4, 4))):
            assert run_protocol(state, closed).final_state.space.dims == (2, 2)
            assert seen == [("_round_loop", shape)] * cfg.rounds
            seen.clear()

    def test_stabilize_builds_one_spec_and_one_channel(self, monkeypatch):
        # the projected and free legs share the joint spec and the channel built from the Bell input
        calls = []
        for name in ("_joint_spec", "lindblad_channel"):
            def counted(*args, real=getattr(measurement, name), name=name):
                calls.append(name)
                return real(*args)

            monkeypatch.setattr(measurement, name, counted)
        _, cfg = decohere_prepare_run()
        stabilize(bell_state(magnon(3), 1, +1), cfg)
        assert calls == ["_joint_spec", "lindblad_channel"]

    def test_round_outside_the_channel_set_raises(self):
        # a channel built from the Bell state does not reach all of |+>|+>'s support,
        # so its round map M rejects that input
        psi, cfg = decohere_prepare_run()
        bell = bell_state(magnon(3), 1, +1)
        channel = lindblad_channel(measurement._joint_spec(bell.space, cfg), cfg.tau,
                                   _with_ground(bell.density()))
        with pytest.raises(ValueError, match="outside"):
            measurement._round_map(channel, psi.space)._map(psi.density())


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

    def test_free_leg_is_the_bell_overlap_of_the_magnon_marginal(self):
        # F_free(k) = <B| tr_q rho_k |B>, rho_k stepped by the dense superoperator exponential
        eff = EffectiveParams(G_e=6e-3, G_f=6e-3)
        cfg = ProtocolConfig.for_target(eff, rounds=8, decoherence=(1e-4, 1e-4))
        bell = bell_state(magnon(2), 1, +1)
        _, f_free = stabilize(bell, cfg)
        step = expm_scaling_squaring(cfg.tau * dense_liouvillian(measurement._joint_spec(bell.space, cfg)))
        rho = _with_ground(bell.density())
        dim = bell.space.total_dim
        for k in range(cfg.rounds + 1):
            marginal = np.einsum("lalb->ab", rho.reshape(3, dim, 3, dim))
            assert abs(f_free[k] - np.vdot(bell.data, marginal @ bell.data).real) <= 1e-12
            rho = (step @ rho.reshape(-1, order="F")).reshape(rho.shape, order="F")


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
    def test_exact_branch_matches_block_diagonalization(self, xi):
        # one round from |+>|+> at G_e = 1, G_f = xi, tau = 2 pi / Omega_11
        tau = 2.0 * math.pi / math.sqrt(1.0 + xi * xi)
        a01, a10, a11 = (block_return_amplitude(n, m, 1.0, xi, 0.0, tau) for n, m in ((0, 1), (1, 0), (1, 1)))
        want = abs(1.0 + a11) ** 2 / (2.0 * (1.0 + abs(a01) ** 2 + abs(a10) ** 2 + abs(a11) ** 2))
        assert abs(coupling_ratio_fidelity(xi) - want) <= 1e-13

    @given(xi=st.floats(0.3, 3.0))
    def test_mirror_ratio_gives_same_fidelity(self, xi):
        # swapping which mode couples through G_e maps xi to 1 / xi
        assert abs(coupling_ratio_fidelity(xi) - coupling_ratio_fidelity(1.0 / xi)) <= 1e-15

    @pytest.mark.parametrize("approximate", [False, True])
    def test_array_of_ratios_matches_one_call_per_ratio(self, approximate):
        # one evaluation over the array, as the CLI sweep runs it; the transcendental
        # functions may round differently on arrays and scalars, by an ulp or so of F <= 1
        xis = np.linspace(0.3, 3.0, 271)
        looped = np.array([coupling_ratio_fidelity(float(xi), approximate=approximate) for xi in xis])
        swept = coupling_ratio_fidelity(xis, approximate=approximate)
        assert np.abs(swept - looped).max() <= 4 * np.finfo(float).eps
        assert isinstance(coupling_ratio_fidelity(1.0, approximate=approximate), float)
        with pytest.raises(ValueError, match="positive and finite"):
            coupling_ratio_fidelity(np.array([1.0, math.nan]), approximate=approximate)
