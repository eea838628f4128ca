import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from magbell import measurement, model
from magbell.dynamics import propagator_matrix
from magbell.hilbert import (
    DimensionError,
    HilbertSpace,
    QuantumState,
    annihilation,
    bell_state,
    product_state,
    superposed_state,
)
from magbell.model import (
    DispersiveRegimeWarning,
    EffectiveParams,
    ModelParams,
    PulseCoefficients,
    SingleModeParams,
    ZeroDetuningError,
    build_full,
    build_jc_effective,
    build_sw_effective,
    build_time_dependent_jc,
    detuning_match,
    dispersive_evolution_fidelity,
    effective_couplings,
    lamb_shifts,
    sw_generator,
    sw_reduction_check,
)

from conftest import (
    DISPERSIVE,
    dense_evolution_fidelity,
    dense_sw_residual,
    embed,
    embedded_operator_table,
    excitation_numbers,
    level_projector,
    reference_sw_effective,
)

FULL_SPACE = HilbertSpace((("atom", 3), ("a", 3), ("b", 3), ("n", 4), ("m", 4)))
JC_SPACE = HilbertSpace((("atom", 3), ("n", 3), ("m", 3)))
SINGLE_SPACE = HilbertSpace((("atom", 3), ("a", 3), ("n", 3), ("m", 3)))
UNEQUAL = ModelParams(omega_a=0.63, omega_b=0.57, omega_n=1.01, omega_m=0.97,
                      omega_e=1.13, omega_f=0.91,
                      g_n=0.021, g_m=0.017, g_e=0.013, g_f=0.029)


def matched_single_mode(lam=0.005):
    # detunings +0.1 for (n, e) and -0.1 for (m, f) relative to the cavity
    return SingleModeParams(
        omega_a=1.0, omega_n=1.1, omega_m=0.9, omega_e=1.1, omega_f=0.9,
        lambda_n=lam, lambda_m=lam, lambda_e=lam, lambda_f=lam,
    )


def bare_models(two_cavity):
    """Each bare model with its space: two cavities, then the shared cavity."""
    return ((two_cavity, FULL_SPACE), (matched_single_mode(), SINGLE_SPACE))


_FREQUENCY = st.floats(0.1, 2.0)


class TestWiring:
    """Each party's cavity is stated here independently of the models' tables."""

    @settings(max_examples=100, deadline=None)
    @given(w=st.tuples(*[_FREQUENCY] * 6))
    def test_two_cavity_detunings(self, w):
        a, b, n, m, e, f = w
        p = ModelParams(omega_a=a, omega_b=b, omega_n=n, omega_m=m, omega_e=e, omega_f=f,
                        g_n=0.01, g_m=0.01, g_e=0.01, g_f=0.01)
        assert [p.detuning(x) for x in "nmef"] == [n - a, m - b, e - a, f - b]

    @settings(max_examples=100, deadline=None)
    @given(w=st.tuples(*[_FREQUENCY] * 5))
    def test_shared_cavity_detunings(self, w):
        a, n, m, e, f = w
        p = SingleModeParams(omega_a=a, omega_n=n, omega_m=m, omega_e=e, omega_f=f,
                             lambda_n=0.01, lambda_m=0.01, lambda_e=0.01, lambda_f=0.01)
        assert [p.detuning(x) for x in "nmef"] == [n - a, m - a, e - a, f - a]

    def test_loss_rates_are_not_model_fields(self, dispersive_params):
        with pytest.raises(TypeError):
            ModelParams(**{**dispersive_params.__dict__, "gamma_n": 1e-4})
        with pytest.raises(TypeError):
            SingleModeParams(**{**matched_single_mode().__dict__, "gamma_n": 1e-4})

    def test_negative_or_nan_coupling_rejected(self, dispersive_params):
        with pytest.raises(ValueError, match="g_f"):
            ModelParams(**{**dispersive_params.__dict__, "g_f": -0.01})
        with pytest.raises(ValueError, match="lambda_m"):
            SingleModeParams(**{**matched_single_mode().__dict__, "lambda_m": math.nan})


class TestLambShifts:
    def test_zero_couplings_zero_shifts(self, dispersive_params):
        p = ModelParams(**{**dispersive_params.__dict__, "g_n": 0, "g_m": 0, "g_e": 0, "g_f": 0})
        assert lamb_shifts(p) == (0.0, 0.0, 0.0, 0.0)

    def test_direct_value(self):
        p = ModelParams(omega_a=0.9, omega_b=0.9, omega_n=1.0, omega_m=1.0,
                        omega_e=1.0, omega_f=1.0, g_n=0.01, g_m=0.01, g_e=0.01, g_f=0.01)
        chi_n, _, _, _ = lamb_shifts(p)
        assert chi_n == pytest.approx(1e-3, rel=1e-12)

    def test_negative_detuning_negative_shift(self):
        p = ModelParams(omega_a=1.1, omega_b=1.1, omega_n=1.0, omega_m=1.0,
                        omega_e=1.0, omega_f=1.0, g_n=0.01, g_m=0.01, g_e=0.01, g_f=0.01)
        chi_n, _, _, _ = lamb_shifts(p)
        assert chi_n < 0

    def test_zero_detuning_raises(self):
        p = ModelParams(omega_a=1.0, omega_b=0.9, omega_n=1.0, omega_m=1.0,
                        omega_e=1.0, omega_f=1.0, g_n=0.01, g_m=0.01, g_e=0.01, g_f=0.01)
        with pytest.raises(ZeroDetuningError):
            lamb_shifts(p)

    def test_uncoupled_pair_at_zero_detuning(self, dispersive_params):
        # g_m = 0 with omega_m = omega_b: the m pair couples nothing, so it shifts nothing
        p = ModelParams(**{**dispersive_params.__dict__,
                           "g_m": 0.0, "omega_m": dispersive_params.omega_b})
        eff = effective_couplings(p)
        assert eff.G_f == 0.0 and lamb_shifts(p)[1] == 0.0
        assert math.isfinite(sw_reduction_check(p))
        with pytest.raises(ZeroDetuningError):
            effective_couplings(ModelParams(**{**p.__dict__, "g_m": 0.01}))


class TestEffectiveCouplings:
    def test_symmetric_reduction(self):
        p = ModelParams(omega_a=0.9, omega_b=0.9, omega_n=1.0, omega_m=1.0,
                        omega_e=1.0, omega_f=1.0, g_n=0.005, g_m=0.005, g_e=0.005, g_f=0.005)
        eff = effective_couplings(p)
        assert eff.G_e == pytest.approx(0.005**2 / 0.1, rel=1e-12)

    def test_reference_configuration(self, dispersive_params):
        eff = effective_couplings(dispersive_params)
        assert eff.G_e == pytest.approx(1e-3, rel=1e-12)
        assert eff.G_f == pytest.approx(1e-3, rel=1e-12)
        assert eff.Delta_e_tilde == pytest.approx(0.0, abs=1e-15)
        assert eff.Delta_f_tilde == pytest.approx(0.0, abs=1e-15)

    def test_opposite_detunings_cancel(self):
        # qutrit level above the cavity by the same amount the magnon sits below
        p = ModelParams(omega_a=1.0, omega_b=1.0, omega_n=0.9, omega_m=0.9,
                        omega_e=1.1, omega_f=1.1, g_n=0.005, g_m=0.005, g_e=0.005, g_f=0.005)
        eff = effective_couplings(p)
        assert eff.G_e == pytest.approx(0.0, abs=1e-15)

    def test_regime_violation_warns_but_computes(self):
        p = ModelParams(omega_a=0.99, omega_b=0.99, omega_n=1.0, omega_m=1.0,
                        omega_e=1.0, omega_f=1.0, g_n=0.01, g_m=0.01, g_e=0.01, g_f=0.01)
        with pytest.warns(DispersiveRegimeWarning):
            eff = effective_couplings(p)
        assert eff.G_e == pytest.approx(0.01, rel=1e-12)

    def test_same_sign_detunings_never_cancel(self):
        # shared denominator sign: G_e is nonzero and carries that sign
        rng = np.random.default_rng(11)
        for _ in range(20):
            g = rng.uniform(1e-4, 5e-3, size=4)
            sign = float(rng.choice([-1.0, 1.0]))
            delta = sign * rng.uniform(0.06, 0.5, size=4)
            p = ModelParams(omega_a=1.0 - delta[0], omega_b=1.0 - delta[1],
                            omega_n=1.0, omega_m=1.0,
                            omega_e=1.0 - delta[0] + delta[2], omega_f=1.0 - delta[1] + delta[3],
                            g_n=g[0], g_m=g[1], g_e=g[2], g_f=g[3])
            eff = effective_couplings(p)
            assert eff.G_e != 0.0
            assert np.sign(eff.G_e) == sign


class TestJCEffective:
    def test_zero_parameters_zero_matrix(self):
        eff = EffectiveParams(G_e=0.0, G_f=0.0)
        assert np.abs(build_jc_effective(eff, JC_SPACE).matrix).max() == 0.0

    def test_conserves_both_excitation_numbers(self, resonant_eff):
        h = build_jc_effective(resonant_eff, JC_SPACE).matrix
        a_n, a_m = (embed(annihilation(3), JC_SPACE, label).matrix for label in ("n", "m"))
        n_num, m_num = a_n.conj().T @ a_n, a_m.conj().T @ a_m
        p_e = embed(level_projector(3, 1), JC_SPACE, "atom").matrix
        p_f = embed(level_projector(3, 2), JC_SPACE, "atom").matrix
        for cons in (n_num + p_e, m_num + p_f):
            assert np.abs(h @ cons - cons @ h).max() < 1e-12

    def test_single_excitation_block(self, resonant_eff):
        h = build_jc_effective(resonant_eff, JC_SPACE).matrix
        kg10 = JC_SPACE.index((0, 1, 0))
        ke00 = JC_SPACE.index((1, 0, 0))
        assert h[kg10, ke00] == pytest.approx(resonant_eff.G_e, rel=1e-12)
        assert h[kg10, kg10] == 0.0
        assert h[ke00, ke00] == 0.0


class TestFullTwoCavity:
    def test_zero_couplings_diagonal(self, dispersive_params):
        p = ModelParams(**{**dispersive_params.__dict__, "g_n": 0, "g_m": 0, "g_e": 0, "g_f": 0})
        h = build_full(p, FULL_SPACE).matrix
        assert np.abs(h - np.diag(np.diag(h))).max() == 0.0

    def test_hermiticity(self, dispersive_params):
        h = build_full(dispersive_params, FULL_SPACE).matrix
        assert np.abs(h - h.conj().T).max() <= 1e-14

    def test_conserves_total_excitation(self, dispersive_params):
        for params, space in bare_models(dispersive_params):
            h = build_full(params, space).matrix
            total = np.diag(excitation_numbers(space).astype(complex))
            assert np.abs(h @ total - total @ h).max() < 1e-12


class TestSWGenerator:
    def test_anti_hermitian(self, dispersive_params):
        for params, space in bare_models(dispersive_params):
            s = sw_generator(params, space).matrix
            assert np.abs(s).max() > 0.0
            assert np.abs(s + s.conj().T).max() <= 1e-14

    def test_zero_couplings_zero_generator(self, dispersive_params):
        p = ModelParams(**{**dispersive_params.__dict__, "g_n": 0, "g_m": 0, "g_e": 0, "g_f": 0})
        for params, space in ((p, FULL_SPACE), (matched_single_mode(lam=0.0), SINGLE_SPACE)):
            assert np.abs(sw_generator(params, space).matrix).max() == 0.0

    def test_zero_detuning_raises(self, dispersive_params):
        resonant = (ModelParams(**{**dispersive_params.__dict__, "omega_m": 0.6}),
                    SingleModeParams(**{**matched_single_mode().__dict__, "omega_f": 1.0}))
        for params, (_, space) in zip(resonant, bare_models(dispersive_params)):
            with pytest.raises(ZeroDetuningError):
                sw_generator(params, space)

    def test_exponential_is_unitary(self, dispersive_params):
        u = propagator_matrix(1j * sw_generator(dispersive_params, FULL_SPACE).matrix, 1.0)  # exp(S)
        assert np.abs(u @ u.conj().T - np.eye(len(u))).max() <= 1e-12


class TestSWReduction:
    def test_zero_coupling_zero_residual(self, dispersive_params):
        p = ModelParams(**{**dispersive_params.__dict__, "g_n": 0, "g_m": 0, "g_e": 0, "g_f": 0})
        assert sw_reduction_check(p) <= 1e-14

    def test_cubic_scaling_under_coupling_halving(self, dispersive_params):
        half = ModelParams(**{**dispersive_params.__dict__,
                              "g_n": 0.01, "g_m": 0.01, "g_e": 0.01, "g_f": 0.01})
        r_full = sw_reduction_check(dispersive_params)
        r_half = sw_reduction_check(half)
        assert r_full / r_half >= 6.0
        assert 2.5 <= math.log2(r_full / r_half) <= 3.5

    def test_residual_below_effective_coupling(self, dispersive_params):
        # third-order scale: ~ 6 g^3/Delta^2 ~ 0.3 G at ratio 0.05, shrinking
        # cubically; the slope test above carries the order check
        eff = effective_couplings(dispersive_params)
        assert sw_reduction_check(dispersive_params) < min(eff.G_e, eff.G_f)


_DETUNING = st.floats(0.05, 0.5).flatmap(lambda d: st.sampled_from((d, -d)))
_RATIO = st.floats(0.0, 0.09)  # |g / Delta|, inside the dispersive limit


@st.composite
def dispersive_models(draw, cutoff=st.integers(2, 3), ratio=_RATIO):
    """A bare model of either kind at a dispersive draw, on a space whose cutoffs ``cutoff`` draws."""
    cls = draw(st.sampled_from((ModelParams, SingleModeParams)))
    fields = {f"omega_{label}": draw(st.floats(0.5, 1.5)) for label in cls.CAVITIES}
    for party, (cavity, coupling) in cls.WIRING.items():
        delta = draw(_DETUNING)
        fields[f"omega_{party}"] = fields[f"omega_{cavity}"] + delta
        fields[coupling] = draw(ratio) * abs(delta)
    params = cls(**fields)
    space = HilbertSpace((("atom", 3), *((label, draw(cutoff)) for label in cls.CAVITIES),
                          ("n", draw(cutoff)), ("m", draw(cutoff))))
    return params, space


class TestOperatorTable:
    """The row-mapped operator table against the one built with ``embed``."""

    def test_builders_match_embedded_table_bitwise(self):
        spaces = {ModelParams: HilbertSpace((("atom", 3), ("a", 2), ("b", 3), ("n", 4), ("m", 5))),
                  SingleModeParams: HilbertSpace((("atom", 3), ("a", 4), ("n", 2), ("m", 3)))}
        for params in (UNEQUAL, matched_single_mode()):
            space = spaces[type(params)]
            ops = embedded_operator_table(space, params.space_labels[1:])
            for build, matrix in ((build_full, model._full_matrix),
                                  (sw_generator, model._generator_matrix),
                                  (build_sw_effective, model._sw_effective_matrix)):
                assert np.array_equal(build(params, space).matrix, matrix(params, ops)), build.__name__
        eff = EffectiveParams(G_e=1e-3, G_f=2e-3, Delta_e_tilde=0.1, Delta_f_tilde=-0.2)
        for d in (3, 10):
            space = HilbertSpace((("atom", 3), ("n", d), ("m", d)))
            embedded = embedded_operator_table(space, ("n", "m"))
            want = model._jc_matrix(eff, embedded)
            assert np.array_equal(build_jc_effective(eff, space).matrix, want)
            # the loss operators come from the same table as the Hamiltonian
            table = model._product_ops(space, model._JC_LABELS)
            cfg = measurement.ProtocolConfig(eff, tau=1.0, rounds=1, decoherence=(1e-4, 2e-4))
            collapse = measurement._joint_spec(HilbertSpace((("n", d), ("m", d))), cfg).collapse_ops
            for (op, rate), label, gamma in zip(collapse, ("n", "m"), cfg.decoherence):
                assert np.array_equal(table[label][0], embedded[label][0])
                assert np.array_equal(op.matrix, table[label][0]) and rate == gamma
            assert len(collapse) == 2

    def test_closed_form_matches_per_model_pair_lists(self):
        """Every induced pair term, read from the wiring, against the pair lists written per model."""
        unmatched = SingleModeParams(omega_a=0.6, omega_n=1.01, omega_m=0.97, omega_e=1.13,
                                     omega_f=0.91, lambda_n=0.021, lambda_m=0.017,
                                     lambda_e=0.013, lambda_f=0.029)
        for params, space in ((UNEQUAL, HilbertSpace((("atom", 3), ("a", 2), ("b", 3),
                                                      ("n", 4), ("m", 5)))),
                              (matched_single_mode(), SINGLE_SPACE),
                              (unmatched, HilbertSpace((("atom", 3), ("a", 4), ("n", 2), ("m", 3))))):
            ops = embedded_operator_table(space, params.space_labels[1:])
            got = model._sw_effective_matrix(params, ops)
            assert np.abs(got - reference_sw_effective(params, ops)).max() <= 1e-14, type(params)


class TestExcitationCap:
    """The capped dispersive checks rest on every bare-model matrix conserving
    total excitation; they are checked against the dense whole-space oracles."""

    @settings(max_examples=60, deadline=None)
    @given(drawn=dispersive_models())
    def test_bare_matrices_conserve_excitation(self, drawn):
        params, space = drawn
        exc = excitation_numbers(space)
        across = exc[:, None] != exc[None, :]
        ops = model._product_ops(space, params.space_labels)
        for build in (model._full_matrix, model._generator_matrix, model._sw_effective_matrix):
            assert not np.any(build(params, ops)[across]), build.__name__

    # cutoffs from 3: at 2 a mode cannot hold the excitation-2 block, so the dense oracle is truncated;
    # ratios from 0.01 keep the residual well above the absolute tolerance
    @settings(max_examples=8, deadline=None)
    @given(drawn=dispersive_models(cutoff=st.integers(3, 4), ratio=st.floats(0.01, 0.09)))
    @example(drawn=(DISPERSIVE, FULL_SPACE))
    @example(drawn=(UNEQUAL, FULL_SPACE))
    @example(drawn=(matched_single_mode(), SINGLE_SPACE))
    def test_capped_residual_matches_dense(self, drawn):
        params, space = drawn
        want = dense_sw_residual(params, space)
        assert want > 1e-9
        assert sw_reduction_check(params) == pytest.approx(want, rel=1e-12, abs=1e-13)

    def test_capped_fidelity_matches_dense(self, dispersive_params):
        magnons = HilbertSpace((("n", 4), ("m", 4)))
        plus = superposed_state(4, 1)
        rng = np.random.default_rng(5)
        amps = rng.normal(size=16) + 1j * rng.normal(size=16)
        # N_n + N_a + P_e and N_m + N_b + P_f are conserved, so a cavity never
        # holds more photons than its magnon starts with: the dense cutoff is exact
        cases = (
            (product_state(magnons, {"n": plus, "m": plus}), 3),  # K = 2
            (bell_state(magnons, excitation=2), 3),  # K = 4
            (QuantumState(magnons, "pure", amps / np.linalg.norm(amps)), 4),  # full Fock support, K = 6
        )
        for state, cavity_cutoff in cases:
            want = dense_evolution_fidelity(dispersive_params, state, 1500.0, cavity_cutoff)
            assert want < 1.0 - 1e-6
            got = dispersive_evolution_fidelity(dispersive_params, state, 1500.0)
            assert got == pytest.approx(want, rel=1e-12, abs=1e-13)

    def test_fidelity_rejects_bad_inputs(self, dispersive_params):
        magnons = HilbertSpace((("n", 2), ("m", 2)))
        plus = superposed_state(2, 1)
        pure = product_state(magnons, {"n": plus, "m": plus})
        mixed = QuantumState(magnons, "mixed", pure.density())
        three = QuantumState(HilbertSpace((("n", 2), ("m", 2), ("k", 1))), "pure", pure.data)
        for params, state in ((dispersive_params, mixed), (dispersive_params, three),
                              (matched_single_mode(), pure)):
            with pytest.raises(DimensionError):
                dispersive_evolution_fidelity(params, state, 10.0)


class TestSingleMode:
    def test_hermiticity(self):
        h = build_full(matched_single_mode(), SINGLE_SPACE).matrix
        assert np.abs(h - h.conj().T).max() <= 1e-14

    def test_zero_couplings_diagonal(self):
        p = matched_single_mode(lam=0.0)
        h = build_full(p, SINGLE_SPACE).matrix
        assert np.abs(h - np.diag(np.diag(h))).max() == 0.0

    def test_detuning_match_true(self):
        assert detuning_match(matched_single_mode())

    def test_detuning_match_false_for_equal_detunings(self):
        p = SingleModeParams(omega_a=1.0, omega_n=1.1, omega_m=1.1, omega_e=1.1, omega_f=1.1,
                             lambda_n=0.005, lambda_m=0.005, lambda_e=0.005, lambda_f=0.005)
        assert not detuning_match(p)

    def test_cross_coupling_cancels_under_match(self):
        p = matched_single_mode()
        g_nf = 0.5 * p.lambda_n * p.lambda_f * (1 / p.detuning("n") + 1 / p.detuning("f"))
        assert g_nf == pytest.approx(0.0, abs=1e-18)

    def test_matched_vacuum_block_equals_jc_build(self):
        """With matched detunings, the closed-form effective Hamiltonian on the
        empty-cavity block reduces (after removing the rotating-frame part) to
        the magnon-qutrit model with the induced couplings substituted.  The
        two-cavity model needs no match; it is checked at unequal detunings."""
        for p, space in ((UNEQUAL, FULL_SPACE), (matched_single_mode(), SINGLE_SPACE)):
            full = build_sw_effective(p, space).matrix
            chi_n, chi_m, chi_e, chi_f = lamb_shifts(p)
            # select the block with every cavity empty; atom is slowest, magnons fastest
            cavities = [space.axis(label) for label, _ in p.cavities()]
            keep = [i for i in range(space.total_dim)
                    if all(space.occupations(i)[axis] == 0 for axis in cavities)]
            block = full[np.ix_(keep, keep)]
            d = space.dim("n")
            jc_space = HilbertSpace((("atom", 3), ("n", d), ("m", d)))
            a_n, a_m = (embed(annihilation(d), jc_space, label).matrix for label in ("n", "m"))
            n_num, m_num = a_n.conj().T @ a_n, a_m.conj().T @ a_m
            p_e = embed(level_projector(3, 1), jc_space, "atom").matrix
            p_f = embed(level_projector(3, 2), jc_space, "atom").matrix
            rotating = (p.omega_n + chi_n) * (n_num + p_e) + (p.omega_m + chi_m) * (m_num + p_f)
            eff = effective_couplings(p)
            want = build_jc_effective(eff, jc_space).matrix
            assert np.abs((block - rotating) - want).max() <= 1e-12

    def test_sw_residual_cubic_under_match(self):
        p1 = matched_single_mode(lam=0.005)
        p2 = matched_single_mode(lam=0.0025)
        r1 = sw_reduction_check(p1)
        r2 = sw_reduction_check(p2)
        assert 2.5 <= math.log2(r1 / r2) <= 3.5


class TestTimeDependentJC:
    def test_zero_coefficients_constant(self, resonant_eff):
        tau = 100.0
        pulse = PulseCoefficients(a=(), b=(), tau_total=tau, G=1e-3)
        hfun = build_time_dependent_jc(pulse, 1e-3, JC_SPACE)
        h0, h1 = hfun(0.0).matrix, hfun(0.37 * tau).matrix
        assert np.abs(h0 - h1).max() == 0.0
        k_e = JC_SPACE.index((1, 0, 0))
        assert h0[k_e, k_e] == pytest.approx(1e-3, rel=1e-12)

    def test_boundary_values_match(self):
        tau = 50.0
        pulse = PulseCoefficients(a=(0.3, -0.2), b=(0.1, 0.4), tau_total=tau, G=2e-3)
        hfun = build_time_dependent_jc(pulse, 2e-3, JC_SPACE)
        assert np.abs(hfun(0.0).matrix - hfun(tau).matrix).max() < 1e-15

    def test_hermitian_at_sampled_times(self):
        tau = 50.0
        pulse = PulseCoefficients(a=(0.3,), b=(-0.7,), tau_total=tau, G=2e-3)
        hfun = build_time_dependent_jc(pulse, 2e-3, JC_SPACE)
        for t in (0.0, 0.2 * tau, 0.9 * tau, tau):
            h = hfun(t).matrix
            assert np.abs(h - h.conj().T).max() <= 1e-14

    def test_time_out_of_range(self):
        pulse = PulseCoefficients(a=(), b=(), tau_total=10.0, G=1e-3)
        hfun = build_time_dependent_jc(pulse, 1e-3, JC_SPACE)
        with pytest.raises(ValueError):
            hfun(11.0)

    def test_nan_time_rejected(self):
        pulse = PulseCoefficients(a=(0.1,), b=(0.2,), tau_total=10.0, G=1e-3)
        with pytest.raises(ValueError, match="time outside"):
            pulse.basis(math.nan)
        with pytest.raises(ValueError, match="time outside"):
            pulse.basis(np.array([1.0, math.nan]))
        with pytest.raises(ValueError, match="time outside"):
            build_time_dependent_jc(pulse, 1e-3, JC_SPACE)(math.nan)

    def test_coefficient_length_mismatch(self):
        with pytest.raises(ValueError):
            PulseCoefficients(a=(1.0,), b=(), tau_total=1.0, G=1.0)

    def test_nan_tau_total_rejected(self):
        with pytest.raises(ValueError, match="tau_total"):
            PulseCoefficients(a=(), b=(), tau_total=math.nan, G=1.0)

    def test_infinite_tau_total_rejected(self):
        with pytest.raises(ValueError, match="tau_total"):
            PulseCoefficients(a=(), b=(), tau_total=math.inf, G=1.0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_coupling_rejected(self, bad):
        with pytest.raises(ValueError, match="finite"):
            PulseCoefficients(a=(), b=(), tau_total=1.0, G=bad)

    @pytest.mark.parametrize("a, b", [((math.nan, 0.0), (0.0, 0.0)), ((0.0,), (math.inf,)),
                                      ((0.0, -math.inf), (0.0, 1.0))])
    def test_non_finite_coefficient_rejected(self, a, b):
        with pytest.raises(ValueError, match="finite"):
            PulseCoefficients(a=a, b=b, tau_total=1.0, G=1.0)
