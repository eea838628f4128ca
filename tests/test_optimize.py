import dataclasses
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from conftest import (looped_block_gradient, reference_block_amplitudes_and_gradient,
                      reference_fidelity_time_trace, sequential_block_amplitudes, sliced_fidelity_trace)
from magbell import optimize
from magbell.measurement import _fidelity_and_norm, interval_for_target
from magbell.model import EffectiveParams, PulseCoefficients
from magbell.optimize import (
    ObjectiveError,
    _block_amplitudes_and_gradient,
    _block_objective,
    bfgs,
    evaluate_single_shot,
    nelder_mead,
    optimize_single_shot,
)

G = 1e-3
TAU0 = interval_for_target(1, EffectiveParams(G_e=G, G_f=G))


class TestCrabDetuning:
    @settings(max_examples=100, deadline=None)
    @given(coeffs=st.lists(st.floats(-1e-4, 1e-4), min_size=2, max_size=8))
    def test_boundary_values_pinned_to_coupling(self, coeffs):
        half = len(coeffs) // 2
        pulse = PulseCoefficients(a=tuple(coeffs[:half]), b=tuple(coeffs[half:2 * half]),
                                  tau_total=TAU0, G=1e-3)
        assert pulse.detuning(0.0) == pytest.approx(1e-3, rel=1e-12)
        assert pulse.detuning(TAU0) == pytest.approx(1e-3, rel=1e-9)

    def test_zero_coefficients_constant(self):
        pulse = PulseCoefficients(a=(), b=(), tau_total=TAU0, G=1e-3)
        for t in (0.0, 0.3 * TAU0, TAU0):
            assert pulse.detuning(t) == 1e-3

    def test_out_of_range_rejected(self):
        pulse = PulseCoefficients(a=(), b=(), tau_total=TAU0, G=1e-3)
        with pytest.raises(ValueError):
            pulse.detuning(-0.1 * TAU0)
        with pytest.raises(ValueError):
            pulse.detuning(1.1 * TAU0)


class TestNelderMead:
    def test_convex_quadratic(self, monkeypatch):
        monkeypatch.setattr(optimize, "SPREAD_TOL", 1e-14)
        monkeypatch.setattr(optimize, "MAX_CALLS", 2000)
        x, f = nelder_mead(lambda v: float(v @ v), np.array([1.0, 1.0]))
        assert np.abs(x).max() < 1e-6
        assert f < 1e-12

    def test_rosenbrock(self, monkeypatch):
        def rosen(v):
            return float(100.0 * (v[1] - v[0] ** 2) ** 2 + (1 - v[0]) ** 2)

        monkeypatch.setattr(optimize, "SPREAD_TOL", 1e-14)
        monkeypatch.setattr(optimize, "MAX_CALLS", 4000)
        x, f = nelder_mead(rosen, np.array([-1.2, 1.0]))
        assert f <= 1e-6
        assert np.abs(x - 1.0).max() < 1e-2

    def test_constant_objective_terminates(self, monkeypatch):
        monkeypatch.setattr(optimize, "SPREAD_TOL", 1e-10)
        monkeypatch.setattr(optimize, "MAX_CALLS", 50)
        x, f = nelder_mead(lambda v: 3.5, np.array([0.2, -0.4]))
        assert f == 3.5

    def test_non_finite_objective_aborts(self, monkeypatch):
        monkeypatch.setattr(optimize, "MAX_CALLS", 10)
        with pytest.raises(ObjectiveError):
            nelder_mead(lambda v: float("nan"), np.array([1.0]))

    def test_deterministic(self, monkeypatch):
        def bumpy(v):
            return float(math.sin(3 * v[0]) + v @ v)

        monkeypatch.setattr(optimize, "SPREAD_TOL", 1e-12)
        monkeypatch.setattr(optimize, "MAX_CALLS", 500)
        x1, f1 = nelder_mead(bumpy, np.array([0.7, -0.3]))
        x2, f2 = nelder_mead(bumpy, np.array([0.7, -0.3]))
        assert np.array_equal(x1, x2) and f1 == f2


def _rosenbrock(v):
    value = 100.0 * (v[1] - v[0] ** 2) ** 2 + (1 - v[0]) ** 2
    grad = np.array([-400.0 * v[0] * (v[1] - v[0] ** 2) - 2.0 * (1 - v[0]), 200.0 * (v[1] - v[0] ** 2)])
    return float(value), grad


class TestBfgs:
    def test_convex_quadratic(self):
        weights = np.array([1.0, 10.0, 0.1])
        x, f, calls = bfgs(lambda v: (float(weights @ v**2), 2.0 * weights * v),
                           np.array([1.0, -2.0, 3.0]))
        assert np.abs(x).max() < 1e-6
        assert f < 1e-12
        assert calls < 100

    def test_rosenbrock(self):
        x, f, _ = bfgs(_rosenbrock, np.array([-1.2, 1.0]))
        assert f <= 1e-12
        assert np.abs(x - 1.0).max() < 1e-5

    def test_calls_capped_by_max_iter(self, monkeypatch):
        for cap in (1, 2, 7, 30):
            monkeypatch.setattr(optimize, "MAX_CALLS", cap)
            _, _, calls = bfgs(_rosenbrock, np.array([-1.2, 1.0]))
            assert calls == cap

    @pytest.mark.parametrize("spread_tol, halvings", [(1e-3, 11), (1e-6, 21)])
    def test_line_search_floor_is_spread_tol(self, monkeypatch, spread_tol, halvings):
        # the gradient's sign is wrong, so no step along -gradient decreases f:
        # backtracking halves the unit step until step * |direction| < SPREAD_TOL
        monkeypatch.setattr(optimize, "SPREAD_TOL", spread_tol)
        x, f, calls = bfgs(lambda v: (float(v @ v), -2.0 * v), np.array([1.0]))
        assert calls == 1 + halvings
        assert f == 1.0 and np.array_equal(x, [1.0])

    def test_stalled_decrease_ends_search(self):
        # f moves by far less than an ulp per step: every step is accepted and none is progress
        x, f, calls = bfgs(lambda v: (1.0 + 1e-30 * v[0], np.array([1e-30])), np.array([0.0]))
        assert calls == 1 + optimize.STALL_ITERATIONS
        assert f == 1.0

    def test_stall_is_a_decrease_of_at_most_stall_tol(self, monkeypatch):
        # f = -c x with gradient -c: every unit step is accepted and lowers f by c^2
        monkeypatch.setattr(optimize, "MAX_CALLS", 50)

        def line(drop):
            c = math.sqrt(drop)
            return lambda v: (-c * float(v[0]), np.array([-c]))

        _, _, calls = bfgs(line(optimize.STALL_TOL / 2), np.array([0.0]))
        assert calls == 1 + optimize.STALL_ITERATIONS
        _, _, calls = bfgs(line(2 * optimize.STALL_TOL), np.array([0.0]))
        assert calls == optimize.MAX_CALLS

    def test_zero_gradient_stops_at_once(self):
        x, f, calls = bfgs(lambda v: (3.5, np.zeros(2)), np.array([0.2, -0.4]))
        assert f == 3.5 and calls == 1 and np.array_equal(x, [0.2, -0.4])

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_gradient_aborts(self, bad):
        with pytest.raises(ObjectiveError, match="gradient"):
            bfgs(lambda v: (float(v @ v), np.array([bad, 0.0])), np.array([1.0, 1.0]))

    def test_deterministic(self):
        def bumpy(v):
            return float(math.sin(3 * v[0]) + v @ v), np.array([3 * math.cos(3 * v[0]), 0.0]) + 2 * v

        x1, f1, c1 = bfgs(bumpy, np.array([0.7, -0.3]))
        x2, f2, c2 = bfgs(bumpy, np.array([0.7, -0.3]))
        assert np.array_equal(x1, x2) and f1 == f2 and c1 == c2


class TestBlockReduction:
    def test_matches_full_pipeline(self):
        rng = np.random.default_rng(3)
        scale = 2.0 / TAU0**2
        objective = _block_objective(TAU0, 1e-3, 4, 64)
        for _ in range(4):
            x = rng.uniform(-scale, scale, 8)
            pulse = PulseCoefficients(a=tuple(x[:4]), b=tuple(x[4:]), tau_total=TAU0, G=1e-3)
            fast = -objective(x)[0]
            full, _, _ = evaluate_single_shot(pulse, 64)
            assert abs(fast - full) <= 1e-10

    @settings(max_examples=60, deadline=None)
    @given(
        n_omega=st.integers(0, 4),
        slices=st.sampled_from([1, 2, 3, 5, 63, 64, 511, 512, 1000]),
        unit=st.lists(st.floats(-1.0, 1.0), min_size=8, max_size=8),
    )
    def test_value_and_gradient_match_sequential_loop(self, n_omega, slices, unit):
        scale = 2.0 / TAU0**2  # the restart box

        def oracle(x):
            pulse = PulseCoefficients(a=tuple(x[:n_omega]), b=tuple(x[n_omega:]), tau_total=TAU0, G=1e-3)
            a01, a11 = sequential_block_amplitudes(pulse, slices)
            return _fidelity_and_norm(a01, a01, a11)[0]

        x = scale * np.array(unit[: 2 * n_omega])
        value, grad = _block_objective(TAU0, 1e-3, n_omega, slices)(x)
        assert abs(-value - oracle(x)) <= 1e-12
        # central differences in box units, step 1e-4: their truncation error
        # stays below ~2e-9 there, against a gradient of order F's range, 1
        step = 1e-4
        fd = np.array([(oracle(x + step * scale * e) - oracle(x - step * scale * e)) / (2 * step)
                       for e in np.eye(2 * n_omega)])
        assert np.abs(-scale * grad - fd).max(initial=0.0) <= 1e-7 * max(1.0, np.abs(fd).max(initial=0.0))

    @settings(max_examples=60, deadline=None)
    @given(
        n_omega=st.integers(0, 4),
        slices=st.sampled_from([1, 2, 3, 5, 63, 64, 511, 512, 1000, 4096]),
        unit=st.lists(st.floats(-1.0, 1.0), min_size=8, max_size=8),
    )
    @example(n_omega=0, slices=1000, unit=[0.0] * 8)  # the constant pulse drifts most
    @example(n_omega=0, slices=4096, unit=[0.0] * 8)
    def test_gradient_matches_looped_reverse_mode(self, n_omega, slices, unit):
        x = 2.0 / TAU0**2 * np.array(unit[: 2 * n_omega])  # inside the restart box
        pulse = PulseCoefficients(a=tuple(x[:n_omega]), b=tuple(x[n_omega:]), tau_total=TAU0, G=1e-3)
        h = TAU0 / slices
        deltas = pulse.detuning((np.arange(slices) + 0.5) * h)
        amps, damps = _block_amplitudes_and_gradient(deltas, 1e-3, h)
        want_amps, want_damps = looped_block_gradient(deltas, 1e-3, h)
        assert np.abs(amps - want_amps).max() <= 1e-12
        assert np.abs(damps - want_damps).max() <= 1e-12 * max(1.0, np.abs(want_damps).max())
        # the suffixes are read as the full product times adjoint prefixes,
        # which holds only while the scanned prefixes stay unitary.  Equal
        # slices (the constant pulse) round alike, so their norm drifts by up
        # to an ulp per slice: 1.6e-13 at 1000 slices, 3.9e-13 at 4096
        _, alpha, beta, _, _ = optimize._block_slices(deltas, 1e-3, h)
        prefix_a, prefix_b = optimize._running_products(alpha, beta)
        drift = np.abs(abs(prefix_a) ** 2 + abs(prefix_b) ** 2 - 1.0).max()
        assert drift <= max(1e-13, slices * np.finfo(float).eps)

    def test_constant_pulse_matches_coefficient_formula(self):
        # independent two-level closed form for a constant detuning
        pulse = PulseCoefficients(a=(), b=(), tau_total=TAU0, G=1e-3)
        h = TAU0 / 512
        (a01, a11), _ = _block_amplitudes_and_gradient(pulse.detuning((np.arange(512) + 0.5) * h), 1e-3, h)

        def const_amp(coupling, delta, tau):
            omega = math.sqrt(coupling**2 + 0.25 * delta**2)
            return np.exp(-0.5j * delta * tau) * (
                math.cos(omega * tau) + 0.5j * (delta / omega) * math.sin(omega * tau)
            )

        assert abs(a01 - const_amp(1e-3, 1e-3, TAU0)) < 1e-9
        assert abs(a11 - const_amp(math.sqrt(2) * 1e-3, 1e-3, TAU0)) < 1e-9


class TestBitEqualToStridedScan:
    """The slice-major scan changes no arithmetic: every number equals the (2, slices) scan's."""

    @settings(max_examples=60, deadline=None)
    @given(
        n_omega=st.integers(0, 4),
        slices=st.sampled_from([1, 2, 3, 5, 63, 64, 511, 512, 1000, 4096]),
        unit=st.lists(st.floats(-3.0, 3.0), min_size=8, max_size=8),
    )
    def test_value_gradient_and_trace(self, n_omega, slices, unit):
        x = 2.0 / TAU0**2 * np.array(unit[: 2 * n_omega])  # up to 3x the restart box
        pulse = PulseCoefficients(a=tuple(x[:n_omega]), b=tuple(x[n_omega:]), tau_total=TAU0, G=1e-3)
        h = TAU0 / slices
        deltas = pulse.detuning((np.arange(slices) + 0.5) * h)
        amps, damps = _block_amplitudes_and_gradient(deltas, 1e-3, h)
        want_amps, want_damps = reference_block_amplitudes_and_gradient(deltas, 1e-3, h)
        assert np.array_equal(amps, want_amps) and np.array_equal(damps, want_damps)
        assert damps.shape == (2, slices) and damps.flags.c_contiguous  # the adjoint sums in one order
        objective = _block_objective(TAU0, 1e-3, n_omega, slices)
        value, grad = objective(x)
        with mock.patch.object(optimize, "_block_amplitudes_and_gradient", reference_block_amplitudes_and_gradient):
            want_value, want_grad = objective(x)
        assert value == want_value and np.array_equal(grad, want_grad)
        for got, want in zip(optimize._fidelity_time_trace(pulse, slices),
                             reference_fidelity_time_trace(pulse, slices)):
            assert np.array_equal(got, want)

    def test_search_returns_the_same_result(self, monkeypatch):
        monkeypatch.setattr(optimize, "DEFAULT_SLICES", 64)
        result = optimize_single_shot(G, 2, restarts=2, seed=0)
        monkeypatch.setattr(optimize, "_block_amplitudes_and_gradient", reference_block_amplitudes_and_gradient)
        monkeypatch.setattr(optimize, "_fidelity_time_trace", reference_fidelity_time_trace)
        want = optimize_single_shot(G, 2, restarts=2, seed=0)
        for field in dataclasses.fields(result):
            got, expected = getattr(result, field.name), getattr(want, field.name)
            assert np.array_equal(got, expected) if isinstance(got, np.ndarray) else got == expected, field.name


class TestFidelityTimeTrace:
    @settings(max_examples=40, deadline=None)
    @given(
        n_omega=st.integers(0, 4),
        slices=st.integers(1, 64),
        unit=st.lists(st.floats(-1.0, 1.0), min_size=8, max_size=8),
    )
    def test_matches_sliced_state_oracle(self, n_omega, slices, unit):
        x = 2.0 / TAU0**2 * np.array(unit[: 2 * n_omega])  # inside the restart box
        pulse = PulseCoefficients(a=tuple(x[:n_omega]), b=tuple(x[n_omega:]), tau_total=TAU0, G=1e-3)
        times, trace, prob = optimize._fidelity_time_trace(pulse, slices)
        assert times.shape == trace.shape == (slices + 1,)
        assert times[0] == 0.0 and times[-1] == pytest.approx(TAU0, rel=1e-12)
        assert np.abs(trace - sliced_fidelity_trace(pulse, slices)).max() <= 1e-12
        fid, want_prob, _ = evaluate_single_shot(pulse, slices)
        assert abs(trace[-1] - fid) <= 1e-12
        assert abs(prob - want_prob) <= 1e-12


@pytest.fixture(scope="module")
def shipped():
    """configs/single_shot.yaml at seed 0: G = 1e-3, n_omega = 4, 8 restarts, 512 slices."""
    return optimize_single_shot(G, 4, restarts=8, seed=0)


class TestOptimizeSingleShot:
    @pytest.mark.parametrize("field, bad", [
        ("n_omega", 1.5), ("n_omega", -1), ("restarts", 2.5), ("restarts", 0), ("seed", 1.5),
        ("seed", -1), ("seed", "0"),
    ])
    def test_invalid_count_rejected(self, field, bad, monkeypatch):
        monkeypatch.setattr(optimize, "DEFAULT_SLICES", 16)
        with pytest.raises(ValueError, match=f"{field} must be an integer"):
            optimize_single_shot(G, **{"n_omega": 1, field: bad})

    def test_no_search_dimensions_returns_baseline(self, monkeypatch):
        # an empty search vector runs each restart's BFGS for one call, which cannot win
        monkeypatch.setattr(optimize, "DEFAULT_SLICES", 128)
        for restarts in (1, 3):
            result = optimize_single_shot(G, 0, restarts=restarts)
            assert result.fidelity == result.baseline_fidelity
            assert result.pulse.a == () and result.pulse.b == ()
            assert result.iterations == 0

    def test_small_search_beats_baseline(self, monkeypatch):
        monkeypatch.setattr(optimize, "DEFAULT_SLICES", 128)
        monkeypatch.setattr(optimize, "MAX_CALLS", 300)
        monkeypatch.setattr(optimize, "SPREAD_TOL", 1e-9)
        result = optimize_single_shot(G, 2, restarts=2, seed=0)
        assert result.fidelity >= result.baseline_fidelity
        assert result.fidelity > 0.5

    def test_bit_reproducible(self, monkeypatch):
        monkeypatch.setattr(optimize, "DEFAULT_SLICES", 64)
        monkeypatch.setattr(optimize, "MAX_CALLS", 200)
        r1 = optimize_single_shot(G, 2, restarts=2, seed=5)
        r2 = optimize_single_shot(G, 2, restarts=2, seed=5)
        assert r1.fidelity == r2.fidelity
        assert r1.pulse.a == r2.pulse.a and r1.pulse.b == r2.pulse.b
        assert np.array_equal(r1.fidelity_trace, r2.fidelity_trace)

    def test_search_reads_its_slicing_at_call_time(self, monkeypatch):
        monkeypatch.setattr(optimize, "DEFAULT_SLICES", 64)
        result = optimize_single_shot(G, 2, restarts=1, seed=0)
        assert result.times.shape == result.fidelity_trace.shape == (65,)

    def test_non_finite_baseline_objective_aborts(self, monkeypatch):
        # the baseline call, at zero coefficients, is the first objective call
        monkeypatch.setattr(optimize, "DEFAULT_SLICES", 16)
        monkeypatch.setattr(optimize, "_fidelity_and_norm", lambda a01, a10, a11: (float("nan"), 1.0))
        with pytest.raises(ObjectiveError):
            optimize_single_shot(G, 0, restarts=1)

    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")  # inf * 0 in the matvec
    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_gradient_aborts(self, monkeypatch, bad):
        monkeypatch.setattr(optimize, "DEFAULT_SLICES", 16)
        exact = optimize._block_amplitudes_and_gradient

        def spoiled(deltas, g, h):
            amps, damps = exact(deltas, g, h)
            damps = damps.copy()
            damps[0, -1] = bad
            return amps, damps

        monkeypatch.setattr(optimize, "_block_amplitudes_and_gradient", spoiled)
        with pytest.raises(ObjectiveError, match="gradient"):
            optimize_single_shot(G, 1, restarts=1)

    def test_shipped_config_reaches_the_model_resolution(self, shipped):
        # the 512-slice F is determined to about (4/3) |F(1024) - F(512)| ~ 1.3e-10
        assert 1.0 - shipped.fidelity <= 1.3e-10
        assert math.isfinite(shipped.slicing_error) and abs(shipped.slicing_error) <= 1.3e-10
        assert 0 < shipped.iterations <= optimize.MAX_CALLS

    def test_slicing_error_matches_the_full_pipeline(self, shipped):
        # the 27-dim pipeline at twice the slices, less the winner's raw 512-slice F
        pulse = shipped.pulse
        coarse = -_block_objective(pulse.tau_total, G, 4, 512)(np.array(pulse.a + pulse.b))[0]
        fine, _, _ = evaluate_single_shot(pulse, 1024)
        assert abs(shipped.slicing_error - (fine - coarse)) <= 1e-12

    def test_reported_fidelities_clamped_to_one(self, monkeypatch):
        # F = |1 + a11|^2 / (2N) can round an ulp above 1: the search compares
        # the raw value, and the result reports it clamped to [0, 1]
        monkeypatch.setattr(optimize, "DEFAULT_SLICES", 16)
        exact = optimize._fidelity_and_norm

        def above_one(a01, a10, a11):
            fid, norm = exact(a01, a10, a11)
            return np.full_like(fid, 1.0 + 2.0**-52), norm

        monkeypatch.setattr(optimize, "_fidelity_and_norm", above_one)
        assert _block_objective(TAU0, 1e-3, 0, 16)(np.zeros(0))[0] == -(1.0 + 2.0**-52)
        result = optimize_single_shot(G, 0, restarts=1)
        assert result.fidelity == result.baseline_fidelity == 1.0
        assert np.all(result.fidelity_trace == 1.0)

    def test_search_and_trace_share_one_scan(self, monkeypatch):
        # the winner's objective value and the trace's last entry come from the
        # same forward scan of the same slices
        monkeypatch.setattr(optimize, "DEFAULT_SLICES", 64)
        monkeypatch.setattr(optimize, "MAX_CALLS", 300)
        result = optimize_single_shot(G, 2, restarts=2, seed=0)
        x = np.array(result.pulse.a + result.pulse.b)
        value, _ = _block_objective(result.pulse.tau_total, G, 2, 64)(x)
        assert abs(-value - result.fidelity_trace[-1]) <= 1e-14

    def test_reports_block_numbers_without_the_pipeline(self, monkeypatch):
        # every reported number comes from the block reduction; the 27-dim
        # pipeline is only the oracle it is held to
        monkeypatch.setattr(optimize, "DEFAULT_SLICES", 64)
        monkeypatch.setattr(optimize, "MAX_CALLS", 300)

        def refuse(*args, **kwargs):
            raise AssertionError("optimize_single_shot ran the 27-dim pipeline")

        with monkeypatch.context() as patch:
            patch.setattr(optimize, "evaluate_single_shot", refuse)
            patch.setattr(optimize, "time_ordered_propagator", refuse)
            result = optimize_single_shot(G, 2, restarts=2, seed=0)
        fid, prob, _ = evaluate_single_shot(result.pulse, 64)
        zero = PulseCoefficients(a=(0.0,) * 2, b=(0.0,) * 2, tau_total=result.pulse.tau_total, G=G)
        baseline, _, _ = evaluate_single_shot(zero, 64)
        assert abs(result.fidelity - fid) <= 1e-12
        assert abs(result.success_probability - prob) <= 1e-12
        assert abs(result.baseline_fidelity - baseline) <= 1e-12
        assert result.fidelity >= result.baseline_fidelity

    def test_trace_starts_at_initial_overlap(self, monkeypatch):
        monkeypatch.setattr(optimize, "DEFAULT_SLICES", 64)
        result = optimize_single_shot(G, 0, restarts=1)
        assert result.fidelity_trace[0] == pytest.approx(0.5, abs=1e-12)
        assert len(result.times) == 65

    def test_doubled_slices_reproduce_reported_fidelity(self, monkeypatch):
        monkeypatch.setattr(optimize, "DEFAULT_SLICES", 128)
        monkeypatch.setattr(optimize, "MAX_CALLS", 300)
        result = optimize_single_shot(G, 2, restarts=2, seed=0)
        refid, _, _ = evaluate_single_shot(result.pulse, 256)
        assert abs(refid - result.fidelity) <= 1e-4
