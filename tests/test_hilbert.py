import math

import numpy as np
import pytest

from magbell import hilbert
from magbell.hilbert import (
    DimensionError,
    HilbertSpace,
    Operator,
    QuantumState,
    SpaceMismatchError,
    StateValidationError,
    TruncationError,
    UnknownLabelError,
    annihilation,
    basis_state,
    bell_state,
    check_state,
    coherent_state,
    coherent_truncation_leakage,
    fidelity,
    product_state,
    superposed_state,
)

from conftest import embed, poisson_mean_oracle


class TestHilbertSpace:
    def test_total_dim_is_product(self):
        space = HilbertSpace((("atom", 3), ("n", 4), ("m", 5)))
        assert space.total_dim == 60
        assert space.dims == (3, 4, 5)

    def test_duplicate_labels_rejected(self):
        with pytest.raises(DimensionError):
            HilbertSpace((("n", 2), ("n", 3)))

    def test_index_convention_first_subsystem_slowest(self):
        space = HilbertSpace((("x", 2), ("y", 3), ("z", 4)))
        assert space.index((1, 2, 3)) == 1 * 12 + 2 * 4 + 3
        assert space.occupations(23) == (1, 2, 3)

    def test_unknown_label(self):
        space = HilbertSpace((("n", 2),))
        with pytest.raises(UnknownLabelError):
            space.dim("q")

    @pytest.mark.parametrize("dim", [2.5, 2.0, True, False, "3", None, 0, -1])
    def test_non_integer_or_non_positive_dimension_rejected(self, dim):
        with pytest.raises(DimensionError, match="integer dimension"):
            HilbertSpace((("n", 2), ("m", dim)))

    def test_numpy_integer_dimension_accepted_as_int(self):
        space = HilbertSpace((("n", np.int64(3)),))
        assert space.dims == (3,) and type(space.dims[0]) is int
        assert space == HilbertSpace((("n", 3),)) and hash(space) == hash(HilbertSpace((("n", 3),)))


class TestAnnihilation:
    def test_matrix_entries(self):
        a = annihilation(4).matrix
        expected = np.zeros((4, 4))
        for k in range(1, 4):
            expected[k - 1, k] = math.sqrt(k)
        assert np.allclose(a, expected)

    def test_lowers_fock_state(self):
        a = annihilation(3).matrix
        ket2 = np.array([0, 0, 1.0])
        assert np.allclose(a @ ket2, math.sqrt(2) * np.array([0, 1.0, 0]))

    def test_annihilates_vacuum(self):
        a = annihilation(3).matrix
        assert np.allclose(a @ np.array([1.0, 0, 0]), 0.0)

    def test_number_operator_diagonal(self):
        a = annihilation(4)
        n = a.matrix.conj().T @ a.matrix
        assert np.allclose(n, np.diag([0.0, 1.0, 2.0, 3.0]))

    def test_dim_too_small(self):
        with pytest.raises(DimensionError):
            annihilation(1)


class TestEmbed:
    def test_identity_embeds_to_identity(self):
        space = HilbertSpace((("a", 2), ("b", 3)))
        one = Operator(HilbertSpace.single("mode", 3), np.eye(3))
        assert np.allclose(embed(one, space, "b").matrix, np.eye(6))

    def test_lowering_on_two_qubits(self):
        space = HilbertSpace((("n", 2), ("m", 2)))
        a_n = embed(annihilation(2), space, "n").matrix
        ket11 = basis_state(space, (1, 1)).data
        assert np.allclose(a_n @ ket11, basis_state(space, (0, 1)).data)

    def test_disjoint_subsystems_commute(self):
        space = HilbertSpace((("n", 2), ("m", 2)))
        a = embed(annihilation(2), space, "n").matrix
        b = embed(annihilation(2), space, "m").matrix
        assert np.abs(a @ b - b @ a).max() < 1e-15

    def test_embed_preserves_spectrum_with_multiplicity(self):
        rng = np.random.default_rng(7)
        mat = rng.normal(size=(3, 3))
        mat = 0.5 * (mat + mat.T)
        op = Operator(HilbertSpace.single("mode", 3), mat)
        space = HilbertSpace((("x", 4), ("y", 3)))
        big = embed(op, space, "y")
        assert np.abs(big.matrix - big.matrix.conj().T).max() <= 1e-12
        got = np.sort(np.linalg.eigvalsh(big.matrix))
        want = np.sort(np.tile(np.linalg.eigvalsh(mat), 4))
        assert np.allclose(got, want)

    def test_dimension_mismatch(self):
        space = HilbertSpace((("n", 2), ("m", 2)))
        with pytest.raises(DimensionError):
            embed(annihilation(3), space, "n")
        with pytest.raises(UnknownLabelError):
            embed(annihilation(2), space, "q")


class TestCoherentState:
    def test_zero_amplitude_is_vacuum(self):
        state = coherent_state(0.0, 5)
        assert np.allclose(state.data, np.eye(5)[0])

    def test_vacuum_weight_matches_poisson(self):
        state = coherent_state(1.0, 10)
        assert abs(abs(state.data[0]) ** 2 - math.exp(-1.0)) < 1e-3

    def test_mean_occupation_against_series_oracle(self):
        state = coherent_state(1.0, 10)
        mean = float((np.arange(10) * np.abs(state.data) ** 2).sum())
        assert abs(mean - poisson_mean_oracle(1.0, 10)) < 1e-12
        assert abs(mean - 1.0) < 1e-3

    def test_norm_exact_after_renormalization(self):
        state = coherent_state(1.3, 10)
        assert abs(np.linalg.norm(state.data) - 1.0) < 1e-15

    def test_truncation_error(self):
        with pytest.raises(TruncationError):
            coherent_state(3.0, 4)

    def test_leakage_reported(self):
        leak = coherent_truncation_leakage(1.0, 10)
        assert 0.0 <= leak < 1e-6

    @pytest.mark.parametrize("x, dim", [(760.0, 1500), (800.0, 2000), (760.0, 700)])
    def test_leakage_where_exp_minus_x_underflows(self, x, dim):
        # e^-x underflows past x ~ 745; the reference sums the tail above the cutoff from logarithms
        tail = math.fsum(math.exp(j * math.log(x) - x - math.lgamma(j + 1))
                         for j in range(dim, dim + 4000))
        assert coherent_truncation_leakage(math.sqrt(x), dim) == pytest.approx(tail, abs=1e-9)

    def test_leakage_beyond_float_range_and_nan(self):
        assert coherent_truncation_leakage(1e160, 10) == 1.0
        assert coherent_truncation_leakage(math.inf, 10) == 1.0
        with pytest.raises(TruncationError):
            coherent_state(1e200, 10)
        for beta in (math.nan, complex(math.inf, math.nan)):
            with pytest.raises(ValueError, match="NaN"):
                coherent_truncation_leakage(beta, 10)

    @pytest.mark.parametrize("x, dim", [(760.0, 1500), (1400.0, 2000)])
    def test_state_where_amplitudes_overflow(self, x, dim):
        # beta^j / sqrt(j!) overflows past |beta|^2 ~ 709; the reference forms
        # the amplitudes from their logarithms, scaled by the largest
        logs = np.array([0.5 * (j * math.log(x) - math.lgamma(j + 1)) for j in range(dim)])
        want = np.exp(logs - logs.max())
        want /= np.linalg.norm(want)
        assert np.abs(coherent_state(math.sqrt(x), dim).data - want).max() <= 1e-12

    def test_state_past_recursion_limit_rejected(self):
        # the recursion starts at 2^-k, k = floor(|beta|^2 / (2 ln 2)), which is 0.0 past k = 1074
        with pytest.raises(ValueError, match="1490.3"):
            coherent_state(math.sqrt(1491.0), 2600)

    def test_reference_amplitudes_fit_default_cutoff(self):
        for beta in (1.0, 1.2, 1.3):
            state = coherent_state(beta, 10)
            assert abs(np.linalg.norm(state.data) - 1.0) < 1e-15


class TestFidelity:
    def test_self_fidelity(self, magnon_space):
        phi = bell_state(magnon_space, 1, +1)
        assert fidelity(phi, phi) == pytest.approx(1.0, abs=1e-14)

    def test_fock_versus_bell(self, magnon_space):
        phi = bell_state(magnon_space, 1, +1)
        assert fidelity(basis_state(magnon_space, (0, 0)), phi) == pytest.approx(0.5, abs=1e-14)

    def test_superposed_product_versus_bell(self, magnon_space):
        plus = superposed_state(3, 1)
        psi = product_state(magnon_space, {"n": plus, "m": plus})
        # overlap computed directly: (1/2)(<00| + <01| + <10| + <11|)(|00> + |11>)/sqrt2
        overlap = 0.5 * (1 + 1) / math.sqrt(2)
        assert fidelity(psi, bell_state(magnon_space, 1, +1)) == pytest.approx(overlap**2, abs=1e-14)
        assert fidelity(psi, bell_state(magnon_space, 1, +1)) == pytest.approx(0.5, abs=1e-14)

    def test_global_phase_invariance_of_either_argument(self, magnon_space):
        rng = np.random.default_rng(5)
        vec = rng.normal(size=9) + 1j * rng.normal(size=9)
        vec /= np.linalg.norm(vec)
        state = QuantumState(magnon_space, "pure", vec)
        rotated = QuantumState(magnon_space, "pure", np.exp(1j * 0.7) * vec)
        phi = bell_state(magnon_space, 1, +1)
        phi_rotated = QuantumState(magnon_space, "pure", np.exp(-1j * 1.3) * phi.data)
        want = fidelity(state, phi)
        assert fidelity(rotated, phi) == pytest.approx(want, abs=1e-14)
        assert fidelity(state, phi_rotated) == pytest.approx(want, abs=1e-14)

    def test_mixed_state_fidelity(self, magnon_space):
        phi = bell_state(magnon_space, 1, +1)
        rho = 0.5 * phi.density() + 0.5 * np.diag(np.eye(9)[0])
        mixed = QuantumState(magnon_space, "mixed", rho)
        assert fidelity(mixed, phi) == pytest.approx(0.5 + 0.5 * 0.5, abs=1e-12)

    def test_space_mismatch(self, magnon_space):
        other = HilbertSpace((("n", 2), ("m", 2)))
        with pytest.raises(SpaceMismatchError):
            fidelity(basis_state(magnon_space, (0, 0)), bell_state(other, 1, +1))


class TestValidation:
    def test_pure_norm_enforced(self, magnon_space):
        with pytest.raises(StateValidationError):
            QuantumState(magnon_space, "pure", np.ones(9))

    def test_mixed_trace_enforced(self, magnon_space):
        with pytest.raises(StateValidationError):
            QuantumState(magnon_space, "mixed", np.eye(9))

    def test_mixed_positivity_enforced(self, magnon_space):
        rho = np.diag([1.5, -0.5] + [0.0] * 7)
        with pytest.raises(StateValidationError):
            QuantumState(magnon_space, "mixed", rho)

    @pytest.mark.parametrize("kind, data", [
        ("pure", np.array([math.nan] + [0.0] * 8)),
        ("mixed", np.diag([math.nan] + [0.0] * 8)),
        ("mixed", np.full((9, 9), math.nan)),
    ], ids=["pure", "mixed-diagonal", "mixed-full"])
    def test_nan_state_rejected(self, magnon_space, kind, data):
        with pytest.raises(StateValidationError):
            QuantumState(magnon_space, kind, data)

    @pytest.mark.parametrize("kind, data", [
        ("pure", np.array([math.nan] + [0.0] * 8)),
        ("mixed", np.diag([math.nan] + [0.0] * 8)),
        ("mixed", np.full((9, 9), math.nan)),
        ("pure", np.ones(9)),
        ("mixed", np.diag([1.0] + [0.0] * 8) + np.diag([0.1] * 8, k=1)),
        ("mixed", 2.0 * np.eye(9) + np.diag([0.1] * 8, k=1)),  # non-Hermitian and trace 18
        ("mixed", np.eye(9)),
        ("mixed", np.diag([3.0, -1.0] + [0.0] * 7)),  # trace 2 and a negative eigenvalue
        ("mixed", np.diag([1.5, -0.5] + [0.0] * 7)),
    ], ids=["nan-pure", "nan-mixed-diagonal", "nan-mixed-full", "norm", "hermitian",
            "hermitian-before-trace", "trace", "trace-before-positivity", "positivity"])
    def test_check_raises_what_the_constructor_raises(self, magnon_space, kind, data):
        # one check, two callers: same type, same message, on the same array
        arr = np.array(data, dtype=complex)
        with pytest.raises(StateValidationError) as want:
            QuantumState(magnon_space, kind, arr)
        with pytest.raises(StateValidationError) as got:
            check_state(arr)
        assert type(got.value) is type(want.value)
        assert str(got.value) == str(want.value)
        assert np.array_equal(arr, np.array(data, dtype=complex), equal_nan=True)  # not changed

    def test_check_reads_its_tolerances_at_call_time(self, magnon_space, monkeypatch):
        long = np.full(9, 0.5, dtype=complex)  # norm 1.5
        rho = bell_state(magnon_space, 1, +1).density()
        monkeypatch.setattr(hilbert, "PURE_NORM_ATOL", 0.6)
        monkeypatch.setattr(hilbert, "MIXED_EIG_FLOOR", 1.0)
        check_state(long)
        QuantumState(magnon_space, "pure", long)
        for make in (lambda: check_state(rho), lambda: QuantumState(magnon_space, "mixed", rho)):
            with pytest.raises(StateValidationError, match="negative eigenvalues"):
                make()

    def test_operator_immutable(self, magnon_space):
        op = Operator(magnon_space, np.eye(magnon_space.total_dim))
        with pytest.raises(ValueError):
            op.matrix[0, 0] = 2.0
