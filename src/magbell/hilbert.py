"""Truncated Fock-space and qutrit operator algebra.

Dense complex matrices on labeled tensor-product spaces. The Kronecker
ordering is fixed for the whole package: the first listed subsystem varies
slowest, so the basis index of ``|i0, i1, ..., ik>`` is
``i0*(d1*...*dk) + i1*(d2*...*dk) + ... + ik``.  The model builds its
Hamiltonians and the protocol its jump operators from one operator table
that maps occupation rows, either this basis in this order or every state
up to an excitation cap.
"""

from __future__ import annotations

import cmath
import math
import numbers
from dataclasses import dataclass, field
from functools import reduce
from typing import Mapping, Sequence

import numpy as np

PURE_NORM_ATOL = 1e-10
MIXED_ATOL = 1e-10
# Positivity floor for density matrices: admits the rounding-level negative
# eigenvalues of renormalized protocol states and of the loss channel, and
# rejects a matrix that is not a state.
MIXED_EIG_FLOOR = -1e-8

# Hard cutoff-adequacy bound for coherent states.  Loose enough to admit the
# reference runs (|beta| <= 1.3 at cutoff 10 leaks 1.1e-5), tight enough to
# reject a genuinely under-truncated request; cutoff-doubling checks guard
# the remaining tail.
COHERENT_LEAKAGE_MAX = 1e-4


class DimensionError(ValueError):
    """Matrix or subsystem dimensions are invalid or inconsistent."""


class UnknownLabelError(KeyError):
    """Subsystem label not present in the space."""


class SpaceMismatchError(ValueError):
    """Operands live on different Hilbert spaces."""


class TruncationError(ValueError):
    """Fock cutoff too small to hold the requested state."""


class StateValidationError(ValueError):
    """State data violates normalization, Hermiticity, or positivity."""


@dataclass(frozen=True)
class HilbertSpace:
    """Ordered list of labeled subsystem dimensions.

    Parameters
    ----------
    subsystems : tuple of (label, dim)
        Subsystems in slow-to-fast Kronecker order.  Each dim is an integer
        >= 1 (a bool is not one); anything else raises DimensionError.

    labels, dims and total_dim are computed once, at construction.
    """

    subsystems: tuple[tuple[str, int], ...]
    labels: tuple[str, ...] = field(init=False, repr=False, compare=False)
    dims: tuple[int, ...] = field(init=False, repr=False, compare=False)
    total_dim: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        subs = tuple((str(label), dim) for label, dim in self.subsystems)
        if not subs:
            raise DimensionError("a HilbertSpace needs at least one subsystem")
        for label, dim in subs:
            if not (isinstance(dim, numbers.Integral) and not isinstance(dim, bool) and dim >= 1):
                raise DimensionError(f"subsystem {label!r} needs an integer dimension >= 1, got {dim!r}")
        subs = tuple((label, int(dim)) for label, dim in subs)
        labels = tuple(label for label, _ in subs)
        if len(set(labels)) != len(labels):
            raise DimensionError(f"duplicate subsystem labels: {list(labels)}")
        dims = tuple(dim for _, dim in subs)
        for name, value in (("subsystems", subs), ("labels", labels), ("dims", dims),
                            ("total_dim", math.prod(dims))):
            object.__setattr__(self, name, value)

    @classmethod
    def single(cls, label: str, dim: int) -> "HilbertSpace":
        return cls(((label, dim),))

    def axis(self, label: str) -> int:
        try:
            return self.labels.index(label)
        except ValueError:
            raise UnknownLabelError(f"no subsystem {label!r} in {self.labels}") from None

    def dim(self, label: str) -> int:
        return self.dims[self.axis(label)]

    def index(self, occupations: Sequence[int]) -> int:
        """Basis index of the product state with the given occupation numbers."""
        if len(occupations) != len(self.dims):
            raise DimensionError("one occupation number per subsystem required")
        return int(np.ravel_multi_index(tuple(int(o) for o in occupations), self.dims))

    def occupations(self, index: int) -> tuple[int, ...]:
        """Inverse of :meth:`index`."""
        return tuple(int(i) for i in np.unravel_index(index, self.dims))

    def subspace(self, labels: Sequence[str]) -> "HilbertSpace":
        """New space made of the listed subsystems, in the order given."""
        return HilbertSpace(tuple((lab, self.dim(lab)) for lab in labels))


@dataclass(frozen=True, eq=False)
class Operator:
    """Dense complex matrix tagged with its HilbertSpace.

    Only the shape is checked here.  A Hamiltonian's Hermiticity is checked
    where it is used: ``dynamics.propagator_matrix`` and ``LindbladSpec``
    raise ``NonHermitianError``.
    """

    space: HilbertSpace
    matrix: np.ndarray

    def __post_init__(self):
        mat = np.array(self.matrix, dtype=complex, copy=True)
        d = self.space.total_dim
        if mat.shape != (d, d):
            raise DimensionError(f"matrix shape {mat.shape} != space dimension ({d}, {d})")
        mat.setflags(write=False)
        object.__setattr__(self, "matrix", mat)


def check_state(arr: np.ndarray) -> None:
    """Raise StateValidationError unless arr, of the right shape, is a state.

    A vector is checked as a pure state: unit norm to PURE_NORM_ATOL.  A
    matrix is checked as a density matrix: Hermiticity and unit trace to
    MIXED_ATOL, then no eigenvalue below MIXED_EIG_FLOOR, in that order; the
    tolerances are read at call time.  arr is neither copied nor changed:
    ``QuantumState`` calls this on its copy, and a protocol round on its own
    array.
    """
    if arr.ndim == 1:
        norm = float(np.linalg.norm(arr))
        if not abs(norm - 1.0) <= PURE_NORM_ATOL:  # NaN fails too
            raise StateValidationError(f"pure state norm {norm} != 1")
        return
    if not float(np.abs(arr - arr.conj().T).max()) <= MIXED_ATOL:
        raise StateValidationError("density matrix not Hermitian")
    tr = complex(np.trace(arr))
    if not abs(tr - 1.0) <= MIXED_ATOL:
        raise StateValidationError(f"density matrix trace {tr} != 1")
    if not float(np.linalg.eigvalsh(arr).min()) >= MIXED_EIG_FLOOR:
        raise StateValidationError("density matrix has negative eigenvalues")


@dataclass(frozen=True, eq=False)
class QuantumState:
    """Pure vector or density matrix on a HilbertSpace.

    Construction copies data, checks its kind and shape, and validates the
    copy with ``check_state``.
    """

    space: HilbertSpace
    kind: str
    data: np.ndarray

    def __post_init__(self):
        if self.kind not in ("pure", "mixed"):
            raise StateValidationError(f"kind must be 'pure' or 'mixed', got {self.kind!r}")
        arr = np.array(self.data, dtype=complex, copy=True)
        d = self.space.total_dim
        if self.kind == "pure":
            if arr.shape != (d,):
                raise DimensionError(f"pure state shape {arr.shape} != ({d},)")
        elif arr.shape != (d, d):
            raise DimensionError(f"density matrix shape {arr.shape} != ({d}, {d})")
        check_state(arr)
        arr.setflags(write=False)
        object.__setattr__(self, "data", arr)

    def density(self) -> np.ndarray:
        """Density-matrix form regardless of kind."""
        if self.kind == "pure":
            return np.outer(self.data, self.data.conj())
        return np.array(self.data, copy=True)

    def populations(self) -> np.ndarray:
        """Diagonal populations in the product basis."""
        if self.kind == "pure":
            return np.abs(self.data) ** 2
        return np.real(np.diag(self.data)).copy()


def annihilation(dim: int) -> Operator:
    """Bosonic lowering operator on a single truncated mode.

    Entries sqrt(k) at (k-1, k); requires ``dim >= 2``.
    """
    if dim < 2:
        raise DimensionError(f"annihilation needs dim >= 2, got {dim}")
    mat = np.diag(np.sqrt(np.arange(1, dim, dtype=float)), k=1).astype(complex)
    return Operator(HilbertSpace.single("mode", dim), mat)


def basis_state(space: HilbertSpace, occupations: Sequence[int]) -> QuantumState:
    """Product basis state |i0, i1, ...>."""
    for occ, dim in zip(occupations, space.dims):
        if not 0 <= occ < dim:
            raise DimensionError(f"occupation {occ} outside dimension {dim}")
    vec = np.zeros(space.total_dim, dtype=complex)
    vec[space.index(occupations)] = 1.0
    return QuantumState(space, "pure", vec)


def coherent_truncation_leakage(beta: complex, dim: int) -> float:
    """Poisson weight lying above the Fock cutoff (before renormalization).

    The weights e^-x x^j / j!, x = |beta|^2, are taken from their logarithms,
    so neither x^j nor e^-x leaves float range; ValueError for a NaN beta.
    """
    if cmath.isnan(beta):
        raise ValueError(f"coherent amplitude must not be NaN, got {beta}")
    r = abs(beta)
    if r == 0.0:
        return 0.0
    x = r * r
    if math.isinf(x):  # |beta| beyond float range squared: no weight lies inside any cutoff
        return 1.0
    log_x = 2.0 * math.log(r)
    inside = math.fsum(math.exp(j * log_x - x - math.lgamma(j + 1)) for j in range(dim))
    return max(0.0, 1.0 - inside)


def coherent_state(beta: complex, dim: int) -> QuantumState:
    """Truncated, renormalized coherent state with amplitudes ~ beta^j/sqrt(j!).

    The recursion starts at 2^-k, k = floor(|beta|^2 / (2 ln 2)), instead of 1,
    so the largest amplitude, ~exp(|beta|^2 / 2), stays near 1 where beta^j/sqrt(j!)
    itself would overflow (|beta|^2 past ~709).  A power-of-two scale is exact,
    and the renormalization removes it.

    Raises
    ------
    TruncationError
        If the Poisson weight captured inside the cutoff falls below
        ``1 - COHERENT_LEAKAGE_MAX``.
    ValueError
        If 2^-k underflows to zero: |beta|^2 >= 1075 * 2 ln 2 (about 1490).
    """
    if dim < 1:
        raise DimensionError(f"coherent state needs dim >= 1, got {dim}")
    leakage = coherent_truncation_leakage(beta, dim)
    if leakage > COHERENT_LEAKAGE_MAX:
        raise TruncationError(
            f"cutoff {dim} leaks {leakage:.3e} of the |beta|={abs(beta):.3g} "
            f"coherent state (limit {COHERENT_LEAKAGE_MAX:.0e}); raise the cutoff"
        )
    mean = abs(beta) ** 2
    start = math.ldexp(1.0, -math.floor(mean / (2.0 * math.log(2.0))))
    if start == 0.0:
        raise ValueError(f"coherent state with |beta|^2 = {mean:.6g} is past the amplitude "
                         f"recursion's limit |beta|^2 < {1075 * 2.0 * math.log(2.0):.1f}")
    amps = np.empty(dim, dtype=complex)
    amps[0] = start
    for j in range(1, dim):
        amps[j] = amps[j - 1] * beta / math.sqrt(j)
    amps /= np.linalg.norm(amps)
    return QuantumState(HilbertSpace.single("mode", dim), "pure", amps)


def superposed_state(dim: int, excitation: int = 1) -> QuantumState:
    """Single-mode superposition (|0> + |N>)/sqrt(2)."""
    if not 1 <= excitation < dim:
        raise DimensionError(f"excitation {excitation} outside cutoff {dim}")
    vec = np.zeros(dim, dtype=complex)
    vec[0] = vec[excitation] = 1.0 / math.sqrt(2.0)
    return QuantumState(HilbertSpace.single("mode", dim), "pure", vec)


def product_state(space: HilbertSpace, parts: Mapping[str, QuantumState]) -> QuantumState:
    """Tensor product of pure single-subsystem states, one per subsystem."""
    missing = set(space.labels) - set(parts)
    if missing:
        raise UnknownLabelError(f"missing states for subsystems {sorted(missing)}")
    vecs = []
    for label, dim in space.subsystems:
        part = parts[label]
        if part.kind != "pure":
            raise StateValidationError(f"part {label!r} must be pure")
        if part.space.total_dim != dim:
            raise DimensionError(f"part {label!r} has dimension {part.space.total_dim} != {dim}")
        vecs.append(part.data)
    return QuantumState(space, "pure", reduce(np.kron, vecs))


def bell_state(space: HilbertSpace, excitation: int = 1, sign: int = +1) -> QuantumState:
    """Two-mode Bell state (|0,0> + sign |N,N>)/sqrt(2) on a two-subsystem space."""
    if len(space.subsystems) != 2:
        raise DimensionError("bell_state needs a two-subsystem space")
    if sign not in (+1, -1):
        raise ValueError("sign must be +1 or -1")
    n = excitation
    if not 1 <= n < min(space.dims):
        raise DimensionError(f"excitation {n} outside cutoffs {space.dims}")
    vec = np.zeros(space.total_dim, dtype=complex)
    vec[space.index((0, 0))] = 1.0 / math.sqrt(2.0)
    vec[space.index((n, n))] = sign / math.sqrt(2.0)
    return QuantumState(space, "pure", vec)


def fidelity(state: QuantumState, target: QuantumState) -> float:
    """Overlap fidelity <target|rho|target> (mixed) or |<target|psi>|^2 (pure).

    The target must be pure and live on the same space as the state.
    """
    if target.kind != "pure":
        raise StateValidationError("fidelity target must be a pure state")
    if state.space != target.space:
        raise SpaceMismatchError("state and target on different spaces")
    t = target.data
    if state.kind == "pure":
        value = abs(np.vdot(t, state.data)) ** 2
    else:
        value = float(np.real(np.vdot(t, state.data @ t)))
    return float(min(max(value, 0.0), 1.0))
