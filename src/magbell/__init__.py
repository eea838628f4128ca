"""Parity-measurement distillation of two-mode magnon Bell states.

A desk-scale simulation library for a hybrid magnonic system: two bosonic
magnon modes dispersively coupled to a V-type qutrit through cavity modes.
Repeated ground-state projections of the qutrit act as an effective parity
measurement on the magnons and distill Bell states of the form
(|0,0> + |N,N>)/sqrt(2), also under magnon loss; a CRAB-shaped detuning
pulse turns the scheme into a single-shot measurement.
"""

__version__ = "0.1.0"

from .hilbert import (
    HilbertSpace,
    Operator,
    QuantumState,
    annihilation,
    basis_state,
    bell_state,
    coherent_state,
    fidelity,
    product_state,
    superposed_state,
)
from .model import (
    COHERENT_COUPLING_RATIO,
    EffectiveParams,
    ModelParams,
    PulseCoefficients,
    SingleModeParams,
    build_full,
    build_jc_effective,
    build_time_dependent_jc,
    detuning_match,
    effective_couplings,
    lamb_shifts,
    sw_generator,
    sw_reduction_check,
)
from .dynamics import (
    IntegratorConfig,
    LindbladSpec,
    integrate_master,
    lindblad_channel,
    propagator,
    time_ordered_propagator,
)
from .measurement import (
    ProtocolConfig,
    ProtocolRecord,
    analytic_kraus,
    apply_projection,
    coupling_ratio_fidelity,
    interval_for_target,
    numeric_kraus,
    rabi_frequency,
    run_protocol,
    stabilize,
)
from .optimize import (
    OptimizationResult,
    OptimizerConfig,
    optimize_single_shot,
)

__all__ = [
    "__version__",
    "HilbertSpace", "Operator", "QuantumState",
    "annihilation", "basis_state", "bell_state", "coherent_state",
    "fidelity", "product_state", "superposed_state",
    "COHERENT_COUPLING_RATIO",
    "EffectiveParams", "ModelParams", "PulseCoefficients", "SingleModeParams",
    "build_full", "build_jc_effective", "build_time_dependent_jc",
    "detuning_match", "effective_couplings", "lamb_shifts", "sw_generator",
    "sw_reduction_check",
    "IntegratorConfig", "LindbladSpec", "integrate_master",
    "lindblad_channel", "propagator", "time_ordered_propagator",
    "ProtocolConfig", "ProtocolRecord", "analytic_kraus", "apply_projection",
    "coupling_ratio_fidelity", "interval_for_target", "numeric_kraus",
    "rabi_frequency", "run_protocol", "stabilize",
    "OptimizationResult", "OptimizerConfig", "optimize_single_shot",
]
