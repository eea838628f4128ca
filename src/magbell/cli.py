"""Experiment runner: named scenarios with machine-readable CSV/JSON output.

Each scenario binds one headline result of the protocol to a strict YAML
config.  All frequencies and rates are in units of the magnon frequency,
times in units of its inverse.  Identical config and seed give byte-identical
output, and the metadata header of every result is sufficient to re-run it.
The protocol scenarios (bell-distill, half-interval, decohere-prepare,
coherent-distill, nbell) are presets over one runner: the params pick the
initial state and the loss rates, and a preset fixes only the interval mode
and its extra result keys; stabilize shares that runner's config builder.

Exit codes: 0 success, 2 config error (also a value the library rejects),
3 physics-regime violation, 4 optimizer abort.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass
from functools import partial

import numpy as np
import yaml

from . import __version__
from .dynamics import NonHermitianError, TraceDriftError
from .hilbert import (
    DimensionError,
    TruncationError,
    bell_state,
    coherent_state,
    product_state,
    superposed_state,
)
from .measurement import (
    NullOutcomeError,
    ProtocolConfig,
    TargetOverlapError,
    coupling_ratio_fidelity,
    interval_for_target,
    run_protocol,
    stabilize,
)
from .model import (
    COHERENT_COUPLING_RATIO,
    EffectiveParams,
    ModelParams,
    ZeroDetuningError,
    _magnon_space,
    dispersive_evolution_fidelity,
    effective_couplings,
    sw_reduction_check,
)
from .optimize import ObjectiveError, OptimizerConfig, optimize_single_shot

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_PHYSICS = 3
EXIT_OPTIMIZER = 4

PHYSICS_ERRORS = (
    TruncationError,
    ZeroDetuningError,
    TargetOverlapError,
    NullOutcomeError,
    TraceDriftError,
    NonHermitianError,
    DimensionError,
)

_HEADER_TAG = "magbell-result/1"


class ConfigError(ValueError):
    """Config file is missing, malformed, or carries unknown/invalid keys."""


@dataclass(frozen=True)
class ExperimentConfig:
    scenario: str
    params: dict
    seed: int = 0
    output: str | None = None
    format: str = "csv"


@dataclass(frozen=True, eq=False)
class ResultTable:
    metadata: dict
    columns: tuple[str, ...]
    rows: tuple[tuple[float, ...], ...]


def _positive(caster):
    def cast(value):
        out = caster(value)
        if out <= 0:
            raise ValueError(f"must be positive, got {out}")
        return out

    return cast


def _nonneg(caster):
    def cast(value):
        out = caster(value)
        if out < 0:
            raise ValueError(f"must be nonnegative, got {out}")
        return out

    return cast


def _choice(*options):
    def cast(value):
        if value not in options:
            raise ValueError(f"must be one of {options}, got {value!r}")
        return value

    return cast


def _number(value) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"expected a number, got {value!r}")
    out = float(value)  # OverflowError for an integer beyond float range
    if not math.isfinite(out):
        raise ValueError(f"expected a finite number, got {value!r}")
    return out


def _integer(value) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"expected an integer, got {value!r}")
    return int(value)


def _protocol_schema(G: float, rounds: int, cutoff: int, G_f: float | None = None,
                     **extra) -> dict:
    """Couplings, detuning, rounds and cutoff of a protocol scenario, then its own keys."""
    return {
        "G_e": (_positive(_number), G),
        "G_f": (_positive(_number), G if G_f is None else G_f),
        "Delta": (_number, 0.0),
        "rounds": (_positive(_integer), rounds),
        "cutoff": (_positive(_integer), cutoff),
        **extra,
    }


_LOSS_RATES = {"gamma_n": (_nonneg(_number), 1e-4), "gamma_m": (_nonneg(_number), 1e-4)}
_COHERENT_G_F = COHERENT_COUPLING_RATIO * 1e-3

# scenario -> {key: (caster, default)}; all physical values in magnon-frequency units
SCENARIO_SCHEMAS: dict[str, dict] = {
    "bell-distill": _protocol_schema(
        1e-3, 8, 3, interval_mode=(_choice("full", "half"), "full")),
    "half-interval": _protocol_schema(1e-3, 16, 3),
    "decohere-prepare": _protocol_schema(6e-3, 8, 3, **_LOSS_RATES),
    "stabilize": _protocol_schema(6e-3, 8, 3, **_LOSS_RATES),
    "coherent-distill": _protocol_schema(
        1e-3, 50, 10, G_f=_COHERENT_G_F,
        beta_n=(_number, 1.0), beta_m=(_number, 1.0), target_N=(_positive(_integer), 1)),
    "nbell": _protocol_schema(
        1e-3, 1000, 10, G_f=_COHERENT_G_F,
        target_N=(_positive(_integer), 3), beta=(_number, 1.3)),
    "single-shot": {
        "G": (_positive(_number), 1e-3),
        "n_omega": (_nonneg(_integer), 4),
        "restarts": (_positive(_integer), 8),
        "max_iter": (_positive(_integer), 4000),
        "spread_tol": (_positive(_number), 1e-10),
        "slices": (_positive(_integer), 512),
    },
    "coupling-ratio": {
        "xi_min": (_positive(_number), 0.8),
        "xi_max": (_positive(_number), 1.2),
        "points": (_positive(_integer), 81),
    },
    "validate-dispersive": {
        "coupling_ratio": (_positive(_number), 0.05),
        "base_detuning": (_positive(_number), 0.4),
    },
}

# scenario -> {key: caster} for params that no longer affect a run: still
# accepted and checked, so old result headers re-run, then dropped.  Lossy
# rounds apply exp(L tau) exactly and have no RK4 step count to set; the
# dispersive checks run on every state up to an excitation cap, with no cutoff.
RETIRED_PARAMS: dict[str, dict] = {
    "decohere-prepare": {"steps_per_round": _positive(_integer)},
    "stabilize": {"steps_per_round": _positive(_integer)},
    "validate-dispersive": {"cavity_cutoff": _positive(_integer),
                            "magnon_cutoff": _positive(_integer)},
}

_TOP_LEVEL_KEYS = {"scenario", "params", "seed", "output", "format"}


def load_config(path: str) -> ExperimentConfig:
    """Parse and strictly validate a YAML experiment config."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = yaml.safe_load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path!r}: {exc}") from exc
    except yaml.YAMLError as exc:
        raise ConfigError(f"malformed YAML in {path!r}: {exc}") from exc
    return config_from_mapping(raw)


def config_from_mapping(raw) -> ExperimentConfig:
    if not isinstance(raw, dict):
        raise ConfigError("config must be a mapping")
    unknown = set(raw) - _TOP_LEVEL_KEYS
    if unknown:
        raise ConfigError(f"unknown top-level keys {sorted(unknown)}; allowed: {sorted(_TOP_LEVEL_KEYS)}")
    if "scenario" not in raw:
        raise ConfigError("missing required key 'scenario'")
    scenario = raw["scenario"]
    if scenario not in SCENARIO_SCHEMAS:
        raise ConfigError(f"unknown scenario {scenario!r}; known: {sorted(SCENARIO_SCHEMAS)}")
    fmt = raw.get("format", "csv")
    if fmt not in ("csv", "json"):
        raise ConfigError(f"format must be 'csv' or 'json', got {fmt!r}")
    seed = raw.get("seed", 0)
    try:
        seed = _nonneg(_integer)(seed)
    except ValueError as exc:
        raise ConfigError(f"invalid seed: {exc}") from exc
    output = raw.get("output")
    if output is not None and not isinstance(output, str):
        raise ConfigError(f"output must be a string path, got {output!r}")
    params = raw.get("params")
    params = _resolve_params(scenario, {} if params is None else params)  # absent, or YAML null
    return ExperimentConfig(scenario=scenario, params=params, seed=seed, output=output, format=fmt)


def _resolve_params(scenario: str, given: dict) -> dict:
    if not isinstance(given, dict):
        raise ConfigError("params must be a mapping")
    schema = SCENARIO_SCHEMAS[scenario]
    retired = RETIRED_PARAMS.get(scenario, {})
    unknown = set(given) - set(schema) - set(retired)
    if unknown:
        raise ConfigError(
            f"unknown params {sorted(unknown)} for scenario {scenario!r}; allowed: {sorted(schema)}"
        )
    for key in set(given) & set(retired):
        try:
            retired[key](given[key])
        except ValueError as exc:
            raise ConfigError(f"invalid value for {scenario}/{key}: {exc}") from exc
    resolved = {}
    for key, (caster, default) in schema.items():
        value = given.get(key, default)
        try:
            resolved[key] = caster(value)
        except (ValueError, OverflowError) as exc:
            raise ConfigError(f"invalid value for {scenario}/{key}: {exc}") from exc
    return resolved


def _protocol_config(p: dict, interval_mode: str = "full") -> ProtocolConfig:
    """Protocol settings of a scenario; loss rates, when present, switch on decay."""
    eff = EffectiveParams(G_e=p["G_e"], G_f=p["G_f"],
                          Delta_e_tilde=p["Delta"], Delta_f_tilde=p["Delta"])
    decoherence = (p["gamma_n"], p["gamma_m"]) if "gamma_n" in p else None
    return ProtocolConfig.for_target(eff, rounds=p["rounds"], target_N=p.get("target_N", 1),
                                     interval_mode=interval_mode, decoherence=decoherence)


def _initial_state(p: dict):
    """Coherent product when the params carry amplitudes, else |+> (x) |+>."""
    cutoff = p["cutoff"]
    beta_n, beta_m = p.get("beta_n", p.get("beta")), p.get("beta_m", p.get("beta"))
    if beta_n is None:
        plus = superposed_state(cutoff, 1)
        parts = {"n": plus, "m": plus}
    else:
        parts = {"n": coherent_state(beta_n, cutoff), "m": coherent_state(beta_m, cutoff)}
    return product_state(_magnon_space(cutoff), parts)


_PROTOCOL_COLUMNS = ("round", "fidelity_plus", "fidelity_minus",
                     "success_probability", "even_population")


def _run_protocol_scenario(p: dict, seed: int, extra_results: tuple[str, ...] = (),
                         interval_mode: str | None = None):
    """One protocol run; a preset fixes the interval mode and the extra result keys."""
    cfg = _protocol_config(p, interval_mode or p.get("interval_mode", "full"))
    record = run_protocol(_initial_state(p), cfg)
    rows = tuple(
        (float(k), float(record.fidelity_plus[k]), float(record.fidelity_minus[k]),
         float(record.success_probability[k]), float(record.even_population[k]))
        for k in range(cfg.rounds + 1)
    )
    available = {
        "final_fidelity_plus": float(record.fidelity_plus[-1]),
        "final_fidelity_minus": float(record.fidelity_minus[-1]),
        "final_success_probability": float(record.success_probability[-1]),
        "slow_states": [list(s) for s in record.slow_states],
        "tau": cfg.tau,
    }
    keys = ("final_fidelity_plus", "final_success_probability", "tau") + extra_results
    return _PROTOCOL_COLUMNS, rows, {key: available[key] for key in keys}


def _run_stabilize(p: dict, seed: int):
    cfg = _protocol_config(p)
    f_stab, f_free = stabilize(bell_state(_magnon_space(p["cutoff"]), cfg.target_N, +1), cfg)
    rows = tuple(
        (float(k), float(k * cfg.tau), float(f_stab[k]), float(f_free[k]))
        for k in range(len(f_stab))
    )
    results = {
        "final_fidelity_stabilized": float(f_stab[-1]),
        "final_fidelity_free": float(f_free[-1]),
        "tau": cfg.tau,
    }
    return ("round", "time", "fidelity_stabilized", "fidelity_free"), rows, results


def _run_single_shot(p: dict, seed: int):
    eff = EffectiveParams(G_e=p["G"], G_f=p["G"])
    cfg = OptimizerConfig(n_omega=p["n_omega"], spread_tol=p["spread_tol"],
                          max_iter=p["max_iter"], restarts=p["restarts"], seed=seed)
    result = optimize_single_shot(eff, cfg, slices=p["slices"])
    rows = tuple(
        (float(k), float(result.times[k]), float(result.fidelity_trace[k]))
        for k in range(len(result.times))
    )
    results = {
        "achieved_fidelity": float(result.fidelity),
        "success_probability": float(result.success_probability),
        "baseline_fidelity": float(result.baseline_fidelity),
        "coefficients_a": list(result.pulse.a),
        "coefficients_b": list(result.pulse.b),
        "iterations": int(result.iterations),
        "tau_total": float(result.pulse.tau_total),
    }
    return ("slice", "time", "fidelity"), rows, results


def _run_coupling_ratio(p: dict, seed: int):
    if p["xi_max"] <= p["xi_min"]:
        raise ConfigError("xi_max must exceed xi_min")
    xis = np.linspace(p["xi_min"], p["xi_max"], p["points"])
    rows = tuple(
        (float(xi), coupling_ratio_fidelity(float(xi)),
         coupling_ratio_fidelity(float(xi), approximate=True))
        for xi in xis
    )
    best = max(range(len(rows)), key=lambda i: rows[i][1])
    results = {"argmax_xi": rows[best][0], "max_fidelity": rows[best][1]}
    return ("xi", "fidelity_exact", "fidelity_approx"), rows, results


def _validation_params(ratio: float, base_detuning: float) -> ModelParams:
    """Bare two-cavity parameters realizing the requested g/Delta ratio.

    Magnons and qutrit levels sit at the magnon frequency; both cavities are
    detuned below by base_detuning, so all four detunings are equal and the
    reduced model is exactly resonant with G = ratio^2 * base_detuning.
    """
    g = ratio * base_detuning
    return ModelParams(
        omega_a=1.0 - base_detuning, omega_b=1.0 - base_detuning,
        omega_n=1.0, omega_m=1.0, omega_e=1.0, omega_f=1.0,
        g_n=g, g_m=g, g_e=g, g_f=g,
    )


def _run_validate_dispersive(p: dict, seed: int):
    ratio, half = p["coupling_ratio"], 0.5 * p["coupling_ratio"]
    params = _validation_params(ratio, p["base_detuning"])
    residual = sw_reduction_check(params)
    residual_half = sw_reduction_check(_validation_params(half, p["base_detuning"]))
    plus = superposed_state(2, 1)
    state = product_state(_magnon_space(2), {"n": plus, "m": plus})
    tau0 = interval_for_target(1, effective_couplings(params))
    fid = dispersive_evolution_fidelity(params, state, tau0)
    rows = ((float(ratio), residual, fid), (float(half), residual_half, float("nan")))
    results = {"residual_log2_slope": float(np.log2(residual / residual_half)),
               "evolution_fidelity": fid}
    return ("coupling_ratio", "sw_residual", "evolution_fidelity"), rows, results


_RUNNERS = {
    "bell-distill": partial(_run_protocol_scenario, extra_results=("final_fidelity_minus",)),
    "half-interval": partial(_run_protocol_scenario, extra_results=("final_fidelity_minus",),
                             interval_mode="half"),
    "decohere-prepare": _run_protocol_scenario,
    "stabilize": _run_stabilize,
    "coherent-distill": partial(_run_protocol_scenario, extra_results=("slow_states",)),
    "nbell": partial(_run_protocol_scenario, extra_results=("slow_states",)),
    "single-shot": _run_single_shot,
    "coupling-ratio": _run_coupling_ratio,
    "validate-dispersive": _run_validate_dispersive,
}


def run_scenario(cfg: ExperimentConfig) -> ResultTable:
    """Execute a scenario and return its deterministic result table."""
    columns, rows, results = _RUNNERS[cfg.scenario](cfg.params, cfg.seed)
    metadata = {
        "format": _HEADER_TAG,
        "version": __version__,
        "scenario": cfg.scenario,
        "seed": cfg.seed,
        "params": cfg.params,
        "units": {"frequency": "omega_m", "time": "1/omega_m"},
        "results": results,
    }
    return ResultTable(metadata=metadata, columns=tuple(columns), rows=tuple(rows))


def emit(table: ResultTable, format: str) -> bytes:
    """Serialize a table: CSV with '#' metadata header lines, or one JSON doc."""
    if format == "json":
        doc = {"metadata": table.metadata, "columns": list(table.columns),
               "rows": [list(r) for r in table.rows]}
        return (json.dumps(doc, sort_keys=True, indent=2) + "\n").encode()
    if format != "csv":
        raise ValueError(f"unknown format {format!r}")
    lines = [
        f"# {_HEADER_TAG}",
        "# " + json.dumps(table.metadata, sort_keys=True),
        ",".join(table.columns),
    ]
    for row in table.rows:
        if len(row) != len(table.columns):
            raise ValueError("row length differs from column count")
        lines.append(",".join(format_value(v) for v in row))
    return ("\n".join(lines) + "\n").encode()


def format_value(value: float) -> str:
    return format(float(value), ".12g")


def config_from_metadata(metadata: dict) -> ExperimentConfig:
    """Rebuild the experiment config recorded in a result's metadata."""
    return config_from_mapping({
        "scenario": metadata["scenario"],
        "seed": metadata["seed"],
        "params": metadata["params"],
    })


def parse_result_header(blob: bytes) -> dict:
    """Extract the metadata JSON from an emitted CSV result."""
    for line in blob.decode().splitlines():
        if line.startswith("# {"):
            return json.loads(line[2:])
    raise ConfigError("no metadata header found")


def _error_record(exc: Exception) -> str:
    return json.dumps({"error": type(exc).__name__, "message": str(exc)}, sort_keys=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="magbell",
        description="Parity-measurement distillation of two-mode magnon Bell states.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    run_p = sub.add_parser("run", help="run a scenario from a config file")
    run_p.add_argument("--config", required=True, help="YAML experiment config")
    run_p.add_argument("--format", choices=("csv", "json"), default=None,
                       help="output format (overrides config)")
    run_p.add_argument("--out", default=None, help="output path (overrides config; default stdout)")
    run_p.add_argument("--seed", type=int, default=None, help="seed (overrides config)")
    val_p = sub.add_parser("validate", help="parse and validate a config file only")
    val_p.add_argument("--config", required=True)

    args = parser.parse_args(argv)
    try:
        cfg = load_config(args.config)
        if args.command == "validate":
            print(json.dumps({"ok": True, "scenario": cfg.scenario, "params": cfg.params},
                             sort_keys=True))
            return EXIT_OK
        if args.seed is not None:
            if args.seed < 0:
                raise ConfigError("seed must be nonnegative")
            cfg = ExperimentConfig(scenario=cfg.scenario, params=cfg.params, seed=args.seed,
                                   output=cfg.output, format=cfg.format)
        fmt = args.format or cfg.format
        table = run_scenario(cfg)
        blob = emit(table, fmt)
        out_path = args.out or cfg.output
        if out_path:
            with open(out_path, "wb") as fh:
                fh.write(blob)
        else:
            sys.stdout.buffer.write(blob)
        return EXIT_OK
    except ConfigError as exc:
        print(_error_record(exc), file=sys.stderr)
        return EXIT_CONFIG
    except ObjectiveError as exc:
        print(_error_record(exc), file=sys.stderr)
        return EXIT_OPTIMIZER
    except PHYSICS_ERRORS as exc:
        print(_error_record(exc), file=sys.stderr)
        return EXIT_PHYSICS
    except ValueError as exc:  # a setting the library rejects, e.g. couplings with no interval
        print(_error_record(exc), file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    raise SystemExit(main())
