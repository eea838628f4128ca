"""Experiment runner: named scenarios with machine-readable CSV/JSON output.

Each scenario binds one headline result of the protocol to a strict YAML
config.  All frequencies and rates are in units of the magnon frequency,
times in units of its inverse.  Identical config and seed give byte-identical
output, and the metadata header of every result is sufficient to re-run it.

One table, ``SCENARIOS``, maps each scenario name to its params schema and
its plan.  A plan checks the work and time budgets before anything is
allocated, builds and checks everything the run makes before its first round
or search, and returns the run, which gives its named columns, each a 1-D
sequence, and its headline results.  ``run_scenario`` plans, runs and builds
the rows from the columns; ``validate`` runs the plan only, so it exits as
``run`` does on every failure before the rounds or the search.  The protocol
scenarios (bell-distill, half-interval, decohere-prepare, coherent-distill,
nbell) are presets over one plan: the params pick the initial state and the
loss rates, and a preset fixes only the interval mode and its extra result
keys; stabilize shares that plan's config builder, budgets included.
The config names the scenario, its params and the seed; only the flags
(``--format``, ``--out``) choose where and how the result is written.

Exit codes, read from the one table ``EXIT_CODES``: 0 success, 2 config error
(also a value the library rejects, or an output path that cannot be written),
3 physics-regime violation (also a state that fails its check mid-run), 4
optimizer abort.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import warnings
from dataclasses import dataclass
from functools import partial

import numpy as np
import yaml

from . import __version__, measurement
from .dynamics import NonHermitianError, TraceDriftError
from .hilbert import (
    DimensionError,
    StateValidationError,
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
)
from .model import (
    COHERENT_COUPLING_RATIO,
    DispersiveRegimeWarning,
    EffectiveParams,
    ModelParams,
    ZeroDetuningError,
    _magnon_space,
    dispersive_evolution_fidelity,
    effective_couplings,
    sw_reduction_check,
)
from .optimize import DEFAULT_SLICES, MAX_CALLS, ObjectiveError, optimize_single_shot

_HEADER_TAG = "magbell-result/1"


class ConfigError(ValueError):
    """Config file is missing, malformed, or carries unknown/invalid keys."""


# error -> exit code; the first class the error is an instance of decides, so
# every ValueError subclass precedes ValueError
EXIT_CODES = {
    ConfigError: 2,
    ObjectiveError: 4,
    **dict.fromkeys((TruncationError, ZeroDetuningError, TargetOverlapError, NullOutcomeError,
                     TraceDriftError, StateValidationError, NonHermitianError, DimensionError), 3),
    ValueError: 2,  # a setting the library rejects, e.g. couplings with no interval
    OSError: 2,  # e.g. an --out path in a missing directory
}


@dataclass(frozen=True)
class ExperimentConfig:
    scenario: str
    params: dict
    seed: int = 0


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
    try:
        out = float(value)
    except OverflowError as exc:  # an integer beyond float range
        raise ValueError(exc) from None
    if not math.isfinite(out):
        raise ValueError(f"expected a finite number, got {value!r}")
    return out


def _integer(value) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"expected an integer, got {value!r}")
    _number(value)  # ValueError for an integer beyond float range, which a run cannot count to
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
_TOP_LEVEL_KEYS = ("scenario", "params", "seed")
# The most memory one config may ask a run for, in bytes, and what its params
# cost, each above the tracemalloc peaks measured:
# - one result row with its per-round records: 310-880 bytes per row for
#   bell-distill, stabilize and single-shot at 2e4-1e5 rows, and 330-660 for
#   coupling-ratio at 1e4-4e5 points, CSV or JSON;
# - a protocol run's complex state arrays of cutoff^2 entries: the magnon amplitudes,
#   their return amplitudes and a closed round's products (every round and a lossy
#   run's channel work on the input's box); 5.5-10.2 of them for bell-distill, nbell
#   and coherent-distill at cutoffs 10-1000, 5.5 for the lossy ones at 300 and 1000.
# The largest shipped or benchmarked size, 2000 rounds, stays over 1000 times
# under the budget.
_WORK_BUDGET_BYTES = 2**31
_ROW_BYTES = 1024
_STATE_ARRAYS = 12
# The longest one config may ask a run to take, in seconds, estimated from
# per-unit costs measured with one BLAS thread on a 2-core Xeon:
# - a search makes at most restarts x MAX_CALLS objective calls, each about
#   0.15 ms + 3 ns x 2 n_omega (512 + 2 n_omega), for the CRAB table and the
#   inverse Hessian at DEFAULT_SLICES = 512; calls timed at 0.15, 0.47, 1.6-2.0
#   and 13-20 ms at n_omega 4, 128, 256 and 1024 lie within 60 % of it;
# - a closed protocol run updates rounds x its input's box's magnon amplitudes, at
#   most cutoff^2, about 6.4 ns each per round (6.1-6.4 ns at cutoffs 100 and 1000).
# A lossy run needs no estimate: its rounds, on its input's 2 x 2 box, take 34-65 us
# (decohere-prepare) or 50-130 us (stabilize) at every cutoff from 3 to 30, so the
# 2,097,151 rounds the row budget admits take at most about 5 minutes.
# A coupling-ratio scan needs no estimate: at the 2,097,152 points the work
# budget admits, the scan took 0.86 s and its CSV emit 1.4 s.  The budget, ~27
# minutes, lets n_omega = 4 make 2500 restarts but not 2501, as the call budget
# of 10^7 calls did; the shipped and benchmarked sizes stay over 100 times under it.
_TIME_BUDGET_S = 1625


def load_config(path: str) -> ExperimentConfig:
    """Parse and strictly validate a YAML experiment config."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = yaml.safe_load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path!r}: {exc}") from exc
    except yaml.YAMLError as exc:
        raise ConfigError(f"malformed YAML in {path!r}: {exc}") from exc
    except ValueError as exc:  # a value PyYAML cannot build (a bad date, a huge int) or a non-UTF-8 byte
        raise ConfigError(f"unreadable value in {path!r}: {exc}") from exc
    except RecursionError as exc:  # PyYAML's scanner and composer recurse once per nesting level
        raise ConfigError(f"config {path!r} is nested too deeply to parse: {exc}") from exc
    return config_from_mapping(raw)


def _reject_unknown(given: dict, allowed, what: str) -> None:
    unknown = set(given) - set(allowed)
    if unknown:  # sorted by str: a YAML key may also be a number or null
        raise ConfigError(f"unknown {what} {sorted(unknown, key=str)}; allowed: {sorted(allowed)}")


def config_from_mapping(raw) -> ExperimentConfig:
    if not isinstance(raw, dict):
        raise ConfigError("config must be a mapping")
    _reject_unknown(raw, _TOP_LEVEL_KEYS, "top-level keys")
    if "scenario" not in raw:
        raise ConfigError("missing required key 'scenario'")
    scenario = raw["scenario"]
    if not isinstance(scenario, str) or scenario not in SCENARIOS:
        raise ConfigError(f"unknown scenario {scenario!r}; known: {sorted(SCENARIOS)}")
    try:
        seed = _nonneg(_integer)(raw.get("seed", 0))
    except ValueError as exc:
        raise ConfigError(f"invalid seed: {exc}") from exc
    params = raw.get("params")
    params = _resolve_params(scenario, {} if params is None else params)  # absent, or YAML null
    return ExperimentConfig(scenario=scenario, params=params, seed=seed)


def _resolve_params(scenario: str, given: dict) -> dict:
    if not isinstance(given, dict):
        raise ConfigError("params must be a mapping")
    schema = SCENARIOS[scenario][0]
    _reject_unknown(given, schema, f"params for scenario {scenario!r}:")
    resolved = {}
    for key, (caster, default) in schema.items():
        value = given.get(key, default)
        try:
            resolved[key] = caster(value)
        except ValueError as exc:
            raise ConfigError(f"invalid value for {scenario}/{key}: {exc}") from exc
    if scenario == "coupling-ratio" and resolved["xi_max"] <= resolved["xi_min"]:
        raise ConfigError("xi_max must exceed xi_min")
    return resolved


def _budget(keys: str, size: int = 0, seconds: float = 0.0) -> None:
    """ConfigError naming keys ("scenario/key, ...") if size bytes or seconds pass the budgets."""
    if size > _WORK_BUDGET_BYTES:
        raise ConfigError(f"{keys}: the run would hold {size} bytes, "
                          f"over the work budget of {_WORK_BUDGET_BYTES} bytes")
    if seconds > _TIME_BUDGET_S:
        raise ConfigError(f"{keys}: the run could take about {seconds:.6g} s, "
                          f"over the time budget of {_TIME_BUDGET_S} s")


def _protocol_config(scenario: str, p: dict, interval_mode: str = "full") -> ProtocolConfig:
    """Protocol settings of a scenario, within the budgets; loss rates, when present, switch on decay."""
    rounds, cutoff = p["rounds"], p["cutoff"]
    dim = cutoff**2  # of the magnon space
    decoherence = (p["gamma_n"], p["gamma_m"]) if "gamma_n" in p else None
    _budget(f"{scenario}/rounds", (rounds + 1) * _ROW_BYTES)
    _budget(f"{scenario}/cutoff", 16 * _STATE_ARRAYS * dim)
    if decoherence is None:
        _budget(f"{scenario}/rounds, cutoff", seconds=rounds * 6.4e-9 * dim)
    eff = EffectiveParams(G_e=p["G_e"], G_f=p["G_f"],
                          Delta_e_tilde=p["Delta"], Delta_f_tilde=p["Delta"])
    return ProtocolConfig.for_target(eff, rounds=rounds, target_N=p.get("target_N", 1),
                                     interval_mode=interval_mode, decoherence=decoherence)


def _plan_protocol(scenario: str, p: dict, seed: int, extra_results: tuple[str, ...] = (),
                   interval_mode: str | None = None):
    """One protocol run from the coherent product when the params carry amplitudes, else from
    |+> (x) |+>; a preset fixes the interval mode and the extra result keys."""
    cfg = _protocol_config(scenario, p, interval_mode or p.get("interval_mode", "full"))
    cutoff = p["cutoff"]
    beta_n, beta_m = p.get("beta_n", p.get("beta")), p.get("beta_m", p.get("beta"))
    if beta_n is None:
        plus = superposed_state(cutoff, 1)
        parts = {"n": plus, "m": plus}
    else:
        parts = {"n": coherent_state(beta_n, cutoff), "m": coherent_state(beta_m, cutoff)}
    *_, protocol = measurement._plan(product_state(_magnon_space(cutoff), parts), cfg)

    def run():
        record = protocol()[0]
        columns = {
            "round": np.arange(cfg.rounds + 1, dtype=float),
            "fidelity_plus": record.fidelity_plus,
            "fidelity_minus": record.fidelity_minus,
            "success_probability": record.success_probability,
            "even_population": record.even_population,
        }
        available = {
            "final_fidelity_plus": float(record.fidelity_plus[-1]),
            "final_fidelity_minus": float(record.fidelity_minus[-1]),
            "final_success_probability": float(record.success_probability[-1]),
            "slow_states": [list(s) for s in record.slow_states],
            "tau": cfg.tau,
        }
        keys = ("final_fidelity_plus", "final_success_probability", "tau") + extra_results
        return columns, {key: available[key] for key in keys}

    return run


def _plan_stabilize(scenario: str, p: dict, seed: int):
    cfg = _protocol_config(scenario, p)
    stabilize = measurement._plan_stabilize(bell_state(_magnon_space(p["cutoff"]), cfg.target_N, +1), cfg)

    def run():
        f_stab, f_free = stabilize()
        rounds = np.arange(len(f_stab), dtype=float)
        columns = {"round": rounds, "time": rounds * cfg.tau,
                   "fidelity_stabilized": f_stab, "fidelity_free": f_free}
        results = {
            "final_fidelity_stabilized": float(f_stab[-1]),
            "final_fidelity_free": float(f_free[-1]),
            "tau": cfg.tau,
        }
        return columns, results

    return run


def _plan_single_shot(scenario: str, p: dict, seed: int):
    # the search holds its basis table (DEFAULT_SLICES x 2 n_omega floats) and inverse Hessian;
    # restarts has no other bound, so a count past the float range takes infinite time
    dim = 2 * p["n_omega"]
    _budget(f"{scenario}/n_omega", 8 * dim * (DEFAULT_SLICES + dim))
    calls = p["restarts"] * MAX_CALLS
    per_call = 0.15e-3 + 3e-9 * dim * (DEFAULT_SLICES + dim)
    _budget(f"{scenario}/n_omega, restarts", seconds=calls * per_call if calls < 2**1000 else math.inf)
    interval_for_target(1, EffectiveParams(G_e=p["G"], G_f=p["G"]))  # the search's interval

    def run():
        result = optimize_single_shot(p["G"], p["n_omega"], p["restarts"], seed)
        columns = {"slice": np.arange(len(result.times), dtype=float), "time": result.times,
                   "fidelity": result.fidelity_trace}
        results = {
            "achieved_fidelity": float(result.fidelity),
            "slicing_error": float(result.slicing_error),
            "success_probability": float(result.success_probability),
            "baseline_fidelity": float(result.baseline_fidelity),
            "coefficients_a": list(result.pulse.a),
            "coefficients_b": list(result.pulse.b),
            "iterations": int(result.iterations),
            "tau_total": float(result.pulse.tau_total),
        }
        return columns, results

    return run


def _plan_coupling_ratio(scenario: str, p: dict, seed: int):
    _budget(f"{scenario}/points", p["points"] * _ROW_BYTES)
    xis = np.linspace(p["xi_min"], p["xi_max"], p["points"])
    exact = coupling_ratio_fidelity(xis)
    best = int(np.argmax(exact))
    results = {"argmax_xi": float(xis[best]), "max_fidelity": float(exact[best])}
    columns = {"xi": xis, "fidelity_exact": exact,
               "fidelity_approx": coupling_ratio_fidelity(xis, approximate=True)}
    return lambda: (columns, results)


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


def _plan_validate_dispersive(scenario: str, p: dict, seed: int):
    ratio, half, base = p["coupling_ratio"], 0.5 * p["coupling_ratio"], p["base_detuning"]
    params = _validation_params(ratio, base)
    residual = sw_reduction_check(params)
    residual_half = sw_reduction_check(_validation_params(half, base))
    # The residual is a difference of entries of the bare Hamiltonian on the
    # states of excitation <= 3, each rounded to eps of its size.  The largest
    # entry is at most 3 max|omega| = 3 max(1, |1 - base|) on the diagonal, or
    # 2 g off it (sqrt(n_c (n_x + 1)) <= 2), so the roundoff is below eps times
    # that sum.  A half residual 16 times above it moves the slope by < 0.1.
    floor = 16 * np.finfo(float).eps * (3 * max(1.0, abs(1.0 - base)) + 2 * ratio * base)
    if not residual_half > floor:
        raise ValueError(f"coupling_ratio {ratio:g} is too small to resolve: the residual at half "
                         f"of it, {residual_half:.3g}, is not above the roundoff floor {floor:.3g}")
    plus = superposed_state(2, 1)
    state = product_state(_magnon_space(2), {"n": plus, "m": plus})
    with warnings.catch_warnings():  # dispersive_evolution_fidelity warns once for the scenario
        warnings.simplefilter("ignore", DispersiveRegimeWarning)
        tau0 = interval_for_target(1, effective_couplings(params))
    fid = dispersive_evolution_fidelity(params, state, tau0)
    columns = {"coupling_ratio": [ratio, half], "sw_residual": [residual, residual_half],
               "evolution_fidelity": [fid, float("nan")]}
    results = {"residual_log2_slope": float(np.log2(residual / residual_half)),
               "evolution_fidelity": fid}
    return lambda: (columns, results)


# scenario -> (params schema {key: (caster, default)}, all physical values in
# magnon-frequency units; plan (scenario, params, seed) -> run, and run() ->
# ({column: 1-D values}, results))
SCENARIOS = {
    "bell-distill": (
        _protocol_schema(1e-3, 8, 3, interval_mode=(_choice("full", "half"), "full")),
        partial(_plan_protocol, extra_results=("final_fidelity_minus",))),
    "half-interval": (
        _protocol_schema(1e-3, 16, 3),
        partial(_plan_protocol, extra_results=("final_fidelity_minus",), interval_mode="half")),
    "decohere-prepare": (_protocol_schema(6e-3, 8, 3, **_LOSS_RATES), _plan_protocol),
    "stabilize": (_protocol_schema(6e-3, 8, 3, **_LOSS_RATES), _plan_stabilize),
    "coherent-distill": (
        _protocol_schema(1e-3, 50, 10, G_f=_COHERENT_G_F, beta_n=(_number, 1.0),
                         beta_m=(_number, 1.0), target_N=(_positive(_integer), 1)),
        partial(_plan_protocol, extra_results=("slow_states",))),
    "nbell": (
        _protocol_schema(1e-3, 1000, 10, G_f=_COHERENT_G_F,
                         target_N=(_positive(_integer), 3), beta=(_number, 1.3)),
        partial(_plan_protocol, extra_results=("slow_states",))),
    "single-shot": ({
        "G": (_positive(_number), 1e-3),
        "n_omega": (_nonneg(_integer), 4),
        "restarts": (_positive(_integer), 8),
    }, _plan_single_shot),
    "coupling-ratio": ({
        "xi_min": (_positive(_number), 0.8),
        "xi_max": (_positive(_number), 1.2),
        "points": (_positive(_integer), 81),
    }, _plan_coupling_ratio),
    "validate-dispersive": ({
        "coupling_ratio": (_positive(_number), 0.05),
        "base_detuning": (_positive(_number), 0.4),
    }, _plan_validate_dispersive),
}


def run_scenario(cfg: ExperimentConfig) -> ResultTable:
    """Plan a scenario, run it, and return its deterministic result table."""
    columns, results = SCENARIOS[cfg.scenario][1](cfg.scenario, cfg.params, cfg.seed)()
    # one .tolist() per column makes every value a Python float in a single call
    rows = tuple(zip(*(np.asarray(col, dtype=float).tolist() for col in columns.values()),
                     strict=True))
    metadata = {
        "format": _HEADER_TAG,
        "version": __version__,
        "scenario": cfg.scenario,
        "seed": cfg.seed,
        "params": cfg.params,
        "units": {"frequency": "omega_m", "time": "1/omega_m"},
        "results": results,
    }
    return ResultTable(metadata=metadata, columns=tuple(columns), rows=rows)


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
    # one %-format per row: "%.12g" % v gives the bytes of format(float(v), ".12g")
    row_format = ",".join(["%.12g"] * len(table.columns))
    for row in table.rows:
        if len(row) != len(table.columns):
            raise ValueError("row length differs from column count")
        lines.append(row_format % tuple(row))
    return ("\n".join(lines) + "\n").encode()


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


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="magbell",
        description="Parity-measurement distillation of two-mode magnon Bell states.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    run_p = sub.add_parser("run", help="run a scenario from a config file")
    run_p.add_argument("--config", required=True, help="YAML experiment config")
    run_p.add_argument("--format", choices=("csv", "json"), default="csv", help="output format")
    run_p.add_argument("--out", default=None, help="output path (default stdout)")
    run_p.add_argument("--seed", type=int, default=None, help="seed (overrides config)")
    val_p = sub.add_parser("validate", help="check a config: run its plan, all but the rounds or search")
    val_p.add_argument("--config", required=True)

    args = parser.parse_args(argv)
    try:
        cfg = load_config(args.config)
        if args.command == "validate":  # the plan: every check of a run before its rounds or search
            SCENARIOS[cfg.scenario][1](cfg.scenario, cfg.params, cfg.seed)
            print(json.dumps({"ok": True, "scenario": cfg.scenario, "params": cfg.params},
                             sort_keys=True))
            return 0
        if args.seed is not None:
            cfg = config_from_mapping({**vars(cfg), "seed": args.seed})
        blob = emit(run_scenario(cfg), args.format)
        if args.out:  # opened only once the whole result is in hand: a failed run leaves no file
            with open(args.out, "wb") as fh:
                fh.write(blob)
        else:
            sys.stdout.buffer.write(blob)
        return 0
    except tuple(EXIT_CODES) as exc:
        print(json.dumps({"error": type(exc).__name__, "message": str(exc)}, sort_keys=True),
              file=sys.stderr)
        return next(code for error, code in EXIT_CODES.items() if isinstance(exc, error))


if __name__ == "__main__":
    raise SystemExit(main())
