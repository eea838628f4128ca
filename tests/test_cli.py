import importlib.util
import json
import math
import re
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
import yaml
from hypothesis import HealthCheck, given, settings, strategies as st

from magbell import cli, dynamics, measurement, optimize
from magbell.cli import (
    ConfigError,
    ExperimentConfig,
    config_from_mapping,
    config_from_metadata,
    emit,
    load_config,
    main,
    parse_result_header,
    run_scenario,
)
from magbell.dynamics import NonHermitianError, TraceDriftError
from magbell.hilbert import DimensionError, StateValidationError, TruncationError
from magbell.measurement import NullOutcomeError, TargetOverlapError
from magbell.model import (COHERENT_COUPLING_RATIO, DispersiveRegimeWarning, ZeroDetuningError,
                           dispersive_evolution_fidelity, effective_couplings)
from magbell.optimize import ObjectiveError

ROOT = Path(__file__).resolve().parents[1]
CONFIG_DIR = ROOT / "configs"

# small param values, and numbers that reach each regime guard, for validate against run
SMALL_VALUES = {"rounds": st.integers(-1, 20), "cutoff": st.integers(0, 6), "target_N": st.integers(0, 7),
                "points": st.integers(0, 50), "n_omega": st.integers(0, 2), "restarts": st.just(1),
                "interval_mode": st.sampled_from(["full", "half"])}
SMALL_NUMBERS = st.sampled_from([0.0, -1e-3, 1e-320, 1e-7, 1e-3, 6e-3, 0.05, 0.4, 2.0, 5.0, 9e153, 1e300])
# the errors a run may raise only in its rounds or search, after its plan passed validate
ROUND_ERRORS = {"NullOutcomeError", "StateValidationError", "TraceDriftError", "ObjectiveError"}

# param values that are out of range, out of type or past the float range
FUZZ_VALUES = (st.sampled_from([0, 1, 1e300, -1e300, 1e-300, -1e-300, True, False, "8", None, [1, 2]])
               | st.integers(min_value=2**53, max_value=10**400) | st.integers(min_value=-10**400, max_value=-2**53))


def write_config(tmp_path, doc, name="cfg.yaml"):
    path = tmp_path / name
    path.write_text(yaml.safe_dump(doc))
    return str(path)


class TestConfigParsing:
    def test_defaults_filled(self):
        cfg = config_from_mapping({"scenario": "bell-distill"})
        assert cfg.params["rounds"] == 8
        assert cfg.params["G_e"] == 1e-3
        assert cfg.seed == 0

    def test_unknown_top_level_key(self):
        with pytest.raises(ConfigError):
            config_from_mapping({"scenario": "bell-distill", "extra": 1})

    def test_unknown_param_key(self):
        with pytest.raises(ConfigError):
            config_from_mapping({"scenario": "bell-distill", "params": {"roundz": 3}})

    def test_unknown_scenario(self):
        with pytest.raises(ConfigError):
            config_from_mapping({"scenario": "nope"})

    def test_type_errors(self):
        with pytest.raises(ConfigError):
            config_from_mapping({"scenario": "bell-distill", "params": {"rounds": "eight"}})
        with pytest.raises(ConfigError):
            config_from_mapping({"scenario": "bell-distill", "params": {"rounds": 0}})

    def test_retired_step_count_is_checked_and_dropped(self):
        # the RK4 step count, the dispersive cutoffs and the search's stopping
        # rules and slicing no longer exist: unknown params
        retired = {"decohere-prepare": ("steps_per_round",), "stabilize": ("steps_per_round",),
                   "validate-dispersive": ("cavity_cutoff", "magnon_cutoff"),
                   "single-shot": ("max_iter", "spread_tol", "slices")}
        for scenario, keys in retired.items():
            for key in keys:
                for value in (5, 0):
                    with pytest.raises(ConfigError, match="unknown params"):
                        config_from_mapping({"scenario": scenario, "params": {key: value}})
                with pytest.raises(ConfigError, match="unknown params"):
                    config_from_mapping({"scenario": "bell-distill", "params": {key: 5}})

    @pytest.mark.parametrize("params", [[], 0, False, ""], ids=["list", "zero", "false", "empty-string"])
    def test_non_mapping_params_rejected(self, tmp_path, capsys, params):
        # only an absent key or YAML null reads as "no params"
        with pytest.raises(ConfigError, match="params must be a mapping"):
            config_from_mapping({"scenario": "bell-distill", "params": params})
        path = write_config(tmp_path, {"scenario": "bell-distill", "params": params})
        assert main(["validate", "--config", path]) == 2
        assert json.loads(capsys.readouterr().err)["error"] == "ConfigError"

    def test_null_params_read_as_defaults(self, tmp_path):
        path = tmp_path / "cfg.yaml"
        path.write_text("scenario: bell-distill\nparams:\n")
        assert load_config(str(path)).params == config_from_mapping({"scenario": "bell-distill"}).params

    def test_load_from_file(self, tmp_path):
        path = write_config(tmp_path, {"scenario": "coupling-ratio", "params": {"points": 5}})
        cfg = load_config(path)
        assert cfg.scenario == "coupling-ratio"
        assert cfg.params["points"] == 5

    def test_coherent_inputs_share_one_coupling_ratio(self):
        for scenario, name in (("coherent-distill", "coherent_distill"), ("nbell", "nbell")):
            default = config_from_mapping({"scenario": scenario}).params
            shipped = load_config(str(CONFIG_DIR / f"{name}.yaml")).params
            for params in (default, shipped):
                assert params["G_f"] / params["G_e"] == COHERENT_COUPLING_RATIO

    def test_missing_file(self):
        with pytest.raises(ConfigError):
            load_config("/nonexistent/config.yaml")


class TestEmit:
    def _small_table(self):
        cfg = config_from_mapping({"scenario": "coupling-ratio", "params": {"points": 5}})
        return run_scenario(cfg)

    def test_csv_shape(self):
        table = self._small_table()
        blob = emit(table, "csv")
        lines = blob.decode().splitlines()
        assert lines[0] == "# magbell-result/1"
        assert lines[1].startswith("# {")
        assert lines[2] == "xi,fidelity_exact,fidelity_approx"
        assert len(lines) == 3 + 5
        for line in lines[3:]:
            assert len(line.split(",")) == 3
        assert blob.endswith(b"\n")

    def test_json_round_trip_bit_exact(self):
        table = self._small_table()
        doc = json.loads(emit(table, "json"))
        for row, want in zip(doc["rows"], table.rows):
            assert tuple(row) == want  # repr round-trip keeps float bits

    def test_empty_table_header_only(self):
        from magbell.cli import ResultTable

        table = ResultTable(metadata={"format": "magbell-result/1"}, columns=("a", "b"), rows=())
        lines = emit(table, "csv").decode().splitlines()
        assert len(lines) == 3


    def test_csv_row_bytes_match_per_value_format(self):
        # the row format must give the bytes of format(float(v), ".12g") for every value
        from magbell.cli import ResultTable

        values = [0.0, -0.0, float("inf"), float("-inf"), float("nan"), 5e-324, 1e21, 1 / 3,
                  np.float64(2 / 3), np.float64(-0.0), np.int64(7), 7, -12, 10**30]
        table = ResultTable(metadata={}, columns=tuple(f"c{i}" for i in range(len(values))),
                            rows=(tuple(values),))
        row = emit(table, "csv").decode().splitlines()[-1]
        assert row == ",".join(format(float(v), ".12g") for v in values)

    @pytest.mark.parametrize("row", [(1.0,), (1.0, 2.0, 3.0)])
    def test_row_length_mismatch_rejected(self, row):
        from magbell.cli import ResultTable

        table = ResultTable(metadata={}, columns=("a", "b"), rows=(row,))
        with pytest.raises(ValueError, match="row length"):
            emit(table, "csv")


class TestDeterminismAndClosure:
    def test_identical_config_byte_identical_output(self):
        cfg = config_from_mapping({"scenario": "bell-distill", "params": {"rounds": 5}})
        blob1 = emit(run_scenario(cfg), "csv")
        blob2 = emit(run_scenario(cfg), "csv")
        assert blob1 == blob2

    @pytest.mark.parametrize("path", sorted(CONFIG_DIR.glob("*.yaml")), ids=lambda path: path.stem)
    def test_rerun_from_header_reproduces_output(self, path):
        blob = emit(run_scenario(load_config(str(path))), "csv")
        meta = parse_result_header(blob)
        cfg2 = config_from_metadata(meta)
        assert emit(run_scenario(cfg2), "csv") == blob


class TestScenarios:
    def test_bell_distill_rows(self):
        cfg = config_from_mapping({"scenario": "bell-distill", "params": {"rounds": 4}})
        table = run_scenario(cfg)
        assert table.columns[0] == "round"
        assert len(table.rows) == 5
        assert table.rows[0][1] == pytest.approx(0.5)
        assert all(np.isfinite(v) for row in table.rows for v in row)

    def test_bell_distill_reference_run_headline(self):
        # default parameters are the reference configuration
        table = run_scenario(config_from_mapping({"scenario": "bell-distill"}))
        final = table.rows[-1]
        assert 1.0 - final[1] <= 1e-9
        assert final[3] == pytest.approx(0.5, abs=0.02)

    def test_coupling_ratio_argmax_recorded(self):
        table = run_scenario(config_from_mapping({"scenario": "coupling-ratio"}))
        assert table.metadata["results"]["argmax_xi"] == pytest.approx(1.0, abs=1e-12)
        assert table.metadata["results"]["max_fidelity"] == pytest.approx(0.9338, abs=1e-4)

    def test_stabilize_rows(self):
        cfg = config_from_mapping({
            "scenario": "stabilize",
            "params": {"rounds": 2, "gamma_n": 1e-4, "gamma_m": 1e-4},
        })
        table = run_scenario(cfg)
        assert table.columns == ("round", "time", "fidelity_stabilized", "fidelity_free")
        assert len(table.rows) == 3
        assert table.rows[0][2] == pytest.approx(1.0)

    @pytest.mark.parametrize("scenario", ["decohere-prepare", "stabilize"])
    def test_lossy_outputs_do_not_depend_on_the_cutoff(self, scenario):
        # a lossy run works on its input's 2 x 2 box, which every cutoff >= 2 holds
        tables = [run_scenario(config_from_mapping({"scenario": scenario, "params": {"cutoff": cutoff}}))
                  for cutoff in (2, 3, 4, 6, 10)]
        for table in tables[1:]:
            assert table.rows == tables[0].rows
            assert table.metadata["results"] == tables[0].metadata["results"]

    def test_single_shot_scenario_records_results(self, monkeypatch):
        monkeypatch.setattr(optimize, "MAX_CALLS", 60)
        cfg = config_from_mapping({
            "scenario": "single-shot",
            "params": {"n_omega": 1, "restarts": 1},
            "seed": 3,
        })
        table = run_scenario(cfg)
        res = table.metadata["results"]
        assert 0.0 <= res["achieved_fidelity"] <= 1.0
        assert res["achieved_fidelity"] >= res["baseline_fidelity"]
        assert len(table.rows) == optimize.DEFAULT_SLICES + 1

    def test_validate_dispersive_scenario(self):
        # both checks run on every state up to an excitation cap: no cutoff to set
        cfg = config_from_mapping({"scenario": "validate-dispersive"})
        table = run_scenario(cfg)
        res = table.metadata["results"]
        assert res["evolution_fidelity"] > 0.98
        assert 2.5 <= res["residual_log2_slope"] <= 3.5

    def test_nbell_small(self):
        cfg = config_from_mapping({
            "scenario": "nbell",
            "params": {"target_N": 1, "beta": 0.8, "rounds": 10, "cutoff": 8,
                       "G_e": 1.0e-3, "G_f": 1.2e-3},
        })
        table = run_scenario(cfg)
        assert table.metadata["results"]["final_fidelity_plus"] > 0.9


_PROTOCOL_COLUMNS = ("round", "fidelity_plus", "fidelity_minus",
                     "success_probability", "even_population")
_STABILIZE_COLUMNS = ("round", "time", "fidelity_stabilized", "fidelity_free")
_COMMON_RESULTS = {"final_fidelity_plus", "final_success_probability", "tau"}


class TestScenarioContract:
    def test_every_shipped_config_has_a_runner(self):
        paths = sorted(CONFIG_DIR.glob("*.yaml"))
        assert len(paths) == len(cli.SCENARIOS)
        for path in paths:
            assert load_config(str(path)).scenario in cli.SCENARIOS

    @pytest.mark.parametrize("scenario, params, columns, results", [
        ("bell-distill", {"rounds": 2}, _PROTOCOL_COLUMNS,
         _COMMON_RESULTS | {"final_fidelity_minus"}),
        ("half-interval", {"rounds": 2}, _PROTOCOL_COLUMNS,
         _COMMON_RESULTS | {"final_fidelity_minus"}),
        ("decohere-prepare", {"rounds": 1}, _PROTOCOL_COLUMNS, _COMMON_RESULTS),
        ("stabilize", {"rounds": 1}, _STABILIZE_COLUMNS,
         {"final_fidelity_stabilized", "final_fidelity_free", "tau"}),
        ("coherent-distill", {"rounds": 2, "cutoff": 6, "beta_n": 0.5, "beta_m": 0.5},
         _PROTOCOL_COLUMNS, _COMMON_RESULTS | {"slow_states"}),
        ("nbell", {"rounds": 2, "cutoff": 6, "beta": 0.5, "target_N": 2},
         _PROTOCOL_COLUMNS, _COMMON_RESULTS | {"slow_states"}),
    ])
    def test_protocol_scenario_columns_and_result_keys(self, scenario, params, columns, results):
        table = run_scenario(config_from_mapping({"scenario": scenario, "params": params}))
        assert table.columns == columns
        assert set(table.metadata["results"]) == results
        assert len(table.rows) == params["rounds"] + 1


class TestMainEntry:
    def test_run_writes_file(self, tmp_path, capsys):
        path = write_config(tmp_path, {"scenario": "bell-distill", "params": {"rounds": 3}})
        out = tmp_path / "result.csv"
        assert main(["run", "--config", path, "--out", str(out)]) == 0
        assert out.read_bytes().startswith(b"# magbell-result/1")

    @pytest.mark.parametrize("command", ["validate", "run"])
    def test_dispersive_regime_violation_warns_once(self, tmp_path, capsys, command):
        path = write_config(tmp_path, {"scenario": "validate-dispersive", "params": {"coupling_ratio": 0.2}})
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main([command, "--config", path]) == 0
        assert [w.category for w in caught] == [DispersiveRegimeWarning]

    def test_library_calls_under_the_scenario_still_warn(self):
        params = cli._validation_params(0.2, 0.4)
        plus = cli.superposed_state(2, 1)
        state = cli.product_state(cli._magnon_space(2), {"n": plus, "m": plus})
        for call in (lambda: effective_couplings(params), lambda: dispersive_evolution_fidelity(params, state, 1.0)):
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                call()
            assert [w.category for w in caught] == [DispersiveRegimeWarning]

    @pytest.mark.parametrize("retired", [{"cavity_cutoff": 2}, {"magnon_cutoff": 2}])
    def test_retired_dispersive_cutoff_changes_nothing(self, tmp_path, capsys, retired):
        # the checks run on every state up to an excitation cap: a cutoff is an unknown param
        shipped = CONFIG_DIR / "validate_dispersive.yaml"
        doc = yaml.safe_load(shipped.read_text())
        doc["params"].update(retired)
        out = tmp_path / "result.csv"
        assert main(["run", "--config", write_config(tmp_path, doc), "--out", str(out)]) == 2
        assert "unknown params" in json.loads(capsys.readouterr().err)["message"]
        assert not out.exists()
        want = run_scenario(load_config(str(shipped)))
        assert 2.5 <= want.metadata["results"]["residual_log2_slope"] <= 3.5

    @pytest.mark.parametrize("ratio", [1.0e-7, 1.0e-20])
    def test_unresolvable_coupling_ratio_exits_2(self, tmp_path, capsys, ratio):
        # the half-ratio residual is roundoff here, and so would be the reported slope
        doc = {"scenario": "validate-dispersive", "params": {"coupling_ratio": ratio}}
        assert main(["run", "--config", write_config(tmp_path, doc)]) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ValueError" and "roundoff floor" in err["message"]

    def test_small_resolvable_coupling_ratio_gives_cubic_slope(self, tmp_path):
        doc = {"scenario": "validate-dispersive", "params": {"coupling_ratio": 1.0e-4}}
        out = tmp_path / "result.csv"
        assert main(["run", "--config", write_config(tmp_path, doc), "--out", str(out)]) == 0
        slope = parse_result_header(out.read_bytes())["results"]["residual_log2_slope"]
        assert slope == pytest.approx(3.0, abs=1e-3)

    def test_validate_ok(self, tmp_path, capsys):
        path = write_config(tmp_path, {"scenario": "coupling-ratio"})
        assert main(["validate", "--config", path]) == 0
        assert json.loads(capsys.readouterr().out)["ok"] is True

    @pytest.mark.parametrize("command", ["validate", "run"])
    def test_empty_xi_range_exits_2(self, tmp_path, capsys, command):
        # validate, load_config and run reject the range alike
        path = write_config(tmp_path, {"scenario": "coupling-ratio", "params": {"xi_min": 1.2, "xi_max": 0.8}})
        assert main([command, "--config", path]) == 2
        assert json.loads(capsys.readouterr().err) == {"error": "ConfigError",
                                                       "message": "xi_max must exceed xi_min"}

    def test_config_error_exit_code(self, tmp_path, capsys):
        path = write_config(tmp_path, {"scenario": "bell-distill", "params": {"bad": 1}})
        assert main(["run", "--config", path]) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ConfigError"

    def test_physics_error_exit_code(self, tmp_path, capsys):
        path = write_config(tmp_path, {
            "scenario": "nbell",
            "params": {"beta": 2.5, "cutoff": 6, "rounds": 3},
        })
        assert main(["run", "--config", path]) == 3
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "TruncationError"

    @pytest.mark.parametrize("scenario, params", [
        ("nbell", {"beta": 1.0e+160}), ("coherent-distill", {"beta_n": 1.0e+200}),
    ], ids=["nbell", "coherent-distill"])
    def test_amplitude_squared_beyond_float_range_exits_3(self, tmp_path, capsys, scenario, params):
        path = write_config(tmp_path, {"scenario": scenario, "params": params})
        assert main(["run", "--config", path]) == 3
        assert json.loads(capsys.readouterr().err)["error"] == "TruncationError"

    @pytest.mark.parametrize("error, code", [
        (TruncationError, 3), (ZeroDetuningError, 3), (TargetOverlapError, 3),
        (NullOutcomeError, 3), (TraceDriftError, 3), (StateValidationError, 3),
        (NonHermitianError, 3), (DimensionError, 3), (ObjectiveError, 4), (ConfigError, 2),
        (ValueError, 2), (OSError, 2),
    ], ids=lambda value: getattr(value, "__name__", str(value)))
    def test_documented_exit_codes(self, tmp_path, capsys, monkeypatch, error, code):
        def failing_plan(scenario, params, seed):
            raise error("raised by the scenario")

        schema, _ = cli.SCENARIOS["coupling-ratio"]
        monkeypatch.setitem(cli.SCENARIOS, "coupling-ratio", (schema, failing_plan))
        path = write_config(tmp_path, {"scenario": "coupling-ratio"})
        assert main(["run", "--config", path]) == code
        err = json.loads(capsys.readouterr().err)
        assert err == {"error": error.__name__, "message": "raised by the scenario"}

    @pytest.mark.parametrize("scenario, key, value", [
        ("bell-distill", "Delta", ".nan"),
        ("coupling-ratio", "xi_max", ".inf"),
        ("bell-distill", "Delta", "-.inf"),
        ("bell-distill", "Delta", "1" + "0" * 400),
        ("nbell", "target_N", "1" + "0" * 400),
    ], ids=["nan", "inf", "-inf", "int-overflow", "integer-key-overflow"])
    def test_non_finite_number_is_config_error(self, tmp_path, capsys, scenario, key, value):
        path = tmp_path / "cfg.yaml"
        path.write_text(f"scenario: {scenario}\nparams:\n  {key}: {value}\n")
        assert main(["run", "--config", str(path)]) == 2
        assert json.loads(capsys.readouterr().err)["error"] == "ConfigError"

    @pytest.mark.parametrize("where", ["config", "flag"])
    def test_seed_past_float_range_exits_2(self, tmp_path, capsys, where):
        huge = "1" + "0" * 400
        path = tmp_path / "cfg.yaml"
        path.write_text("scenario: coupling-ratio\n" + (f"seed: {huge}\n" if where == "config" else ""))
        assert main(["run", "--config", str(path)] + (["--seed", huge] if where == "flag" else [])) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and len(captured.err.splitlines()) == 1
        assert json.loads(captured.err) == {"error": "ConfigError",
                                            "message": "invalid seed: int too large to convert to float"}

    @pytest.mark.parametrize("scenario, params, message", [
        ("bell-distill", {"G_e": 1.0e-320, "G_f": 1.0e-320}, "no measurement interval"),
        ("single-shot", {"G": 1.0e-320}, "no measurement interval"),
        ("decohere-prepare", {"G_e": 1.0e+300}, "Omega_11 overflows at G_e = 1e+300"),
    ], ids=["bell-distill-underflow", "single-shot-underflow", "decohere-prepare-overflow"])
    def test_coupling_square_out_of_float_range_exits_2(self, tmp_path, capsys, scenario, params, message):
        path = write_config(tmp_path, {"scenario": scenario, "params": params})
        assert main(["run", "--config", path]) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ValueError" and message in err["message"]

    def test_search_objective_overflow_exits_4_with_no_warning(self, tmp_path, capsys):
        # Omega_11 is finite, so the search has an interval, but its objective's squares
        # overflow; RuntimeWarning is an error under this suite's filterwarnings
        path = write_config(tmp_path, {"scenario": "single-shot", "params": {"G": 9.0e+153, "restarts": 1}})
        assert main(["run", "--config", path]) == 4
        assert json.loads(capsys.readouterr().err)["error"] == "ObjectiveError"

    def test_largest_block_frequency_overflow_exits_2(self, tmp_path, capsys):
        # Omega_11 is finite, so an interval exists, but G^2 (n + m) overflows from n + m = 3 on;
        # the first such block in C order is (0, 3)
        params = {"G_e": 9.0e+153, "G_f": 9.0e+153, "cutoff": 10}
        path = write_config(tmp_path, {"scenario": "coherent-distill", "params": params})
        assert main(["run", "--config", path]) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ValueError" and err["message"].startswith("Omega_03 overflows")

    def test_seed_override_recorded(self, tmp_path):
        path = write_config(tmp_path, {"scenario": "coupling-ratio", "params": {"points": 3}})
        out = tmp_path / "r.csv"
        assert main(["run", "--config", path, "--seed", "9", "--out", str(out)]) == 0
        assert parse_result_header(out.read_bytes())["seed"] == 9

    def test_single_shot_fidelity_rounding_above_one_is_clamped(self, tmp_path, monkeypatch):
        # the raw F = |1 + a11|^2 / (2N) can round to 1 + 2^-52, which the result once
        # rejected (exit 2): every F past 1 - 1e-8 rounds so here, the winner's among them
        exact = optimize._fidelity_and_norm

        def rounded_up(a01, a10, a11):
            fid, norm = exact(a01, a10, a11)
            return np.where(fid >= 1.0 - 1e-8, 1.0 + 2.0**-52, fid)[()], norm

        monkeypatch.setattr(optimize, "_fidelity_and_norm", rounded_up)
        out = tmp_path / "r.json"
        path = str(CONFIG_DIR / "single_shot.yaml")
        assert main(["run", "--config", path, "--format", "json", "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["metadata"]["results"]["achieved_fidelity"] == 1.0
        assert max(row[2] for row in doc["rows"]) == 1.0

    @pytest.mark.parametrize("drift", [1e-9, 1e-7])
    def test_free_leg_trace_drift_exits_3(self, capsys, monkeypatch, drift):
        # scaling the whole channel's image leaves the build check and the projected leg's M
        # as they are; each free-leg step then moves the trace by drift, below and above the
        # channel's DEFAULT_TRACE_TOL, and either fails the round loop's state check
        real = dynamics.LindbladChannel._map
        monkeypatch.setattr(dynamics.LindbladChannel, "_map",
                            lambda channel, rho: (1 + drift) * real(channel, rho))
        assert main(["run", "--config", str(CONFIG_DIR / "stabilize.yaml")]) == 3
        captured = capsys.readouterr()
        assert captured.out == "" and len(captured.err.splitlines()) == 1
        err = json.loads(captured.err)
        assert err["error"] == "StateValidationError" and "trace" in err["message"]

    def test_json_format_flag(self, tmp_path):
        path = write_config(tmp_path, {"scenario": "coupling-ratio", "params": {"points": 3}})
        out = tmp_path / "r.json"
        assert main(["run", "--config", path, "--format", "json", "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["metadata"]["scenario"] == "coupling-ratio"


class TestMalformedInputExits2:
    """Input the runner cannot use gives one JSON error record and exit 2, not a traceback."""

    @pytest.mark.parametrize("text", [
        "scenario: bell-distill\nparams: {1: 2, foo: 3}\n",
        "scenario: bell-distill\n1: 2\nfoo: 3\n",
        "scenario: bell-distill\nparams: {~: 2, foo: 3}\n",
    ], ids=["params", "top-level", "null-key"])
    @pytest.mark.parametrize("command", ["validate", "run"])
    def test_non_string_keys_are_config_errors(self, tmp_path, capsys, command, text):
        path = tmp_path / "cfg.yaml"
        path.write_text(text)
        assert main([command, "--config", str(path)]) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ConfigError" and err["message"].startswith("unknown ")

    @pytest.mark.parametrize("text", [
        b"scenario: coupling-ratio\nseed: 1" + b"0" * 5000 + b"\n",
        b"scenario: coupling-ratio\nseed: 2020-13-45\n",
        b"scenario: coupling-ratio\nparams:\n  xi_min: 2020-02-30\n",
        b"scenario: coupling-ratio\nseed: \xff\n",
    ], ids=["5000-digit-int", "bad-month", "bad-day", "not-utf-8"])
    @pytest.mark.parametrize("command", ["validate", "run"])
    def test_value_yaml_cannot_build_is_config_error(self, tmp_path, capsys, command, text):
        # PyYAML's constructors, and the UTF-8 decoder under it, raise a bare ValueError
        path = tmp_path / "cfg.yaml"
        path.write_bytes(text)
        assert main([command, "--config", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and len(captured.err.splitlines()) == 1
        err = json.loads(captured.err)
        assert err["error"] == "ConfigError" and repr(str(path)) in err["message"]

    @pytest.mark.parametrize("command", ["validate", "run"])
    def test_deeply_nested_config_is_config_error(self, tmp_path, capsys, command):
        # PyYAML recurses once per level and raises a bare RecursionError
        path = tmp_path / "cfg.yaml"
        path.write_text("scenario: bell-distill\nparams: " + "[" * 500 + "]" * 500 + "\n")
        assert main([command, "--config", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and len(captured.err.splitlines()) == 1
        err = json.loads(captured.err)
        assert err["error"] == "ConfigError" and repr(str(path)) in err["message"]

    @pytest.mark.parametrize("value", ["[1, 2]", "{bell-distill: 1}", "3"])
    def test_non_string_scenario_is_config_error(self, tmp_path, capsys, value):
        path = tmp_path / "cfg.yaml"
        path.write_text(f"scenario: {value}\n")
        assert main(["validate", "--config", str(path)]) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ConfigError" and "unknown scenario" in err["message"]

    @pytest.mark.parametrize("out, error", [
        ("missing/result.csv", "FileNotFoundError"), (".", "IsADirectoryError"),
    ], ids=["missing-directory", "directory"])
    def test_unwritable_out_exits_2_and_writes_nothing(self, tmp_path, capsys, out, error):
        path = write_config(tmp_path, {"scenario": "coupling-ratio", "params": {"points": 3}})
        before = sorted(tmp_path.rglob("*"))
        assert main(["run", "--config", path, "--out", str(tmp_path / out)]) == 2
        captured = capsys.readouterr()
        assert json.loads(captured.err)["error"] == error
        assert captured.out == ""
        assert sorted(tmp_path.rglob("*")) == before

    @pytest.mark.parametrize("key", ["format", "output"])
    @pytest.mark.parametrize("command", ["validate", "run"])
    def test_output_config_keys_are_unknown(self, tmp_path, capsys, command, key):
        # only --format and --out choose the output
        result = tmp_path / "result.json"
        value = {"format": "json", "output": str(result)}[key]
        path = write_config(tmp_path, {"scenario": "coupling-ratio", key: value})
        assert main([command, "--config", path]) == 2
        captured = capsys.readouterr()
        err = json.loads(captured.err)
        assert err["error"] == "ConfigError" and f"unknown top-level keys ['{key}']" in err["message"]
        assert captured.out == "" and not result.exists()

    def test_negative_seed_flag_exits_2(self, tmp_path, capsys):
        path = write_config(tmp_path, {"scenario": "coupling-ratio", "params": {"points": 3}})
        assert main(["run", "--config", path, "--seed", "-1"]) == 2
        captured = capsys.readouterr()
        err = json.loads(captured.err)
        assert err["error"] == "ConfigError" and "seed" in err["message"]
        assert captured.out == ""

    def test_overflowing_coupling_ratio_names_the_closed_form(self, tmp_path, capsys):
        # g^2 / Delta is inf: one record naming it, with no RuntimeWarning on the way
        path = write_config(tmp_path, {"scenario": "validate-dispersive",
                                       "params": {"coupling_ratio": 1e300}})
        assert main(["run", "--config", path]) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ValueError"
        assert err["message"].startswith("the closed-form Hamiltonian is not finite")
        assert "Lamb shift" in err["message"]

    def test_overflowing_xi_names_the_first_ratio_only(self, tmp_path, capsys):
        path = write_config(tmp_path, {"scenario": "coupling-ratio", "params": {"xi_max": 1e300}})
        assert main(["run", "--config", path]) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ValueError" and len(err["message"]) < 200
        assert err["message"].startswith("Omega_11 overflows at G_e = 1, G_f = 1.25e+298,")

    def test_overflowing_linearized_norm_names_the_first_ratio(self, tmp_path, capsys):
        # Omega_11 stays finite up to xi ~ 1.3e154, but the approximate branch's norm,
        # ~9.2 xi^2, overflows past xi ~ 4.4e153: the 37th of 81 points, 0.8 + 36 * 1.25e152
        path = write_config(tmp_path, {"scenario": "coupling-ratio", "params": {"xi_max": 1e154}})
        assert main(["run", "--config", path]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and len(captured.err.splitlines()) == 1
        err = json.loads(captured.err)
        assert err["error"] == "ValueError" and len(err["message"]) < 200
        assert err["message"].endswith("overflows at coupling ratio xi = 4.5e+153")

    @pytest.mark.parametrize("scenario, params, keys", [
        ("bell-distill", {"rounds": 100_000_000}, "rounds"),
        ("stabilize", {"rounds": 10**30}, "rounds"),
        ("single-shot", {"n_omega": 100_000}, "n_omega"),
        ("nbell", {"cutoff": 100_000}, "cutoff"),
        ("decohere-prepare", {"cutoff": 3400}, "cutoff"),
        ("stabilize", {"cutoff": 3400}, "cutoff"),
        ("single-shot", {"restarts": 10**12}, "n_omega, restarts"),
        ("coupling-ratio", {"points": 1_000_000_000}, "points"),
        ("single-shot", {"n_omega": 1024, "restarts": 2500}, "n_omega, restarts"),
        ("nbell", {"rounds": 2_000_000, "cutoff": 1000}, "rounds, cutoff"),
    ], ids=["rounds", "stabilize-rounds", "n_omega", "closed-cutoff", "lossy-cutoff", "stabilize-cutoff",
            "restarts", "points", "long-search", "long-closed-run"])
    def test_over_budget_sizes_are_config_errors(self, tmp_path, capsys, monkeypatch, scenario, params, keys):
        # validate only: a run would try the allocation, or the search
        path = write_config(tmp_path, {"scenario": scenario, "params": params})
        assert main(["validate", "--config", path]) == 2
        captured = capsys.readouterr()
        err = json.loads(captured.err)
        assert err["error"] == "ConfigError" and captured.out == "" and len(captured.err.splitlines()) == 1
        if ", " in keys:  # a time estimate, after every size passed
            seconds = re.match(rf"{scenario}/{keys}: the run could take about (\S+) s", err["message"])[1]
            assert float(seconds) > cli._TIME_BUDGET_S
            monkeypatch.setattr(cli, "_TIME_BUDGET_S", math.inf)
            assert main(["validate", "--config", path]) == 0
            return
        size = re.match(rf"{scenario}/{keys}: the run would hold (\d+) bytes", err["message"])[1]
        assert int(size) > cli._WORK_BUDGET_BYTES

    @pytest.mark.parametrize("scenario", ["decohere-prepare", "stabilize"])
    def test_long_lossy_runs_need_no_time_estimate(self, tmp_path, capsys, scenario):
        # a lossy round runs on its input's box and costs the same at every cutoff
        path = write_config(tmp_path, {"scenario": scenario, "params": {"rounds": 2_000_000, "cutoff": 20}})
        assert main(["validate", "--config", path]) == 0
        assert capsys.readouterr().err == ""

    def test_time_budget_admits_what_the_call_budget_did_at_n_omega_4(self, tmp_path, capsys):
        # 2500 restarts of MAX_CALLS calls were the 10^7-call budget's limit
        path = write_config(tmp_path, {"scenario": "single-shot", "params": {"restarts": 2500}})
        assert main(["validate", "--config", path]) == 0
        path = write_config(tmp_path, {"scenario": "single-shot", "params": {"restarts": 2501}})
        assert main(["validate", "--config", path]) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ConfigError"
        assert err["message"].startswith("single-shot/n_omega, restarts: the run could take")

    def test_shipped_and_benchmark_sizes_stay_far_under_budget(self, monkeypatch):
        spec = importlib.util.spec_from_file_location("perfbench_workloads", ROOT / "perfbench" / "workloads.py")
        workloads = importlib.util.module_from_spec(spec)
        monkeypatch.setitem(sys.modules, spec.name, workloads)  # its dataclasses look their module up here
        spec.loader.exec_module(workloads)
        configs = [load_config(str(path)) for path in sorted(CONFIG_DIR.glob("*.yaml"))]
        for workload in workloads.WORKLOADS:
            for seed in range(10):
                for item in workloads.generate(workload, seed):
                    if "mapping" in item:
                        configs.append(config_from_mapping(item["mapping"]))
                    elif item["kind"] == "mixed":  # a closed run of the same size
                        configs.append(config_from_mapping({"scenario": "bell-distill", "params": {
                            "rounds": item["rounds"], "cutoff": item["cutoff"]}}))
                    else:
                        cfg = load_config(str(ROOT / item["config_file"]))
                        configs.append(config_from_mapping({"scenario": cfg.scenario,
                                                            "params": cfg.params | item["params"]}))
        # every size 1000 times and every time 100 times under the budgets
        monkeypatch.setattr(cli, "_WORK_BUDGET_BYTES", cli._WORK_BUDGET_BYTES // 1000)
        monkeypatch.setattr(cli, "_TIME_BUDGET_S", cli._TIME_BUDGET_S / 100)
        for cfg in configs:
            cli.SCENARIOS[cfg.scenario][1](cfg.scenario, cfg.params, cfg.seed)

    @settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data(), scenario=st.sampled_from(sorted(cli.SCENARIOS)))
    def test_schema_fuzz_exits_0_or_2_with_one_record(self, tmp_path, capsys, data, scenario):
        # validate runs the plan, so a physics-regime violation before the rounds exits 3
        schema = cli.SCENARIOS[scenario][0]
        params = data.draw(st.dictionaries(st.sampled_from(sorted(schema)), FUZZ_VALUES))
        path = write_config(tmp_path, {"scenario": scenario, "params": params})
        code = main(["validate", "--config", path])
        captured = capsys.readouterr()
        assert code in (0, 2, 3)
        if code:
            assert captured.out == "" and len(captured.err.splitlines()) == 1
            assert set(json.loads(captured.err)) == {"error", "message"}
        else:
            assert captured.err == "" and json.loads(captured.out)["ok"] is True

    def test_json_flag_writes_the_emitted_document(self, tmp_path):
        path = write_config(tmp_path, {"scenario": "coupling-ratio", "params": {"points": 3},
                                       "seed": 4})
        out = tmp_path / "r.json"
        assert main(["run", "--config", path, "--format", "json", "--out", str(out)]) == 0
        assert out.read_bytes() == emit(run_scenario(load_config(path)), "json")
        assert json.loads(out.read_text())["metadata"]["seed"] == 4


class TestValidateRunsThePlan:
    """validate runs each scenario's plan: a config fails it exactly as run fails before the rounds."""

    @pytest.mark.parametrize("scenario, params, code, error, message", [
        ("coherent-distill", {"beta_n": 5.0}, 3, "TruncationError", "cutoff 10 leaks"),
        ("bell-distill", {"G_e": 1.0e+300}, 2, "ValueError", "Omega_11 overflows"),
        ("nbell", {"target_N": 12}, 3, "DimensionError", "target excitation 12 outside cutoffs"),
        ("coupling-ratio", {"xi_max": 1.0e+300}, 2, "ValueError", "Omega_11 overflows"),
        ("single-shot", {"G": 1.0e+300}, 2, "ValueError", "Omega_11 overflows"),
        ("coherent-distill", {"G_e": 9.0e+153, "G_f": 9.0e+153}, 2, "ValueError", "Omega_03 overflows"),
        ("stabilize", {"G_e": 9.0e+153, "G_f": 9.0e+153}, 2, "ValueError", "Omega_12 overflows"),
        ("validate-dispersive", {"coupling_ratio": 1.0e-7}, 2, "ValueError", "coupling_ratio 1e-07 is too small"),
        ("decohere-prepare", {"cutoff": 3400}, 2, "ConfigError", "decohere-prepare/cutoff"),
        ("stabilize", {"cutoff": 3400}, 2, "ConfigError", "stabilize/cutoff"),
    ], ids=["truncation", "interval-overflow", "target-outside-cutoff", "xi-overflow", "search-interval-overflow",
            "grid-overflow", "stabilize-grid-overflow", "unresolvable-ratio", "lossy-cutoff", "stabilize-cutoff"])
    def test_validate_exits_as_run_does(self, tmp_path, capsys, scenario, params, code, error, message):
        path = write_config(tmp_path, {"scenario": scenario, "params": params})
        assert main(["run", "--config", path]) == code
        ran = capsys.readouterr()
        assert main(["validate", "--config", path]) == code
        validated = capsys.readouterr()
        assert ran.out == validated.out == "" and validated.err == ran.err and len(ran.err.splitlines()) == 1
        err = json.loads(ran.err)
        assert err["error"] == error and err["message"].startswith(message)

    @settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data(), scenario=st.sampled_from(sorted(cli.SCENARIOS)))
    def test_validate_passes_only_round_time_failures(self, tmp_path, capsys, data, scenario):
        schema = cli.SCENARIOS[scenario][0]
        params = data.draw(st.fixed_dictionaries({}, optional={key: SMALL_VALUES.get(key, SMALL_NUMBERS)
                                                               for key in schema}))
        path = write_config(tmp_path, {"scenario": scenario, "params": params})
        code = main(["validate", "--config", path])
        validated = capsys.readouterr().err
        ran = main(["run", "--config", path, "--out", str(tmp_path / "out.csv")])
        captured = capsys.readouterr()
        if code:
            assert (ran, captured.err) == (code, validated)
        elif ran:
            assert len(captured.err.splitlines()) == 1 and json.loads(captured.err)["error"] in ROUND_ERRORS
        else:
            assert captured.err == ""

    @pytest.mark.parametrize("config", ["bell_distill.yaml", "decohere_prepare.yaml", "stabilize.yaml"])
    def test_each_run_makes_its_pre_round_checks_once(self, capsys, monkeypatch, config):
        # the plan computes the return amplitudes once, and the run uses them
        grids, builds = [], []
        amplitudes, channel = measurement._return_amplitudes, measurement.lindblad_channel
        monkeypatch.setattr(measurement, "_return_amplitudes", lambda *args: grids.append(args) or amplitudes(*args))
        monkeypatch.setattr(measurement, "lindblad_channel", lambda *args: builds.append(args) or channel(*args))
        path = str(CONFIG_DIR / config)
        assert main(["validate", "--config", path]) == 0 and len(grids) == 1 and builds == []
        grids.clear()
        assert main(["run", "--config", path]) == 0 and len(grids) == 1

    @pytest.mark.parametrize("config", ["decohere_prepare.yaml", "stabilize.yaml"])
    def test_validate_builds_no_channel(self, capsys, monkeypatch, config):
        builds = []
        real = measurement.lindblad_channel
        monkeypatch.setattr(measurement, "lindblad_channel", lambda *args: builds.append(args) or real(*args))
        path = str(CONFIG_DIR / config)
        assert main(["validate", "--config", path]) == 0 and builds == []
        assert main(["run", "--config", path]) == 0 and len(builds) == 1  # the spy sees a run's build
