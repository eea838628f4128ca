import json
from pathlib import Path

import numpy as np
import pytest
import yaml

from magbell import cli
from magbell.cli import (
    ConfigError,
    ExperimentConfig,
    RETIRED_PARAMS,
    config_from_mapping,
    config_from_metadata,
    emit,
    load_config,
    main,
    parse_result_header,
    run_scenario,
)
from magbell.dynamics import NonHermitianError, TraceDriftError
from magbell.hilbert import DimensionError, TruncationError
from magbell.measurement import NullOutcomeError, TargetOverlapError
from magbell.model import COHERENT_COUPLING_RATIO, ZeroDetuningError
from magbell.optimize import ObjectiveError

CONFIG_DIR = Path(__file__).resolve().parents[1] / "configs"


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
        for scenario, keys in RETIRED_PARAMS.items():
            for key in keys:
                old = config_from_mapping({"scenario": scenario, "params": {key: 5}})
                assert old.params == config_from_mapping({"scenario": scenario}).params
                assert key not in old.params
                with pytest.raises(ConfigError):
                    config_from_mapping({"scenario": scenario, "params": {key: 0}})
                with pytest.raises(ConfigError):
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


class TestDeterminismAndClosure:
    def test_identical_config_byte_identical_output(self):
        cfg = config_from_mapping({"scenario": "bell-distill", "params": {"rounds": 5}})
        blob1 = emit(run_scenario(cfg), "csv")
        blob2 = emit(run_scenario(cfg), "csv")
        assert blob1 == blob2

    def test_rerun_from_header_reproduces_output(self):
        cfg = config_from_mapping({"scenario": "half-interval", "params": {"rounds": 6}})
        blob = emit(run_scenario(cfg), "csv")
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
            "params": {"rounds": 2, "steps_per_round": 200, "gamma_n": 1e-4, "gamma_m": 1e-4},
        })
        table = run_scenario(cfg)
        assert table.columns == ("round", "time", "fidelity_stabilized", "fidelity_free")
        assert len(table.rows) == 3
        assert table.rows[0][2] == pytest.approx(1.0)

    def test_single_shot_scenario_records_results(self):
        cfg = config_from_mapping({
            "scenario": "single-shot",
            "params": {"n_omega": 1, "restarts": 1, "max_iter": 60, "slices": 64},
            "seed": 3,
        })
        table = run_scenario(cfg)
        res = table.metadata["results"]
        assert 0.0 <= res["achieved_fidelity"] <= 1.0
        assert res["achieved_fidelity"] >= res["baseline_fidelity"]
        assert len(table.rows) == 65

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
        assert len(paths) == len(cli.SCENARIO_SCHEMAS)
        for path in paths:
            assert load_config(str(path)).scenario in cli._RUNNERS
        assert set(cli._RUNNERS) == set(cli.SCENARIO_SCHEMAS)

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

    @pytest.mark.parametrize("retired", [{"cavity_cutoff": 2}, {"magnon_cutoff": 2}])
    def test_retired_dispersive_cutoff_changes_nothing(self, tmp_path, retired):
        # a cutoff of 2 once truncated the excitation-2 block: slope ~2 instead of ~3, exit 0
        shipped = CONFIG_DIR / "validate_dispersive.yaml"
        doc = yaml.safe_load(shipped.read_text())
        doc["params"].update(retired)
        out = tmp_path / "result.csv"
        assert main(["run", "--config", write_config(tmp_path, doc), "--out", str(out)]) == 0
        want = run_scenario(load_config(str(shipped)))
        assert 2.5 <= want.metadata["results"]["residual_log2_slope"] <= 3.5
        assert out.read_bytes() == emit(want, "csv")

    def test_validate_ok(self, tmp_path, capsys):
        path = write_config(tmp_path, {"scenario": "coupling-ratio"})
        assert main(["validate", "--config", path]) == 0
        assert json.loads(capsys.readouterr().out)["ok"] is True

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

    @pytest.mark.parametrize("error, code", [
        (TruncationError, 3), (ZeroDetuningError, 3), (TargetOverlapError, 3),
        (NullOutcomeError, 3), (TraceDriftError, 3), (NonHermitianError, 3),
        (DimensionError, 3), (ObjectiveError, 4), (ConfigError, 2), (ValueError, 2),
    ], ids=lambda value: getattr(value, "__name__", str(value)))
    def test_documented_exit_codes(self, tmp_path, capsys, monkeypatch, error, code):
        def failing_runner(params, seed):
            raise error("raised by the scenario")

        monkeypatch.setitem(cli._RUNNERS, "coupling-ratio", failing_runner)
        path = write_config(tmp_path, {"scenario": "coupling-ratio"})
        assert main(["run", "--config", path]) == code
        err = json.loads(capsys.readouterr().err)
        assert err == {"error": error.__name__, "message": "raised by the scenario"}

    @pytest.mark.parametrize("scenario, key, value", [
        ("bell-distill", "Delta", ".nan"),
        ("coupling-ratio", "xi_max", ".inf"),
        ("bell-distill", "Delta", "-.inf"),
        ("bell-distill", "Delta", "1" + "0" * 400),
    ], ids=["nan", "inf", "-inf", "int-overflow"])
    def test_non_finite_number_is_config_error(self, tmp_path, capsys, scenario, key, value):
        path = tmp_path / "cfg.yaml"
        path.write_text(f"scenario: {scenario}\nparams:\n  {key}: {value}\n")
        assert main(["run", "--config", str(path)]) == 2
        assert json.loads(capsys.readouterr().err)["error"] == "ConfigError"

    @pytest.mark.parametrize("scenario, params", [
        ("bell-distill", {"G_e": 1.0e-320, "G_f": 1.0e-320}),
        ("single-shot", {"G": 1.0e-320}),
        ("decohere-prepare", {"G_e": 1.0e+300}),
    ], ids=["bell-distill-underflow", "single-shot-underflow", "decohere-prepare-overflow"])
    def test_coupling_square_out_of_float_range_exits_2(self, tmp_path, capsys, scenario, params):
        path = write_config(tmp_path, {"scenario": scenario, "params": params})
        assert main(["run", "--config", path]) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ValueError" and "no measurement interval" in err["message"]

    def test_largest_block_frequency_overflow_exits_2(self, tmp_path, capsys):
        # Omega_11 is finite, so an interval exists, but G^2 n overflows in the top blocks
        params = {"G_e": 9.0e+153, "G_f": 9.0e+153, "cutoff": 10}
        path = write_config(tmp_path, {"scenario": "coherent-distill", "params": params})
        assert main(["run", "--config", path]) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ValueError" and "Omega_99 = inf" in err["message"]

    def test_seed_override_recorded(self, tmp_path):
        path = write_config(tmp_path, {"scenario": "coupling-ratio", "params": {"points": 3}})
        out = tmp_path / "r.csv"
        assert main(["run", "--config", path, "--seed", "9", "--out", str(out)]) == 0
        assert parse_result_header(out.read_bytes())["seed"] == 9

    def test_json_format_flag(self, tmp_path):
        path = write_config(tmp_path, {"scenario": "coupling-ratio", "params": {"points": 3}})
        out = tmp_path / "r.json"
        assert main(["run", "--config", path, "--format", "json", "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["metadata"]["scenario"] == "coupling-ratio"
