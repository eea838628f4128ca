"""Self-tests of the benchmark: oracles, tracing wrappers, trace accounting, BENCHMARK.json.

Run from the checkout root with ``python3 -m pytest -q perfbench``.  The
oracle tests run every workload once at seed 0, traced, so the module takes
about a minute.
"""

import dataclasses
import json
import os
import shutil
import subprocess
import sys
import time

import run

os.environ["OPENBLAS_NUM_THREADS"] = run.BLAS_THREADS  # as in a benchmark run; before numpy loads

import numpy as np  # noqa: E402
import pytest  # noqa: E402

import layers  # noqa: E402
import oracles  # noqa: E402
import workloads  # noqa: E402

ROOT = workloads.repo_root()
magbell = workloads.import_magbell(ROOT)


@pytest.fixture(scope="module")
def seed0():
    """Every workload's seed-0 inputs, run once with tracing on."""
    out = {}
    for workload in workloads.WORKLOADS:
        inputs = workloads.generate(workload, 0)
        tracer, start, wall, outputs = run.traced_pass(workloads, layers, inputs, ROOT)
        prepared = workloads.prepare(inputs, ROOT)
        out[workload] = (prepared, outputs, tracer, wall)
    return out


def _by_name(seed0, workload, name):
    prepared, outputs, *_ = seed0[workload]
    return next((item, out) for item, out in zip(prepared, outputs) if item.name == name)


# --- oracles -------------------------------------------------------------------


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_oracles_agree_with_program_at_seed_0(seed0, workload):
    prepared, outputs, *_ = seed0[workload]
    problems = [p for item, out in zip(prepared, outputs) for p in oracles.check(item.spec, out)]
    assert problems == []


def _tamper_row(blob: bytes, column: str, delta: float) -> bytes:
    lines = blob.decode().splitlines()
    index = lines[2].split(",").index(column)
    fields = lines[-1].split(",")
    fields[index] = repr(float(fields[index]) + delta)
    return ("\n".join(lines[:-1] + [",".join(fields)]) + "\n").encode()


def _tamper_result(blob: bytes, key: str, value) -> bytes:
    lines = blob.decode().splitlines()
    metadata = json.loads(lines[1][2:])
    metadata["results"][key] = value
    lines[1] = "# " + json.dumps(metadata, sort_keys=True)
    return ("\n".join(lines) + "\n").encode()


@pytest.mark.parametrize("workload, name, tamper", [
    ("closed_sweep", "pure00", lambda b: _tamper_row(b, "fidelity_plus", 1e-7)),
    ("closed_sweep", "half_interval", lambda b: _tamper_row(b, "fidelity_minus", -1e-7)),
    ("closed_sweep", "coupling_ratio", lambda b: _tamper_row(b, "fidelity_exact", 1e-7)),
    ("closed_sweep", "validate_dispersive", lambda b: _tamper_result(b, "evolution_fidelity", 0.98)),
    ("closed_sweep", "validate_dispersive", lambda b: _tamper_result(b, "residual_log2_slope", 2.0)),
    ("lossy", "decohere_prepare", lambda b: _tamper_row(b, "success_probability", 1e-7)),
    ("lossy", "stabilize", lambda b: _tamper_row(b, "fidelity_free", 1e-7)),
    ("single_shot", "single_shot", lambda b: _tamper_result(b, "achieved_fidelity", 0.98)),
    ("single_shot", "single_shot", lambda b: _tamper_result(b, "coefficients_a", [0.0] * 4)),
])
def test_oracles_reject_a_wrong_output(seed0, workload, name, tamper):
    item, output = _by_name(seed0, workload, name)
    assert oracles.check(item.spec, output) == []
    assert oracles.check(item.spec, tamper(output)) != []


def test_oracle_rejects_a_wrong_mixed_record(seed0):
    item, record = _by_name(seed0, "closed_sweep", "mixed00")
    wrong = dataclasses.replace(record, success_probability=record.success_probability * (1 + 1e-7))
    assert oracles.check(item.spec, record) == []
    assert oracles.check(item.spec, wrong) != []


def test_a_raising_input_counts_as_failed():
    assert oracles.check({"kind": "mixed"}, RuntimeError("boom")) == ["raised RuntimeError: boom"]


# --- tracing ----------------------------------------------------------------------


def _namespaces():
    return {(name, key): value for name, module in sys.modules.items()
            if name == "magbell" or name.startswith("magbell.")
            for key, value in vars(module).items() if callable(value)}


def test_tracer_rebinds_every_namespace_and_restores_it():
    from magbell import cli, dynamics, hilbert, measurement, model, optimize  # noqa: F401

    before = _namespaces()
    post_inits = {cls: cls.__dict__["__post_init__"] for cls in (hilbert.QuantumState, hilbert.Operator)}
    originals = {getattr(sys.modules[f"magbell.{m}"], a) for m, a in layers.FUNCTIONS}
    with layers.Tracer():
        assert measurement.integrate_master.__wrapped__ is dynamics.integrate_master.__wrapped__
        assert optimize.propagator.__wrapped__ is dynamics.propagator.__wrapped__
        for (name, key), value in before.items():
            if value in originals:
                assert getattr(sys.modules[name], key).__wrapped__ is value, (name, key)
        for cls, original in post_inits.items():
            assert cls.__dict__["__post_init__"].__wrapped__ is original
    assert _namespaces() == before
    assert all(cls.__dict__["__post_init__"] is f for cls, f in post_inits.items())


def test_trace_counts_the_work_each_workload_was_chosen_for(seed0):
    expected = {
        "lossy": ("dynamics.integrate_master", 0.95),
        "single_shot": ("optimize.nelder_mead", 0.95),
    }
    for workload, (layer, share) in expected.items():
        *_, tracer, wall = seed0[workload]
        assert tracer.summary()[layer]["s"] >= share * wall, workload
    values = layers.layer_metrics(seed0["lossy"][2], 0, 1.0, 1.0)
    assert values["dynamics.rk4_steps"] == 3 * 8 * 2000
    assert values["model.build_jc_effective.calls"] == 3
    assert values["dynamics.integrate_master.calls"] == 24
    summary = seed0["single_shot"][2].summary()
    assert summary["dynamics.propagator"]["calls"] == 3 * 512
    assert summary["optimize.nelder_mead"]["calls"] == 8


def test_self_times_sum_to_traced_wall_within_overhead():
    inputs = [spec for spec in workloads.generate("closed_sweep", 1)
              if spec["name"] in ("pure00", "pure01", "pure02", "mixed00", "bell_distill")]
    prepared = workloads.prepare(inputs, ROOT)
    untraced = []
    for _ in range(3):
        start = time.perf_counter()
        workloads.run_pass(prepared)
        untraced.append(time.perf_counter() - start)
    tracer, start, traced, _ = run.traced_pass(workloads, layers, inputs, ROOT)
    overhead = traced - float(np.median(untraced))
    covered = tracer.top_level_time(start)
    assert sum(entry["self_s"] for entry in tracer.summary().values()) == pytest.approx(
        tracer.top_level_time(0), rel=1e-9)
    assert 0.0 <= traced - covered <= max(overhead, 0.01 * traced)


# --- inputs and the result contract ------------------------------------------------


def test_inputs_follow_the_seed_and_hold_the_work_fixed():
    for workload in workloads.WORKLOADS:
        assert workloads.generate(workload, 7) == workloads.generate(workload, 7)
    assert workloads.generate("closed_sweep", 1) != workloads.generate("closed_sweep", 2)
    assert workloads.generate("lossy", 1) != workloads.generate("lossy", 2)
    bases = [workloads.generate("single_shot", s)[0]["restart_base"]
             for s in range(len(workloads.SINGLE_SHOT_BASES))]
    assert len(set(bases)) == len(bases)
    for seed in (1, 2):
        rounds = sorted((s["kind"], s["mapping"]["params"]["rounds"] if "mapping" in s else s.get("rounds"))
                        for s in workloads.generate("closed_sweep", seed) if "mapping" in s or "rounds" in s)
        assert rounds == sorted([("scenario", r) for r in workloads.PURE_ROUNDS]
                                + [("mixed", r) for r in workloads.MIXED_ROUNDS])


def test_benchmark_json_matches_the_code():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert spec["command"] == ["python3", "perfbench/run.py"]
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == [
        tuple(m[:3]) for m in layers.LAYER_METRICS]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values())


def test_a_directory_without_the_program_is_refused(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "lossy", "--seed", "0",
                           "--seconds", "1", "--trace", "0"], cwd=tmp_path, capture_output=True,
                          text=True, timeout=60)
    assert done.returncode != 0
    assert "correct" not in done.stdout
