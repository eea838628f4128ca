import importlib.util
import math
from pathlib import Path

import pytest

_ROOT = Path(__file__).resolve().parents[1]


def _load(path: Path, name: str):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


output_digests = _load(_ROOT / "tools" / "output_digests.py", "output_digests")
# The benchmark's tracer, which looks magbell's layers up by name.
layers = _load(_ROOT / "perfbench" / "layers.py", "perfbench_layers")


class TestLargestDifference:
    def test_matching_leaves(self):
        new = {"a": [1.0, 2.0], "b": {"c": 4.0}}
        old = {"a": [1.0, 2.5], "b": {"c": 4.0}}
        assert output_digests.largest_difference(new, old) == (0.5, 0.5 / 2.5)

    def test_nan_matches_nan(self):
        assert output_digests.largest_difference([1.0, math.nan], [1.0, math.nan]) == (0.0, 0.0)

    def test_nan_against_number_is_infinite(self):
        assert output_digests.largest_difference([math.nan], [1.0]) == (math.inf, math.inf)

    def test_missing_leaf_is_infinite(self):
        assert output_digests.largest_difference({"a": 1.0}, {"a": 1.0, "b": 2.0}) == (math.inf, math.inf)
        assert output_digests.largest_difference([1.0], [1.0, 2.0]) == (math.inf, math.inf)

    def test_non_numeric_leaf(self):
        assert output_digests.largest_difference({"s": "x", "v": 1.0},
                                                 {"s": "x", "v": 1.0}) == (0.0, 0.0)
        assert output_digests.largest_difference({"s": "x"}, {"s": "y"}) == (math.inf, math.inf)
        assert output_digests.largest_difference({"s": "1"}, {"s": 1.0}) == (math.inf, math.inf)


def test_key_changes():
    new = {"coupling_ratio": 0.05, "base_detuning": 0.4, "extra": 1}
    old = {"coupling_ratio": 0.05, "base_detuning": 0.4, "magnon_cutoff": 4, "cavity_cutoff": 3}
    assert output_digests.key_changes(new, old) == (["extra"], ["cavity_cutoff", "magnon_cutoff"])
    assert output_digests.key_changes(old, old) == ([], [])


class TestAgainstExitCode:
    """--against exits 1 when any config's digests differ, 0 when all match."""

    OUTPUTS = {name: {"digests": {"csv": f"{name}-csv", "json": f"{name}-json"},
                      "params": {}, "rows": [[1.0]], "results": {}}
               for name in ("a.yaml", "b.yaml")}

    def run(self, monkeypatch, capsys, other):
        monkeypatch.setattr(output_digests, "outputs", lambda root: iter(self.OUTPUTS.items()))
        monkeypatch.setattr(output_digests, "dumped_outputs", lambda root: other)
        code = output_digests.main(["--against", "other"])
        return code, capsys.readouterr().out

    def test_all_match(self, monkeypatch, capsys):
        code, out = self.run(monkeypatch, capsys, self.OUTPUTS)
        assert code == 0 and "differs" not in out

    def test_one_digest_differs(self, monkeypatch, capsys):
        other = {**self.OUTPUTS, "b.yaml": {**self.OUTPUTS["b.yaml"],
                                            "digests": {"csv": "x", "json": "b.yaml-json"}}}
        code, out = self.run(monkeypatch, capsys, other)
        assert code == 1 and "b.yaml differs" in out and "a.yaml differs" not in out

    def test_config_absent_from_other(self, monkeypatch, capsys):
        code, out = self.run(monkeypatch, capsys, {"a.yaml": self.OUTPUTS["a.yaml"]})
        assert code == 1 and "b.yaml: absent" in out

    def test_without_against_exits_zero(self, monkeypatch, capsys):
        monkeypatch.setattr(output_digests, "outputs", lambda root: iter(self.OUTPUTS.items()))
        assert output_digests.main([]) == 0
        assert len(capsys.readouterr().out.splitlines()) == 4


class TestPerfbenchLayers:
    @pytest.mark.parametrize("module, attr", layers.FUNCTIONS)
    def test_traced_function_exists(self, module, attr):
        assert callable(getattr(importlib.import_module(f"magbell.{module}"), attr, None))

    @pytest.mark.parametrize("module, attr", layers.CLASSES)
    def test_traced_class_defines_post_init(self, module, attr):
        assert "__post_init__" in vars(getattr(importlib.import_module(f"magbell.{module}"), attr))

    @pytest.mark.parametrize("module, attr", [("measurement", "integrate_master"),
                                              ("optimize", "propagator")])
    def test_rebound_name_is_the_dynamics_function(self, module, attr):
        dynamics = importlib.import_module("magbell.dynamics")
        assert getattr(importlib.import_module(f"magbell.{module}"), attr) is getattr(dynamics, attr)
