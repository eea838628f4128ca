import importlib.util
import math
from pathlib import Path

_PATH = Path(__file__).resolve().parents[1] / "tools" / "output_digests.py"
_SPEC = importlib.util.spec_from_file_location("output_digests", _PATH)
output_digests = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(output_digests)


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
