"""Print the sha256 of the CSV and the JSON output of every shipped config.

Runs each ``configs/*.yaml`` once through ``magbell.cli.run_scenario`` and
serializes the table with ``emit`` in both formats, so a refactor that must
keep the output byte-identical is checked by comparing this script's output
on two checkouts:

    python3 tools/output_digests.py > new.txt
    python3 tools/output_digests.py --root ../parent-checkout > old.txt
    diff old.txt new.txt

``--root`` names the checkout whose ``src/`` and ``configs/`` are used; it
defaults to the one holding this script.  ``--against OTHER`` also runs the
checkout OTHER (in a child process) and, for each config whose digests
differ, prints the row counts, the largest absolute and relative
difference over the table rows and over the header results, and the
header params keys that were added or removed; it exits 1 when any config's
digests differ or a config is absent from OTHER, and 0 when all match:

    python3 tools/output_digests.py --against ../parent-checkout
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import subprocess
import sys
from pathlib import Path


def outputs(root: Path):
    """Yield (config file name, {digests, rows, results}) per config of a checkout."""
    sys.path.insert(0, str(root / "src"))
    from magbell.cli import emit, load_config, run_scenario

    for path in sorted((root / "configs").glob("*.yaml")):
        table = run_scenario(load_config(str(path)))
        yield path.name, {
            "digests": {fmt: hashlib.sha256(emit(table, fmt)).hexdigest() for fmt in ("csv", "json")},
            "params": table.metadata.get("params", {}),
            "rows": [list(row) for row in table.rows],
            "results": table.metadata.get("results", {}),
        }


def dumped_outputs(root: Path) -> dict:
    """{config file name: outputs} of a checkout, run in a child process so that
    the two checkouts' modules never share an interpreter."""
    child = subprocess.run([sys.executable, __file__, "--root", str(root.resolve()), "--dump"],
                           check=True, capture_output=True, text=True)
    return json.loads(child.stdout)


def _leaves(value, key=""):
    if isinstance(value, dict):
        for k, v in value.items():
            yield from _leaves(v, f"{key}.{k}")
    elif isinstance(value, list):
        for i, v in enumerate(value):
            yield from _leaves(v, f"{key}[{i}]")
    else:
        yield key, value


def largest_difference(new, old) -> tuple[float, float]:
    """(max |new - old|, max |new - old| / max(|new|, |old|)) over matching numeric leaves.

    NaN matches NaN; a leaf missing on one side, a non-numeric leaf that
    differs, or NaN against a number gives (inf, inf).
    """
    a, b = dict(_leaves(new)), dict(_leaves(old))
    if a.keys() != b.keys():
        return math.inf, math.inf
    worst_abs = worst_rel = 0.0
    for key, x in a.items():
        y = b[key]
        if not (isinstance(x, (int, float)) and isinstance(y, (int, float))):
            if x != y:
                return math.inf, math.inf
            continue
        if math.isnan(x) and math.isnan(y):
            continue
        diff = abs(x - y)
        if math.isnan(diff):
            return math.inf, math.inf
        worst_abs = max(worst_abs, diff)
        if diff:
            worst_rel = max(worst_rel, diff / max(abs(x), abs(y)))
    return worst_abs, worst_rel


def key_changes(new: dict, old: dict) -> tuple[list, list]:
    """(keys only in new, keys only in old), each sorted."""
    return sorted(set(new) - set(old)), sorted(set(old) - set(new))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", type=Path, default=Path(__file__).resolve().parents[1],
                        help="checkout to digest (default: this script's repository)")
    parser.add_argument("--against", type=Path, metavar="OTHER",
                        help="checkout to compare with; prints the differences per config")
    parser.add_argument("--dump", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    root = args.root.resolve()
    if args.dump:  # the child of --against: every output as one JSON document
        print(json.dumps(dict(outputs(root))))
        return 0
    other = None if args.against is None else dumped_outputs(args.against)
    differs = False
    for name, out in outputs(root):
        for fmt, digest in out["digests"].items():
            print(f"{digest}  {name} {fmt}", flush=True)
        if other is None:
            continue
        old = other.get(name)
        differs = differs or old is None or old["digests"] != out["digests"]
        if old is None:
            print(f"  {name}: absent from {args.against}")
        elif old["digests"] != out["digests"]:
            rows = largest_difference(out["rows"], old["rows"])
            results = largest_difference(out["results"], old["results"])
            print(f"  {name} differs: {len(out['rows'])} rows ({len(old['rows'])} in {args.against}); "
                  f"rows max |diff| {rows[0]:.3g} (rel {rows[1]:.3g}); "
                  f"results max |diff| {results[0]:.3g} (rel {results[1]:.3g})", flush=True)
            added, removed = key_changes(out["params"], old["params"])
            if added or removed:
                print(f"  {name} params: added {added}, removed {removed}", flush=True)
    return int(differs)


if __name__ == "__main__":
    raise SystemExit(main())
