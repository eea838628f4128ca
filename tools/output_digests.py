"""Print the sha256 of the CSV and the JSON output of every shipped config.

Runs each ``configs/*.yaml`` once through ``magbell.cli.run_scenario`` and
serializes the table with ``emit`` in both formats, so a refactor that must
keep the output byte-identical is checked by comparing this script's output
on two checkouts:

    python3 tools/output_digests.py > new.txt
    python3 tools/output_digests.py --root ../parent-checkout > old.txt
    diff old.txt new.txt

``--root`` names the checkout whose ``src/`` and ``configs/`` are used; it
defaults to the one holding this script.
"""

from __future__ import annotations

import argparse
import hashlib
import sys
from pathlib import Path


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", type=Path, default=Path(__file__).resolve().parents[1],
                        help="checkout to digest (default: this script's repository)")
    args = parser.parse_args(argv)
    root = args.root.resolve()
    sys.path.insert(0, str(root / "src"))
    from magbell.cli import emit, load_config, run_scenario

    for path in sorted((root / "configs").glob("*.yaml")):
        table = run_scenario(load_config(str(path)))
        for fmt in ("csv", "json"):
            digest = hashlib.sha256(emit(table, fmt)).hexdigest()
            print(f"{digest}  {path.name} {fmt}", flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
