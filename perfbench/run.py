"""magbell benchmark: end-to-end metrics of one workload, or its per-layer trace.

Run from the root of a magbell checkout:

    python3 perfbench/run.py --workload {lossy,single_shot,closed_sweep} \\
        --seed N --seconds S --trace {0,1}

The run is a closed loop in this one process: it generates the workload's
inputs from the seed, validates them through magbell, then runs passes over
all inputs, one input at a time, until S seconds of passes have been
measured (at least one pass).  Every output is checked afterwards against
the oracles in ``oracles.py``; later passes must reproduce the first pass's
outputs exactly.  Set-up time is measured in fresh interpreters.

With ``--trace 0`` the result reports the end-to-end metrics: ``setup_s``,
``wall_s``, ``cpu_s`` and ``peak_rss_mb``.  The fifth end-to-end figure,
the failed fraction, is ``failed / attempted`` of the result line and is
printed in the summary.  With ``--trace 1`` the run adds one traced pass
after the untraced ones and reports the per-layer metrics of ``layers.py``.

Output: a summary, an environment stamp and diagnostics, and as the last
line one JSON object with the keys correct, attempted, failed and metrics.
Exit code 2 when the directory holds no magbell checkout.
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import importlib.metadata
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

# (name, unit, better); failed_frac is carried by the result's attempted/failed.
END_TO_END = (
    ("setup_s", "s", "lower"),
    ("wall_s", "s", "lower"),
    ("cpu_s", "s", "lower"),
    ("peak_rss_mb", "MiB", "lower"),
)
SETUP_REPEATS = 4  # set-ups before the passes, and as many after them
BLAS_THREADS = "1"
PROBE_TIMEOUT_S = 120


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("lossy", "single_shot", "closed_sweep"))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def checkout_problem(root: Path) -> str | None:
    for needed in ("src/magbell/__init__.py", "configs"):
        if not (root / needed).exists():
            return f"{root} is not a magbell checkout: {needed} is missing"
    return None


# --- environment stamp ----------------------------------------------------------


def _git_sha(root: Path) -> str | None:
    if not (root / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def _source_digest(root: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")) + sorted((root / "configs").glob("*.yaml")):
        digest.update(str(path.relative_to(root)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def _version(package: str) -> str | None:
    try:
        return importlib.metadata.version(package)
    except importlib.metadata.PackageNotFoundError:
        return None


def _blas() -> dict:
    import numpy

    info = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    threads = None
    with open("/proc/self/maps") as maps:
        libraries = sorted({line.split()[-1] for line in maps if "openblas" in line and "/" in line})
    for library in libraries:
        lib = ctypes.CDLL(library)
        for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(lib, symbol):
                getter = getattr(lib, symbol)
                getter.restype = ctypes.c_int
                threads = getter()
                break
    return {"name": info.get("name"), "version": info.get("version"), "threads": threads}


def environment(root: Path, loadavg: str) -> dict:
    import numpy

    return {
        "git_sha": _git_sha(root),
        "source_sha256": _source_digest(root),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": _version("scipy"),
        "pyyaml": _version("PyYAML"),
        "blas": _blas(),
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg_at_start": loadavg,
    }


# --- measurement ------------------------------------------------------------------


def measure_setup(root: Path, workload: str, seed: int) -> list[float]:
    """Seconds from starting a fresh interpreter until it has validated the inputs, per set-up."""
    probe = [sys.executable, str(root / "perfbench" / "setup_probe.py"), workload, str(seed)]
    times = []
    for _ in range(SETUP_REPEATS):
        start = time.monotonic()
        done = subprocess.run(probe, cwd=root, capture_output=True, text=True, check=True,
                              timeout=PROBE_TIMEOUT_S)
        times.append(float(done.stdout.split()[-1]) - start)
    return times


def output_digest(output) -> str | None:
    if isinstance(output, Exception):
        return None
    if isinstance(output, bytes):
        return hashlib.sha256(output).hexdigest()
    digest = hashlib.sha256()
    for key in ("fidelity_plus", "fidelity_minus", "success_probability", "even_population"):
        digest.update(getattr(output, key).tobytes())
    digest.update(output.final_state.data.tobytes())
    return digest.hexdigest()


def measure_passes(workloads, prepared, seconds: float):
    """Untraced passes until `seconds` of them are measured: wall and CPU times, outputs."""
    walls, cpus, outputs = [], [], []
    while not walls or sum(walls) < seconds:
        cpu0, wall0 = time.process_time(), time.perf_counter()
        result = workloads.run_pass(prepared)
        wall1, cpu1 = time.perf_counter(), time.process_time()
        walls.append(wall1 - wall0)
        cpus.append(cpu1 - cpu0)
        outputs.append(result)
    return walls, cpus, outputs


def count_failures(oracles, prepared, passes) -> tuple[int, list[str]]:
    """Inputs that raised or failed their check; later passes must repeat the first exactly."""
    failed, problems = 0, []
    first = passes[0]
    reference = [output_digest(out) for out in first]
    for item, output in zip(prepared, first):
        found = oracles.check(item.spec, output)
        failed += bool(found)
        problems += [f"{item.name}: {p}" for p in found]
    for index, outputs in enumerate(passes[1:], start=1):
        for item, output, want in zip(prepared, outputs, reference):
            if want is None or output_digest(output) != want:
                failed += 1
                problems.append(f"{item.name}: pass {index} output differs from pass 0")
    return failed, problems


def traced_pass(workloads, layers, inputs, root):
    """Validate and run the inputs once more with every layer traced."""
    tracer = layers.Tracer()
    with tracer:
        prepared = workloads.prepare(inputs, root)
        start = len(tracer.spans)
        wall0 = time.perf_counter()
        outputs = workloads.run_pass(prepared)
        wall = time.perf_counter() - wall0
    return tracer, start, wall, outputs


def winning_evaluations(oracles, prepared, outputs) -> int:
    """Objective evaluations of the winning restart, as each single-shot result reports them."""
    total = 0
    for item, output in zip(prepared, outputs):
        if item.spec.get("scenario") == "single-shot" and isinstance(output, bytes):
            total += oracles.parse_csv(output)[0]["results"]["iterations"]
    return total


def main(argv=None) -> int:
    args = parse_args(argv)
    root = Path(__file__).resolve().parent.parent
    problem = checkout_problem(root)
    if problem:
        print(f"error: {problem}", file=sys.stderr)
        return 2
    with open("/proc/loadavg") as fh:
        loadavg = fh.read().strip()
    # One BLAS thread, set before numpy loads: the matrices here are at most
    # 432-dim, and with a second OpenBLAS thread a closed_sweep pass that
    # takes 12 s had not finished after 100 s while another process held the
    # other core.
    os.environ["OPENBLAS_NUM_THREADS"] = BLAS_THREADS

    import layers
    import oracles
    import workloads

    inputs = workloads.generate(args.workload, args.seed)
    # Set-ups are sampled on both sides of the passes, so that their median
    # spans the run rather than one moment of a host whose speed drifts.
    setup_times = measure_setup(root, args.workload, args.seed)
    workloads.import_magbell(root)
    prepared = workloads.prepare(inputs, root)

    walls, cpus, passes = measure_passes(workloads, prepared, args.seconds)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    setup_times += measure_setup(root, args.workload, args.seed)
    failed, problems = count_failures(oracles, prepared, passes)
    attempted = len(prepared) * len(passes)

    end_to_end = {
        "setup_s": statistics.median(setup_times),
        "wall_s": statistics.median(walls),
        "cpu_s": statistics.median(cpus),
        "peak_rss_mb": peak_rss_mb,
    }
    print(f"workload {args.workload}, seed {args.seed}: {len(prepared)} inputs, "
          f"{len(passes)} pass(es), closed loop in one process")
    for name, unit, _ in END_TO_END:
        samples = {"setup_s": len(setup_times), "peak_rss_mb": 1}.get(name, len(walls))
        print(f"  {name:<12} {end_to_end[name]:12.6f} {unit:<4} (median of {samples})")
    print(f"  {'failed_frac':<12} {failed / attempted:12.6f}      ({failed} of {attempted} inputs)")
    for line in problems:
        print(f"  FAILED {line}")

    diagnostics = {
        "env": environment(root, loadavg),
        "passes_wall_s": walls,
        "passes_cpu_s": cpus,
        "setup_s_samples": setup_times,
        "output_sha256": {item.name: output_digest(out) for item, out in zip(prepared, passes[0])},
    }
    metrics = {name: {"value": end_to_end[name], "unit": unit} for name, unit, _ in END_TO_END}

    if args.trace:
        tracer, start, traced_wall, traced_outputs = traced_pass(workloads, layers, inputs, root)
        for item, output, want in zip(prepared, traced_outputs, diagnostics["output_sha256"].values()):
            if output_digest(output) != want:
                failed += 1
                print(f"  FAILED {item.name}: traced output differs from untraced")
        attempted += len(prepared)
        values = layers.layer_metrics(tracer, winning_evaluations(oracles, prepared, traced_outputs),
                                      traced_wall, end_to_end["wall_s"])
        metrics = {name: {"value": values[name], "unit": unit} for name, unit, *_ in layers.LAYER_METRICS}
        diagnostics["trace"] = {
            "spans": len(tracer.spans),
            "self_time_sum_s": tracer.top_level_time(start),
            "layers": tracer.summary(),
        }
        print(f"  traced pass {traced_wall:.6f} s, untraced {end_to_end['wall_s']:.6f} s, "
              f"{len(tracer.spans)} spans")

    print("diagnostics " + json.dumps(diagnostics, sort_keys=True))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
