"""Outside-in tracing of magbell's layers, from the benchmark's own code.

``Tracer.install`` wraps each traced function and rebinds it in every
magbell module namespace that holds it (``measurement`` keeps its own
``integrate_master``, ``optimize`` its own ``propagator``, ``cli`` its own
runners), and wraps ``__post_init__`` of the validated value classes.
Spans are kept in memory as [name, parent, start, end] and summarized at
the end; a span's self time is its duration minus that of its child spans.
``uninstall`` puts every original back.
"""

from __future__ import annotations

import importlib
import sys
import time
from collections import defaultdict

FUNCTIONS = (
    ("cli", "load_config"), ("cli", "run_scenario"), ("cli", "emit"),
    ("measurement", "run_protocol"), ("measurement", "stabilize"), ("measurement", "numeric_kraus"),
    ("dynamics", "integrate_master"), ("dynamics", "propagator"),
    ("dynamics", "time_ordered_propagator"),
    ("optimize", "nelder_mead"), ("optimize", "evaluate_single_shot"),
    ("model", "build_jc_effective"), ("model", "sw_reduction_check"),
    ("model", "dispersive_evolution_fidelity"),
    ("hilbert", "fidelity"),
)
# Value classes whose construction copies and validates their array.
CLASSES = (("hilbert", "QuantumState"), ("hilbert", "Operator"))
_TRACED_NAMES = {f"{module}.{attr}" for module, attr in FUNCTIONS + CLASSES}
OBJECTIVE = "optimize.objective"

# Per-layer metrics: (name, unit, better, the end-to-end metric it should move and where).
LAYER_METRICS = (
    ("dynamics.integrate_master.calls", "count", "lower", "wall_s, cpu_s on lossy; none elsewhere"),
    ("dynamics.integrate_master.s", "s", "lower", "wall_s, cpu_s on lossy; none elsewhere"),
    ("dynamics.rk4_steps", "count", "lower", "wall_s, cpu_s on lossy; none elsewhere"),
    ("optimize.nelder_mead.calls", "count", "lower", "wall_s on single_shot; absent elsewhere"),
    ("optimize.nelder_mead.s", "s", "lower", "wall_s on single_shot; absent elsewhere"),
    ("optimize.objective_calls", "count", "lower", "wall_s on single_shot; absent elsewhere"),
    ("optimize.objective_us", "us", "lower", "wall_s on single_shot; absent elsewhere"),
    ("optimize.winning_evals_frac", "ratio", "higher", "wall_s on single_shot; absent elsewhere"),
    ("optimize.evaluate_single_shot.s", "s", "lower", "wall_s on single_shot"),
    ("dynamics.time_ordered_propagator.calls", "count", "lower", "wall_s on single_shot"),
    ("dynamics.time_ordered_propagator.s", "s", "lower", "wall_s on single_shot"),
    ("dynamics.propagator.calls", "count", "lower", "wall_s on single_shot and closed_sweep"),
    ("dynamics.propagator.s", "s", "lower", "wall_s on single_shot and closed_sweep"),
    ("dynamics.propagator.max_dim", "dim", "lower", "wall_s on single_shot and closed_sweep"),
    ("measurement.run_protocol.calls", "count", "lower", "wall_s on closed_sweep; small on lossy"),
    ("measurement.run_protocol.self_s", "s", "lower", "wall_s on closed_sweep; small on lossy"),
    ("measurement.rounds", "count", "lower", "wall_s on closed_sweep; small on lossy"),
    ("measurement.round_us", "us", "lower", "wall_s on closed_sweep; small on lossy"),
    ("hilbert.QuantumState.calls", "count", "lower", "wall_s on closed_sweep; small on lossy"),
    ("hilbert.QuantumState.s", "s", "lower", "wall_s on closed_sweep; small on lossy"),
    ("hilbert.fidelity.calls", "count", "lower", "wall_s on closed_sweep; small on lossy"),
    ("hilbert.fidelity.s", "s", "lower", "wall_s on closed_sweep; small on lossy"),
    ("measurement.numeric_kraus.s", "s", "lower", "wall_s on closed_sweep"),
    ("model.build_jc_effective.calls", "count", "lower", "wall_s on closed_sweep (2 per stabilize)"),
    ("model.build_jc_effective.s", "s", "lower", "wall_s on closed_sweep"),
    ("measurement.stabilize.self_s", "s", "lower", "wall_s on lossy (free-decay leg)"),
    ("model.sw_reduction_check.s", "s", "lower", "wall_s on closed_sweep"),
    ("model.dispersive_evolution_fidelity.s", "s", "lower", "wall_s on closed_sweep"),
    ("hilbert.Operator.calls", "count", "lower", "wall_s on closed_sweep"),
    ("hilbert.Operator.s", "s", "lower", "wall_s on closed_sweep"),
    ("cli.load_config.s", "s", "lower", "setup_s, and wall_s on closed_sweep"),
    ("cli.run_scenario.self_s", "s", "lower", "setup_s, and wall_s on closed_sweep"),
    ("cli.emit.s", "s", "lower", "setup_s, and wall_s on closed_sweep"),
    ("cli.emit.bytes", "bytes", "lower", "setup_s, and wall_s on closed_sweep"),
    ("trace.wall_s", "s", "lower", "traced wall time of one pass"),
    ("trace.overhead_s", "s", "lower", "traced minus untraced wall_s of one pass"),
)


def _arg(args, kwargs, index, name):
    return kwargs[name] if name in kwargs else args[index]


class Tracer:
    """Records spans around calls into magbell while installed."""

    def __init__(self):
        self.spans: list[list] = []
        self.counters: dict[str, int] = defaultdict(int)
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def _span(self, name, fn, before=None, after=None):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            if before is not None:
                args, kwargs = before(args, kwargs)
            index = len(spans)
            span = [name, stack[-1] if stack else -1, 0.0, 0.0]
            spans.append(span)
            stack.append(index)
            span[2] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = clock()
                stack.pop()
            if after is not None:
                after(result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _hooks(self, name):
        counters = self.counters
        if name == "dynamics.integrate_master":
            def before(args, kwargs):
                t_final, cfg = _arg(args, kwargs, 2, "t_final"), _arg(args, kwargs, 3, "cfg")
                counters["dynamics.rk4_steps"] += max(1, round(t_final / cfg.dt)) if t_final else 0
                return args, kwargs
            return before, None
        if name == "dynamics.propagator":
            def before(args, kwargs):
                dim = _arg(args, kwargs, 0, "H").space.total_dim
                counters["dynamics.propagator.max_dim"] = max(counters["dynamics.propagator.max_dim"], dim)
                return args, kwargs
            return before, None
        if name == "measurement.run_protocol":
            def before(args, kwargs):
                counters["measurement.rounds"] += _arg(args, kwargs, 1, "cfg").rounds
                return args, kwargs
            return before, None
        if name == "cli.emit":
            def after(blob):
                counters["cli.emit.bytes"] += len(blob)
            return None, after
        if name == "optimize.nelder_mead":
            def before(args, kwargs):
                objective = self._span(OBJECTIVE, _arg(args, kwargs, 0, "objective"))
                if "objective" in kwargs:
                    return args, dict(kwargs, objective=objective)
                return (objective,) + tuple(args[1:]), kwargs
            return before, None
        return None, None

    def install(self):
        """Wrap every traced function in all magbell namespaces, and the value classes."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        for module_name, _ in FUNCTIONS + CLASSES:
            importlib.import_module(f"magbell.{module_name}")
        modules = [m for key, m in list(sys.modules.items())
                   if m is not None and (key == "magbell" or key.startswith("magbell."))]
        for module_name, attr in FUNCTIONS:
            original = getattr(sys.modules[f"magbell.{module_name}"], attr)
            wrapper = self._span(f"{module_name}.{attr}", original, *self._hooks(f"{module_name}.{attr}"))
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patches.append((module, key, value))
                        setattr(module, key, wrapper)
        for module_name, attr in CLASSES:
            cls = getattr(sys.modules[f"magbell.{module_name}"], attr)
            original = cls.__dict__["__post_init__"]
            self._patches.append((cls, "__post_init__", original))
            cls.__post_init__ = self._span(f"{module_name}.{attr}", original)

    def uninstall(self):
        while self._patches:
            owner, key, original = self._patches.pop()
            setattr(owner, key, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    # --- summaries ---------------------------------------------------------------

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, inclusive seconds and self seconds."""
        spans = self.spans
        child_time = defaultdict(float)
        for name, parent, t0, t1 in spans:
            if parent >= 0:
                child_time[parent] += t1 - t0
        out: dict[str, dict[str, float]] = defaultdict(lambda: {"calls": 0, "s": 0.0, "self_s": 0.0})
        for index, (name, _, t0, t1) in enumerate(spans):
            entry = out[name]
            entry["calls"] += 1
            entry["s"] += t1 - t0
            entry["self_s"] += t1 - t0 - child_time[index]
        return dict(out)

    def child_time(self, parent_name: str, child_names: set[str]) -> float:
        """Total duration of spans named in child_names whose parent is named parent_name."""
        spans = self.spans
        return sum(t1 - t0 for name, parent, t0, t1 in spans
                   if name in child_names and parent >= 0 and spans[parent][0] == parent_name)

    def top_level_time(self, start: int = 0) -> float:
        """Duration of the spans from ``start`` on that have no traced parent.

        It equals the sum of those spans' self times, so the traced wall time
        minus this is the time no layer accounts for.
        """
        return sum(t1 - t0 for _, parent, t0, t1 in self.spans[start:] if parent < start)


def layer_metrics(tracer: Tracer, winning_evals: int, traced_wall: float, untraced_wall: float) -> dict:
    """The per-layer metrics of LAYER_METRICS from a finished trace."""
    summary = tracer.summary()
    empty = {"calls": 0, "s": 0.0, "self_s": 0.0}

    def stat(name, key):
        return summary.get(name, empty)[key]

    values = {}
    for metric, *_ in LAYER_METRICS:
        layer, _, key = metric.rpartition(".")
        if layer in _TRACED_NAMES and key in empty:
            values[metric] = stat(layer, key)
    values.update({key: tracer.counters[key] for key in
                   ("dynamics.rk4_steps", "dynamics.propagator.max_dim", "measurement.rounds",
                    "cli.emit.bytes")})
    objective_calls = stat(OBJECTIVE, "calls")
    values["optimize.objective_calls"] = objective_calls
    if objective_calls:
        values["optimize.objective_us"] = 1e6 * stat(OBJECTIVE, "self_s") / objective_calls
        values["optimize.winning_evals_frac"] = winning_evals / objective_calls
    else:
        values["optimize.objective_us"] = values["optimize.winning_evals_frac"] = 0.0
    # Per round: run_protocol's time outside its Hamiltonian build and Kraus construction.
    rounds = tracer.counters["measurement.rounds"]
    loop_time = stat("measurement.run_protocol", "s") - tracer.child_time(
        "measurement.run_protocol", {"model.build_jc_effective", "measurement.numeric_kraus"})
    values["measurement.round_us"] = 1e6 * loop_time / rounds if rounds else 0.0
    values["trace.wall_s"] = traced_wall
    values["trace.overhead_s"] = traced_wall - untraced_wall
    return {metric: values[metric] for metric, *_ in LAYER_METRICS}

