"""Per-layer tracing for the lindgain benchmark, installed from outside the
package.

``Tracer.install`` wraps every public function and method of ``material``,
``greens``, ``master``, ``correlations`` and ``cli`` (plus the few private
callables listed in ``EXTRA`` that mark a layer boundary named by a metric).
While an op runs, each wrapped call records a span ``[name, parent, start,
end]``; at the end of the op the spans are folded into per-layer self times
(span minus the spans it caused) and counts, then dropped.

A span whose name is not in ``LAYERS`` belongs to the layer of the span that
caused it, so helpers such as ``material.require_hermitian`` are charged to
the layer that called them and the self times of all layers add up to the op.

Run as a script, this file is the child runner of the traced ``cli``
workload: ``python -X importtime bench/tracing.py OUT.json ARGV...`` imports
``lindgain.cli``, installs the wrappers, calls ``lindgain.cli.main(ARGV)``,
writes the folded totals to OUT.json and exits with main's return code.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
from collections import Counter
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter

MODULES = ("material", "greens", "master", "correlations", "cli")

# Non-public callables that are the boundary of a layer metric.
EXTRA = {
    "master": ("expm", "RatePair.__post_init__", "RateMatrices.__post_init__"),
    "cli": ("_plot_trajectory", "_svg_line_chart"),
}

ROOT = "bench.op"
HARNESS = "trace.harness"
ENTRY = "<entry>"

LAYERS = {
    ROOT: HARNESS,
    "greens.isotropic_gain_tensors": "greens.tensors",
    "greens.moving_slab_tensors_exact": "greens.tensors",
    "greens.moving_slab_tensors_asymptotic": "greens.tensors",
    "greens.add_background_loss": "greens.tensors",
    "master.thermal_tensors": "master.rates",
    "master.thermal_rate_pair": "master.rates",
    "master.thermal_rate_matrices": "master.rates",
    "master.rates_two_level": "master.rates",
    "master.rate_matrices_v": "master.rates",
    "master.RatePair.__post_init__": "master.rates",
    "master.RateMatrices.__post_init__": "master.rates",
    "master.liouvillian_two_level": "master.liouvillian",
    "master.liouvillian_v": "master.liouvillian",
    "master.steady_state_kernel": "master.kernel",
    "master.steady_two_level_closed": "master.closed_form",
    "master.steady_v_closed": "master.closed_form",
    "master.steady_linear_family": "master.closed_form",
    "master.fit_linear_family_theta": "master.closed_form",
    "master.evolve": "master.evolve",
    "master.expm": "master.propagator",
    "correlations.field_spectrum": "correlations.spectrum",
    "correlations.noise_current_spectrum": "correlations.spectrum",
    "cli.load_config": "cli.config",
    "cli.build_rate_model": "cli.config",
    "cli.build_liouvillian": "cli.config",
    "cli.parse_initial_state": "cli.config",
    "cli.write_trajectory_csv": "cli.csv",
    "cli._plot_trajectory": "cli.svg",
    "cli._svg_line_chart": "cli.svg",
    "cli.main": "cli.run_self",
    "cli.run_evolve": "cli.run_self",
    "cli.run_steady": "cli.run_self",
    "cli.run_rates": "cli.run_self",
    "cli.run_spectrum": "cli.run_self",
    "cli.run_figure": "cli.run_self",
    "cli.fig3b_sweep": "cli.run_self",
}

# A layer that only counts when called from a given parent: the per-step
# invariant check inside evolve.  Elsewhere validate belongs to its caller.
CONDITIONAL = {"master.DensityMatrix.validate": ("master.evolve", "master.validate")}

CALLS = {
    "greens.isotropic_gain_tensors": "greens.tensors_calls",
    "greens.moving_slab_tensors_exact": "greens.tensors_calls",
    "greens.moving_slab_tensors_asymptotic": "greens.tensors_calls",
    "master.liouvillian_two_level": "master.liouvillian_calls",
    "master.liouvillian_v": "master.liouvillian_calls",
    "master.steady_state_kernel": "master.kernel_calls",
    "master.DensityMatrix.validate": "master.validate_calls",
    "correlations.field_spectrum": "correlations.spectrum_calls",
    "correlations.noise_current_spectrum": "correlations.spectrum_calls",
}

TIME_LAYERS = sorted(set(LAYERS.values()) | {layer for _, layer in CONDITIONAL.values()})
COUNTERS = sorted(
    set(CALLS.values())
    | {"master.evolve_steps", "master.kernel_degenerate", "master.kernel_errors", "cli.csv_bytes"}
)


def _count_evolve(counts, args, result, exc):
    if exc is None:
        counts["master.evolve_steps"] += len(result.times) - 1


def _count_kernel(counts, args, result, exc):
    from lindgain.errors import DegenerateKernelError

    if exc is not None:
        counts["master.kernel_errors"] += 1
    if isinstance(exc, DegenerateKernelError) or (exc is None and result[1] > 1):
        counts["master.kernel_degenerate"] += 1


def _count_csv(counts, args, result, exc):
    if exc is None:
        counts["cli.csv_bytes"] += Path(args[0]).stat().st_size


HOOKS = {
    "master.evolve": _count_evolve,
    "master.steady_state_kernel": _count_kernel,
    "cli.write_trajectory_csv": _count_csv,
}


class Tracer:
    """Spans of the current op plus per-layer totals over all ops so far."""

    def __init__(self):
        self.active = False
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.self_ms: Counter = Counter()
        self.counts: Counter = Counter()
        self.ops = 0
        self.op_ms = 0.0
        self.n_spans = 0
        self._saved: list[tuple] = []

    # -- wrapping -----------------------------------------------------------

    def _wrap(self, name, fn):
        hook = HOOKS.get(name)
        spans, stack = self.spans, self.stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            span = [name, stack[-1] if stack else -1, 0.0, 0.0]
            stack.append(len(spans))
            spans.append(span)
            span[2] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span[3] = perf_counter()
                stack.pop()
                if hook:
                    hook(self.counts, args, None, exc)
                raise
            span[3] = perf_counter()
            stack.pop()
            if hook:
                hook(self.counts, args, result, None)
            return result

        return traced

    def install(self) -> None:
        """Replace the traced callables in the lindgain modules and classes.

        Module-level functions are also replaced wherever another lindgain
        module imported them by name (``from .material import ...``)."""
        mods = {m: importlib.import_module(f"lindgain.{m}") for m in MODULES}
        replaced = {}
        for short, mod in mods.items():
            extra = EXTRA.get(short, ())
            for attr, obj in list(vars(mod).items()):
                if inspect.isclass(obj) and obj.__module__ == mod.__name__:
                    for meth, fn in list(vars(obj).items()):
                        dotted = f"{obj.__name__}.{meth}"
                        if inspect.isfunction(fn) and (
                            not meth.startswith("_") or dotted in extra
                        ):
                            self._patch(obj, meth, self._wrap(f"{short}.{dotted}", fn))
                elif attr in extra or (
                    inspect.isfunction(obj)
                    and obj.__module__ == mod.__name__
                    and not attr.startswith("_")
                ):
                    replaced[id(obj)] = self._wrap(f"{short}.{attr}", obj)
                    self._patch(mod, attr, replaced[id(obj)])
        for mod in mods.values():
            for attr, obj in list(vars(mod).items()):
                wrapper = replaced.get(id(obj))
                if wrapper is not None and getattr(mod, attr) is not wrapper:
                    self._patch(mod, attr, wrapper)

    def _patch(self, owner, attr, value) -> None:
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, value = self._saved.pop()
            setattr(owner, attr, value)

    # -- ops ----------------------------------------------------------------

    @contextmanager
    def op(self):
        """Trace one op: a root span around the block, folded on exit."""
        root = [ROOT, -1, 0.0, 0.0]
        self.spans.append(root)
        self.stack.append(0)
        self.active = True
        root[2] = perf_counter()
        try:
            yield
        finally:
            root[3] = perf_counter()
            self.active = False
            self.stack.clear()
            self._fold()

    def _fold(self) -> None:
        spans = self.spans
        child = [0.0] * len(spans)
        layer = [HARNESS] * len(spans)
        for i, (name, parent, t0, t1) in enumerate(spans):
            own = LAYERS.get(name)
            cond = CONDITIONAL.get(name)
            if cond and parent >= 0 and spans[parent][0] == cond[0]:
                own = cond[1]
            if own is not None:
                layer[i] = own
                if name in CALLS:
                    self.counts[CALLS[name]] += 1
            elif parent >= 0:
                layer[i] = layer[parent]
            if parent >= 0:
                child[parent] += t1 - t0
        for i, (_, _, t0, t1) in enumerate(spans):
            self.self_ms[layer[i]] += (t1 - t0 - child[i]) * 1e3
        self.ops += 1
        self.op_ms += (spans[0][3] - spans[0][2]) * 1e3
        self.n_spans += len(spans)
        spans.clear()

    # -- results ------------------------------------------------------------

    def totals(self) -> dict:
        return {
            "ops": self.ops,
            "op_ms": self.op_ms,
            "spans": self.n_spans,
            "self_ms": dict(self.self_ms),
            "counts": dict(self.counts),
        }

    def merge(self, totals: dict) -> None:
        """Add the totals of another tracer (a traced child process)."""
        self.ops += totals["ops"]
        self.op_ms += totals["op_ms"]
        self.n_spans += totals["spans"]
        self.self_ms.update(totals["self_ms"])
        self.counts.update(totals["counts"])

    def per_op(self) -> dict:
        """Mean self time (ms) of every layer and mean of every counter, per op."""
        n = max(self.ops, 1)
        out = {f"{layer}_ms": self.self_ms.get(layer, 0.0) / n for layer in TIME_LAYERS}
        out.update({name: self.counts.get(name, 0) / n for name in COUNTERS})
        out["trace.op_ms"] = self.op_ms / n
        out["trace.spans"] = self.n_spans / n
        return out


def parse_importtime(stderr: str) -> dict:
    """Cumulative import times (ms) per module from ``python -X importtime``.

    The key ``ENTRY`` holds the cumulative time of the top-level ``lindgain``
    and ``lindgain.cli`` lines together: what ``python -m lindgain.cli`` (which
    imports the package, then runs the module) or ``import lindgain.cli`` pays
    before ``main`` runs."""
    out = {ENTRY: 0.0}
    for line in stderr.splitlines():
        fields = line.split("|")
        if not line.startswith("import time:") or len(fields) != 3:
            continue
        if not fields[1].strip().isdigit():
            continue  # the header line
        ms = int(fields[1]) / 1e3
        name = fields[2].strip()
        out[name] = ms
        # nesting is shown by two extra spaces per level after the bar
        if not fields[2].startswith("   ") and name.split(".")[0] == "lindgain":
            out[ENTRY] += ms
    return out


def _child(out_path: str, argv: list[str]) -> int:
    import lindgain.cli

    tracer = Tracer()
    tracer.install()
    try:
        with tracer.op():
            rc = lindgain.cli.main(argv)
    except SystemExit as exc:
        rc = exc.code if isinstance(exc.code, int) else 1
    Path(out_path).write_text(json.dumps(tracer.totals()))
    return rc


if __name__ == "__main__":
    sys.exit(_child(sys.argv[1], sys.argv[2:]))
