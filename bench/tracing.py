"""Spans at the lbvt module boundaries, recorded from outside the library.

``Tracer.install`` replaces each traced public function with a timing wrapper
in every lbvt module that refers to it (``analysis.validate_config`` as well
as ``model.validate_config``), so calls between layers are caught too; it
works because the library looks these names up at call time. Spans are kept
in memory as parallel arrays (name, parent span, op, start, end), summed into
per-layer calls, total time and self time at the end, and written out as CSV.
"""

from __future__ import annotations

import functools
import statistics
import time
from array import array
from pathlib import Path

import lbvt
from lbvt import analysis, chain, cli, equilibrium, linkage, model

MODULES = (lbvt, model, chain, linkage, equilibrium, analysis, cli)

TRACED = (
    (model, "validate_config"),
    (chain, "make_chain_state"),
    (linkage, "jacobian"),
    (equilibrium, "solve_equilibrium"),
    (equilibrium, "triggering_force"),
    (analysis, "sweep_torque_vs_angle"),
    (analysis, "sweep_trigger"),
    (analysis, "sweep_torque_vs_force"),
    (analysis, "sweep_ratio_vs_force"),
    (analysis, "calibrate"),
    (analysis, "ratio_step_direct"),
    (analysis, "emit_csv"),
    (analysis, "emit_svg_plot"),
    (cli, "run"),
    (cli, "load_config"),
    (cli, "save_config"),
)

SWEEPS = (
    "analysis.sweep_torque_vs_angle",
    "analysis.sweep_trigger",
    "analysis.sweep_torque_vs_force",
    "analysis.sweep_ratio_vs_force",
)


def _short(module) -> str:
    return module.__name__.rsplit(".", 1)[-1]


class Tracer:
    """Records a span per traced call while ``active`` is true."""

    def __init__(self):
        self.names = [f"{_short(m)}.{fn}" for m, fn in TRACED]
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_op = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.stack = [-1]
        self.op = -1
        self.active = False
        self.solve_iterations: list[int] = []
        self.solve_converged: list[bool] = []
        self._patched: list[tuple[object, str, object]] = []

    def _wrap(self, name_id: int, fn):
        names, parents, ops = self.span_name, self.span_parent, self.span_op
        starts, ends, stack = self.span_start, self.span_end, self.stack
        perf = time.perf_counter
        is_solve = self.names[name_id] == "equilibrium.solve_equilibrium"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            idx = len(names)
            names.append(name_id)
            parents.append(stack[-1])
            ops.append(self.op)
            ends.append(0.0)
            stack.append(idx)
            starts.append(perf())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = perf()
                stack.pop()
            if is_solve:
                self.solve_iterations.append(result.iterations)
                self.solve_converged.append(result.converged)
            return result

        return traced

    def install(self) -> None:
        for name_id, (module, fn_name) in enumerate(TRACED):
            original = getattr(module, fn_name)
            wrapper = self._wrap(name_id, original)
            for mod in MODULES:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._patched.append((mod, attr, original))
                        setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        while self._patched:
            mod, attr, original = self._patched.pop()
            setattr(mod, attr, original)

    def layer_totals(self) -> dict[str, tuple[int, float, float]]:
        """Per traced name: (calls, total seconds, self seconds)."""
        n = len(self.span_name)
        child = [0.0] * n
        for i in range(n):
            p = self.span_parent[i]
            if p >= 0:
                child[p] += self.span_end[i] - self.span_start[i]
        totals = {name: [0, 0.0, 0.0] for name in self.names}
        for i in range(n):
            dur = self.span_end[i] - self.span_start[i]
            t = totals[self.names[self.span_name[i]]]
            t[0] += 1
            t[1] += dur
            t[2] += dur - child[i]
        return {name: tuple(t) for name, t in totals.items()}

    def write_spans(self, path: Path) -> None:
        t0 = self.span_start[0] if len(self.span_start) else 0.0
        lines = ["op,span,parent,name,start_us,end_us"]
        for i in range(len(self.span_name)):
            lines.append(
                f"{self.span_op[i]},{i},{self.span_parent[i]},{self.names[self.span_name[i]]},"
                f"{(self.span_start[i] - t0) * 1e6:.3f},{(self.span_end[i] - t0) * 1e6:.3f}"
            )
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")

    def layer_metrics(self, scale: float) -> dict[str, tuple[float, str]]:
        """The per-layer metrics, name -> (value, unit); times are multiplied by scale."""
        totals = self.layer_totals()

        def calls(name):
            return totals[name][0]

        def per_call(name, unit_s, column=1):
            c = totals[name][0]
            return totals[name][column] * scale / unit_s / c if c else 0.0

        def self_per_call(name, unit_s):
            return per_call(name, unit_s, column=2)

        sweep_calls = sum(calls(s) for s in SWEEPS)
        sweep_self = sum(totals[s][2] for s in SWEEPS) * scale
        iters = self.solve_iterations
        solve = "equilibrium.solve_equilibrium"
        return {
            "cli.load_config.per_call_us": (per_call("cli.load_config", 1e-6), "us"),
            "model.validate_config.per_call_us": (per_call("model.validate_config", 1e-6), "us"),
            "model.validate_config.calls": (calls("model.validate_config"), "count"),
            "cli.run.self_ms": (self_per_call("cli.run", 1e-3), "ms"),
            "analysis.sweep.self_ms": (
                sweep_self / 1e-3 / sweep_calls if sweep_calls else 0.0, "ms"),
            "analysis.emit_csv.self_ms": (self_per_call("analysis.emit_csv", 1e-3), "ms"),
            "analysis.emit_svg_plot.self_ms": (
                self_per_call("analysis.emit_svg_plot", 1e-3), "ms"),
            "analysis.calibrate.per_call_ms": (per_call("analysis.calibrate", 1e-3), "ms"),
            "equilibrium.triggering_force.calls": (calls("equilibrium.triggering_force"), "count"),
            "equilibrium.triggering_force.per_call_us": (
                per_call("equilibrium.triggering_force", 1e-6), "us"),
            "linkage.jacobian.calls": (calls("linkage.jacobian"), "count"),
            "linkage.jacobian.per_call_us": (per_call("linkage.jacobian", 1e-6), "us"),
            f"{solve}.calls": (calls(solve), "count"),
            f"{solve}.per_call_ms": (per_call(solve, 1e-3), "ms"),
            f"{solve}.self_ms": (self_per_call(solve, 1e-3), "ms"),
            "equilibrium.iterations_per_solve.mean": (
                statistics.fmean(iters) if iters else 0.0, "count"),
            "equilibrium.iterations_per_solve.max": (max(iters, default=0), "count"),
            "equilibrium.converged_share": (
                sum(self.solve_converged) / len(iters) if iters else 1.0, "ratio"),
            "chain.make_chain_state.calls": (calls("chain.make_chain_state"), "count"),
            "chain.make_chain_state.per_call_us": (
                per_call("chain.make_chain_state", 1e-6), "us"),
        }


IMPORT_PACKAGES = ("scipy", "numpy", "lbvt")


def parse_importtime(stderr: str) -> dict[str, float]:
    """Self import time in ms per top-level package, from ``python -X importtime`` output."""
    out = {pkg: 0.0 for pkg in IMPORT_PACKAGES}
    for line in stderr.splitlines():
        # "import time:       self [us] |  cumulative | imported package"
        if not line.startswith("import time:"):
            continue
        fields = line[len("import time:"):].split("|")
        if len(fields) != 3 or not fields[0].strip().isdigit():
            continue
        top = fields[2].strip().split(".")[0]
        if top in out:
            out[top] += int(fields[0]) / 1e3
    return out
