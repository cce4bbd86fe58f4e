"""Per-layer calls and self time, recorded from outside the program.

The tracer replaces each listed function by a wrapper at every module
binding: ``cli_reports`` imports names directly, and ``maximizing_face``
imports ``critical_structure`` at call time, so patching only the defining
module would miss calls. Leaving the ``with`` block puts every original back.

A span's self time is its duration minus the durations of the wrapped spans
it called. The hot ``symbolic_core`` primitives are counted, not spanned, so
the trace stays cheap.
"""

from __future__ import annotations

import importlib
import time
from collections import defaultdict

# Public functions spanned per module, in the order of BENCHMARK.json's
# per_layer list. What each layer should move, and on which workload:
#   cli_reports        op_p50_s on check_corpus (parser build, emission)
#   symbolic_core      check_p50_s on check_corpus
#   potential_model    beta_p50_s on the p=3 rung of optimum_ladder
#   graph_engine       pass_s, mane/classify/u0_p50_s on excursion_ladder
#   rational_simplex   pass_s, beta_p50_s, peak_rss_mb on optimum_ladder;
#                      no calls on excursion_ladder
#   holonomic_opt      beta_p50_s, alpha_p50_s on optimum_ladder
#   subaction_lab      failed_ratio, pass_s on excursion_ladder;
#                      calibrated_p50_s on check_corpus
#   mane_aubry         mane/classify/u0_p50_s on excursion_ladder
#   oracle_bruteforce  check_p50_s, pass_s on check_corpus; no calls elsewhere
SPANNED = {
    "cli_reports": (
        "main",
        "parse_config_text",
        "render_report",
        "cmd_beta",
        "cmd_subaction",
        "cmd_mane",
        "cmd_classify",
        "cmd_alpha",
        "cmd_check",
    ),
    "symbolic_core": ("allowed_words", "classify_transitivity"),
    "potential_model": ("reduce_past", "combine", "pad_potential"),
    "graph_engine": (
        "build_prepend_graph",
        "max_mean_cycle",
        "parametric_beta",
        "bellman_potentials",
        "min_cost_all_pairs",
        "critical_structure",
    ),
    "rational_simplex": ("solve_lp",),
    "holonomic_opt": ("beta_lp", "constrained_beta", "alpha", "maximizing_face"),
    "subaction_lab": (
        "maximal_subaction",
        "calibrated_via_discount",
        "discounted_fixed_point",
        "calibration_residual",
        "livsic_test",
        "refine_subaction_Uk",
    ),
    "mane_aubry": ("omega_set", "maximal_calibrated", "reconstruct", "represent"),
    "oracle_bruteforce": ("oracle_beta", "oracle_omega"),
}

COUNTED = {"symbolic_core": ("prepend", "distance", "window")}


def _tableau_cells(args, kwargs) -> int:
    """Phase-1 tableau size m x (n + m + 1); the minimizing call builds none."""
    objective, rows = args[0], args[1]
    if not kwargs.get("maximize", args[3] if len(args) > 3 else True):
        return 0
    m = len(rows)
    return m * (len(objective) + m + 1)


class Tracer:
    """Context manager that wraps the listed functions and records spans."""

    def __init__(self) -> None:
        self.calls: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.extra: dict[str, int] = defaultdict(int)
        self._stack: list[list[float]] = []  # [start, child time] per open span
        self._restore: list[tuple[object, str, object]] = []

    def _span(self, key: str, func):
        calls, self_s, stack, clock = self.calls, self.self_s, self._stack, time.perf_counter
        extra = self.extra

        def wrapper(*args, **kwargs):
            calls[key] += 1
            if key == "rational_simplex.solve_lp":
                extra["rational_simplex.tableau_cells"] += _tableau_cells(args, kwargs)
            frame = [clock(), 0.0]
            stack.append(frame)
            try:
                result = func(*args, **kwargs)
            finally:
                stack.pop()
                elapsed = clock() - frame[0]
                self_s[key] += elapsed - frame[1]
                if stack:
                    stack[-1][1] += elapsed
            if key == "graph_engine.build_prepend_graph":
                extra["graph_engine.nodes"] += len(result.nodes)
                extra["graph_engine.edges"] += len(result.edges)
            return result

        return wrapper

    def _count(self, key: str, func):
        calls = self.calls

        def wrapper(*args, **kwargs):
            calls[key] += 1
            return func(*args, **kwargs)

        return wrapper

    def __enter__(self) -> "Tracer":
        # every module that imports a wrapped name is itself in SPANNED
        modules = [importlib.import_module(f"ergopt.{name}") for name in SPANNED]
        wrappers = {}
        for table, make in ((SPANNED, self._span), (COUNTED, self._count)):
            for module_name, names in table.items():
                module = importlib.import_module(f"ergopt.{module_name}")
                for name in names:
                    original = getattr(module, name)
                    wrappers[id(original)] = (original, make(f"{module_name}.{name}", original))
        for module in modules:
            for attr, value in list(vars(module).items()):
                if id(value) in wrappers and wrappers[id(value)][0] is value:
                    self._restore.append((module, attr, value))
                    setattr(module, attr, wrappers[id(value)][1])
        return self

    def __exit__(self, *exc) -> None:
        for module, attr, original in reversed(self._restore):
            setattr(module, attr, original)
        self._restore.clear()

    def metrics(self) -> dict[str, tuple[float, str]]:
        """Every per-layer metric, zero where a function was never called."""
        out: dict[str, tuple[float, str]] = {}
        for module_name, names in SPANNED.items():
            module_self = 0.0
            for name in names:
                key = f"{module_name}.{name}"
                out[f"{key}.calls"] = (self.calls.get(key, 0), "count")
                out[f"{key}.self_s"] = (self.self_s.get(key, 0.0), "s")
                module_self += self.self_s.get(key, 0.0)
            out[f"{module_name}.self_s"] = (module_self, "s")
        for module_name, names in COUNTED.items():
            for name in names:
                key = f"{module_name}.{name}"
                out[f"{key}.calls"] = (self.calls.get(key, 0), "count")
        for key in ("graph_engine.nodes", "graph_engine.edges", "rational_simplex.tableau_cells"):
            out[key] = (self.extra.get(key, 0), "count")
        return out
