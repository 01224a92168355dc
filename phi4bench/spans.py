"""Per-layer spans recorded from outside phi4lab by wrapping its public functions.

No file of phi4lab changes: the tracer replaces each target function at every
module attribute that binds it (``from .fock import apply_smeared`` binds a
second name in ``phi4lab.hamiltonian``, a third in ``phi4lab.verify`` and a
fourth in ``phi4lab``), and each target method on its class.  Spans are kept in
memory as ``[name, start, end, parent]`` rows, parent being the index of the
enclosing span or -1, and restored attributes leave phi4lab as it was.
"""

from __future__ import annotations

import functools
import importlib
import math
import sys
import time

# (span name, module, attribute); a dotted attribute is a method of a class.
# Several functions may share one span name: they form one group.
TARGETS = (
    ("config.parse_config", "phi4lab.config", "parse_config"),
    ("fock.enumerate_basis", "phi4lab.fock", "enumerate_basis"),
    ("fock.apply_smeared", "phi4lab.fock", "apply_smeared"),
    ("fock.apply_mode_annihilation", "phi4lab.fock", "apply_mode_annihilation"),
    ("hamiltonian.HamiltonianSet", "phi4lab.hamiltonian", "HamiltonianSet.__init__"),
    ("hamiltonian.matvec", "phi4lab.fock", "OperatorHandle.__call__"),
    ("hamiltonian.apply_interaction", "phi4lab.hamiltonian", "apply_interaction"),
    ("spectral.ground_state", "phi4lab.spectral", "ground_state"),
    ("spectral.solve_shifted", "phi4lab.spectral", "solve_shifted"),
    ("theory.compute_constants", "phi4lab.theory", "compute_constants"),
    ("theory.optimize_epsilon", "phi4lab.theory", "optimize_epsilon"),
    ("theory.epsilon_family", "phi4lab.theory", "epsilon_family"),
    ("verify.check_pull_through", "phi4lab.verify", "check_pull_through"),
    ("verify.identity_suite", "phi4lab.verify", "check_ccr"),
    ("verify.identity_suite", "phi4lab.verify", "check_free_commutators"),
    ("verify.identity_suite", "phi4lab.verify", "check_ladder_bounds"),
    ("verify.identity_suite", "phi4lab.verify", "check_double_commutator"),
    ("verify.identity_suite", "phi4lab.verify", "check_weak_commutator"),
    ("verify.check_hbound", "phi4lab.verify", "check_hbound"),
    ("verify.check_phi3_bound", "phi4lab.verify", "check_phi3_bound"),
    ("verify.check_arai_identities", "phi4lab.verify", "check_arai_identities"),
    ("report.write_json", "phi4lab.report", "write_json"),
    ("cli.main", "phi4lab.cli", "main"),
)

MATVEC = "hamiltonian.matvec"
CG_ITERS = "spectral.cg_iters_per_solve"
OVERHEAD = "trace_overhead_frac"

# Every per-layer metric the benchmark prints, in BENCHMARK.json order.
# ``<span>.calls`` counts spans, ``.s`` is inclusive time (outermost span of a
# name only), ``.self_s`` excludes time covered by child spans, and
# ``.matvecs`` counts H matvecs made while a span of that name was open.
LAYER_METRICS = (
    "config.parse_config.s",
    "fock.enumerate_basis.s",
    "fock.apply_smeared.calls",
    "fock.apply_smeared.s",
    "fock.apply_mode_annihilation.calls",
    "fock.apply_mode_annihilation.s",
    "hamiltonian.HamiltonianSet.s",
    "hamiltonian.matvec.calls",
    "hamiltonian.matvec.s",
    "hamiltonian.matvec.self_s",
    "hamiltonian.apply_interaction.calls",
    "hamiltonian.apply_interaction.s",
    "spectral.ground_state.calls",
    "spectral.ground_state.s",
    "spectral.ground_state.self_s",
    "spectral.ground_state.matvecs",
    "spectral.solve_shifted.calls",
    "spectral.solve_shifted.s",
    "spectral.solve_shifted.self_s",
    "spectral.solve_shifted.matvecs",
    CG_ITERS,
    "theory.compute_constants.s",
    "theory.optimize_epsilon.s",
    "theory.epsilon_family.calls",
    "verify.check_pull_through.s",
    "verify.check_pull_through.self_s",
    "verify.identity_suite.s",
    "verify.check_hbound.s",
    "verify.check_phi3_bound.s",
    "verify.check_arai_identities.s",
    "report.write_json.s",
    "cli.main.s",
    OVERHEAD,
)

COUNT_STATS = ("calls", "matvecs")


def metric_unit(metric: str) -> str:
    if metric == OVERHEAD:
        return "frac"
    if metric == CG_ITERS or metric.rsplit(".", 1)[1] in COUNT_STATS:
        return "count"
    return "s"


class Tracer:
    """Context manager that wraps every target while it is entered."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1]
            spans.append(span)
            stack.append(index)
            span[1] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()

        return traced

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def install(self) -> None:
        for name, module_name, attr in TARGETS:
            owner = importlib.import_module(module_name)
            if "." in attr:
                cls_name, method = attr.split(".")
                cls = getattr(owner, cls_name)
                self._patch(cls, method, self._wrap(name, vars(cls)[method]))
                continue
            original = getattr(owner, attr)
            wrapper = self._wrap(name, original)
            for module_key, module in list(sys.modules.items()):
                if module is None or not (module_key == "phi4lab" or module_key.startswith("phi4lab.")):
                    continue
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, key, wrapper)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()


def covered(intervals) -> float:
    """Total length of the union of (start, end) intervals."""
    total, reach = 0.0, -math.inf
    for start, end in sorted(intervals):
        if end > reach:
            total += end - max(start, reach)
            reach = end
    return total


def summarize(spans) -> dict[str, dict]:
    """Per span name: calls, inclusive s, self_s and matvecs (see LAYER_METRICS)."""
    children: list[list[tuple[float, float]]] = [[] for _ in spans]
    for name, start, end, parent in spans:
        if parent >= 0:
            children[parent].append((start, end))
    enclosing: dict[int, frozenset] = {-1: frozenset()}  # names open around a span's children
    stats: dict[str, dict] = {}
    for index, (name, start, end, parent) in enumerate(spans):
        outer = enclosing[parent]
        if children[index]:
            enclosing[index] = outer | {name}
        st = stats.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0, "matvecs": 0})
        st["calls"] += 1
        if name not in outer:
            st["s"] += end - start
        st["self_s"] += (end - start) - covered(children[index])
        if name == MATVEC:
            for other in outer:
                stats[other]["matvecs"] += 1
    return stats


def counts(stats: dict[str, dict]) -> dict[str, int]:
    """The machine-independent counts of a traced run, which must repeat exactly."""
    return {f"{name}.{key}": st[key] for name, st in sorted(stats.items()) for key in COUNT_STATS}


def layer_metrics(stats: dict[str, dict], overhead: float) -> dict[str, float]:
    """Values of LAYER_METRICS from one summary; a layer never entered reads 0."""
    values = {}
    for metric in LAYER_METRICS:
        if metric == OVERHEAD:
            values[metric] = overhead
        elif metric == CG_ITERS:
            solves = stats.get("spectral.solve_shifted", {})
            values[metric] = solves["matvecs"] / solves["calls"] if solves else 0.0
        else:
            name, key = metric.rsplit(".", 1)
            value = stats.get(name, {}).get(key, 0)
            values[metric] = value if key in COUNT_STATS else float(value)
    return values
