"""Timing wrappers around the public entry points of each outflow module.

A `Tracer` patches module functions in every `outflow` module that holds
them, solver methods on their classes and operator constructors, records one
span (name, parent, start, end) per call in memory, and restores everything
when its `with` block ends.  `layer_metrics` turns the spans into the
per-layer metrics listed in `PER_LAYER`.  An entry point that no longer
exists is reported as absent instead of failing the run.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import sys
import time

from workloads import CliPipeline

# span name -> (module, function)
FUNCTIONS = {
    "steady.solve_steady": ("steady", "solve_steady"),
    "steady.verify_decay": ("steady", "verify_decay"),
    "evolve_sym.run_sym_stability": ("evolve_sym", "run_sym_stability"),
    "evolve_axi.run_axi_stability": ("evolve_axi", "run_axi_stability"),
    "evolve_axi.legendre_amplitudes": ("evolve_axi", "legendre_amplitudes"),
    "evolve_axi.viscous_formula_selfcheck": ("evolve_axi", "viscous_formula_selfcheck"),
    "energy.relative_energy": ("energy", "relative_energy"),
    "energy.reformulation_residual": ("energy", "reformulation_residual"),
    "energy.potential_energy_quadrature": ("energy", "potential_energy_quadrature"),
    "states.compatibility_residual": ("states", "compatibility_residual"),
    "opchecks.run_verify_ops": ("opchecks", "run_verify_ops"),
    "opchecks.hardy_check": ("opchecks", "hardy_check"),
    "opchecks.commutator_check": ("opchecks", "commutator_check"),
}

# span name -> (module, class, method); "__init__" marks an operator build
METHODS = {
    "evolve_sym.step": ("evolve_sym", "SymSolver", "step"),
    "evolve_sym.rhs": ("evolve_sym", "SymSolver", "rhs"),
    "evolve_sym.cfl_dt": ("evolve_sym", "SymSolver", "cfl_dt"),
    "evolve_axi.step": ("evolve_axi", "AxiSolver", "step"),
    "evolve_axi.rhs": ("evolve_axi", "AxiSolver", "rhs"),
    "evolve_axi.cfl_dt": ("evolve_axi", "AxiSolver", "cfl_dt"),
    "discrete.SymOps": ("discrete", "SymOps", "__init__"),
    "discrete.AxiOps": ("discrete", "AxiOps", "__init__"),
}

# spans whose calls update a known number of cells: size of the state argument
CELLS = {"evolve_sym.step", "evolve_axi.step"}

# spans opened by the benchmark itself around each CLI subcommand
CLI_SUBCOMMANDS = CliPipeline.SUBCOMMANDS

# per-layer metric -> (unit, kind, span); the order is the order printed
PER_LAYER = {
    "steady.solve_steady.ms_per_call": ("ms", "ms_per_call", "steady.solve_steady"),
    "steady.verify_decay.ms_per_call": ("ms", "ms_per_call", "steady.verify_decay"),
    "discrete.SymOps.builds": ("count", "calls", "discrete.SymOps"),
    "discrete.SymOps.ms_per_build": ("ms", "ms_per_call", "discrete.SymOps"),
    "discrete.AxiOps.builds": ("count", "calls", "discrete.AxiOps"),
    "discrete.AxiOps.ms_per_build": ("ms", "ms_per_call", "discrete.AxiOps"),
}
for _mod, _driver in (("evolve_sym", "run_sym_stability"), ("evolve_axi", "run_axi_stability")):
    for _meth in ("step", "rhs", "cfl_dt"):
        PER_LAYER[f"{_mod}.{_meth}.calls"] = ("count", "calls", f"{_mod}.{_meth}")
        PER_LAYER[f"{_mod}.{_meth}.ms_per_call"] = ("ms", "ms_per_call", f"{_mod}.{_meth}")
        if _meth == "step":
            PER_LAYER[f"{_mod}.step.ns_per_cell"] = ("ns", "ns_per_cell", f"{_mod}.step")
    if _mod == "evolve_axi":
        PER_LAYER["evolve_axi.legendre_amplitudes.ms_per_call"] = (
            "ms", "ms_per_call", "evolve_axi.legendre_amplitudes")
    PER_LAYER[f"{_mod}.{_driver}.self_s"] = ("s", "self_s", f"{_mod}.{_driver}")
PER_LAYER["evolve_axi.viscous_formula_selfcheck.ms"] = (
    "ms", "total_ms", "evolve_axi.viscous_formula_selfcheck")
for _fn in ("relative_energy", "reformulation_residual", "potential_energy_quadrature"):
    PER_LAYER[f"energy.{_fn}.calls"] = ("count", "calls", f"energy.{_fn}")
    PER_LAYER[f"energy.{_fn}.ms_per_call"] = ("ms", "ms_per_call", f"energy.{_fn}")
PER_LAYER["states.compatibility_residual.ms_per_call"] = (
    "ms", "ms_per_call", "states.compatibility_residual")
PER_LAYER["opchecks.run_verify_ops.s"] = ("s", "total_s", "opchecks.run_verify_ops")
for _fn in ("hardy_check", "commutator_check"):
    PER_LAYER[f"opchecks.{_fn}.calls"] = ("count", "calls", f"opchecks.{_fn}")
    PER_LAYER[f"opchecks.{_fn}.ms_per_call"] = ("ms", "ms_per_call", f"opchecks.{_fn}")
for _sub in CLI_SUBCOMMANDS:
    PER_LAYER[f"cli.{_sub}.s"] = ("s", "total_s", f"cli.{_sub}")
PER_LAYER["cli.bytes_written"] = ("bytes", "given", "cli.bytes_written")
PER_LAYER["trace.overhead_s"] = ("s", "given", "trace.overhead_s")


class Tracer:
    """In-memory span recorder that patches the program while installed."""

    def __init__(self):
        self.names: list[str] = []
        self.parents: list[int] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.cells: list[int] = []
        self.absent: set[str] = set()
        self._stack: list[int] = []
        self._undo: list[tuple] = []

    # -- recording ----------------------------------------------------------
    def _open(self, name: str, cells: int = 0) -> int:
        idx = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.cells.append(cells)
        self.ends.append(0.0)
        self._stack.append(idx)
        self.starts.append(time.perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.ends[idx] = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        idx = self._open(name)
        try:
            yield
        finally:
            self._close(idx)

    def _wrap(self, name: str, fn):
        counts_cells = name in CELLS

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            cells = 0
            if counts_cells:
                state = args[1] if len(args) > 1 else kwargs.get("state")
                cells = int(state.rho.size)
            idx = self._open(name, cells)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(idx)

        return traced

    # -- patching -------------------------------------------------------------
    def __enter__(self) -> "Tracer":
        program = [m for key, m in list(sys.modules.items())
                   if key == "outflow" or key.startswith("outflow.")]
        for name, (mod_name, attr) in FUNCTIONS.items():
            orig = getattr(_module(mod_name), attr, None)
            if orig is None:
                self.absent.add(name)
                continue
            wrapped = self._wrap(name, orig)
            for mod in program:
                if vars(mod).get(attr) is orig:
                    setattr(mod, attr, wrapped)
                    self._undo.append((mod, attr, orig))
        for name, (mod_name, cls_name, meth) in METHODS.items():
            cls = getattr(_module(mod_name), cls_name, None)
            orig = None if cls is None else cls.__dict__.get(meth)
            if orig is None:
                self.absent.add(name)
                continue
            setattr(cls, meth, self._wrap(name, orig))
            self._undo.append((cls, meth, orig))
        return self

    def __exit__(self, *exc) -> None:
        for owner, attr, orig in reversed(self._undo):
            setattr(owner, attr, orig)
        self._undo.clear()

    # -- reporting ------------------------------------------------------------
    def self_times(self) -> list[float]:
        """Span duration minus the time covered by its direct children."""
        own = [e - s for s, e in zip(self.starts, self.ends)]
        for i, parent in enumerate(self.parents):
            if parent >= 0:
                own[parent] -= self.ends[i] - self.starts[i]
        return own

    def write(self, path: str) -> None:
        spans = [{"name": n, "parent": p, "start": s, "end": e}
                 for n, p, s, e in zip(self.names, self.parents, self.starts, self.ends)]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": spans, "absent": sorted(self.absent)}, fh)


def _module(name: str):
    try:
        return importlib.import_module(f"outflow.{name}")
    except ImportError:
        return None


def layer_metrics(tracer: Tracer, given: dict) -> tuple[dict, list[str]]:
    """Per-layer metric values from the spans, and the metrics whose layer is absent.

    `given` supplies the metrics the benchmark measures itself
    (`cli.bytes_written`, `trace.overhead_s`).  A layer with no calls in
    this workload reports 0.
    """
    durations: dict[str, list[float]] = {}
    selfs: dict[str, float] = {}
    cells: dict[str, int] = {}
    for i, (name, own) in enumerate(zip(tracer.names, tracer.self_times())):
        durations.setdefault(name, []).append(tracer.ends[i] - tracer.starts[i])
        selfs[name] = selfs.get(name, 0.0) + own
        cells[name] = cells.get(name, 0) + tracer.cells[i]

    metrics, absent = {}, []
    for metric, (unit, kind, span) in PER_LAYER.items():
        if span in tracer.absent:
            absent.append(metric)
        d = durations.get(span, [])
        total = float(sum(d))
        if kind == "given":
            value = given.get(metric, 0.0)
        elif kind == "calls":
            value = len(d)
        elif kind == "ms_per_call":
            value = 1e3 * total / len(d) if d else 0.0
        elif kind == "ns_per_cell":
            value = 1e9 * total / cells[span] if d else 0.0
        elif kind == "self_s":
            value = selfs.get(span, 0.0)
        elif kind == "total_ms":
            value = 1e3 * total
        else:  # total_s
            value = total
        metrics[metric] = {"value": value, "unit": unit}
    return metrics, absent
