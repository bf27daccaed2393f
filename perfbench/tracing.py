"""Span tracing by wrapping rotpack's public names from outside the package.

A :class:`Tracer` replaces module attributes and class methods with thin
wrappers that record a span per call (name, start, end, parent) and bump
counters. Nothing inside ``src/rotpack`` changes: each wrapper is installed
on the name the pipeline actually looks up at call time (for example the
driver imports ``run_circuit_mps`` into its own namespace, so the wrapper
goes on ``rotpack.driver.run_circuit_mps``). ``uninstall`` restores every
original.

Spans are kept in memory and written out once by :meth:`Tracer.write`.
Only the thread that created the tracer is traced; the optimizer's worker
thread calls straight through.
"""

from __future__ import annotations

import functools
import importlib
import threading
import time
from collections import defaultdict
from pathlib import Path

LAYERS = (
    "problem",
    "qubo",
    "circuits",
    "statevector",
    "mps",
    "driver",
    "optimizers",
    "baselines",
    "bench",
)

# Spans opened by the benchmark itself; their self time is harness time.
HARNESS = "perfbench"


def _two_site_updates(circuit) -> tuple[int, int]:
    """(useful updates, routing swaps) the MPS simulator performs for a circuit.

    ``MpsState.apply_gate`` routes a gate spanning distance d with d-1 swaps
    there and d-1 back, around one update on the adjacent pair.
    """
    useful = swaps = 0
    for g in circuit.gates:
        if len(g.qubits) == 2:
            d = abs(g.qubits[0] - g.qubits[1])
            useful += 1
            swaps += 2 * (d - 1)
    return useful, swaps


def _count_optimize(tr, args, kwargs, rec):
    tr.add("driver.trajectories", 1)
    tr.add("driver.iterations", rec.iterations_used)
    tr.add("driver.restarts", rec.optimizer_restarts)


def _count_apply_gate(tr, args, kwargs, result):
    tr.add("statevector.gates", 1)
    # one read and one write of every amplitude
    tr.add("statevector.bytes_computed", 2 * args[0].nbytes)


def _count_run_circuit_mps(tr, args, kwargs, state):
    useful, swaps = _two_site_updates(args[0])
    tr.add("mps.useful_updates_computed", useful)
    tr.add("mps.swap_updates_computed", swaps)
    tr.peak("mps.max_bond", state.max_bond_reached)
    tr.peak("mps.discarded_weight", state.discarded_weight)


def _count_anneal(tr, args, kwargs, res):
    tr.add("baselines.sa_evals", res.evaluations)
    tr.add("baselines.sa_trajectories", 1)
    tr.add("baselines.sa_successes", int(res.converged))


def _count_calls(counter):
    def hook(tr, args, kwargs, result):
        tr.add(counter, 1)

    return hook


# (module, attribute, span name, counter hook). A dotted attribute names a
# method on a class defined in that module.
TARGETS = (
    ("rotpack.driver", "valid_mask", "problem.valid_mask", None),
    ("rotpack.driver", "all_bitstring_energies", "qubo.phase_table", None),
    ("rotpack.driver", "build_qubo", "qubo.build_qubo", None),
    ("rotpack.circuits", "build_qubo", "qubo.build_qubo", None),
    ("rotpack.circuits", "qubo_to_ising", "qubo.qubo_to_ising", None),
    ("rotpack.baselines", "build_qubo", "qubo.build_qubo", None),
    ("rotpack.qubo", "QuboMatrix.energies", "qubo.energies", None),
    ("rotpack.qubo", "QuboMatrix.energy", "qubo.energy", _count_calls("qubo.energy_calls")),
    ("rotpack.driver", "ansatz_hamiltonian", "circuits.ansatz_hamiltonian", None),
    ("rotpack.circuits", "ansatz_hamiltonian", "circuits.ansatz_hamiltonian", None),
    ("rotpack.driver", "assemble_ansatz", "circuits.assemble", None),
    ("rotpack.driver", "build_initial_state", "circuits.build_initial_state", None),
    ("rotpack.driver", "build_mixer", "circuits.build_mixer", _count_calls("circuits.build_mixer_calls")),
    ("rotpack.circuits", "build_mixer", "circuits.build_mixer", _count_calls("circuits.build_mixer_calls")),
    ("rotpack.statevector", "apply_gate", "statevector.apply_gate", _count_apply_gate),
    ("rotpack.statevector", "run_circuit", "statevector.prep", None),
    ("rotpack.statevector", "sample_state", "statevector.sample", None),
    ("rotpack.driver", "run_circuit_mps", "mps.evolve", _count_run_circuit_mps),
    ("rotpack.mps", "MpsState.apply_gate", "mps.apply_gate", _count_calls("mps.gate_calls")),
    ("rotpack.mps", "MpsState.move_center", "mps.move_center", None),
    ("rotpack.mps", "MpsState.sample", "mps.sample", None),
    ("rotpack.driver", "optimize", "driver.optimize", _count_optimize),
    ("rotpack.bench.orchestrate", "run_ensemble", "driver.run_ensemble", None),
    ("rotpack.driver", "cvar", "driver.cvar", None),
    ("rotpack.driver", "make_optimizer", "optimizers.make", None),
    ("rotpack.optimizers", "ScipyAskTell.ask", "optimizers.ask", None),
    ("rotpack.optimizers", "ScipyAskTell.tell", "optimizers.tell", None),
    ("rotpack.optimizers", "ScipyAskTell.close", "optimizers.close", _count_calls("optimizers.close_calls")),
    ("rotpack.baselines", "brute_force", "baselines.brute_force", None),
    ("rotpack.bench.orchestrate", "brute_force", "baselines.brute_force", None),
    ("rotpack.baselines", "sa_ensemble", "baselines.sa_ensemble", None),
    ("rotpack.bench.orchestrate", "sa_ensemble", "baselines.sa_ensemble", None),
    ("rotpack.baselines", "dual_anneal", "baselines.anneal", _count_anneal),
    ("rotpack.baselines", "discrete_anneal", "baselines.anneal", _count_anneal),
    ("rotpack.bench", "run_experiment", "bench.run_experiment", None),
    ("rotpack.bench.orchestrate", "run_experiment", "bench.run_experiment", None),
    ("rotpack.bench.orchestrate", "run_cell", "bench.run_cell", _count_calls("bench.cells_ran")),
    ("rotpack.bench.orchestrate", "write_records_jsonl", "bench.write_records", None),
)


class Tracer:
    """Records nested spans and counters while installed."""

    def __init__(self) -> None:
        self._owner = threading.get_ident()
        self._installed: list[tuple[object, str, object]] = []
        self._stack: list[list] = []  # open frames: [span id, child time]
        self._next_id = 0
        self.enabled = False
        # closed spans: (id, parent id, root id, name, start, end, self time)
        self.spans: list[tuple[int, int, int, str, float, float, float]] = []
        self.counters: dict[str, float] = defaultdict(float)

    # -- counters ------------------------------------------------------------

    def add(self, name: str, amount: float) -> None:
        self.counters[name] += amount

    def peak(self, name: str, value: float) -> None:
        self.counters[name] = max(self.counters.get(name, value), value)

    # -- spans ---------------------------------------------------------------

    def span(self, name: str, fn, *args, **kwargs):
        """Call ``fn`` inside a span called ``name`` when tracing is on."""
        if not self.enabled or threading.get_ident() != self._owner:
            return fn(*args, **kwargs)
        sid = self._next_id
        self._next_id += 1
        parent = self._stack[-1][0] if self._stack else -1
        root = self._stack[0][0] if self._stack else sid
        frame = [sid, 0.0]
        self._stack.append(frame)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self._stack.pop()
            dur = end - start
            if self._stack:
                self._stack[-1][1] += dur
            self.spans.append((sid, parent, root, name, start, end, dur - frame[1]))

    def _wrap(self, fn, name: str, hook):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.enabled or threading.get_ident() != tracer._owner:
                return fn(*args, **kwargs)
            result = tracer.span(name, fn, *args, **kwargs)
            if hook is not None:
                hook(tracer, args, kwargs, result)
            return result

        return wrapper

    def install(self) -> None:
        for module_name, attr, name, hook in TARGETS:
            owner = importlib.import_module(module_name)
            if "." in attr:
                cls_name, attr = attr.split(".")
                owner = getattr(owner, cls_name)
            original = getattr(owner, attr)
            setattr(owner, attr, self._wrap(original, name, hook))
            self._installed.append((owner, attr, original))

    def uninstall(self) -> None:
        while self._installed:
            owner, attr, original = self._installed.pop()
            setattr(owner, attr, original)

    # -- results -------------------------------------------------------------

    def totals(self, since: int = 0, until: int | None = None) -> dict[str, float]:
        """Inclusive time per span name over ``spans[since:until]``.

        Asks made from inside ``close`` (the drain after an early stop) are
        booked as ``optimizers.close_ask``, so ``optimizers.ask`` is the
        driver's wait for its next point.
        """
        names = {sid: name for sid, _, _, name, _, _, _ in self.spans}
        out: dict[str, float] = defaultdict(float)
        for _, parent, _, name, start, end, _ in self.spans[since:until]:
            if name == "optimizers.ask" and names.get(parent) == "optimizers.close":
                name = "optimizers.close_ask"
            out[name] += end - start
        return dict(out)

    def layer_self(self, since: int = 0) -> dict[str, float]:
        """Self time per layer over ``spans[since:]``, plus the harness's own."""
        out = {layer: 0.0 for layer in LAYERS + (HARNESS,)}
        for _, _, _, name, _, _, self_s in self.spans[since:]:
            out[name.split(".", 1)[0]] += self_s
        return out

    def write(self, path: Path) -> None:
        """Dump every span as CSV: id, parent, root, name, start_s, end_s, self_s."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            fh.write("id,parent,root,name,start_s,end_s,self_s\n")
            for sid, parent, root, name, start, end, self_s in self.spans:
                fh.write(f"{sid},{parent},{root},{name},{start:.9f},{end:.9f},{self_s:.9f}\n")
