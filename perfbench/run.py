"""rotpack benchmark: run one workload and print its metrics.

    python3 perfbench/run.py --workload dense --seed 1 --seconds 20 --trace 0

Run from anywhere inside a source checkout; the package is imported from
the checkout's ``src``. With ``--trace 0`` the last line of standard output
is a JSON object whose metrics are the end-to-end metrics; with
``--trace 1`` it holds the per-layer metrics of a traced run instead. The
lines before it give the environment and every metric by name and unit.
The exit code is non-zero when any operation raised or failed an oracle
check. End-to-end times are scaled to a fixed host speed measured in the
same run (``hostspeed.py``); the raw times are printed in the table. See
README.md in this directory for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
import warnings
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench_out"

# One process drives the load; BLAS gets one thread (never more than nproc)
# so that the timings do not depend on what else the host runs.
BLAS_THREADS = 1
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

END_TO_END = ("setup_s", "throughput_per_s", "pass_s", "peak_rss_mb")
# Set-up is timed this many extra times, each in a fresh interpreter.
SETUP_REPEATS = 2
# Host-speed probes after a set-up, and on each side of every pass.
SETUP_PROBES = 20
PASS_PROBES = 5


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=("dense", "mps", "anneal", "sweep"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "smoke"), default="full",
                    help="smoke runs every workload at a tiny size, for the benchmark's own test")
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def git_commit(root: Path) -> str | None:
    """The checkout's commit, read from .git without running git."""
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = root / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = root / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return None


def environment(args, clock) -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "size": args.size,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": BLAS_THREADS,
        "git_commit": git_commit(ROOT),
        "host_probe": clock.reference.name if clock.enabled else None,
        "host_probe_nominal_s": clock.reference.nominal_s if clock.enabled else None,
    }


def setup_in_child(args) -> tuple[float, float]:
    """Time a complete set-up (imports included) in a fresh interpreter.

    Returns the set-up time scaled to the nominal host speed, and raw.
    """
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-only",
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", "0", "--size", args.size]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120)
    if done.returncode != 0:
        raise RuntimeError(f"set-up child failed:\n{done.stderr}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    return result["setup_s"], result["setup_raw_s"]


def layer_metrics(tracer, traced, setup_end: int) -> dict[str, tuple[float, str]]:
    """Per-layer metrics per traced pass, from spans and counters."""
    import tracing

    n = len(traced)
    tot = tracer.totals(since=setup_end)
    setup_tot = tracer.totals(until=setup_end)
    layers = tracer.layer_self(since=setup_end)
    c = tracer.counters

    def s(name):
        return tot.get(name, 0.0) / n

    def per(counter):
        return c.get(counter, 0.0) / n

    gates = per("statevector.gates")
    useful = per("mps.useful_updates_computed")
    swaps = per("mps.swap_updates_computed")
    circuits = per("driver.iterations")
    sa_traj = c.get("baselines.sa_trajectories", 0.0)
    out = {f"{layer}.self_s": (layers[layer] / n, "s") for layer in tracing.LAYERS}
    out.update({
        "problem.valid_mask_s": (s("problem.valid_mask"), "s"),
        "qubo.phase_table_s": (s("qubo.phase_table"), "s"),
        "qubo.energies_s": (s("qubo.energies"), "s"),
        "qubo.energy_calls": (per("qubo.energy_calls"), "count"),
        "qubo.energy_s": (s("qubo.energy"), "s"),
        "circuits.assemble_s": (s("circuits.assemble"), "s"),
        "circuits.build_mixer_s": (s("circuits.build_mixer"), "s"),
        "circuits.build_mixer_calls": (per("circuits.build_mixer_calls"), "count"),
        "circuits.gates_per_circuit": (
            (gates + per("mps.gate_calls")) / circuits if circuits else 0.0, "count"),
        "statevector.apply_gate_s": (s("statevector.apply_gate"), "s"),
        "statevector.gates": (gates, "count"),
        "statevector.us_per_gate": (1e6 * s("statevector.apply_gate") / gates if gates else 0.0, "us"),
        "statevector.bytes_computed": (per("statevector.bytes_computed"), "B"),
        "statevector.sample_s": (s("statevector.sample"), "s"),
        "statevector.prep_s": (s("statevector.prep"), "s"),
        "mps.evolve_s": (s("mps.evolve"), "s"),
        "mps.gate_calls": (per("mps.gate_calls"), "count"),
        "mps.two_site_updates_computed": (useful + swaps, "count"),
        "mps.swap_updates_computed": (swaps, "count"),
        "mps.useful_update_ratio": (useful / (useful + swaps) if useful + swaps else 0.0, "ratio"),
        "mps.move_center_s": (s("mps.move_center"), "s"),
        "mps.sample_s": (s("mps.sample"), "s"),
        "mps.max_bond": (c.get("mps.max_bond", 0.0), "count"),
        "mps.discarded_weight": (c.get("mps.discarded_weight", 0.0), "ratio"),
        "driver.iterations": (circuits, "count"),
        "driver.trajectories": (per("driver.trajectories"), "count"),
        "driver.restarts": (per("driver.restarts"), "count"),
        "driver.cvar_s": (s("driver.cvar"), "s"),
        "optimizers.make_s": (s("optimizers.make"), "s"),
        "optimizers.ask_wait_s": (s("optimizers.ask"), "s"),
        "optimizers.close_s": (s("optimizers.close"), "s"),
        "optimizers.close_calls": (per("optimizers.close_calls"), "count"),
        "optimizers.warnings": (statistics.median(p.data["warnings"] for p in traced), "count"),
        # brute force runs in set-up for every workload, and per cell on sweep
        "baselines.brute_force_s": (
            setup_tot.get("baselines.brute_force", 0.0) + s("baselines.brute_force"), "s"),
        "baselines.sa_s": (s("baselines.sa_ensemble"), "s"),
        "baselines.sa_evals": (per("baselines.sa_evals"), "count"),
        "baselines.sa_success_ratio": (
            c.get("baselines.sa_successes", 0.0) / sa_traj if sa_traj else 0.0, "ratio"),
        "bench.run_cell_s": (s("bench.run_cell"), "s"),
        "bench.records_write_s": (s("bench.write_records"), "s"),
        "bench.cells_ran": (per("bench.cells_ran"), "count"),
        "bench.cells_cached": (
            sum(p.data.get("statuses", []).count("cached") for p in traced) / n, "count"),
        "bench.resume_s": (sum(p.data.get("resume_s", 0.0) for p in traced) / n, "s"),
        "trace.harness_self_s": (layers[tracing.HARNESS] / n, "s"),
        "trace.spans": ((len(tracer.spans) - setup_end) / n, "count"),
    })
    return out


def findings(workload, tracer, setup_end: int) -> list[str]:
    """Rank layers by self time and compare with the workload's expectation."""
    import tracing

    layers = tracer.layer_self(since=setup_end)
    total = sum(layers.values())
    ranked = sorted(tracing.LAYERS, key=lambda layer: -layers[layer])
    lines = ["self time by layer: " + ", ".join(
        f"{layer} {layers[layer] / total:.1%}" for layer in ranked if layers[layer] > 0)]
    top = ranked[: len(workload.expected_top)]
    if set(top) != set(workload.expected_top):
        lines.append(
            f"finding: expected {' + '.join(workload.expected_top)} to lead self time "
            f"on {workload.name}, measured {' + '.join(top)}")
    return lines


def run_passes(workload, tracer, seconds: float, caught: list):
    """Repeat the workload's pass until ``seconds`` are spent.

    Another pass starts only if at least half of it fits. With a tracer,
    passes alternate untraced and traced, and at least one of each runs.
    Each pass's host-speed factor goes into its ``data["speed"]``, and the
    factor of each unit of work it marked into ``data["scale"]``.
    Returns the untraced and traced passes, and the operations attempted
    and failed.
    """
    clock = workload.clock
    untraced, traced = [], []
    attempted = failed = 0
    begin = time.perf_counter()
    try:
        while True:
            k = len(untraced) + len(traced)
            on = tracer is not None and k % 2 == 1
            before = len(caught)
            clock.begin()
            clock.probe(PASS_PROBES)
            if on:
                tracer.enabled = True
                try:
                    result = tracer.span("perfbench.pass", workload.run_pass, k)
                finally:
                    tracer.enabled = False
            else:
                result = workload.run_pass(k)
            clock.probe(PASS_PROBES)
            result.data["speed"] = clock.speed()
            result.data["scale"] = [clock.speed(m) for m in result.data.get("marks", ())]
            result.data["warnings"] = len(caught) - before
            (traced if on else untraced).append(result)
            attempted += result.attempted
            failed += result.failed
            for line in result.errors[:20]:
                print(f"check failed: {line}", file=sys.stderr)
            typical = statistics.median(p.wall_s for p in untraced + traced)
            done = time.perf_counter() - begin + typical / 2 >= seconds
            if done and (tracer is None or traced):
                break
    except Exception:
        traceback.print_exc()
        attempted += workload.planned_operations()
        failed += workload.planned_operations()
    return untraced, traced, attempted, failed


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "rotpack" / "__init__.py").is_file():
        print(f"perfbench: no rotpack sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    for var in BLAS_ENV:
        os.environ[var] = str(BLAS_THREADS)
    sys.path.insert(0, str(ROOT / "src"))

    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        start = time.perf_counter()
        import workloads  # numpy, scipy and rotpack load here, inside set-up
        from hostspeed import HostClock

        clock = HostClock(None if args.trace else workloads.WORKLOADS[args.workload].reference)

        tracer = None
        if args.trace:
            import tracing

            tracer = tracing.Tracer()
            tracer.install()
        work_dir = OUT / f"run-{os.getpid()}"
        workload = workloads.WORKLOADS[args.workload](args.seed, args.size, work_dir, clock)
        if tracer:
            tracer.enabled = True
            tracer.span("perfbench.setup", workload.setup)
            tracer.enabled = False
            setup_end = len(tracer.spans)
            tracer.counters.clear()
        else:
            workload.setup()
        setup_raw_s = time.perf_counter() - start
        clock.begin()
        clock.probe(SETUP_PROBES)
        setup_s = setup_raw_s * clock.speed()
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s, "setup_raw_s": setup_raw_s}))
            return 0

        try:
            untraced, traced, attempted, failed = run_passes(workload, tracer, args.seconds, caught)
        finally:
            if tracer:
                tracer.uninstall()
            shutil.rmtree(work_dir, ignore_errors=True)
        passes = untraced + traced

        env = environment(args, clock)
        env["passes"] = len(passes)
        print("env " + json.dumps(env, sort_keys=True))

        table: dict[str, tuple[float, str]] = {}
        layer_table: dict[str, tuple[float, str]] = {}
        if passes:
            table.update(workload.summarize(untraced or passes))
            table["optimizers.warnings_per_pass"] = (
                statistics.median(p.data["warnings"] for p in passes), "count")
            table["host_speed"] = (statistics.median(p.data["speed"] for p in passes), "ratio")
        if tracer is None:
            table["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB")
            samples, raw = [setup_s], [setup_raw_s]
            for _ in range(SETUP_REPEATS):
                attempted += 1
                try:
                    scaled_s, raw_s = setup_in_child(args)
                    samples.append(scaled_s)
                    raw.append(raw_s)
                except (RuntimeError, subprocess.SubprocessError, ValueError, KeyError):
                    traceback.print_exc()
                    failed += 1
            table["setup_s"] = (statistics.median(samples), "s")
            table["setup_s.raw"] = (statistics.median(raw), "s")
        elif traced and untraced:
            layer_table = layer_metrics(tracer, traced, setup_end)
            untraced_s = statistics.median(p.wall_s for p in untraced)
            traced_s = statistics.median(p.wall_s for p in traced)
            layer_table["trace.untraced_pass_s"] = (untraced_s, "s")
            layer_table["trace.traced_pass_s"] = (traced_s, "s")
            layer_table["trace.overhead_s"] = (traced_s - untraced_s, "s")
            layer_table["trace.overhead_ratio"] = ((traced_s - untraced_s) / untraced_s, "ratio")
            table.update(layer_table)
            spans_path = OUT / f"spans-{args.workload}-seed{args.seed}.csv"
            tracer.write(spans_path)
            print(f"spans written to {spans_path.relative_to(ROOT)}")
            for line in findings(workload, tracer, setup_end):
                print(line)
        table["failed_ratio"] = (failed / attempted if attempted else 1.0, "ratio")

        for name, (value, unit) in table.items():
            print(f"{name:36s} {value:>16.6g} {unit}")

    chosen = layer_table if tracer else {n: table[n] for n in END_TO_END if n in table}
    metrics = {n: {"value": v, "unit": u} for n, (v, u) in chosen.items()}
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}), flush=True)
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
