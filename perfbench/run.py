"""Sweep throughput benchmark: cells/s on named grids, with a traced breakdown.

Run from the repository root::

    python3 perfbench/run.py --workload crash-ndbatch --seed 0 --seconds 10 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off: one client
submits one sweep of the workload's grid, waits for it, and submits the next
(a closed loop) until ``--seconds`` have passed, timing no-op resumes and
``fold()`` over a job store of the grid after every sweep; then it re-runs a
seeded subsample on the exact oracle engine and times fresh interpreters
that import ``repro.sim`` and run the warm-up sweep.  These times are scaled
to a fixed host speed by :class:`clock.ScaledClock`; ``cells_per_s`` is the
cells swept over the seconds spent sweeping and every other metric is the
median over the run.  The host speed and the unscaled figures go to
standard error.
``--trace 1`` runs the same grids
with :mod:`spans` wrapping every layer and reports each layer's self time
and work counts.  Every output is checked by :mod:`gate`.  Each metric is
printed by name with its unit; the last line of standard output is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``.

``--contract`` instead runs the traced breakdown on the development seed of
every workload and writes ``perfbench/contract.json``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from typing import Dict, List, Optional, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SOURCE = os.path.join(ROOT, "src")
#: Job stores, the calibration cache and trace sidecars live here.
WORK_ROOT = os.path.join(ROOT, ".bench_work")
CONTRACT_PATH = os.path.join(HERE, "contract.json")

#: Timed sweeps per run, at least, however long ``--seconds`` is.
MIN_REPETITIONS = 3
#: Traced repetitions per run, at least.
MIN_TRACED_REPETITIONS = 2
#: Timed no-op resumes and folds of the job store after each timed sweep.
STORE_OPERATIONS_PER_SWEEP = 2
#: Fresh-interpreter set-up probes per run.
SETUP_PROBES = 9
#: Cells per run re-run on the oracle engine.
ORACLE_SAMPLE = 24
PROBE_TIMEOUT_S = 120

END_TO_END = {
    "cells_per_s": "cells/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "resume_cells_per_s": "cells/s",
    "fold_cells_per_s": "cells/s",
}

#: Self time per traced repetition of each span, by metric name.
SELF_TIME_METRICS = {
    "sweep.grid.s": "sweep.grid",
    "sweep.bundle.s": "sweep.bundle",
    "workloads.s": "workloads",
    "sweep.self.s": "sweep",
    "planner.s": "planner",
    "ndbatch.block.s": "ndbatch.block",
    "ndbatch.vector.s": "ndbatch.vector",
    "adversary.prf.s": "adversary.prf",
    "adversary.rank_tensor.s": "adversary.rank_tensor",
    "adversary.value_tensor.s": "adversary.value_tensor",
    "rounds.kernel.s": "rounds.kernel",
    "engine.run.s": "engine.run",
    "job.cell_id.s": "job.cell_id",
    "job.scan.s": "job.scan",
    "job.fold.s": "job.fold",
    "job.resume.s": "job.resume",
}

#: Calls per traced repetition, by metric name.
CALL_METRICS = {
    "ndbatch.block.calls": "ndbatch.block",
    "ndbatch.vector.calls": "ndbatch.vector",
    "adversary.prf.calls": "adversary.prf",
    "adversary.rank_tensor.calls": "adversary.rank_tensor",
    "adversary.value_tensor.calls": "adversary.value_tensor",
    "rounds.kernel.calls": "rounds.kernel",
    "engine.run.calls": "engine.run",
    "job.cell_id.calls": "job.cell_id",
}

PER_LAYER = dict(
    {name: "s" for name in SELF_TIME_METRICS},
    **{name: "calls" for name in CALL_METRICS},
    **{
        "sweep.bundle.per_cell": "calls/cell",
        "planner.chunk_executions": "executions",
        "ndbatch.block.fill": "frac",
        "adversary.prf.mb": "MB",
        "rounds.kernel.melems": "Melem",
        "job.scan.mb": "MB",
        "job.store_bytes_per_cell": "B/cell",
        "pool.serial_fraction": "frac",
        "pool.first_outcome_s": "s",
        "pool.parent_wait_s": "s",
        "trace.overhead_frac": "frac",
        "trace.wall.s": "s",
    },
)

#: Which end-to-end metric each layer metric should move, and on which
#: workload (written into the contract).
LAYER_MAPPING = {
    "sweep": {
        "metrics": ["sweep.grid.s", "sweep.bundle.s", "sweep.bundle.per_cell",
                    "workloads.s", "sweep.self.s"],
        "moves": "cells_per_s on job-pool and crash-ndbatch",
    },
    "planner": {
        "metrics": ["planner.s", "planner.chunk_executions"],
        "moves": "cells_per_s and peak_rss_mb on crash-ndbatch",
    },
    "ndbatch": {
        "metrics": ["ndbatch.block.s", "ndbatch.block.calls", "ndbatch.block.fill",
                    "ndbatch.vector.s", "ndbatch.vector.calls"],
        "moves": "cells_per_s on crash-ndbatch (scalar) and byz-vector (vector)",
    },
    "net.adversary": {
        "metrics": ["adversary.prf.s", "adversary.prf.calls", "adversary.prf.mb",
                    "adversary.rank_tensor.s", "adversary.rank_tensor.calls",
                    "adversary.value_tensor.s", "adversary.value_tensor.calls"],
        "moves": "PRF and rank: cells_per_s on crash-ndbatch; value: cells_per_s "
                 "on byz-vector",
    },
    "core.rounds": {
        "metrics": ["rounds.kernel.s", "rounds.kernel.calls", "rounds.kernel.melems"],
        "moves": "cells_per_s on byz-vector and crash-ndbatch",
    },
    "sim.engine / sim.batch": {
        "metrics": ["engine.run.s", "engine.run.calls"],
        "moves": "cells_per_s on job-pool",
    },
    "pool": {
        "metrics": ["pool.serial_fraction", "pool.first_outcome_s", "pool.parent_wait_s"],
        "moves": "cells_per_s on job-pool",
    },
    "sim.job": {
        "metrics": ["job.cell_id.s", "job.cell_id.calls", "job.scan.s", "job.scan.mb",
                    "job.fold.s", "job.resume.s", "job.store_bytes_per_cell"],
        "moves": "resume_cells_per_s and fold_cells_per_s on job-pool",
    },
    "trace": {
        "metrics": ["trace.overhead_frac", "trace.wall.s"],
        "moves": "none; qualifies the breakdown",
    },
}


#: How the end-to-end times are taken (written into the contract).
TIMING = (
    "End-to-end times are scaled to a fixed host speed: every timed call (sweep, "
    "no-op resume, fold, set-up probe) runs between two passes of clock.ReferencePass, "
    "and its wall time is multiplied by clock.REFERENCE_S over the median time of "
    "those two passes and of every other pass within clock.WINDOW_S seconds of the "
    "call. cells_per_s is the cells swept over the scaled seconds spent sweeping; "
    "every other end-to-end metric is the median over the run. Per-layer times are "
    "wall seconds."
)


def _import_repro(work_dir: str) -> Dict[str, str]:
    """Pin the environment and make ``repro`` importable from ``src``."""
    import grids

    environment = grids.pin_environment(work_dir)
    sys.path.insert(0, SOURCE)
    return environment


def _log(message: str) -> None:
    print(message, file=sys.stderr, flush=True)


# ----------------------------------------------------------------------
# Sweeps through the public entry points
# ----------------------------------------------------------------------


def warm_up(workload, seed: int, directory: str) -> None:
    """The workload's first sweep: a small grid run the way the timed ones are."""
    from grids import WARM_UP_SEEDS_PER_POINT

    spec = workload.spec(seed, -1, WARM_UP_SEEDS_PER_POINT)
    if workload.entry == "job":
        from repro.sim.job import SweepJob

        SweepJob(spec, directory, workers=workload.workers).run()
    else:
        from repro.sim import run_sweep

        run_sweep(spec, workers=workload.workers)


def timed_run_sweep(spec, workers: int, clock) -> Tuple[float, list]:
    from repro.sim import run_sweep

    return clock.measure(lambda: run_sweep(spec, workers=workers), "sweep")


def timed_job_run(spec, directory: str, workers: int, clock, on_progress=None):
    """A fresh ``SweepJob`` run (``retry=None``, as the CLI default)."""
    from repro.sim.job import SweepJob

    job = SweepJob(spec, directory, workers=workers)
    return clock.measure(lambda: job.run(on_progress=on_progress), "sweep")


def stored_outcomes(spec, directory: str, cells) -> list:
    """A job store's outcomes aligned with ``cells`` (``None`` where missing)."""
    from repro.sim.job import SweepJob

    by_cell = {outcome.cell: outcome for outcome in SweepJob(spec, directory).outcomes()}
    return [by_cell.get(cell) for cell in cells]


def sorted_store_lines(spec, directory: str) -> List[bytes]:
    from repro.sim.job import SweepJob

    with open(SweepJob(spec, directory).store_path(), "rb") as handle:
        return sorted(handle.readlines())


def sweep_and_check(
    workload, spec, directory: str, workers: int, tally, clock
) -> Tuple[float, list]:
    """One fresh sweep through the workload's entry point, gated; time and outcomes."""
    import gate

    cells = list(spec.cells())
    if workload.entry == "job":
        wall, _ = timed_job_run(spec, directory, workers, clock)
        outcomes = stored_outcomes(spec, directory, cells)
    else:
        wall, outcomes = timed_run_sweep(spec, workers, clock)
    tally.record(len(cells), gate.sweep_failures(cells, outcomes))
    return wall, outcomes


def check_oracle(outcomes: list, seed: int, tally) -> None:
    import gate
    from repro.sim.sweep import run_cell

    sample = gate.oracle_sample(
        [outcome for outcome in outcomes if outcome is not None], ORACLE_SAMPLE, seed
    )
    failures = gate.oracle_failures(sample, lambda cell: run_cell(cell, engine="batch"))
    tally.record(len(sample), failures)


def time_store_operations(spec, directory: str, workers: int, tally, clock) -> None:
    """Time one no-op resume and one fold of the complete store in ``directory``."""
    import gate
    from repro.sim.job import SweepJob

    job = SweepJob(spec, directory, workers=workers)
    store = job.store_path()
    before = store.read_bytes()
    _, result = clock.measure(job.run, "resume")
    tally.record(1, [gate.resume_failure(before, store.read_bytes(), result.executed)])
    _, fold = clock.measure(job.fold, "fold")
    tally.record(1, [gate.fold_failure(fold.total_outcomes, spec.cell_count)])


def time_setup(workload, seed: int, directory: str, tally, clock) -> None:
    """Time a fresh interpreter importing ``repro.sim`` and warming up."""
    command = [
        sys.executable, os.path.abspath(__file__), "--setup-probe",
        "--workload", workload.name, "--seed", str(seed), "--work-dir", directory,
    ]
    _, completed = clock.measure(lambda: subprocess.run(
        command, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
        timeout=PROBE_TIMEOUT_S, check=False,
    ), "setup")
    shutil.rmtree(directory, ignore_errors=True)
    failure = None
    if completed.returncode != 0:
        failure = f"set-up probe exited {completed.returncode}: " + completed.stderr.decode(
            "utf-8", "replace"
        )[-500:]
    tally.record(1, [failure])


def largest_child_rss_kb() -> int:
    """Peak resident set of the largest child waited for so far, in kB."""
    return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss


def peak_rss_mb(children_kb: int) -> float:
    """Peak resident set of this process plus ``children_kb``, in MB."""
    return (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss + children_kb) / 1024.0


# ----------------------------------------------------------------------
# The two kinds of run
# ----------------------------------------------------------------------


def measure_end_to_end(workload, seed: int, seconds: float, work_dir: str, tally) -> Dict:
    """The end-to-end metrics, every time scaled to the reference host speed."""
    from clock import ScaledClock, WallClock

    warm_up(workload, seed, os.path.join(work_dir, "warm-up"))
    clock = ScaledClock()

    def probe_setup() -> None:
        directory = os.path.join(work_dir, f"setup-{len(clock.calls['setup'])}")
        time_setup(workload, seed, directory, tally, clock)

    workload_children_kb = None
    store = None
    started = time.perf_counter()
    repetition = 0
    while repetition < MIN_REPETITIONS or time.perf_counter() - started < seconds:
        spec = workload.spec(seed, repetition)
        directory = os.path.join(work_dir, f"sweep-{repetition}")
        _, outcomes = sweep_and_check(workload, spec, directory, workload.workers, tally, clock)
        if store is None:
            store = (spec, directory, outcomes)
            if workload.entry != "job":
                # The same grid through the job entry point must store what
                # run_sweep returned; that store is the one resumed and folded.
                timed_job_run(spec, directory, workload.workers, WallClock())
                stored = stored_outcomes(spec, directory, list(spec.cells()))
                tally.record(1, [None if stored == outcomes else "job store differs"])
        else:
            shutil.rmtree(directory, ignore_errors=True)
        # Store operations and set-up probes are interleaved with the sweeps
        # so that every metric samples the whole run.
        for _ in range(STORE_OPERATIONS_PER_SWEEP):
            time_store_operations(*store[:2], workload.workers, tally, clock)
        repetition += 1
        probes = len(clock.calls["setup"])
        if probes < SETUP_PROBES and time.perf_counter() - started >= (
            (probes + 0.5) * seconds / SETUP_PROBES
        ):
            if workload_children_kb is None:
                # Set-up probes are children too; the workload's own pool
                # workers have all ended by now.
                workload_children_kb = largest_child_rss_kb()
            probe_setup()
    spec, _, outcomes = store
    check_oracle(outcomes, seed, tally)
    if workload_children_kb is None:
        workload_children_kb = largest_child_rss_kb()
    while len(clock.calls["setup"]) < SETUP_PROBES:
        probe_setup()
    rss = peak_rss_mb(workload_children_kb)
    cells = spec.cell_count
    rates = [cells / elapsed for elapsed in clock.scaled("sweep")]
    _log(f"{repetition} sweeps; scaled cells/s per sweep: {[round(rate) for rate in rates]}")
    scales = clock.scales()
    _log(f"host speed (reference time / measured reference time): median "
         f"{statistics.median(scales):.3f}, range {min(scales):.3f}-{max(scales):.3f} "
         f"over {len(scales)} timed calls")
    walls = clock.walls("sweep")
    _log("unscaled wall clock: "
         f"cells_per_s {cells * len(walls) / sum(walls):.6g}, "
         f"setup_s {statistics.median(clock.walls('setup')):.6g}, "
         f"resume_cells_per_s {cells / statistics.median(clock.walls('resume')):.6g}, "
         f"fold_cells_per_s {cells / statistics.median(clock.walls('fold')):.6g}")
    return {
        # Cells swept per scaled second of sweeping: with ten-odd sweeps a
        # run, the total over the run varies less between runs than the
        # median sweep does.
        "cells_per_s": cells * len(rates) / sum(clock.scaled("sweep")),
        "setup_s": statistics.median(clock.scaled("setup")),
        "peak_rss_mb": rss,
        "resume_cells_per_s": cells / statistics.median(clock.scaled("resume")),
        "fold_cells_per_s": cells / statistics.median(clock.scaled("fold")),
    }


def measure_layers(workload, seed: int, seconds: float, work_dir: str, tally, sidecar: str) -> Dict:
    """The traced breakdown; pool figures come from untraced 1- vs 2-worker runs."""
    import gate
    from repro.sim import run_sweep
    from repro.sim.job import SweepJob
    from repro.sim.sweep import DEFAULT_MAX_BLOCK_SIZE
    from clock import WallClock
    from spans import SpanRecorder, instrument, root_wall, self_times

    warm_up(workload, seed, os.path.join(work_dir, "warm-up"))
    clock = WallClock()
    recorder = SpanRecorder()
    base_walls, traced_walls, serial_walls, pool_walls = [], [], [], []
    first_outcomes, parent_waits, store_bytes = [], [], []
    traced_cells = 0
    started = time.perf_counter()
    repetition = 0
    while repetition < MIN_TRACED_REPETITIONS or time.perf_counter() - started < seconds:
        spec = workload.spec(seed, repetition)
        cells = list(spec.cells())
        serial_dir = os.path.join(work_dir, f"serial-{repetition}")
        traced_dir = os.path.join(work_dir, f"traced-{repetition}")
        pool_dir = os.path.join(work_dir, f"pool-{repetition}")
        # The same grid untraced and traced, serially in this process; the
        # order alternates so neither side always runs on a warmer heap.
        untraced_first = repetition % 2 == 0
        if untraced_first:
            base, outcomes = sweep_and_check(workload, spec, serial_dir, 1, tally, clock)
        restore = instrument(recorder)
        try:
            gc.collect()
            index = recorder.open("sweep")
            try:
                if workload.entry == "job":
                    SweepJob(spec, traced_dir, workers=1).run()
                else:
                    traced = run_sweep(spec, workers=1)
            finally:
                recorder.close(index)
        finally:
            restore()
        if not untraced_first:
            base, outcomes = sweep_and_check(workload, spec, serial_dir, 1, tally, clock)
        if repetition == 0:
            check_oracle(outcomes, seed, tally)
        traced_span = recorder.spans[index]
        traced_walls.append(traced_span.end - traced_span.start)
        base_walls.append(base)
        traced_cells += len(cells)
        if workload.entry == "job":
            traced = stored_outcomes(spec, traced_dir, cells)
            store_dir = traced_dir
            serial_walls.append(base)
        else:
            store_dir = serial_dir
            serial_walls.append(timed_job_run(spec, serial_dir, 1, clock)[0])
        tally.record(1, [None if traced == outcomes else "traced outcomes differ"])
        # A traced no-op resume and fold of the complete store.
        restore = instrument(recorder)
        try:
            before = SweepJob(spec, store_dir).store_path().read_bytes()
            with recorder.span("job.resume"):
                result = SweepJob(spec, store_dir, workers=1).run()
            after = SweepJob(spec, store_dir).store_path().read_bytes()
            fold = SweepJob(spec, store_dir).fold()
        finally:
            restore()
        tally.record(1, [gate.resume_failure(before, after, result.executed)])
        tally.record(1, [gate.fold_failure(fold.total_outcomes, spec.cell_count)])
        store_bytes.append(len(after) / spec.cell_count)
        # Untraced 2-worker job run: Amdahl's serial fraction and the
        # parent's view of the pool.
        stamps: List[float] = []
        cpu = time.process_time()
        launched = time.perf_counter()
        wall, _ = timed_job_run(
            spec, pool_dir, 2, clock, lambda _: stamps.append(time.perf_counter())
        )
        parent_cpu = time.process_time() - cpu
        pool_walls.append(wall)
        first_outcomes.append(stamps[0] - launched if stamps else wall)
        parent_waits.append(wall - parent_cpu)
        tally.record(1, [
            None if sorted_store_lines(spec, pool_dir) == sorted_store_lines(spec, store_dir)
            else "2-worker store differs from the serial store"
        ])
        for directory in (serial_dir, traced_dir, pool_dir):
            shutil.rmtree(directory, ignore_errors=True)
        repetition += 1

    spans = recorder.spans
    recorder.write(sidecar)
    totals = self_times(spans)
    wall = root_wall(spans)
    tally.record(1, [
        None if abs(sum(totals.values()) - wall) <= 1e-6 * max(1.0, wall)
        else f"layer self times sum to {sum(totals.values())}, traced wall is {wall}"
    ])
    unknown = set(totals) - set(SELF_TIME_METRICS.values())
    tally.record(1, [f"spans without a metric: {sorted(unknown)}" if unknown else None])
    counters = recorder.counters
    reps = repetition
    metrics = {name: totals.get(span, 0.0) / reps for name, span in SELF_TIME_METRICS.items()}
    metrics.update(
        {name: counters[f"{span}.calls"] / reps for name, span in CALL_METRICS.items()}
    )
    block_calls = counters["ndbatch.block.calls"] + counters["ndbatch.vector.calls"]
    serial, pooled = sum(serial_walls), sum(pool_walls)
    metrics.update({
        "sweep.bundle.per_cell": counters["sweep.bundle.calls"] / traced_cells,
        "planner.chunk_executions": (
            counters["planner.chunk_executions.total"] / counters["planner.plans"]
            if counters["planner.plans"] else 0.0
        ),
        "ndbatch.block.fill": (
            counters["ndbatch.executions"] / block_calls / DEFAULT_MAX_BLOCK_SIZE
            if block_calls else 0.0
        ),
        "adversary.prf.mb": counters["adversary.prf.bytes"] / 1e6 / reps,
        "rounds.kernel.melems": counters["rounds.kernel.elements"] / 1e6 / reps,
        "job.scan.mb": counters["job.scan.bytes"] / 1e6 / reps,
        "job.store_bytes_per_cell": statistics.median(store_bytes),
        # Amdahl at p=2: T2/T1 = f + (1 - f)/2.
        "pool.serial_fraction": 2.0 * pooled / serial - 1.0,
        "pool.first_outcome_s": statistics.median(first_outcomes),
        "pool.parent_wait_s": statistics.median(parent_waits),
        "trace.overhead_frac": sum(traced_walls) / sum(base_walls) - 1.0,
        "trace.wall.s": wall / reps,
    })
    return metrics


# ----------------------------------------------------------------------
# Command line
# ----------------------------------------------------------------------


def run_workload(workload, seed: int, seconds: float, traced: bool) -> Tuple[Dict, object]:
    """One benchmark run; returns ``(metrics, tally)``."""
    import gate

    os.makedirs(WORK_ROOT, exist_ok=True)
    work_dir = tempfile.mkdtemp(prefix=f"{workload.name}-", dir=WORK_ROOT)
    tally = gate.Tally()
    names = PER_LAYER if traced else END_TO_END
    metrics = {name: 0.0 for name in names}
    try:
        if traced:
            sidecar = os.path.join(WORK_ROOT, f"trace-{workload.name}-seed{seed}.jsonl")
            metrics.update(measure_layers(workload, seed, seconds, work_dir, tally, sidecar))
        else:
            metrics.update(measure_end_to_end(workload, seed, seconds, work_dir, tally))
    except Exception:  # the run reports a failure instead of a figure
        _log(traceback.format_exc())
        tally.record(1, ["the benchmark run raised"])
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    return {name: metrics[name] for name in names}, tally


def report(metrics: Dict, units: Dict, tally) -> str:
    """Print every metric with its unit; return the result line."""
    for name, value in metrics.items():
        print(f"{name}: {value:.6g} {units[name]}")
    failed_frac = tally.failed / tally.attempted if tally.attempted else 1.0
    print(f"failed_frac: {failed_frac:.6g} failed/attempted "
          f"({tally.failed} of {tally.attempted} cells and checks)")
    for example in tally.examples:
        _log(f"FAILED: {example}")
    return json.dumps({
        "correct": tally.failed == 0 and tally.attempted > 0,
        "attempted": max(1, tally.attempted),
        "failed": tally.failed,
        "metrics": {
            name: {"value": value, "unit": units[name]} for name, value in metrics.items()
        },
    })


def write_contract(environment: Dict[str, str], seconds: float) -> None:
    """Record the benchmark's contract and the current traced breakdown."""
    from grids import CLEARED_ENVIRONMENT, DEVELOPMENT_SEED, HELD_OUT_SEED, WORKLOADS

    breakdown = {}
    for workload in WORKLOADS.values():
        metrics, tally = run_workload(workload, DEVELOPMENT_SEED, seconds, traced=True)
        if tally.failed:
            raise SystemExit(f"{workload.name}: traced run failed: {tally.examples}")
        breakdown[workload.name] = {name: round(value, 6) for name, value in metrics.items()}
    contract = {
        "command": "python3 perfbench/run.py --workload <name> --seed <n> "
                   "--seconds <s> --trace <0|1>",
        "load_model": "closed loop: one client submits one sweep and waits for it; "
                      "at most 2 pool workers",
        "seeds": {"development": DEVELOPMENT_SEED, "held_out": HELD_OUT_SEED},
        "environment": {
            "set": {
                name: os.path.relpath(value, ROOT) if os.path.isabs(value) else value
                for name, value in environment.items()
            },
            "cleared": list(CLEARED_ENVIRONMENT),
        },
        "workloads": {name: workload.describe() for name, workload in WORKLOADS.items()},
        "end_to_end": END_TO_END,
        "per_layer": PER_LAYER,
        "layer_mapping": LAYER_MAPPING,
        "traced_breakdown": {
            "seed": DEVELOPMENT_SEED,
            "seconds": seconds,
            "per_traced_repetition": breakdown,
        },
        "timing": TIMING,
        "legacy_ratio_files": (
            "The BENCH_*.json speedup-ratio files are left as they are; later "
            "performance claims are measured with this benchmark."
        ),
    }
    with open(CONTRACT_PATH, "w", encoding="utf-8") as handle:
        json.dump(contract, handle, indent=2)
        handle.write("\n")


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--contract", action="store_true",
                        help="write perfbench/contract.json with a traced breakdown")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--work-dir", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not os.path.isdir(os.path.join(SOURCE, "repro")):
        _log(f"error: no package at {os.path.join(SOURCE, 'repro')}; run from a "
             "checkout of the repository")
        return 2
    from grids import WORKLOADS

    if args.setup_probe:
        _import_repro(os.path.dirname(args.work_dir))
        import repro.sim  # noqa: F401  (the import is what is timed)

        warm_up(WORKLOADS[args.workload], args.seed, args.work_dir)
        return 0
    os.makedirs(WORK_ROOT, exist_ok=True)
    environment = _import_repro(WORK_ROOT)
    if args.contract:
        write_contract(environment, args.seconds)
        return 0
    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {sorted(WORKLOADS)}")
    traced = bool(args.trace)
    metrics, tally = run_workload(WORKLOADS[args.workload], args.seed, args.seconds, traced)
    print(report(metrics, PER_LAYER if traced else END_TO_END, tally))
    return 0


if __name__ == "__main__":
    sys.exit(main())
