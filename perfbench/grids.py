"""The benchmark's workloads: named sweep grids, their seeds and how they run.

Each workload is one closed-loop client: it submits one sweep through a
public entry point (``run_sweep`` or ``SweepJob.run``), waits for it, and
submits the next.  Every repetition sweeps a fresh seed range, derived from
the benchmark's ``--seed`` argument, so the program only ever receives a
built :class:`~repro.sim.sweep.SweepSpec`.
"""

from __future__ import annotations

import os
import random
from dataclasses import dataclass
from typing import Dict, Tuple

#: Seed used while the benchmark and the changes measured with it are written.
DEVELOPMENT_SEED = 0
#: Seed kept out of development, for checking a claim on unseen inputs.
HELD_OUT_SEED = 7919

#: ``engine="auto"`` dispatch compares block work against a threshold that
#: ``ndbatch_min_work()`` otherwise probes once per host and caches under the
#: system temp dir; pinning it keeps dispatch identical across hosts and runs.
#: 64 is the engine's own hand-calibrated fallback (``NDBATCH_MIN_WORK``).
PINNED_ENVIRONMENT = {"REPRO_NDBATCH_MIN_WORK": "64"}
#: The calibration cache goes to the benchmark's work directory instead.
CALIBRATION_ENV = "REPRO_CALIBRATION_DIR"
#: Settings that would change what runs (fault injection, array backend,
#: precision, planner budget); the benchmark removes them from its process.
CLEARED_ENVIRONMENT = (
    "REPRO_CHAOS",
    "REPRO_ARRAY_BACKEND",
    "REPRO_ARRAY_DTYPE",
    "REPRO_BLOCK_BUDGET_BYTES",
)


def pin_environment(work_dir: str) -> Dict[str, str]:
    """Apply the benchmark's environment to this process; return the settings."""
    for name in CLEARED_ENVIRONMENT:
        os.environ.pop(name, None)
    calibration = os.path.join(work_dir, "calibration")
    os.makedirs(calibration, exist_ok=True)
    os.environ.update(PINNED_ENVIRONMENT)
    os.environ[CALIBRATION_ENV] = calibration
    return dict(PINNED_ENVIRONMENT, **{CALIBRATION_ENV: calibration})


@dataclass(frozen=True)
class Workload:
    """One named grid and the entry point that sweeps it."""

    name: str
    why: str
    protocols: Tuple[str, ...]
    system_sizes: Tuple[Tuple[int, int], ...]
    adversaries: Tuple[str, ...]
    workloads: Tuple[str, ...]
    seeds_per_point: int
    engine: str
    workers: int
    #: ``"run_sweep"`` returns outcomes in memory; ``"job"`` runs a fresh
    #: ``SweepJob`` (JSONL store, ``retry=None`` as the CLI default).
    entry: str
    dimensions: Tuple[int, ...] = (1,)

    def seed_base(self, seed: int) -> int:
        """First cell seed of repetition 0, derived from the benchmark seed."""
        # Offset so the warm-up's repetition -1 still has positive seeds.
        return (1 << 20) + random.Random(f"{self.name}:{seed}").randrange(1 << 30)

    def spec(self, seed: int, repetition: int, seeds_per_point: int = 0):
        """The grid of one repetition: a disjoint seed range per repetition."""
        from repro.sim import SweepSpec

        count = seeds_per_point or self.seeds_per_point
        first = self.seed_base(seed) + repetition * count
        return SweepSpec(
            protocols=self.protocols,
            system_sizes=self.system_sizes,
            adversaries=self.adversaries,
            workloads=self.workloads,
            seeds=tuple(range(first, first + count)),
            engine=self.engine,
            dimensions=self.dimensions,
        )

    def grid_points(self) -> int:
        return (
            len(self.protocols)
            * len(self.system_sizes)
            * len(self.adversaries)
            * len(self.workloads)
            * len(self.dimensions)
        )

    def describe(self) -> Dict:
        """The workload as written into the benchmark contract."""
        return {
            "why": self.why,
            "entry_point": "SweepJob.run" if self.entry == "job" else "run_sweep",
            "protocols": list(self.protocols),
            "system_sizes": [list(pair) for pair in self.system_sizes],
            "adversaries": list(self.adversaries),
            "workloads": list(self.workloads),
            "dimensions": list(self.dimensions),
            "seeds_per_point": self.seeds_per_point,
            "cells_per_sweep": self.grid_points() * self.seeds_per_point,
            "engine": self.engine,
            "workers": self.workers,
        }


WORKLOADS: Dict[str, Workload] = {
    workload.name: workload
    for workload in (
        Workload(
            name="crash-ndbatch",
            why=(
                "Quorum layers dominate and nothing Byzantine runs: PRF keys, "
                "quorum sort and the scalar d=1 ndbatch path carry the load."
            ),
            protocols=("async-crash",),
            system_sizes=((16, 5), (31, 10)),
            adversaries=("none", "crash-staggered", "staggered", "random-delays"),
            workloads=("uniform", "two-cluster"),
            seeds_per_point=128,
            engine="ndbatch",
            workers=1,
            entry="run_sweep",
        ),
        Workload(
            name="byz-vector",
            why=(
                "Same engine used differently: Byzantine injection and the "
                "(E, n, d) vector path carry the load; crash-ndbatch skips both."
            ),
            protocols=("async-byzantine",),
            system_sizes=((16, 3), (31, 6)),
            adversaries=("byz-anti", "byz-random", "found-anti-stagger"),
            workloads=("uniform", "extremes"),
            dimensions=(1, 3),
            seeds_per_point=64,
            engine="ndbatch",
            workers=1,
            entry="run_sweep",
        ),
        Workload(
            name="job-pool",
            why=(
                "Small cells: parent side, pool dispatch, the pure-Python batch "
                "engine, cell IDs and JSONL persistence carry the load."
            ),
            protocols=("async-crash", "witness"),
            system_sizes=((7, 2), (10, 3)),
            adversaries=("none", "crash-initial", "staggered"),
            workloads=("uniform", "two-cluster"),
            seeds_per_point=100,
            engine="auto",
            workers=2,
            entry="job",
        ),
    )
}

#: Seeds per grid point of the warm-up sweep that precedes timing (and that
#: the set-up probe runs in a fresh interpreter).
WARM_UP_SEEDS_PER_POINT = 2
