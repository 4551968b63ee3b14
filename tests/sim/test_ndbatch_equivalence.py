"""Differential validation: vectorised engine versus the pure-Python batch engine.

Unlike the batch-versus-event grid (where the two engines realise different
legal schedules and only the correctness envelope is compared), the ndbatch
engine is designed to reproduce the batch engine's executions *exactly*: the
counter-based :class:`~repro.net.adversary.SeededOmission` PRF, the
rank-block quorum contract and the per-recipient fallback all yield the same
quorum for every (execution, round, recipient).  The engines may differ only
in floating-point summation order (``math.fsum`` versus numpy's pairwise
summation), so the differential bar is:

* **exact** equality of rounds, message/bit/delivery counts and per-process
  send counts;
* outputs, trajectories and value histories equal within ``1e-9``.

The full grid (crash + Byzantine × sync + async × adversaries × workloads ×
seeds) is marked ``slow``; a representative smoke subset always runs.
"""

from __future__ import annotations

import pytest

pytest.importorskip("numpy", reason="the vectorised engine requires numpy")

from repro.net.adversary import (
    AntiConvergenceStrategy,
    ByzantineValueStrategy,
    DelayRankOmission,
    EquivocatingStrategy,
    FixedValueStrategy,
    LaggardDelay,
    PartitionDelay,
    RandomValueStrategy,
    RoundFaultModel,
    SeededDelay,
    StaggeredExclusionDelay,
    round_fault_model,
)
from repro.net.network import UniformRandomDelay
from repro.sim.batch import run_batch_protocol
from repro.sim.ndbatch import run_ndbatch_block, run_ndbatch_protocol, run_vector_block
from repro.sim.sweep import (
    ADVERSARY_SPECS,
    VECTOR_WORKLOAD_SPECS,
    WORKLOAD_SPECS,
    AdversaryBundle,
    SweepCell,
    adversary_fits_protocol,
    build_adversary_bundle,
)

EPSILON = 1e-3
TOLERANCE = 1e-9

#: (protocol, n, t) triples sized at each protocol's interesting threshold.
SYSTEMS = {
    "async-crash": (7, 2),
    "async-byzantine": (11, 2),
    "sync-crash": (7, 2),
    "sync-byzantine": (7, 2),
}

ADVERSARIES = [
    "none",
    "crash-initial",
    "crash-staggered",
    "byz-fixed",
    "byz-equivocate",
    "byz-anti",
    "partition",
    "staggered",
    "random-delays",
]

WORKLOADS = ["uniform", "two-cluster", "extremes"]


def grid_cells():
    cells = []
    for protocol, (n, t) in SYSTEMS.items():
        for adversary in ADVERSARIES:
            if not adversary_fits_protocol(adversary, protocol):
                continue
            for workload in WORKLOADS:
                cells.append((protocol, n, t, adversary, workload))
    return cells


GRID = grid_cells()
assert len(GRID) >= 24, f"differential grid has only {len(GRID)} cells"

SMOKE = [
    ("async-crash", 7, 2, "crash-staggered", "uniform"),
    ("async-byzantine", 11, 2, "byz-equivocate", "two-cluster"),
    ("sync-crash", 7, 2, "crash-initial", "extremes"),
    ("sync-byzantine", 7, 2, "byz-anti", "uniform"),
    ("async-crash", 7, 2, "staggered", "two-cluster"),
    ("async-crash", 7, 2, "random-delays", "uniform"),
    ("async-byzantine", 11, 2, "random-delays", "extremes"),
]


def assert_engines_agree(batch, ndbatch, context, tolerance=TOLERANCE):
    """The full differential bar between the two round-level engines
    (``tolerance`` bounds the real-valued differences)."""
    # Exact: everything integer-valued.
    assert batch.rounds_used == ndbatch.rounds_used, context
    assert batch.stats.messages_sent == ndbatch.stats.messages_sent, context
    assert batch.stats.bits_sent == ndbatch.stats.bits_sent, context
    assert batch.stats.messages_delivered == ndbatch.stats.messages_delivered, context
    assert batch.stats.sends_by_process == ndbatch.stats.sends_by_process, context
    assert batch.stats.messages_by_kind == ndbatch.stats.messages_by_kind, context
    assert batch.report.ok == ndbatch.report.ok, context
    assert batch.report.all_decided == ndbatch.report.all_decided, context

    # Within summation-order tolerance: everything real-valued.
    assert set(batch.outputs) == set(ndbatch.outputs), context
    for pid, value in batch.outputs.items():
        other = ndbatch.outputs[pid]
        if value is None:
            assert other is None, context
        else:
            assert abs(value - other) <= tolerance, f"{context}: output of P{pid}"
    assert len(batch.trajectory) == len(ndbatch.trajectory), context
    for left, right in zip(batch.trajectory, ndbatch.trajectory):
        assert abs(left - right) <= tolerance, context
    assert set(batch.value_histories) == set(ndbatch.value_histories), context
    for pid, history in batch.value_histories.items():
        other = ndbatch.value_histories[pid]
        assert len(history) == len(other), f"{context}: history length of P{pid}"
        for left, right in zip(history, other):
            assert abs(left - right) <= tolerance, f"{context}: history of P{pid}"


def run_both(protocol, n, t, adversary, workload, seed):
    inputs = WORKLOAD_SPECS[workload](n, seed)
    bundle = ADVERSARY_SPECS[adversary](protocol, n, t, seed)
    kwargs = dict(
        t=t, epsilon=EPSILON,
        fault_plan=bundle.fault_plan, delay_model=bundle.delay_model, seed=seed,
    )
    return (
        run_batch_protocol(protocol, inputs, **kwargs),
        run_ndbatch_protocol(protocol, inputs, **kwargs),
    )


class TestDifferentialSmoke:
    """Always-on representative subset of the differential grid."""

    @pytest.mark.parametrize("protocol,n,t,adversary,workload", SMOKE)
    def test_engines_agree(self, protocol, n, t, adversary, workload):
        batch, ndbatch = run_both(protocol, n, t, adversary, workload, seed=0)
        assert_engines_agree(
            batch, ndbatch, f"{protocol} {adversary}/{workload}"
        )

    def test_block_execution_matches_per_execution_batch(self):
        """A multi-execution block equals one batch run per execution."""
        from repro.core.termination import FixedRounds

        n, t = 10, 3
        cells = [("uniform", seed) for seed in range(6)] + [("two-cluster", 2)]
        inputs_block = [WORKLOAD_SPECS[w](n, s) for w, s in cells]
        seeds = [s for _, s in cells]
        policy = FixedRounds(6)
        block = run_ndbatch_block(
            "async-crash", inputs_block, t=t, epsilon=1e-2,
            round_policy=policy, seeds=seeds,
        )
        for (workload, seed), inputs, ndbatch in zip(cells, inputs_block, block):
            batch = run_batch_protocol(
                "async-crash", inputs, t=t, epsilon=1e-2,
                round_policy=policy, seed=seed,
            )
            assert_engines_agree(batch, ndbatch, f"block {workload}/{seed}")

    def test_non_finite_injection_refill_path(self):
        n, t = 11, 2
        model = RoundFaultModel(
            strategies={
                n - 1: FixedValueStrategy(float("nan")),
                n - 2: FixedValueStrategy(float("inf")),
            }
        )
        inputs = [i / (n - 1) for i in range(n)]
        kwargs = dict(t=t, epsilon=EPSILON, fault_model=model, seed=7)
        batch = run_batch_protocol("async-byzantine", inputs, **kwargs)
        ndbatch = run_ndbatch_protocol("async-byzantine", inputs, **kwargs)
        assert_engines_agree(batch, ndbatch, "nan refill")

    def test_stateful_delay_model_uses_generic_fallback(self):
        """Stateful policies must replay the batch engine's exact call order."""
        n, t = 11, 3
        inputs = [i / (n - 1) for i in range(n)]
        batch = run_batch_protocol(
            "async-crash", inputs, t=t, epsilon=EPSILON,
            delay_model=UniformRandomDelay(low=0.1, high=2.0, seed=9),
        )
        ndbatch = run_ndbatch_protocol(
            "async-crash", inputs, t=t, epsilon=EPSILON,
            delay_model=UniformRandomDelay(low=0.1, high=2.0, seed=9),
        )
        assert_engines_agree(batch, ndbatch, "stateful delay model")

    def test_infinite_delay_rank_still_beats_non_candidates(self):
        # An infinite delay is a legal rank (constructors only reject <= 0);
        # the vector path must not confuse it with its non-candidate mask
        # sentinel, or a crashed sender's stale value could enter a quorum.
        from repro.net.adversary import CrashFaultPlan, CrashPoint, PartitionDelay

        n, t = 7, 2
        inputs = [i / (n - 1) for i in range(n)]
        plan = CrashFaultPlan({n - 1 - i: CrashPoint(after_sends=0) for i in range(t)})
        results = []
        for runner in (run_batch_protocol, run_ndbatch_protocol):
            results.append(
                runner(
                    "async-crash", inputs, t=t, epsilon=EPSILON,
                    fault_plan=plan,
                    delay_model=PartitionDelay(
                        camp_a=range(3), fast=1.0, slow=float("inf")
                    ),
                )
            )
        assert_engines_agree(results[0], results[1], "infinite delay rank")

    def test_rank_block_path_matches(self):
        n, t = 11, 3
        inputs = [i / (n - 1) for i in range(n)]
        results = []
        for runner in (run_batch_protocol, run_ndbatch_protocol):
            results.append(
                runner(
                    "async-crash", inputs, t=t, epsilon=EPSILON,
                    omission_policy=DelayRankOmission(
                        StaggeredExclusionDelay(n, exclude=t)
                    ),
                )
            )
        assert_engines_agree(results[0], results[1], "rank-block path")


def run_block_against_batch(protocol, n, t, bundles, inputs_block, seeds, context):
    """One ndbatch block of ``bundles`` against one batch run per execution."""
    from repro.core.termination import FixedRounds

    policy = FixedRounds(6)
    block = run_ndbatch_block(
        protocol, inputs_block, t=t, epsilon=EPSILON, round_policy=policy,
        fault_models=[round_fault_model(b.fault_plan, n) for b in bundles],
        omission_policies=[
            DelayRankOmission(b.delay_model) if b.delay_model else None for b in bundles
        ],
        seeds=seeds,
    )
    for seed, inputs, bundle, ndbatch in zip(seeds, inputs_block, bundles, block):
        batch = run_batch_protocol(
            protocol, inputs, t=t, epsilon=EPSILON, round_policy=policy,
            fault_plan=bundle.fault_plan, delay_model=bundle.delay_model, seed=seed,
        )
        assert_engines_agree(batch, ndbatch, f"{context} seed {seed}")


class TestTiesAndMasks:
    """Cells that force rank ties and partial candidate masks through the
    tensor selection paths (shared broadcast order, per-execution float
    ranks) — every tie must break by sender exactly as the batch engine's
    sorted ``(rank, sender)`` tuples do."""

    @pytest.mark.parametrize("protocol,n,t", [("async-crash", 7, 2), ("async-byzantine", 11, 2)])
    @pytest.mark.parametrize("faults", ["none", "crash-staggered"])
    def test_all_tied_seeded_delays_select_by_sender(self, protocol, n, t, faults):
        # low == high: every delay ties, so each quorum is the m candidates
        # with the smallest sender ids.
        seeds = list(range(5))
        bundles = [
            AdversaryBundle(
                ADVERSARY_SPECS[faults](protocol, n, t, seed).fault_plan,
                SeededDelay(low=1.0, high=1.0, seed=seed),
            )
            for seed in seeds
        ]
        inputs_block = [WORKLOAD_SPECS["uniform"](n, seed) for seed in seeds]
        run_block_against_batch(protocol, n, t, bundles, inputs_block, seeds, "tied")

    @pytest.mark.parametrize(
        "delay",
        [
            lambda n, t: StaggeredExclusionDelay(n, exclude=t),
            lambda n, t: PartitionDelay(camp_a=range(n // 2)),
            lambda n, t: LaggardDelay(slow_senders=[0, 1]),
        ],
        ids=["staggered", "partition", "laggard"],
    )
    def test_broadcast_program_with_crash_masks(self, delay):
        # One deterministic delay program shared by the whole block (a
        # zero-stride broadcast ordered once per round), composed with
        # per-execution mid-multicast crashes: every execution applies a
        # different partial candidate mask to the shared order.
        protocol, n, t = "async-crash", 9, 3
        seeds = list(range(7))
        bundles = [
            ADVERSARY_SPECS["crash-staggered"](protocol, n, t, seed)._replace(
                delay_model=delay(n, t)
            )
            for seed in seeds
        ]
        inputs_block = [WORKLOAD_SPECS["two-cluster"](n, seed) for seed in seeds]
        run_block_against_batch(protocol, n, t, bundles, inputs_block, seeds, "masked")

    def test_seeded_delays_with_crash_masks(self):
        protocol, n, t = "async-crash", 9, 3
        seeds = list(range(6))
        bundles = [
            ADVERSARY_SPECS["crash-staggered"](protocol, n, t, seed)._replace(
                delay_model=SeededDelay(low=0.1, high=2.0, seed=seed)
            )
            for seed in seeds
        ]
        inputs_block = [WORKLOAD_SPECS["uniform"](n, seed) for seed in seeds]
        run_block_against_batch(protocol, n, t, bundles, inputs_block, seeds, "seeded")

    def test_mixed_selection_modes_in_one_block(self):
        # Seeded omission, a shared broadcast program and per-execution PRF
        # delays side by side, each mode owning only some rows of the block
        # and of its candidate mask.
        protocol, n, t = "async-crash", 9, 3
        seeds = list(range(9))
        delays = [
            lambda seed: None,
            lambda seed: StaggeredExclusionDelay(n, exclude=t),
            lambda seed: SeededDelay(low=0.1, high=2.0, seed=seed),
        ]
        bundles = [
            AdversaryBundle(
                ADVERSARY_SPECS["crash-staggered" if seed % 2 else "none"](
                    protocol, n, t, seed
                ).fault_plan,
                delays[seed % 3](seed),
            )
            for seed in seeds
        ]
        inputs_block = [WORKLOAD_SPECS["uniform"](n, seed) for seed in seeds]
        run_block_against_batch(protocol, n, t, bundles, inputs_block, seeds, "mixed")

    @pytest.mark.parametrize("seed", [0, 5])
    def test_found_anti_stagger_vector_block_matches_composition(self, seed):
        # d = 3: one shared-order selection per round serves every
        # coordinate, and Byzantine reports are gathered from the compact
        # (E, recipient, slot, d) tensor; the coordinate-wise batch
        # composition (fresh adversary per coordinate) is the exact oracle.
        from repro.core.termination import FixedRounds

        protocol, n, t, d = "async-byzantine", 11, 2, 3
        policy = FixedRounds(8)
        cells = [
            SweepCell(protocol, n, t, EPSILON, "found-anti-stagger", "rendezvous",
                      s, "ndbatch", dimension=d)
            for s in (seed, seed + 1, seed + 2)
        ]
        vectors_block = [VECTOR_WORKLOAD_SPECS["rendezvous"](n, d, c.seed) for c in cells]
        bundles = [build_adversary_bundle(cell) for cell in cells]
        block = run_vector_block(
            protocol, vectors_block, t=t, epsilon=EPSILON, round_policy=policy,
            fault_models=[round_fault_model(b.fault_plan, n) for b in bundles],
            omission_policies=[DelayRankOmission(b.delay_model) for b in bundles],
            seeds=[cell.seed for cell in cells],
        )
        for cell, vectors, vector in zip(cells, vectors_block, block):
            context = f"found-anti-stagger seed {cell.seed}"
            coordinates = []
            for c in range(d):
                fresh = build_adversary_bundle(cell)
                coordinates.append(
                    run_batch_protocol(
                        protocol, [v[c] for v in vectors], t=t, epsilon=EPSILON,
                        round_policy=policy, fault_plan=fresh.fault_plan,
                        delay_model=fresh.delay_model, seed=cell.seed,
                    )
                )
            for c, batch in enumerate(coordinates):
                assert batch.rounds_used == vector.rounds, context
                assert batch.stats.messages_sent * d == vector.stats.messages_sent, context
                assert batch.stats.bits_sent * d == vector.stats.bits_sent, context
                assert set(batch.outputs) == set(vector.outputs), context
                for pid, value in batch.outputs.items():
                    assert abs(value - vector.outputs[pid][c]) <= TOLERANCE, context
            spreads = zip(*(batch.trajectory for batch in coordinates))
            assert len(vector.trajectory) == len(coordinates[0].trajectory), context
            for spread, widest in zip(vector.trajectory, spreads):
                assert abs(spread - max(widest)) <= TOLERANCE, context


class _ExtremesStrategy(ByzantineValueStrategy):
    """A stateless strategy with no tensor form: the engines query it through
    ``value_block`` (which answers ``None``) and then per-recipient
    ``value`` calls."""

    stateless = True

    def __init__(self, pull: float) -> None:
        self.pull = pull

    def value(self, round_number, recipient, observed):
        if recipient % 3 == 0:
            return min(observed) - self.pull
        return max(observed) + self.pull / round_number


#: Float tolerance of each value dtype against the float64 batch engine
#: (float32 as pinned in tests/sim/test_planner.py).
DTYPE_TOLERANCE = {"float64": TOLERANCE, "float32": 1e-5}


def run_models_against_batch(protocol, n, t, models, dtype, context, rounds=6):
    """One ndbatch block of fault ``models`` against one batch run each."""
    from repro.core.termination import FixedRounds

    policy = FixedRounds(rounds)
    seeds = list(range(len(models)))
    inputs_block = [WORKLOAD_SPECS["two-cluster"](n, seed) for seed in seeds]
    block = run_ndbatch_block(
        protocol, inputs_block, t=t, epsilon=EPSILON, round_policy=policy,
        fault_models=models, seeds=seeds, dtype=dtype,
    )
    for seed, inputs, model, ndbatch in zip(seeds, inputs_block, models, block):
        batch = run_batch_protocol(
            protocol, inputs, t=t, epsilon=EPSILON, round_policy=policy,
            fault_model=model, seed=seed,
        )
        assert_engines_agree(
            batch, ndbatch, f"{context} execution {seed}", DTYPE_TOLERANCE[dtype]
        )


@pytest.mark.parametrize("dtype", ["float64", "float32"])
class TestCompactReportLayout:
    """Byzantine reports live in an ``(E, n, k, *tail)`` tensor with one slot
    per strategy sender, gathered through a per-block route table.  These
    blocks vary the slot count per execution and put strategies at pids
    whose slot differs from the pid, so a misrouted report shows up as a
    differential failure against the batch engine."""

    @staticmethod
    def mixed_models(n, t):
        # 0, 1 and t strategies per execution at non-top pids, tensor
        # programs beside a strategy with no tensor form.
        return [
            RoundFaultModel(),
            RoundFaultModel(strategies={3: AntiConvergenceStrategy(stretch=0.1)}),
            RoundFaultModel(
                strategies={
                    1: RandomValueStrategy(0.3, 0.7, seed=4),
                    4: _ExtremesStrategy(0.3),
                }
            ),
            RoundFaultModel(
                strategies={
                    0: EquivocatingStrategy(-1.0, 2.0),
                    t + 3: AntiConvergenceStrategy(stretch=0.2, parity=1),
                }
            ),
            RoundFaultModel(
                strategies={
                    1: RandomValueStrategy(0.3, 0.7, seed=11),
                    2: _ExtremesStrategy(0.05),
                }
            ),
        ]

    @pytest.mark.parametrize(
        "protocol,n,t", [("async-byzantine", 11, 2), ("sync-byzantine", 7, 2)]
    )
    def test_mixed_slot_counts_and_value_paths(self, protocol, n, t, dtype):
        run_models_against_batch(
            protocol, n, t, self.mixed_models(n, t), dtype, f"mixed slots {protocol}"
        )

    def test_vector_block_routes_every_coordinate(self, dtype):
        # The coordinate fold answers all d coordinates of a tensor group in
        # one value_tensor call; each coordinate must still equal its own
        # scalar block bit for bit, slots and routes included.
        from repro.core.termination import FixedRounds

        protocol, n, t, d = "async-byzantine", 11, 2, 3
        models = self.mixed_models(n, t)
        seeds = list(range(len(models)))
        # Positions scaled into [0, 1], the range the strategies report in.
        vectors_block = [
            [[x / 100.0 for x in point] for point in VECTOR_WORKLOAD_SPECS["rendezvous"](n, d, s)]
            for s in seeds
        ]
        kwargs = dict(
            t=t, epsilon=EPSILON, round_policy=FixedRounds(6), fault_models=models,
            seeds=seeds, dtype=dtype,
        )
        vector = run_vector_block(protocol, vectors_block, **kwargs)
        for c in range(d):
            scalar = run_ndbatch_block(
                protocol, [[v[c] for v in vectors] for vectors in vectors_block], **kwargs
            )
            for seed, (v, s) in enumerate(zip(vector, scalar)):
                assert v.rounds_used == s.rounds_used, seed
                for pid, output in s.outputs.items():
                    assert v.outputs[pid][c] == output, (seed, c, pid)

    def test_sync_non_finite_reports_degrade_to_own_value(self, dtype):
        protocol, n, t = "sync-byzantine", 7, 2
        models = [
            RoundFaultModel(
                strategies={
                    1: FixedValueStrategy(float("nan")),
                    4: FixedValueStrategy(float("inf")),
                }
            ),
            RoundFaultModel(
                strategies={
                    0: FixedValueStrategy(float("-inf")),
                    5: AntiConvergenceStrategy(stretch=0.1),
                }
            ),
            RoundFaultModel(strategies={3: FixedValueStrategy(float("nan"))}),
        ]
        run_models_against_batch(protocol, n, t, models, dtype, "sync non-finite")

    def test_async_non_finite_report_still_refills(self, dtype, monkeypatch):
        # One finite and one non-finite strategy in the same round: the
        # round's reports are not all finite, so it must take the checked
        # path and refill the quorums the NaN sender was chosen into.
        import repro.sim.ndbatch as ndbatch

        refills = []
        refill = ndbatch._refill_or_fail

        def counted(*args, **kwargs):
            refills.append(1)
            return refill(*args, **kwargs)

        monkeypatch.setattr(ndbatch, "_refill_or_fail", counted)
        protocol, n, t = "async-byzantine", 11, 2
        models = [
            RoundFaultModel(
                strategies={
                    2: FixedValueStrategy(float("nan")),
                    6: AntiConvergenceStrategy(stretch=0.1),
                }
            ),
            RoundFaultModel(strategies={4: AntiConvergenceStrategy(stretch=0.1)}),
        ]
        run_models_against_batch(protocol, n, t, models, dtype, "async non-finite")
        assert refills, "the non-finite report never reached the refill path"


@pytest.mark.slow
class TestDifferentialGrid:
    """The full seeded scenario grid (≥ 24 cells, two seeds each)."""

    @pytest.mark.parametrize("protocol,n,t,adversary,workload", GRID)
    @pytest.mark.parametrize("seed", [0, 1])
    def test_engines_agree(self, protocol, n, t, adversary, workload, seed):
        batch, ndbatch = run_both(protocol, n, t, adversary, workload, seed)
        assert_engines_agree(
            batch, ndbatch, f"{protocol} n={n} t={t} {adversary}/{workload} s{seed}"
        )
