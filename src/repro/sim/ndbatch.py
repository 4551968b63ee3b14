"""Vectorised multi-execution batch engine (numpy tensor rounds).

The round-level batch engine (:mod:`repro.sim.batch`) made thousand-execution
sweeps routine, but its hot loop is still pure Python: one ``sorted()`` +
``fsum`` per process per round per execution.  The algorithms' round structure
— ``mean ∘ select_k ∘ reduce^j`` over a sorted multiset — is exactly a sort +
strided slice + mean over the rows of a matrix, so this engine advances an
entire *block* of executions at once, with ONE round loop
(:func:`_advance_block`) over a value state of shape ``(E, n, *tail)``:

* all executions sharing a scenario shape (protocol, ``n``, ``t``, round
  count, dimension) are stacked into one value tensor — ``tail == ()`` for
  scalar blocks (:func:`run_ndbatch_block`, returning
  :class:`~repro.sim.runner.ExecutionResult`), ``tail == (d,)`` for vector
  agreement in ``R^d`` (:func:`run_vector_block`, returning
  :class:`~repro.sim.vector.VectorExecutionResult`);
* each round, candidate masks and quorum index tensors are built from the
  per-execution :class:`~repro.net.adversary.RoundFaultModel` and
  :class:`~repro.net.adversary.OmissionPolicy`;
* per-recipient views are gathered into an ``(E, n, m, *tail)`` tensor and
  the approximation step is applied along the multiset axis as one sort +
  strided slice + mean (:func:`repro.core.rounds.approximation_step_block`)
  — independently per coordinate of a vector block, and with no
  per-process Python loop.

Everything structural in an execution — who crashes when, which quorums each
recipient picks, which processes are Byzantine — is value-independent (crash
schedules are data; quorum selection ranks PRF keys or delay ranks, never
values).  So the coordinates of a vector block share one round structure:
quorum selection runs once per round for all ``d`` coordinates (this, not
the kernel, is the ``d×`` win over the coordinate-wise composition of
:mod:`repro.sim.vector`), and per-coordinate costs are the shared counts
times ``d``.  Byzantine strategies are evaluated once per coordinate on that
coordinate's observed values with the same PRF seeds, so a Byzantine sender
still "may differ per coordinate" exactly as the composition allows.  A
``d``-dimensional block is therefore bit-identical, coordinate by
coordinate, to ``d`` scalar blocks (``tests/sim/test_vector_coordinates.py``).
The trailing axis changes only array shapes; the loop branches on it in two
places, both out of the model's common case: a non-finite Byzantine report
refills its quorum slot from later candidates (scalar blocks only — a
per-coordinate refill would split the shared quorum), and per-recipient
omission policies, whose draws cannot be shared across coordinates, are
rejected in vector blocks.  Both raise
:class:`~repro.sim.engine.EngineCapabilityError` at ``d > 1``, pointing at
the coordinate-wise composition; ``d == 1`` vector blocks run as scalar
blocks and are lifted, so they support both.

Exact agreement with :mod:`repro.sim.batch`
-------------------------------------------

The engine is differentially pinned against the pure-Python batch engine
(``tests/sim/test_ndbatch_equivalence.py``): identical rounds, message and
bit counts, and outputs/trajectories within ``1e-9`` (the engines may differ
in floating-point summation order — ``math.fsum`` versus numpy's pairwise
summation — but in nothing else).  The quorum-selection paths keep the
adversary *bit-identical* across engines, and all but the last cost about
one integer sort per round:

* :class:`~repro.net.adversary.SeededOmission` — its counter-based PRF
  (:func:`~repro.net.adversary.seeded_rank_key`) is re-evaluated here over
  whole ``(executions, recipients, senders)`` uint64 tensors, reproducing the
  scalar keys exactly.  The keys are mixed in place inside block-owned
  buffers reused every round, and since each key carries its sender id in
  its low bits, an in-place ``sort`` of the masked keys *is* selection;
* policies sharing a tensor fault program
  (:meth:`~repro.net.adversary.OmissionPolicy.rank_tensor`, e.g.
  :class:`~repro.net.adversary.DelayRankOmission` over tensor-programmed
  delay models) — executions are grouped by
  :meth:`~repro.net.adversary.OmissionPolicy.tensor_key` and each group is
  ranked with *one* bulk call per round, per-execution variation carried by
  the PRF seed vector.  A deterministic program answers with a zero-stride
  broadcast of one ``n × n`` matrix, which is ordered once per round with a
  stable sort: executions whose every sender is a candidate take that order
  directly, the others apply their candidate mask through a small-integer
  sort.  Per-execution float ranks (:class:`~repro.net.adversary.
  SeededDelay`) become composite uint64 keys ``(rank bits, sender)`` —
  non-negative floats order like their bit patterns — so ties break by
  sender exactly as in the scalar path, with a stable float argsort kept
  for ranks that do not fit;
* policies with only a per-execution vector-friendly ranking
  (:meth:`~repro.net.adversary.OmissionPolicy.rank_block`) — one bulk query
  per execution per round, selected like per-execution float ranks;
* everything else falls back to per-recipient
  :meth:`~repro.net.adversary.OmissionPolicy.quorum` calls issued in the
  exact order the pure-Python engine would issue them (rounds ascending,
  recipients ascending), so stateful policies stay reproducible.

The chosen senders' values are then gathered with one flat ``take``.
Byzantine reports are stored compactly, ``(executions, recipient, slot,
*tail)`` with one slot per strategy sender — at most ``t`` of the ``n``
sender columns ever carry a report — and a block-constant route table maps
every ``(execution, recipient, sender)`` to a holder value or a report
slot, so blocks with strategies gather through one integer and one float
``take``.  The finiteness check runs on those reports: a round whose
reports are all finite skips the sample-wide scan and the kernel's, since
every value it can gather is then finite.

Byzantine value strategies must be ``stateless`` (pure functions of
``(round, recipient, observed)``); the engine evaluates them eagerly for
every recipient.  Strategies declaring a tensor program
(:meth:`~repro.net.adversary.ByzantineValueStrategy.tensor_key`) are grouped
by ``(sender, program)`` and answered with one
:meth:`~repro.net.adversary.ByzantineValueStrategy.value_tensor` call per
round per group, a vector block's coordinates folded into the rows of that
call — Byzantine and anti-convergence rounds issue **zero** per-execution
Python strategy calls (asserted by
``tests/sim/test_fault_tensor_engine.py``).  Stateful strategies and
adaptive round policies raise a documented error pointing at the
pure-Python engine, which supports both.

Results carry runtime tag ``"ndbatch"`` and the same schema as the other
engines, so the metrics, convergence-analysis and table pipelines apply
unchanged.
"""

from __future__ import annotations

import time
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.backend import ArrayNamespace, get_namespace
from repro.core.multidim import (
    VectorValidationReport,
    check_box_validity_block,
    normalize_vector_inputs,
    validate_vector_outputs,
)
from repro.core.problem import ProblemInstance, ValidationReport, validate_outputs
from repro.core.protocol import ResilienceError
from repro.core.rounds import AlgorithmBounds, approximation_step_block
from repro.core.termination import (
    RoundPolicy,
    default_round_policy,
    default_vector_round_policy,
)
from repro.net.adversary import (
    SENDER_MASK,
    DelayRankOmission,
    OmissionPolicy,
    RoundFaultModel,
    SeededOmission,
    mix64,
    round_fault_model,
    row_slabs,
    seeded_rank_key_block,
)
from repro.net.message import Message, message_bits
from repro.net.network import DelayModel, FaultPlan, NetworkStats
from repro.sim.batch import DIRECT_PROTOCOL_BOUNDS, _upfront_rounds
from repro.sim.engine import EngineCapabilityError, capable_engines
from repro.sim.planner import plan_block
from repro.sim.runner import ExecutionResult
from repro.sim.vector import VectorExecutionResult

__all__ = [
    "NDBATCH_PROTOCOLS",
    "run_ndbatch_block",
    "run_ndbatch_protocol",
    "run_vector_block",
]

#: Protocols the vectorised engine supports (the direct protocols; the
#: witness protocol's round-level form lives in the batch engine).
NDBATCH_PROTOCOL_BOUNDS = dict(DIRECT_PROTOCOL_BOUNDS)
NDBATCH_PROTOCOLS = tuple(sorted(NDBATCH_PROTOCOL_BOUNDS))

_SYNCHRONOUS = frozenset({"sync-crash", "sync-byzantine"})

#: Sentinel crash round for processes that never crash (far beyond any block).
_NEVER = np.int64(2**31)

_UINT64_MAX = np.uint64(0xFFFFFFFFFFFFFFFF)


class _Block:
    """Per-execution scenario data and array state of one ndbatch block.

    ``inputs_block`` is ``(E, n)`` for a scalar block or ``(E, n, d)`` for a
    vector block; the trailing axes are the block's ``tail``.  Scenario
    construction (fault schedules, masks, group partitions) is
    always host-side numpy; :meth:`_to_device` then moves the tensors the
    round loop touches onto the block's array namespace ``xp`` — an identity
    on the numpy float64 default, a dtype cast for float32, a host→device
    copy for GPU backends.
    """

    def __init__(
        self,
        protocol: str,
        inputs_block: Sequence[Sequence],
        t: int,
        epsilon: float,
        round_policy: Optional[RoundPolicy],
        fault_models: Sequence[RoundFaultModel],
        omission_policies: Sequence[OmissionPolicy],
        strict: bool,
        xp: Optional[ArrayNamespace] = None,
    ) -> None:
        self.xp = xp if xp is not None else get_namespace("numpy")
        self.count = len(inputs_block)
        self.n = len(inputs_block[0])
        #: Trailing value axes: ``()`` for scalar blocks, ``(d,)`` for vector blocks.
        self.tail: Tuple[int, ...] = np.shape(inputs_block[0])[1:]
        self.t = t
        self.epsilon = epsilon
        self.protocol = protocol
        self.synchronous = protocol in _SYNCHRONOUS
        self.bounds: AlgorithmBounds = NDBATCH_PROTOCOL_BOUNDS[protocol](self.n, t)
        if strict and not self.bounds.resilience_ok:
            raise ResilienceError(
                f"{self.bounds.name} does not tolerate t={t} faults with n={self.n}"
            )
        self.fault_models = list(fault_models)
        self.policies = list(omission_policies)
        n, count = self.n, self.count

        shared_rounds: Optional[int] = None
        if round_policy is not None:
            shared_rounds = _upfront_rounds(round_policy, self.bounds, epsilon)
            if shared_rounds is None:
                raise EngineCapabilityError(
                    "ndbatch",
                    f"adaptive round policies ({round_policy.describe()}: the "
                    f"engine requires a round count known upfront)",
                    ("batch", "event"),
                )

        self.problems: List[ProblemInstance] = []
        rounds: List[int] = []
        for inputs, model, policy in zip(inputs_block, self.fault_models, self.policies):
            if len(inputs) != n:
                raise ValueError("all executions in a block must share n")
            self.problems.append(
                ProblemInstance(
                    n=n,
                    t=t,
                    epsilon=epsilon,
                    inputs=list(inputs),
                    faulty=model.faulty_ids(n),
                    byzantine=model.byzantine_ids(n),
                )
            )
            if shared_rounds is not None:
                rounds.append(shared_rounds)
            else:
                rounds.append(_default_rounds(self.bounds, inputs, epsilon, self.tail))
            policy.reset()
        if len(set(rounds)) > 1:
            raise ValueError(
                f"executions in one ndbatch block must share the round count, got "
                f"{sorted(set(rounds))}; group cells by round count first "
                f"(repro.sim.sweep does this automatically)"
            )
        self.total_rounds = rounds[0] if rounds else 0

        # --- numpy scenario state --------------------------------------
        self.inputs = np.asarray(inputs_block, dtype=np.float64)
        self.crash_round = np.full((count, n), _NEVER, dtype=np.int64)
        self.crash_deliveries = np.zeros((count, n), dtype=np.int64)
        self.strategy_mask = np.zeros((count, n), dtype=bool)
        self.silent_mask = np.zeros((count, n), dtype=bool)
        self.honest_mask = np.ones((count, n), dtype=bool)
        self.strategy_ids: List[Tuple[int, ...]] = []

        starting = self.inputs.copy()
        # Strategies grouped by (sender pid, tensor program): every group is
        # answered by ONE value_tensor call per round on a representative
        # instance, with per-execution variation carried by the PRF seed
        # vector — zero per-execution Python strategy calls.  Stateless
        # strategies without a tensor form keep the per-execution
        # value_block/value path.
        strategy_groups: Dict[Tuple[int, tuple], List[int]] = {}
        self.strategy_scalar: List[Tuple[int, int, object]] = []
        for e, model in enumerate(self.fault_models):
            for pid, strategy in model.strategies.items():
                if not getattr(strategy, "stateless", False):
                    raise EngineCapabilityError(
                        "ndbatch",
                        f"stateful Byzantine value strategies "
                        f"({strategy.describe()}: strategies must be stateless "
                        f"— pure functions of round/recipient/observed)",
                        ("batch", "event"),
                    )
                if pid < n:
                    self.strategy_mask[e, pid] = True
                    key = strategy.tensor_key()
                    if key is not None:
                        strategy_groups.setdefault((pid, key), []).append(e)
                    else:
                        self.strategy_scalar.append((e, pid, strategy))
            for pid in model.silent:
                if pid < n:
                    self.silent_mask[e, pid] = True
            self.strategy_ids.append(tuple(sorted(model.strategies)))
            for pid, forged in model.corrupted_inputs.items():
                # Scalar forgeries (as in round_fault_model): a vector
                # block's forged input repeats in every coordinate.
                if pid < n:
                    starting[e, pid] = float(forged)
            for pid, (crash_round, deliveries) in model.crash_schedule.items():
                if pid < n:
                    self.crash_round[e, pid] = crash_round
                    self.crash_deliveries[e, pid] = deliveries
            for pid in self.problems[e].faulty:
                self.honest_mask[e, pid] = False
        self.holder_mask = ~self.strategy_mask & ~self.silent_mask
        # Crash schedules only apply to value holders (a Byzantine replacement
        # supersedes a crash point, as in the round_fault_model adapter).
        self.crash_round = np.where(self.holder_mask, self.crash_round, _NEVER)
        self.crash_deliveries = np.where(self.holder_mask, self.crash_deliveries, 0)
        self.values = np.where(_trailing(self.holder_mask, len(self.tail)), starting, np.nan)
        self.strategy_counts = self.strategy_mask.sum(axis=1).astype(np.int64)

        # --- compact Byzantine reports ----------------------------------
        # Reports live in an (E, n, k, *tail) tensor, k the largest number
        # of strategy senders in any execution: strategy_slot[e, s] is the
        # sender's slot (ascending pid order; -1 for non-strategy senders).
        # route[e, q, s] addresses what recipient q receives from sender s in
        # the flat gather source concat(values (E·n, *tail), reports
        # (E·n·k, *tail)): e·n + s for a holder or silent sender,
        # E·n + (e·n + q)·k + slot for a strategy sender.  Both exist only
        # for blocks with strategies.
        self.report_slots = int(self.strategy_counts.max()) if count else 0
        self.strategy_slot: Optional[np.ndarray] = None
        self.route: Optional[np.ndarray] = None
        if self.report_slots:
            k = self.report_slots
            self.strategy_slot = np.where(
                self.strategy_mask, np.cumsum(self.strategy_mask, axis=1) - 1, -1
            )
            base = np.arange(count, dtype=np.int64)[:, None, None] * n
            self.route = np.where(
                self.strategy_mask[:, None, :],
                count * n
                + (base + np.arange(n, dtype=np.int64)[None, :, None]) * k
                + self.strategy_slot[:, None, :],
                base + np.arange(n, dtype=np.int64)[None, None, :],
            )
        # One value_tensor call per group per round answers every coordinate:
        # row r·d + c of the folded query is coordinate c of member r, so
        # each member's seed repeats d times.
        fold = int(np.prod(self.tail, dtype=np.int64))
        self.strategy_tensor_groups: List[
            Tuple[object, np.ndarray, np.ndarray, np.ndarray]
        ] = [
            (
                self.fault_models[members[0]].strategies[pid],
                np.asarray(members, dtype=np.intp),
                np.repeat(
                    np.asarray(
                        [self.fault_models[e].strategies[pid].tensor_seed() for e in members],
                        dtype=np.uint64,
                    ),
                    fold,
                ),
                self.strategy_slot[members, pid],
            )
            for (pid, _key), members in strategy_groups.items()
        ]

        # --- quorum-selection mode partition ---------------------------
        # "seeded": every policy is a SeededOmission — keys computed natively
        # in numpy for the whole block.  "tensor": policies sharing a tensor
        # program (rank_tensor) — one bulk ranking per *group* per round,
        # per-execution variation carried by the PRF seed vector.  "ranked":
        # the policy answers rank_block() — one bulk float ranking per
        # execution per round.  "generic": per-recipient Python fallback, in
        # the batch engine's exact query order.
        if n > SENDER_MASK:
            raise ValueError(
                f"quorum rank keys embed the sender id in 16 bits; "
                f"n={n} processes exceed that"
            )
        self.seeded_idx: List[int] = []
        self.ranked_idx: List[int] = []
        self.generic_idx: List[int] = []
        policy_groups: Dict[tuple, List[int]] = {}
        probes: List[List[List[float]]] = []
        for e, policy in enumerate(self.policies):
            if type(policy) is SeededOmission:
                self.seeded_idx.append(e)
                continue
            key = policy.tensor_key()
            if key is not None:
                policy_groups.setdefault(key, []).append(e)
                continue
            probe = policy.rank_block(1, n)
            if probe is not None:
                self.ranked_idx.append(e)
                probes.append(probe)
            else:
                self.generic_idx.append(e)
        if self.tail and self.generic_idx:
            raise EngineCapabilityError(
                "ndbatch",
                f"per-recipient omission policies in vector blocks "
                f"({self.policies[self.generic_idx[0]].describe()} answers neither "
                f"a tensor program nor rank_block, so its quorum draws cannot be "
                f"shared across coordinates; compose coordinate-wise via "
                f"repro.sim.vector.run_vector_protocol)",
                ("event",),
            )
        self.policy_tensor_groups: List[Tuple[object, np.ndarray, np.ndarray]] = [
            (
                self.policies[members[0]],
                np.asarray(members, dtype=np.intp),
                np.asarray(
                    [self.policies[e].tensor_seed() for e in members], dtype=np.uint64
                ),
            )
            for members in policy_groups.values()
        ]
        #: Round-1 rank matrices gathered during classification, reused by
        #: the first round instead of re-querying every ranked policy.
        self.rank_probe: Optional[np.ndarray] = (
            np.array(probes, dtype=np.float64) if probes else None
        )
        self.seed_mix = np.array(
            [mix64(self.policies[e].seed) for e in self.seeded_idx], dtype=np.uint64
        ).reshape(len(self.seeded_idx))
        self._buffers: Dict[tuple, np.ndarray] = {}
        self._to_device()

    def buffer(self, name: str, shape: Tuple[int, ...], dtype) -> np.ndarray:
        """Block-owned work buffer ``name`` (contents undefined).

        Allocated on first use and reused by every later round, so the
        per-round selection and gather steps write into the same memory
        instead of allocating temporaries; it is freed with the block, i.e.
        with its execution chunk.
        """
        key = (name, shape, dtype)
        buffer = self._buffers.get(key)
        if buffer is None:
            buffer = self._buffers[key] = self.xp.empty(shape, dtype=dtype)
        return buffer

    def _to_device(self) -> None:
        """Move the round loop's tensors onto the block's array namespace.

        A no-op on the numpy float64 default (every ``xp.<op>`` below *is*
        the numpy function, so the default path stays bit-identical to the
        pre-shim engine).  float32 casts only the value state — schedules,
        masks and PRF seeds keep their exact integer dtypes, so quorum
        selection is unchanged and only value arithmetic loses precision.
        """
        xp = self.xp
        if xp.name == "numpy" and xp.dtype_name == "float64":
            return
        if self.seeded_idx or self.policy_tensor_groups or self.strategy_tensor_groups:
            xp.require_uint64("the ndbatch block's counter-based PRF tensors")
        self.values = xp.asarray(self.values, dtype=xp.float_dtype)
        if xp.name == "numpy":
            return
        # GPU backends: the mask/schedule tensors the round loop combines
        # with the value state join it on the device (host scenario data —
        # problems, strategies, group index lists — stays on the host).
        self.crash_round = xp.asarray(self.crash_round)
        self.crash_deliveries = xp.asarray(self.crash_deliveries)
        self.strategy_mask = xp.asarray(self.strategy_mask)
        self.silent_mask = xp.asarray(self.silent_mask)
        self.honest_mask = xp.asarray(self.honest_mask)
        self.holder_mask = xp.asarray(self.holder_mask)
        self.strategy_counts = xp.asarray(self.strategy_counts)
        self.seed_mix = xp.asarray(self.seed_mix)
        if self.route is not None:
            self.route = xp.asarray(self.route)
        if self.rank_probe is not None:
            self.rank_probe = xp.asarray(self.rank_probe)


def _default_rounds(
    bounds: AlgorithmBounds, inputs: Sequence, epsilon: float, tail: Tuple[int, ...]
) -> Optional[int]:
    """Round count of the default policy for one execution's inputs (a vector
    execution's count covers its ℓ∞ input spread)."""
    policy = default_vector_round_policy if tail else default_round_policy
    return _upfront_rounds(policy(bounds, inputs, epsilon), bounds, epsilon)


def _rounds_hint(
    protocol: str,
    inputs_block: Sequence[Sequence],
    t: int,
    epsilon: float,
    round_policy: Optional[RoundPolicy],
) -> int:
    """Best-effort round count for memory planning (never raises).

    Planning happens before the block is validated, so every failure here
    degrades to a one-round estimate and lets :class:`_Block` raise the
    real, documented error.
    """
    try:
        bounds = NDBATCH_PROTOCOL_BOUNDS[protocol](len(inputs_block[0]), t)
        if round_policy is not None:
            rounds = _upfront_rounds(round_policy, bounds, epsilon)
        else:
            tail = np.shape(inputs_block[0])[1:]
            rounds = _default_rounds(bounds, inputs_block[0], epsilon, tail)
        return int(rounds) if rounds else 1
    except Exception:
        return 1


def run_ndbatch_block(
    protocol: str,
    inputs_block: Sequence[Sequence[float]],
    t: int,
    epsilon: float,
    round_policy: Optional[RoundPolicy] = None,
    fault_models: Optional[Sequence[Optional[RoundFaultModel]]] = None,
    omission_policies: Optional[Sequence[Optional[OmissionPolicy]]] = None,
    seeds: Optional[Sequence[int]] = None,
    strict: bool = True,
    backend: Optional[str] = None,
    dtype: Optional[str] = None,
    budget_bytes: Optional[int] = None,
    chunk_executions: Optional[int] = None,
) -> List[ExecutionResult]:
    """Run a block of executions on the vectorised engine.

    All executions share ``(protocol, n, t, epsilon)`` and the round count
    their policies compute (heterogeneous round counts raise — group first;
    :func:`repro.sim.sweep.run_sweep` does).  Per-execution scenario data —
    inputs, fault models, omission policies — are supplied as parallel
    sequences; policies must be distinct objects per execution (they carry
    per-execution seeds/state).

    ``fault_models[e]`` defaults to no faults, ``omission_policies[e]`` to
    ``SeededOmission(seeds[e])`` (``seeds`` defaulting to all zeros), exactly
    mirroring :func:`repro.sim.batch.run_batch_protocol`, so the two engines
    realise identical scenarios for identical arguments.

    ``backend``/``dtype`` select the array namespace and float precision for
    the whole block (:func:`repro.core.backend.get_namespace`; numpy float64
    default, bit-identical to the pre-shim engine).  The block streams
    through fixed-size execution chunks sized by the memory planner
    (:func:`repro.sim.planner.plan_block`) against ``budget_bytes`` (default
    a share of available RAM), so arbitrarily large blocks run in bounded
    memory; ``chunk_executions`` overrides the planned chunk size.  Chunking
    is performance policy only — each execution's scenario is self-contained,
    so outcomes are invariant to the chunk size (guarded by
    ``tests/sim/test_planner.py``).
    """
    return _run_block(
        protocol, inputs_block, t, epsilon, round_policy, fault_models,
        omission_policies, seeds, strict, backend, dtype, budget_bytes,
        chunk_executions, vector=False,
    )


def run_vector_block(
    protocol: str,
    vector_inputs_block: Sequence[Sequence[Sequence[float]]],
    t: int,
    epsilon: float,
    round_policy: Optional[RoundPolicy] = None,
    fault_models: Optional[Sequence[Optional[RoundFaultModel]]] = None,
    omission_policies: Optional[Sequence[Optional[OmissionPolicy]]] = None,
    seeds: Optional[Sequence[int]] = None,
    strict: bool = True,
    backend: Optional[str] = None,
    dtype: Optional[str] = None,
    budget_bytes: Optional[int] = None,
    chunk_executions: Optional[int] = None,
) -> List[VectorExecutionResult]:
    """Run a block of vector-agreement executions on the vectorised engine.

    ``vector_inputs_block[e]`` is one execution's inputs: ``n`` vectors of a
    shared dimension ``d`` (ragged inputs fail loudly in
    :func:`repro.core.multidim.normalize_vector_inputs`).  All executions
    share ``(protocol, n, t, epsilon, d)`` and the round count; scenario
    arguments mirror :func:`run_ndbatch_block` exactly.

    ``d == 1`` runs the scalar block and lifts its results, so
    one-dimensional vector blocks are bit-identical to scalar ndbatch by
    construction.  ``d > 1`` runs the same round loop over an ``(E, n, d)``
    value tensor with one quorum draw per round shared by every coordinate
    (see the module docstring); with no ``round_policy`` the shared count
    covers the ℓ∞ input spread
    (:func:`repro.core.termination.default_vector_round_policy`) — pass the
    same policy to :func:`repro.sim.vector.run_vector_protocol` when
    comparing engines.  Memory planning multiplies the value-array terms by
    ``d`` (:func:`repro.sim.planner.bytes_per_execution`).
    """
    return _run_block(
        protocol, vector_inputs_block, t, epsilon, round_policy, fault_models,
        omission_policies, seeds, strict, backend, dtype, budget_bytes,
        chunk_executions, vector=True,
    )


def _run_block(
    protocol: str,
    inputs_block: Sequence[Sequence],
    t: int,
    epsilon: float,
    round_policy: Optional[RoundPolicy],
    fault_models: Optional[Sequence[Optional[RoundFaultModel]]],
    omission_policies: Optional[Sequence[Optional[OmissionPolicy]]],
    seeds: Optional[Sequence[int]],
    strict: bool,
    backend: Optional[str],
    dtype: Optional[str],
    budget_bytes: Optional[int],
    chunk_executions: Optional[int],
    vector: bool,
) -> list:
    """The body of :func:`run_ndbatch_block` and :func:`run_vector_block`:
    defaults, planning, the chunk loop and the wall-time share."""
    if protocol not in NDBATCH_PROTOCOL_BOUNDS:
        raise EngineCapabilityError(
            "ndbatch",
            f"protocol {protocol!r}",
            capable_engines({f"protocol:{protocol}"}),
        )
    count = len(inputs_block)
    if count == 0:
        return []
    dimension = 1
    if vector:
        inputs_block = [normalize_vector_inputs(inputs) for inputs in inputs_block]
        dimension = len(inputs_block[0][0])
        for vectors in inputs_block[1:]:
            if len(vectors) != len(inputs_block[0]):
                raise ValueError("all executions in a block must share n")
            if len(vectors[0]) != dimension:
                raise ValueError(
                    "all executions in a vector block must share the dimension d"
                )
        if dimension == 1:
            inputs_block = [[vector[0] for vector in vectors] for vectors in inputs_block]
    n = len(inputs_block[0])
    if fault_models is None:
        fault_models = [None] * count
    if omission_policies is None:
        omission_policies = [None] * count
    if seeds is None:
        seeds = [0] * count
    if not (len(fault_models) == len(omission_policies) == len(seeds) == count):
        name = "vector_inputs_block" if vector else "inputs_block"
        raise ValueError(f"{name}, fault_models, omission_policies and seeds "
                         f"must have equal lengths")
    models = [model if model is not None else RoundFaultModel() for model in fault_models]
    policies = [
        policy if policy is not None else SeededOmission(int(seed))
        for policy, seed in zip(omission_policies, seeds)
    ]
    xp = get_namespace(backend, dtype=dtype)

    started = time.perf_counter()
    if chunk_executions is not None:
        if chunk_executions < 1:
            raise ValueError("chunk_executions must be at least 1")
        chunk = min(count, int(chunk_executions))
    else:
        plan = plan_block(
            count,
            n,
            NDBATCH_PROTOCOL_BOUNDS[protocol](n, t).sample_size,
            _rounds_hint(protocol, inputs_block, t, epsilon, round_policy),
            dtype=xp.dtype_name,
            budget_bytes=budget_bytes,
            dimension=dimension,
        )
        chunk = plan.chunk_executions
    if chunk < count and round_policy is None:
        # The shared-round-count contract is a whole-block property; check it
        # up front so a heterogeneous block raises identically whether or not
        # the planner happened to chunk it.
        hints = {
            _rounds_hint(protocol, [inputs], t, epsilon, None) for inputs in inputs_block
        }
        if len(hints) > 1:
            raise ValueError(
                f"executions in one ndbatch block must share the round "
                f"count, got {sorted(hints)}; group cells by round count "
                f"first (repro.sim.sweep does this automatically)"
            )
    results = []
    for start in range(0, count, chunk):
        stop = min(count, start + chunk)
        block = _Block(
            protocol,
            inputs_block[start:stop],
            t,
            epsilon,
            round_policy,
            models[start:stop],
            policies[start:stop],
            strict,
            xp=xp,
        )
        results.extend(_advance_block(block))
    wall = time.perf_counter() - started
    # Wall time is observational; charge each execution its share of the block.
    share = wall / count
    for result in results:
        result.wall_time_seconds = share
    if vector and dimension == 1:
        return [_lift_scalar_result(result) for result in results]
    return results


def run_ndbatch_protocol(
    protocol: str,
    inputs: Sequence[float],
    t: int,
    epsilon: float,
    round_policy: Optional[RoundPolicy] = None,
    fault_plan: Optional[FaultPlan] = None,
    fault_model: Optional[RoundFaultModel] = None,
    omission_policy: Optional[OmissionPolicy] = None,
    delay_model: Optional[DelayModel] = None,
    seed: int = 0,
    strict: bool = True,
    backend: Optional[str] = None,
    dtype: Optional[str] = None,
) -> ExecutionResult:
    """Run one execution on the vectorised engine (a block of size one).

    Parameters mirror :func:`repro.sim.batch.run_batch_protocol` exactly
    (plus the array-backend selection of :func:`run_ndbatch_block`), so
    callers can switch engines by switching the function.
    """
    if fault_plan is not None and fault_model is not None:
        raise ValueError("pass either fault_plan or fault_model, not both")
    if omission_policy is not None and delay_model is not None:
        raise ValueError("pass either omission_policy or delay_model, not both")
    if fault_model is None:
        fault_model = round_fault_model(fault_plan, len(inputs))
    if omission_policy is None and delay_model is not None:
        omission_policy = DelayRankOmission(delay_model)
    return run_ndbatch_block(
        protocol,
        [list(inputs)],
        t,
        epsilon,
        round_policy=round_policy,
        fault_models=[fault_model],
        omission_policies=[omission_policy],
        seeds=[seed],
        strict=strict,
        backend=backend,
        dtype=dtype,
    )[0]


# ----------------------------------------------------------------------
# The vectorised round loop
# ----------------------------------------------------------------------


def _trailing(array, axes: int):
    """``array`` with ``axes`` trailing length-1 axes, so a per-process mask
    broadcasts over the value tail (``array`` itself when ``axes == 0``)."""
    return array[(Ellipsis,) + (None,) * axes] if axes else array


def _advance_block(block: _Block) -> list:
    """The round loop over the block's ``(E, n, *tail)`` value state.

    Only the value state, samples and injected reports carry the tail — the
    send/update/candidate structure, quorum selection and cost accounting
    are shared across coordinates.
    """
    count, n, m = block.count, block.n, block.bounds.sample_size
    total_rounds = block.total_rounds
    xp = block.xp
    arange_n = xp.arange(n)
    axes = len(block.tail)
    # The multiset axis of the (E, n, m, *tail) sample.
    axis = -1 - axes

    active = xp.ones(count, dtype=bool)
    rounds_completed = xp.zeros(count, dtype=xp.int64)
    messages_sent = xp.zeros(count, dtype=xp.int64)
    bits_sent = xp.zeros(count, dtype=xp.int64)
    delivered = xp.zeros(count, dtype=xp.int64)
    rounds_entered = xp.zeros(count, dtype=xp.int64)
    holder_sends = xp.zeros((count, n), dtype=xp.int64)
    history = [xp.copy(block.values)]
    silent = bool(block.silent_mask.any())

    # The crash model's send/update/candidate structure changes only while a
    # crash point lies ahead; past the last scheduled crash it is identical
    # every round, so it is computed once and reused.
    scheduled = xp.where(block.crash_round < _NEVER, block.crash_round, 0)
    last_crash_round = int(scheduled.max()) if count else 0
    static_structure = None

    for round_number in range(1, total_rounds + 1):
        if not active.any():
            break
        value_bits = message_bits(Message(kind="VALUE", round=round_number, value=0.0))

        if static_structure is not None:
            sends, updates, cand, blocked, cand_count, round_sends = static_structure
        else:
            # Who sends, who updates (the crash model's prefix semantics).
            before_crash = round_number < block.crash_round
            sends = xp.where(
                block.holder_mask & before_crash,
                n,
                xp.where(
                    block.holder_mask & (round_number == block.crash_round),
                    block.crash_deliveries,
                    0,
                ),
            )
            updates = block.holder_mask & before_crash
            # Candidate tensor: cand[e, recipient, sender].
            cand = block.strategy_mask[:, None, :] | (
                block.holder_mask[:, None, :]
                & (arange_n[None, :, None] < sends[:, None, :])
            )
            cand &= ~block.silent_mask[:, None, :]
            cand_count = cand.sum(axis=2)
            blocked = None if bool((cand_count == n).all()) else ~cand
            round_sends = sends.sum(axis=1) + n * block.strategy_counts
            if round_number > last_crash_round:
                static_structure = (sends, updates, cand, blocked, cand_count, round_sends)

        # Message accounting happens at round entry, exactly like the batch
        # engine (a round that fails liveness mid-way keeps its sends).
        messages_sent += xp.where(active, round_sends, 0)
        bits_sent += xp.where(active, round_sends * value_bits, 0)
        holder_sends += sends * active[:, None]
        rounds_entered += active

        # Full-information adversary: strategies observe every holder value
        # at round entry.
        injected, finite = None, True
        if block.route is not None:
            injected, finite = _injected_values(block, round_number)

        if block.synchronous:
            sample = _sync_samples(block, cand, injected)
            failed_round = xp.zeros(count, dtype=bool)
            round_delivered = xp.where(active, updates.sum(axis=1) * n, 0)
        else:
            sample, failed_round, round_delivered = _async_samples(
                block, cand, blocked, cand_count, injected, finite, updates,
                active, round_number, m,
            )
        delivered += round_delivered

        apply_mask = updates & active[:, None] & ~failed_round[:, None]
        if finite and not silent and not failed_round.any():
            # Every applied row gathers only holder values and finite
            # reports (crash-only blocks: holder values alone), so the
            # placeholder fill and the kernel's finiteness scan are provably
            # redundant; the where on apply_mask drops every other row.
            new_values = approximation_step_block(
                sample, block.bounds, validate=False, xp=xp, axis=axis
            )
        else:
            safe_sample = xp.where(
                _trailing(apply_mask, 1 + axes),
                sample,
                xp.zeros((1,) * sample.ndim, dtype=xp.float_dtype),
            )
            new_values = approximation_step_block(
                safe_sample, block.bounds, xp=xp, axis=axis
            )
        block.values = xp.where(_trailing(apply_mask, axes), new_values, block.values)
        history.append(xp.copy(block.values))

        completed_now = active & ~failed_round
        rounds_completed = xp.where(completed_now, round_number, rounds_completed)
        active = completed_now

    return _assemble_results(
        block,
        history,
        active,
        rounds_completed,
        messages_sent,
        bits_sent,
        delivered,
        rounds_entered,
        holder_sends,
    )


def _injected_values(block: _Block, round_number: int) -> Tuple[np.ndarray, bool]:
    """This round's gather source and whether every strategy report is finite.

    Reports are stored compactly as ``reports[e, recipient, slot, *tail]``,
    one slot per strategy sender of the execution (:class:`_Block`), and
    returned appended to the flattened value state: the flat source
    ``concat(values (E·n, *tail), reports (E·n·k, *tail))`` that
    ``block.route`` indexes, so one ``take`` gathers holder values and
    reports alike.

    Tensor-programmed strategies (:meth:`~repro.net.adversary.
    ByzantineValueStrategy.value_tensor`) answer whole ``(pid, program)``
    groups with one Python call per round — zero per-execution strategy
    calls.  A vector block folds its coordinates into the rows of that call:
    row ``r·d + c`` observes coordinate ``c`` of member ``r``'s holder
    values under ``r``'s seed, which is what the coordinate-wise
    composition evaluates (it reuses one strategy instance across its ``d``
    scalar executions) because a ``value_tensor`` row depends only on its
    own observations and seed.  Stateless strategies without a tensor form
    keep the per-execution ``value_block``/``value`` path, issued in the
    batch engine's order; only stateless strategies reach this point, so
    eager evaluation for every recipient is indistinguishable from the batch
    engine's lazy evaluation.

    The finiteness check runs on the reports alone.  When one is non-finite,
    every non-finite report is stored as NaN, which the sampling paths treat
    as an omission (mirroring the message boundary of the protocol
    skeletons).
    """
    count, n, tail = block.count, block.n, block.tail
    xp = block.xp
    reports = np.full((count, n, block.report_slots) + tail, np.nan, dtype=np.float64)
    # Full-information adversary: each execution observes its holder values
    # (NaN at non-holder slots), folded to folded[e, c, :] per coordinate.
    folded = xp.where(_trailing(block.holder_mask, len(tail)), block.values, xp.nan)
    folded = xp.moveaxis(folded, 1, -1).reshape(count, -1, n)
    for representative, rows, seeds, slots in block.strategy_tensor_groups:
        answer = representative.value_tensor(
            round_number, n, folded[rows].reshape(-1, n), seeds
        )
        if answer is None:
            raise ValueError(
                f"strategy {representative.describe()} declares tensor program "
                f"{representative.tensor_key()!r} but value_tensor returned None"
            )
        answer = np.asarray(xp.to_numpy(answer), dtype=np.float64)
        reports[rows, :, slots] = np.moveaxis(answer.reshape((-1,) + tail + (n,)), -1, 1)
    # One index per coordinate: () for a scalar block, (c,) for a vector one.
    coordinates = list(np.ndindex(tail))
    observed_lists: Dict[Tuple[int, tuple], List[float]] = {}
    for e, sender, strategy in block.strategy_scalar:
        slot = block.strategy_slot[e, sender]
        for c in coordinates:
            observed = observed_lists.get((e, c))
            if observed is None:
                row = np.asarray(
                    xp.to_numpy(block.values[e][(Ellipsis,) + c]), dtype=np.float64
                )
                mask = np.asarray(xp.to_numpy(block.holder_mask[e]))
                observed = np.sort(row[mask]).tolist()
                observed_lists[(e, c)] = observed
            answer = strategy.value_block(round_number, n, observed)
            if answer is not None:
                reports[(e, slice(None), slot) + c] = np.asarray(answer, dtype=np.float64)
                continue
            for recipient in range(n):
                value = strategy.value(round_number, recipient, observed)
                if isinstance(value, (int, float)):
                    reports[(e, recipient, slot) + c] = float(value)
    reports = xp.asarray(reports, dtype=xp.float_dtype)
    finite = bool(xp.isfinite(reports).all())
    if not finite:
        # Normalise ±inf to NaN so one mask covers every non-finite report.
        reports = xp.where(xp.isfinite(reports), reports, xp.nan)
    values = block.values.reshape((count * n,) + tail)
    source = xp.concatenate([values, reports.reshape((-1,) + tail)])
    return source, finite


def _sync_samples(
    block: _Block, cand: np.ndarray, injected: Optional[np.ndarray]
) -> np.ndarray:
    """Size-``n`` synchronous samples with own-value substitution.

    With strategy reports, one ``take`` of the flat source through
    ``block.route`` yields what every sender offers every recipient, and
    one ``where`` keeps the candidates' finite offers.  A non-finite report
    thus degrades to an omission per coordinate (the recipient keeps its own
    value in that coordinate), matching the composition, where each
    coordinate's execution drops the report independently.
    """
    xp = block.xp
    axes = len(block.tail)
    own = block.values[:, :, None]  # (E, recipient, 1, *tail)
    if injected is None:
        holder_values = block.values[:, None, :]  # (E, 1, sender, *tail)
        use_holder = _trailing(cand & block.holder_mask[:, None, :], axes)
        return xp.where(use_holder, holder_values, own)
    full = xp.take(injected, block.route, axis=0)  # (E, recipient, sender, *tail)
    return xp.where(_trailing(cand, axes) & xp.isfinite(full), full, own)


def _async_samples(
    block: _Block,
    cand: np.ndarray,
    blocked: Optional[np.ndarray],
    cand_count: np.ndarray,
    injected: Optional[np.ndarray],
    finite: bool,
    updates: np.ndarray,
    active: np.ndarray,
    round_number: int,
    m: int,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Quorum samples ``(E, n, m, *tail)``, liveness failures, delivery counts.

    Reproduces the batch engine's per-recipient behaviour: the omission
    policy picks ``m`` candidates, non-finite Byzantine reports degrade to
    omissions and the quorum refills from the remaining candidates in
    ascending sender order, and a recipient that cannot fill its quorum fails
    the execution at that recipient (earlier recipients' deliveries stand).
    Quorum selection is value-independent, so ONE :func:`_choose_quorums`
    call serves every coordinate, and starvation fails identically in all
    of them.  A refill is not: in a vector block it would let quorums
    diverge between coordinates, so such scenarios raise and route to the
    coordinate-wise composition.

    ``injected`` is the round's gather source (:func:`_injected_values`),
    ``None`` without strategies; ``finite`` says every report in it is
    finite, in which case no sample can hold a non-finite value and the
    sample-wide finiteness scan is skipped.
    """
    count, n = block.count, block.n
    xp = block.xp
    chosen = _choose_quorums(
        block, cand, blocked, cand_count, updates, active, round_number, m
    )
    sample = _gather_samples(block, chosen, injected)

    # Liveness / refill bookkeeping.  In-model scenarios never enter either
    # branch: the candidate set always has >= m members and only Byzantine
    # strategies can inject non-finite values (so crash-only blocks and
    # rounds whose reports are all finite skip the finiteness scan).
    relevant = updates & active[:, None]
    starving = relevant & (cand_count < m)
    if not finite:
        usable = xp.isfinite(sample)
        if block.tail:
            usable = usable.all(axis=-1)
        short = relevant & (usable.sum(axis=2) < m) & ~starving
    else:
        short = xp.zeros_like(starving)
    failed_at = xp.full(count, n, dtype=xp.int64)
    if short.any():
        if block.tail:
            raise EngineCapabilityError(
                "ndbatch",
                "non-finite Byzantine reports in vector blocks (a dropped "
                "report refills its quorum slot per coordinate, which the "
                "shared-quorum tensor path cannot represent; compose "
                "coordinate-wise via repro.sim.vector.run_vector_protocol)",
                ("event",),
            )
        failed_at = _refill_or_fail(
            block, cand, chosen, sample, starving, short, round_number, m
        )
    elif starving.any():
        failed_at = xp.where(starving, xp.arange(n)[None, :], n).min(axis=1)
    failed_round = failed_at < n

    quorums_filled = xp.where(
        failed_round[:, None],
        (xp.arange(n)[None, :] < failed_at[:, None]) & relevant,
        relevant,
    ).sum(axis=1)
    round_delivered = quorums_filled * m
    return sample, failed_round, round_delivered


def _gather_samples(
    block: _Block, chosen: np.ndarray, injected: Optional[np.ndarray]
) -> np.ndarray:
    """The chosen senders' values: ``(E, n, m)``, or ``(E, n, m, d)`` for
    an ``(E, n, d)`` value state.

    Without strategies (``injected is None``) the gather is one flat
    ``take``: ``e * n + sender`` addresses the flattened ``(E * n[, d])``
    value state.  With them, one integer ``take`` looks the chosen senders
    up in ``block.route`` (``route[e, q, sender]`` sits at
    ``(e * n + q) * n + sender`` of the flattened table) and one float
    ``take`` reads the flat source of :func:`_injected_values`, holder
    values and compact reports alike.
    """
    count, n = block.count, block.n
    xp = block.xp
    flat = block.buffer("gather.flat", chosen.shape, xp.int64)
    if injected is not None:
        rows = xp.arange(count * n, dtype=xp.int64).reshape(count, n, 1) * n
        xp.add(chosen, rows, out=flat)
        return xp.take(injected, xp.take(block.route.reshape(-1), flat), axis=0)
    values = block.values
    tail = tuple(values.shape[2:])
    xp.add(chosen, (xp.arange(count, dtype=xp.int64) * n)[:, None, None], out=flat)
    return xp.take(values.reshape((count * n,) + tail), flat, axis=0)


def _choose_quorums(
    block: _Block,
    cand: np.ndarray,
    blocked: Optional[np.ndarray],
    cand_count: np.ndarray,
    updates: np.ndarray,
    active: np.ndarray,
    round_number: int,
    m: int,
) -> np.ndarray:
    """Quorum index tensor ``chosen[e, recipient, :m]`` for one round.

    ``blocked`` is ``~cand``, or ``None`` when every sender is a candidate
    of every recipient.  Each selection mode writes its executions' rows;
    a mode covering the whole block writes ``chosen`` directly.
    """
    count, n = block.count, block.n
    xp = block.xp
    if block.generic_idx:
        # The per-recipient fallback leaves skipped rows untouched; start
        # them from a valid index.
        chosen = xp.zeros((count, n, m), dtype=xp.int64)
    else:
        chosen = block.buffer("chosen", (count, n, m), xp.int64)

    def output(members, name):
        """Where a mode writes its rows: ``chosen`` itself if it has them all."""
        if len(members) == count:
            return chosen
        return block.buffer(name, (len(members), n, m), xp.int64)

    def sub_blocked(members):
        if blocked is None or len(members) == count:
            return blocked
        return blocked[members]

    if block.seeded_idx:
        idx = block.seeded_idx
        shape = (len(idx), n, n)
        keys = seeded_rank_key_block(
            block.seed_mix,
            round_number,
            n,
            out=block.buffer("seeded.keys", shape, xp.uint64),
            scratch=block.buffer("seeded.scratch", shape, xp.uint64),
        )
        # Keys embed the sender id in their low bits, so sorting the key
        # values and masking those bits out yields the chosen senders
        # directly: exactly the scalar engine's (PRF value, sender) order.
        out = output(idx, "seeded.chosen")
        _select_by_keys(xp, keys, sub_blocked(idx), m, n, SENDER_MASK, out)
        if out is not chosen:
            chosen[idx] = out

    for g, (representative, members, seeds) in enumerate(block.policy_tensor_groups):
        shape = (len(members), n, n)
        scratch = block.buffer(f"tensor.scratch.{g}", shape, xp.uint64)
        ranks = representative.rank_tensor(
            round_number,
            n,
            seeds,
            out=block.buffer(f"tensor.ranks.{g}", shape, xp.uint64),
            scratch=scratch,
        )
        if ranks is None:
            # Same contract as the strategy path: a non-None tensor_key is a
            # promise to answer (silently proceeding would turn the default
            # None into NaN ranks and pick wrong quorums).
            raise ValueError(
                f"omission policy {representative.describe()} declares tensor "
                f"program {representative.tensor_key()!r} but rank_tensor "
                f"returned None"
            )
        ranks = xp.asarray(ranks)
        out = output(members, f"tensor.chosen.{g}")
        sub = sub_blocked(members)
        if getattr(ranks, "strides", (None,))[0] == 0:
            # A deterministic program: one n × n matrix shared by every
            # execution, ordered once for the whole group.
            _select_shared_order(xp, ranks[0], sub, m, n, out)
        elif getattr(ranks.dtype, "kind", "f") in "iu":
            # Integer ranks are tie-free PRF keys: mask non-candidates with
            # the maximal key, then a stable argsort is selection.
            masked = ranks if sub is None else xp.where(sub, xp.iinfo(ranks.dtype).max, ranks)
            out[...] = xp.argsort(masked, axis=2, kind="stable")[:, :, :m]
        else:
            _select_float_ranks(xp, ranks, sub, m, n, scratch, out)
        if out is not chosen:
            chosen[members] = out

    if block.ranked_idx:
        idx = block.ranked_idx
        if round_number == 1 and block.rank_probe is not None:
            ranks = block.rank_probe
            block.rank_probe = None
        else:
            ranks = xp.asarray(
                np.array(
                    [block.policies[e].rank_block(round_number, n) for e in idx],
                    dtype=np.float64,
                )
            )
        out = output(idx, "ranked.chosen")
        scratch = block.buffer("ranked.scratch", (len(idx), n, n), xp.uint64)
        _select_float_ranks(xp, ranks, sub_blocked(idx), m, n, scratch, out)
        if out is not chosen:
            chosen[idx] = out

    for e in block.generic_idx:
        if not active[e]:
            continue
        policy = block.policies[e]
        trusted = type(policy) is DelayRankOmission
        for recipient in range(n):
            if not updates[e, recipient] or cand_count[e, recipient] < m:
                continue
            candidates = np.nonzero(np.asarray(xp.to_numpy(cand[e, recipient])))[0].tolist()
            picked = list(policy.quorum(round_number, recipient, candidates, m))
            if not trusted:
                picked_set = set(picked)
                if len(picked) != m or len(picked_set) != m:
                    raise ValueError(
                        f"omission policy {policy.describe()} returned {len(picked)} "
                        f"senders, expected {m} distinct"
                    )
                if not picked_set <= set(candidates):
                    raise ValueError(
                        f"omission policy {policy.describe()} chose senders outside "
                        "the candidate set"
                    )
            chosen[e, recipient, :] = picked
    return chosen


def _sender_bits(n: int) -> int:
    """Low bits that hold a sender id ``< n`` in a composite sort key."""
    return max(1, (n - 1).bit_length())


def _select_by_keys(xp, keys, blocked, m: int, n: int, sender_mask: int, out) -> None:
    """Quorum selection over composite keys, in place.

    ``keys[e, recipient, sender]`` are distinct uint64 sort keys that carry
    the sender id in the bits of ``sender_mask`` and order as
    ``(rank, sender)``.  Non-candidates are overwritten with the maximal
    key, every row is sorted in place and the first ``m`` keys' low bits
    are written to ``out`` (``(E, n, m)`` int64).  Rows run slab by slab
    so mask, sort and extract stay in cache.  Starving rows (fewer
    candidates than ``m``) pick up the sentinel's low bits; they are
    clamped so the gather stays in bounds, and fail their execution before
    their samples are ever used.
    """
    low_bits = xp.uint64(sender_mask)
    for rows in row_slabs(len(keys), n * n):
        slab = keys[rows]
        if blocked is not None:
            xp.copyto(slab, _UINT64_MAX, where=blocked[rows])
        slab.sort(axis=2)
        xp.bitwise_and(slab[:, :, :m], low_bits, out=out[rows], casting="unsafe")
    if blocked is not None and sender_mask >= n:
        xp.minimum(out, n - 1, out=out)


#: Bit pattern of +inf: a float64 whose bits lie below it is finite and
#: non-negative (and not -0.0), so its bits order exactly like its value.
_FINITE_BITS = 0x7FF0000000000000


def _select_float_ranks(xp, ranks, blocked, m: int, n: int, scratch, out) -> None:
    """Per-execution float ranks, selected by ``(rank, sender)``.

    Non-negative finite float64 values order exactly like their bit
    patterns, so a slab whose bit range leaves :func:`_sender_bits` spare
    bits becomes composite uint64 keys ``(bits − min) << b | sender`` in
    ``scratch`` and is selected by one integer sort (:func:`_select_by_keys`)
    — ties break by sender exactly as the scalar path's sorted tuples do.
    Other slabs (negative, infinite or too widely spread ranks) keep the
    stable float argsort, NaN marking non-candidates (numpy sorts NaN after
    every number including +inf).
    """
    ranks = ranks.astype(np.float64, copy=False)
    bits = ranks.view(xp.uint64)
    sender_bits = _sender_bits(n)
    limit = (1 << (64 - sender_bits)) - 1
    senders = xp.arange(n, dtype=xp.uint64)
    shift = xp.uint64(sender_bits)
    for rows in row_slabs(len(ranks), n * n):
        slab_bits = bits[rows]
        low, high = int(slab_bits.min()), int(slab_bits.max())
        slab_blocked = None if blocked is None else blocked[rows]
        if high < _FINITE_BITS and high - low < limit:
            keys = scratch[rows]
            xp.subtract(slab_bits, xp.uint64(low), out=keys)
            xp.left_shift(keys, shift, out=keys)
            xp.bitwise_or(keys, senders, out=keys)
            _select_by_keys(
                xp, keys, slab_blocked, m, n, (1 << sender_bits) - 1, out[rows]
            )
        else:
            masked = ranks[rows]
            if slab_blocked is not None:
                masked = xp.where(slab_blocked, xp.nan, masked)
            out[rows] = xp.argsort(masked, axis=2, kind="stable")[:, :, :m]


def _select_shared_order(xp, matrix, blocked, m: int, n: int, out) -> None:
    """Selection for a rank matrix every execution of a group shares.

    The matrix is ordered once with a stable sort — the recipients' sender
    orders by ``(rank, sender)``.  With every sender a candidate, each
    execution takes that order directly.  Otherwise each execution applies
    its candidate mask through a small-integer sort of
    ``position << b | sender`` keys, which keeps the shared order among the
    candidates.
    """
    order = xp.argsort(matrix, axis=1, kind="stable")
    if blocked is None:
        out[...] = order[None, :, :m]
        return
    sender_bits = _sender_bits(n)
    width = n << sender_bits
    dtype = xp.int16 if width < 2**15 else xp.int32 if width < 2**31 else xp.int64
    position = xp.argsort(order, axis=1)
    shared = ((position << sender_bits) | xp.arange(n)).astype(dtype)
    sentinel = xp.iinfo(dtype).max
    keys = xp.where(blocked, dtype(sentinel), shared[None, :, :])
    keys.sort(axis=2)
    xp.bitwise_and(keys[:, :, :m], (1 << sender_bits) - 1, out=out, casting="unsafe")
    xp.minimum(out, n - 1, out=out)


def _refill_or_fail(
    block: _Block,
    cand: np.ndarray,
    chosen: np.ndarray,
    sample: np.ndarray,
    starving: np.ndarray,
    short: np.ndarray,
    round_number: int,
    m: int,
) -> np.ndarray:
    """Handle quorum starvation and non-finite-report refills (rare paths).

    Mutates ``sample`` in place for refilled quorums and returns, per
    execution, the first recipient at which the quorum could not be filled
    (``n`` when every quorum filled).  Matches the batch engine: a dropped
    non-finite report refills from the not-chosen candidates in ascending
    sender order; starvation fails the execution at that recipient.
    """
    count, n = block.count, block.n
    failed_at = np.full(count, n, dtype=np.int64)
    for e in range(count):
        for recipient in range(n):
            if starving[e, recipient]:
                failed_at[e] = recipient
                break
            if not short[e, recipient]:
                continue
            quorum = chosen[e, recipient]
            collected = [
                float(sample[e, recipient, i])
                for i in range(m)
                if np.isfinite(sample[e, recipient, i])
            ]
            chosen_set = set(int(s) for s in quorum)
            refill_ok = True
            for sender in np.nonzero(cand[e, recipient])[0]:
                if len(collected) >= m:
                    break
                sender = int(sender)
                if sender in chosen_set:
                    continue
                value = _late_sender_value(block, e, sender, recipient, round_number)
                if value is not None:
                    collected.append(value)
            if len(collected) < m:
                failed_at[e] = recipient
                refill_ok = False
            if not refill_ok:
                break
            sample[e, recipient, :] = collected
    return failed_at


def _late_sender_value(
    block: _Block, e: int, sender: int, recipient: int, round_number: int
) -> Optional[float]:
    """Value a late (not-chosen) candidate contributes during a refill."""
    if block.strategy_mask[e, sender]:
        strategy = block.fault_models[e].strategies[sender]
        observed = np.sort(block.values[e][block.holder_mask[e]]).tolist()
        value = strategy.value(round_number, recipient, observed)
        if not isinstance(value, (int, float)) or not np.isfinite(value):
            return None
        return float(value)
    return float(block.values[e, sender])


# ----------------------------------------------------------------------
# Result assembly
# ----------------------------------------------------------------------


def _assemble_results(
    block: _Block,
    history: List[np.ndarray],
    active: np.ndarray,
    rounds_completed: np.ndarray,
    messages_sent: np.ndarray,
    bits_sent: np.ndarray,
    delivered: np.ndarray,
    rounds_entered: np.ndarray,
    holder_sends: np.ndarray,
) -> list:
    count, n, tail = block.count, block.n, block.tail
    axes = len(tail)
    xp = block.xp
    if not (xp.name == "numpy" and xp.dtype_name == "float64"):
        # Result assembly is host-side: per-execution Python objects are
        # built from host float64 data regardless of where (and at what
        # precision) the block ran.
        history = [np.asarray(xp.to_numpy(row), dtype=np.float64) for row in history]
        block.values = np.asarray(xp.to_numpy(block.values), dtype=np.float64)
        block.honest_mask = np.asarray(xp.to_numpy(block.honest_mask))
        active = np.asarray(xp.to_numpy(active))
        rounds_completed = np.asarray(xp.to_numpy(rounds_completed))
        messages_sent = np.asarray(xp.to_numpy(messages_sent))
        bits_sent = np.asarray(xp.to_numpy(bits_sent))
        delivered = np.asarray(xp.to_numpy(delivered))
        rounds_entered = np.asarray(xp.to_numpy(rounds_entered))
        holder_sends = np.asarray(xp.to_numpy(holder_sends))
    stacked = np.stack(history)  # (rounds + 1, E, n, *tail)

    # Spread trajectories of every execution at once: diameter of the honest
    # values after each round (faulty columns masked out of max/min) —
    # maximised over coordinates, the ℓ∞ diameter, in a vector block.
    honest = _trailing(block.honest_mask, axes)
    diameters = (
        np.where(honest[None], stacked, -np.inf).max(axis=2)
        - np.where(honest[None], stacked, np.inf).min(axis=2)
    )
    if tail:
        diameters = diameters.max(axis=-1)
    traj_all = diameters.T  # (E, rounds + 1)

    # Whole-block fast path of the shared checkers (validate_outputs /
    # validate_vector_outputs) for the common all-correct case; executions
    # failing any check fall back to the checker so reports (violation
    # strings included) stay identical.
    eps_ok_bound = block.epsilon * (1.0 + 1e-9)
    output_spread = traj_all[np.arange(count), rounds_completed]
    agreement_ok = output_spread <= eps_ok_bound
    byz_mask = np.zeros((count, n), dtype=bool)
    for e, problem in enumerate(block.problems):
        for pid in problem.byzantine:
            byz_mask[e, pid] = True
    validity_ref = np.where(_trailing(byz_mask, axes), np.nan, block.inputs)
    lo = np.nanmin(validity_ref, axis=1)  # (E, *tail)
    hi = np.nanmax(validity_ref, axis=1)
    # Validity concerns the honest outputs only; park non-honest columns on
    # the box floor so one whole-block check covers every execution.
    values_checked = np.where(honest, block.values, lo[:, None])
    validity_ok = check_box_validity_block(
        values_checked.reshape(count, n, -1),
        lo.reshape(count, -1),
        hi.reshape(count, -1),
    )
    fast_ok = active & agreement_ok & validity_ok

    if tail:
        # Per-coordinate costs are the shared counts, so an execution's costs
        # are those counts times d — exactly the coordinate-wise
        # composition's totals.
        messages_sent, bits_sent, delivered, rounds_entered, holder_sends = (
            tail[0] * counts
            for counts in (messages_sent, bits_sent, delivered, rounds_entered, holder_sends)
        )

    # Bulk conversions to Python scalars up front: element-wise numpy reads
    # inside the per-execution loop would dominate large blocks.
    values_rows = block.values.tolist()
    traj_rows = traj_all.tolist()
    spread_list = output_spread.tolist()
    completed_list = rounds_completed.tolist()
    messages_list = messages_sent.tolist()
    bits_list = bits_sent.tolist()
    delivered_list = delivered.tolist()
    entered_list = rounds_entered.tolist()
    holder_sends_rows = holder_sends.tolist()
    if not tail:
        hist_t = np.ascontiguousarray(stacked.transpose(1, 2, 0))  # (E, n, rounds + 1)

    results = []
    for e in range(count):
        problem = block.problems[e]
        decided = bool(active[e])
        completed = completed_list[e]
        honest_ids = problem.honest
        values_row = values_rows[e]
        trajectory = traj_rows[e][: 1 + completed]

        stats = NetworkStats()
        stats.messages_sent = messages_list[e]
        stats.bits_sent = bits_list[e]
        stats.messages_delivered = delivered_list[e]
        if stats.messages_sent:
            stats.messages_by_kind["VALUE"] = stats.messages_sent
        sends_row = holder_sends_rows[e]
        strategy_ids = block.strategy_ids[e]
        for pid in range(n):
            sent = sends_row[pid]
            if pid in strategy_ids:
                sent = n * entered_list[e]
            if sent:
                stats.sends_by_process[pid] = sent

        if tail:
            outputs = {
                pid: (tuple(values_row[pid]) if decided else None) for pid in honest_ids
            }
            if fast_ok[e]:
                report = VectorValidationReport(
                    all_decided=True,
                    linf_agreement=True,
                    box_validity=True,
                    max_linf_distance=spread_list[e],
                    outputs=dict(outputs),
                )
            else:
                byzantine = set(problem.byzantine)
                reference = [
                    problem.inputs[pid] for pid in range(n) if pid not in byzantine
                ]
                report = validate_vector_outputs(
                    outputs, reference, block.epsilon, expected_pids=honest_ids
                )
            results.append(
                VectorExecutionResult(
                    protocol=block.protocol,
                    dimension=tail[0],
                    report=report,
                    outputs=outputs,
                    coordinate_results=[],
                    runtime="ndbatch",
                    stats=stats,
                    trajectory=tuple(trajectory),
                    rounds=completed,
                )
            )
            continue

        outputs = {pid: (values_row[pid] if decided else None) for pid in honest_ids}
        if fast_ok[e]:
            report = ValidationReport(
                all_decided=True,
                epsilon_agreement=True,
                validity=True,
                output_spread=spread_list[e],
                outputs=dict(outputs),
            )
        else:
            report = validate_outputs(problem, outputs)
        rows = hist_t[e].tolist()
        # Honest processes never crash, so their histories never truncate.
        value_histories = {pid: rows[pid][: 1 + completed] for pid in honest_ids}
        results.append(
            ExecutionResult(
                protocol=block.protocol,
                runtime="ndbatch",
                problem=problem,
                report=report,
                outputs=outputs,
                stats=stats,
                rounds_used=completed,
                trajectory=trajectory,
                value_histories=value_histories,
                events_executed=0,
                wall_time_seconds=0.0,
            )
        )
    return results


def _lift_scalar_result(result: ExecutionResult) -> VectorExecutionResult:
    """Lift a scalar :class:`ExecutionResult` to a 1-dimensional vector result.

    The scalar execution IS the d=1 vector execution (scalar ε-agreement is
    ℓ∞ ε-agreement in R¹, interval validity is box validity), so the report
    translates field-by-field and the scalar result rides along as the one
    coordinate result — d=1 vector blocks stay bit-identical to scalar
    ndbatch by construction.
    """
    outputs = {
        pid: ((value,) if value is not None else None)
        for pid, value in result.outputs.items()
    }
    report = VectorValidationReport(
        all_decided=result.report.all_decided,
        linf_agreement=result.report.epsilon_agreement,
        box_validity=result.report.validity,
        max_linf_distance=result.report.output_spread,
        outputs={pid: vector for pid, vector in outputs.items() if vector is not None},
        violations=list(result.report.violations),
    )
    return VectorExecutionResult(
        protocol=result.protocol,
        dimension=1,
        report=report,
        outputs=outputs,
        coordinate_results=[result],
        runtime="ndbatch",
        stats=result.stats,
        trajectory=tuple(result.trajectory),
        rounds=result.rounds_used,
        wall_time_seconds=result.wall_time_seconds,
    )
