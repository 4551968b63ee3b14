"""Per-coordinate oracle for the ``(executions, n, d)`` vector block.

A vector block and ``d`` scalar blocks are the same computation: the round
loop runs over a value state of shape ``(E, n, *tail)``, with ``tail == ()``
for scalar blocks and ``(d,)`` for vector blocks, and everything structural
(crash schedules, quorum selection, Byzantine membership) is
value-independent.  So a d-dimensional :func:`run_vector_block` must equal
``d`` separate :func:`run_ndbatch_block` runs, one per coordinate, with the
same seeds, policies and round count:

* every honest output is **bit-equal** to the coordinate's scalar output;
* every cost (messages, bits, deliveries, per-process sends) is exactly
  ``d ×`` the scalar cost, and the round count is the scalar one.

The two scenarios the shared quorum draw cannot represent at ``d > 1`` —
non-finite Byzantine reports (per-coordinate quorum refill) and per-recipient
omission policies — raise :class:`~repro.sim.engine.EngineCapabilityError`
pointing at the coordinate-wise composition, while ``d == 1`` vector blocks
still run both as scalar (empty-tail) blocks.
"""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings, strategies as st

np = pytest.importorskip("numpy")

from repro.core.termination import FixedRounds  # noqa: E402
from repro.net.adversary import (  # noqa: E402
    DelayRankOmission,
    FixedValueStrategy,
    RoundFaultModel,
    SeededOmission,
    round_fault_model,
)
from repro.net.network import UniformRandomDelay  # noqa: E402
from repro.sim.engine import EngineCapabilityError  # noqa: E402
from repro.sim.ndbatch import (  # noqa: E402
    run_ndbatch_block,
    run_ndbatch_protocol,
    run_vector_block,
)
from repro.sim.sweep import ADVERSARY_SPECS  # noqa: E402

EPSILON = 1e-3

#: (protocol, n, t, adversary): every fault family the tensor path serves.
FAMILIES = [
    ("async-crash", 7, 2, "none"),
    ("async-crash", 7, 2, "crash-staggered"),
    ("async-crash", 7, 2, "staggered"),
    ("async-crash", 7, 2, "random-delays"),
    ("async-byzantine", 11, 2, "byz-random"),
    ("async-byzantine", 11, 2, "byz-anti"),
    ("async-byzantine", 11, 2, "found-anti-stagger"),
    ("sync-byzantine", 7, 2, "byz-equivocate"),
]


def _scenario(protocol, n, t, adversary, seeds):
    """Fresh fault models and omission policies, built as the sweep builds
    them (policies carry per-execution state, so every run gets its own)."""
    models, policies = [], []
    for seed in seeds:
        bundle = ADVERSARY_SPECS[adversary](protocol, n, t, seed)
        models.append(round_fault_model(bundle.fault_plan, n))
        policies.append(
            DelayRankOmission(bundle.delay_model)
            if bundle.delay_model is not None
            else SeededOmission(seed)
        )
    return models, policies


finite_values = st.floats(
    min_value=-100.0, max_value=100.0, allow_nan=False, allow_infinity=False
)


@st.composite
def vector_blocks(draw, n):
    dimension = draw(st.sampled_from([2, 3]))
    executions = draw(st.integers(min_value=1, max_value=5))
    inputs_block = [
        [[draw(finite_values) for _ in range(dimension)] for _ in range(n)]
        for _ in range(executions)
    ]
    seeds = [draw(st.integers(min_value=0, max_value=2**31)) for _ in range(executions)]
    rounds = draw(st.integers(min_value=1, max_value=4))
    chunk = draw(st.sampled_from([None, 1, 2]))
    return inputs_block, seeds, rounds, chunk


@pytest.mark.parametrize("dtype", ["float64", "float32"])
@pytest.mark.parametrize(
    "family", FAMILIES, ids=[f"{protocol}-{adversary}" for protocol, _, _, adversary in FAMILIES]
)
@settings(max_examples=12, deadline=None)
@given(data=st.data())
def test_vector_block_equals_per_coordinate_scalar_blocks(family, dtype, data):
    protocol, n, t, adversary = family
    inputs_block, seeds, rounds, chunk = data.draw(vector_blocks(n))
    dimension = len(inputs_block[0][0])
    models, policies = _scenario(protocol, n, t, adversary, seeds)
    vector = run_vector_block(
        protocol, inputs_block, t=t, epsilon=EPSILON,
        round_policy=FixedRounds(rounds), fault_models=models,
        omission_policies=policies, seeds=seeds, dtype=dtype,
        chunk_executions=chunk,
    )
    for c in range(dimension):
        models, policies = _scenario(protocol, n, t, adversary, seeds)
        scalar = run_ndbatch_block(
            protocol, [[point[c] for point in inputs] for inputs in inputs_block],
            t=t, epsilon=EPSILON, round_policy=FixedRounds(rounds),
            fault_models=models, omission_policies=policies, seeds=seeds,
            dtype=dtype, chunk_executions=chunk,
        )
        assert len(scalar) == len(vector)
        for v, s in zip(vector, scalar):
            assert v.dimension == dimension
            assert v.rounds_used == s.rounds_used
            assert set(v.outputs) == set(s.outputs)
            for pid, output in s.outputs.items():
                if output is None:
                    assert v.outputs[pid] is None
                else:
                    # Bit-identical, not approximately equal.
                    assert v.outputs[pid][c] == output
            assert v.stats.messages_sent == dimension * s.stats.messages_sent
            assert v.stats.bits_sent == dimension * s.stats.bits_sent
            assert v.stats.messages_delivered == dimension * s.stats.messages_delivered
            assert v.stats.sends_by_process == {
                pid: dimension * sent for pid, sent in s.stats.sends_by_process.items()
            }


# ----------------------------------------------------------------------
# The two scenarios a shared quorum draw cannot represent
# ----------------------------------------------------------------------


def _nan_reports(n):
    """A Byzantine sender whose every report is NaN (dropped on receipt)."""
    return RoundFaultModel(strategies={n - 1: FixedValueStrategy(math.nan)})


class TestVectorCapabilityErrors:
    N, T, ROUNDS = 6, 1, 10
    INPUTS = [0.1, 0.9, 0.4, 0.3, 0.7, 0.2]

    def vectors(self, dimension):
        return [[x + 0.5 * c for c in range(dimension)] for x in self.INPUTS]

    def test_non_finite_reports_raise_above_d1(self):
        with pytest.raises(EngineCapabilityError, match="run_vector_protocol"):
            run_vector_block(
                "async-byzantine", [self.vectors(2)], t=self.T, epsilon=EPSILON,
                round_policy=FixedRounds(self.ROUNDS), fault_models=[_nan_reports(self.N)],
                seeds=[5],
            )

    def test_per_recipient_policies_raise_above_d1(self):
        with pytest.raises(EngineCapabilityError, match="run_vector_protocol"):
            run_vector_block(
                "async-crash", [self.vectors(2)], t=self.T, epsilon=EPSILON,
                round_policy=FixedRounds(self.ROUNDS),
                omission_policies=[DelayRankOmission(UniformRandomDelay(seed=4))],
            )

    def test_d1_non_finite_reports_refill_like_the_scalar_engine(self):
        [vector] = run_vector_block(
            "async-byzantine", [self.vectors(1)], t=self.T, epsilon=EPSILON,
            round_policy=FixedRounds(self.ROUNDS), fault_models=[_nan_reports(self.N)],
            seeds=[5],
        )
        scalar = run_ndbatch_protocol(
            "async-byzantine", self.INPUTS, t=self.T, epsilon=EPSILON,
            round_policy=FixedRounds(self.ROUNDS), fault_model=_nan_reports(self.N), seed=5,
        )
        self.assert_lifted(vector, scalar)

    def test_d1_per_recipient_policies_run_the_generic_fallback(self):
        [vector] = run_vector_block(
            "async-crash", [self.vectors(1)], t=self.T, epsilon=EPSILON,
            round_policy=FixedRounds(self.ROUNDS),
            omission_policies=[DelayRankOmission(UniformRandomDelay(seed=4))],
        )
        scalar = run_ndbatch_protocol(
            "async-crash", self.INPUTS, t=self.T, epsilon=EPSILON,
            round_policy=FixedRounds(self.ROUNDS), delay_model=UniformRandomDelay(seed=4),
        )
        self.assert_lifted(vector, scalar)

    def assert_lifted(self, vector, scalar):
        assert scalar.ok and vector.ok
        assert vector.dimension == 1
        assert vector.rounds_used == scalar.rounds_used == self.ROUNDS
        assert vector.stats.messages_sent == scalar.stats.messages_sent
        assert vector.stats.messages_delivered == scalar.stats.messages_delivered
        assert vector.outputs == {
            pid: (output,) for pid, output in scalar.outputs.items()
        }
