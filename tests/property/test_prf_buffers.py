"""Property tests: PRF tensors computed in place inside reused buffers.

The vectorised engine hands :func:`~repro.net.adversary.seeded_rank_key_block`
and :meth:`~repro.net.adversary.SeededDelay.delay_tensor` block-owned
``out``/``scratch`` buffers and reuses them every round.  Whatever a buffer
held before — another round's keys, another seed block's delays, garbage —
the result must equal the scalar PRF bit for bit and a fresh evaluation.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

np = pytest.importorskip("numpy", reason="the PRF tensors require numpy")

from repro.net import adversary  # noqa: E402
from repro.net.adversary import (  # noqa: E402
    SeededDelay,
    mix64,
    seeded_rank_key,
    seeded_rank_key_block,
)
from repro.net.message import Message  # noqa: E402

seeds = st.integers(min_value=0, max_value=2**64 - 1)
rounds = st.integers(min_value=0, max_value=2**40)
#: Slab sizes: the default, and tiny ones that split even small blocks
#: into many slabs (every slab must see the same buffers' right rows).
slabs = st.sampled_from([adversary.SLAB_ELEMENTS, 1, 7, 64])


@st.composite
def reuse_plans(draw):
    """A block shape and a sequence of (seed vector, round) evaluations."""
    count = draw(st.integers(min_value=1, max_value=5))
    n = draw(st.integers(min_value=1, max_value=9))
    steps = draw(
        st.lists(
            st.tuples(st.lists(seeds, min_size=count, max_size=count), rounds),
            min_size=2,
            max_size=4,
        )
    )
    return count, n, steps


def dirty_buffers(shape, garbage: int):
    rng = np.random.default_rng(garbage)
    return (
        rng.integers(0, 2**63, size=shape, dtype=np.uint64),
        rng.integers(0, 2**63, size=shape, dtype=np.uint64),
    )


class TestRankKeysInReusedBuffers:
    @given(plan=reuse_plans(), slab=slabs, garbage=st.integers(0, 2**16))
    @settings(max_examples=60, deadline=None)
    def test_equal_to_scalar_and_fresh_keys(self, plan, slab, garbage):
        count, n, steps = plan
        out, scratch = dirty_buffers((count, n, n), garbage)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(adversary, "SLAB_ELEMENTS", slab)
            for seed_list, round_number in steps:
                mixed = [mix64(seed) for seed in seed_list]
                seed_mix = np.asarray(mixed, dtype=np.uint64)
                keys = seeded_rank_key_block(
                    seed_mix, round_number, n, out=out, scratch=scratch
                )
                assert keys is out
                fresh = seeded_rank_key_block(seed_mix, round_number, n)
                assert np.array_equal(keys, fresh)
                expected = [
                    [
                        [seeded_rank_key(seed, round_number, q, s) for s in range(n)]
                        for q in range(n)
                    ]
                    for seed in mixed
                ]
                assert keys.tolist() == expected

    def test_rejects_misshaped_buffers(self):
        seed_mix = np.zeros(3, dtype=np.uint64)
        with pytest.raises(ValueError, match="shape"):
            seeded_rank_key_block(seed_mix, 1, 4, out=np.empty((3, 4, 5), np.uint64))
        with pytest.raises(ValueError, match="8-byte"):
            seeded_rank_key_block(seed_mix, 1, 4, scratch=np.empty((3, 4, 4), np.uint32))


class TestSeededDelaysInReusedBuffers:
    @given(
        plan=reuse_plans(),
        slab=slabs,
        garbage=st.integers(0, 2**16),
        low=st.floats(min_value=1e-3, max_value=10.0),
        width=st.sampled_from([0.0, 1e-9, 0.5, 3.0]),
    )
    @settings(max_examples=60, deadline=None)
    def test_equal_to_scalar_and_fresh_delays(self, plan, slab, garbage, low, width):
        count, n, steps = plan
        out, scratch = dirty_buffers((count, n, n), garbage)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(adversary, "SLAB_ELEMENTS", slab)
            for seed_list, round_number in steps:
                models = [SeededDelay(low, low + width, seed=seed) for seed in seed_list]
                seed_mix = np.asarray([m.tensor_seed() for m in models], dtype=np.uint64)
                delays = models[0].delay_tensor(
                    round_number, n, seed_mix, out=out, scratch=scratch
                )
                assert delays.dtype == np.float64
                assert np.shares_memory(delays, out)
                fresh = models[0].delay_tensor(round_number, n, seed_mix)
                assert np.array_equal(delays.view(np.uint64), fresh.view(np.uint64))
                probe = Message(kind="VALUE", round=round_number, value=0.0)
                expected = [
                    [
                        [model.delay(s, q, probe, float(round_number)) for s in range(n)]
                        for q in range(n)
                    ]
                    for model in models
                ]
                assert delays.tolist() == expected  # bit-identical floats
