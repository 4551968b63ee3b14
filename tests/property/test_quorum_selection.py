"""Property tests: the ndbatch quorum-selection kernels against a stable sort.

The reference for every selection path is the scalar engines' rule: each
recipient's quorum is the ``m`` candidates with the smallest
``(rank, sender)`` pairs — a stable argsort of the ranks with
non-candidates sorted last.  The integer-sort routes (composite keys for
per-execution float ranks, one shared order for a broadcast rank matrix)
must reproduce it exactly, ties included.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

np = pytest.importorskip("numpy", reason="the vectorised engine requires numpy")

from repro.core.backend import get_namespace  # noqa: E402
from repro.sim.ndbatch import _select_float_ranks, _select_shared_order  # noqa: E402

XP = get_namespace("numpy")

#: Rank pools: few distinct values force ties; the others exercise the
#: fallback (negative, infinite, -0.0, widely spread values).
RANK_POOLS = {
    "tied": [0.5, 1.0, 1.0 + 2**-52, 2.0],
    "all-equal": [1.25],
    "fallback": [-1.0, -0.0, 0.0, 3.0, float("inf"), 1e300, 5e-324],
}


@st.composite
def selection_cases(draw):
    count = draw(st.integers(min_value=1, max_value=4))
    n = draw(st.integers(min_value=1, max_value=9))
    m = draw(st.integers(min_value=1, max_value=n))
    pool = RANK_POOLS[draw(st.sampled_from(sorted(RANK_POOLS)))]
    ranks = np.array(
        draw(st.lists(st.sampled_from(pool), min_size=count * n * n, max_size=count * n * n)),
        dtype=np.float64,
    ).reshape(count, n, n)
    # Every row keeps at least m candidates (starving rows fail their
    # execution before their samples are read, so only in-model rows count).
    blocked = np.zeros((count, n, n), dtype=bool)
    if draw(st.booleans()):
        for e in range(count):
            for q in range(n):
                drop = draw(st.integers(min_value=0, max_value=n - m))
                senders = draw(st.permutations(range(n)))[:drop]
                blocked[e, q, list(senders)] = True
    return ranks, blocked, m


def reference(ranks, blocked, m):
    masked = np.where(blocked, np.nan, ranks)
    return np.argsort(masked, axis=2, kind="stable")[:, :, :m]


class TestSelectionMatchesStableSort:
    @given(case=selection_cases())
    @settings(max_examples=150, deadline=None)
    def test_per_execution_float_ranks(self, case):
        ranks, blocked, m = case
        count, n, _ = ranks.shape
        out = np.full((count, n, m), -1, dtype=np.int64)
        scratch = np.zeros((count, n, n), dtype=np.uint64)
        _select_float_ranks(XP, ranks, blocked if blocked.any() else None, m, n, scratch, out)
        assert np.array_equal(out, reference(ranks, blocked, m))

    @given(case=selection_cases())
    @settings(max_examples=150, deadline=None)
    def test_shared_broadcast_order(self, case):
        ranks, blocked, m = case
        count, n, _ = ranks.shape
        shared = np.broadcast_to(ranks[0], ranks.shape)
        out = np.full((count, n, m), -1, dtype=np.int64)
        _select_shared_order(XP, shared[0], blocked if blocked.any() else None, m, n, out)
        assert np.array_equal(out, reference(shared, blocked, m))
