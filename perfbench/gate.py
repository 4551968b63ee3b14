"""The benchmark's correctness gate.

Every cell a run sweeps is checked, and every failure counts in the
``failed`` figure the run reports:

- an in-model cell (the adversary fits the protocol's fault model and
  ``(n, t)`` meets its resilience bound) must be ``ok`` and must respect the
  per-round contraction bound;
- a cell that raised or is missing from the result counts as failed;
- a seeded subsample is re-run on ``engine="batch"``, the exact oracle:
  rounds, messages and bits must match exactly and the output spread to
  within :data:`SPREAD_TOLERANCE`;
- a no-op resume must leave a job store byte-identical, and ``fold()`` must
  total the grid's cell count.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence

#: Largest output-spread difference accepted between an engine and the oracle.
SPREAD_TOLERANCE = 1e-9

#: Adversaries whose crash-faulty processes keep sending after round 1.  The
#: contraction bound governs the diameter of *all* live values, so the
#: honest-only trajectory that ``bound_respected`` measures may contract more
#: slowly when a straggler's wider value re-enters a quorum; the repository's
#: own large-grid sweep test asserts the bound only where every circulating
#: value is honest.  Such cells must still be ``ok``.
MID_RUN_CRASH_ADVERSARIES = frozenset({"crash-staggered"})


def in_model(cell) -> bool:
    """Whether the protocol's guarantees cover this cell."""
    from repro.sim.sweep import PROTOCOL_BOUNDS, adversary_fits_protocol

    bounds = PROTOCOL_BOUNDS[cell.protocol](cell.n, cell.t)
    return bounds.resilience_ok and adversary_fits_protocol(cell.adversary, cell.protocol)


def outcome_failure(outcome) -> Optional[str]:
    """Why one outcome fails the gate, or ``None`` when it passes."""
    cell = outcome.cell
    if not in_model(cell):
        return None
    reasons = []
    if not outcome.ok:
        reasons.append(f"not ok ({'; '.join(outcome.violations)})")
    if not outcome.bound_respected and cell.adversary not in MID_RUN_CRASH_ADVERSARIES:
        reasons.append(
            f"contraction bound broken (worst {outcome.worst_contraction} "
            f"> {outcome.theoretical_contraction})"
        )
    return f"{cell}: {', '.join(reasons)}" if reasons else None


def sweep_failures(cells: Sequence, outcomes: Sequence) -> List[str]:
    """Check a sweep's outcomes against the cells it was asked to run.

    ``outcomes`` is in grid order with ``None`` (or a short list) where a
    cell is missing.
    """
    failures = []
    for index, cell in enumerate(cells):
        outcome = outcomes[index] if index < len(outcomes) else None
        if outcome is None:
            failures.append(f"missing {cell}")
        elif outcome.cell != cell:
            failures.append(f"out of order: expected {cell}, got {outcome.cell}")
        else:
            failure = outcome_failure(outcome)
            if failure is not None:
                failures.append(failure)
    if len(outcomes) > len(cells):
        failures.append(f"{len(outcomes) - len(cells)} unexpected extra outcomes")
    return failures


def oracle_mismatch(outcome, reference) -> Optional[str]:
    """How an outcome differs from the oracle's, or ``None`` if it agrees."""
    for name in ("rounds", "messages", "bits"):
        if getattr(outcome, name) != getattr(reference, name):
            return (
                f"oracle mismatch {outcome.cell}: {name} "
                f"{getattr(outcome, name)} != {getattr(reference, name)}"
            )
    spread, expected = outcome.output_spread, reference.output_spread
    if math.isnan(spread) and math.isnan(expected):
        return None
    if not abs(spread - expected) <= SPREAD_TOLERANCE:
        return f"oracle mismatch {outcome.cell}: output_spread {spread} != {expected}"
    return None


def oracle_sample(outcomes: Sequence, size: int, seed: int) -> List:
    """The seeded subsample of outcomes to re-run on the oracle."""
    rng = random.Random(f"oracle:{seed}")
    return rng.sample(list(outcomes), min(size, len(outcomes)))


def oracle_failures(sample: Sequence, run_reference: Callable) -> List[str]:
    """Re-run each sampled cell with ``run_reference`` and compare."""
    failures = []
    for outcome in sample:
        mismatch = oracle_mismatch(outcome, run_reference(outcome.cell))
        if mismatch is not None:
            failures.append(mismatch)
    return failures


def resume_failure(before: bytes, after: bytes, executed: int) -> Optional[str]:
    """How a no-op resume of a complete store went wrong, if it did."""
    if executed:
        return f"no-op resume executed {executed} cells"
    if before != after:
        return "no-op resume changed the store bytes"
    return None


def fold_failure(folded: int, expected: int) -> Optional[str]:
    """How ``fold()`` over a complete store went wrong, if it did."""
    if folded != expected:
        return f"fold() totals {folded} outcomes, grid has {expected}"
    return None


@dataclass
class Tally:
    """Operations attempted and failed over one benchmark run."""

    attempted: int = 0
    failed: int = 0
    #: The first failure messages, for the run's standard error.
    examples: List[str] = field(default_factory=list)

    def record(self, attempted: int, failures: Sequence[Optional[str]]) -> None:
        failures = [failure for failure in failures if failure is not None]
        self.attempted += attempted
        self.failed += len(failures)
        self.examples.extend(failures[: max(0, 10 - len(self.examples))])
