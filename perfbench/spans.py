"""Outside-in span recorder for the benchmark's traced run.

The program carries no instrumentation of its own.  :func:`instrument`
wraps each layer's public functions at the name their caller looks up —
a module global bound with ``from … import``, a class attribute, or a
registry dict entry — records one span per call, and restores the
originals when the returned callable runs.  Untraced runs never install it.

Spans stay in memory.  A layer's *self* time is its spans' durations minus
the part their child spans cover, so the self times of all layers sum to
the traced wall (the duration of the root spans the benchmark opens).
"""

from __future__ import annotations

import functools
import json
import os
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Callable, Dict, Iterator, List, NamedTuple, Optional


class Span(NamedTuple):
    name: str
    start: float
    end: float
    #: Index of the enclosing span in the recorder's list, -1 for a root.
    parent: int


class SpanRecorder:
    """Records nested spans and per-layer counters in memory."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self._clock = clock
        #: ``(index, name, start)`` of every span still open, innermost last.
        self._stack: List[tuple] = []
        self.spans: List[Optional[Span]] = []
        self.counters: Dict[str, float] = defaultdict(float)

    def open(self, name: str) -> int:
        index = len(self.spans)
        self.spans.append(None)  # filled in by close(), in opening order
        self._stack.append((index, name, self._clock()))
        return index

    def close(self, index: int) -> None:
        end = self._clock()
        opened, name, start = self._stack.pop()
        if opened != index:
            raise RuntimeError("spans must close in the reverse order they opened")
        parent = self._stack[-1][0] if self._stack else -1
        self.spans[index] = Span(name, start, end, parent)
        self.counters[f"{name}.calls"] += 1

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        index = self.open(name)
        try:
            yield
        finally:
            self.close(index)

    def wrap(self, name: str, function: Callable, count: Optional[Callable] = None):
        """``function`` recording a ``name`` span per call.

        ``count(counters, args, kwargs, result)`` adds the layer's work
        counts after each call.
        """
        recorder = self

        @functools.wraps(function)
        def traced(*args, **kwargs):
            index = recorder.open(name)
            try:
                result = function(*args, **kwargs)
            finally:
                recorder.close(index)
            if count is not None:
                count(recorder.counters, args, kwargs, result)
            return result

        return traced

    def write(self, path: str) -> None:
        """Write every span, one JSON line each, to the sidecar ``path``."""
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(span._asdict()) + "\n")


def self_times(spans: List[Span]) -> Dict[str, float]:
    """Total self time per span name.

    Children of one span run one after another inside it, so the part of
    its interval they cover is the sum of their durations.
    """
    covered = [0.0] * len(spans)
    for span in spans:
        if span.parent >= 0:
            covered[span.parent] += span.end - span.start
    totals: Dict[str, float] = defaultdict(float)
    for span, children in zip(spans, covered):
        totals[span.name] += (span.end - span.start) - children
    return dict(totals)


def root_wall(spans: List[Span]) -> float:
    """Summed duration of the root spans: the traced wall."""
    return sum(span.end - span.start for span in spans if span.parent < 0)


# ----------------------------------------------------------------------
# Layer wiring
# ----------------------------------------------------------------------


def _size(array) -> int:
    size = 1
    for extent in getattr(array, "shape", ()):
        size *= int(extent)
    return size


def _count_prf(counters, args, kwargs, result) -> None:
    counters["adversary.prf.bytes"] += _size(result) * 8


def _count_kernel(counters, args, kwargs, result) -> None:
    counters["rounds.kernel.elements"] += _size(args[0])


def _count_plan(counters, args, kwargs, result) -> None:
    counters["planner.plans"] += 1
    counters["planner.chunk_executions.total"] += result.chunk_executions


def _count_block(counters, args, kwargs, result) -> None:
    counters["ndbatch.executions"] += len(result)


def _count_scan(counters, args, kwargs, result) -> None:
    counters["job.scan.bytes"] += os.path.getsize(args[0])


def _materialised_cells(cells_method):
    # SweepSpec.cells is a generator; consuming it inside the span charges
    # grid expansion to the grid layer rather than to whoever iterates it.
    def cells(self):
        return iter(list(cells_method(self)))

    return functools.wraps(cells_method)(cells)


def instrument(recorder: SpanRecorder) -> Callable[[], None]:
    """Wrap every traced layer; return the callable that restores them."""
    from repro.net import adversary
    from repro.sim import job, ndbatch, planner, sweep

    saved: List[tuple] = []

    def patch(owner, attribute, name, count=None, wrapper=None):
        is_dict = isinstance(owner, dict)
        original = owner[attribute] if is_dict else owner.__dict__[attribute]
        traced = recorder.wrap(name, wrapper(original) if wrapper else original, count)
        saved.append((owner, attribute, original, is_dict))
        if is_dict:
            owner[attribute] = traced
        else:
            setattr(owner, attribute, traced)

    patch(sweep.SweepSpec, "cells", "sweep.grid", wrapper=_materialised_cells)
    patch(sweep, "build_adversary_bundle", "sweep.bundle")
    patch(sweep, "round_fault_model", "sweep.bundle")
    for registry in (sweep.WORKLOAD_SPECS, sweep.VECTOR_WORKLOAD_SPECS):
        for workload in list(registry):
            patch(registry, workload, "workloads")
    patch(sweep, "run_ndbatch_block", "ndbatch.block", _count_block)
    patch(sweep, "run_vector_block", "ndbatch.vector", _count_block)
    patch(sweep, "run_on_engine", "engine.run")
    patch(ndbatch, "plan_block", "planner", _count_plan)
    patch(planner, "pack_dispatch_groups", "planner")
    patch(ndbatch, "approximation_step_block", "rounds.kernel", _count_kernel)
    # ndbatch binds the PRF by name; SeededOmission (the batch engine's key
    # cache and rank_tensor) looks it up in the adversary module.
    patch(ndbatch, "seeded_rank_key_block", "adversary.prf", _count_prf)
    patch(adversary, "seeded_rank_key_block", "adversary.prf", _count_prf)
    for value in list(vars(adversary).values()):
        if isinstance(value, type):
            if issubclass(value, adversary.OmissionPolicy) and "rank_tensor" in vars(value):
                patch(value, "rank_tensor", "adversary.rank_tensor")
            if (
                issubclass(value, adversary.ByzantineValueStrategy)
                and "value_tensor" in vars(value)
            ):
                patch(value, "value_tensor", "adversary.value_tensor")
    patch(job, "cell_id", "job.cell_id")
    patch(job, "scan_sweep_store", "job.scan", _count_scan)
    patch(job.SweepJob, "fold", "job.fold")

    def restore() -> None:
        for owner, attribute, original, is_dict in reversed(saved):
            if is_dict:
                owner[attribute] = original
            else:
                setattr(owner, attribute, original)

    return restore
