"""Tests for the benchmark itself: span arithmetic, the gate, metric names."""

from __future__ import annotations

import dataclasses
import json
import os
import re

import pytest

import clock
import gate
import grids
import run
from spans import Span, SpanRecorder, root_wall, self_times

HERE = os.path.dirname(os.path.abspath(__file__))

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


class FakeClock:
    def __init__(self, ticks):
        self.ticks = iter(ticks)

    def __call__(self):
        return next(self.ticks)


class TestSelfTimes:
    def test_nested_spans(self):
        # root [0, 10] holds a [1, 4] (which holds b [2, 3]) and b [5, 9].
        spans = [
            Span("root", 0.0, 10.0, -1),
            Span("a", 1.0, 4.0, 0),
            Span("b", 2.0, 3.0, 1),
            Span("b", 5.0, 9.0, 0),
        ]
        assert self_times(spans) == {"root": 3.0, "a": 2.0, "b": 5.0}
        assert sum(self_times(spans).values()) == root_wall(spans) == 10.0

    def test_recorder_links_children_to_the_open_span(self):
        recorder = SpanRecorder(clock=FakeClock([0.0, 1.0, 2.0, 4.0, 7.0, 8.0]))
        inner = recorder.wrap("inner", lambda: "x")
        with recorder.span("outer"):
            assert inner() == "x"
            assert inner() == "x"
        assert recorder.spans == [
            Span("outer", 0.0, 8.0, -1),
            Span("inner", 1.0, 2.0, 0),
            Span("inner", 4.0, 7.0, 0),
        ]
        assert self_times(recorder.spans) == {"outer": 4.0, "inner": 4.0}
        assert recorder.counters["inner.calls"] == 2

    def test_span_closes_when_the_wrapped_call_raises(self):
        recorder = SpanRecorder(clock=FakeClock([0.0, 1.0]))

        def fail():
            raise ValueError("boom")

        with pytest.raises(ValueError):
            recorder.wrap("failing", fail)()
        assert recorder.spans == [Span("failing", 0.0, 1.0, -1)]


class TestScaledClock:
    def test_wall_time_is_scaled_by_the_bracketing_reference(self):
        # References of 2x and 4x the nominal time around a 3 s call: the
        # host ran at a third of the reference speed, so the call scales to 1 s.
        references = iter([2 * clock.REFERENCE_S, 4 * clock.REFERENCE_S])
        timer = clock.ScaledClock(
            clock=FakeClock([9.0, 10.0, 13.0, 14.0]),
            reference=lambda: next(references),
            window_s=0.0,
        )
        assert timer.measure(lambda: "result", "call") == (3.0, "result")
        assert timer.walls("call") == [3.0]
        assert timer.scaled("call") == [pytest.approx(1.0)]
        assert timer.scales() == [pytest.approx(1 / 3)]

    def test_scale_is_the_median_of_nearby_references(self):
        # Two calls 1 s apart; a disturbed pass (10x) after the second call
        # is outvoted by the three normal ones within the window.
        references = iter([1, 1, 1, 10])
        timer = clock.ScaledClock(
            clock=FakeClock([0.0, 0.1, 0.2, 0.3, 1.0, 1.1, 1.2, 1.3]),
            reference=lambda: clock.REFERENCE_S * next(references),
            window_s=2.0,
        )
        for _ in range(2):
            timer.measure(lambda: None, "call")
        assert timer.scaled("call") == [pytest.approx(0.1), pytest.approx(0.1)]

    def test_reference_pass_is_timed(self):
        assert clock.ReferencePass()() > 0.0


@pytest.fixture(scope="module")
def outcome():
    from repro.sim.sweep import SweepCell, run_cell

    cell = SweepCell(
        protocol="async-crash", n=7, t=2, epsilon=1e-2, adversary="none",
        workload="uniform", seed=3, engine="batch",
    )
    return run_cell(cell)


class TestGate:
    def test_clean_outcome_passes(self, outcome):
        assert gate.outcome_failure(outcome) is None
        assert gate.sweep_failures([outcome.cell], [outcome]) == []
        assert gate.oracle_mismatch(outcome, outcome) is None

    def test_perturbed_costs_disagree_with_the_oracle(self, outcome):
        for name in ("rounds", "messages", "bits"):
            perturbed = dataclasses.replace(outcome, **{name: getattr(outcome, name) + 1})
            assert gate.oracle_failures([perturbed], lambda cell: outcome)
        drifted = dataclasses.replace(outcome, output_spread=outcome.output_spread + 1e-6)
        assert gate.oracle_mismatch(drifted, outcome) is not None
        close = dataclasses.replace(outcome, output_spread=outcome.output_spread + 1e-12)
        assert gate.oracle_mismatch(close, outcome) is None

    def test_broken_verdicts_fail(self, outcome):
        assert gate.outcome_failure(dataclasses.replace(outcome, ok=False))
        assert gate.outcome_failure(dataclasses.replace(outcome, bound_respected=False))

    def test_mid_run_crashes_still_need_ok(self, outcome):
        cell = dataclasses.replace(outcome.cell, adversary="crash-staggered")
        straggler = dataclasses.replace(outcome, cell=cell, bound_respected=False)
        assert gate.outcome_failure(straggler) is None
        assert gate.outcome_failure(dataclasses.replace(straggler, ok=False))

    def test_missing_and_misplaced_cells_fail(self, outcome):
        other = dataclasses.replace(outcome.cell, seed=outcome.cell.seed + 1)
        assert gate.sweep_failures([outcome.cell, other], [outcome, None]) == [
            f"missing {other}"
        ]
        assert gate.sweep_failures([other], [outcome])

    def test_store_checks(self):
        assert gate.resume_failure(b"a\n", b"a\n", 0) is None
        assert gate.resume_failure(b"a\n", b"a\nb\n", 0)
        assert gate.resume_failure(b"a\n", b"a\n", 1)
        assert gate.fold_failure(5, 5) is None
        assert gate.fold_failure(4, 5)

    def test_tally_counts_only_failures(self):
        tally = gate.Tally()
        tally.record(3, [None, "x"])
        assert (tally.attempted, tally.failed, tally.examples) == (3, 1, ["x"])


class TestMetricNames:
    def test_names_and_units_are_well_formed(self):
        names = list(run.END_TO_END) + list(run.PER_LAYER) + list(grids.WORKLOADS)
        assert len(names) == len(set(names))
        for name in names:
            assert NAME.fullmatch(name), name
        for unit in list(run.END_TO_END.values()) + list(run.PER_LAYER.values()):
            assert UNIT.fullmatch(unit), unit

    def test_benchmark_file_matches_the_code(self):
        with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as handle:
            benchmark = json.load(handle)
        assert [w["name"] for w in benchmark["workloads"]] == list(grids.WORKLOADS)
        assert {m["name"]: m["unit"] for m in benchmark["end_to_end"]} == run.END_TO_END
        assert {m["name"]: m["unit"] for m in benchmark["per_layer"]} == run.PER_LAYER

    def test_contract_matches_the_code(self):
        with open(run.CONTRACT_PATH) as handle:
            contract = json.load(handle)
        assert contract["workloads"] == {
            name: workload.describe() for name, workload in grids.WORKLOADS.items()
        }
        assert contract["end_to_end"] == run.END_TO_END
        assert contract["per_layer"] == run.PER_LAYER
        assert contract["timing"] == run.TIMING
        mapped = [name for layer in run.LAYER_MAPPING.values() for name in layer["metrics"]]
        assert sorted(mapped) == sorted(run.PER_LAYER)
