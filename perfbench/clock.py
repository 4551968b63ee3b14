"""Timers for the benchmark's end-to-end metrics, scaled to a fixed host speed.

The benchmark runs on shared virtual machines whose CPU speed drifts while a
run lasts: when other tenants load the physical cores under its vCPUs, the
same call takes up to ~1.5x (pure-Python job-store work up to ~1.8x) longer,
in spells of a fraction of a second to minutes.  Raw wall times then
measure the neighbours as much as the program.

:class:`ScaledClock` brackets every timed call with a fixed :class:`ReferencePass`
— a pure-Python loop, JSON decoding with SHA-256 hashing, and a numpy sort,
the kinds of work the program does — and scales the call's wall time by
``REFERENCE_S`` over the median time of the passes around it.  A slower host
lengthens the call and the reference alike, so the scaled time stays put; a
slower program lengthens only the call, so the scaled time grows with its
wall time.  The reference pass is benchmark code and no change to the
program moves it.

Scaling by the two bracketing passes alone works for short calls, but a
sweep of a second or more spans several speed spells, and one disturbed
7 ms pass (a pool's workers still exiting, say) skews it; the median of
every pass within ``WINDOW_S`` of the call steadies both.  Over ten runs
per workload on the host named below, the spread of each end-to-end rate
(quartile distance over median) was up to 0.49 in wall-clock seconds and
under 0.1 scaled.
"""

from __future__ import annotations

import gc
import hashlib
import json
import statistics
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional, Tuple

#: Median time of a :class:`ReferencePass` on the host the benchmark was
#: written on (2-vCPU KVM guest on an Intel Xeon Sapphire Rapids, CPython
#: 3.11, numpy 2.4).  Scaled times are wall times on a host that runs the
#: reference pass in exactly this long.
REFERENCE_S = 0.007

#: Reference passes within this many seconds of a call count towards its scale.
WINDOW_S = 1.0

#: Iterations of the reference pass's pure-Python loop.
_LOOP = 40000
#: Outcome-shaped JSON lines the reference pass decodes and hashes.
_LINES = 300


class ReferencePass:
    """A fixed pass of program-like work; calling it returns its wall seconds."""

    def __init__(self) -> None:
        import numpy as np

        self._np = np
        record = {
            "cell": {"protocol": "async-crash", "n": 16, "t": 5, "epsilon": 0.001,
                     "adversary": "none", "workload": "uniform", "seed": 0,
                     "engine": "ndbatch"},
            "ok": True, "all_decided": True, "rounds": 7, "messages": 1792,
            "bits": 134144, "output_spread": 2.9396132726178248e-05,
            "theoretical_contraction": 0.3333333333333333,
            "worst_contraction": 0.3333333333333333,
            "mean_contraction": 0.22797863533000548, "bound_respected": True,
            "violations": [], "engine_used": "ndbatch", "demoted_from": "",
        }
        self._lines = []
        for seed in range(_LINES):
            record["cell"]["seed"] = 1000000000 + seed
            self._lines.append(json.dumps(record))
        self._text = "\n".join(self._lines).encode()
        self._values = np.random.default_rng(0).random((128, 31, 31))

    def __call__(self) -> float:
        start = time.perf_counter()
        total = 0
        for index in range(_LOOP):
            total += index * index % 7
        for line in self._lines:
            json.loads(line)
        hashlib.sha256(self._text).hexdigest()
        self._np.sort(self._values, axis=-1)
        self._np.argsort(self._values, axis=1)
        return time.perf_counter() - start


class WallClock:
    """Times calls in wall seconds, each from a collected heap."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self._clock = clock

    def measure(self, call: Callable[[], object], label: str = "") -> Tuple[float, object]:
        """Run ``call()``; return its time and its result.

        ``label`` names the kind of call for clocks that keep records.
        """
        gc.collect()
        start = self._clock()
        result = call()
        return self._clock() - start, result


class ScaledClock(WallClock):
    """Times calls in seconds at the reference speed (see the module doc).

    The host speed over a call is the median of the reference passes run
    just before and after it and of those run within ``window_s`` seconds
    of it, so that one disturbed pass does not decide the scale.
    """

    def __init__(
        self,
        clock: Callable[[], float] = time.perf_counter,
        reference: Optional[Callable[[], float]] = None,
        window_s: float = WINDOW_S,
    ) -> None:
        super().__init__(clock)
        self._reference = reference or ReferencePass()
        self._window_s = window_s
        #: ``(taken at, seconds)`` of every reference pass, in order.
        self.references: List[Tuple[float, float]] = []
        #: ``(start, end, index of the reference pass before it)`` of every
        #: measured call, by label.
        self.calls: Dict[str, List[Tuple[float, float, int]]] = defaultdict(list)

    def _take_reference(self) -> None:
        at = self._clock()
        self.references.append((at, self._reference()))

    def measure(self, call: Callable[[], object], label: str = "") -> Tuple[float, object]:
        """Run ``call()`` between two reference passes; return its wall time and result."""
        self._take_reference()
        before = len(self.references) - 1
        gc.collect()
        start = self._clock()
        result = call()
        end = self._clock()
        self._take_reference()
        self.calls[label].append((start, end, before))
        return end - start, result

    def scale(self, start: float, end: float, before: int) -> float:
        """Reference time over the host's time for the reference near a call."""
        return REFERENCE_S / statistics.median(
            seconds
            for index, (at, seconds) in enumerate(self.references)
            if index in (before, before + 1)
            or start - self._window_s <= at <= end + self._window_s
        )

    def walls(self, label: str) -> List[float]:
        return [end - start for start, end, _ in self.calls[label]]

    def scaled(self, label: str) -> List[float]:
        """Seconds at the reference speed of every call measured under ``label``."""
        return [
            (end - start) * self.scale(start, end, before)
            for start, end, before in self.calls[label]
        ]

    def scales(self) -> List[float]:
        return [self.scale(*call) for calls in self.calls.values() for call in calls]
