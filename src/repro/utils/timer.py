"""Lightweight wall-clock instrumentation.

The address-graph construction pipeline (paper Table V) and the training
curves (Figures 5 and 6) both need per-stage wall-clock accounting.  The
:class:`StageTimer` accumulates named durations and reports totals and
ratios in the same shape as the paper's Table V.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import Dict, List

__all__ = ["StageTimer", "Stopwatch"]


class Stopwatch:
    """A resettable stopwatch measuring elapsed wall-clock seconds."""

    def __init__(self) -> None:
        self._start = time.perf_counter()

    def reset(self) -> None:
        """Restart the stopwatch from zero."""
        self._start = time.perf_counter()

    def elapsed(self) -> float:
        """Seconds since construction or the last :meth:`reset`."""
        return time.perf_counter() - self._start


@dataclass
class StageTimer:
    """Accumulate wall-clock time per named stage.

    Each :meth:`add` sums a duration into its stage, which is how
    per-graph averages over a dataset are produced.  Accumulation takes
    an internal lock, so threads sharing one long-lived timer (a
    classifier's pipeline) never lose an update; the lock is excluded
    from pickling and rebuilt on load.
    """

    totals: Dict[str, float] = field(default_factory=dict)
    counts: Dict[str, int] = field(default_factory=dict)
    _order: List[str] = field(default_factory=list)
    _lock: threading.Lock = field(
        default_factory=threading.Lock, repr=False, compare=False
    )

    def __getstate__(self) -> Dict:
        return {
            "totals": self.totals,
            "counts": self.counts,
            "_order": self._order,
        }

    def __setstate__(self, state: Dict) -> None:
        self.totals = state["totals"]
        self.counts = state["counts"]
        self._order = state["_order"]
        self._lock = threading.Lock()

    def add(self, name: str, seconds: float, count: int = 1) -> None:
        """Record ``seconds`` against stage ``name``.

        ``count`` is the number of entries the duration amortises over —
        e.g. one timed extraction pass that produced ``count`` graphs —
        so :meth:`mean` stays a per-entry figure.
        """
        with self._lock:
            if name not in self.totals:
                self.totals[name] = 0.0
                self.counts[name] = 0
                self._order.append(name)
            self.totals[name] += seconds
            self.counts[name] += count

    @property
    def stage_names(self) -> List[str]:
        """Stage names in first-seen order."""
        return list(self._order)

    def total(self) -> float:
        """Total seconds across all stages."""
        return sum(self.totals.values())

    def ratios(self) -> Dict[str, float]:
        """Fraction of total time spent in each stage (sums to 1.0)."""
        total = self.total()
        if total <= 0.0:
            return {name: 0.0 for name in self._order}
        return {name: self.totals[name] / total for name in self._order}

    def mean(self, name: str) -> float:
        """Mean seconds per entry of stage ``name``."""
        count = self.counts.get(name, 0)
        if count == 0:
            return 0.0
        return self.totals[name] / count
