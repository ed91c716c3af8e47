"""What every workload shares: outcome bookkeeping, phases, clocks."""

from __future__ import annotations

import gc
import resource
import time
from dataclasses import dataclass, field
from pathlib import Path

from . import spans
from .stats import TAIL, beyond, median, percentile

clock = time.perf_counter

#: The checkout root, and where runs keep spans and scratch directories.
ROOT = Path(__file__).resolve().parent.parent
TRACE_DIR = ROOT / ".e2ebench_traces"
WORK_DIR = ROOT / ".e2ebench_work"

#: Failures quoted in the outcome (the count is always complete).
_QUOTED_FAILURES = 8


@dataclass
class Outcome:
    """Attempts, failures and metrics of one workload run."""

    attempted: dict = field(default_factory=dict)   # phase -> count
    failed: dict = field(default_factory=dict)      # phase -> count
    failures: list = field(default_factory=list)    # first few, quoted
    metrics: dict = field(default_factory=dict)     # name -> (value, unit)
    info: dict = field(default_factory=dict)        # reported, not judged

    def attempt(self, phase: str, count: int = 1) -> None:
        self.attempted[phase] = self.attempted.get(phase, 0) + count

    def fail(self, phase: str, why: str, count: int = 1) -> None:
        self.failed[phase] = self.failed.get(phase, 0) + count
        if len(self.failures) < _QUOTED_FAILURES:
            self.failures.append(f"{phase}: {why}")

    def check(self, phase: str, ok: bool, why: str) -> None:
        """One checked output: an attempt, and a failure unless ``ok``."""
        self.attempt(phase)
        if not ok:
            self.fail(phase, why)

    def metric(self, name: str, value: float, unit: str) -> None:
        self.metrics[name] = (float(value), unit)

    def latency(self, prefix: str, seconds: list[float]) -> None:
        """``<prefix>_p50_ms`` and ``<prefix>_p90_ms`` of ``seconds``."""
        millis = [1e3 * value for value in seconds]
        self.metric(f"{prefix}_p50_ms", median(millis), "ms")
        self.metric(f"{prefix}_p90_ms", percentile(millis, TAIL), "ms")
        self.info[f"{prefix}_samples"] = len(millis)
        self.info[f"{prefix}_beyond_p90"] = beyond(len(millis))

    @property
    def total_attempted(self) -> int:
        return sum(self.attempted.values())

    @property
    def total_failed(self) -> int:
        return sum(self.failed.values())


class Timeline:
    """Units of one phase's fixed work completed since the phase began."""

    def __init__(self) -> None:
        self.start = clock()
        self.units = 0.0

    def mark(self, units: float) -> None:
        self.units += units

    def rate(self) -> float:
        """Units per second over the whole phase; call it the moment the
        phase's work is done."""
        return self.units / (clock() - self.start)


class Phases:
    """Phase switching: collects garbage between every two phases and
    tags the tracer, if any, with the phase and whether spans are
    recorded."""

    def __init__(self, tracer: spans.Tracer | None) -> None:
        self.tracer = tracer

    def enter(self, name: str, traced: bool = True) -> None:
        # The collection runs in a phase of its own, so it is part of
        # neither the phase it ends nor the one it starts.
        if self.tracer is not None:
            self.tracer.set_phase("gc")
        gc.collect()
        if self.tracer is not None:
            self.tracer.set_phase(name)
            self.tracer.enabled = traced

    def record(self, on: bool) -> None:
        """Record spans, or stop, without leaving the phase."""
        if self.tracer is not None:
            self.tracer.enabled = on

    def wrap(self, name: str, fn):
        """``fn`` as a traced harness span (itself when untraced)."""
        return fn if self.tracer is None else self.tracer.wrap(name, fn)


def peak_rss_mb() -> float:
    """Peak resident set size of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def overhead_share(traced_rate: float, reference_rate: float) -> float:
    """Share of throughput the tracing wrappers cost."""
    return 1.0 - traced_rate / reference_rate if reference_rate else 0.0
