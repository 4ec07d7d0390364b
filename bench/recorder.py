"""Timing, span and failure bookkeeping for one benchmark run.

Every call into sltkit goes through :meth:`Recorder.call`, which times it,
adds the time to the current pass and, when tracing, keeps a span.  An op
is one checked unit of work (a build, a round trip, one word decision); it
fails when a call inside it raises or when one of its output checks fails.
Spans stay in memory and are written out by the runner when the run ends.
"""

from __future__ import annotations

import gc
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field
from typing import Any, Callable, Iterator, Optional

from sltkit import CapacityError

MODULES = ("automata", "codes", "construction", "slt", "verification")


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: Optional[int]
    op: Optional[int]
    replay: bool = False

    @property
    def duration(self) -> float:
        return self.end - self.start


@dataclass
class PassStats:
    """What one pass over a workload's ops measured."""

    wall_s: float = 0.0
    harness_s: float = 0.0
    category_s: dict[str, float] = field(default_factory=lambda: defaultdict(float))
    counts: dict[str, int] = field(default_factory=lambda: defaultdict(int))
    samples: dict[str, list[float]] = field(default_factory=lambda: defaultdict(list))

    @property
    def pass_s(self) -> float:
        """Wall time of the pass without the benchmark's own checks and replays."""
        return self.wall_s - self.harness_s


@dataclass
class _Op:
    label: str
    span_id: int
    ok: bool = True


class Recorder:
    """Collects timings, counts and failures; keeps spans when ``tracing``."""

    def __init__(self, tracing: bool) -> None:
        self.tracing = tracing
        self.spans: list[Span] = []
        self.attempted = 0
        self.failed = 0
        self.wrong = 0
        self.module_failed: dict[str, int] = {m: 0 for m in MODULES}
        self.failures: Counter[str] = Counter()
        self.current: Optional[PassStats] = None
        self._op: Optional[_Op] = None
        self._next_id = 0
        self._raised_in: Optional[str] = None
        self.last_span: Optional[Span] = None
        self.last_s = 0.0

    # -- passes -------------------------------------------------------------

    def begin_pass(self) -> PassStats:
        gc.collect()
        self.current = PassStats()
        self.current.wall_s = -time.perf_counter()
        return self.current

    def end_pass(self) -> PassStats:
        stats = self.current
        assert stats is not None
        stats.wall_s += time.perf_counter()
        self.current = None
        return stats

    def _stats(self) -> PassStats:
        # calls made during set-up land in a throwaway pass
        if self.current is None:
            self.current = PassStats()
        return self.current

    def count(self, key: str, n: int) -> None:
        self._stats().counts[key] += n

    def peak(self, key: str, n: int) -> None:
        counts = self._stats().counts
        counts[key] = max(counts[key], n)

    def sample(self, key: str, value: float) -> None:
        self._stats().samples[key].append(value)

    @contextmanager
    def harness(self) -> Iterator[None]:
        """Benchmark-side work (checks, replays, garbage collection, output
        sizes) that a pass's time must not include."""
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self._stats().harness_s += time.perf_counter() - t0

    def settle(self) -> None:
        """Collect garbage between large ops so each starts from a clean heap,
        as it would in a fresh ``sltkit`` process."""
        with self.harness():
            gc.collect()

    # -- calls and spans ------------------------------------------------------

    def _new_id(self) -> int:
        self._next_id += 1
        return self._next_id - 1

    def call(self, name: str, fn: Callable[..., Any], *args: Any,
             cat: Optional[str] = None, **kwargs: Any) -> Any:
        """Time one public sltkit call; ``name`` is ``<module>.<function>``."""
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        except Exception:
            self._raised_in = name.split(".", 1)[0]
            raise
        finally:
            t1 = time.perf_counter()
            self.last_s = t1 - t0
            if cat is not None:
                self._stats().category_s[cat] += t1 - t0
            if self.tracing:
                op = self._op
                self.last_span = Span(self._new_id(), name, t0, t1,
                                      op.span_id if op else None,
                                      op.span_id if op else None)
                self.spans.append(self.last_span)

    def replay(self, parent: Span, name: str, fn: Callable[..., Any], *args: Any,
               **kwargs: Any) -> Any:
        """Call one public piece of a composite call again, on the same
        inputs, and record it as a replay child of the composite's span."""
        with self.harness():
            t0 = time.perf_counter()
            result = fn(*args, **kwargs)
            t1 = time.perf_counter()
            self.spans.append(Span(self._new_id(), name, t0, t1, parent.id, parent.op,
                                   replay=True))
        return result

    # -- ops and checks -------------------------------------------------------

    @contextmanager
    def op(self, label: str) -> Iterator[_Op]:
        """One checked unit of work, traced as the span ``op <label>``.
        Exceptions are the op's failure and do not end the run: this is the
        boundary that must keep running."""
        state = self._op = _Op(label, self._new_id() if self.tracing else -1)
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            yield state
        except CapacityError as exc:
            # a refused op: counted as failed, but no output is wrong
            self._fail(state, self._raised_in or "bench", f"{type(exc).__name__}: {exc}",
                       wrong=False)
        except Exception as exc:
            self._fail(state, self._raised_in or "bench", f"{type(exc).__name__}: {exc}",
                       wrong=True)
        finally:
            self._op = None
            self._raised_in = None
            if self.tracing:
                self.spans.append(Span(state.span_id, f"op {label}", t0, time.perf_counter(),
                                       None, state.span_id))

    def check(self, ok: bool, module: str, what: str) -> None:
        """Record an output check of the current op."""
        if not ok:
            state = self._op
            assert state is not None, "checks belong to an op"
            self._fail(state, module, what, wrong=True)

    def _fail(self, state: _Op, module: str, what: str, wrong: bool) -> None:
        if not state.ok:
            return
        state.ok = False
        self.failed += 1
        self.wrong += wrong
        if module in self.module_failed:
            self.module_failed[module] += 1
        self.failures[f"{state.label}: [{module}] {what}"] += 1

    def span_dicts(self) -> list[dict[str, Any]]:
        return [asdict(s) for s in self.spans]
