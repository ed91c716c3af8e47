"""Spans recorded by wrappers the benchmark installs around each layer.

:func:`install` replaces, for the life of one run, the names each
layer's callers look up — module globals such as ``scheme.compress``
and methods such as ``RejectionSamplerZ.sample_lanes`` — with wrappers
that record a span: name, start, end, parent, thread, request id and
two counts taken at the same boundary.  Nothing inside ``src/`` changes.

Spans are packed into one in-memory ``bytearray`` (``extend`` is atomic
under the GIL, so worker threads need no lock) and written out when the
run ends.  :func:`reduce` streams them back: spans are recorded when
they end, so every child precedes its parent, and a parent's self time
(duration minus the union of its children's intervals) is settled the
moment the parent is read.
"""

from __future__ import annotations

import contextvars
import functools
import inspect
import itertools
import json
import struct
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

#: Span kinds.  ``SYNC`` and ``ASYNC`` wrap a call; ``WAIT`` is a span
#: of time work waited (queue wait, load-generator lateness);
#: ``REQUEST`` is a client round trip; ``PHASE`` marks a phase window.
SYNC, ASYNC, WAIT, REQUEST, PHASE = range(5)

# index, name id, phase id, kind, start, end, parent, thread,
# request id, count 1, count 2
_SPAN = struct.Struct("<qHBBddqQqdd")

_DISABLED_PHASE = "-"


class Tracer:
    """In-memory span recorder shared by every wrapper of one process."""

    def __init__(self) -> None:
        self.enabled = False
        self._buffer = bytearray()
        self._ids = itertools.count()
        self._names: dict[str, int] = {}
        self._phases: dict[str, int] = {}
        self._phase_id = self._intern(self._phases, "setup")
        self._phase_start = time.perf_counter()
        self._current = contextvars.ContextVar("e2ebench_span", default=-1)
        self.request_id = contextvars.ContextVar("e2ebench_request",
                                                 default=-1)
        self._undo: list = []

    @staticmethod
    def _intern(table: dict[str, int], name: str) -> int:
        if name not in table:
            table[name] = len(table)
        return table[name]

    # -- phases ------------------------------------------------------------

    def set_phase(self, name: str) -> None:
        """Close the current phase window and open ``name``."""
        now = time.perf_counter()
        self.record("phase", self._phase_start, now, kind=PHASE,
                    force=True)
        self._phase_id = self._intern(self._phases, name)
        self._phase_start = now

    # -- recording ---------------------------------------------------------

    def record(self, name: str, start: float, end: float, *,
               kind: int = WAIT, request: int = -1, parent: int = -1,
               counts: tuple[float, float] = (0.0, 0.0),
               force: bool = False) -> None:
        """Record a span the harness measured itself."""
        if not (self.enabled or force):
            return
        self._buffer.extend(_SPAN.pack(
            next(self._ids), self._intern(self._names, name),
            self._phase_id, kind, start, end, parent,
            threading.get_ident(), request, *counts))

    def wrap(self, name: str, fn, *, pre=None, post=None,
             request_arg: int | None = None):
        """A traced stand-in for ``fn``.

        ``pre(args, kwargs)`` runs before the call and its value goes to
        ``post(state, args, kwargs, result)``, which returns the span's
        two counts.  For a coroutine function, ``request_arg`` names the
        positional argument that carries a request id, propagated to
        every span beneath.
        """
        name_id = self._intern(self._names, name)
        tracer = self
        current = self._current
        request = self.request_id
        buffer = self._buffer
        ids = self._ids
        pack = _SPAN.pack
        clock = time.perf_counter
        ident = threading.get_ident
        none = (0.0, 0.0)

        if inspect.iscoroutinefunction(fn):
            @functools.wraps(fn)
            async def traced_async(*args, **kwargs):
                if not tracer.enabled:
                    return await fn(*args, **kwargs)
                index = next(ids)
                parent = current.get()
                token = current.set(index)
                request_token = (request.set(args[request_arg])
                                 if request_arg is not None else None)
                state = pre(args, kwargs) if pre is not None else None
                start = clock()
                counts = none
                try:
                    result = await fn(*args, **kwargs)
                    if post is not None:
                        counts = post(state, args, kwargs, result)
                    return result
                finally:
                    end = clock()
                    buffer.extend(pack(
                        index, name_id, tracer._phase_id, ASYNC, start,
                        end, parent, ident(), request.get(), *counts))
                    if request_token is not None:
                        request.reset(request_token)
                    current.reset(token)
            return traced_async

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            index = next(ids)
            parent = current.get()
            token = current.set(index)
            state = pre(args, kwargs) if pre is not None else None
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                end = clock()
                current.reset(token)
                buffer.extend(pack(index, name_id, tracer._phase_id, SYNC,
                                   start, end, parent, ident(),
                                   request.get(), 0.0, 0.0))
                raise
            end = clock()
            current.reset(token)
            counts = (post(state, args, kwargs, result)
                      if post is not None else none)
            buffer.extend(pack(index, name_id, tracer._phase_id, SYNC,
                               start, end, parent, ident(), request.get(),
                               *counts))
            return result
        return traced

    def patch(self, owner, attribute: str, name: str, **hooks) -> None:
        """Replace ``owner.attribute`` with its traced wrapper."""
        original = owner.__dict__[attribute]
        setattr(owner, attribute, self.wrap(name, original, **hooks))
        self._undo.append((owner, attribute, original))

    def uninstall(self) -> None:
        """Restore every patched name (in reverse order)."""
        while self._undo:
            owner, attribute, original = self._undo.pop()
            setattr(owner, attribute, original)
        self.enabled = False

    # -- output ------------------------------------------------------------

    def dump(self, path: Path) -> Path:
        """Write the spans out: one JSON header line, then the packed
        records."""
        self.set_phase(_DISABLED_PHASE)
        header = {"names": _inverse(self._names),
                  "phases": _inverse(self._phases),
                  "record_bytes": _SPAN.size}
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "wb") as handle:
            handle.write(json.dumps(header).encode() + b"\n")
            handle.write(self._buffer)
        return path


def _inverse(table: dict[str, int]) -> list[str]:
    names = [""] * len(table)
    for name, index in table.items():
        names[index] = name
    return names


# -- reduction -------------------------------------------------------------

@dataclass
class Stat:
    """Sums over the spans of one name in one phase."""

    count: int = 0
    self_s: float = 0.0
    duration_s: float = 0.0
    count1: float = 0.0
    count2: float = 0.0
    nonzero1: int = 0
    nonzero2: int = 0

    def add(self, duration: float, self_time: float, count1: float,
            count2: float) -> None:
        self.count += 1
        self.duration_s += duration
        self.self_s += self_time
        self.count1 += count1
        self.count2 += count2
        self.nonzero1 += count1 != 0
        self.nonzero2 += count2 != 0


@dataclass
class Reduced:
    """What one process's spans reduce to."""

    stats: dict = field(default_factory=dict)          # (phase, name)
    by_parent: dict = field(default_factory=dict)      # (phase, name, parent)
    durations: dict = field(default_factory=dict)      # (phase, name) -> [s]
    requests: dict = field(default_factory=dict)       # (name, id) -> s
    phase_walls: dict = field(default_factory=dict)    # phase -> s
    covered_s: dict = field(default_factory=dict)      # phase -> s
    orphans: int = 0


def _union(intervals, low: float, high: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[low, high]``."""
    total = 0.0
    reach = low
    for start, end in sorted(intervals):
        start = max(start, reach)
        end = min(end, high)
        if end > start:
            total += end - start
            reach = end
    return total


def reduce(records, names: list[str], phases: list[str], *,
           keep_durations: frozenset = frozenset(),
           keep_requests: frozenset = frozenset()) -> Reduced:
    """Stream ``records`` (``_SPAN`` tuples in recording order) into
    per-phase sums and self times, and measure how much of each phase
    window the top-level spans of the thread that opened it cover."""
    out = Reduced()
    children: dict[int, list] = {}
    windows: dict[str, list] = {}       # phase -> [(start, end, thread)]
    top: dict[tuple[str, int], list] = {}   # (phase, thread) -> intervals
    for (index, name_id, phase_id, kind, start, end, parent, thread,
         request, count1, count2) in records:
        name = names[name_id]
        phase = phases[phase_id]
        duration = end - start
        if kind == PHASE:
            out.phase_walls[phase] = out.phase_walls.get(phase, 0.0) + \
                duration
            windows.setdefault(phase, []).append((start, end, thread))
            continue
        mine = children.pop(index, ())
        self_time = duration
        if kind in (SYNC, ASYNC):
            self_time -= _union([(s, e) for s, e, _, _ in mine], start, end)
        for _, _, child_name, child_self in mine:
            key = (phase, child_name, name)
            out.by_parent[key] = out.by_parent.get(key, 0.0) + child_self
        stat = out.stats.get((phase, name))
        if stat is None:
            stat = out.stats[(phase, name)] = Stat()
        stat.add(duration, self_time, count1, count2)
        if name in keep_durations:
            out.durations.setdefault((phase, name), []).append(duration)
        if name in keep_requests and request >= 0:
            out.requests[(name, request)] = duration
        if parent < 0:
            top.setdefault((phase, thread), []).append((start, end))
        elif kind in (SYNC, ASYNC):
            children.setdefault(parent, []).append(
                (start, end, name, self_time))
    out.orphans = sum(len(spans) for spans in children.values())
    for phase, spans_of_phase in windows.items():
        out.covered_s[phase] = sum(
            _union(top.get((phase, thread), ()), start, end)
            for start, end, thread in spans_of_phase)
    return out


def load(path: Path):
    """``(records, names, phases)`` of a file :meth:`Tracer.dump` wrote."""
    raw = Path(path).read_bytes()
    newline = raw.index(b"\n")
    header = json.loads(raw[:newline])
    body = raw[newline + 1:]
    if header["record_bytes"] != _SPAN.size:
        raise ValueError("trace written with another record layout")
    return _SPAN.iter_unpack(body), header["names"], header["phases"]

