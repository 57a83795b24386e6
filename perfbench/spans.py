"""Outside-in span tracer for the benchmark's traced runs.

The tracer never edits the program: it replaces public entry points of
the ``repro`` modules (class methods and module functions) with thin
wrappers that record one span per call.  Spans are kept in memory, one
list per thread ("track"), and written out when the run ends.

A span is ``(name, start, end, parent, request)``: ``parent`` is the
index of the enclosing span on the same track (``-1`` at the top) and
``request`` the identifier of the service request the span belongs to
(inherited from the parent when the wrapper does not set one).  Calls
on one thread nest strictly, so a span's self time is its duration
minus the durations of its direct children, and on every track

    sum(self times) + unaccounted == window wall time

where ``unaccounted`` is the part of the window no top-level span
covers.  The identity holds by construction (each child's duration is
taken once from its parent), so :func:`account` reports its residual,
which is float rounding only, rather than testing it.
"""

from __future__ import annotations

import functools
import gzip
import json
import threading
import time

class Tracer:
    """Collects spans from installed wrappers (see :meth:`wrap`)."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._local = threading.local()
        #: thread ident -> (thread name, list of spans)
        self.tracks: dict[int, tuple[str, list]] = {}
        #: name -> running total of ``count_of(result)`` (see :meth:`wrap`)
        self.counts: dict[str, int] = {}
        self._patches: list = []

    # ------------------------------------------------------------------
    def _state(self):
        st = getattr(self._local, "state", None)
        if st is None:
            spans: list = []
            st = self._local.state = (spans, [])
            with self._lock:
                self.tracks[threading.get_ident()] = (
                    threading.current_thread().name, spans)
        return st

    def enter(self, name: str, request=None) -> int:
        """Open a span on the calling thread; returns its index."""
        spans, stack = self._state()
        parent = stack[-1] if stack else -1
        if request is None and parent >= 0:
            request = spans[parent][4]
        spans.append([name, time.perf_counter(), None, parent, request])
        stack.append(len(spans) - 1)
        return len(spans) - 1

    def exit(self) -> None:
        spans, stack = self._state()
        spans[stack.pop()][2] = time.perf_counter()

    def span(self, name: str, request=None):
        """Context manager recording one span (benchmark-side stages)."""
        tracer = self

        class _Span:
            def __enter__(self):
                tracer.enter(name, request)

            def __exit__(self, *exc):
                tracer.exit()

        return _Span()

    # ------------------------------------------------------------------
    def wrap(self, owner, attr: str, name: str, request_of=None,
             count_of=None) -> None:
        """Replace ``owner.attr`` with a span-recording wrapper.

        ``request_of(args, kwargs)`` optionally derives the request id
        from the call's arguments; ``count_of(result)`` optionally adds
        a work count of each call to ``counts[name]``.
        """
        orig = getattr(owner, attr)
        tracer = self

        @functools.wraps(orig)
        def traced(*args, **kwargs):
            req = request_of(args, kwargs) if request_of else None
            tracer.enter(name, req)
            try:
                result = orig(*args, **kwargs)
            finally:
                tracer.exit()
            if count_of is not None:
                with tracer._lock:
                    tracer.counts[name] = (tracer.counts.get(name, 0)
                                           + int(count_of(result)))
            return result

        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, traced)

    def uninstall(self) -> None:
        """Restore every wrapped attribute (reverse install order)."""
        while self._patches:
            owner, attr, orig = self._patches.pop()
            setattr(owner, attr, orig)

    # ------------------------------------------------------------------
    def window(self, t0: float, t1: float) -> dict[str, list]:
        """Closed spans lying inside ``[t0, t1]``, per track name."""
        with self._lock:
            tracks = list(self.tracks.values())
        out: dict[str, list] = {}
        for tname, spans in tracks:
            inside = [i for i, s in enumerate(spans)
                      if s[2] is not None and s[1] >= t0 and s[2] <= t1]
            if inside:
                # re-index parents into the window-local numbering; a
                # parent outside the window makes the span top-level
                pos = {i: k for k, i in enumerate(inside)}
                out[tname] = [[s[0], s[1], s[2], pos.get(s[3], -1), s[4]]
                              for s in (spans[i] for i in inside)]
        return out

    def stray(self, t0: float, t1: float) -> int:
        """Spans that overlap ``[t0, t1]`` but are not closed inside it."""
        with self._lock:
            tracks = list(self.tracks.values())
        n = 0
        for _, spans in tracks:
            for s in list(spans):
                end = s[2]
                overlaps = s[1] <= t1 and (end is None or end >= t0)
                inside = end is not None and s[1] >= t0 and end <= t1
                n += overlaps and not inside
        return n

    def dump(self, path, t0: float, t1: float, meta: dict) -> None:
        """Write the window's spans (times relative to ``t0``) as
        gzipped JSON: ``{"meta": ..., "tracks": {name: [[name, start_s,
        end_s, parent, request], ...]}}``."""
        tracks = {
            tname: [[s[0], s[1] - t0, s[2] - t0, s[3],
                     None if s[4] is None else str(s[4])] for s in spans]
            for tname, spans in self.window(t0, t1).items()}
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            json.dump({"meta": meta, "tracks": tracks}, fh)


def account(tracks: dict[str, list], wall: float, main: str) -> dict:
    """Self time per span name and the per-track wall split.

    ``tracks`` is :meth:`Tracer.window` output and ``wall`` the window
    length.  Every track that recorded spans, plus the ``main`` client
    track, spans the whole window; on each, ``sum(self) + unaccounted``
    equals ``wall``.  Returns ``self_s`` (name -> summed self seconds
    over all tracks), ``calls`` (name -> span count), ``durations``
    (name -> list of span durations), ``unaccounted_s`` per track and
    ``residual_s``, the largest deviation from that identity.
    """
    self_s: dict[str, float] = {}
    calls: dict[str, int] = {}
    durations: dict[str, list] = {}
    unaccounted: dict[str, float] = {}
    residual = 0.0
    names = set(tracks) | {main}
    for tname in sorted(names):
        spans = tracks.get(tname, [])
        child = [0.0] * len(spans)
        top = 0.0
        for s in spans:
            dur = s[2] - s[1]
            if s[3] >= 0:
                child[s[3]] += dur
            else:
                top += dur
        track_self = 0.0
        for s, c in zip(spans, child):
            dur = s[2] - s[1]
            own = dur - c
            track_self += own
            self_s[s[0]] = self_s.get(s[0], 0.0) + own
            calls[s[0]] = calls.get(s[0], 0) + 1
            durations.setdefault(s[0], []).append(dur)
        unaccounted[tname] = wall - top
        residual = max(residual, abs(track_self + unaccounted[tname] - wall))
    return {"self_s": self_s, "calls": calls, "durations": durations,
            "unaccounted_s": unaccounted, "residual_s": residual,
            "ntracks": len(names)}
