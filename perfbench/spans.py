"""In-memory span recorder for the traced run.

A span is one call across a layer boundary: its name, start, end, the
span open when it began (its parent) and the op it belongs to. Spans
stay in memory while the benchmark runs and are written as JSONL once it
ends, so the file write never lands inside a timed op.
"""

from __future__ import annotations

import json
import os
import time
from collections import defaultdict
from typing import Dict, Iterable, List, Optional, Sequence

NAME, START, END, PARENT, OP = range(5)


class Tracer:
    """Records nested spans and per-boundary counters of one process.

    A span is a list ``[name, start, end, parent id, op]``; ``stack``
    holds the ids of the open ones. ``recording`` turns false in a
    worker forked while the wrappers are installed: the worker inherits
    them, and they pass straight through there (see :mod:`layers`).
    """

    def __init__(self) -> None:
        self.spans: List[list] = []
        self.stack: List[int] = []
        self.counts: Dict[str, float] = defaultdict(float)
        self.op: Optional[int] = None
        self.recording = True
        os.register_at_fork(after_in_child=self._stop)

    def _stop(self) -> None:
        self.recording = False

    def open(self, name: str) -> list:
        """Start a span under the innermost open one; returns its record."""
        record = [name, time.perf_counter(), 0.0,
                  self.stack[-1] if self.stack else -1, self.op]
        self.stack.append(len(self.spans))
        self.spans.append(record)
        return record

    def close(self, record: list) -> None:
        record[END] = time.perf_counter()
        self.stack.pop()

    def current(self) -> Optional[str]:
        """Name of the innermost open span, if any."""
        return self.spans[self.stack[-1]][NAME] if self.stack else None


def self_times(spans: Sequence[Sequence]) -> List[float]:
    """Each span's duration minus the part of it its children cover.

    Children are merged as intervals clipped to the parent, so children
    that overlap each other are not subtracted twice.
    """
    children: Dict[int, List[int]] = defaultdict(list)
    for sid, span in enumerate(spans):
        if span[PARENT] >= 0:
            children[span[PARENT]].append(sid)
    result = []
    for sid, span in enumerate(spans):
        start, end = span[START], span[END]
        covered = 0.0
        cursor = start
        for child in sorted(children.get(sid, ()),
                            key=lambda c: spans[c][START]):
            lo = max(spans[child][START], cursor)
            hi = min(spans[child][END], end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        result.append((end - start) - covered)
    return result


def write_jsonl(path: str, header: dict, spans: Sequence[Sequence],
                origin: float) -> None:
    """Write ``header`` then one line per span, times relative to ``origin``.

    Times are seconds rounded to 0.1 us, well below a span's own cost.
    """
    selfs = self_times(spans)
    with open(path, "w", encoding="utf-8") as out:
        out.write(json.dumps({"type": "run", **header}) + "\n")
        for sid, span in enumerate(spans):
            out.write(json.dumps({
                "type": "span", "id": sid, "name": span[NAME],
                "start": round(span[START] - origin, 7),
                "end": round(span[END] - origin, 7),
                "parent": span[PARENT], "op": span[OP],
                "self": round(selfs[sid], 7),
            }, separators=(",", ":")) + "\n")


def totals_by_name(spans: Sequence[Sequence],
                   selfs: Iterable[float]) -> Dict[str, List[float]]:
    """``name -> [self seconds, inclusive seconds]`` summed over all spans."""
    totals: Dict[str, List[float]] = defaultdict(lambda: [0.0, 0.0])
    for span, own in zip(spans, selfs):
        entry = totals[span[NAME]]
        entry[0] += own
        entry[1] += span[END] - span[START]
    return totals
