"""In-memory spans and counts recorded around calls into treespan's layers.

A span is one timed call made from the benchmark's own files: its id, the
id of the span that caused it (the op, or nothing for set-up and probes),
its name ``<module>.<function>``, start, duration and the number of work
units it covered (one call, or a batch of pairs, trees or drawings).
Nothing inside ``src/`` is instrumented.  ``NullTracer`` is the untraced
run's stand-in and adds one method call per layer call.
"""

from __future__ import annotations

import json
import time
from collections import Counter
from typing import Callable, Dict, List, Optional

_now = time.perf_counter_ns


class NullTracer:
    """Calls straight through; used for every untraced run and set-up."""

    last_ns = 0

    def call(self, name: str, fn: Callable, *args, units: int = 1, **kw):
        return fn(*args, **kw)

    def count(self, name: str, k: int = 1) -> None:
        pass

    def begin_op(self) -> None:
        pass

    def end_op(self) -> None:
        pass


class Tracer(NullTracer):
    def __init__(self) -> None:
        # [id, parent id or -1, name, start ns, duration ns, units, probe]
        self.spans: List[list] = []
        self.counts: Counter = Counter()
        self.distinct_trees: set = set()
        self.probe = False
        self._op: Optional[list] = None     # [span id, start ns] of the open op

    def call(self, name: str, fn: Callable, *args, units: int = 1, **kw):
        t0 = _now()
        out = fn(*args, **kw)
        self.last_ns = _now() - t0
        parent = self._op[0] if self._op is not None else -1
        self.spans.append([len(self.spans), parent, name, t0, self.last_ns,
                           units, self.probe])
        return out

    def count(self, name: str, k: int = 1) -> None:
        self.counts[name] += k

    def begin_op(self) -> None:
        self._op = [len(self.spans), _now()]
        self.spans.append(None)            # filled by end_op

    def end_op(self) -> None:
        sid, t0 = self._op
        self._op = None
        self.spans[sid] = [sid, -1, "op", t0, _now() - t0, 1, False]

    # ---- aggregation -----------------------------------------------------

    def totals(self) -> Dict[str, list]:
        """name -> [calls, total ns, units] over every span of that name."""
        out: Dict[str, list] = {}
        for _, _, name, _, dur, units, _ in self.spans:
            row = out.setdefault(name, [0, 0, 0])
            row[0] += 1
            row[1] += dur
            row[2] += units
        return out

    def op_overhead_pct(self) -> float:
        """Estimated traced-minus-untraced share of op time: spans recorded
        inside ops times the calibrated cost of recording one span."""
        per_span = calibrate_span_ns()
        inside = sum(1 for s in self.spans if s[1] != -1 or s[2] == "op")
        op_ns = sum(s[4] for s in self.spans if s[2] == "op")
        return 100.0 * inside * per_span / op_ns if op_ns else 0.0

    def write(self, path: str, extra: dict) -> None:
        names = sorted({s[2] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        doc = dict(extra)
        doc["span_names"] = names
        doc["span_fields"] = ["id", "parent", "name", "start_ns",
                              "duration_ns", "units", "probe"]
        doc["spans"] = [[s[0], s[1], index[s[2]], s[3], s[4], s[5], int(s[6])]
                        for s in self.spans]
        doc["counts"] = dict(self.counts)
        with open(path, "w") as fh:
            json.dump(doc, fh, separators=(",", ":"))


def calibrate_span_ns(reps: int = 20000) -> float:
    """Extra ns one traced call costs over a direct call of a no-op."""
    def noop():
        return None

    tr = Tracer()
    t0 = _now()
    for _ in range(reps):
        noop()
    direct = _now() - t0
    t0 = _now()
    for _ in range(reps):
        tr.call("noop", noop)
    traced = _now() - t0
    return max(traced - direct, 0) / reps
