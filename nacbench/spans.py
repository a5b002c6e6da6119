"""Span tracing of nacflex's public functions, installed from outside the package.

A span records name, start, end, parent span and trial id for one call of a
wrapped function.  Wrappers are patched into every nacflex module that bound
the function (``from .graphs import components`` copies the reference, so
patching only the defining module would miss those callers) and removed again
when the ``installed()`` block ends.  Spans stay in memory until ``write``;
layer metrics are then computed from the written file.  Start and end are
CPU times of the benchmark's thread, the clock its trials are timed with.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path

# (module, attribute) of every traced function.  The span name is
# "<module>.<attribute>", e.g. "graphs.Graph.from_edges".
WRAPPED = (
    ("randmodels", "hitting_times"),
    ("randmodels", "process"),
    ("randmodels", "regular_configuration"),
    ("cuts", "stable_cut_exists"),
    ("cuts", "sprime_holds"),
    ("cuts", "decompose_s"),
    ("cuts", "firm_cut_exists"),
    ("nac", "nac_exists"),
    ("nac", "triangle_classes"),
    ("nac", "nac_check"),
    ("graphs", "Graph.from_edges"),
    ("graphs", "components"),
    ("graphs", "every_vertex_in_triangle"),
    ("graphs", "triangle_count"),
    ("experiments", "sweep_trial_outcomes"),
    ("experiments", "triangle_covered"),
    ("experiments", "regular_nac_lower_bound"),
)

# Direct children of a hitting_times span that count as probes.
PROBE_CHILDREN = frozenset(
    {"cuts.stable_cut_exists", "cuts.decompose_s", "nac.nac_exists", "graphs.components"}
)

FOUND = frozenset({"cuts.stable_cut_exists", "cuts.firm_cut_exists", "nac.nac_exists"})


def _outcome(name: str, result) -> dict:
    if name in FOUND:
        return {"found": result is not None}
    if name == "randmodels.regular_configuration":
        return {"rejects": int(result[1])}
    return {}


class Tracer:
    """Records spans of the wrapped functions while installed."""

    def __init__(self, package) -> None:
        self.package = package
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self.trial: int | None = None

    def _wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name) as span:
                result = fn(*args, **kwargs)
            span.update(_outcome(name, result))
            return result

        return traced

    @contextmanager
    def span(self, name: str):
        """Open a span; nested spans opened inside it become its children."""
        span = {
            "id": len(self.spans),
            "name": name,
            "parent": self._stack[-1] if self._stack else None,
            "trial": self.trial,
        }
        self.spans.append(span)
        self._stack.append(span["id"])
        span["start"] = time.thread_time_ns()
        try:
            yield span
        except BaseException as exc:
            span["error"] = type(exc).__name__
            raise
        finally:
            span["end"] = time.thread_time_ns()
            self._stack.pop()

    @contextmanager
    def installed(self):
        """Patch every binding of every wrapped function; restore on exit."""
        prefix = self.package.__name__
        modules = [
            m
            for key, m in sorted(sys.modules.items())
            if m is not None and (key == prefix or key.startswith(prefix + "."))
        ]
        undo = []
        try:
            for mod_name, attr in WRAPPED:
                name = f"{mod_name}.{attr}"
                home = sys.modules[f"{prefix}.{mod_name}"]
                if "." in attr:
                    cls_name, meth = attr.split(".")
                    cls = getattr(home, cls_name)
                    original = cls.__dict__[meth]
                    wrapped = classmethod(self._wrap(name, original.__func__))
                    setattr(cls, meth, wrapped)
                    undo.append((cls, meth, original))
                    continue
                original = getattr(home, attr)
                wrapped = self._wrap(name, original)
                for mod in modules:
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, key, wrapped)
                            undo.append((mod, key, original))
            yield self
        finally:
            for owner, key, original in reversed(undo):
                setattr(owner, key, original)

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span, separators=(",", ":")) + "\n")


def _covered_ns(intervals: list[tuple[int, int]]) -> int:
    """Length of the union of the intervals."""
    total = 0
    end = None
    for lo, hi in sorted(intervals):
        if end is None or lo > end:
            total += hi - lo
            end = hi
        elif hi > end:
            total += hi - end
            end = hi
    return total


def layer_totals(path: Path) -> dict[str, dict[str, float]]:
    """Per span name: calls, ms, self_ms, found, budget_exceeded, rejects, probes."""
    spans = [json.loads(line) for line in path.read_text().splitlines() if line]
    children: dict[int, list[dict]] = defaultdict(list)
    for s in spans:
        if s["parent"] is not None:
            children[s["parent"]].append(s)
    totals: dict[str, dict[str, float]] = defaultdict(
        lambda: dict.fromkeys(
            ("calls", "ms", "self_ms", "found", "budget_exceeded", "rejects", "probes"),
            0,
        )
    )
    for s in spans:
        t = totals[s["name"]]
        dur = s["end"] - s["start"]
        kids = children[s["id"]]
        child_ns = _covered_ns([(c["start"], c["end"]) for c in kids])
        t["calls"] += 1
        t["ms"] += dur / 1e6
        t["self_ms"] += (dur - child_ns) / 1e6
        t["found"] += bool(s.get("found"))
        t["budget_exceeded"] += s.get("error") == "BudgetExceeded"
        t["rejects"] += s.get("rejects", 0)
        t["probes"] += sum(1 for c in kids if c["name"] in PROBE_CHILDREN)
    return dict(totals)
