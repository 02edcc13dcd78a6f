"""Spans for the traced run, recorded from the benchmark's side only.

A span covers one call into a polyrect module's public function.  Calls the
benchmark makes itself are wrapped directly; calls the CLI and ``gf_height``
make are caught by swapping the module-level names those modules look up for
timing wrappers, restored afterwards.  Nothing under ``src/`` is edited.
Spans stay in memory and are written out when the run ends.
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from time import perf_counter

# Module-level names that polyrect.cli and polyrect.genfunc call in the
# benchmark's jobs, and the span each call records.  A name a module no
# longer has is skipped.
CLI_CALLS = {
    "build": "automaton.build",
    "serialize": "automaton.serialize",
    "count_series": "counting.count_series",
    "count_area_series": "counting.count_area_series",
    "gf_height": "genfunc.gf_height",
    "gf_height_area": "genfunc.gf_height_area",
    "brute_force_count": "oracle.count",
    "brute_force_area_histogram": "oracle.histogram",
}
GENFUNC_CALLS = {
    "build": "automaton.build",
    "count_series": "counting.count_series",
    "count_area_series": "counting.count_area_series",
    "fit_rational": "genfunc.fit_rational",
    "expand": "genfunc.expand",
}


class Tracer:
    """In-memory span recorder for one workload run."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[dict] = []
        self._open: list[int] = []
        self._t0 = perf_counter()

    @contextmanager
    def span(self, name: str):
        rec = {
            "id": len(self.spans),
            "name": name,
            "parent": self._open[-1] if self._open else None,
            "run": self.run_id,
            "start": perf_counter() - self._t0,
            "end": None,
        }
        self.spans.append(rec)
        self._open.append(rec["id"])
        try:
            yield rec
        finally:
            rec["end"] = perf_counter() - self._t0
            self._open.pop()

    def wrap(self, name: str, fn):
        def traced(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)

        return traced

    @contextmanager
    def patch(self, module, calls: dict[str, str]):
        """Record a span for every call ``module`` makes to the named functions."""
        saved = {attr: getattr(module, attr) for attr in calls if hasattr(module, attr)}
        try:
            for attr, fn in saved.items():
                setattr(module, attr, self.wrap(calls[attr], fn))
            yield
        finally:
            for attr, fn in saved.items():
                setattr(module, attr, fn)

    def self_times(self) -> list[float]:
        """Per span: its duration minus the part of it its child spans cover."""
        children: dict[int, list[dict]] = {}
        for rec in self.spans:
            if rec["parent"] is not None:
                children.setdefault(rec["parent"], []).append(rec)
        out = []
        for rec in self.spans:
            covered = 0.0
            edge = rec["start"]
            for child in sorted(children.get(rec["id"], ()), key=lambda s: s["start"]):
                lo, hi = max(child["start"], edge), min(child["end"], rec["end"])
                if hi > lo:
                    covered += hi - lo
                    edge = hi
            out.append(rec["end"] - rec["start"] - covered)
        return out

    def self_times_by_layer(self) -> dict[str, float]:
        """Self time summed per layer; a span's layer is its name up to the first dot."""
        out: dict[str, float] = {}
        for rec, own in zip(self.spans, self.self_times()):
            layer = rec["name"].split(".", 1)[0]
            out[layer] = out.get(layer, 0.0) + own
        return out

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"run": self.run_id, "spans": self.spans}, fh)
