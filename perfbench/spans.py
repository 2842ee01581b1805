"""Layer spans recorded from outside the package.

``Tracer.install`` replaces functions in ``nzflow.cli`` and ``nzflow.engine``
by wrappers that record a span per call, under the names through which
those modules call them, and ``Tracer.uninstall`` puts the originals back.
Nothing inside the package changes.  Spans stay in memory as
``[span_id, parent_id, record, layer, start, end, note]``; the note is
``"raised:<Exception>"`` when the call raised, or a flag derived from the
result.
"""

from __future__ import annotations

import functools
import importlib
import time

# layer -> the (module, attribute) names whose calls it covers
LAYERS = {
    "graph6.parse": [("nzflow.cli", "parse_graph6")],
    "engine.pipeline": [("nzflow.cli", "five_flow_oddness4")],
    "structure.cyclic_exact": [
        ("nzflow.cli", "cyclic_connectivity"),
        ("nzflow.cli", "is_cyclically_k_connected"),
    ],
    "graph.basic_checks": [("nzflow.engine", "basic_checks")],
    "structure.cyclic6": [("nzflow.engine", "is_cyclically_k_connected")],
    "structure.oddness": [("nzflow.engine", "compute_oddness")],
    "coloring.canonical": [("nzflow.engine", "canonical_coloring")],
    "flows.augment": [
        ("nzflow.engine", "build_augmented"),
        ("nzflow.engine", "canonical_4flow"),
    ],
    "flows.partition": [
        ("nzflow.engine", "flow_partition"),
        ("nzflow.engine", "switch_path"),
        ("nzflow.engine", "reverse_flow"),
    ],
    "valuation.mincut": [("nzflow.engine", "check_balanced_mincut")],
    "valuation.to_flow": [("nzflow.engine", "valuation_to_flow")],
    "flows.verify": [
        ("nzflow.engine", "verify_flow"),
        ("nzflow.engine", "is_nowhere_zero"),
    ],
    "flows.solver": [("nzflow.engine", "solve_nowhere_zero_flow")],
    "flows.to_json": [("nzflow.engine", "flow_to_json")],
    "cli.emit": [("nzflow.cli", "_emit")],
}
ROOT = "cli.analyze"  # opened by the benchmark around each main() call

# flags noted from a layer's return value
NOTES = {
    "structure.cyclic6": lambda res: None if res.connected else "below6",
    "valuation.mincut": lambda res: "balanced" if res.balanced else None,
}


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.record = None
        self._saved: list[tuple[object, str, object]] = []

    def open(self, layer: str) -> int:
        sid = len(self.spans)
        parent = self.stack[-1] if self.stack else None
        self.spans.append([sid, parent, self.record, layer, time.perf_counter(), None, None])
        self.stack.append(sid)
        return sid

    def close(self, sid: int, note=None) -> None:
        span = self.spans[sid]
        span[5] = time.perf_counter()
        span[6] = note
        self.stack.pop()

    def _wrap(self, fn, layer: str):
        note_of = NOTES.get(layer)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = self.open(layer)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                self.close(sid, "raised:" + type(exc).__name__)
                raise
            self.close(sid, note_of(result) if note_of else None)
            return result

        return wrapper

    def install(self) -> list[str]:
        """Wrap every layer; return the layers none of whose names exist."""
        absent = []
        for layer, names in LAYERS.items():
            found = False
            for modname, attr in names:
                module = importlib.import_module(modname)
                fn = getattr(module, attr, None)
                if not callable(fn):
                    continue
                found = True
                self._saved.append((module, attr, fn))
                setattr(module, attr, self._wrap(fn, layer))
            if not found:
                absent.append(layer)
        return absent

    def uninstall(self) -> None:
        for module, attr, fn in reversed(self._saved):
            setattr(module, attr, fn)
        self._saved.clear()


def summarize(spans: list[list], weigh) -> dict:
    """Per-layer totals of one pass: seconds, calls, self seconds (duration
    minus direct children) and counts of each note.  ``weigh(record, start,
    end)`` gives a span's duration in seconds."""
    dur = [weigh(rec, start, end) for _sid, _p, rec, _layer, start, end, _note in spans]
    children = [0.0] * len(spans)
    for sid, parent, *_rest in spans:
        if parent is not None:
            children[parent] += dur[sid]
    out: dict[str, dict] = {}
    for sid, _parent, _rec, layer, _start, _end, note in spans:
        agg = out.setdefault(layer, {"s": 0.0, "self_s": 0.0, "calls": 0, "notes": {}})
        agg["s"] += dur[sid]
        agg["self_s"] += dur[sid] - children[sid]
        agg["calls"] += 1
        if note:
            agg["notes"][note] = agg["notes"].get(note, 0) + 1
    return out
