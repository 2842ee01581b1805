"""Machine-speed reference for rescaling wall-clock times.

On a 2-core shared virtual machine the speed of the same pure-Python code
swings by up to 2x for tens of seconds at a time, as other tenants load the
host.  Every timed sample is therefore rescaled by the time of a fixed
pure-Python graph computation measured next to it:

    scaled = raw * REFERENCE_S / (reference time around the sample)

so a scaled time is the time the sample would take on a machine where one
:func:`reference` call takes ``REFERENCE_S``.  README.md gives the spreads
with and without rescaling.

Only ``time`` is imported, so a fresh interpreter can run this before
importing the package without loading any module the package needs.
"""

import time

REFERENCE_S = 0.0003  # nominal duration of one reference() call
BURST = 3  # reference() calls per measurement
_N = 15  # GP(15, 4): a 30-vertex cubic graph
_EDGES = (
    [(i, (i + 1) % _N) for i in range(_N)]
    + [(i, _N + i) for i in range(_N)]
    + [(_N + i, _N + (i + 4) % _N) for i in range(_N)]
)
_ADJ = [[] for _ in range(2 * _N)]
for _eid, (_u, _v) in enumerate(_EDGES):
    _ADJ[_u].append((_eid, _v))
    _ADJ[_v].append((_eid, _u))


def reference() -> bool:
    """Whether the fixed graph stays connected after deleting any one edge."""
    for skip in range(-1, len(_EDGES)):
        seen = {0}
        stack = [0]
        while stack:
            for eid, w in _ADJ[stack.pop()]:
                if eid != skip and w not in seen:
                    seen.add(w)
                    stack.append(w)
        if len(seen) != len(_ADJ):
            return False
    return True


def burst() -> list[tuple[float, float]]:
    """``(start, duration)`` of ``BURST`` reference calls."""
    out = []
    for _ in range(BURST):
        start = time.perf_counter()
        reference()
        out.append((start, time.perf_counter() - start))
    return out


def median(values) -> float:
    ordered = sorted(values)
    mid = len(ordered) // 2
    return ordered[mid] if len(ordered) % 2 else (ordered[mid - 1] + ordered[mid]) / 2
