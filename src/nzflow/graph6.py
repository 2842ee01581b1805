"""graph6 and sparse6 text codecs, bit-exact per the public format definition.

graph6 encodes simple graphs only.  sparse6 additionally encodes parallel
edges, which decode to distinct edge ids; records containing loops are
rejected because :class:`~nzflow.graph.MultiGraph` forbids them.  Parse
errors report the byte offset inside the record.
"""

from __future__ import annotations

import re
from math import isqrt

from .errors import NZFlowError
from .graph import _MAX_N, MultiGraph  # _MAX_N refuses the 36-bit size form

_BIAS = 63
# ASCII whitespace, which a record may carry at either end; str.strip()
# with no argument also drops "\x1c"-"\x1f" and "\x85", which are illegal
_WHITESPACE = " \t\n\r\x0b\x0c"
_NONZERO = re.compile(r"[^?]")  # data characters with at least one set bit
_ILLEGAL = re.compile(r"[^?-~]").search  # the first character outside 63..126
# positions of the set bits of a 6-bit value, most significant first
_SET_BITS = tuple(
    tuple(i for i in range(6) if (x >> (5 - i)) & 1) for x in range(64)
)


class Graph6Error(NZFlowError):
    """Malformed graph6/sparse6 record; ``offset`` is the failing byte."""

    def __init__(self, message: str, offset: int | None = None):
        if offset is not None:
            message = f"{message} (byte offset {offset})"
        super().__init__(message)
        self.offset = offset


def _check_chars(s: str, base: int) -> None:
    bad = _ILLEGAL(s)
    if bad:
        raise Graph6Error(f"illegal character {bad.group()!r}", base + bad.start())


def _decode_size(s: str, pos: int, base: int) -> tuple[int, int]:
    """Decode the N(n) size field starting at ``pos``; return (n, next pos)."""
    if pos >= len(s):
        raise Graph6Error("record ends before size field", base + pos)
    if s[pos] != "~":
        return ord(s[pos]) - _BIAS, pos + 1
    if pos + 1 < len(s) and s[pos + 1] == "~":
        raise Graph6Error("vertex count overflow (36-bit size form)", base + pos)
    if pos + 4 > len(s):
        raise Graph6Error("truncated size field", base + pos)
    n = 0
    for i in range(1, 4):
        n = (n << 6) | (ord(s[pos + i]) - _BIAS)
    if n >= _MAX_N:
        raise Graph6Error(f"vertex count overflow ({n})", base + pos)
    return n, pos + 4


def _bit_stream(s: str, pos: int) -> list[int]:
    bits: list[int] = []
    for ch in s[pos:]:
        val = ord(ch) - _BIAS
        for shift in range(5, -1, -1):
            bits.append((val >> shift) & 1)
    return bits


def parse_graph6(text: str) -> MultiGraph:
    """Parse one graph6 or sparse6 record into a :class:`MultiGraph`."""
    s = text.strip(_WHITESPACE)
    base = 0
    named = None  # the format a header names
    for header in (">>graph6<<", ">>sparse6<<"):
        if s.startswith(header):
            s, base, named = s[len(header):], len(header), header[2:-2]
            break
    if not s:
        raise Graph6Error("empty record", base)
    if s[0] == ";":
        raise Graph6Error("incremental sparse6 is not supported", base)
    kind = "sparse6" if s[0] == ":" else "graph6"
    if named not in (None, kind):
        raise Graph6Error(f"{kind} record under a {named} header", base)
    if kind == "sparse6":
        _check_chars(s[1:], base + 1)
        return _parse_sparse6(s, base)
    _check_chars(s, base)
    return _parse_graph6(s, base)


def _parse_graph6(s: str, base: int) -> MultiGraph:
    n, pos = _decode_size(s, 0, base)
    need = n * (n - 1) // 2
    nbytes = (need + 5) // 6
    have = len(s) - pos
    if have < nbytes:
        raise Graph6Error(
            f"truncated bit string: need {nbytes} data bytes, have {have}",
            base + len(s),
        )
    if have > nbytes:
        raise Graph6Error("trailing data after graph6 record", base + pos + nbytes)
    # bit k of the upper triangle, by column, is edge (k - j(j-1)/2, j) for
    # the j with j(j-1)/2 <= k < j(j+1)/2; only set bits are visited, and
    # padding bits past the triangle are ignored
    edges = []
    for match in _NONZERO.finditer(s, pos):
        start = 6 * (match.start() - pos)
        for off in _SET_BITS[ord(match.group()) - _BIAS]:
            k = start + off
            if k >= need:
                break
            j = (1 + isqrt(8 * k + 1)) // 2
            edges.append((k - j * (j - 1) // 2, j))
    return MultiGraph(n, edges)


def _parse_sparse6(s: str, base: int) -> MultiGraph:
    n, pos = _decode_size(s, 1, base)
    bits = _bit_stream(s, pos)
    k = max(1, (n - 1).bit_length()) if n > 1 else 1
    edges = []
    v = 0
    i = 0
    while i + k < len(bits):
        b = bits[i]
        x = 0
        for j in range(k):
            x = (x << 1) | bits[i + 1 + j]
        i += 1 + k
        if b:
            v += 1
        if v >= n:
            break
        if x > v:
            v = x
        elif x == v:
            # the byte that holds the unit's first bit, bit i - 1 - k
            raise Graph6Error(
                f"loop at vertex {x} is not supported", base + pos + (i - 1 - k) // 6
            )
        else:
            edges.append((x, v))
    return MultiGraph(n, edges)


def serialize_graph6(g: MultiGraph) -> str:
    """Encode a simple graph as a graph6 record (no header, no newline).

    Only the bits of the m edges are set, so the cost beyond writing the
    n(n-1)/12 data characters is linear in m.
    """
    pairs = {(min(u, v), max(u, v)) for u, v in g.edges}
    if len(pairs) < g.m:
        raise ValueError("graph6 cannot encode parallel edges")
    n = g.n
    if n >= _MAX_N:
        raise ValueError(f"vertex count {n} too large for this encoder")
    if n <= 62:
        head = chr(n + _BIAS)
    else:
        head = "~" + "".join(
            chr(((n >> shift) & 0x3F) + _BIAS) for shift in (12, 6, 0)
        )
    chunks = [0] * ((n * (n - 1) // 2 + 5) // 6)
    for i, j in pairs:
        k = j * (j - 1) // 2 + i  # bit k of the upper triangle, by column
        chunks[k // 6] |= 32 >> (k % 6)
    return head + "".join(chr(c + _BIAS) for c in chunks)
