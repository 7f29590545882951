"""Simple undirected graphs: parsing, construction, and BFS-based metrics.

Vertices are integers 0..n-1 throughout. Graphs are immutable once built,
so instances can be shared freely across worker processes.
"""

from __future__ import annotations

from collections import deque
from math import comb
from typing import NamedTuple


class GraphParseError(ValueError):
    """Malformed edge-list or graph6 input."""


class GraphStructureError(ValueError):
    """Input violates simple-graph constraints (self-loop, duplicate edge)."""


class DisconnectedGraphError(ValueError):
    """Operation requires a connected graph."""

    def __init__(self, u: int, v: int):
        super().__init__(
            f"graph is disconnected: vertices {u} and {v} lie in different components"
        )
        self.pair = (u, v)


class Graph(NamedTuple):
    """Simple undirected graph with sorted adjacency tuples."""

    n: int
    adj: tuple[tuple[int, ...], ...]

    def edges(self) -> list[tuple[int, int]]:
        return [(u, v) for u in range(self.n) for v in self.adj[u] if u < v]


def graph_from_edges(n: int, edges) -> Graph:
    """Build a Graph on n vertices, rejecting loops and duplicate edges."""
    if n < 1:
        raise GraphStructureError("vertex count must be at least 1")
    seen = set()
    adj: list[list[int]] = [[] for _ in range(n)]
    for u, v in edges:
        if not (0 <= u < n and 0 <= v < n):
            raise GraphStructureError(f"edge ({u}, {v}) out of range for n={n}")
        if u == v:
            raise GraphStructureError(f"self-loop at vertex {u}")
        key = (u, v) if u < v else (v, u)
        if key in seen:
            raise GraphStructureError(f"duplicate edge ({key[0]}, {key[1]})")
        seen.add(key)
        adj[u].append(v)
        adj[v].append(u)
    return Graph(n, tuple(tuple(sorted(nbrs)) for nbrs in adj))


def from_edge_list(text: str) -> Graph:
    """Parse an edge-list document.

    One edge "u v" per line with 0-based endpoints. Blank lines and lines
    starting with '#' are ignored. The vertex count is 1 + the largest
    index unless a header line "n=<k>" declares it.
    """
    declared_n: int | None = None
    edges: list[tuple[int, int]] = []
    max_seen = -1
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("n="):
            if declared_n is not None:
                raise GraphParseError(f"line {lineno}: repeated n= header")
            try:
                declared_n = int(line[2:])
            except ValueError:
                raise GraphParseError(
                    f"line {lineno}: bad vertex count in {line!r}"
                ) from None
            if declared_n < 1:
                raise GraphParseError(f"line {lineno}: vertex count must be at least 1")
            continue
        parts = line.split()
        if len(parts) != 2:
            raise GraphParseError(f"line {lineno}: expected 'u v', got {line!r}")
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            raise GraphParseError(
                f"line {lineno}: non-integer endpoint in {line!r}"
            ) from None
        if u < 0 or v < 0:
            raise GraphParseError(f"line {lineno}: negative vertex index in {line!r}")
        if u > max_seen:
            max_seen = u
        if v > max_seen:
            max_seen = v
        edges.append((u, v))
    if declared_n is None and not edges:
        raise GraphParseError("empty edge-list input")
    n = declared_n if declared_n is not None else max_seen + 1
    return graph_from_edges(n, edges)


_GRAPH6_HEADER = ">>graph6<<"


def from_graph6(line: str) -> Graph:
    """Decode a graph6-encoded simple graph.

    Supports the one-character order field (n <= 62) and the '~'-prefixed
    three-character field (n <= 258047); the optional format header is
    stripped.
    """
    s = line.strip()
    if s.startswith(_GRAPH6_HEADER):
        s = s[len(_GRAPH6_HEADER):]
    if not s:
        raise GraphParseError("empty graph6 string")
    data = []
    for ch in s:
        value = ord(ch) - 63
        if not 0 <= value <= 63:
            raise GraphParseError(f"invalid graph6 character {ch!r}")
        data.append(value)
    if data[0] < 63:
        n = data[0]
        body = data[1:]
    elif len(data) >= 4 and data[1] < 63:
        n = (data[1] << 12) | (data[2] << 6) | data[3]
        body = data[4:]
    else:
        raise GraphParseError("graph6 order field exceeds the supported range")
    if n < 1:
        raise GraphStructureError("graph6 string encodes a graph with no vertices")
    nbits = n * (n - 1) // 2
    expected = (nbits + 5) // 6
    if len(body) != expected:
        raise GraphParseError(
            f"graph6 length mismatch: order {n} needs {expected} data characters, got {len(body)}"
        )
    edges = []
    idx = 0
    for v in range(1, n):
        for u in range(v):
            if (body[idx // 6] >> (5 - idx % 6)) & 1:
                edges.append((u, v))
            idx += 1
    return graph_from_edges(n, edges)


def heawood() -> Graph:
    """The 14-vertex cubic Heawood graph, built from LCF notation [5, -5]^7.

    Cycle edges {i, i+1 mod 14} plus one chord {i, i+5 mod 14} for each
    even i.
    """
    edges = [(i, (i + 1) % 14) for i in range(14)]
    edges.extend((i, (i + 5) % 14) for i in range(0, 14, 2))
    return graph_from_edges(14, edges)


def _bfs_distances(g: Graph, source: int) -> list[int]:
    dist = [-1] * g.n
    dist[source] = 0
    queue = deque((source,))
    while queue:
        u = queue.popleft()
        du = dist[u] + 1
        for w in g.adj[u]:
            if dist[w] < 0:
                dist[w] = du
                queue.append(w)
    return dist


def distance_matrix(g: Graph) -> tuple[tuple[int, ...], ...]:
    """Rows of exact BFS distances, in edge hops; errors on disconnected input."""
    first = _bfs_distances(g, 0)
    for w, d in enumerate(first):
        if d < 0:
            raise DisconnectedGraphError(0, w)
    rows = [tuple(first)]
    # reaching every vertex from 0 guarantees the remaining rows are complete
    rows.extend(tuple(_bfs_distances(g, v)) for v in range(1, g.n))
    return tuple(rows)


def count_p3(g: Graph) -> int:
    """Number of paths on three vertices: sum over v of C(deg(v), 2)."""
    return sum(comb(len(nbrs), 2) for nbrs in g.adj)
