"""Exhaustive enumeration of free (unlabeled) trees.

A tree is represented by the level sequence of a canonical rooting: the
preorder list of vertex depths with the root at depth 0, children ordered
so the sequence is lexicographically maximal, and the root placed at a
center of the tree. When the tree has two centers the rooting is fixed by
comparing the first root subtree against the rest of the sequence (height,
then size, then lexicographic order), so every isomorphism class produces
exactly one sequence.

Sequences are generated in decreasing lexicographic order starting from
the center-rooted path. Each candidate is split once into its first root
subtree and the rest, and the canonicity test is one tuple comparison,
(height, size, sequence) of the subtree against the same of the rest.
Whenever a candidate fails it, every sequence sharing its first root
subtree fails too, so the generator skips the whole block by rewriting
the sequence at the subtree's last vertex. That is not constant amortized
time per tree: the candidates rejected near the start of each order's
stream grow roughly 2.5x per order (7,865 before the first 100 trees at
order 14, 48,157 at order 16, 262,848 at order 18), so the start of the
stream dominates at large orders. ROADMAP.md item 2 plans to remove the
rejections with the successor rule of Wright, Richmond, Odlyzko and
McKay.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from .graphs import Graph, graph_from_edges

ROOT = -1  # parent-array sentinel marking the root


@dataclass(frozen=True)
class CanonicalTree:
    """Free tree in canonical rooted form; two are equal iff isomorphic."""

    n: int
    parent: tuple[int, ...]  # parent[0] == ROOT and parent[i] < i for i >= 1


def _start_sequence(n: int) -> list[int]:
    # the path rooted at its center: the lex-largest canonical sequence
    height = n // 2
    return list(range(height + 1)) + list(range(1, n - height))


def _successor_at(seq: list[int], p: int) -> list[int]:
    # lex-next canonical rooted sequence that lowers position p: find the
    # parent position q of p and replicate the segment [q, p) cyclically
    target = seq[p] - 1
    q = p - 1
    while seq[q] != target:
        q -= 1
    period = p - q
    out = seq[:p]
    for i in range(p, len(seq)):
        out.append(out[i - period])
    return out


def _rooted_successor(seq: list[int]) -> list[int] | None:
    p = len(seq) - 1
    while p > 0 and seq[p] < 2:
        p -= 1
    if p == 0:
        return None  # the star has no successor
    return _successor_at(seq, p)


def _split(seq: list[int]) -> tuple[list[int], list[int]]:
    # m = position of the root's second child (len(seq) if the root has one)
    m = len(seq)
    for i in range(2, len(seq)):
        if seq[i] == 1:
            m = i
            break
    left = [d - 1 for d in seq[1:m]]
    rest = [0] + seq[m:]
    return left, rest


def _level_sequences(n: int) -> Iterator[list[int]]:
    if n <= 2:
        yield list(range(n))
        return
    seq: list[int] | None = _start_sequence(n)
    while seq is not None:
        yield seq
        seq = _rooted_successor(seq)
        while seq is not None:
            left, rest = _split(seq)
            if (max(left), len(left), left) <= (max(rest), len(rest), rest):
                break
            # every sequence with this first root subtree is also rejected;
            # len(left) is the index of the subtree's last vertex, whose
            # depth is >= 2 whenever the test fails
            seq = _successor_at(seq, len(left))


def _parents_from_levels(seq: list[int]) -> tuple[int, ...]:
    parent = [ROOT] * len(seq)
    stack = [0]  # stack[d] = vertex at depth d on the current preorder path
    for i in range(1, len(seq)):
        del stack[seq[i]:]
        parent[i] = stack[-1]
        stack.append(i)
    return tuple(parent)


def enumerate_trees(n: int) -> Iterator[CanonicalTree]:
    """Yield every isomorphism class of free trees on n vertices once.

    The stream order is deterministic: canonical level sequences in
    decreasing lexicographic order.
    """
    if n < 1:
        raise ValueError("tree order must be at least 1")
    for seq in _level_sequences(n):
        yield CanonicalTree(n, _parents_from_levels(seq))


def to_graph(tree: CanonicalTree) -> Graph:
    """Graph with edges {i, parent[i]} for every non-root vertex."""
    return graph_from_edges(tree.n, ((tree.parent[i], i) for i in range(1, tree.n)))


def preorder_parents(g: Graph) -> tuple[int, ...]:
    """Parent array of a tree, relabeled by a depth-first preorder from 0.

    parent[0] == ROOT and every subtree is an index range, the form the
    tree kernels in polynomials take. Raises ValueError unless g is a tree.
    """
    n = g.n
    label = [-1] * n
    up = [ROOT] * n  # up[w] = new label of the vertex that pushed w
    parent: list[int] = []
    stack = [0]
    while stack:
        v = stack.pop()
        if label[v] >= 0:
            raise ValueError(f"graph is not a tree: vertex {v} closes a cycle")
        label[v] = len(parent)
        parent.append(up[v])
        for w in g.adj[v]:
            if label[w] < 0:
                up[w] = label[v]
                stack.append(w)
    if len(parent) < n:
        raise ValueError(f"graph is not a tree: vertex {label.index(-1)} is not reachable from 0")
    return tuple(parent)


def _rooted_counts(limit: int) -> list[int]:
    # r[m] = number of rooted trees on m vertices, via the Euler-transform
    # recurrence m*r(m+1) = sum_{k=1..m} (sum_{d|k} d*r(d)) * r(m+1-k)
    r = [0] * (limit + 1)
    if limit >= 1:
        r[1] = 1
    weighted = [0] * (limit + 1)
    for m in range(1, limit):
        weighted[m] = sum(d * r[d] for d in range(1, m + 1) if m % d == 0)
        total = sum(weighted[k] * r[m + 1 - k] for k in range(1, m + 1))
        assert total % m == 0
        r[m + 1] = total // m
    return r


def tree_count_recurrence(n: int) -> int:
    """Number of free trees on n vertices, counted without enumeration.

    Independent of the generator: rooted-tree counts come from the
    Euler-transform recurrence and the rooting ambiguity is removed by
    pairing off root/centroid choices (f = r(n) - sum_{i+j=n} r(i)r(j)/2,
    corrected by r(n/2)/2 for even n).
    """
    if n < 1:
        raise ValueError("tree order must be at least 1")
    r = _rooted_counts(n)
    paired = sum(r[i] * r[n - i] for i in range(1, n))
    doubled = 2 * r[n] - paired + (r[n // 2] if n % 2 == 0 else 0)
    assert doubled % 2 == 0
    return doubled // 2
