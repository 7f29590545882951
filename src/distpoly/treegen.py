"""Exhaustive enumeration of free (unlabeled) trees.

A tree is represented by the level sequence of a canonical rooting: the
preorder list of vertex depths with the root at depth 0, children ordered
so the sequence is lexicographically maximal, and the root placed at a
center of the tree. When the tree has two centers the rooting is fixed by
comparing the first root subtree against the rest of the sequence (height,
then size, then lexicographic order), so every isomorphism class produces
exactly one sequence.

Sequences are generated in decreasing lexicographic order from the
center-rooted path, keeping each candidate whose first root subtree is no
greater than the rest in (height, size, sequence). If that subtree
reaches depth top, as its first top vertices do, and has k vertices, the
rest is at most n - 1 - k high: lower for k > n - top, and for k = n - top
at most as high and smaller unless 2 * top = n. So no subtree longer than
cap = n - 1 - top (top if 2 * top = n) passes.

tree_stream, the one generator and public tree stream, steps one level
list and one parent list in place; enumerate_trees and CanonicalTree wrap
it for perfbench/ alone. Each pass over a candidate takes one of three
branches, each picking a position p for _lower_at to lower, keeping every
position before p and rewriting levels and parents from p on in one pass:
- the cut: a first root subtree longer than cap is cut back to its first
  cap vertices, followed by the root's second child;
- the skip: any other rejected subtree is skipped whole at its last
  vertex;
- the rooted step: a kept candidate is yielded, and the last vertex at
  depth 2 or more is lowered, the step of Beyer and Hedetniemi (SIAM J.
  Comput. 9 (1980) 706-712); the star, which has none, is last.
The root's second child m, the first root subtree's height top and cap
read positions 0..m only, so they are re-derived only after a step
lowers one of those positions.
Rejected candidates per tree: 0.35 at order 8, the most over orders
3..18, 0.12 at 15, 0.066 at 18 (3.7 at 15 without the cut). The level
list is the stream's private stepping state: a tree leaves this module
as its preorder parent array only, the one tree form that the folds in
polynomials take and check, and preorder_parents relabels any tree
Graph into it.
"""

from __future__ import annotations

from itertools import repeat
from typing import Iterator, NamedTuple

from .graphs import Graph, graph_from_edges

ROOT = -1  # parent-array sentinel marking the root


class CanonicalTree(NamedTuple):
    """Free tree in canonical rooted form (equal iff isomorphic); perfbench/ only."""

    n: int
    parent: tuple[int, ...]  # a preorder: parent[0] == ROOT, parent[i] on the root path of i - 1


def _lower_at(seq: list[int], parent: list[int], p: int, q: int | None = None) -> None:
    # lex-next canonical rooted sequence that lowers position p to the depth
    # of q, the last position before p at that depth (by default the parent
    # of p): repeat the segment [q, p) over [p, n), in place. The segment is
    # q and vertices of its subtree, so a copy of q is a child of q's parent
    # and any other copy has its model's parent shifted by the period.
    if q is None:
        q = parent[p]
    k = p - q
    d, r = seq[q], parent[q]
    for i in range(p, len(seq)):
        seq[i] = e = seq[i - k]
        parent[i] = r if e == d else parent[i - k] + k


def tree_stream(n: int) -> Iterator[tuple[int, ...]]:
    """The preorder parent array of each free tree on n vertices, as a tuple.

    Every isomorphism class once, in decreasing lexicographic order of the
    canonical level sequences; ValueError on the first next if n < 1. One
    level list and one parent list are stepped in place.
    """
    if n < 1:
        raise ValueError("tree order must be at least 1")
    height = n // 2
    seq = list(range(height + 1)) + list(range(1, n - height))  # the center-rooted path
    parent = [ROOT, *range(height), 0, *range(height + 1, n - 1)][:n]  # and its parents
    p = m = 0  # so the first pass derives m, top and cap
    while True:
        if p <= m:  # the last step lowered one of the positions 0..m they read
            try:
                m = seq.index(1, 2)  # the root's second child
            except ValueError:
                m = n
            top = max(seq[:m])  # 0 for the single vertex
            cap = max(n - 1 - top, top)
        if m - 1 > cap:
            p, q = cap + 1, 1  # cut the subtree back to its first cap vertices
        else:
            # (height, size) of the first root subtree and of the rest
            left, rest = (top - 1, m - 1), (max(seq[m:]) if m < n else 0, n - m + 1)
            if left > rest or (left == rest and [d - 1 for d in seq[1:m]] > [0] + seq[m:]):
                p, q = m - 1, None  # skip the whole subtree at its last vertex, at depth >= 2
            else:
                yield tuple(parent)
                # the rooted step lowers the last vertex at depth >= 2
                p = n - 1
                while p > 0 and seq[p] < 2:
                    p -= 1
                if p == 0:
                    return  # the star is last
                q = None
        # each step keeps the positions before p and lowers p
        _lower_at(seq, parent, p, q)


def enumerate_trees(n: int) -> Iterator[CanonicalTree]:
    """tree_stream(n)'s trees, in its order, as CanonicalTree records.

    The interface of the benchmark in perfbench/, its only reader: a map
    of CanonicalTree over tree_stream's parent arrays, with no generator
    frame of its own; ValueError on the first next if n < 1.
    """
    return map(CanonicalTree, repeat(n), tree_stream(n))


def to_graph(parent: tuple[int, ...]) -> Graph:
    """Graph with edges {parent[i], i}; preorder_parents maps it back, up to sibling order."""
    return graph_from_edges(len(parent), zip(parent[1:], range(1, len(parent))))


def preorder_parents(g: Graph) -> tuple[int, ...]:
    """Parent array of a tree, relabeled by a depth-first preorder from 0.

    parent[0] == ROOT and each other parent[i] lies on the root path of
    i - 1, the form that the folds in polynomials take. Raises ValueError
    unless g is a tree.
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
