"""Inputs and correctness oracle for the analyze_random workload.

Both halves are written against plain edge lists and share no code with
distpoly, so a change to any fast path in the package cannot also change
what the benchmark accepts.

The oracle evaluates det(tI - D) by Gaussian elimination modulo a few
fixed primes, at a few fixed values of t, with D computed here by BFS, and
compares each value with the reported coefficients evaluated at the same
point. A report whose coefficient c_k is off by e != 0 is rejected unless
e * t^k vanishes modulo every prime used, i.e. unless e is a multiple of
their product.
"""

from __future__ import annotations

import random
from collections import Counter, deque
from math import comb

PRIMES = (2_147_483_647, 1_000_000_007, 998_244_353)
T_VALUES = (3, 65_537)

# a fixed composition per seed, so that seeds differ in tree shapes and
# labels but hardly in total work: 6 trees of each order 16..24, one
# non-tree of each order 12..20 (a random spanning tree plus 1, 2 or 3
# extra edges, cycling), and the Heawood graph; 54 of 64 graphs are trees
TREES_PER_ORDER = 6
TREE_ORDERS = range(16, 25)
NON_TREE_ORDERS = range(12, 21)
EXTRA_EDGES = (1, 2, 3)


def heawood_edges() -> list[tuple[int, int]]:
    """Heawood graph from LCF notation [5, -5]^7."""
    edges = [(i, (i + 1) % 14) for i in range(14)]
    edges.extend((i, (i + 5) % 14) for i in range(0, 14, 2))
    return edges


def prufer_tree(rng: random.Random, n: int) -> list[tuple[int, int]]:
    """Uniformly random labeled tree on n >= 3 vertices."""
    code = [rng.randrange(n) for _ in range(n - 2)]
    degree = [1] * n
    for v in code:
        degree[v] += 1
    edges = []
    for v in code:
        leaf = degree.index(1)
        edges.append((leaf, v))
        degree[leaf] -= 1
        degree[v] -= 1
    u, w = (i for i in range(n) if degree[i] == 1)
    edges.append((u, w))
    return edges


def random_specs(seed: int) -> list[dict]:
    """The analyze_random inputs for one seed, in a seeded random order.

    Each spec is {"n", "edges", "is_tree", "extra", "kind"}; `extra` is the
    number of edges beyond a spanning tree.
    """
    rng = random.Random(seed)
    specs = []
    for n in TREE_ORDERS:
        for _ in range(TREES_PER_ORDER):
            specs.append(
                {"n": n, "edges": prufer_tree(rng, n), "is_tree": True, "extra": 0, "kind": "tree"}
            )
    for i, n in enumerate(NON_TREE_ORDERS):
        edges = prufer_tree(rng, n)
        present = {frozenset(e) for e in edges}
        extra = EXTRA_EDGES[i % len(EXTRA_EDGES)]
        while len(edges) < n - 1 + extra:
            u, v = rng.sample(range(n), 2)
            if frozenset((u, v)) not in present:
                present.add(frozenset((u, v)))
                edges.append((u, v))
        specs.append({"n": n, "edges": edges, "is_tree": False, "extra": extra, "kind": "non_tree"})
    specs.append({"n": 14, "edges": heawood_edges(), "is_tree": False, "extra": 8, "kind": "heawood"})
    rng.shuffle(specs)
    return specs


def relabeled(spec: dict, rng: random.Random) -> list[tuple[int, int]]:
    """The spec's edges under a random vertex permutation.

    Each pass analyzes fresh isomorphic copies, so a result cache keyed on
    the input cannot turn repeated passes into lookups. Every field of an
    analyze_graph report is invariant under relabeling.
    """
    perm = list(range(spec["n"]))
    rng.shuffle(perm)
    return [(perm[u], perm[v]) for u, v in spec["edges"]]


def traffic(specs: list[dict]) -> dict:
    """Shape of the generated inputs, printed with every result."""
    kinds = Counter(s["kind"] for s in specs)
    return {
        "graphs": len(specs),
        "trees": kinds["tree"],
        "non_trees": kinds["non_tree"],
        "heawood": kinds["heawood"],
        "tree_share": round(kinds["tree"] / len(specs), 4),
        "order_histogram": dict(sorted(Counter(s["n"] for s in specs).items())),
        "non_tree_extra_edges": dict(
            sorted(Counter(s["extra"] for s in specs if s["kind"] == "non_tree").items())
        ),
    }


def distances(n: int, edges) -> list[list[int]]:
    adj: list[list[int]] = [[] for _ in range(n)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    rows = []
    for source in range(n):
        dist = [-1] * n
        dist[source] = 0
        queue = deque((source,))
        while queue:
            u = queue.popleft()
            for w in adj[u]:
                if dist[w] < 0:
                    dist[w] = dist[u] + 1
                    queue.append(w)
        if min(dist) < 0:
            raise ValueError("generated graph is disconnected")
        rows.append(dist)
    return rows


def det_mod(matrix: list[list[int]], p: int) -> int:
    """Determinant modulo the prime p by Gaussian elimination."""
    m = [[x % p for x in row] for row in matrix]
    n = len(m)
    det = 1
    for k in range(n):
        pivot = next((i for i in range(k, n) if m[i][k]), None)
        if pivot is None:
            return 0
        if pivot != k:
            m[k], m[pivot] = m[pivot], m[k]
            det = -det
        row_k = m[k]
        det = det * row_k[k] % p
        inv = pow(row_k[k], -1, p)
        for i in range(k + 1, n):
            factor = m[i][k] * inv % p
            if factor:
                m[i] = [(a - factor * b) % p for a, b in zip(m[i], row_k)]
    return det % p


def check_report(report, spec: dict) -> list[str]:
    """Problems found in one analyze_graph report; empty when it is correct."""
    n = spec["n"]
    problems = []
    if report.n != n:
        return [f"order {report.n} != {n}"]
    if report.is_tree != spec["is_tree"]:
        problems.append(f"is_tree {report.is_tree} != {spec['is_tree']}")
    if report.failed != ():
        problems.append(f"failed checks {report.failed}")
    coeffs = report.coefficients
    if len(coeffs) != n + 1 or coeffs[-1] != 1:
        return problems + ["coefficients are not a monic polynomial of degree n"]
    dist = distances(n, spec["edges"])
    if report.diameter != max(map(max, dist)):
        problems.append(f"diameter {report.diameter} != {max(map(max, dist))}")
    degrees = Counter(v for e in spec["edges"] for v in e)
    p3 = sum(comb(d, 2) for d in degrees.values())
    if report.p3_count != p3:
        problems.append(f"p3_count {report.p3_count} != {p3}")
    for p in PRIMES:
        for t in T_VALUES:
            expected = det_mod(
                [[(t if i == j else 0) - dist[i][j] for j in range(n)] for i in range(n)], p
            )
            got = 0
            for c in reversed(coeffs):
                got = (got * t + c) % p
            if got != expected:
                problems.append(f"det(tI - D) mod {p} at t={t}: {expected}, polynomial gives {got}")
    return problems
