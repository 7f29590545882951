"""Independent brute-force oracles shared across the test suite.

Nothing here reuses the package's canonical form or generation machinery:
trees come from Prufer codes, isomorphism classes from a center-rooted
AHU encoding, subgraph counts from explicit triple enumeration,
determinants from Bareiss elimination, characteristic polynomials of
any square matrix from general Berkowitz (the package's charpoly is its
symmetric form), free-tree canonicity from the
spelled-out height, size, order cascade, the rooted stream from its own
lowering step and the free-tree stream from plain generate-and-reject,
Newton's inequalities from their binomial
form and unimodality by trying every peak; log-concavity, unimodality
and the peak interval also in the plain index loops they were first
written as. The one exception is scaled_poly, which rescales the package's
Berkowitz polynomial. The path, the star and the edge-list writer are
fixtures built on the package's Graph. tree_charpoly_leaf_to_root runs
the Graham-Lovasz recursion leaf to root with every degree known up
front, and parents_from_levels builds each parent array from scratch
from an oracle level sequence: the references for the package's stream
fold and its stream's parent arrays, which both restart at each tree's
first changed position; levels_from_parents goes the other way round.
packed_traces multiplies packed rows by D three times from the parent
array: the reference for the package's trace fold.
"""

from __future__ import annotations

import heapq
import itertools
from collections import deque
from fractions import Fraction
from math import comb
from multiprocessing import Pool
from operator import and_, lshift, mul, rshift

from distpoly.graphs import Graph, graph_from_edges
from distpoly.polynomials import CharPoly, charpoly


def path_graph(n: int) -> Graph:
    return graph_from_edges(n, ((i, i + 1) for i in range(n - 1)))


def star_graph(n: int) -> Graph:
    """Star on n vertices with center 0."""
    return graph_from_edges(n, ((0, i) for i in range(1, n)))


def to_edge_list(g: Graph) -> str:
    """Serialize as an edge-list document that from_edge_list round-trips."""
    lines = [f"n={g.n}"]
    lines.extend(f"{u} {v}" for u, v in g.edges())
    return "\n".join(lines) + "\n"


def prufer_decode(code, n: int) -> list[list[int]]:
    """Labeled tree on n >= 3 vertices from a Prufer code of length n-2."""
    degree = [1] * n
    for x in code:
        degree[x] += 1
    adj: list[list[int]] = [[] for _ in range(n)]
    leaves = [v for v in range(n) if degree[v] == 1]
    heapq.heapify(leaves)
    for x in code:
        leaf = heapq.heappop(leaves)
        adj[leaf].append(x)
        adj[x].append(leaf)
        degree[x] -= 1
        if degree[x] == 1:
            heapq.heappush(leaves, x)
    u = heapq.heappop(leaves)
    v = heapq.heappop(leaves)
    adj[u].append(v)
    adj[v].append(u)
    return adj


def random_tree_adj(rng, n: int) -> list[list[int]]:
    if n == 1:
        return [[]]
    if n == 2:
        return [[1], [0]]
    return prufer_decode([rng.randrange(n) for _ in range(n - 2)], n)


def random_bfs_parents(rng, parent) -> tuple[int, ...]:
    """The tree of a parent array, relabeled in BFS order from a random root.

    Children are visited in random order, so every parent still comes
    before its child, but most subtrees are no longer index ranges.
    """
    n = len(parent)
    adj: list[list[int]] = [[] for _ in range(n)]
    for v in range(1, n):
        adj[v].append(parent[v])
        adj[parent[v]].append(v)
    root = rng.randrange(n)
    label = {root: 0}
    relabeled = [-1]
    queue = deque([root])
    while queue:
        v = queue.popleft()
        children = [w for w in adj[v] if w not in label]
        rng.shuffle(children)
        for w in children:
            label[w] = len(relabeled)
            relabeled.append(label[v])
            queue.append(w)
    return tuple(relabeled)


def is_preorder(parent) -> bool:
    """Whether each parent[i], i > 0, lies on the root path of i - 1.

    Walks each root path up, where the tree kernels track it; parent must
    list each parent before its child.
    """
    for i in range(1, len(parent)):
        v = i - 1
        while v != parent[i]:
            if v == 0:
                return False
            v = parent[v]
    return True


def ahu_form(adj) -> tuple:
    """Canonical nested-tuple encoding of a free tree, rooted at a center.

    Only the bucketing property matters: two trees get the same form iff
    they are isomorphic.
    """
    n = len(adj)
    if n == 1:
        return ()
    deg = [len(nbrs) for nbrs in adj]
    removed = [False] * n
    layer = [v for v in range(n) if deg[v] == 1]
    remaining = n
    while remaining > 2:
        for v in layer:
            removed[v] = True
        remaining -= len(layer)
        nxt = []
        for v in layer:
            for w in adj[v]:
                if not removed[w]:
                    deg[w] -= 1
                    if deg[w] == 1:
                        nxt.append(w)
        layer = nxt
    centers = [v for v in range(n) if not removed[v]]

    def encode(v: int, parent: int) -> tuple:
        return tuple(
            sorted((encode(w, v) for w in adj[v] if w != parent), reverse=True)
        )

    return max(encode(c, -1) for c in centers)


def prufer_form_census(n: int) -> dict[tuple, int]:
    """Canonical form -> labeled-tree count, over all n^(n-2) Prufer codes."""
    if n == 1:
        return {ahu_form([[]]): 1}
    if n == 2:
        return {ahu_form([[1], [0]]): 1}
    census: dict[tuple, int] = {}
    for code in itertools.product(range(n), repeat=n - 2):
        form = ahu_form(prufer_decode(code, n))
        census[form] = census.get(form, 0) + 1
    return census


def _census_slice(args) -> dict[tuple, int]:
    n, first = args
    census: dict[tuple, int] = {}
    for rest in itertools.product(range(n), repeat=n - 3):
        form = ahu_form(prufer_decode((first,) + rest, n))
        census[form] = census.get(form, 0) + 1
    return census


def prufer_form_census_parallel(n: int, jobs: int) -> dict[tuple, int]:
    """Same census, fanned out over the first Prufer symbol."""
    assert n >= 4
    census: dict[tuple, int] = {}
    with Pool(jobs) as pool:
        for part in pool.imap_unordered(_census_slice, ((n, f) for f in range(n))):
            for form, count in part.items():
                census[form] = census.get(form, 0) + count
    return census


def count_p3_subgraphs(adj) -> int:
    """Paths with two edges, counted per vertex triple.

    A triple spanning two edges holds one such path, a triangle holds
    three; on triangle-free graphs this equals the induced-path count.
    """
    n = len(adj)
    sets = [set(nbrs) for nbrs in adj]
    total = 0
    for a, b, c in itertools.combinations(range(n), 3):
        edges = (b in sets[a]) + (c in sets[a]) + (c in sets[b])
        if edges == 2:
            total += 1
        elif edges == 3:
            total += 3
    return total


def bfs_girth(adj) -> int | None:
    """Shortest cycle length, or None for a forest."""
    n = len(adj)
    best = None
    for s in range(n):
        dist = [-1] * n
        parent = [-1] * n
        dist[s] = 0
        queue = deque([s])
        while queue:
            u = queue.popleft()
            for w in adj[u]:
                if dist[w] < 0:
                    dist[w] = dist[u] + 1
                    parent[w] = u
                    queue.append(w)
                elif parent[u] != w:
                    cycle = dist[u] + dist[w] + 1
                    if best is None or cycle < best:
                        best = cycle
    return best


def graph6_encode(adj) -> str:
    """Encode adjacency lists in graph6 form (test-side inverse of decoding)."""
    n = len(adj)
    sets = [set(nbrs) for nbrs in adj]
    bits = []
    for v in range(1, n):
        for u in range(v):
            bits.append(1 if v in sets[u] else 0)
    while len(bits) % 6:
        bits.append(0)
    if n <= 62:
        prefix = chr(n + 63)
    else:
        assert n <= 258047
        prefix = "~" + "".join(
            chr(((n >> shift) & 63) + 63) for shift in (12, 6, 0)
        )
    body = []
    for i in range(0, len(bits), 6):
        value = 0
        for bit in bits[i : i + 6]:
            value = value * 2 + bit
        body.append(chr(value + 63))
    return prefix + "".join(body)


def random_connected_adj(rng, n: int, extra_edges: int = 0) -> list[list[int]]:
    """Random connected graph: a random tree plus extra random edges."""
    adj = random_tree_adj(rng, n)
    sets = [set(nbrs) for nbrs in adj]
    candidates = [
        (u, v)
        for u in range(n)
        for v in range(u + 1, n)
        if v not in sets[u]
    ]
    rng.shuffle(candidates)
    for u, v in candidates[:extra_edges]:
        adj[u].append(v)
        adj[v].append(u)
    return adj


def is_canonical_free(seq) -> bool:
    """Whether a rooted level sequence is the canonical rooting of its free tree.

    The cascade of Beyer and Hedetniemi, spelled out: split the sequence
    at the root's second child into the first root subtree (depths less
    one) and the rest; the rooting is canonical when the subtree is lower
    than the rest, or as high and smaller, or as high, as large and
    lexicographically no greater. A single vertex has no root subtree.
    """
    if len(seq) < 2:
        return True
    m = next((i for i in range(2, len(seq)) if seq[i] == 1), len(seq))
    left = [d - 1 for d in seq[1:m]]
    rest = [0] + list(seq[m:])
    if max(left) != max(rest):
        return max(left) < max(rest)
    if len(left) != len(rest):
        return len(left) < len(rest)
    return left <= rest


def _lowered_at(seq: list[int], p: int) -> list[int]:
    # lex-next rooted sequence lowering position p by one: repeat the segment
    # from p's parent position up to p cyclically
    q = p - 1
    while seq[q] != seq[p] - 1:
        q -= 1
    out = seq[:p]
    for i in range(p, len(seq)):
        out.append(out[i - (p - q)])
    return out


def rooted_sequences(n: int):
    """Every rooted level sequence of order n, in the Beyer-Hedetniemi order
    from the center-rooted path down to the star."""
    seq = list(range(n // 2 + 1)) + list(range(1, n - n // 2))
    while True:
        yield seq
        p = n - 1
        while p > 0 and seq[p] < 2:
            p -= 1
        if p == 0:
            return  # the star is last
        seq = _lowered_at(seq, p)


def _split_at_second_child(seq: list[int]) -> tuple[list[int], list[int]]:
    m = next((i for i in range(2, len(seq)) if seq[i] == 1), len(seq))
    return [d - 1 for d in seq[1:m]], [0] + seq[m:]


def level_sequences_by_rejection(n: int):
    """Free-tree level sequences by generate-and-reject, in stream order.

    The Beyer-Hedetniemi rooted stream from the center-rooted path down,
    keeping each candidate whose first root subtree passes the (height,
    size, sequence) test; a rejected candidate skips only the block of
    candidates that share its first root subtree, never cutting that
    subtree short.
    """
    if n <= 2:
        yield list(range(n))
        return
    seq = list(range(n // 2 + 1)) + list(range(1, n - n // 2))
    while True:
        yield seq
        p = n - 1
        while p > 0 and seq[p] < 2:
            p -= 1
        if p == 0:
            return  # the star is last
        seq = _lowered_at(seq, p)
        while True:
            left, rest = _split_at_second_child(seq)
            if (max(left), len(left), left) <= (max(rest), len(rest), rest):
                break
            # every candidate with this first root subtree fails too
            seq = _lowered_at(seq, len(left))


def newton_binomial(coeffs) -> bool:
    """Newton's inequalities in their binomial form: for a_0..a_n,
    a_j^2 C(n,j+1) C(n,j-1) >= a_{j+1} a_{j-1} C(n,j)^2 for 1 <= j <= n-1."""
    n = len(coeffs) - 1
    return all(
        coeffs[j] ** 2 * comb(n, j + 1) * comb(n, j - 1)
        >= coeffs[j + 1] * coeffs[j - 1] * comb(n, j) ** 2
        for j in range(1, n)
    )


def unimodal_by_definition(seq) -> bool:
    """Some peak index splits seq into a nondecreasing and a nonincreasing part."""
    return any(
        all(seq[i] <= seq[i + 1] for i in range(peak))
        and all(seq[i] >= seq[i + 1] for i in range(peak, len(seq) - 1))
        for peak in range(len(seq))
    )


def log_concave_by_loop(seq) -> bool:
    """a_j^2 >= a_{j-1} a_{j+1} for every interior j, one index at a time."""
    values = list(seq)
    if not values:
        raise ValueError("empty sequence")
    for j in range(1, len(values) - 1):
        if values[j] * values[j] < values[j - 1] * values[j + 1]:
            return False
    return True


def unimodal_by_loop(seq) -> bool:
    """Climb while nondecreasing, then descend while nonincreasing; unimodal
    when that reaches the end."""
    values = list(seq)
    if not values:
        raise ValueError("empty sequence")
    i = 1
    while i < len(values) and values[i - 1] <= values[i]:
        i += 1
    while i < len(values) and values[i - 1] >= values[i]:
        i += 1
    return i == len(values)


def peak_by_loop(seq) -> tuple[int, int]:
    """First and last index of the maximum, from the front and from the back."""
    values = list(seq)
    if not values:
        raise ValueError("empty sequence")
    top = max(values)
    return values.index(top), len(values) - 1 - values[::-1].index(top)


def evaluate(coeffs, t: int) -> int:
    """Value at t of the polynomial with ascending coefficients coeffs."""
    acc = 0
    for c in reversed(coeffs):
        acc = acc * t + c
    return acc


def det_at(matrix, t: int) -> int:
    """det(tI - M) by fraction-free Gaussian elimination (Bareiss), exact."""
    rows = [list(row) for row in matrix]
    n = len(rows)
    if any(len(row) != n for row in rows):
        raise ValueError("matrix must be square")
    if n == 0:
        return 1
    M = [[(t if i == j else 0) - rows[i][j] for j in range(n)] for i in range(n)]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if M[k][k] == 0:
            for r in range(k + 1, n):
                if M[r][k] != 0:
                    M[k], M[r] = M[r], M[k]
                    sign = -sign
                    break
            else:
                return 0
        pivot = M[k][k]
        row_k = M[k]
        for i in range(k + 1, n):
            row_i = M[i]
            factor = row_i[k]
            for j in range(k + 1, n):
                # Bareiss guarantees the division by the previous pivot is exact
                row_i[j] = (row_i[j] * pivot - factor * row_k[j]) // prev
            row_i[k] = 0
        prev = pivot
    return sign * M[n - 1][n - 1]


def berkowitz(matrix) -> CharPoly:
    """det(xI - M) of any square integer matrix by general Berkowitz.

    The reference for the package's charpoly, which takes symmetric input
    only and, with the row of each step the transpose of its column, needs
    half the Krylov vectors: here step k takes all size - 1 of them and
    dots each with the row.
    """
    M = [tuple(row) for row in matrix]
    n = len(M)
    if any(len(row) != n for row in M):
        raise ValueError("matrix must be square")
    coeffs = [1]  # descending, for the trailing 0x0 principal block
    for k in range(n - 1, -1, -1):
        size = n - k - 1  # order of the block below and right of row k
        toeplitz = [1, -M[k][k]]
        if size:
            row = M[k][k + 1:]
            block = [r[k + 1:] for r in M[k + 1:]]
            vec = [M[i][k] for i in range(k + 1, n)]
            toeplitz.append(-sum(map(mul, row, vec)))
            for _ in range(size - 1):
                vec = [sum(map(mul, brow, vec)) for brow in block]
                toeplitz.append(-sum(map(mul, row, vec)))
        # entry i of the product is sum over j of toeplitz[i - j] * coeffs[j]
        product = [0] * (len(coeffs) + 1)
        for j, c in enumerate(coeffs):
            for i, t in enumerate(toeplitz[: len(product) - j], j):
                product[i] += t * c
        coeffs = product
    coeffs.reverse()
    return CharPoly(n, tuple(coeffs))


def scaled_poly(dm) -> tuple[Fraction, ...]:
    """Ascending coefficients of -det(2xI - D) / 2^(n-2) for a tree matrix.

    The x^n coefficient is -4, the x^(n-1) coefficient is 0, and the
    remaining ones reproduce the normalized coefficient sequence.
    """
    rows = [tuple(row) for row in dm]
    n = len(rows)
    if n < 3:
        raise ValueError("scaled polynomial needs order at least 3")
    ones = sum(row.count(1) for row in rows)
    if ones != 2 * (n - 1):
        raise ValueError("distance matrix does not belong to a tree")
    p = charpoly(rows)
    scale = 1 << (n - 2)
    return tuple(Fraction(-(c << k), scale) for k, c in enumerate(p.coeffs))


def _poly_sum(size: int, *terms) -> list[int]:
    """Ascending coefficients of sum(k * x^s * a * b) over terms (k, s, a, b)."""
    out = [0] * size
    for k, s, a, b in terms:
        for i, ai in enumerate(a, s):
            if ai:
                ai *= k
                for j, bj in enumerate(b, i):
                    out[j] += ai * bj
    return out


def tree_charpoly_lists(adj) -> tuple[int, ...]:
    """Ascending coefficients of det(xI - D) for a tree on n >= 3 vertices.

    The Graham-Lovasz leaf-to-root recursion with every polynomial held as
    a coefficient list: the reference for the package's packed-integer
    kernel, which runs the same recursion on values at a power of two.
    """
    n = len(adj)
    parent = [-1] * n
    parent[0] = 0
    order = [0]
    for u in order:
        for w in adj[u]:
            if parent[w] < 0:
                parent[w] = u
                order.append(w)
    assert len(order) == n and sum(map(len, adj)) == 2 * (n - 1)
    A = [[2, len(nbrs)] for nbrs in adj]
    B = [[1]] * n
    S = [[2 - len(nbrs)] for nbrs in adj]
    W = [[(2 - len(nbrs)) ** 2] for nbrs in adj]
    V: list[list[int]] = [[]] * n
    for c in reversed(order[1:]):
        p = parent[c]
        a, b, s, w, v = A[p], B[p], S[p], W[p], V[p]
        ac, bc, sc, wc, vc = A[c], B[c], S[c], W[c], V[c]
        size = len(a) + len(ac) - 2
        A[p] = _poly_sum(size + 1, (1, 0, a, ac), (-1, 2, b, bc))
        B[p] = _poly_sum(size, (1, 0, b, ac))
        S[p] = _poly_sum(size, (1, 0, s, ac), (1, 1, b, sc))
        W[p] = _poly_sum(
            size,
            (1, 0, w, ac),
            (-1, 2, v, bc),
            (1, 0, a, wc),
            (-1, 2, b, vc),
            (2, 1, s, sc),
        )
        V[p] = _poly_sum(size - 1, (1, 0, v, ac), (1, 0, b, wc))
    P, Q = A[0], W[0]
    coeffs = []
    for k in range(n + 1):
        num = (n - 1) * P[k] - (Q[k - 1] if k else 0)
        assert num % 4 == 0
        coeffs.append(-num // 4)
    return tuple(coeffs)


def tree_charpoly_leaf_to_root(parent) -> CharPoly:
    """det(xI - D) of a tree from a parent-before-child parent array.

    The same Graham-Lovasz recursion as the package's fold, run leaf to
    root with every degree known up front and each polynomial packed at
    X = 2^w, w = bitlen(n^2 4^n) + 1: the reference for the fold's
    symbolic degrees, its leaf shortcut and its restarts.
    """
    n = len(parent)
    assert n >= 3 and parent[0] == -1 and all(0 <= parent[i] < i for i in range(1, n))
    degree = [1] * n
    degree[0] = 0
    for p in parent[1:]:
        degree[p] += 1
    w = (n * n << 2 * n).bit_length() + 1
    w2 = 2 * w
    A = [2 + (deg << w) for deg in degree]
    B = [1] * n
    S = [2 - deg for deg in degree]
    W = [t * t for t in S]
    V = [0] * n
    for c in range(n - 1, 0, -1):
        p = parent[c]
        a, b, s, v = A[p], B[p], S[p], V[p]
        ac, bc, sc, wc, vc = A[c], B[c], S[c], W[c], V[c]
        A[p] = a * ac - ((b * bc) << w2)
        B[p] = b * ac
        S[p] = s * ac + ((b * sc) << w)
        W[p] = W[p] * ac + a * wc + ((s * sc) << (w + 1)) - ((v * bc + b * vc) << w2)
        V[p] = v * ac + b * wc
    num = (n - 1) * A[0] - (W[0] << w)
    mask = (1 << w) - 1
    coeffs = []
    for _ in range(n + 1):
        digit = num & mask
        num >>= w
        if digit >= 1 << (w - 1):
            digit -= mask + 1
            num += 1
        assert digit % 4 == 0
        coeffs.append(-digit // 4)
    assert num == 0
    return CharPoly(n, tuple(coeffs))


def levels_from_parents(parent) -> list[int]:
    """Level sequence of a parent-before-child parent array: each vertex
    one level below its parent."""
    levels = [0] * len(parent)
    for i in range(1, len(parent)):
        levels[i] = levels[parent[i]] + 1
    return levels


def parents_from_levels(seq) -> tuple[int, ...]:
    """Parent array of a level sequence: each vertex's parent is the
    latest vertex one level up."""
    parent = [-1] * len(seq)
    last = [0] * len(seq)  # last[d] = latest vertex at depth d
    for i in range(1, len(seq)):
        d = seq[i]
        parent[i] = last[d - 1]
        last[d] = i
    return tuple(parent)


def packed_traces(parent) -> tuple[int, int, int]:
    """(tr(D^2), tr(D^3), diameter) of a tree from a parent-before-child
    parent array, by packed rows: the reference for the package's
    trace_fold.

    Each row of D, D^2 and D^3 is one int, its value at X = 2^b: row i
    of a matrix M is sum_j M_ij X^j. For any rows M_j, row i of D M is
    sum_j d(i, j) M_j. For the parent p of i,
    d(i, j) = d(p, j) + 1 - 2 [j in subtree(i)], so
    (DM)_i = (DM)_p + total - 2 sub_i, where total sums every M_j and
    sub_i sums M_j over the subtree of i, accumulated leaf to root; the
    root's row is sum_j depth_j M_j. That one step, applied three times
    from the identity rows X^j, gives the rows of D, then D^2, then D^3.
    Each trace is read in one pass: row i shifted down by i digits has
    digit i of row i as its digit 0, so digit 0 of the sum of the shifted
    rows is the trace. The diameter is the largest digit of the row of D
    at a deepest vertex, since a vertex farthest from the root ends a
    longest path.

    Every int here is a polynomial in X with nonnegative coefficients,
    so its base-X digits read exactly when each coefficient is below X.
    The largest entries are those of D^3: with d(i, j) < n, entries of
    D^2 are sums of n terms below n^2, so below n^3, and entries of D^3
    sums of n terms below n * n^3, so below n^5. A carry only moves up,
    so digit 0 of a sum of shifted rows, the lowest, is the trace modulo
    X; it is the trace itself because the trace sums n diagonal entries
    below n^5, so it is below n^6 < X = 2^(bitlen(n^6) + 1).
    """
    n = len(parent)
    assert n >= 1 and parent[0] == -1 and all(0 <= parent[i] < i for i in range(1, n))
    levels = levels_from_parents(parent)
    b = (n ** 6).bit_length() + 1
    mask = (1 << b) - 1
    digits = range(0, n * b, b)  # the shift of each digit

    def times_d(rows):
        """The rows of D M from the rows of M."""
        sub = rows[:]
        for i in range(n - 1, 0, -1):
            sub[parent[i]] += sub[i]
        total = sub[0]
        out = [sum(map(mul, levels, rows))] * n
        for i in range(1, n):
            out[i] = out[parent[i]] + total - 2 * sub[i]
        return out

    d1 = times_d(list(map(lshift, itertools.repeat(1), digits)))  # from the identity rows X^j
    d2 = times_d(d1)
    d3 = times_d(d2)
    tr2 = sum(map(rshift, d2, digits)) & mask
    tr3 = sum(map(rshift, d3, digits)) & mask
    far = d1[levels.index(max(levels))]
    diameter = max(map(and_, map(rshift, itertools.repeat(far), digits), itertools.repeat(mask)))
    return tr2, tr3, diameter
