"""Exact characteristic polynomials of integer matrices and derived sequences.

Everything here is integer or dyadic-rational arithmetic; no floating
point. The characteristic polynomial of a symmetric matrix, as every
distance matrix is, is computed with the symmetric form of the
division-free Berkowitz algorithm; trees take a structural kernel
built on Graham and Lovasz's closed form for the inverse distance matrix,
which packs each polynomial into one Python int (Kronecker substitution)
so that its products run as C-level big-integer multiplies; the tests
check both against an independent Bareiss determinant (tests/oracles.py).
The tree kernel (level_fold) folds a preorder parent array vertex by
vertex; the traces of D^2 and D^3 and the diameter come from a second
fold (trace_fold) over path-metric moments of each subtree. Each fold
keeps the state of every prefix and refolds a tree only from where it
first differs from the last one folded; that restart, and the check of
the array, are written once (_restartable), while the two folds share
no state and no identity. Both take the parent arrays that treegen
makes, so no tree ever forms its distance matrix.
Normalized coefficients are ints wherever they are integral, which they
are for every tree, so only non-trees ever build a Fraction.
"""

from __future__ import annotations

from fractions import Fraction
from functools import wraps
from itertools import chain, islice
from operator import itemgetter, mul, neg
from typing import NamedTuple

from .treegen import ROOT


def _rows(matrix) -> list[tuple[int, ...]]:
    """Rows of a square symmetric integer matrix; ValueError on any other."""
    # tuple() of a tuple is the same object, so distance rows are not copied
    rows = [tuple(row) for row in matrix]
    if any(len(row) != len(rows) for row in rows):
        raise ValueError("matrix must be square")
    if rows != list(zip(*rows)):
        raise ValueError("matrix must be symmetric")
    return rows


class CharPoly(NamedTuple):
    """det(xI - M) as ascending integer coefficients c_0..c_n, c_n == 1."""

    n: int
    coeffs: tuple[int, ...]


def charpoly(matrix) -> CharPoly:
    """Characteristic polynomial det(xI - M) of a symmetric M by Berkowitz.

    Division-free over the integers, so exact for any symmetric integer
    matrix; raises ValueError on any other input. A 0x0 input yields the
    constant polynomial 1. Step k borders the block A below and right of
    row k with the column C below M[k][k]; its Toeplitz column holds the
    products R A^j C for j < size, the order of A. Symmetry makes the row
    R equal to C^T and A symmetric, so R A^j C = u_a . u_(j-a) for
    u_i = A^i C and a = j // 2, and the step needs u_0 .. u_(size // 2):
    size // 2 matrix-vector products where general Berkowitz takes
    size - 1, which halves the ~n^4/4 big-int products to ~n^4/8.
    """
    M = _rows(matrix)
    n = len(M)
    coeffs = [1]  # descending, for the trailing 0x0 principal block
    for k in range(n - 1, -1, -1):
        size = n - k - 1
        toeplitz = [1, -M[k][k]]
        if size:
            block = [r[k + 1:] for r in M[k + 1:]]
            krylov = [M[k][k + 1:]]  # u_0: the row past the pivot, equal to C
            for _ in range(size // 2):
                krylov.append([sum(map(mul, brow, krylov[-1])) for brow in block])
            toeplitz += [-sum(map(mul, krylov[j // 2], krylov[j - j // 2])) for j in range(size)]
        # multiply the previous coefficient vector by the Toeplitz column, one
        # entry longer: entry i is sum over j of toeplitz[i - j] * coeffs[j]
        rev = toeplitz[::-1]
        coeffs = [sum(map(mul, rev[-1 - i:], coeffs)) for i in range(len(coeffs) + 1)]
    coeffs.reverse()
    return CharPoly(n, tuple(coeffs))


def _restartable(rules):
    """A fold factory from rules(n) -> (opened, leaf, absorb, result).

    factory(n) raises ValueError when n < 3 and returns fold(parent) over
    preorder parent arrays of order n: parent[0] == ROOT and each other
    parent[i] on the root path of i - 1. The open vertices, the root path
    of the latest one, are nested tuples, each ending in the one below:
    opened is a vertex with no children, leaf(state) has the top one
    absorb a leaf, absorb(state) closes it into the one below, and
    result(state) reads the root. fold restarts from the snapshot before
    the first position where parent differs from a copy of the last array,
    since equal parent prefixes are equal tree prefixes, and raises
    ValueError unless len(parent) == n, parent[0] == ROOT and, on the
    refolded suffix, each parent[i] lies on the root path of i - 1 (the
    prefix was checked when it was folded).

    Each fold has its own snapshots and copy, so level_fold and
    trace_fold share this code but no state and no math: a carried-state
    error in either shows as a trace_identities violation unless both
    err alike on d_(n-2) and d_(n-3). An error here would hit both; the
    tests compare each fold with a reference that folds trees afresh.
    """

    @wraps(rules)
    def factory(n: int):
        if n < 3:
            raise ValueError("tree kernel needs order at least 3")
        opened, leaf, absorb, result = rules(n)
        # snaps[i]: the open ancestors of vertex i, nearest first; vertex i is
        # open too, with no children yet, so it is left implicit
        snaps: list = [None] * (n + 1)
        last = [ROOT]  # a copy of the last array folded, as far as snaps hold it

        def fold(parent):
            if len(parent) != n or parent[0] != ROOT:
                raise ValueError(f"a parent array of order {n} has {n} entries, from {ROOT}")
            start = 1
            stop = len(last)
            while start < stop and parent[start] == last[start]:
                start += 1
            del last[start:]  # a fold that raises midway leaves snaps valid up to here
            state = snaps[start - 1]
            # a last vertex hung off the root closes every vertex below it
            for i, p in enumerate(chain(islice(parent, start, None), (0,)), start):
                if p == i - 1:  # vertex i - 1 is the parent of i
                    state = opened + (state,)
                elif not 0 <= p < i:  # checked before the walk, which would close the root
                    break
                else:  # vertex i - 1 is a leaf
                    state = leaf(state)
                    a = parent[i - 1]
                    while a > p:  # close the ancestors of i - 1 below p
                        state = absorb(state)
                        a = parent[a]
                    if a != p:
                        break
                snaps[i] = state
            else:
                last.extend(islice(parent, start, None))
                return result(state)
            raise ValueError(f"parent[{i}] = {p} is not on the root path of vertex {i - 1}")

        return fold

    return factory


@_restartable
def level_fold(n: int):
    """det(xI - D) of trees of order n given as preorder parent arrays,
    folded from the first position at which each differs from the one
    before.

    Returns fold(parent) -> CharPoly, restarted and checked by
    _restartable.

    Graham and Lovasz give D^-1 = -L/2 + tau tau^T / (2(n-1)) with
    tau_v = 2 - deg v, so the matrix determinant lemma yields
    det(xI - D) = -((n-1) P(x) - x Q(x)) / 4 for M = 2I + xL,
    P = det M and Q = tau^T adj(M) tau. Both come from five integer
    polynomials per vertex v over the block of M on v's subtree: A (its
    determinant), B (the same with v deleted), S (tau-weighted open paths
    ending at v), W (closed paths) and V (closed paths avoiding v, with v
    deleted). A vertex of degree delta with no children yet has
    A = a0 = 2 + delta x, B = 1, S = s0 = 2 - delta, W = s0^2 and V = 0,
    and absorbing a closed child c gives
      A <- A A_c - x^2 B B_c,  B <- B A_c,  S <- S A_c + x B S_c,
      W <- W A_c + A W_c + 2x S S_c - x^2 (V B_c + B V_c),
      V <- V A_c + B W_c,
    which is division-free: O(n^2) coefficient operations against the
    ~n^4/8 of Berkowitz. P and Q are A and W of the root.

    In preorder a vertex's degree is known only once it closes, so each
    open vertex (the root path of the latest one) keeps its children's
    fold with its degree symbolic: five ints B, alpha, sigma, V, omega,
    from (1, 0, 0, 0, 0), with A = a0 B + alpha, S = s0 B + sigma and
    W = s0^2 B + a0 V + 2 s0 sigma + omega; the rules above split into
      alpha <- alpha A_c - x^2 B B_c,  sigma <- sigma A_c + x B S_c,
      omega <- omega A_c + alpha W_c + 2x sigma S_c - x^2 (V B_c + B V_c),
    plus the child count that gives delta. (The part of W linear in s0
    obeys sigma's rule doubled, so it is 2 s0 sigma.) A leaf closes to
    the constant (A, B, S, W, V) = (2 + x, 1, 1, 1, 0), so absorbing one
    takes small multiples and shifts only.

    Each polynomial is held as one int, its value at X = 2^w (Kronecker
    substitution), so a product of polynomials is one big-int multiply
    and x^j f is f << j*w. Evaluation at X is a ring map, so the fold is
    exact whatever the sizes of the intermediate coefficients; only the
    numerator N = (n-1) P - x Q is decoded, into balanced base-X digits,
    and that is exact when every coefficient of N lies below 2^(w-1) in
    absolute value. It does, for w = bitlen(n^2 4^n) + 1:
    P(x) = prod_i (2 + x mu_i) over the Laplacian eigenvalues mu_i >= 0,
    so its coefficients are nonnegative and sum to prod_i (2 + mu_i),
    at most 4^n by AM-GM since sum_i mu_i = 2(n-1). With unit
    eigenvectors u_i, Q(x) = sum_i (tau.u_i)^2 prod_{j != i} (2 + x mu_j)
    also has nonnegative coefficients, summing to at most
    |tau|^2 4^n / 2, and |tau|^2 <= n^2. Every coefficient of N is a
    difference of two nonnegative terms, so below n^2 4^n in absolute
    value.
    """
    w = (n * n << 2 * n).bit_length() + 1
    w1 = w + 1
    w2 = 2 * w
    closed_leaf = 2 + (1 << w)
    # an open vertex that has absorbed one leaf and nothing else
    # (the general rule from (0, 1, 0, 0, 0, 0) gives the same ints; this saves ~12% on one tree)
    one_leaf = (1, closed_leaf, -(1 << w2), 1 << w, 1, 0)
    # N is decoded from bias - N, whose base-X digits half - N_j all lie
    # in [0, X), each a multiple of 4 exactly when N_j is
    half = 1 << (w - 1)
    top = 1 << (n + 1) * w
    mask = (1 << w) - 1
    ones = (top - 1) // mask  # every base-X digit 1
    bias = ones << (w - 1)
    fours = 3 * ones
    shifts = range(0, (n + 1) * w, w)

    # a state is (child count, B, alpha, sigma, V, omega, rest)
    def leaf(state):
        k, B, al, si, V, om, rest = state
        if not k:
            return one_leaf + (rest,)
        return (
            k + 1,
            B * closed_leaf,
            al * closed_leaf - (B << w2),
            si * closed_leaf + (B << w),
            V * closed_leaf + B,
            om * closed_leaf + al + (si << w1) - (V << w2),
            rest,
        )

    def absorb(state):
        k, B, al, si, V, om, rest = state
        a0 = 2 + (k + 1 << w)
        s0 = 1 - k
        A = a0 * B + al
        S = s0 * B + si
        W = s0 * (S + si) + a0 * V + om
        k, pB, pal, psi, pV, pom, rest = rest
        if not k:  # same ints as the rule from (0, 1, 0, 0, 0, 0); saves ~12% on one tree
            return (1, A, -(B << w2), S << w, W, -(V << w2), rest)
        return (
            k + 1,
            pB * A,
            pal * A - (pB * B << w2),
            psi * A + (pB * S << w),
            pV * A + pB * W,
            pom * A + pal * W + (psi * S << w1) - (pV * B + pB * V << w2),
            rest,
        )

    def result(state) -> CharPoly:
        k, B, al, si, V, om, _ = state
        a0 = 2 + (k << w)
        S = (2 - k) * B + si
        digits = bias - (n - 1) * (a0 * B + al) + ((2 - k) * (S + si) + a0 * V + om << w)
        if not 0 <= digits < top or digits & fours:
            raise RuntimeError("internal error: tree kernel numerator is not 4 times a polynomial")
        return CharPoly(n, tuple([((digits >> j & mask) - half) >> 2 for j in shifts]))

    return (0, 1, 0, 0, 0, 0), leaf, absorb, result


def delta_seq(p: CharPoly) -> tuple[int, ...]:
    """Coefficients delta_0..delta_n of det(M - xI): delta_k = (-1)^n c_k."""
    if not p.coeffs or p.coeffs[-1] != 1:
        raise ValueError("characteristic polynomial must be monic")
    return tuple(map(neg, p.coeffs)) if p.n % 2 else tuple(p.coeffs)


def normalized_seq(delta: tuple[int, ...]) -> tuple[int | Fraction, ...]:
    """Normalized coefficients d_k = 2^k |delta_k| / 2^(n-2) for k <= n-2.

    delta holds delta_0..delta_n. Each value is an int when the division
    is exact, which it always is for a tree, and a Fraction (an exact
    dyadic rational) otherwise.
    """
    n = len(delta) - 1
    if n < 3:
        raise ValueError("normalized coefficients need order at least 3")
    shift = n - 2
    low = (1 << shift) - 1
    d = []
    for k in range(n - 1):
        value = abs(delta[k]) << k
        d.append(value >> shift if not value & low else Fraction(value, low + 1))
    return tuple(d)


def trace_power(matrix) -> tuple[int, int]:
    """Exact (tr(M^2), tr(M^3)) of a symmetric M, from one pass over its rows.

    tr(M^2) is the sum of row_i . row_i, and tr(M^3) the sum over i <= j
    of (2 - [i = j]) M_ij (row_i . row_j); the diagonal dot products serve
    both. Zero entries are not skipped: a zero term adds nothing, and a
    connected distance matrix is zero only on its diagonal. Raises
    ValueError unless M is symmetric.
    """
    rows = _rows(matrix)
    tr2 = diag = off = 0
    for i, row in enumerate(rows):
        square = sum(map(mul, row, row))
        tr2 += square
        diag += row[i] * square
        off += sum([m * sum(map(mul, row, r)) for m, r in zip(row[i + 1:], rows[i + 1:])])
    return tr2, diag + 2 * off


@_restartable
def trace_fold(n: int):
    """(tr(D^2), tr(D^3), diameter) of trees of order n given as preorder
    parent arrays, folded from the first position at which each differs
    from the one before.

    Returns fold(parent) -> (tr2, tr3, diameter), restarted and checked by
    _restartable. A closed subtree keeps small ints measured from its
    root (delta is the depth below it): its size s, a1 = sum delta,
    a2 = sum delta^2; over ordered pairs P0 = sum d(u, v),
    P1 = sum d(u, v) delta_u, P2 = sum d(u, v) delta_u delta_v and
    T2 = sum d(u, v)^2; over ordered triples
    T3 = sum d(u, v) d(v, w) d(w, u); its height h and diameter m. A
    closing child C is re-measured from its parent
    (P2 += 2 P1 + P0, P1 += P0, a2 += 2 a1 + s, a1 += s, h += 1) and
    merged into the open vertex X. A path from X into C runs through X's
    root, so a cross distance is delta_u + gamma_w, and with
    c = s_C a2_X + 2 a1_X a1_C + s_X a2_C:
      T3 += T3_C + 3 (s_C P2_X + 2 a1_C P1_X + a2_C P0_X
                      + s_X P2_C + 2 a1_X P1_C + a2_X P0_C),
      T2 += T2_C + 2c,  P2 += P2_C + 2 (a2_X a1_C + a1_X a2_C),
      P1 += P1_C + c,  P0 += P0_C + 2 (s_C a1_X + s_X a1_C),
    s, a1 and a2 add, m = max(m_X, m_C, h_X + h_C), h = max(h_X, h_C).
    A leaf closes to s = a1 = a2 = h = 1 and the rest 0, so merging one
    takes small additions, and merging into a lone vertex (s_X = 1, the
    rest 0) only shifts the child's ints. The root's T2, T3 and m are
    the result: O(n) small-int operations, and no digit width to prove.
    The fold uses the path metric only: no Laplacian identity.
    """
    one_leaf = (2, 1, 1, 2, 1, 0, 2, 0, 1, 1)  # a lone vertex that has merged one leaf

    # a state is (s, a1, a2, P0, P1, P2, T2, T3, h, m, rest)
    def leaf(state):
        s, a1, a2, P0, P1, P2, T2, T3, h, m, rest = state
        # required, not a fast path: from a lone vertex the general rule
        # keeps h at 0, and every diameter comes out one short
        if s == 1:
            return one_leaf + (rest,)
        c = a2 + 2 * a1 + s
        return (s + 1, a1 + 1, a2 + 1, P0 + 2 * (a1 + s), P1 + c, P2 + 2 * (a2 + a1),
                T2 + 2 * c, T3 + 3 * (P2 + 2 * P1 + P0), h, max(m, h + 1), rest)

    def absorb(state):
        s, a1, a2, P0, P1, P2, T2, T3, h, m, rest = state
        P2 += 2 * P1 + P0  # re-measured from the parent
        P1 += P0
        a2 += 2 * a1 + s
        a1 += s
        h += 1
        S, A1, A2, Q0, Q1, Q2, U2, U3, H, M, rest = rest
        if S == 1:  # the same ints, from a lone vertex; halves a fresh path's time
            return (s + 1, a1, a2, P0 + 2 * a1, P1 + a2, P2, T2 + 2 * a2,
                    T3 + 3 * P2, h, m if m > h else h, rest)
        c = s * A2 + 2 * A1 * a1 + S * a2
        U3 += 3 * (s * Q2 + 2 * a1 * Q1 + a2 * Q0 + S * P2 + 2 * A1 * P1 + A2 * P0)
        return (S + s, A1 + a1, A2 + a2, Q0 + P0 + 2 * (s * A1 + S * a1),
                Q1 + P1 + c, Q2 + P2 + 2 * (A2 * a1 + A1 * a2), U2 + T2 + 2 * c,
                U3 + T3, H if H > h else h, max(M, m, H + h), rest)

    return (1, 0, 0, 0, 0, 0, 0, 0, 0, 0), leaf, absorb, itemgetter(6, 7, 9)  # T2, T3, m
