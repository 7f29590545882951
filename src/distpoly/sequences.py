"""Exact predicates and peak-location bounds for coefficient sequences.

All comparisons run in integer or rational arithmetic. The bound formulas
reduce their irrational parts to integer square roots, since a float
rounded the wrong way across a ceil/floor boundary would silently shift a
bound by one.
"""

from __future__ import annotations

from functools import cache
from math import comb, isqrt
from typing import NamedTuple


class PeakInterval(NamedTuple):
    """Smallest and largest index attaining the sequence maximum."""

    first: int
    last: int


class BoundSet(NamedTuple):
    """Peak-location bounds for one tree: conjectured window and proven bounds."""

    conj_lo: int
    conj_hi: int
    thm_lo: int
    thm_hi: int


def is_unimodal(seq) -> bool:
    """Nondecreasing up to some index, nonincreasing after it."""
    values = tuple(seq)
    if not values:
        raise ValueError("empty sequence")
    pairs = zip(values, values[1:])
    for a, b in pairs:  # up to the first descent
        if a > b:
            break
    for a, b in pairs:
        if a < b:
            return False
    return True


def is_log_concave(seq) -> bool:
    """a_j^2 >= a_{j-1} a_{j+1} for every interior j, exact comparison.

    The literal inequality is used; positivity is not assumed here and is
    checked separately where an argument needs it.
    """
    values = tuple(seq)
    if not values:
        raise ValueError("empty sequence")
    for a, b, c in zip(values, values[1:], values[2:]):
        if b * b < a * c:
            return False
    return True


@cache
def _newton_weights(n: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """j(n-j) and (j+1)(n-j+1) for 1 <= j <= n-1, once per order n."""
    return (
        tuple([j * (n - j) for j in range(1, n)]),
        tuple([(j + 1) * (n - j + 1) for j in range(1, n)]),
    )


def newton_check(coeffs) -> bool:
    """Newton's inequalities, satisfied by real-rooted polynomials.

    For a_0..a_n, checks a_j^2 j(n-j) >= a_{j-1} a_{j+1} (j+1)(n-j+1) for
    1 <= j <= n-1 in exact arithmetic. This is the binomial form
    a_j^2 C(n,j+1) C(n,j-1) >= a_{j-1} a_{j+1} C(n,j)^2 multiplied by the
    positive (j+1)(n-j+1) / C(n,j)^2.
    """
    values = tuple(coeffs)
    if len(values) < 2:
        raise ValueError("need at least two coefficients")
    left, right = _newton_weights(len(values) - 1)
    for a, b, c, wb, wac in zip(values, values[1:], values[2:], left, right):
        if b * b * wb < a * c * wac:
            return False
    return True


def peak_interval(seq) -> PeakInterval:
    """First and last argmax indices; a plateau yields first < last."""
    values = tuple(seq)
    if not values:
        raise ValueError("empty sequence")
    top = max(values)
    return PeakInterval(values.index(top), len(values) - 1 - values[::-1].index(top))


@cache
def _order_constants(n: int) -> tuple[int, int, int, int]:
    """floor(n/2), ceil(n - n/sqrt(5)), C(n-1, 2) and ceil(2n/3), once per
    order n >= 3; see bound_set and theorem_cap."""
    if n < 3:
        raise ValueError("order must be at least 3")
    return n // 2, n - isqrt(n * n // 5), comb(n - 1, 2), -(-2 * n // 3)


def theorem_cap(n: int) -> int:
    """ceil(2n/3): bound_set's thm_hi at rho = 0, which caps it for every
    rho >= 0."""
    return _order_constants(n)[3]


def ratio_bound_check(d, diam: int) -> bool:
    """Checks 3 d_{n-3} < n * diam * d_{n-2} for d = d_0..d_{n-2}, exactly."""
    n = len(d) + 1
    if n < 3:
        raise ValueError("order must be at least 3")
    return 3 * d[-2] < n * diam * d[-1]


def bound_set(n: int, n_p3: int, diam: int) -> BoundSet:
    """All four peak bounds for a tree of order n with n_p3 paths of
    length 2 and the given diameter, in integers only.

    The conjectured window is [floor(n/2), ceil(n - n/sqrt(5))]. Since
    n/sqrt(5) is irrational, ceil(n - n/sqrt(5)) = n - floor(n/sqrt(5))
    and floor(n/sqrt(5)) = isqrt(n^2 // 5). The proven lower bound is
    floor((n - 2) / (1 + diam)), and the proven upper bound is
    ceil((2 - rho) n / (3 - rho)) for rho = n_p3 / C with C = C(n-1, 2),
    which measures how star-like the tree is; it is evaluated as
    ceil(n (2C - n_p3) / (3C - n_p3)). Raises ValueError when n < 3, diam
    lies outside [1, n - 1] or n_p3 outside [0, C].
    """
    lo, hi, cap, _ = _order_constants(n)
    if not 1 <= diam <= n - 1:
        raise ValueError(f"diameter {diam} outside [1, {n - 1}]")
    if not 0 <= n_p3 <= cap:
        raise ValueError(f"path-of-length-2 count {n_p3} outside [0, {cap}]")
    return BoundSet(lo, hi, (n - 2) // (1 + diam), -(-n * (2 * cap - n_p3) // (3 * cap - n_p3)))
