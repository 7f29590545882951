import itertools
import random
from collections import Counter
from fractions import Fraction
from math import comb

import pytest

import oracles
from distpoly import graphs, polynomials, sequences, treegen

HEAWOOD_D = (81, 924, 3794, 5460, 3801, 14728, 1848, 17928, 6545, 9492, 9114, 3164, 441)


def tree_d_sequence(g):
    dm = graphs.distance_matrix(g)
    return polynomials.normalized_seq(polynomials.delta_seq(polynomials.charpoly(dm)))


def seeded_sequences():
    """Int and Fraction sequences of lengths 0..30: random ones, and
    log-concave, unimodal binomial rows; each also with its first or its
    last interior entry set to 0, a dip, or to the maximum, a tie."""
    rng = random.Random(2015)
    for length in range(31):
        row = [comb(length - 1, k) for k in range(length)]
        for _ in range(20):
            scale = rng.randint(1, 10**6)
            bases = [
                [rng.randint(-3, 3) for _ in range(length)],
                [rng.randint(0, 10**12) for _ in range(length)],
                [Fraction(rng.randint(0, 9), rng.randint(1, 9)) for _ in range(length)],
                [scale * c for c in row],
                [Fraction(scale * c, rng.randint(1, 50)) for c in row],
            ]
            for base in bases:
                yield base
                for j in sorted({1, length - 2}) if length >= 3 else ():
                    for value in (0, max(base)):
                        seq = list(base)
                        seq[j] = value
                        yield seq


class TestAgainstLoopOracles:
    """The zip-based predicates against the plain index loops they replaced."""

    PAIRS = (
        (sequences.is_log_concave, oracles.log_concave_by_loop),
        (sequences.is_unimodal, oracles.unimodal_by_loop),
        (lambda seq: tuple(sequences.peak_interval(seq)), oracles.peak_by_loop),
    )

    def test_seeded_sequences(self):
        verdicts = Counter()
        for seq in seeded_sequences():
            for predicate, oracle in self.PAIRS:
                for form in (list, tuple, iter):
                    if seq:
                        assert predicate(form(seq)) == oracle(seq), (predicate, seq)
                    else:
                        with pytest.raises(ValueError):
                            predicate(form(seq))
            if seq:
                verdicts[oracles.log_concave_by_loop(seq), oracles.unimodal_by_loop(seq)] += 1
        # every combination of verdicts occurs, so both outcomes are pinned
        assert set(verdicts) == {(True, True), (True, False), (False, True), (False, False)}

    def test_violation_at_each_end_of_the_interior(self):
        # log-concave and unimodal binomial row, broken at index 1 and at index 7
        row = [comb(8, k) for k in range(9)]
        for j in (1, 7):
            dip = list(row)
            dip[j] = 0
            assert not sequences.is_log_concave(dip)
            assert not sequences.is_unimodal(dip)
            tie = list(row)
            tie[j] = max(row)
            assert sequences.peak_interval(tie) == sequences.PeakInterval(min(j, 4), max(j, 4))


class TestIsUnimodal:
    def test_length_two(self):
        assert sequences.is_unimodal([2, 6])

    def test_constant(self):
        assert sequences.is_unimodal([1, 1, 1])

    def test_rise_then_fall(self):
        assert sequences.is_unimodal([1, 3, 3, 2, 0])

    def test_heawood_dip(self):
        assert not sequences.is_unimodal(HEAWOOD_D)  # 3801 dips between 5460 and 14728

    def test_decreasing_is_unimodal(self):
        assert sequences.is_unimodal([5, 4, 3])

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            sequences.is_unimodal([])

    def test_matches_definition_on_every_short_sequence(self):
        for length in range(1, 8):
            for seq in itertools.product(range(3), repeat=length):
                assert sequences.is_unimodal(seq) == oracles.unimodal_by_definition(seq), seq


class TestIsLogConcave:
    def test_no_interior_index(self):
        assert sequences.is_log_concave([2, 6])

    def test_geometric_equality(self):
        assert sequences.is_log_concave([1, 2, 4, 8])

    def test_heawood_failure_witness(self):
        assert not sequences.is_log_concave(HEAWOOD_D)
        assert 3801 * 3801 == 14447601
        assert 5460 * 14728 == 80414880
        assert 3801 * 3801 < 5460 * 14728

    def test_accepts_fractions(self):
        assert sequences.is_log_concave([Fraction(1, 2), Fraction(1, 3), Fraction(1, 9)])

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            sequences.is_log_concave([])


class TestNewtonCheck:
    def test_non_real_rooted_fails(self):
        assert not sequences.newton_check([1, 0, 1])  # x^2 + 1

    def test_tree_polynomials_hold(self):
        for n in range(3, 10):
            for parent in treegen.tree_stream(n):
                dm = graphs.distance_matrix(treegen.to_graph(parent))
                coeffs = polynomials.charpoly(dm).coeffs
                assert sequences.newton_check(coeffs)
                # the weighted inequality implies plain log-concavity
                assert sequences.is_log_concave(coeffs)

    def test_heawood_coefficients_hold(self):
        coeffs = polynomials.charpoly(graphs.distance_matrix(graphs.heawood())).coeffs
        assert sequences.newton_check(coeffs)
        assert sequences.is_log_concave(coeffs)

    def test_length_validation(self):
        with pytest.raises(ValueError):
            sequences.newton_check([1])

    def test_matches_binomial_form_on_random_integers(self):
        rng = random.Random(97)
        for _ in range(20000):
            top = rng.choice((2, 9, 10**6))
            coeffs = [rng.randint(-top, top) for _ in range(rng.randint(2, 12))]
            assert sequences.newton_check(coeffs) == oracles.newton_binomial(coeffs), coeffs

    def test_matches_binomial_form_on_tree_coefficients(self):
        polys = [polynomials.charpoly(graphs.distance_matrix(graphs.heawood()))]
        for n in range(3, 13):
            fold = polynomials.level_fold(n)
            polys.extend(map(fold, treegen.tree_stream(n)))
        for poly in polys:
            assert sequences.newton_check(poly.coeffs) == oracles.newton_binomial(poly.coeffs)


class TestPeakInterval:
    def test_plateau(self):
        assert sequences.peak_interval([1, 3, 3, 2]) == sequences.PeakInterval(1, 2)

    def test_singleton(self):
        assert sequences.peak_interval([2, 6]) == sequences.PeakInterval(1, 1)

    def test_strictly_increasing(self):
        assert sequences.peak_interval([1, 2, 3]) == sequences.PeakInterval(2, 2)

    def test_constant(self):
        assert sequences.peak_interval([7, 7, 7, 7]) == sequences.PeakInterval(0, 3)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            sequences.peak_interval([])


class TestConjectureRange:
    @pytest.mark.parametrize("n,expected", [(5, (2, 3)), (10, (5, 6)), (20, (10, 12))])
    def test_examples(self, n, expected):
        bounds = sequences.bound_set(n, 0, 1)
        assert (bounds.conj_lo, bounds.conj_hi) == expected

    def test_order_validation(self):
        with pytest.raises(ValueError, match="order"):
            sequences.bound_set(2, 0, 1)

    def test_integer_square_root_reduction(self):
        # hi = n - k must satisfy k <= n/sqrt(5) < k+1, i.e.
        # 5k^2 <= n^2 < 5(k+1)^2; this re-derives the ceiling independently
        for n in range(3, 2001):
            bounds = sequences.bound_set(n, 0, 1)
            lo, hi = bounds.conj_lo, bounds.conj_hi
            k = n - hi
            assert 5 * k * k <= n * n < 5 * (k + 1) * (k + 1)
            assert lo == n // 2
            assert lo <= hi


def upper_bound_rho(n, n_p3):
    return sequences.bound_set(n, n_p3, 2).thm_hi  # any diameter in [1, n - 1]


class TestUpperBoundRho:
    @pytest.mark.parametrize("n", range(3, 21))
    def test_star_gives_half(self, n):
        assert upper_bound_rho(n, comb(n - 1, 2)) == -(-n // 2)

    @pytest.mark.parametrize("n", range(3, 21))
    def test_zero_rho_gives_two_thirds(self, n):
        assert upper_bound_rho(n, 0) == -(-2 * n // 3) == sequences.theorem_cap(n)

    def test_two_thirds_example(self):
        assert upper_bound_rho(9, 0) == 6

    def test_smallest_tree(self):
        assert upper_bound_rho(3, 1) == 2

    def test_range_validation(self):
        with pytest.raises(ValueError, match="path-of-length-2"):
            upper_bound_rho(5, 7)  # C(4,2) = 6
        with pytest.raises(ValueError, match="path-of-length-2"):
            upper_bound_rho(5, -1)


def lower_bound_diam(n, diam):
    return sequences.bound_set(n, 0, diam).thm_lo


class TestLowerBoundDiam:
    def test_examples(self):
        assert lower_bound_diam(10, 9) == 0
        assert lower_bound_diam(10, 2) == 2
        assert lower_bound_diam(20, 3) == 4

    def test_range_validation(self):
        with pytest.raises(ValueError, match="diameter"):
            lower_bound_diam(10, 0)
        with pytest.raises(ValueError, match="diameter"):
            lower_bound_diam(10, 10)


class TestRatioBound:
    def test_p3(self):
        d = tree_d_sequence(oracles.path_graph(3))
        assert d == (2, 6)
        assert sequences.ratio_bound_check(d, 2)

    def test_order_below_3_rejected(self):
        with pytest.raises(ValueError, match="at least 3"):
            sequences.ratio_bound_check((2,), 1)

    def test_star4_via_pipeline(self):
        g = oracles.star_graph(4)
        d = tree_d_sequence(g)
        assert sequences.ratio_bound_check(d, max(map(max, graphs.distance_matrix(g))))

    def test_all_trees_through_10(self):
        for n in range(3, 11):
            for parent in treegen.tree_stream(n):
                g = treegen.to_graph(parent)
                d = tree_d_sequence(g)
                assert len(d) == n - 1
                assert sequences.ratio_bound_check(d, max(map(max, graphs.distance_matrix(g))))


class TestCrossImplications:
    def test_positive_log_concave_implies_unimodal(self):
        rng = random.Random(67)
        for _ in range(50):
            n = rng.randint(3, 12)
            adj = oracles.random_tree_adj(rng, n)
            g = graphs.graph_from_edges(
                n, [(u, v) for u in range(n) for v in adj[u] if u < v]
            )
            d = tree_d_sequence(g)
            assert all(x > 0 for x in d)
            if sequences.is_log_concave(d):
                assert sequences.is_unimodal(d)

    def test_bound_set_combines_the_four(self):
        bounds = sequences.bound_set(10, 9, 4)
        assert bounds.conj_lo == 5 and bounds.conj_hi == 6
        assert bounds.thm_lo == lower_bound_diam(10, 4) == 8 // 5
        # C(9, 2) = 36, so ceil(10 (72 - 9) / (108 - 9)) = ceil(630 / 99)
        assert bounds.thm_hi == upper_bound_rho(10, 9) == 7
        assert 0 <= bounds.thm_lo and bounds.thm_hi <= 10
