import random
from fractions import Fraction

import pytest

import oracles
from distpoly import analysis, graphs, polynomials, sequences, treegen

# ascending coefficients of det(xI - D) for the Heawood graph
HEAWOOD_COEFFS = (
    -331776,
    1892352,
    -3885056,
    2795520,
    973056,
    -1885184,
    -118272,
    573696,
    104720,
    -75936,
    -36456,
    -6328,
    -441,
    0,
    1,
)
HEAWOOD_D = (81, 924, 3794, 5460, 3801, 14728, 1848, 17928, 6545, 9492, 9114, 3164, 441)


def tree_graph(rng, n):
    adj = oracles.random_tree_adj(rng, n)
    return graphs.graph_from_edges(
        n, [(u, v) for u in range(n) for v in adj[u] if u < v]
    )


def fresh(factory, parent):
    """A fresh fold by the fold factory of one tree given as a parent
    array: level_fold gives its polynomial, trace_fold its traces."""
    return factory(len(parent))(parent)


def extreme_shapes(n):
    """The path, the star, a broom and a caterpillar of order n."""
    spine = n // 2  # the caterpillar's spine carries one leaf per vertex
    caterpillar = [(i, i + 1) for i in range(spine - 1)]
    caterpillar += [(i - spine, i) for i in range(spine, n)]
    broom = [(i, i + 1) for i in range(n // 2)] + [(n // 2, v) for v in range(n // 2 + 1, n)]
    return [
        oracles.path_graph(n),
        oracles.star_graph(n),
        graphs.graph_from_edges(n, broom),
        graphs.graph_from_edges(n, caterpillar),
    ]


class TestCharpoly:
    def test_p3(self):
        dm = graphs.distance_matrix(oracles.path_graph(3))
        assert polynomials.charpoly(dm).coeffs == (-4, -6, 0, 1)

    def test_zero_matrix(self):
        assert polynomials.charpoly([[0] * 3] * 3).coeffs == (0, 0, 0, 1)

    def test_degenerate_sizes(self):
        assert polynomials.charpoly([]).coeffs == (1,)
        assert polynomials.charpoly([[5]]).coeffs == (-5, 1)

    def test_heawood_exact(self):
        dm = graphs.distance_matrix(graphs.heawood())
        assert polynomials.charpoly(dm).coeffs == HEAWOOD_COEFFS

    def test_non_square_rejected(self):
        with pytest.raises(ValueError, match="square"):
            polynomials.charpoly([[1, 2], [3, 4], [5, 6]])

    def test_non_symmetric_rejected(self):
        with pytest.raises(ValueError, match="symmetric"):
            polynomials.charpoly([[0, 1], [2, 0]])

    def test_matches_general_berkowitz_on_random_symmetric(self):
        rng = random.Random(83)
        for n in range(0, 31):
            for _ in range(3):
                m = [[0] * n for _ in range(n)]
                for i in range(n):
                    for j in range(i, n):
                        m[i][j] = m[j][i] = rng.randint(-99, 99)
                for i in rng.sample(range(n), n // 4):  # zero rows and their columns
                    m[i] = [0] * n
                    for row in m:
                        row[i] = 0
                assert polynomials.charpoly(m) == oracles.berkowitz(m), n

    def test_matches_general_berkowitz_on_non_trees(self):
        rng = random.Random(89)
        for n in range(12, 41):
            adj = oracles.random_connected_adj(rng, n, rng.randint(1, n))
            g = graphs.graph_from_edges(n, [(u, v) for u in range(n) for v in adj[u] if u < v])
            dm = graphs.distance_matrix(g)
            assert polynomials.charpoly(dm) == oracles.berkowitz(dm), n

    def test_evaluation(self):
        coeffs = (2, -3, 1)
        assert oracles.evaluate(coeffs, 0) == 2
        assert oracles.evaluate(coeffs, 1) == 0
        assert oracles.evaluate(coeffs, 5) == 12


class TestTreeCharpoly:
    """The tree kernel against Berkowitz, which stays the oracle."""

    def test_all_trees_through_order_14(self):
        for n in range(3, 15):
            for parent in treegen.tree_stream(n):
                g = treegen.to_graph(parent)
                expected = polynomials.charpoly(graphs.distance_matrix(g))
                assert fresh(polynomials.level_fold, parent) == expected

    def test_random_prufer_trees_orders_18_to_24(self):
        rng = random.Random(61)
        for _ in range(30):
            g = tree_graph(rng, rng.randint(18, 24))
            expected = polynomials.charpoly(graphs.distance_matrix(g))
            assert fresh(polynomials.level_fold, treegen.preorder_parents(g)) == expected

    def test_extreme_shapes_at_order_60_match_the_matrix(self):
        # both tree kernels against the distance matrix, by other math:
        # Berkowitz for the polynomial, row products for the traces
        for g in extreme_shapes(60):
            parent = treegen.preorder_parents(g)
            dm = graphs.distance_matrix(g)
            assert fresh(polynomials.level_fold, parent) == polynomials.charpoly(dm)
            assert fresh(polynomials.trace_fold, parent) == TestTreeTraces.expected(g)

    @pytest.mark.parametrize("n", [25, 40, 60, 100, 200])
    def test_packing_matches_list_oracle(self, n):
        # the path has the largest coefficients: at n = 200 they need 384
        # of the slot's 417 bits
        broom = [(i, i + 1) for i in range(n // 2)] + [(n // 2, v) for v in range(n // 2 + 1, n)]
        shapes = [
            oracles.path_graph(n),
            oracles.star_graph(n),
            graphs.graph_from_edges(n, broom),
            tree_graph(random.Random(n), n),
            tree_graph(random.Random(n + 1), n),
        ]
        for g in shapes:
            kernel = fresh(polynomials.level_fold, treegen.preorder_parents(g))
            assert kernel.coeffs == oracles.tree_charpoly_lists(g.adj)

    @pytest.mark.parametrize(
        "graph",
        [
            graphs.heawood(),
            graphs.graph_from_edges(4, [(0, 1), (1, 2), (2, 3), (3, 0)]),
            # n - 1 edges but a cycle plus an isolated vertex
            graphs.graph_from_edges(4, [(0, 1), (1, 2), (2, 0)]),
            graphs.graph_from_edges(4, [(0, 1), (2, 3)]),
        ],
    )
    def test_non_tree_rejected(self, graph):
        with pytest.raises(ValueError, match="tree"):
            fresh(polynomials.level_fold, treegen.preorder_parents(graph))

    @pytest.mark.parametrize("n", [1, 2])
    def test_small_order_rejected(self, n):
        with pytest.raises(ValueError, match="order at least 3"):
            fresh(polynomials.level_fold, treegen.preorder_parents(oracles.path_graph(n)))


# parent arrays that the folds must reject, whatever they folded before:
# each is bad for a fold of order 6 and for analyze_tree
BAD_PARENT_ARRAYS = [
    (),  # too short, and below order 3
    (-1,),
    (-1, 0),
    (-1, 0, 1, 0, 2),  # too short; 2 is the latest vertex at its depth, but off the root path of 3
    (-1, 0, 0, 1, 0, 0, 0),  # too long; 3 hangs off 1 after the subtree of 2
    (0, 0, 1, 2, 3, 4),  # parent[0] is not the root
    (-1, 0, 1, 2, -1, 0),  # a second root
    (-1, 0, 1, 3, 0, 0),  # parent[i] == i
    (-1, 0, 1, 2, 7, 0),  # parent[i] > i
    (-1, 0, 1, 0, -2, 4),  # parent[i] < -1
    (-1, 0, 1, 0, 2, 0),  # off the root path, as in the order-5 array above
    (-1, 0, 0, 1, 0, 0),  # 3 hangs off 1 after the subtree of 2
]


class FoldContract:
    """What each restartable fold promises, whatever its math: a fold
    that refolds every parent array from where it first differs from the
    last one it folded equals a reference that folds every tree afresh,
    and rejects what is not a preorder parent array. A subclass names the
    fold's factory, its reference on parent arrays and a shuffle seed."""

    fold = reference = shuffle_seed = None

    # each subclass collects these two under names that say its reference
    @pytest.mark.parametrize("n", range(3, 17))
    def stream_fold_matches_reference(self, n):
        fold = self.fold(n)
        for i, parent in enumerate(treegen.tree_stream(n)):
            assert fold(parent) == self.reference(parent), (n, i)

    def shuffled_stream_with_repeats_matches_reference(self):
        rng = random.Random(self.shuffle_seed)
        for n in range(3, 13):
            trees = [(parent, self.reference(parent)) for parent in treegen.tree_stream(n)] * 2
            rng.shuffle(trees)
            fold = self.fold(n)
            for parent, expected in trees:
                assert fold(parent) == expected, (n, parent)

    def test_caller_changing_its_list_later_does_not_reach_the_fold(self):
        # the caller reuses one list for the path and then the star
        path, *_, star = treegen.tree_stream(8)
        fold = self.fold(8)
        parent = list(path)
        fold(parent)
        parent[:] = star
        assert fold(parent) == self.reference(star)

    def test_fold_that_raises_midway_leaves_the_next_one_right(self):
        fold = self.fold(8)
        fold((-1, 0, 1, 2, 3, 0, 5, 6))
        with pytest.raises(ValueError):  # a walk to a second root would close the root
            fold((-1, 0, 1, 2, 3, 0, 0, -1))
        # first differs from the first array at 7, past the state the failed fold overwrote
        parent = (-1, 0, 1, 2, 3, 0, 5, 0)
        assert fold(parent) == self.reference(parent)
        with pytest.raises(ValueError):  # parent[i] == i after the fold's held prefix
            fold((-1, 0, 1, 2, 3, 0, 5, 7))
        with pytest.raises(ValueError):  # off the root path after the fold's held prefix
            fold((-1, 0, 1, 2, 3, 0, 5, 3))
        with pytest.raises(ValueError):  # too short, with a prefix the fold holds
            fold((-1, 0, 1, 2, 3, 0, 5))
        parent = (-1, 0, 1, 2, 3, 0, 5, 5)
        assert fold(parent) == self.reference(parent)

    @pytest.mark.parametrize("seq", BAD_PARENT_ARRAYS)
    def test_bad_sequence_rejected_after_any_fold(self, seq):
        fold = self.fold(6)
        with pytest.raises(ValueError):
            fold(seq)
        for valid in treegen.tree_stream(6):
            # each valid fold follows a rejected one
            assert fold(valid) == self.reference(valid)
            with pytest.raises(ValueError):
                fold(seq)

    @pytest.mark.parametrize("n", [1, 2])
    def test_small_order_rejected(self, n):
        with pytest.raises(ValueError, match="order at least 3"):
            self.fold(n)


class TestLevelFold(FoldContract):
    """The fold against the leaf-to-root kernel in tests/oracles.py."""

    fold = staticmethod(polynomials.level_fold)
    reference = staticmethod(oracles.tree_charpoly_leaf_to_root)
    shuffle_seed = 101
    test_stream_fold_matches_leaf_to_root_kernel = FoldContract.stream_fold_matches_reference
    test_shuffled_stream_with_repeats_matches_leaf_to_root_kernel = (
        FoldContract.shuffled_stream_with_repeats_matches_reference
    )

    def test_leaf_to_root_reference_matches_berkowitz(self):
        for n in range(3, 11):
            for parent in treegen.tree_stream(n):
                expected = polynomials.charpoly(graphs.distance_matrix(treegen.to_graph(parent)))
                assert oracles.tree_charpoly_leaf_to_root(parent) == expected


class TestTraceFold(FoldContract):
    """The trace fold against the packed path-metric traces in
    tests/oracles.py."""

    fold = staticmethod(polynomials.trace_fold)
    reference = staticmethod(oracles.packed_traces)
    shuffle_seed = 103
    test_stream_fold_matches_packed_traces = FoldContract.stream_fold_matches_reference
    test_shuffled_stream_with_repeats_matches_packed_traces = (
        FoldContract.shuffled_stream_with_repeats_matches_reference
    )

    def test_packed_reference_matches_trace_power(self):
        for n in range(3, 11):
            for parent in treegen.tree_stream(n):
                g = treegen.to_graph(parent)
                assert oracles.packed_traces(parent) == TestTreeTraces.expected(g)

    @pytest.mark.parametrize("n", [150, 200, 300])
    def test_path_pins_the_packed_digit_width(self, n):
        # the path has the longest distances of its order; with a digit of
        # bitlen(n^5) + 1 bits, a caterpillar and a broom of orders 60 to
        # 300 and the path at 60 and 100 still read right, but not the path
        # at these orders
        g = oracles.path_graph(n)
        assert oracles.packed_traces(treegen.preorder_parents(g)) == TestTreeTraces.expected(g)

    @pytest.mark.parametrize("n", [60, 100, 150, 200, 300])
    def test_fresh_fold_of_extreme_shapes(self, n):
        for g in extreme_shapes(n):
            parent = treegen.preorder_parents(g)
            assert polynomials.trace_fold(n)(parent) == oracles.packed_traces(parent)

    def test_fresh_fold_of_random_prufer_trees_orders_16_to_200(self):
        rng = random.Random(107)
        for n in [*range(16, 61), 80, 100, 150, 200]:
            parent = treegen.preorder_parents(tree_graph(rng, n))
            assert polynomials.trace_fold(n)(parent) == oracles.packed_traces(parent), n


def test_folds_share_no_state():
    # two folds of each kind and one of each, interleaved over one shuffled
    # order-9 stream each: a restart that read another fold's snapshots or
    # copy of the last array would refold from the wrong state
    rng = random.Random(109)
    streams = []
    for factory, reference in [(polynomials.level_fold, oracles.tree_charpoly_leaf_to_root),
                               (polynomials.trace_fold, oracles.packed_traces)] * 2:
        trees = [(parent, reference(parent)) for parent in treegen.tree_stream(9)]
        rng.shuffle(trees)
        streams.append((factory(9), trees))
    for step in range(len(streams[0][1])):
        for k, (fold, trees) in enumerate(streams):
            parent, expected = trees[step]
            assert fold(parent) == expected, (k, parent)


class TestTreeTraces:
    """A fresh trace fold of one tree against trace_power on the BFS
    matrix, and the parent arrays that analyze_tree rejects."""

    @staticmethod
    def expected(g):
        dm = graphs.distance_matrix(g)
        return polynomials.trace_power(dm) + (max(map(max, dm)),)

    def test_all_trees_through_order_14(self):
        for n in range(3, 15):
            for parent in treegen.tree_stream(n):
                g = treegen.to_graph(parent)
                assert fresh(polynomials.trace_fold, parent) == self.expected(g)

    def test_random_prufer_trees_orders_18_to_200(self):
        rng = random.Random(71)
        # the path and the star at 200 are the extremes for digit width
        shapes = [oracles.path_graph(200), oracles.star_graph(200)]
        shapes += [tree_graph(rng, n) for n in [*range(18, 60), 100, 200]]
        for g in shapes:
            assert fresh(polynomials.trace_fold, treegen.preorder_parents(g)) == self.expected(g)

    @pytest.mark.parametrize("n", [150, 200, 300])
    def test_path_pins_the_digit_width(self, n):
        # the path has the longest distances of its order, and so the
        # largest traces: these orders pinned the packed digit width that
        # the fold replaced (see TestTraceFold), and the fold must match too
        g = oracles.path_graph(n)
        assert fresh(polynomials.trace_fold, treegen.preorder_parents(g)) == self.expected(g)

    @pytest.mark.parametrize("parent", BAD_PARENT_ARRAYS)
    # each id names the fold that must reject the array at its own order
    @pytest.mark.parametrize(
        "fold", ["level_fold", "trace_fold"], ids=["tree_charpoly", "tree_traces"]
    )
    def test_malformed_parent_rejected(self, fold, parent):
        # the fold is the check: below order 3 its factory raises, and
        # otherwise its closure does, directly and through analyze_tree,
        # and each valid fold of that order after a rejection comes out right
        n = len(parent)
        with pytest.raises(ValueError):
            analysis.analyze_tree(parent)
        if n < 3:
            with pytest.raises(ValueError):
                getattr(polynomials, fold)(n)
            return
        closure = getattr(polynomials, fold)(n)
        reference = {"level_fold": oracles.tree_charpoly_leaf_to_root,
                     "trace_fold": oracles.packed_traces}[fold]
        for valid in treegen.tree_stream(n):
            with pytest.raises(ValueError):
                closure(parent)
            assert closure(valid) == reference(valid)


class TestParentBeforeChild:
    """Parent-before-child labelings that are not preorders:
    analyze_tree rejects them, analyze_graph gives their graphs the report
    of the preorder, and preorder_parents relabels their graphs for both
    folds."""

    def test_random_bfs_relabelings_through_order_12(self):
        # analyze_tree takes preorders only; the graph of any other
        # labeling goes through analyze_graph, which relabels it
        for seed in (89, 97):
            rng = random.Random(seed)
            rejected = trees = 0
            for n in range(3, 13):
                for tree in treegen.tree_stream(n):
                    trees += 1
                    parent = oracles.random_bfs_parents(rng, tree)
                    g = graphs.graph_from_edges(n, [(parent[i], i) for i in range(1, n)])
                    assert analysis.analyze_graph(g) == analysis.analyze_tree(tree)
                    relabeled = treegen.preorder_parents(g)
                    assert fresh(polynomials.level_fold, relabeled) == polynomials.charpoly(
                        graphs.distance_matrix(g)
                    )
                    assert fresh(polynomials.trace_fold, relabeled) == TestTreeTraces.expected(g)
                    if not oracles.is_preorder(parent):
                        rejected += 1
                        with pytest.raises(ValueError, match="root path"):
                            analysis.analyze_tree(parent)
            assert rejected > trees / 2  # most BFS labelings are not preorders

    def test_path_with_subtree_after_sibling(self):
        # vertex 3 hangs off 1 after the subtree of 2: the path 3-1-0-2
        parent = (-1, 0, 0, 1)
        with pytest.raises(ValueError, match=r"parent\[3\] = 1 is not on the root path"):
            analysis.analyze_tree(parent)
        g = graphs.graph_from_edges(4, [(parent[i], i) for i in range(1, 4)])
        relabeled = treegen.preorder_parents(g)
        expected = polynomials.charpoly(graphs.distance_matrix(g))
        assert fresh(polynomials.level_fold, relabeled) == expected
        assert fresh(polynomials.trace_fold, relabeled) == TestTreeTraces.expected(g)


class TestDetAt:
    def test_p3_at_zero(self):
        dm = graphs.distance_matrix(oracles.path_graph(3))
        assert oracles.det_at(dm, 0) == -4

    def test_zero_matrix(self):
        assert oracles.det_at([[0] * 3] * 3, 2) == 8

    def test_empty_matrix(self):
        assert oracles.det_at([], 7) == 1

    def test_pivot_swap(self):
        # t = 0 zeroes the leading pivot and forces a row exchange
        assert oracles.det_at([[0, 1], [1, 0]], 0) == -1

    def test_singular(self):
        assert oracles.det_at([[1, 1], [1, 1]], 0) == 0

    def test_general_berkowitz_on_non_symmetric(self):
        """The charpoly reference is exact on any square input, at n+1 points."""
        rng = random.Random(79)
        for n in range(0, 11):
            for _ in range(5):
                m = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]
                p = oracles.berkowitz(m)
                for t in range(n + 1):
                    assert oracles.evaluate(p.coeffs, t) == oracles.det_at(m, t)

    def test_matches_charpoly_on_random_trees(self):
        rng = random.Random(5)
        for _ in range(200):
            n = rng.randint(3, 12)
            dm = graphs.distance_matrix(tree_graph(rng, n))
            p = polynomials.charpoly(dm)
            for t in range(4):
                assert oracles.evaluate(p.coeffs, t) == oracles.det_at(dm, t)


class TestOracleCertification:
    def test_all_trees_through_order_10(self):
        """Agreement at n+1 points pins the degree-n polynomial exactly."""
        for n in range(3, 11):
            for parent in treegen.tree_stream(n):
                dm = graphs.distance_matrix(treegen.to_graph(parent))
                p = polynomials.charpoly(dm)
                for t in range(n + 1):
                    assert oracles.evaluate(p.coeffs, t) == oracles.det_at(dm, t)

    def test_random_trees_through_order_14(self):
        rng = random.Random(17)
        for n in range(3, 15):
            for _ in range(100):
                dm = graphs.distance_matrix(tree_graph(rng, n))
                p = polynomials.charpoly(dm)
                for t in range(n + 1):
                    assert oracles.evaluate(p.coeffs, t) == oracles.det_at(dm, t)

    def test_heawood(self):
        dm = graphs.distance_matrix(graphs.heawood())
        p = polynomials.charpoly(dm)
        for t in range(15):
            assert oracles.evaluate(p.coeffs, t) == oracles.det_at(dm, t)


class TestDeltaSeq:
    def test_p3_sign_rule(self):
        p = polynomials.CharPoly(3, (-4, -6, 0, 1))
        assert polynomials.delta_seq(p) == (4, 6, 0, -1)

    def test_monic_required(self):
        with pytest.raises(ValueError, match="monic"):
            polynomials.delta_seq(polynomials.CharPoly(2, (1, 0, 2)))

    def test_p3_determinant_identity(self):
        # delta_0 = (n-1) * 2^(n-2) for trees
        p = polynomials.charpoly(graphs.distance_matrix(oracles.path_graph(3)))
        assert polynomials.delta_seq(p)[0] == 2 * 2

    def test_heawood_constant_term(self):
        p = polynomials.charpoly(graphs.distance_matrix(graphs.heawood()))
        assert polynomials.delta_seq(p)[0] == -331776


class TestNormalizedSeq:
    def test_p3(self):
        p = polynomials.charpoly(graphs.distance_matrix(oracles.path_graph(3)))
        assert polynomials.normalized_seq(polynomials.delta_seq(p)) == (2, 6)

    def test_order_validation(self):
        small = (1, 0, 1)
        with pytest.raises(ValueError):
            polynomials.normalized_seq(small)

    @pytest.mark.parametrize("n", range(3, 13))
    def test_star_d0(self, n):
        p = polynomials.charpoly(graphs.distance_matrix(oracles.star_graph(n)))
        d = polynomials.normalized_seq(polynomials.delta_seq(p))
        assert d[0] == n - 1

    def test_heawood(self):
        p = polynomials.charpoly(graphs.distance_matrix(graphs.heawood()))
        d = polynomials.normalized_seq(polynomials.delta_seq(p))
        assert d == HEAWOOD_D

    def test_trees_give_ints(self):
        for n in range(3, 11):
            for parent in treegen.tree_stream(n):
                ds = polynomials.delta_seq(fresh(polynomials.level_fold, parent))
                assert all(type(x) is int for x in polynomials.normalized_seq(ds))

    def test_fraction_only_where_not_integral(self):
        k4 = [[int(i != j) for j in range(4)] for i in range(4)]
        d = polynomials.normalized_seq(polynomials.delta_seq(polynomials.charpoly(k4)))
        assert d == (Fraction(3, 4), 4, 6)
        assert [type(x) for x in d] == [Fraction, int, int]

    def test_last_equals_abs_delta(self):
        rng = random.Random(29)
        for _ in range(20):
            n = rng.randint(3, 12)
            ds = polynomials.delta_seq(
                polynomials.charpoly(graphs.distance_matrix(tree_graph(rng, n)))
            )
            assert polynomials.normalized_seq(ds)[-1] == abs(ds[n - 2])


class TestTreeIdentities:
    def test_divisibility_exhaustive(self):
        for n in range(3, 10):
            for parent in treegen.tree_stream(n):
                dm = graphs.distance_matrix(treegen.to_graph(parent))
                delta = polynomials.delta_seq(polynomials.charpoly(dm))
                for k in range(n - 1):
                    assert delta[k] % (1 << (n - k - 2)) == 0

    def test_divisibility_and_formulas_random_to_14(self):
        rng = random.Random(41)
        for _ in range(60):
            n = rng.randint(3, 14)
            g = tree_graph(rng, n)
            dm = graphs.distance_matrix(g)
            delta = polynomials.delta_seq(polynomials.charpoly(dm))
            d = polynomials.normalized_seq(delta)
            for k in range(n - 1):
                assert delta[k] % (1 << (n - k - 2)) == 0
                assert (-1) ** (n - 1) * delta[k] > 0
                assert d[k].denominator == 1
            assert d[0] == n - 1
            assert d[1] == 2 * n * (n - 1) - 2 * graphs.count_p3(g) - 4

    def test_scaling_preserves_log_concavity(self):
        # the d-sequence is log-concave exactly when the |delta| tail is
        cases = []
        for parent in treegen.tree_stream(9):
            cases.append(graphs.distance_matrix(treegen.to_graph(parent)))
        cases.append(graphs.distance_matrix(graphs.heawood()))
        for dm in cases:
            ds = polynomials.delta_seq(polynomials.charpoly(dm))
            d = polynomials.normalized_seq(ds)
            abs_delta = [abs(x) for x in ds[: len(dm) - 1]]
            assert sequences.is_log_concave(d) == sequences.is_log_concave(abs_delta)


class TestScaledPoly:
    def test_p3(self):
        dm = graphs.distance_matrix(oracles.path_graph(3))
        assert oracles.scaled_poly(dm) == (2, 6, 0, -4)

    def test_non_tree_rejected(self):
        dm = graphs.distance_matrix(graphs.heawood())
        with pytest.raises(ValueError, match="tree"):
            oracles.scaled_poly(dm)

    def test_order_validation(self):
        dm = graphs.distance_matrix(oracles.path_graph(2))
        with pytest.raises(ValueError):
            oracles.scaled_poly(dm)

    def test_structure_on_all_trees_through_8(self):
        for n in range(3, 9):
            for parent in treegen.tree_stream(n):
                dm = graphs.distance_matrix(treegen.to_graph(parent))
                coeffs = oracles.scaled_poly(dm)
                d = polynomials.normalized_seq(polynomials.delta_seq(polynomials.charpoly(dm)))
                assert coeffs[n] == -4
                assert coeffs[n - 1] == 0
                assert coeffs[: n - 1] == d


class TestTracePower:
    def test_p3(self):
        dm = graphs.distance_matrix(oracles.path_graph(3))
        assert polynomials.trace_power(dm) == (12, 12)

    def test_zero_matrix_cube(self):
        assert polynomials.trace_power([[0] * 4] * 4) == (0, 0)

    def test_non_symmetric_rejected(self):
        with pytest.raises(ValueError, match="symmetric"):
            polynomials.trace_power([[0, 1], [2, 0]])

    def test_symmetric_matches_definition(self):
        rng = random.Random(67)
        for n in range(0, 9):
            for _ in range(5):
                m = [[0] * n for _ in range(n)]
                for i in range(n):
                    for j in range(i, n):
                        # about half zeros, off the diagonal too, where a
                        # connected distance matrix has none
                        m[i][j] = m[j][i] = rng.choice((0, rng.randint(-9, 9)))
                sq = [[sum(m[i][l] * m[l][j] for l in range(n)) for j in range(n)] for i in range(n)]
                tr2, tr3 = polynomials.trace_power(m)
                assert tr2 == sum(sq[i][i] for i in range(n))
                assert tr3 == sum(sq[i][j] * m[j][i] for i in range(n) for j in range(n))

    def test_trace_identities_on_trees(self):
        rng = random.Random(53)
        for _ in range(40):
            n = rng.randint(3, 12)
            dm = graphs.distance_matrix(tree_graph(rng, n))
            d = polynomials.normalized_seq(polynomials.delta_seq(polynomials.charpoly(dm)))
            tr2, tr3 = polynomials.trace_power(dm)
            assert d[-1] == Fraction(tr2, 2)
            assert d[-2] == Fraction(tr3, 6)
