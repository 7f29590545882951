import itertools
import random

import pytest

import oracles
from distpoly import graphs, treegen

# free-tree counts for orders 1..14
KNOWN_COUNTS = [1, 1, 1, 2, 3, 6, 11, 23, 47, 106, 235, 551, 1301, 3159]


class TestCounts:
    @pytest.mark.parametrize("n,count", list(enumerate(KNOWN_COUNTS, start=1)))
    def test_known_counts(self, n, count):
        assert sum(1 for _ in treegen.tree_stream(n)) == count

    def test_matches_recurrence_through_13(self):
        for n in range(1, 14):
            count = sum(1 for _ in treegen.tree_stream(n))
            assert count == treegen.tree_count_recurrence(n)

    def test_recurrence_larger_orders(self):
        assert treegen.tree_count_recurrence(16) == 19320
        assert treegen.tree_count_recurrence(18) == 123867
        assert treegen.tree_count_recurrence(20) == 823065

    def test_order_validation(self):
        # enumerate_trees, the benchmark's stream, raises on its first next
        # too: the tracer's generator span relies on it
        for stream in (treegen.tree_stream, treegen.enumerate_trees):
            with pytest.raises(ValueError):
                next(stream(0))
            with pytest.raises(ValueError):
                next(stream(-1))
        with pytest.raises(ValueError):
            treegen.tree_count_recurrence(0)


class TestStreamProperties:
    def test_deterministic(self):
        assert list(treegen.tree_stream(9)) == list(treegen.tree_stream(9))

    def test_yields_valid_trees(self):
        for parent in treegen.tree_stream(9):
            assert len(parent) == 9
            assert parent[0] == treegen.ROOT
            assert all(0 <= parent[i] < i for i in range(1, 9))
            g = treegen.to_graph(parent)
            assert g.n == 9
            treegen.preorder_parents(g)  # raises ValueError unless g is a tree

    def test_order_7_trees_have_six_edges(self):
        for parent in treegen.tree_stream(7):
            assert len(treegen.to_graph(parent).edges()) == 6

    def test_enumerate_trees_is_the_stream_as_records(self):
        """enumerate_trees, which perfbench's enumerate15 times, yields the
        stream's trees in the stream's order."""
        for n in range(1, 13):
            trees = list(treegen.enumerate_trees(n))
            assert all(t.n == n for t in trees)
            assert [t.parent for t in trees] == list(treegen.tree_stream(n))

    def test_stream_is_filtered_rooted_stream(self):
        """The skips drop exactly the non-canonical rooted sequences, in order."""
        for n in range(1, 15):
            expected = [s for s in oracles.rooted_sequences(n) if oracles.is_canonical_free(s)]
            assert list(treegen.tree_stream(n)) == list(map(oracles.parents_from_levels, expected))

    @pytest.mark.parametrize("n", range(1, 19))
    def test_stream_matches_rejection_oracle(self, n):
        """The cut jumps only over candidates that plain generate-and-reject
        drops."""
        pairs = itertools.zip_longest(
            treegen.tree_stream(n),
            map(oracles.parents_from_levels, oracles.level_sequences_by_rejection(n)),
        )
        for i, (got, want) in enumerate(pairs):
            assert got == want, f"order {n}, sequence {i}"

    @pytest.mark.parametrize("n", range(1, 17))
    def test_parents_rebuilt_from_first_changed_position(self, n):
        """Each parent array equals the one built from scratch from the
        oracle's level sequence. Each step rewrites the parents in place from
        the position it lowers on, so a tree's parents are rewritten from the
        first position where it differs from the tree before, and only there;
        a step that left a stale parent would differ."""
        pairs = itertools.zip_longest(
            treegen.tree_stream(n), oracles.level_sequences_by_rejection(n)
        )
        for i, (parent, seq) in enumerate(pairs):
            assert parent == oracles.parents_from_levels(seq), f"order {n}, tree {i}"

    def test_rejects_at_most_half_the_trees(self, monkeypatch):
        """Each candidate after the first tree comes from one _lower_at
        call, so the rejects are the calls less the trees after the first;
        without the cut, 3.7 per tree at 15. A stream that spins between two
        trees fails once its calls pass twice the count, instead of hanging."""
        calls = 0
        lower_at = treegen._lower_at

        def counting_lower_at(*args):
            nonlocal calls
            calls += 1
            if calls > limit:
                raise AssertionError(f"order {n}: over {limit} lowering steps")
            return lower_at(*args)

        monkeypatch.setattr(treegen, "_lower_at", counting_lower_at)
        for n in range(3, 19):
            calls = 0
            limit = 2 * treegen.tree_count_recurrence(n)
            trees = sum(1 for _ in treegen.tree_stream(n))
            rejects = calls - (trees - 1)
            assert rejects <= trees / 2, f"order {n}: {rejects} rejects, {trees} trees"

    def test_lower_at_every_position_through_order_10(self):
        """_lower_at, at every vertex of depth 2 or more of every rooted
        sequence, lowers it to its parent's depth (q by default) or to depth
        1 (q = 1, the cut, inside the first root subtree) by repeating
        [q, p), and leaves the parents of the result."""
        for n in range(3, 11):
            for seq in oracles.rooted_sequences(n):
                m = next((i for i in range(2, n) if seq[i] == 1), n)
                for p in range(2, n):
                    if seq[p] < 2:
                        continue
                    for q in (None, 1) if p < m else (None,):
                        out, parent = seq[:], list(oracles.parents_from_levels(seq))
                        k = p - (parent[p] if q is None else q)
                        treegen._lower_at(out, parent, p, q)
                        want = seq[:p]
                        for i in range(p, n):
                            want.append(want[i - k])
                        if q is None:
                            assert want == oracles._lowered_at(seq, p)
                        assert out == want, f"{seq} at {p}, q = {q}"
                        assert tuple(parent) == oracles.parents_from_levels(out)

    def test_guard_fails_a_step_that_does_not_descend(self):
        """The guard in conftest, the suite's only defence against a stream
        that loops, fails a step that leaves the level list unchanged."""
        seq, parent = [0, 1, 1], [treegen.ROOT, 0, 0]
        with pytest.raises(AssertionError, match="not below its input"):
            treegen._lower_at(seq, parent, 2, 1)  # a copy of position 1 over itself

    def test_small_orders(self):
        assert list(treegen.tree_stream(1)) == [(treegen.ROOT,)]
        assert list(treegen.tree_stream(2)) == [(treegen.ROOT, 0)]
        assert list(treegen.tree_stream(3)) == [(treegen.ROOT, 0, 0)]


class TestToGraph:
    def test_path(self):
        assert treegen.to_graph((treegen.ROOT, 0, 1)).edges() == [(0, 1), (1, 2)]

    def test_star(self):
        assert treegen.to_graph((treegen.ROOT, 0, 0, 0)).edges() == [(0, 1), (0, 2), (0, 3)]

    def test_equality_is_isomorphism_class(self):
        # one parent array per class: no two trees of the stream share one
        trees = list(treegen.tree_stream(8))
        assert len(set(trees)) == len(trees)


class TestPreorderParents:
    def test_relabels_into_preorder_of_same_tree(self):
        rng = random.Random(89)
        for n in range(1, 11):
            for tree in treegen.tree_stream(n):
                labels = list(range(n))
                rng.shuffle(labels)
                g = graphs.graph_from_edges(n, [(labels[tree[i]], labels[i]) for i in range(1, n)])
                parent = treegen.preorder_parents(g)
                assert parent[0] == treegen.ROOT
                assert oracles.is_preorder(parent)
                relabeled = treegen.to_graph(parent)
                assert oracles.ahu_form(relabeled.adj) == oracles.ahu_form(g.adj)

    @pytest.mark.parametrize(
        "g",
        [
            graphs.heawood(),
            graphs.graph_from_edges(4, [(0, 1), (1, 2), (2, 3), (3, 0)]),
            # n - 1 edges but a cycle plus an isolated vertex
            graphs.graph_from_edges(4, [(0, 1), (1, 2), (2, 0)]),
            # n - 1 edges, and vertex 0's component is a tree
            graphs.graph_from_edges(5, [(0, 1), (2, 3), (3, 4), (4, 2)]),
            graphs.graph_from_edges(4, [(0, 1), (2, 3)]),
        ],
    )
    def test_non_tree_rejected(self, g):
        with pytest.raises(ValueError, match="not a tree"):
            treegen.preorder_parents(g)
