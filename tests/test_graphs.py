import random

import pytest

import oracles
from distpoly import graphs
from distpoly.treegen import to_graph, tree_stream


class TestFromEdgeList:
    def test_p3(self):
        g = graphs.from_edge_list("0 1\n1 2")
        assert g.n == 3
        assert g.edges() == [(0, 1), (1, 2)]

    def test_self_loop_rejected(self):
        with pytest.raises(graphs.GraphStructureError, match="self-loop"):
            graphs.from_edge_list("0 0")

    def test_duplicate_rejected_either_orientation(self):
        with pytest.raises(graphs.GraphStructureError, match="duplicate"):
            graphs.from_edge_list("0 1\n1 0")

    def test_blank_lines_and_comments_ignored(self):
        g = graphs.from_edge_list("# a path\n\n0 1\n\n# tail\n1 2\n")
        assert g.edges() == [(0, 1), (1, 2)]

    def test_header_declares_order(self):
        g = graphs.from_edge_list("n=5\n0 1")
        assert g.n == 5
        assert len(g.adj[4]) == 0

    def test_header_alone_gives_edgeless_graph(self):
        g = graphs.from_edge_list("n=1")
        assert g.n == 1
        assert len(g.edges()) == 0

    def test_header_too_small(self):
        with pytest.raises(graphs.GraphStructureError, match="out of range"):
            graphs.from_edge_list("n=2\n0 3")
        with pytest.raises(graphs.GraphParseError, match="at least 1"):
            graphs.from_edge_list("n=0")

    def test_repeated_header(self):
        with pytest.raises(graphs.GraphParseError, match="repeated"):
            graphs.from_edge_list("n=3\nn=4\n0 1")

    def test_malformed_lines(self):
        with pytest.raises(graphs.GraphParseError):
            graphs.from_edge_list("0 1 2")
        with pytest.raises(graphs.GraphParseError):
            graphs.from_edge_list("a b")
        with pytest.raises(graphs.GraphParseError):
            graphs.from_edge_list("0 -1")
        with pytest.raises(graphs.GraphParseError, match="bad vertex count"):
            graphs.from_edge_list("n=three\n0 1")

    def test_empty_input(self):
        with pytest.raises(graphs.GraphParseError, match="empty"):
            graphs.from_edge_list("")
        with pytest.raises(graphs.GraphParseError, match="empty"):
            graphs.from_edge_list("# nothing here\n")

    def test_heawood_round_trip(self):
        g = graphs.heawood()
        assert graphs.from_edge_list(oracles.to_edge_list(g)) == g

    def test_random_round_trips(self):
        rng = random.Random(7)
        for _ in range(25):
            n = rng.randint(1, 9)
            adj = oracles.random_connected_adj(rng, n, extra_edges=rng.randint(0, 3))
            g = graphs.graph_from_edges(
                n, [(u, v) for u in range(n) for v in adj[u] if u < v]
            )
            assert graphs.from_edge_list(oracles.to_edge_list(g)) == g


class TestGraph6:
    def test_triangle(self):
        g = graphs.from_graph6("Bw")
        assert g.n == 3
        assert g.edges() == [(0, 1), (0, 2), (1, 2)]

    def test_single_edge(self):
        g = graphs.from_graph6("A_")
        assert g.n == 2
        assert g.edges() == [(0, 1)]

    def test_header_stripped(self):
        assert graphs.from_graph6(">>graph6<<Bw") == graphs.from_graph6("Bw")

    def test_truncated(self):
        with pytest.raises(graphs.GraphParseError, match="length mismatch"):
            graphs.from_graph6("B")

    def test_trailing_garbage(self):
        with pytest.raises(graphs.GraphParseError, match="length mismatch"):
            graphs.from_graph6("Bww")

    def test_invalid_character(self):
        with pytest.raises(graphs.GraphParseError, match="invalid"):
            graphs.from_graph6("B!")

    def test_empty_and_zero_order(self):
        with pytest.raises(graphs.GraphParseError):
            graphs.from_graph6("")
        with pytest.raises(graphs.GraphStructureError):
            graphs.from_graph6("?")

    def test_decodes_test_side_encoder(self):
        rng = random.Random(11)
        for _ in range(25):
            n = rng.randint(1, 30)
            adj = oracles.random_connected_adj(rng, n, extra_edges=rng.randint(0, 5))
            g = graphs.from_graph6(oracles.graph6_encode(adj))
            assert g.n == n
            assert g.adj == tuple(tuple(sorted(nbrs)) for nbrs in adj)

    def test_long_order_form(self):
        adj = oracles.random_connected_adj(random.Random(3), 70)
        g = graphs.from_graph6(oracles.graph6_encode(adj))
        assert g.n == 70
        assert len(g.edges()) == 69
        # the 6-byte field of orders past 258047 is not supported
        with pytest.raises(graphs.GraphParseError, match="supported range"):
            graphs.from_graph6("~~?????")


class TestHeawood:
    def test_basic_counts(self):
        g = graphs.heawood()
        assert g.n == 14
        assert len(g.edges()) == 21
        assert all(len(g.adj[v]) == 3 for v in range(14))

    def test_diameter(self):
        assert max(map(max, graphs.distance_matrix(graphs.heawood()))) == 3

    def test_girth(self):
        assert oracles.bfs_girth(graphs.heawood().adj) == 6


class TestDistanceMatrix:
    def test_p3(self):
        dm = graphs.distance_matrix(oracles.path_graph(3))
        assert dm == ((0, 1, 2), (1, 0, 1), (2, 1, 0))

    def test_star4(self):
        dm = graphs.distance_matrix(oracles.star_graph(4))
        for i in range(4):
            for j in range(4):
                if i == j:
                    assert dm[i][j] == 0
                elif i == 0 or j == 0:
                    assert dm[i][j] == 1
                else:
                    assert dm[i][j] == 2

    def test_disconnected_reports_pair(self):
        g = graphs.graph_from_edges(4, [(0, 1), (2, 3)])
        with pytest.raises(graphs.DisconnectedGraphError) as err:
            graphs.distance_matrix(g)
        u, v = err.value.pair
        assert {u, v} & {0, 1} and {u, v} & {2, 3}

    def test_single_vertex(self):
        dm = graphs.distance_matrix(graphs.graph_from_edges(1, []))
        assert dm == ((0,),)

    def test_invariants_on_random_connected_graphs(self):
        rng = random.Random(23)
        for _ in range(40):
            n = rng.randint(2, 8)
            adj = oracles.random_connected_adj(rng, n, extra_edges=rng.randint(0, 4))
            g = graphs.graph_from_edges(
                n, [(u, v) for u in range(n) for v in adj[u] if u < v]
            )
            dm = graphs.distance_matrix(g)
            for i in range(n):
                assert dm[i][i] == 0
                for j in range(n):
                    assert dm[i][j] == dm[j][i]
                    if i != j:
                        assert dm[i][j] >= 1
                    for k in range(n):
                        assert dm[i][k] <= dm[i][j] + dm[j][k]

    def test_tree_rows_count_degree_as_ones(self):
        for g in map(to_graph, tree_stream(8)):
            dm = graphs.distance_matrix(g)
            for v in range(g.n):
                assert dm[v].count(1) == len(g.adj[v])
            assert max(map(max, dm)) <= g.n - 1


class TestMetrics:
    @pytest.mark.parametrize("n", range(2, 9))
    def test_path_diameter(self, n):
        assert max(map(max, graphs.distance_matrix(oracles.path_graph(n)))) == n - 1

    @pytest.mark.parametrize("n", range(3, 9))
    def test_star_diameter(self, n):
        assert max(map(max, graphs.distance_matrix(oracles.star_graph(n)))) == 2

    def test_diameter_requires_connected(self):
        with pytest.raises(graphs.DisconnectedGraphError):
            max(map(max, graphs.distance_matrix(graphs.graph_from_edges(3, [(0, 1)]))))

    @pytest.mark.parametrize("n", range(3, 10))
    def test_count_p3_star(self, n):
        from math import comb

        assert graphs.count_p3(oracles.star_graph(n)) == comb(n - 1, 2)

    @pytest.mark.parametrize("n", range(3, 10))
    def test_count_p3_path(self, n):
        assert graphs.count_p3(oracles.path_graph(n)) == n - 2

    def test_count_p3_smallest_path(self):
        assert graphs.count_p3(oracles.path_graph(3)) == 1

    def test_count_p3_matches_triple_enumeration(self):
        rng = random.Random(31)
        for _ in range(40):
            n = rng.randint(3, 8)
            adj = oracles.random_connected_adj(rng, n, extra_edges=rng.randint(0, 6))
            g = graphs.graph_from_edges(
                n, [(u, v) for u in range(n) for v in adj[u] if u < v]
            )
            assert graphs.count_p3(g) == oracles.count_p3_subgraphs(adj)


class TestConstruction:
    def test_out_of_range_edge(self):
        with pytest.raises(graphs.GraphStructureError, match="out of range"):
            graphs.graph_from_edges(2, [(0, 2)])

    def test_zero_vertices(self):
        with pytest.raises(graphs.GraphStructureError):
            graphs.graph_from_edges(0, [])

    def test_adjacency_sorted_and_symmetric(self):
        g = graphs.graph_from_edges(4, [(2, 0), (3, 0), (0, 1)])
        assert g.adj[0] == (1, 2, 3)
        for u in range(4):
            for v in g.adj[u]:
                assert u in g.adj[v]
