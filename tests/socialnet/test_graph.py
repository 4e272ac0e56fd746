"""Tests for the directed social graph container."""

from array import array

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.exceptions import GraphError
from repro.socialnet.graph import SocialGraph


class TestConstruction:
    def test_empty(self):
        g = SocialGraph(0)
        assert g.num_nodes == 0
        assert g.num_edges == 0

    def test_negative_rejected(self):
        with pytest.raises(GraphError):
            SocialGraph(-1)

    def test_add_edge(self):
        """One edge, given as two one-element columns."""
        g = SocialGraph(3, [0], [1])
        assert g.num_edges == 1
        assert g.has_edge(0, 1)
        assert not g.has_edge(1, 0)

    def test_parallel_edge_collapsed(self):
        g = SocialGraph(3, [0, 0], [1, 1])
        assert g.num_edges == 1

    def test_self_loop_rejected(self):
        with pytest.raises(GraphError):
            SocialGraph(2, [1], [1])

    def test_out_of_range_rejected(self):
        with pytest.raises(GraphError):
            SocialGraph(2, [0], [5])
        with pytest.raises(GraphError):
            SocialGraph(2, [-1], [0])

    def test_add_edges_bulk(self):
        """Several pairs at once, a repeated one collapsed."""
        g = SocialGraph.from_edges(4, [(0, 1), (0, 1), (1, 2), (2, 3)])
        assert g.num_edges == 3

    def test_from_edges(self):
        g = SocialGraph.from_edges(3, [(0, 1), (1, 2)])
        assert g.num_edges == 2

    def test_columns_of_different_lengths_rejected(self):
        with pytest.raises(GraphError):
            SocialGraph(3, [0, 1], [1])

    def test_non_integer_ids_rejected(self):
        with pytest.raises(GraphError):
            SocialGraph(3, [0.5], [1])
        with pytest.raises(GraphError):
            SocialGraph.from_edges(3, [(2**64, 1)])

    def test_input_columns_left_untouched(self):
        sources = np.array([2, 0, 2], dtype=np.int64)
        targets = np.array([1, 1, 1], dtype=np.int64)
        SocialGraph(3, sources, targets)
        assert sources.tolist() == [2, 0, 2]
        assert sources.flags.writeable and targets.flags.writeable


class TestQueries:
    def _graph(self):
        return SocialGraph.from_edges(4, [(0, 2), (0, 1), (3, 1)])

    def test_successors_sorted(self):
        assert self._graph().successors(0) == [1, 2]

    def test_predecessors_sorted(self):
        assert self._graph().predecessors(1) == [0, 3]

    def test_degrees(self):
        g = self._graph()
        assert g.out_degree(0) == 2
        assert g.in_degree(1) == 2
        assert g.out_degree(2) == 0

    def test_degree_columns(self):
        g = self._graph()
        out_degrees, in_degrees = g.out_degrees(), g.in_degrees()
        assert out_degrees.dtype == np.int64 and in_degrees.dtype == np.int64
        assert out_degrees.tolist() == [2, 0, 0, 1]
        assert in_degrees.tolist() == [0, 2, 1, 0]
        with pytest.raises(ValueError):
            out_degrees[0] = 5
        with pytest.raises(ValueError):
            in_degrees[0] = 5

    def test_edges_iteration(self):
        assert list(self._graph().edges()) == [(0, 1), (0, 2), (3, 1)]

    def test_stats(self):
        stats = self._graph().stats()
        assert stats.num_nodes == 4
        assert stats.num_edges == 3
        assert stats.max_out_degree == 2
        assert stats.mean_out_degree == pytest.approx(0.75)
        assert stats.isolated_nodes == 0

    def test_isolated_nodes_counted(self):
        g = SocialGraph(3, [0], [1])
        assert g.stats().isolated_nodes == 1

    def test_out_degree_histogram(self):
        hist = self._graph().out_degree_histogram()
        assert hist == {2: 1, 0: 2, 1: 1}

    def test_node_out_of_range_rejected(self):
        g = self._graph()
        for query in (g.successors, g.predecessors, g.out_degree, g.in_degree):
            with pytest.raises(GraphError):
                query(4)
            with pytest.raises(GraphError):
                query(-1)
        with pytest.raises(GraphError):
            g.has_edge(0, 4)


@st.composite
def edge_lists(draw):
    """A node count and edge pairs with repeats, both directions and isolated nodes."""
    n = draw(st.integers(0, 12))
    if n < 2:
        return n, []
    node = st.integers(0, n - 1)
    pairs = draw(
        st.lists(st.tuples(node, node).filter(lambda e: e[0] != e[1]), max_size=40)
    )
    if pairs:
        pairs += draw(st.lists(st.sampled_from(pairs), max_size=10))
        pairs += [(v, u) for u, v in draw(st.lists(st.sampled_from(pairs), max_size=10))]
    return n, draw(st.permutations(pairs))


class TestAgainstSets:
    """Every read method against a dict-of-sets graph kept here."""

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(edge_lists())
    def test_reads_match_a_dict_of_sets(self, case):
        n, pairs = case
        succ = {u: set() for u in range(n)}
        pred = {u: set() for u in range(n)}
        for u, v in pairs:
            succ[u].add(v)
            pred[v].add(u)
        sources = [u for u, _ in pairs]
        targets = [v for _, v in pairs]
        spellings = [
            SocialGraph(n, sources, targets),
            SocialGraph(n, array("q", sources), array("q", targets)),
            SocialGraph(n, np.array(sources, np.int64), np.array(targets, np.int64)),
            SocialGraph.from_edges(n, pairs),
        ]
        num_edges = sum(len(s) for s in succ.values())
        for g in spellings:
            assert g.num_nodes == n and g.num_edges == num_edges
            assert list(g.nodes()) == list(range(n))
            for u in range(n):
                assert g.successors(u) == sorted(succ[u])
                assert g.predecessors(u) == sorted(pred[u])
                assert all(type(v) is int for v in g.successors(u) + g.predecessors(u))
                assert g.out_degree(u) == len(succ[u])
                assert g.in_degree(u) == len(pred[u])
                for v in range(n):
                    assert g.has_edge(u, v) is (v in succ[u])
            assert g.out_degrees().tolist() == [len(succ[u]) for u in range(n)]
            assert g.in_degrees().tolist() == [len(pred[u]) for u in range(n)]
            edges = list(g.edges())
            assert edges == [(u, v) for u in range(n) for v in sorted(succ[u])]
            assert all(type(u) is int and type(v) is int for u, v in edges)
            stats = g.stats()
            assert stats.num_nodes == n and stats.num_edges == num_edges
            assert stats.max_out_degree == max((len(s) for s in succ.values()), default=0)
            assert stats.mean_out_degree == (num_edges / n if n else 0.0)
            assert stats.isolated_nodes == sum(
                1 for u in range(n) if not succ[u] and not pred[u]
            )
            histogram = {}
            for u in range(n):
                histogram[len(succ[u])] = histogram.get(len(succ[u]), 0) + 1
            assert list(g.out_degree_histogram().items()) == list(histogram.items())

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(edge_lists(), st.data())
    def test_bad_edges_raise(self, case, data):
        n, pairs = case
        bad = data.draw(
            st.one_of(
                st.integers(0, max(n - 1, 0)).map(lambda u: (u, u)) if n else st.nothing(),
                st.tuples(st.integers(-(2**63), -1), st.integers(0, 20)),
                st.tuples(st.integers(0, 20), st.integers(-(2**63), -1)),
                st.tuples(st.integers(n, 2**63 - 1), st.integers(0, 20)),
                st.tuples(st.integers(0, 20), st.integers(n, 2**63 - 1)),
            )
        )
        at = data.draw(st.integers(0, len(pairs)))
        edges = pairs[:at] + [bad] + pairs[at:]
        with pytest.raises(GraphError):
            SocialGraph.from_edges(n, edges)
        with pytest.raises(GraphError):
            SocialGraph(n, array("q", [u for u, _ in edges]), array("q", [v for _, v in edges]))
