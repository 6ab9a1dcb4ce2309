"""Unit tests for the dependence graph container and queries."""

import pytest

from repro.analysis.graph import DepEdge, DependenceGraph


def edge(kind="flow", src=1, dst=2, var="x", vector=(), dst_pos="a"):
    return DepEdge(kind=kind, src=src, dst=dst, var=var, vector=vector,
                   dst_pos=dst_pos)


class TestContainer:
    def test_add_and_len(self):
        graph = DependenceGraph([edge(), edge(dst=3)])
        assert len(graph) == 2

    def test_duplicates_ignored(self):
        graph = DependenceGraph()
        graph.add(edge())
        graph.add(edge())
        assert len(graph) == 1

    def test_iteration(self):
        graph = DependenceGraph([edge(), edge(kind="anti")])
        assert {e.kind for e in graph} == {"flow", "anti"}

    def test_carried_property(self):
        assert edge(vector=("<",)).carried
        assert not edge(vector=("=", "=")).carried
        assert edge(vector=("=", "*")).carried

    def test_str(self):
        text = str(edge(vector=("<",)))
        assert "flow" in text and "(<)" in text


class TestEdgeHash:
    def test_equal_edges_hash_equal(self):
        first, second = edge(vector=("<",)), edge(vector=("<",))
        hash(first)  # one cached, one not: the cache takes no part
        assert first == second and hash(first) == hash(second)
        assert edge() != edge(dst_pos="b")
        assert len({first, second, edge(dst=3)}) == 2

    def test_hash_computed_once(self):
        one = edge()
        assert one._hash is None
        value = hash(one)
        assert one._hash == value
        # a second hash reads the cache instead of recomputing
        object.__setattr__(one, "_hash", value + 1)
        assert hash(one) == value + 1

    def test_slotted(self):
        one = edge()
        assert not hasattr(one, "__dict__")
        assert "_hash" not in repr(one)
        with pytest.raises(AttributeError):
            one.src = 5


class TestQueries:
    def graph(self):
        return DependenceGraph([
            edge(src=1, dst=2, vector=()),
            edge(src=1, dst=3, vector=("<",)),
            edge(kind="anti", src=2, dst=3),
            edge(kind="out", src=1, dst=4, var="y"),
        ])

    def test_query_by_src(self):
        assert len(self.graph().query("flow", src=1)) == 2

    def test_query_by_dst(self):
        assert len(self.graph().query("flow", dst=3)) == 1

    def test_query_by_both(self):
        assert len(self.graph().query("flow", src=1, dst=2)) == 1
        assert not self.graph().query("flow", src=2, dst=1)

    def test_query_by_var(self):
        assert len(self.graph().query("out", var="y")) == 1
        assert not self.graph().query("out", var="z")

    def test_query_with_pattern(self):
        found = self.graph().query("flow", src=1, pattern=("<",))
        assert [e.dst for e in found] == [3]

    def test_query_unknown_kind(self):
        with pytest.raises(ValueError):
            self.graph().query("bogus")

    def test_exists(self):
        graph = self.graph()
        assert graph.exists("anti", src=2)
        assert not graph.exists("anti", src=9)

    def test_deps_from_all_kinds(self):
        found = self.graph().deps_from(1)
        assert {e.kind for e in found} == {"flow", "out"}

    def test_deps_to_one_kind(self):
        found = self.graph().deps_to(3, "anti")
        assert len(found) == 1

    def test_count(self):
        graph = self.graph()
        assert graph.count() == 4
        assert graph.count("flow") == 2
