import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nacflex.graphs import (
    Graph,
    bipartition,
    complete_bipartite,
    complete_graph,
    component_masks,
    components,
    cycle_graph,
    every_vertex_in_triangle,
    format_edge_list,
    graph_from_json_dict,
    graph_to_json_dict,
    induced_delete,
    is_stable,
    parse_edge_list,
    path_graph,
    triangle_apexes,
    triangle_count,
)
from nacflex.nac import Colour, EdgeColouring, monochromatic_components

from conftest import all_pairs, brute_triangles, brute_vertex_in_triangle, random_graph


def bfs_labelling(g: Graph):
    """Independent component labelling for cross-checks."""
    label = [-1] * g.n
    count = 0
    for s in range(g.n):
        if label[s] != -1:
            continue
        label[s] = count
        stack = [s]
        while stack:
            u = stack.pop()
            for w in g.adjacency[u]:
                if label[w] == -1:
                    label[w] = count
                    stack.append(w)
        count += 1
    return tuple(label), count


class TestComponents:
    def test_edgeless(self):
        assert components(Graph.from_edges(3, [])).count == 3

    def test_path(self):
        assert components(path_graph(3)).count == 1

    def test_single_edge_n4(self):
        lab = components(Graph.from_edges(4, [(0, 1)]))
        assert lab.count == 3
        assert lab.labels[0] == lab.labels[1]

    def test_sets_partition(self):
        g = Graph.from_edges(5, [(0, 1), (3, 4)])
        lab = components(g)
        assert sorted(v for s in lab.sets() for v in s) == list(range(5))


def brute_component_sets(g: Graph, within: set[int]) -> list[set[int]]:
    """Components of g induced on `within` by a breadth-first search from
    each unvisited vertex in increasing order."""
    seen: set[int] = set()
    out = []
    for s in sorted(within):
        if s in seen:
            continue
        comp, queue = {s}, [s]
        while queue:
            u = queue.pop(0)
            for w in g.adjacency[u]:
                if w in within and w not in comp:
                    comp.add(w)
                    queue.append(w)
        seen |= comp
        out.append(comp)
    return out


def mask_set(mask: int) -> set[int]:
    return {v for v in range(mask.bit_length()) if (mask >> v) & 1}


class TestComponentMasks:
    @given(st.integers(0, 14), st.data())
    @settings(max_examples=300, deadline=None)
    def test_matches_bfs(self, n, data):
        pool = all_pairs(n)
        edges = data.draw(st.lists(st.sampled_from(pool), max_size=len(pool))) if pool else []
        g = Graph.from_edges(n, edges)
        within = data.draw(st.integers(0, (1 << n) - 1))
        comps = component_masks(g.adjacency_masks, within)
        # the brute force lists the components in order of least vertex
        assert [mask_set(c) for c in comps] == brute_component_sets(g, mask_set(within))
        # a vertex with no neighbour in `within` comes out alone
        for v in mask_set(within):
            if not g.adjacency_masks[v] & within:
                assert 1 << v in comps

    @given(st.integers(0, 14), st.data())
    @settings(max_examples=200, deadline=None)
    def test_labellings_number_components_by_least_member(self, n, data):
        pool = all_pairs(n)
        edges = data.draw(st.lists(st.sampled_from(pool), max_size=len(pool))) if pool else []
        g = Graph.from_edges(n, edges)
        # bfs_labelling numbers the components in order of least member
        lab = components(g)
        assert (lab.labels, lab.count) == bfs_labelling(g)
        red = [e for e in g.edges if data.draw(st.booleans())]
        c = EdgeColouring.from_red_edges(g, red)
        for colour in Colour:
            h = Graph.from_edges(n, c.edges_of(colour))
            lab = monochromatic_components(c, colour)
            assert (lab.labels, lab.count) == bfs_labelling(h)


class TestInducedDelete:
    def test_c4_minus_opposite(self):
        sub, kept = induced_delete(cycle_graph(4), [0, 2])
        assert sub.n == 2 and sub.m == 0
        assert kept == (1, 3)

    def test_k4_minus_one(self):
        sub, kept = induced_delete(complete_graph(4), [0])
        assert sub == complete_graph(3)
        assert kept == (1, 2, 3)

    def test_path_minus_middle(self):
        sub, _ = induced_delete(path_graph(3), [1])
        assert sub.n == 2 and sub.m == 0

    def test_invalid_vertex(self):
        with pytest.raises(ValueError, match="invalid vertex"):
            induced_delete(path_graph(3), [7])

    def test_matches_fresh_bfs(self):
        rnd = random.Random(11)
        for _ in range(10_000):
            g = random_graph(rnd, 1, 8)
            s = [v for v in range(g.n) if rnd.random() < 0.3]
            sub, kept = induced_delete(g, s)
            lab = components(sub)
            labels, count = bfs_labelling(sub)
            assert lab.labels == labels and lab.count == count
            assert all(v not in s for v in kept)


class TestIsStable:
    def test_c4(self):
        assert is_stable(cycle_graph(4), [0, 2])

    def test_k3(self):
        assert not is_stable(complete_graph(3), [0, 1])

    def test_empty(self):
        assert is_stable(complete_graph(5), [])

    def test_invalid(self):
        with pytest.raises(ValueError):
            is_stable(complete_graph(3), [5])

    def test_matches_induced_edge_scan(self):
        rnd = random.Random(5)
        for _ in range(2000):
            g = random_graph(rnd, 1, 8)
            s = [v for v in range(g.n) if rnd.random() < 0.4]
            sub, _ = induced_delete(g, [v for v in range(g.n) if v not in s])
            assert is_stable(g, s) == (sub.m == 0)


class TestTriangleCover:
    def test_k3(self):
        assert every_vertex_in_triangle(complete_graph(3)) == (True, None)

    def test_path(self):
        ok, witness = every_vertex_in_triangle(path_graph(3))
        assert not ok and witness in (0, 1, 2)

    def test_k4_minus_edge(self):
        g = Graph.from_edges(4, [(0, 2), (0, 3), (1, 2), (1, 3), (2, 3)])
        assert every_vertex_in_triangle(g) == (True, None)

    def test_matches_enumeration(self):
        rnd = random.Random(6)
        for _ in range(2000):
            g = random_graph(rnd, 1, 8)
            ok, witness = every_vertex_in_triangle(g)
            expected = all(brute_vertex_in_triangle(g, v) for v in range(g.n))
            assert ok == expected
            if not ok:
                uncovered = [v for v in range(g.n) if not brute_vertex_in_triangle(g, v)]
                assert witness == uncovered[0]

    @given(st.integers(1, 8), st.data())
    @settings(max_examples=200, deadline=None)
    def test_triangle_apexes_list_each_triangle_once(self, n, data):
        pool = all_pairs(n)
        edges = data.draw(st.lists(st.sampled_from(pool), max_size=len(pool))) if pool else []
        g = Graph.from_edges(n, edges)
        listed = [
            (u, v, v + 1 + i)
            for (u, v), apexes in zip(g.edges, triangle_apexes(g))
            for i in range(apexes.bit_length())
            if apexes >> i & 1
        ]
        assert sorted(listed) == brute_triangles(g)

    def test_triangle_count_matches_enumeration(self):
        rnd = random.Random(7)
        for _ in range(500):
            g = random_graph(rnd, 1, 8)
            assert triangle_count(g) == len(brute_triangles(g))


class TestBipartition:
    def test_c4(self):
        res = bipartition(cycle_graph(4))
        assert res.is_bipartite
        assert res.parts == ((0, 2), (1, 3))

    def test_k3_odd_cycle(self):
        res = bipartition(complete_graph(3))
        assert not res.is_bipartite
        cyc = res.odd_cycle
        assert len(cyc) % 2 == 1 and len(cyc) >= 3
        g = complete_graph(3)
        for i, v in enumerate(cyc):
            assert g.has_edge(v, cyc[(i + 1) % len(cyc)])

    def test_edgeless(self):
        res = bipartition(Graph.from_edges(2, []))
        assert res.is_bipartite

    def test_odd_cycles_valid_on_random(self):
        rnd = random.Random(8)
        for _ in range(2000):
            g = random_graph(rnd, 1, 9)
            res = bipartition(g)
            if res.is_bipartite:
                p0, p1 = res.parts
                side = {v: 0 for v in p0} | {v: 1 for v in p1}
                assert all(side[u] != side[v] for u, v in g.edges)
            else:
                cyc = res.odd_cycle
                assert len(cyc) % 2 == 1
                assert len(set(cyc)) == len(cyc)
                for i, v in enumerate(cyc):
                    assert g.has_edge(v, cyc[(i + 1) % len(cyc)])


class TestConstruction:
    def test_rejects_self_loop(self):
        with pytest.raises(ValueError, match="self-loop"):
            Graph.from_edges(3, [(1, 1)])

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError, match="invalid vertex"):
            Graph.from_edges(3, [(0, 3)])

    def test_canonical_edges(self):
        g = Graph.from_edges(4, [(3, 1), (2, 0), (1, 3)])
        assert g.edges == ((0, 2), (1, 3))

    @given(st.integers(1, 8), st.data())
    @settings(max_examples=200, deadline=None)
    def test_adjacency_consistent(self, n, data):
        pool = all_pairs(n)
        edges = data.draw(st.lists(st.sampled_from(pool), max_size=len(pool))) if pool else []
        g = Graph.from_edges(n, edges)
        for v in range(n):
            for u in g.adjacency[v]:
                assert g.has_edge(u, v)
        for u, v in g.edges:
            assert u in g.adjacency[v] and v in g.adjacency[u]
            assert (g.adjacency_masks[u] >> v) & 1

    def test_labelled_compaction(self):
        g, ids = Graph.from_labelled_edges([("b", "a"), ("a", "c")], isolated=["z"])
        assert g.n == 4 and g.m == 2
        assert ids == {"b": 0, "a": 1, "c": 2, "z": 3}
        assert g.has_edge(0, 1) and g.has_edge(1, 2)


class TestEdgeListFormat:
    def test_roundtrip_bit_exact(self):
        rnd = random.Random(9)
        for _ in range(200):
            g = random_graph(rnd, 1, 9)
            text = format_edge_list(g)
            assert parse_edge_list(text) == g
            assert format_edge_list(parse_edge_list(text)) == text

    def test_comments_and_blanks(self):
        g = parse_edge_list("# header\n3 2\n\n0 1\n# mid\n1 2\n")
        assert g == path_graph(3)

    def test_header_mismatch(self):
        with pytest.raises(ValueError, match="m=2"):
            parse_edge_list("3 2\n0 1\n")

    def test_duplicate_edge(self):
        with pytest.raises(ValueError, match="duplicate"):
            parse_edge_list("3 2\n0 1\n1 0\n")

    def test_json_roundtrip(self):
        g = complete_bipartite(2, 3)
        d = graph_to_json_dict(g)
        assert d["edges"] == sorted(d["edges"])
        assert graph_from_json_dict(json.loads(json.dumps(d))) == g
