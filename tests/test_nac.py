import hashlib
import json
import random
import sys
import tracemalloc
from itertools import islice, product
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import nacflex.graphs
import nacflex.nac
from nacflex.cuts import (
    decompose_s,
    stable_cut_exists,
    stable_cut_exists_exhaustive,
    stable_cut_to_nac,
)
from nacflex.errors import DEFAULT_NODE_BUDGET, BudgetExceeded, PreconditionError
from nacflex.graphs import (
    Graph,
    bipartition,
    complete_bipartite,
    complete_graph,
    cycle_graph,
    is_stable,
    path_graph,
)
from nacflex.nac import (
    MAX_WITNESSES,
    Colour,
    EdgeColouring,
    monochromatic_components,
    nac_check,
    nac_check_oracle,
    nac_count,
    nac_enumerate,
    nac_exists,
    simple_cycle_edge_masks,
    stable_witnesses,
    triangle_classes,
)
from nacflex.randmodels import RandomSource, hitting_times, process, regular_configuration

from conftest import (
    all_pairs,
    brute_stable_witness_sets,
    brute_triangle_classes,
    random_graph,
)
from test_cuts import certificate_corpus


def paper_graph():
    """Vertices v,w,x,y,z; edges vx,wx,xy,xz,yz."""
    return Graph.from_labelled_edges(
        [("v", "x"), ("w", "x"), ("x", "y"), ("x", "z"), ("y", "z")]
    )


def paper_graph_plus_vw():
    return Graph.from_labelled_edges(
        [("v", "x"), ("w", "x"), ("x", "y"), ("x", "z"), ("y", "z"), ("v", "w")]
    )


def all_colourings(g):
    for bits in range(1 << g.m):
        yield EdgeColouring(
            g,
            tuple(
                Colour.RED if (bits >> i) & 1 else Colour.BLUE for i in range(g.m)
            ),
        )


class TestMonochromaticComponents:
    def test_c4_alternating(self):
        c = EdgeColouring.from_red_edges(cycle_graph(4), [(0, 1), (2, 3)])
        lab = monochromatic_components(c, Colour.RED)
        assert lab.count == 2
        assert lab.labels[0] == lab.labels[1] and lab.labels[2] == lab.labels[3]

    def test_all_blue_k3(self):
        c = EdgeColouring.from_red_edges(complete_graph(3), [])
        assert monochromatic_components(c, Colour.RED).count == 3

    def test_path_split(self):
        c = EdgeColouring.from_red_edges(path_graph(3), [(0, 1)])
        lab = monochromatic_components(c, Colour.RED)
        assert lab.count == 2
        assert lab.labels[0] == lab.labels[1] != lab.labels[2]


class TestNacCheck:
    def test_k3_one_red(self):
        c = EdgeColouring.from_red_edges(complete_graph(3), [(0, 1)])
        verdict = nac_check(c)
        assert not verdict.is_nac
        assert verdict.failure == "almost-monochromatic-cycle"
        u, v = verdict.edge
        assert c.colour_of(u, v) is Colour.RED
        assert verdict.path[0] == u and verdict.path[-1] == v
        for a, b in zip(verdict.path, verdict.path[1:]):
            assert c.colour_of(a, b) is Colour.BLUE

    def test_path_surjective(self):
        c = EdgeColouring.from_red_edges(path_graph(3), [(0, 1)])
        assert nac_check(c).is_nac

    def test_paper_graph_stable_colouring(self):
        g, ids = paper_graph()
        c = EdgeColouring.from_red_edges(
            g, [(ids["v"], ids["x"]), (ids["w"], ids["x"])]
        )
        assert nac_check(c).is_nac

    def test_c4_one_red(self):
        c = EdgeColouring.from_red_edges(cycle_graph(4), [(0, 1)])
        verdict = nac_check(c)
        assert not verdict.is_nac and verdict.failure == "almost-monochromatic-cycle"

    def test_not_surjective(self):
        c = EdgeColouring.from_red_edges(complete_graph(3), [])
        assert nac_check(c).failure == "not-surjective"

    def test_string_colours_are_colours(self):
        g = complete_graph(3)
        plain = EdgeColouring(g, ("red", "blue", "blue"))
        enum = EdgeColouring(g, (Colour.RED, Colour.BLUE, Colour.BLUE))
        assert plain == enum and plain.colours == enum.colours
        assert all(type(col) is Colour for col in plain.colours)
        assert nac_check(plain) == nac_check(enum)
        assert nac_check(plain).failure == "almost-monochromatic-cycle"
        assert nac_check_oracle(plain) is nac_check_oracle(enum) is False
        with pytest.raises(ValueError, match="green"):
            EdgeColouring(g, ("red", "green", "blue"))

    def test_certificate_invariants_random(self):
        rnd = random.Random(21)
        for _ in range(3000):
            g = random_graph(rnd, 2, 7)
            if g.m == 0:
                continue
            red = [e for e in g.edges if rnd.random() < 0.5]
            c = EdgeColouring.from_red_edges(g, red)
            verdict = nac_check(c)
            if verdict.failure == "almost-monochromatic-cycle":
                u, v = verdict.edge
                off = c.colour_of(u, v)
                assert verdict.path[0] == u and verdict.path[-1] == v
                assert all(
                    c.colour_of(a, b) is off.other
                    for a, b in zip(verdict.path, verdict.path[1:])
                )


def draw_graph(data, n_max: int = 9, m_max: int = 11) -> Graph:
    """A graph on 1..n_max vertices with at most m_max edges, so the
    oracle's cycle space has dimension at most m_max."""
    n = data.draw(st.integers(1, n_max))
    pool = all_pairs(n)
    return Graph.from_edges(
        n, data.draw(st.lists(st.sampled_from(pool), max_size=m_max)) if pool else []
    )


def first_failing_edge(c: EdgeColouring) -> tuple[int, int] | None:
    """The first edge in edge order whose ends share a monochromatic
    component of the other colour."""
    labels = {col: monochromatic_components(c, col.other).labels for col in Colour}
    for (u, v), col in zip(c.graph.edges, c.colours):
        if labels[col][u] == labels[col][v]:
            return (u, v)
    return None


def assert_verdict_agrees(c: EdgeColouring) -> None:
    """nac_check agrees with the cycle-definition oracle, and a failing
    verdict names the first failing edge with an other-colour path."""
    verdict = nac_check(c)
    assert verdict.is_nac == nac_check_oracle(c)
    if verdict.failure == "almost-monochromatic-cycle":
        assert verdict.edge == first_failing_edge(c)
        u, v = verdict.edge
        off = c.colour_of(u, v).other
        assert verdict.path[0] == u and verdict.path[-1] == v
        assert all(c.colour_of(a, b) is off for a, b in zip(verdict.path, verdict.path[1:]))
    elif verdict.is_nac:
        assert first_failing_edge(c) is None


class TestMixedVertices:
    """nac_check tests a colour's edges only when one joins two mixed
    vertices (vertices with edges of both colours)."""

    @given(st.data())
    @settings(max_examples=300, deadline=None)
    def test_stable_cut_colourings(self, data):
        g = draw_graph(data)
        cert = stable_cut_exists_exhaustive(g)
        if cert is None:
            return
        try:
            c = stable_cut_to_nac(g, cert)
        except PreconditionError:  # the chosen component meets no or every edge
            return
        # no edge joins two mixed vertices, so no component is flooded
        with mock.patch.object(nacflex.nac, "component_masks", side_effect=AssertionError):
            assert nac_check(c).is_nac
        assert_verdict_agrees(c)

    @given(st.data())
    @settings(max_examples=300, deadline=None)
    def test_star_colourings(self, data):
        g = draw_graph(data)
        centres = set(data.draw(st.lists(st.integers(0, g.n - 1), max_size=g.n)))
        red = [e for e in g.edges if centres.intersection(e)]
        assert_verdict_agrees(EdgeColouring.from_red_edges(g, red))

    @given(st.data())
    @settings(max_examples=300, deadline=None)
    def test_colourings_with_forced_vertices(self, data):
        # an edge at a forced vertex takes the colour of its first forced end
        g = draw_graph(data)
        forced = data.draw(st.dictionaries(st.integers(0, g.n - 1), st.sampled_from(Colour)))
        cols = []
        for u, v in g.edges:
            col = forced.get(u, forced.get(v))
            cols.append(data.draw(st.sampled_from(Colour)) if col is None else col)
        assert_verdict_agrees(EdgeColouring(g, tuple(cols)))


class TestOracle:
    def test_cycle_inventory_k4(self):
        # K4 has 4 triangles and 3 four-cycles
        masks = simple_cycle_edge_masks(complete_graph(4))
        sizes = sorted(bin(m).count("1") for m in masks)
        assert sizes == [3, 3, 3, 3, 4, 4, 4]

    def test_k3_any_surjective_false(self):
        for c in all_colourings(complete_graph(3)):
            if c.is_surjective():
                assert not nac_check_oracle(c)

    def test_tree_any_surjective_true(self):
        g = Graph.from_edges(5, [(0, 1), (1, 2), (1, 3), (3, 4)])
        for c in all_colourings(g):
            assert nac_check_oracle(c) == c.is_surjective()

    def test_exhaustive_agreement_n4(self):
        pool = all_pairs(4)
        for bits in range(1 << len(pool)):
            g = Graph.from_edges(4, [pool[i] for i in range(6) if (bits >> i) & 1])
            for c in all_colourings(g):
                assert nac_check(c).is_nac == nac_check_oracle(c)

    def test_random_agreement(self):
        # 1e5 (graph, colouring) pairs with n <= 8, kept sparse so the
        # cycle-space enumeration stays in budget
        rnd = random.Random(22)
        for _ in range(10_000):
            g = random_graph(rnd, 2, 8, m_max=11)
            for _ in range(10):
                red = [e for e in g.edges if rnd.random() < 0.5]
                c = EdgeColouring.from_red_edges(g, red)
                assert nac_check(c).is_nac == nac_check_oracle(c)

    def test_budget_refusal(self):
        from nacflex.errors import CycleSpaceTooLarge

        with pytest.raises(CycleSpaceTooLarge):
            simple_cycle_edge_masks(complete_graph(8))


class TestTriangleClasses:
    def test_k4_single_class(self):
        tc = triangle_classes(complete_graph(4))
        assert tc.count == 1
        assert len(brute_triangle_classes(complete_graph(4))) == 1

    def test_c4_singletons(self):
        assert triangle_classes(cycle_graph(4)).count == 4

    def test_paper_graph_plus_vw(self):
        g, ids = paper_graph_plus_vw()
        tc = triangle_classes(g)
        assert tc.count == 2
        members = {frozenset(m) for m in tc.classes}
        tri1 = frozenset(
            g.index_of(*e)
            for e in [(ids["v"], ids["x"]), (ids["w"], ids["x"]), (ids["v"], ids["w"])]
        )
        tri2 = frozenset(
            g.index_of(*e)
            for e in [(ids["x"], ids["y"]), (ids["x"], ids["z"]), (ids["y"], ids["z"])]
        )
        assert members == {tri1, tri2}

    def test_matches_brute_force(self):
        # the NAC search's tie-break reads the order, so compare lists:
        # classes in order of least edge, members ascending
        rnd = random.Random(23)
        graphs = [random_graph(rnd, 1, 8) for _ in range(2000)]
        for _ in range(200):
            n, p = rnd.randint(4, 12), rnd.uniform(0.5, 1.0)
            graphs.append(Graph.from_edges(n, [e for e in all_pairs(n) if rnd.random() < p]))
        for n in (20, 30):
            for i in range(3):
                trace = process(n, RandomSource(23).derive(n, i))
                graphs.append(trace.prefix_graph(hitting_times(trace).tau_T))
        for g in graphs:
            expected = sorted(sorted(grp) for grp in brute_triangle_classes(g))
            assert list(triangle_classes(g).classes) == expected


def record_builds(monkeypatch, original) -> list[Graph]:
    """Rebind every nacflex module's name for the per-graph builder
    `original`, as a tracer would, to a wrapper that records the graph of
    each build."""
    built = []

    def recording(g):
        built.append(g)
        return original(g)

    for key, mod in list(sys.modules.items()):
        if mod is not None and (key == "nacflex" or key.startswith("nacflex.")):
            for name, value in list(vars(mod).items()):
                if value is original:
                    monkeypatch.setattr(mod, name, recording)
    return built


class TestOneBuildPerGraph:
    def test_identity_checked_hitting_traces(self, monkeypatch):
        built = record_builds(monkeypatch, nacflex.graphs.triangle_classes)
        for n in (8, 12, 16, 20):
            for i in range(5):
                hitting_times(process(n, RandomSource(41).derive(n, i)), check_identity=True)
        assert built
        assert len(set(built)) == len(built)

    def test_decompose_then_nac_exists(self, monkeypatch):
        built = record_builds(monkeypatch, nacflex.graphs.triangle_classes)
        rnd = random.Random(42)
        for _ in range(200):
            g = random_graph(rnd, 1, 9)
            built.clear()
            decompose_s(g)
            nac_exists(g)
            assert len(built) == 1 and built[0] is g

    def test_class_covers_once_per_graph(self, monkeypatch):
        # decompose_s runs the separator search twice, in sprime_holds and in
        # stable_cut_exists, when no fast path answers first
        built = record_builds(monkeypatch, nacflex.graphs.class_covers)
        for n in (8, 12, 16, 20):
            for i in range(5):
                hitting_times(process(n, RandomSource(41).derive(n, i)), check_identity=True)
        assert built
        assert len(set(built)) == len(built)
        rnd = random.Random(43)
        searched = 0
        for _ in range(300):
            g = random_graph(rnd, 3, 10)
            built.clear()
            decompose_s(g)
            stable_cut_exists(g)
            assert all(b is g for b in built) and len(built) <= 1
            searched += len(built)
        assert searched > 50


class TestNacExists:
    def test_k4_none(self):
        assert nac_exists(complete_graph(4)) is None
        # brute-force confirmation over all 2^6 colourings
        assert not any(nac_check_oracle(c) for c in all_colourings(complete_graph(4)))

    def test_c4_found(self):
        c = nac_exists(cycle_graph(4))
        assert c is not None and nac_check(c).is_nac

    def test_tree_found(self):
        c = nac_exists(path_graph(4))
        assert c is not None and nac_check(c).is_nac

    def test_budget_exceeded(self):
        with pytest.raises(BudgetExceeded):
            nac_exists(complete_bipartite(4, 4), node_budget=3)

    def test_matches_enumeration_on_random(self):
        rnd = random.Random(24)
        for _ in range(400):
            g = random_graph(rnd, 1, 7)
            found = nac_exists(g)
            count = nac_enumerate(g).count
            assert (found is not None) == (count > 0)


class TestNacEnumerate:
    def test_small_counts(self):
        assert nac_count(complete_bipartite(2, 2)) == 6
        assert nac_count(complete_graph(3)) == 0
        assert nac_count(path_graph(3)) == 2

    def test_k33(self):
        assert nac_count(complete_bipartite(3, 3)) == 30

    def test_all_results_are_nac(self):
        res = nac_enumerate(complete_bipartite(2, 3))
        assert res.complete
        for c in res.colourings:
            assert nac_check(c).is_nac
            assert nac_check_oracle(c)

    def test_cap(self):
        res = nac_enumerate(complete_bipartite(3, 3), cap=10)
        assert not res.complete and len(res.colourings) == 10
        assert res.count is None

    def test_cap_below_one_refused(self):
        for cap in (0, -1):
            with pytest.raises(PreconditionError, match="cap"):
                nac_enumerate(cycle_graph(4), cap=cap)

    def test_swap_closure_and_even(self):
        rnd = random.Random(25)
        for _ in range(300):
            g = random_graph(rnd, 1, 7)
            res = nac_enumerate(g)
            seen = {c.colours for c in res.colourings}
            assert len(seen) == len(res.colourings)
            assert len(seen) % 2 == 0
            for c in res.colourings:
                assert c.swapped().colours in seen

    def test_sorted_canonically(self):
        res = nac_enumerate(complete_bipartite(2, 3))
        keys = [tuple(col.value for col in c.colours) for c in res.colourings]
        assert keys == sorted(keys)

    def test_complete_against_brute_force(self):
        # the pruned class search must find exactly the colourings that a scan
        # of all 2^m colourings accepts
        rnd = random.Random(44)
        for _ in range(400):
            g = random_graph(rnd, 1, 6)
            expected = {
                c.colours for c in all_colourings(g) if nac_check(c).is_nac
            }
            got = {c.colours for c in nac_enumerate(g).colourings}
            assert got == expected
        # beyond the reach of the edge scan, scan the 2^k colourings that
        # keep each of k <= 12 triangle classes one colour, which is enough
        # (test_triangle_class_soundness): n = 8..16, and process prefixes
        # one step before every vertex lies in a triangle
        corpus = []
        while len(corpus) < 30:
            n = rnd.randint(8, 16)
            g = Graph.from_edges(n, rnd.sample(all_pairs(n), rnd.randint(n, 3 * n)))
            if 2 <= g.triangle_classes.count <= 12:
                corpus.append(g)
        for n in range(8, 17):
            for i in range(3):
                trace = process(n, RandomSource(44).derive(n, i))
                corpus.append(trace.prefix_graph(hitting_times(trace).tau_T - 1))
        for g in corpus:
            classes = g.triangle_classes.classes
            assert len(classes) <= 12
            expected = set()
            for pick in product(Colour, repeat=len(classes)):
                cols = [Colour.RED] * g.m
                for col, members in zip(pick, classes):
                    for e in members:
                        cols[e] = col
                c = EdgeColouring(g, tuple(cols))
                if nac_check(c).is_nac:
                    expected.add(c.colours)
            got = {c.colours for c in nac_enumerate(g).colourings}
            assert got == expected

    def test_count_budget_boundary(self):
        # each edge of a path is its own triangle class and every colouring
        # passes, so k classes cost 2^k - 1 search nodes (the first is fixed red)
        g = path_graph(11)
        assert nac_count(g, node_budget=2**10 - 1) == 2**10 - 2
        with pytest.raises(BudgetExceeded):
            nac_count(g, node_budget=2**10 - 2)
        # the default counts 18 such classes but not 19 (a 20-vertex path)
        assert 2**18 - 1 <= DEFAULT_NODE_BUDGET < 2**19 - 1

    def test_count_keeps_no_colouring(self):
        # K12 is one class and each of the 12 pendant path edges another, so
        # all 2^13 - 2 colourings pass; listing them peaked at 11.2 MB
        clique = [(i, j) for i in range(12) for j in range(i + 1, 12)]
        g = Graph.from_edges(24, clique + [(i, i + 1) for i in range(11, 23)])
        tracemalloc.start()
        try:
            count = nac_count(g)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert count == 8190
        assert peak < 2 * 2**20

    @pytest.mark.parametrize("a", [3, 4, 7])
    @pytest.mark.parametrize("length", [1, 2, 6, 9])
    def test_count_clique_with_pendant_path(self, a, length):
        # K_a is one triangle class and each path edge another, and every
        # surjective colouring of the length + 1 classes is NAC; the search
        # holds the red clique edges under every blue path edge
        clique = [(i, j) for i in range(a) for j in range(i + 1, a)]
        path = [(v, v + 1) for v in range(a - 1, a - 1 + length)]
        g = Graph.from_edges(a + length, clique + path)
        assert nac_count(g) == 2 ** (length + 1) - 2

    def test_many_classes_bounded_by_budget_alone(self):
        # 27 triangle classes: no class ceiling refuses the star, the cap or
        # the node budget stops the search
        star = Graph.from_edges(28, [(0, i) for i in range(1, 28)])
        part = nac_enumerate(star, cap=4)
        assert not part.complete and len(part.colourings) == 4
        with pytest.raises(BudgetExceeded):
            nac_enumerate(star, node_budget=1000)

    def test_triangle_class_soundness(self):
        rnd = random.Random(26)
        for _ in range(200):
            g = random_graph(rnd, 2, 7)
            tc = triangle_classes(g)
            for c in nac_enumerate(g).colourings:
                for members in tc.classes:
                    cols = {c.colours[e] for e in members}
                    assert len(cols) == 1

    def test_monotone_restriction(self):
        # restriction of a NAC-colouring to a connected spanning subgraph is
        # a NAC-colouring whenever it stays surjective
        rnd = random.Random(27)
        checked = 0
        while checked < 300:
            g = random_graph(rnd, 3, 7)
            from nacflex.graphs import components

            if components(g).count != 1 or g.m < 2:
                continue
            res = nac_enumerate(g, cap=8)
            for c in res.colourings:
                for drop in range(g.m):
                    edges = [e for i, e in enumerate(g.edges) if i != drop]
                    sub = Graph.from_edges(g.n, edges)
                    if components(sub).count != 1:
                        continue
                    red = [e for e in sub.edges if c.colour_of(*e) is Colour.RED]
                    rc = EdgeColouring.from_red_edges(sub, red)
                    if rc.is_surjective():
                        assert nac_check(rc).is_nac
                        checked += 1


class TestStableWitnesses:
    def test_c4_star_red(self):
        c = EdgeColouring.from_red_edges(cycle_graph(4), [(0, 1), (0, 3)])
        ws = stable_witnesses(c, mode="all")
        got = {(w.side.value, w.vertices) for w in ws}
        assert ("red", (0,)) in got
        assert ("blue", (2,)) in got

    def test_paper_graph_all_stable(self):
        g, ids = paper_graph()
        res = nac_enumerate(g)
        assert res.count == 6
        for c in res.colourings:
            assert stable_witnesses(c), f"expected stable: {c.edges_of(Colour.RED)}"
        c = EdgeColouring.from_red_edges(g, [(ids["v"], ids["x"]), (ids["w"], ids["x"])])
        got = {(w.side.value, w.vertices) for w in stable_witnesses(c, mode="all")}
        assert ("red", (ids["v"], ids["w"])) in got

    def test_paper_graph_plus_vw_not_stable(self):
        g, _ = paper_graph_plus_vw()
        res = nac_enumerate(g)
        assert res.count == 2
        for c in res.colourings:
            assert stable_witnesses(c, mode="all") == []

    def test_requires_nac(self):
        c = EdgeColouring.from_red_edges(complete_graph(3), [(0, 1)])
        with pytest.raises(PreconditionError):
            stable_witnesses(c)

    def test_matches_brute_force(self):
        # subset search over all vertex subsets, graphs up to n = 10; witnesses
        # come red side first, then lexicographic over the qualifying vertices
        # (those whose edges all have the side's colour), absent before present
        rnd = random.Random(28)
        checked = ordered = 0
        while checked < 400:
            g = random_graph(rnd, 2, 10)
            c = None
            try:
                c = nac_exists(g)
            except BudgetExceeded:
                continue
            if c is None:
                continue
            qualifying = {
                side.value: [
                    v
                    for v in range(g.n)
                    if g.degree(v)
                    and all(c.colour_of(v, w) is side for w in g.adjacency[v])
                ]
                for side in Colour
            }
            expected = sorted(
                brute_stable_witness_sets(g, c.colours),
                key=lambda w: (
                    w[0] != "red",
                    tuple(v in w[1] for v in qualifying[w[0]]),
                ),
            )
            firsts = [
                w for i, w in enumerate(expected) if i == 0 or w[0] != expected[i - 1][0]
            ]

            def listed(**kwargs):
                ws = stable_witnesses(c, **kwargs)
                return [(w.side.value, w.vertices) for w in ws]

            assert listed(mode="all") == expected
            assert listed(mode="first") == firsts
            for k in (1, 2, 5):
                assert listed(mode="all", size_cap=k) == expected[:k]
            ordered += len(expected) > len(firsts)
            checked += 1
        assert ordered >= 30  # colourings whose order the test actually checks

    def test_all_mode_ceiling(self, monkeypatch):
        def disjoint_red_edges(k):
            # k red components with two qualifying parts each, one blue edge:
            # 2^k red witnesses and 2 blue ones
            g = Graph.from_edges(2 * k + 2, [(2 * i, 2 * i + 1) for i in range(k + 1)])
            return EdgeColouring.from_red_edges(g, g.edges[:k])

        k = MAX_WITNESSES.bit_length() - 1
        over, under = disjoint_red_edges(k), disjoint_red_edges(k - 1)
        assert (1 << k) + 2 > MAX_WITNESSES >= (1 << (k - 1)) + 2
        ws = stable_witnesses(under, mode="all")
        assert len(ws) == (1 << (k - 1)) + 2
        assert ws[0].vertices == tuple(range(1, 2 * k - 2, 2))
        assert [w.side for w in ws[-3:]] == [Colour.RED, Colour.BLUE, Colour.BLUE]
        capped = stable_witnesses(over, mode="all", size_cap=5)
        assert len(capped) == 5 and capped[0].vertices == tuple(range(1, 2 * k, 2))
        assert len(stable_witnesses(over, mode="first")) == 2

        def no_witness_may_be_built(*args):
            raise AssertionError("a witness was built")

        monkeypatch.setattr(nacflex.nac, "StableWitness", no_witness_may_be_built)
        with pytest.raises(PreconditionError, match="size_cap"):
            stable_witnesses(over, mode="all")

    def test_size_cap_below_one_refused(self):
        c = EdgeColouring.from_red_edges(cycle_graph(4), [(0, 1), (0, 3)])
        for mode in ("first", "all"):
            for cap in (0, -1):
                with pytest.raises(PreconditionError, match="size_cap"):
                    stable_witnesses(c, mode=mode, size_cap=cap)

    def test_first_mode_prefix_of_all(self):
        c = EdgeColouring.from_red_edges(cycle_graph(4), [(0, 1), (0, 3)])
        first = stable_witnesses(c, mode="first")
        by_side = {w.side: w for w in first}
        everything = stable_witnesses(c, mode="all")
        for side, w in by_side.items():
            assert w == next(x for x in everything if x.side == side)

    def test_double_stable_implies_bipartite(self):
        rnd = random.Random(29)
        for _ in range(250):
            g = random_graph(rnd, 2, 7)
            try:
                c = nac_exists(g)
            except BudgetExceeded:
                continue
            if c is None:
                continue
            ws = stable_witnesses(c, mode="first")
            if {w.side for w in ws} == {Colour.RED, Colour.BLUE}:
                assert bipartition(g).is_bipartite


# -- frozen verdicts ------------------------------------------------------------

GOLDEN_VERDICTS = Path(__file__).parent / "data" / "nac_check_golden.json"


def verdict_corpus():
    """Seeded random colourings of random graphs with n <= 13, most of them
    failing, a NAC-colouring of some of those graphs; then the star
    colourings of one 4-regular graph on 540 vertices (red stars around
    centres at pairwise distance >= 4 with stable neighbourhoods) and a few
    of them broken by turning one star edge blue."""
    rnd = random.Random(20261019)
    for _ in range(3000):
        g = random_graph(rnd, 1, 13)
        share = rnd.choice((0.1, 0.5, 0.9))
        yield EdgeColouring.from_red_edges(g, [e for e in g.edges if rnd.random() < share])
        if rnd.random() < 0.1:
            found = nac_exists(g)
            if found is not None:
                yield found
    g, _ = regular_configuration(540, 4, RandomSource(20261019))
    masks = g.adjacency_masks
    blocked = 0
    centres = []
    for v in range(g.n):
        if (blocked >> v) & 1:
            continue
        ball = 1 << v
        for _ in range(3):
            rest = ball
            while rest:
                low = rest & -rest
                rest ^= low
                ball |= masks[low.bit_length() - 1]
        blocked |= ball
        if is_stable(g, g.adjacency[v]):
            centres.append(v)
    stars = []
    for _ in range(100):
        chosen = [x for x in centres if rnd.random() < 0.5] or centres[:1]
        star = [(min(x, w), max(x, w)) for x in chosen for w in g.adjacency[x]]
        stars.append(star)
        yield EdgeColouring.from_red_edges(g, star)
    for star in stars[:10]:
        yield EdgeColouring.from_red_edges(g, star[1:])


def verdict_records(colourings) -> tuple[list[list], str]:
    """Per colouring [n, m, is_nac, failure, edge, path, red count, blue
    count], and the sha256 of the `repr` of every verdict with both full
    monochromatic labellings."""
    rows, reprs = [], []
    for c in colourings:
        verdict = nac_check(c)
        red = monochromatic_components(c, Colour.RED)
        blue = monochromatic_components(c, Colour.BLUE)
        rows.append([
            c.graph.n, c.graph.m, verdict.is_nac, verdict.failure,
            None if verdict.edge is None else list(verdict.edge),
            None if verdict.path is None else list(verdict.path),
            red.count, blue.count,
        ])
        reprs.append(repr((verdict, red, blue)))
    return rows, hashlib.sha256("\n".join(reprs).encode()).hexdigest()


def test_verdicts_match_frozen_outputs():
    golden = json.loads(GOLDEN_VERDICTS.read_text())
    rows, digest = verdict_records(verdict_corpus())
    assert len(rows) == len(golden["rows"])
    for got, want in zip(rows, golden["rows"]):
        assert got == want
    assert digest == golden["sha256"]


# -- frozen search --------------------------------------------------------------

GOLDEN_SEARCH = Path(__file__).parent / "data" / "nac_search_golden.json"
EXISTS_BUDGETS = (1, 3, 10, 40, DEFAULT_NODE_BUDGET)
# a count that needs more nodes is recorded as budget-exceeded; the default
# budget would add half a minute over the corpus
COUNT_BUDGET = 10_000


def search_corpus():
    """The cut-certificate corpus, then edgeless graphs."""
    yield from certificate_corpus()
    for n in (0, 1, 2, 7):
        yield Graph(n, ())


def _red_edges(c: EdgeColouring | None):
    return None if c is None else [list(e) for e in c.edges_of(Colour.RED)]


def search_records(graphs) -> list[list]:
    """Per graph [n, m, the first 8 colourings of the class-colouring search
    (then "budget-exceeded" if it ran out first), nac_exists at each of
    EXISTS_BUDGETS, nac_count within COUNT_BUDGET]; a colouring is its list
    of red edges, and an exceeded budget reads "budget-exceeded"."""
    rows = []
    for g in graphs:
        first = []
        try:
            for c in islice(nacflex.nac._iter_nac_colourings(g, DEFAULT_NODE_BUDGET), 8):
                first.append(_red_edges(c))
        except BudgetExceeded:
            first.append("budget-exceeded")
        exists = []
        for budget in EXISTS_BUDGETS:
            try:
                exists.append(_red_edges(nac_exists(g, node_budget=budget)))
            except BudgetExceeded:
                exists.append("budget-exceeded")
        try:
            count = nac_count(g, node_budget=COUNT_BUDGET)
        except BudgetExceeded:
            count = "budget-exceeded"
        rows.append([g.n, g.m, first, exists, count])
    return rows


def test_search_matches_frozen_outputs():
    golden = json.loads(GOLDEN_SEARCH.read_text())
    rows = search_records(search_corpus())
    assert len(rows) == len(golden["rows"])
    for got, want in zip(rows, golden["rows"]):
        assert got == want
