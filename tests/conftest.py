"""Shared test helpers: random instances, catalogues, brute-force oracles."""

from __future__ import annotations

import itertools
import random
from functools import lru_cache

import pytest

from nacflex.graphs import Graph


def random_graph(rnd: random.Random, n_min: int = 1, n_max: int = 8,
                 m_max: int | None = None) -> Graph:
    n = rnd.randint(n_min, n_max)
    total = n * (n - 1) // 2
    cap = total if m_max is None else min(m_max, total)
    m = rnd.randint(0, cap)
    pool = [(a, b) for a in range(n) for b in range(a + 1, n)]
    return Graph.from_edges(n, rnd.sample(pool, m))


def all_pairs(n: int) -> list[tuple[int, int]]:
    return [(a, b) for a in range(n) for b in range(a + 1, n)]


def iter_labelled_connected(n: int):
    """All labelled connected graphs on exactly n vertices."""
    pool = all_pairs(n)
    for bits in range(1 << len(pool)):
        edges = [pool[i] for i in range(len(pool)) if (bits >> i) & 1]
        g = Graph.from_edges(n, edges)
        if _connected(g):
            yield g


def _connected(g: Graph) -> bool:
    if g.n <= 1:
        return True
    seen = {0}
    stack = [0]
    while stack:
        u = stack.pop()
        for w in g.adjacency[u]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return len(seen) == g.n


@lru_cache(maxsize=None)
def atlas_all(n: int) -> tuple[Graph, ...]:
    """One representative per isomorphism class of n-vertex graphs (n <= 7)."""
    import networkx as nx

    out = []
    for ag in nx.graph_atlas_g():
        if ag.number_of_nodes() != n:
            continue
        relabel = {v: i for i, v in enumerate(sorted(ag.nodes()))}
        edges = [(relabel[u], relabel[v]) for u, v in ag.edges()]
        out.append(Graph.from_edges(n, edges))
    return tuple(out)


@lru_cache(maxsize=None)
def atlas_connected(n: int) -> tuple[Graph, ...]:
    """One representative per isomorphism class of connected n-vertex graphs."""
    return tuple(g for g in atlas_all(n) if _connected(g))


# -- brute-force oracles --------------------------------------------------------


def brute_triangles(g: Graph) -> list[tuple[int, int, int]]:
    out = []
    for a, b, c in itertools.combinations(range(g.n), 3):
        if g.has_edge(a, b) and g.has_edge(a, c) and g.has_edge(b, c):
            out.append((a, b, c))
    return out


def brute_vertex_in_triangle(g: Graph, v: int) -> bool:
    return any(v in t for t in brute_triangles(g))


def brute_triangle_classes(g: Graph) -> list[set[int]]:
    """Transitive closure of the same-triangle relation, by repeated merging."""
    groups = [{i} for i in range(g.m)]

    def merge(i: int, j: int) -> None:
        gi = next(grp for grp in groups if i in grp)
        gj = next(grp for grp in groups if j in grp)
        if gi is not gj:
            gi |= gj
            groups.remove(gj)

    for a, b, c in brute_triangles(g):
        e1, e2, e3 = g.index_of(a, b), g.index_of(a, c), g.index_of(b, c)
        merge(e1, e2)
        merge(e1, e3)
    return groups


def brute_is_nac(g: Graph, red) -> bool:
    """The NAC definition by path search over edge lists: some edge of each
    colour, and no edge whose ends a path of the other colour joins."""
    red = {(min(e), max(e)) for e in red}
    if not red or len(red) == g.m:
        return False
    for u, v in g.edges:
        side = (u, v) in red
        adj: dict[int, list[int]] = {}
        for a, b in g.edges:
            if ((a, b) in red) != side:
                adj.setdefault(a, []).append(b)
                adj.setdefault(b, []).append(a)
        seen, stack = {u}, [u]
        while stack:
            for w in adj.get(stack.pop(), ()):
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        if v in seen:
            return False
    return True


def brute_stable_witness_sets(g: Graph, colours) -> set[tuple[str, tuple[int, ...]]]:
    """All (side, S) with S stable, non-isolated, edges meeting S exactly the
    side-coloured ones; direct scan over every vertex subset."""
    from nacflex.nac import Colour

    out = set()
    for side in (Colour.RED, Colour.BLUE):
        for bits in range(1 << g.n):
            s = [v for v in range(g.n) if (bits >> v) & 1]
            if any(g.degree(v) == 0 for v in s):
                continue
            s_set = set(s)
            if any(u in s_set and v in s_set for u, v in g.edges):
                continue
            ok = True
            for (u, v), col in zip(g.edges, colours):
                meets = u in s_set or v in s_set
                if meets != (col is side):
                    ok = False
                    break
            if ok:
                out.add((side.value, tuple(s)))
    return out


@pytest.fixture
def rnd() -> random.Random:
    return random.Random(0xC0FFEE)
