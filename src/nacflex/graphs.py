"""Canonical simple-graph representation plus the component/triangle/stability
primitives and file I/O everything else is built on.

Vertices are dense integer ids 0..n-1.  Edges are stored canonically as
(min, max) pairs in sorted order, and the position of an edge in that order is
its stable edge index (colourings and edge permutations rely on it).
Graph values are immutable; all operations here are pure functions.
"""

from __future__ import annotations

import json
from collections.abc import Hashable, Iterable, Sequence
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

__all__ = [
    "Graph",
    "ComponentLabelling",
    "BipartitionResult",
    "TriangleClasses",
    "component_masks",
    "mask_is_stable",
    "mask_vertices",
    "components",
    "connection_step",
    "induced_delete",
    "is_stable",
    "every_vertex_in_triangle",
    "triangle_apexes",
    "triangle_count",
    "triangle_classes",
    "class_covers",
    "bipartition",
    "as_vertex_set",
    "complete_graph",
    "cycle_graph",
    "path_graph",
    "complete_bipartite",
    "parse_edge_list",
    "format_edge_list",
    "graph_to_json_dict",
    "graph_from_json_dict",
    "json_int",
    "load_graph",
    "save_graph",
]


@dataclass(frozen=True)
class Graph:
    """Simple undirected graph: no self-loops, no duplicate edges."""

    n: int
    edges: tuple[tuple[int, int], ...]

    @classmethod
    def from_edges(cls, n: int, edges: Iterable[tuple[int, int]]) -> "Graph":
        if n < 0:
            raise ValueError(f"vertex count must be non-negative, got {n}")
        canon = set()
        for u, v in edges:
            u, v = int(u), int(v)  # reject numpy scalars; masks need exact ints
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"invalid vertex in edge ({u}, {v}): ids must be < {n}")
            canon.add((u, v) if u < v else (v, u))
        return cls(n, tuple(sorted(canon)))

    @classmethod
    def from_labelled_edges(
        cls,
        edges: Iterable[tuple[Hashable, Hashable]],
        isolated: Iterable[Hashable] = (),
    ) -> "tuple[Graph, dict[Hashable, int]]":
        """Compact arbitrary vertex labels to dense ids (first-appearance order).

        Returns the graph together with the label -> id map.
        """
        ids: dict[Hashable, int] = {}

        def _id(x: Hashable) -> int:
            if x not in ids:
                ids[x] = len(ids)
            return ids[x]

        pairs = [(_id(u), _id(v)) for u, v in edges]
        for x in isolated:
            _id(x)
        return cls.from_edges(len(ids), pairs), ids

    @property
    def m(self) -> int:
        return len(self.edges)

    @cached_property
    def adjacency(self) -> tuple[tuple[int, ...], ...]:
        adj: list[list[int]] = [[] for _ in range(self.n)]
        for u, v in self.edges:
            adj[u].append(v)
            adj[v].append(u)
        return tuple(tuple(sorted(a)) for a in adj)

    @cached_property
    def edge_index(self) -> dict[tuple[int, int], int]:
        return {e: i for i, e in enumerate(self.edges)}

    @cached_property
    def adjacency_masks(self) -> tuple[int, ...]:
        """Per-vertex neighbour sets as bitmasks (arbitrary-precision ints)."""
        masks = [0] * self.n
        for u, v in self.edges:
            masks[u] |= 1 << v
            masks[v] |= 1 << u
        return tuple(masks)

    @cached_property
    def triangle_classes(self) -> "TriangleClasses":
        """The partition of `triangle_classes`, built on first use."""
        # a global lookup, so a wrapper rebound over the function sees each build
        return triangle_classes(self)

    @cached_property
    def class_covers(self) -> list[int]:
        """The masks of `class_covers`, built on first use; must not be changed."""
        return class_covers(self)

    def has_edge(self, u: int, v: int) -> bool:
        return ((u, v) if u < v else (v, u)) in self.edge_index

    def index_of(self, u: int, v: int) -> int:
        return self.edge_index[(u, v) if u < v else (v, u)]

    def degree(self, v: int) -> int:
        return len(self.adjacency[v])

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Graph(n={self.n}, m={self.m})"


@dataclass(frozen=True)
class ComponentLabelling:
    """Map vertex -> component id; ids are 0..count-1 in order of smallest member."""

    labels: tuple[int, ...]
    count: int

    @classmethod
    def from_masks(cls, n: int, comps: list[int]) -> "ComponentLabelling":
        """Number the n vertices by their masks in `component_masks` order."""
        labels = [0] * n
        for i, comp in enumerate(comps):
            if comp & (comp - 1):
                for v in mask_vertices(comp):
                    labels[v] = i
            else:
                labels[comp.bit_length() - 1] = i
        return cls(tuple(labels), len(comps))

    def sets(self) -> tuple[tuple[int, ...], ...]:
        groups: list[list[int]] = [[] for _ in range(self.count)]
        for v, c in enumerate(self.labels):
            groups[c].append(v)
        return tuple(tuple(g) for g in groups)


@dataclass(frozen=True)
class TriangleClasses:
    """Finest edge partition merging the three edges of every triangle.

    Each class lists its edge indices in increasing order; classes come in
    order of least edge.  The lists are shared by every reader of a graph's
    cached partition and must not be changed.
    """

    # lists, not tuples: a tuple per class, built on every cut decision,
    # raised nacbench decide's peak RSS by 9% (fragmented allocator arenas)
    classes: tuple[list[int], ...]

    @property
    def count(self) -> int:
        return len(self.classes)


@dataclass(frozen=True)
class BipartitionResult:
    """Either a proper 2-colouring (as the two parts) or an odd-cycle certificate."""

    parts: tuple[tuple[int, ...], tuple[int, ...]] | None
    odd_cycle: tuple[int, ...] | None

    @property
    def is_bipartite(self) -> bool:
        return self.parts is not None


def as_vertex_set(g: Graph, vertices: Iterable[int]) -> tuple[int, ...]:
    """Normalise to a sorted duplicate-free tuple, validating against g."""
    out = sorted(set(vertices))
    for v in out:
        if not (0 <= v < g.n):
            raise ValueError(f"invalid vertex {v}: ids must be < {g.n}")
    return tuple(out)


def component_masks(masks: Sequence[int], within: int) -> list[int]:
    """Vertex masks of the components that the neighbour masks `masks` induce
    on the vertex mask `within`, in order of least vertex."""
    comps = []
    rest = within
    while rest:
        low = rest & -rest
        rest ^= low
        if not masks[low.bit_length() - 1] & rest:
            # no neighbour left in `within`: an earlier component would hold it
            comps.append(low)
            continue
        comp = frontier = low
        while frontier:
            reach = 0
            while frontier:
                bit = frontier & -frontier
                frontier ^= bit
                reach |= masks[bit.bit_length() - 1]
            frontier = reach & rest
            rest ^= frontier
            comp |= frontier
        comps.append(comp)
    return comps


def mask_vertices(mask: int) -> tuple[int, ...]:
    """The vertices of a vertex mask, in increasing order."""
    out = []
    while mask:
        out.append((mask & -mask).bit_length() - 1)
        mask &= mask - 1
    return tuple(out)


def mask_is_stable(masks: Sequence[int], s_mask: int) -> bool:
    """True iff no two vertices of the mask s_mask are adjacent in `masks`."""
    rest = s_mask
    while rest:
        low = rest & -rest
        rest ^= low
        if masks[low.bit_length() - 1] & s_mask:
            return False
    return True


def components(g: Graph) -> ComponentLabelling:
    comps = component_masks(g.adjacency_masks, (1 << g.n) - 1)
    return ComponentLabelling.from_masks(g.n, comps)


def connection_step(n: int, pairs: Iterable[Sequence[int]]) -> int | None:
    """The least t such that the first t pairs connect all n vertices: 0 when
    n <= 1, None when they never do.  Merges on a local parent list with
    path halving, like `triangle_classes`."""
    if n <= 1:
        return 0
    parent = list(range(n))
    parts = n
    for t, (u, v) in enumerate(pairs, 1):
        while parent[u] != u:
            parent[u] = u = parent[parent[u]]
        while parent[v] != v:
            parent[v] = v = parent[parent[v]]
        if u != v:
            parent[u] = v
            parts -= 1
            if parts == 1:
                return t
    return None


def induced_delete(g: Graph, s: Iterable[int]) -> tuple[Graph, tuple[int, ...]]:
    """G - S, plus the remap table: kept[i] is the original id of new vertex i."""
    s_set = set(as_vertex_set(g, s))
    kept = [v for v in range(g.n) if v not in s_set]
    new_id = {v: i for i, v in enumerate(kept)}
    edges = [
        (new_id[u], new_id[v]) for u, v in g.edges if u not in s_set and v not in s_set
    ]
    return Graph.from_edges(len(kept), edges), tuple(kept)


def is_stable(g: Graph, s: Iterable[int]) -> bool:
    return mask_is_stable(g.adjacency_masks, sum(1 << v for v in as_vertex_set(g, s)))


def every_vertex_in_triangle(g: Graph) -> tuple[bool, int | None]:
    """True iff each vertex has two adjacent neighbours; else (False, the
    least vertex in no triangle).  v is in one iff the mask of some
    neighbour meets N(v)."""
    masks = g.adjacency_masks
    for v, nv in enumerate(masks):
        rest = nv
        while rest:
            low = rest & -rest
            rest ^= low
            if masks[low.bit_length() - 1] & nv:
                break
        else:
            return False, v
    return True, None


def triangle_apexes(g: Graph) -> list[int]:
    """Per edge (u, v) in edge order, the common neighbours w > v as a
    bitmask shifted down by v + 1 (bit i stands for vertex v + 1 + i).

    Each triangle u < v < w appears exactly once, at its edge (u, v).
    """
    masks = g.adjacency_masks
    return [(masks[u] & masks[v]) >> (v + 1) for u, v in g.edges]


def triangle_count(g: Graph) -> int:
    """Number of triangles: the apex bits of triangle_apexes."""
    return sum(apexes.bit_count() for apexes in triangle_apexes(g))


def triangle_classes(g: Graph) -> TriangleClasses:
    """Union-find over edges, merging the three edges of each triangle.
    Searches read the cached `Graph.triangle_classes` instead.

    The union-find is a local parent list with path halving: method calls
    would cost more than the merging itself.  Every root is the least edge
    of its class, so parent[e] <= e, and one ascending pass resolves each
    edge to its root."""
    parent = list(range(g.m))
    index = g.edge_index
    for i, ((u, v), apexes) in enumerate(zip(g.edges, triangle_apexes(g))):
        if not apexes:
            continue
        root = i
        while parent[root] != root:
            parent[root] = root = parent[parent[root]]
        while apexes:
            low = apexes & -apexes
            x = v + low.bit_length()
            apexes ^= low
            for j in (index[u, x], index[v, x]):
                while parent[j] != j:
                    parent[j] = j = parent[parent[j]]
                if j < root:
                    parent[root] = root = j
                elif j > root:
                    parent[j] = root
    classes: dict[int, list[int]] = {}
    for e, r in enumerate(parent):
        if r == e:
            classes[e] = [e]
        else:
            r = parent[e] = parent[r]
            classes[r].append(e)
    return TriangleClasses(tuple(classes.values()))


def class_covers(g: Graph) -> list[int]:
    """Per vertex v, the mask of v, N(v) and the vertices of every triangle
    class with an edge at v.  Searches read the cached `Graph.class_covers`."""
    edges = g.edges
    cover = [1 << v for v in range(g.n)]
    for members in g.triangle_classes.classes:
        class_vertices = 0
        for e in members:
            u, v = edges[e]
            class_vertices |= (1 << u) | (1 << v)
        rest = class_vertices
        while rest:
            low = rest & -rest
            rest ^= low
            cover[low.bit_length() - 1] |= class_vertices
    return cover


def bipartition(g: Graph) -> BipartitionResult:
    colour = [-1] * g.n
    parent = [-1] * g.n
    adj = g.adjacency
    for start in range(g.n):
        if colour[start] != -1:
            continue
        colour[start] = 0
        queue = [start]
        while queue:
            nxt: list[int] = []
            for u in queue:
                for w in adj[u]:
                    if colour[w] == -1:
                        colour[w] = colour[u] ^ 1
                        parent[w] = u
                        nxt.append(w)
                    elif colour[w] == colour[u]:
                        return BipartitionResult(None, _odd_cycle(u, w, parent))
            queue = nxt
    part0 = tuple(v for v in range(g.n) if colour[v] == 0)
    part1 = tuple(v for v in range(g.n) if colour[v] == 1)
    return BipartitionResult((part0, part1), None)


def _odd_cycle(u: int, w: int, parent: list[int]) -> tuple[int, ...]:
    # walk both BFS-tree paths up to their meeting vertex; u and w share a
    # colour, so the two tree paths plus the edge uw close an odd cycle
    path_u = [u]
    while parent[path_u[-1]] != -1:
        path_u.append(parent[path_u[-1]])
    pos = {v: i for i, v in enumerate(path_u)}
    x = w
    path_w = []
    while x not in pos:
        path_w.append(x)
        x = parent[x]
    cycle = path_u[: pos[x] + 1] + path_w[::-1]
    return tuple(cycle)


# -- standard families -------------------------------------------------------


def complete_graph(n: int) -> Graph:
    return Graph.from_edges(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


def cycle_graph(n: int) -> Graph:
    if n < 3:
        raise ValueError("cycle needs at least 3 vertices")
    return Graph.from_edges(n, [(i, (i + 1) % n) for i in range(n)])


def path_graph(n: int) -> Graph:
    return Graph.from_edges(n, [(i, i + 1) for i in range(n - 1)])


def complete_bipartite(a: int, b: int) -> Graph:
    return Graph.from_edges(a + b, [(i, a + j) for i in range(a) for j in range(b)])


# -- I/O ---------------------------------------------------------------------


def parse_edge_list(text: str) -> Graph:
    """Edge-list text format: first line "n m", then m lines "u v".

    Lines starting with '#' (and blank lines) are ignored.
    """
    lines = [
        ln.strip()
        for ln in text.splitlines()
        if ln.strip() and not ln.lstrip().startswith("#")
    ]
    if not lines:
        raise ValueError("empty edge-list input")
    head = lines[0].split()
    if len(head) != 2:
        raise ValueError(f"expected header 'n m', got {lines[0]!r}")
    n, m = int(head[0]), int(head[1])
    if len(lines) - 1 != m:
        raise ValueError(f"header says m={m} but found {len(lines) - 1} edge lines")
    edges = []
    for ln in lines[1:]:
        parts = ln.split()
        if len(parts) != 2:
            raise ValueError(f"bad edge line {ln!r}")
        edges.append((int(parts[0]), int(parts[1])))
    if len(set(tuple(sorted(e)) for e in edges)) != len(edges):
        raise ValueError("duplicate edge in input")
    return Graph.from_edges(n, edges)


def format_edge_list(g: Graph) -> str:
    lines = [f"{g.n} {g.m}"]
    lines.extend(f"{u} {v}" for u, v in g.edges)
    return "\n".join(lines) + "\n"


def graph_to_json_dict(g: Graph) -> dict:
    return {"n": g.n, "edges": [[u, v] for u, v in g.edges]}


def json_int(x) -> int:
    """A vertex count or vertex read from JSON: an integer, never a float,
    which `int()` would truncate, nor a bool."""
    if not isinstance(x, int) or isinstance(x, bool):
        raise ValueError(f"expected an integer, got {x!r}")
    return x


def graph_from_json_dict(d: dict) -> Graph:
    try:
        n = json_int(d["n"])
        edges = [(json_int(u), json_int(v)) for u, v in d["edges"]]
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"malformed graph JSON: {exc!r}") from exc
    return Graph.from_edges(n, edges)


def load_graph(path: str | Path) -> Graph:
    """Load a graph from a file; JSON is detected by a leading '{'."""
    text = Path(path).read_text()
    if text.lstrip().startswith("{"):
        return graph_from_json_dict(json.loads(text))
    return parse_edge_list(text)


def save_graph(g: Graph, path: str | Path, fmt: str = "edgelist") -> None:
    if fmt == "json":
        Path(path).write_text(json.dumps(graph_to_json_dict(g)) + "\n")
    elif fmt == "edgelist":
        Path(path).write_text(format_edge_list(g))
    else:
        raise ValueError(f"unknown graph format {fmt!r}")
