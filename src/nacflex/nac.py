"""Decide, enumerate, count and classify NAC-colourings.

A NAC-colouring is a surjective red/blue edge colouring in which no cycle
carries exactly one red or exactly one blue edge.  The checker uses the
derived characterisation: a cycle with exactly one red edge exists precisely
when some red edge has its endpoints joined by an all-blue path, i.e. lies
inside a blue monochromatic component (and symmetrically).  The literal
cycle-enumeration semantics are kept alongside as a test oracle.

Enumeration and existence search work on the quotient by triangle classes
(edges sharing a triangle are monochromatic in every NAC-colouring), with
incremental union-find pruning and red/blue swap symmetry broken by fixing
the first class red.  The search is a stack of pending choices, like the
separator search in `cuts`, and its node budget is its only limit: no
ceiling on the number of classes refuses a graph.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from enum import Enum
from functools import cached_property, lru_cache
from itertools import accumulate, chain, compress, islice, product, repeat
from operator import is_
from pathlib import Path

from .errors import (
    DEFAULT_NODE_BUDGET,
    BudgetExceeded,
    CycleSpaceTooLarge,
    PreconditionError,
    check_node_budget,
)
from .graphs import (
    ComponentLabelling,
    Graph,
    TriangleClasses,
    bipartition,
    component_masks,
    components,
    connection_step,
    graph_from_json_dict,
    graph_to_json_dict,
    json_int,
    mask_is_stable,
    mask_vertices,
    triangle_classes,
)

__all__ = [
    "Colour",
    "EdgeColouring",
    "NacVerdict",
    "TriangleClasses",
    "NacEnumeration",
    "StableWitness",
    "monochromatic_components",
    "nac_check",
    "nac_check_oracle",
    "simple_cycle_edge_masks",
    "triangle_classes",
    "nac_exists",
    "nac_enumerate",
    "nac_count",
    "stable_witnesses",
    "MAX_WITNESSES",
    "MAX_CYCLE_SPACE_DIM",
]

# stable_witnesses(mode="all") without a size_cap lists no more (README,
# "Scale defaults", has the measurement)
MAX_WITNESSES = 1 << 16

# the cycle-definition oracle enumerates all 2^dim members of the cycle space
# and refuses a larger dimension
MAX_CYCLE_SPACE_DIM = 16


class Colour(str, Enum):
    RED = "red"
    BLUE = "blue"

    @property
    def other(self) -> "Colour":
        return Colour.BLUE if self is Colour.RED else Colour.RED


@dataclass(frozen=True)
class EdgeColouring:
    """Total red/blue assignment over a graph's edge indices."""

    graph: Graph
    colours: tuple[Colour, ...]

    def __post_init__(self) -> None:
        if len(self.colours) != self.graph.m:
            raise ValueError(
                f"colouring has {len(self.colours)} entries for {self.graph.m} edges"
            )
        # entries are tested by identity (`is Colour.RED`), so "red" becomes
        # Colour.RED; the searches' colourings pass with the type test alone
        if not set(map(type, self.colours)) <= {Colour}:
            object.__setattr__(self, "colours", tuple(map(Colour, self.colours)))

    @classmethod
    def from_red_edges(cls, g: Graph, red: list[tuple[int, int]] | set) -> "EdgeColouring":
        index = g.edge_index
        cols = [Colour.BLUE] * g.m
        for u, v in red:
            i = index.get((u, v) if u < v else (v, u))
            if i is None:
                raise ValueError(f"({u}, {v}) is not an edge of the graph")
            cols[i] = Colour.RED
        return cls(g, tuple(cols))

    @cached_property
    def red_mask(self) -> int:
        mask = 0
        for i, col in enumerate(self.colours):
            if col is Colour.RED:
                mask |= 1 << i
        return mask

    def edges_of(self, colour: Colour) -> tuple[tuple[int, int], ...]:
        return tuple(
            e for e, col in zip(self.graph.edges, self.colours) if col is colour
        )

    def colour_of(self, u: int, v: int) -> Colour:
        return self.colours[self.graph.index_of(u, v)]

    def is_surjective(self) -> bool:
        return Colour.RED in self.colours and Colour.BLUE in self.colours

    def swapped(self) -> "EdgeColouring":
        return EdgeColouring(self.graph, tuple(c.other for c in self.colours))

    def to_json_dict(self) -> dict:
        return {
            "graph": graph_to_json_dict(self.graph),
            "red": [[u, v] for u, v in self.edges_of(Colour.RED)],
        }

    @classmethod
    def from_json_dict(cls, d: dict) -> "EdgeColouring":
        try:
            graph, red = d["graph"], [(json_int(u), json_int(v)) for u, v in d["red"]]
        except (KeyError, TypeError, ValueError) as exc:
            raise ValueError(f"malformed colouring JSON: {exc!r}") from exc
        return cls.from_red_edges(graph_from_json_dict(graph), red)


def load_colouring(path: str | Path) -> EdgeColouring:
    return EdgeColouring.from_json_dict(json.loads(Path(path).read_text()))


@dataclass(frozen=True)
class NacVerdict:
    """Outcome of a NAC check; on failure carries a certificate.

    failure is "not-surjective", or "almost-monochromatic-cycle" with `edge`
    the single off-colour edge and `path` a monochromatic vertex path joining
    its endpoints (path + edge is the offending cycle).
    """

    is_nac: bool
    failure: str | None = None
    edge: tuple[int, int] | None = None
    path: tuple[int, ...] | None = None


@dataclass(frozen=True)
class NacEnumeration:
    colourings: tuple[EdgeColouring, ...]
    complete: bool

    @property
    def count(self) -> int | None:
        return len(self.colourings) if self.complete else None


@dataclass(frozen=True)
class StableWitness:
    """Stable set s such that edges meeting s are exactly the `side` edges."""

    side: Colour
    vertices: tuple[int, ...]


class _ColourMasks:
    """Per colour, the neighbour masks of the subgraph of its edges, read as
    masks[colour].

    The red masks and `touched`, the set of vertices with a red edge, come
    from the red edges alone.  The blue masks, `adjacency_masks` with the
    red bits cleared, cost a pass over all n vertices and are built on first
    use."""

    def __init__(self, c: EdgeColouring) -> None:
        g = c.graph
        self.adjacency = g.adjacency_masks
        self.red = red = [0] * g.n
        red_edges = list(compress(g.edges, map(is_, c.colours, repeat(Colour.RED))))
        for u, v in red_edges:
            red[u] |= 1 << v
            red[v] |= 1 << u
        self.touched = set(chain.from_iterable(red_edges))
        self.blue: list[int] | None = None

    def __getitem__(self, colour: Colour) -> list[int]:
        if colour is Colour.RED:
            return self.red
        if self.blue is None:
            self.blue = [a & ~r for a, r in zip(self.adjacency, self.red)]
        return self.blue


def monochromatic_components(c: EdgeColouring, colour: Colour) -> ComponentLabelling:
    """Components of the subgraph of `colour` edges; untouched vertices are singletons."""
    n = c.graph.n
    comps = component_masks(_ColourMasks(c)[colour], (1 << n) - 1)
    return ComponentLabelling.from_masks(n, comps)


def nac_check(c: EdgeColouring) -> NacVerdict:
    """NAC decision with failure certificate.

    is_nac iff the colouring is surjective and every edge joins two distinct
    monochromatic components of the other colour.  Call a vertex mixed when
    it has edges of both colours.  An edge inside a component of the other
    colour joins two mixed vertices: each end has that edge and an edge of
    the component.  So a colour's edges are tested only when one of them
    joins two mixed vertices; the other colour's components are then
    flooded, and each must be stable, on its mixed vertices, in the tested
    colour's graph.  A stable-cut colouring (red: the edges that meet some
    components of G - S for a stable S) has no such edge of either colour, so
    past one pass over the colours its check costs work in the red edges
    and the mixed vertices only.  A failing colouring is scanned in edge
    order over the components already flooded."""
    if not c.is_surjective():
        return NacVerdict(False, failure="not-surjective")
    g = c.graph
    masks = _ColourMasks(c)
    red, adjacency = masks.red, masks.adjacency
    mixed = [v for v in masks.touched if adjacency[v] != red[v]]
    within = sum(1 << v for v in mixed)
    # per colour, the components of the other colour that its edges may lie in
    comps = {}
    if any(red[v] & within for v in mixed):
        comps[Colour.RED] = component_masks(masks[Colour.BLUE], (1 << g.n) - 1)
    if any((adjacency[v] ^ red[v]) & within for v in mixed):
        comps[Colour.BLUE] = component_masks(red, (1 << g.n) - 1)
    if all(
        mask_is_stable(masks[col], s)
        for col, cs in comps.items()
        for s in map(within.__and__, cs)
        if s & (s - 1)
    ):
        return NacVerdict(True)
    # an untested colour's edges cannot fail: range(n) labels each vertex alone
    labels = {Colour.RED: range(g.n), Colour.BLUE: range(g.n)}
    for col, cs in comps.items():
        labels[col] = ComponentLabelling.from_masks(g.n, cs).labels
    for (u, v), col in zip(g.edges, c.colours):
        other = labels[col]
        if other[u] == other[v]:
            path = _monochromatic_path(masks[col.other], u, v)
            return NacVerdict(
                False, failure="almost-monochromatic-cycle", edge=(u, v), path=path
            )
    raise AssertionError("unreachable: some component spans an other-colour edge")


def _monochromatic_path(masks: list[int], start: int, goal: int) -> tuple[int, ...]:
    """A shortest start-goal path in the graph of the neighbour masks `masks`,
    by a breadth-first search that takes neighbours in increasing order and
    stops once it reaches goal: later vertices do not change goal's parent."""
    parent = {start: -1}
    queue = [start]
    for u in queue:
        for w in mask_vertices(masks[u]):
            if w not in parent:
                parent[w] = u
                queue.append(w)
        if goal in parent:
            break
    path = [goal]
    while path[-1] != start:
        path.append(parent[path[-1]])
    return tuple(reversed(path))


# -- literal cycle-definition oracle -----------------------------------------


@lru_cache(maxsize=4096)
def simple_cycle_edge_masks(g: Graph) -> tuple[int, ...]:
    """Edge-index bitmasks of all simple cycles of g.

    Enumerates the cycle space from a fundamental basis (Gray-code iteration)
    and keeps the members that are single cycles: every touched vertex of
    degree exactly two, and connected.
    """
    basis = _fundamental_cycle_masks(g)
    dim = len(basis)
    if dim > MAX_CYCLE_SPACE_DIM:
        raise CycleSpaceTooLarge(
            f"cycle space dimension {dim} exceeds budget {MAX_CYCLE_SPACE_DIM}"
        )
    cycles = []
    mask = 0
    for k in range(1, 1 << dim):
        mask ^= basis[(k & -k).bit_length() - 1]
        if _is_simple_cycle(g, mask):
            cycles.append(mask)
    return tuple(cycles)


def _fundamental_cycle_masks(g: Graph) -> list[int]:
    parent = [-1] * g.n
    parent_edge = [-1] * g.n
    depth = [0] * g.n
    seen = [False] * g.n
    tree_edges = set()
    for root in range(g.n):
        if seen[root]:
            continue
        seen[root] = True
        stack = [root]
        while stack:
            u = stack.pop()
            for w in g.adjacency[u]:
                if not seen[w]:
                    seen[w] = True
                    parent[w] = u
                    parent_edge[w] = g.index_of(u, w)
                    depth[w] = depth[u] + 1
                    tree_edges.add(parent_edge[w])
                    stack.append(w)
    basis = []
    for i, (u, v) in enumerate(g.edges):
        if i in tree_edges:
            continue
        mask = 1 << i
        a, b = u, v
        while depth[a] > depth[b]:
            mask ^= 1 << parent_edge[a]
            a = parent[a]
        while depth[b] > depth[a]:
            mask ^= 1 << parent_edge[b]
            b = parent[b]
        while a != b:
            mask ^= 1 << parent_edge[a]
            mask ^= 1 << parent_edge[b]
            a, b = parent[a], parent[b]
        basis.append(mask)
    return basis


def _is_simple_cycle(g: Graph, mask: int) -> bool:
    degree: dict[int, int] = {}
    edges = []
    m = mask
    while m:
        i = (m & -m).bit_length() - 1
        m &= m - 1
        u, v = g.edges[i]
        degree[u] = degree.get(u, 0) + 1
        degree[v] = degree.get(v, 0) + 1
        edges.append((u, v))
    if len(edges) < 3 or len(edges) != len(degree):
        return False
    if any(d != 2 for d in degree.values()):
        return False
    # connected 2-regular with #edges == #vertices => a single cycle
    ids = {v: i for i, v in enumerate(degree)}
    return connection_step(len(ids), [(ids[u], ids[v]) for u, v in edges]) is not None


def nac_check_oracle(c: EdgeColouring) -> bool:
    """Apply the cycle definition literally: test only; small instances."""
    if not c.is_surjective():
        return False
    red = c.red_mask
    for cyc in simple_cycle_edge_masks(c.graph):
        size = bin(cyc).count("1")
        reds = bin(cyc & red).count("1")
        if reds == 1 or size - reds == 1:
            return False
    return True


# -- search over triangle classes ---------------------------------------------


def _iter_nac_colourings(g: Graph, node_budget: int):
    """DFS over colourings of g's triangle classes, largest class first (ties
    by least edge), with the first class fixed RED.

    Yields every colouring with a blue edge in which no edge of one colour
    lies inside a monochromatic component of the other (checked
    incrementally; violations prune the subtree): the NAC-colourings with
    the first class red.

    One union-find over 2n nodes holds both colours: node v is v's red
    component and node n + v its blue one.  It links by size without path
    compression, so one trail of linked roots undoes both.  Each root keeps
    the edge mask of its component's boundary, the edges with exactly one
    end inside; a link XORs the two masks and its undo XORs them back.  The
    edges in both masks join the two components, so none has the linking
    colour, and the link is refused when one is coloured.  The masks number
    the edges in search order, so the edges coloured before depth d are the
    bits below offsets[d].  The stack holds pending choices (depth, side,
    trail mark), side 0 for red and 1 for blue, popped red before blue.  A
    pop rolls the trail back to the mark, then colours classes[depth] and
    records the side in sides[depth], so a leaf reads its colouring off the
    current path; every pop counts one node against node_budget.
    """
    classes = sorted(g.triangle_classes.classes, key=lambda c: (-len(c), c[0]))
    edges = g.edges
    k = len(classes)
    n = g.n
    # one pass over the edges in search order: each vertex's incident edges
    # are the boundary of its one-vertex component
    boundary = [0] * n
    bit = 1
    for e in chain.from_iterable(classes):
        u, v = edges[e]
        boundary[u] |= bit
        boundary[v] |= bit
        bit <<= 1
    boundary += boundary
    offsets = list(accumulate(map(len, classes), initial=0))
    parent = list(range(2 * n))
    size = [1] * (2 * n)
    trail: list[int] = []
    sides = [0] * k

    def fits(cls, side: int, coloured: int) -> bool:
        """Whether class cls can take colour `side`, given the mask of the
        edges coloured so far: none of its edges lies in an other-colour
        component, and none of its links puts a coloured edge inside a
        component.  The next pop undoes the unions.  The root walks are
        inline: a call per lookup costs more than the walk."""
        here, there = side * n, (1 - side) * n
        for e in cls:
            u, v = edges[e]
            a, b = there + u, there + v
            while parent[a] != a:
                a = parent[a]
            while parent[b] != b:
                b = parent[b]
            if a == b:
                return False
            a, b = here + u, here + v
            while parent[a] != a:
                a = parent[a]
            while parent[b] != b:
                b = parent[b]
            if a != b:
                if boundary[a] & boundary[b] & coloured:
                    return False
                if size[a] < size[b]:
                    a, b = b, a
                parent[b] = a
                size[a] += size[b]
                boundary[a] ^= boundary[b]
                trail.append(b)
        return True

    nodes = 0
    stack = [(0, 0, 0)] if k else []
    while stack:
        depth, side, mark = stack.pop()
        nodes += 1
        if nodes > node_budget:
            raise BudgetExceeded(f"class-colouring search exceeded {node_budget} nodes")
        while len(trail) > mark:
            b = trail.pop()
            a = parent[b]
            size[a] -= size[b]
            boundary[a] ^= boundary[b]
            parent[b] = b
        if not fits(classes[depth], side, (1 << offsets[depth]) - 1):
            continue
        sides[depth] = side
        if depth + 1 < k:
            stack.append((depth + 1, 1, len(trail)))
            stack.append((depth + 1, 0, len(trail)))
        elif any(sides):
            cols = [Colour.RED] * g.m
            for e in chain.from_iterable(compress(classes, sides)):
                cols[e] = Colour.BLUE
            yield EdgeColouring(g, tuple(cols))


def nac_exists(
    g: Graph, *, node_budget: int = DEFAULT_NODE_BUDGET
) -> EdgeColouring | None:
    """First NAC-colouring found, None if provably none exists.

    Raises BudgetExceeded when the search space was not exhausted in time;
    that outcome is distinct from None.
    """
    check_node_budget(node_budget)
    if g.triangle_classes.count < 2:
        return None
    return next(_iter_nac_colourings(g, node_budget), None)


def nac_enumerate(
    g: Graph,
    *,
    cap: int | None = None,
    node_budget: int = DEFAULT_NODE_BUDGET,
) -> NacEnumeration:
    """All NAC-colourings as colour maps (red/blue swaps count as distinct).

    The search fixes one class red and re-expands each hit by its swap.
    Output is sorted canonically.  With `cap`, a partial list is returned
    with complete=False once the cap is hit.  The node budget is the only
    limit: each node yields at most one hit, so it bounds the list too.
    """
    if cap is not None and cap < 1:
        raise PreconditionError("cap must be >= 1")
    check_node_budget(node_budget)
    found: list[EdgeColouring] = []
    complete = True
    for c in _iter_nac_colourings(g, node_budget):
        found.append(c)
        found.append(c.swapped())
        if cap is not None and len(found) >= cap:
            complete = False
            del found[cap:]
            break
    found.sort(key=lambda c: tuple(col.value for col in c.colours))
    return NacEnumeration(tuple(found), complete)


def nac_count(g: Graph, *, node_budget: int = DEFAULT_NODE_BUDGET) -> int:
    """The number of NAC-colourings, red/blue swaps counted as distinct: twice
    the search's yields, counted without keeping any."""
    check_node_budget(node_budget)
    return 2 * sum(1 for _ in _iter_nac_colourings(g, node_budget))


# -- stable NAC-colourings ----------------------------------------------------


def stable_witnesses(
    c: EdgeColouring, mode: str = "first", size_cap: int | None = None
) -> list[StableWitness]:
    """Stable sets s with all edges meeting s one colour, all others the other.

    Every `side` edge has exactly one end in s, so s takes one bipartition
    part of each component of the `side` subgraph (`_qualifying_parts`).
    Witnesses come red side first, each side in lexicographic order over its
    qualifying vertices, absent before present.  mode="first" gives at most
    one witness per side; mode="all" enumerates up to size_cap (>= 1)
    witnesses in total, and without a size_cap refuses, before building any,
    to list more than MAX_WITNESSES.  Isolated vertices never appear in
    witnesses (canonical minimal form).
    """
    if mode not in ("first", "all"):
        raise ValueError(f"mode must be 'first' or 'all', got {mode!r}")
    if size_cap is not None and size_cap < 1:
        raise PreconditionError("size_cap must be >= 1")
    if not nac_check(c).is_nac:
        raise PreconditionError("colouring is not a NAC-colouring")
    g = c.graph
    sides = [
        (side, _qualifying_parts(g, Graph(g.n, c.edges_of(side))))
        for side in (Colour.RED, Colour.BLUE)
    ]
    if mode == "all" and size_cap is None:
        total = sum(math.prod(map(len, choices)) for _, choices in sides)
        if total > MAX_WITNESSES:
            raise PreconditionError(
                f"{total} stable witnesses exceed the listing ceiling of "
                f"{MAX_WITNESSES}; pass size_cap (--size-cap) to list the first ones"
            )
    witnesses = (
        StableWitness(side, tuple(sorted(chain(*pick))))
        for side, choices in sides
        for pick in islice(product(*choices), 1 if mode == "first" else None)
    )
    return list(islice(witnesses, size_cap))


def _qualifying_parts(g: Graph, h: Graph) -> list[list[tuple[int, ...]]]:
    """Per component of the subgraph h with an edge, its bipartition parts
    made only of qualifying vertices (every g-edge of theirs lies in h).

    Components come in order of least vertex, and within one the part
    without that vertex comes first.  A component with two qualifying parts
    has only qualifying vertices, so the product of the lists runs in
    lexicographic order over the qualifying vertices.  The product is empty
    when some component has no qualifying part, and [[]] stands for an h
    that is not bipartite.
    """
    parts = bipartition(h).parts
    if parts is None:
        return [[]]
    in_part1 = set(parts[1])
    choices = []
    for comp in components(h).sets():
        if len(comp) < 2:
            continue
        halves = (
            tuple(v for v in comp if v not in in_part1),
            tuple(v for v in comp if v in in_part1),
        )
        qualifying = [p for p in halves if all(h.degree(v) == g.degree(v) for v in p)]
        choices.append(sorted(qualifying, key=lambda p: p[0] == comp[0]))
    return choices
