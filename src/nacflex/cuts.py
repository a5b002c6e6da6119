"""Stable cuts, firm cuts, and the no-bad-cut property, with certificates.

A stable cut is a stable (independent) set whose removal disconnects the
graph; the empty set counts as a stable cut exactly when the graph is already
disconnected (this keeps "no stable cut" monotone under edge addition).  A
firm cut additionally leaves only components with at least two vertices.
`sprime_holds` decides the property of having no stable cut that leaves at
least three components, or exactly two components each of size at least two.

The exact searches are branch-and-bound: grow a connected set A from a seed
vertex, forcing each frontier vertex either into A or into the separator
S = N(A).  Every stable separator arises as N(A) for a component A of the
cut graph, and seeding A at its minimum vertex generates each candidate
exactly once, so the enumeration is exhaustive.

The prune closes A over triangle classes.  S is stable, so a triangle has at
most one vertex in S, and a triangle with a vertex in A has at least two
there.  Hence every edge of a triangle class with an edge at A touches A, and
the class's vertices lie in A union S: none is left over.  A subtree is cut
when the vertices that must end up in S are not stable, or when what can be
left over spans no edge.  Every search needs a leftover edge: the firm and
S' searches want residual components with an edge, and `stable_cut_exists`
settles every cut with a single-vertex component before it searches.  Only
subtrees that yield nothing are cut, so the separators come in the order of
the unpruned search and the certificates are the same.  The node budget
stays: recognising a stable cutset is NP-complete (Chvatal 1984).

Most decisions the experiments make are "no" (from the triangle-cover step
on, with high probability), and there the ordered search must exhaust its
tree.  So each decision first tries to prove "no" from the small side.  Take
an edge vw.  A stable S misses v or w; call it x.  The cover of x (x, N(x)
and its triangle classes) lies in x's component union S, so every other
component R of G - S is a connected set in U = V - cover[x] with a stable
N(R).  Once the cuts and violations with single-vertex components are
settled (the stable fast path and the S' pair scan; firm cuts have none),
some such R has two vertices and leaves an edge over: in x's component, or
in a third component.  The search confined to U, with the vertices outside
U forced into S like those below the seed, finds that R, so when it finds
no R of two vertices for v and none for w, no cut exists.  Only otherwise
does the ordered search run, so certificates and yield order stay the
same.  The proof and the ordered search share one node budget, in which
each endpoint tried counts as one node.  Exhaustive subset scans are
provided as test oracles.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import (
    DEFAULT_NODE_BUDGET,
    BudgetExceeded,
    PreconditionError,
    check_node_budget,
)
from .graphs import (
    Graph,
    as_vertex_set,
    component_masks,
    components,
    every_vertex_in_triangle,
    is_stable,
    mask_is_stable,
    mask_vertices,
)
from .nac import EdgeColouring

__all__ = [
    "CutCertificate",
    "SDecomposition",
    "stable_cut_exists",
    "firm_cut_exists",
    "sprime_holds",
    "decompose_s",
    "stable_cut_to_nac",
    "stable_cut_exists_exhaustive",
    "firm_cut_exists_exhaustive",
    "sprime_violation_exhaustive",
]


@dataclass(frozen=True)
class CutCertificate:
    """A vertex set plus the component partition its removal induces."""

    s: tuple[int, ...]
    components: tuple[tuple[int, ...], ...]
    kind: str

    def to_json_dict(self) -> dict:
        return {
            "s": list(self.s),
            "components": [list(c) for c in self.components],
            "kind": self.kind,
        }


@dataclass(frozen=True)
class SDecomposition:
    in_T: bool
    in_Sprime: bool
    in_S: bool


# -- bitmask helpers ----------------------------------------------------------


def _certificate(g: Graph, s_mask: int, kind: str) -> CutCertificate:
    full = (1 << g.n) - 1
    comps = component_masks(g.adjacency_masks, full & ~s_mask)
    return CutCertificate(
        mask_vertices(s_mask), tuple(mask_vertices(c) for c in comps), kind
    )


def _node_counter(node_budget: int):
    """One node count for all the searches of one decision: each call counts
    a node, and the first past node_budget raises BudgetExceeded."""
    nodes = 0

    def count() -> None:
        nonlocal nodes
        nodes += 1
        if nodes > node_budget:
            raise BudgetExceeded(f"cut search exceeded {node_budget} nodes")

    return count


def _iter_separators(g: Graph, count, within: int = -1):
    """Yield (A_mask, S_mask) for every connected A inside `within` with
    stable S = N(A) and a leftover R outside A union S that spans an edge.

    Every stable cut with an edge outside one of its components A arises
    this way, and each candidate is generated exactly once by seeding A at
    its minimum vertex: frontier vertices below the seed, and those outside
    `within`, are forced into S.

    Each node carries t, the union over v in A of v, N(v) and the vertices of
    every triangle class with an edge at v.  A yielded descendant's A union S
    contains t, because a triangle has at most one vertex in the stable S, so
    one with a vertex in A has two there, and every edge of a class with an
    edge at A touches A.  So t only grows, R avoids it, the vertices of t
    below the seed or outside `within` end up in S, and the vertices of t
    next to that S end up in A, which adds their covers to t: each node
    closes t under these two rules.  A node is dead, and its subtree yields
    nothing, when that S is not stable or when full & ~t is stable.  Dead
    subtrees are cut after their root is counted; the yield order is that of
    the unpruned search.

    The closure only grows down the stack, so each entry carries it: the
    known S, N(known S) and the vertices whose cover is already in t.  A
    node walks only the vertices that are new at it.

    A stable cut whose leftover spans no edge has a single-vertex component
    r, so N(r) is a stable set whose removal cuts: `stable_cut_exists` finds
    those before it searches, and the firm and S' searches reject them.
    Every popped node is counted by `count`.
    """
    n = g.n
    masks = g.adjacency_masks
    cover = g.class_covers
    full = (1 << n) - 1
    outside = full & ~within
    for seed in range(n):
        if (outside >> seed) & 1:
            continue
        below = ((1 << seed) - 1) | outside
        a_mask = 1 << seed
        # (A, N(A), S, t, known S, N(known S), vertices whose cover is in t)
        stack = [(a_mask, masks[seed], 0, cover[seed], 0, 0, a_mask)]
        while stack:
            a_mask, na_mask, s_mask, t, known, near, joined = stack.pop()
            count()
            s_mask |= na_mask & below
            new = (s_mask | t & below) & ~known
            while True:
                known |= new
                while new:
                    low = new & -new
                    new ^= low
                    near |= masks[low.bit_length() - 1]
                join = t & near & ~joined
                if near & known or not join:
                    break
                joined |= join
                while join:
                    low = join & -join
                    join ^= low
                    t |= cover[low.bit_length() - 1]
                new = t & below & ~known
            if near & known or mask_is_stable(masks, full & ~t):
                continue
            frontier = na_mask & ~s_mask
            if not frontier:
                yield a_mask, s_mask
                continue
            v_bit = frontier & -frontier
            v = v_bit.bit_length() - 1
            a2 = a_mask | v_bit
            na2 = (na_mask | masks[v]) & ~a2
            stack.append((a2, na2, s_mask, t | cover[v], known, near, joined | v_bit))
            if masks[v] & s_mask == 0:
                stack.append((a_mask, na_mask, s_mask | v_bit, t, known, near, joined))


def _no_cut_from_small_side(g: Graph, count) -> bool:
    """True when, for both ends x of one edge, no connected A of two or more
    vertices outside cover[x] has a stable N(A) and a leftover edge.

    Then no stable cut whose components all have two vertices exists, nor an
    S' violation with at most one single-vertex component (module
    docstring).  The edge joins the vertex v with the largest cover to its
    neighbour w with the largest cover, so that the regions searched are
    small.  False when the graph has no edge.
    """
    if not g.m:
        return False
    masks = g.adjacency_masks
    cover = g.class_covers
    size = [c.bit_count() for c in cover]
    v = max(range(g.n), key=size.__getitem__)
    w = max(mask_vertices(masks[v]), key=size.__getitem__)
    full = (1 << g.n) - 1
    for x in (v, w):
        count()
        for a_mask, _ in _iter_separators(g, count, full & ~cover[x]):
            if a_mask & (a_mask - 1):
                return False
    return True


def _separators(g: Graph, node_budget: int):
    """The ordered search's separators, or none when the small-side proof
    shows that no cut the caller accepts exists; one node budget covers both.

    Callers settle the cuts with single-vertex components first.
    """
    count = _node_counter(node_budget)
    if not _no_cut_from_small_side(g, count):
        yield from _iter_separators(g, count)


# -- stable cuts --------------------------------------------------------------


def stable_cut_exists(
    g: Graph, *, node_budget: int = DEFAULT_NODE_BUDGET
) -> CutCertificate | None:
    """A stable-cut certificate, or None when provably no stable cut exists.

    After the fast path, the small-side proof decides most "no" instances
    before the ordered search, whose first separator is the certificate.
    Raises BudgetExceeded when the node budget, which the proof and the
    search share, ran out first.
    """
    check_node_budget(node_budget)
    if g.n == 0:
        return None
    if components(g).count >= 2:
        return _certificate(g, 0, "stable")
    masks = g.adjacency_masks
    full = (1 << g.n) - 1
    # fast path: a vertex with a stable neighbourhood whose removal cuts.  It
    # finds every cut with a single-vertex component, so the search is left
    # with cuts whose leftover spans an edge, the only ones it yields
    for v in range(g.n):
        s_mask = masks[v]
        if s_mask and mask_is_stable(masks, s_mask):
            if len(component_masks(masks, full & ~s_mask)) >= 2:
                return _certificate(g, s_mask, "stable")
    for _, s_mask in _separators(g, node_budget):
        return _certificate(g, s_mask, "stable")
    return None


# -- firm cuts ----------------------------------------------------------------


def firm_cut_exists(
    g: Graph, *, node_budget: int = DEFAULT_NODE_BUDGET
) -> CutCertificate | None:
    """A firm-cut certificate (all residual components >= 2 vertices), or None.

    An isolated vertex left over would be a singleton component, so every
    candidate S takes all of them.  The small-side proof decides most "no"
    instances before the ordered search, on the same node budget.
    """
    check_node_budget(node_budget)
    masks = g.adjacency_masks
    iso_mask = 0
    for v in range(g.n):
        if not masks[v]:
            iso_mask |= 1 << v
    rest = ((1 << g.n) - 1) & ~iso_mask

    def firm_mask(s_mask: int) -> bool:
        comps = component_masks(masks, rest & ~s_mask)
        return len(comps) >= 2 and all(c & (c - 1) for c in comps)

    if firm_mask(0):
        return _certificate(g, iso_mask, "firm")
    # A is a residual component, so it needs two vertices too
    for a_mask, s_mask in _separators(g, node_budget):
        if a_mask & (a_mask - 1) and firm_mask(s_mask):
            return _certificate(g, s_mask | iso_mask, "firm")
    return None


# -- the no-bad-cut property ---------------------------------------------------


def sprime_holds(
    g: Graph, *, node_budget: int = DEFAULT_NODE_BUDGET
) -> tuple[bool, CutCertificate | None]:
    """True when no stable cut leaves >=3 components or two components each >=2.

    On False, returns a violating-cut certificate.  Violations come in two
    shapes and are searched accordingly: two residual singletons (a direct
    scan over non-adjacent pairs u, v with N(u) | N(v) stable and something
    left over), or two residual components spanning an edge each (the
    separator search, whose leftover always spans one).

    N(u) | N(v) can be stable only if N(u) and N(v) are, so the pair scan
    runs over the vertices with a stable neighbourhood alone.  At the
    triangle-cover step there are none.  The pairs keep their order, so the
    first violating pair and its certificate are the same.  After the pair
    scan, the small-side proof decides most "holds" instances before the
    ordered search, on the same node budget.
    """
    check_node_budget(node_budget)
    n = g.n
    if n == 0:
        return True, None
    masks = g.adjacency_masks
    full = (1 << n) - 1
    stable_nbhd = [u for u in range(n) if mask_is_stable(masks, masks[u])]
    for k, u in enumerate(stable_nbhd):
        for v in stable_nbhd[k + 1 :]:
            if (masks[u] >> v) & 1:
                continue
            s_mask = masks[u] | masks[v]
            if not mask_is_stable(masks, s_mask):
                continue
            if full & ~s_mask & ~(1 << u) & ~(1 << v):
                return False, _certificate(g, s_mask, "sprime-violation")
    for a_mask, s_mask in _separators(g, node_budget):
        # the leftover spans an edge; a connected A spans one when it has two
        # vertices
        if a_mask & (a_mask - 1):
            return False, _certificate(g, s_mask, "sprime-violation")
    return True, None


def decompose_s(
    g: Graph, *, node_budget: int = DEFAULT_NODE_BUDGET
) -> SDecomposition:
    """Membership in every-vertex-in-a-triangle, the no-bad-cut property, and
    no-stable-cut, cross-asserting that the third equals the conjunction of
    the first two (valid for n >= 3)."""
    in_t = every_vertex_in_triangle(g)[0]
    in_sp = sprime_holds(g, node_budget=node_budget)[0]
    in_s = stable_cut_exists(g, node_budget=node_budget) is None
    if g.n >= 3 and in_s != (in_t and in_sp):
        raise RuntimeError(
            "internal error: no-stable-cut decision disagrees with "
            f"triangle/no-bad-cut conjunction on n={g.n}, m={g.m}"
        )
    return SDecomposition(in_t, in_sp, in_s)


# -- stable cut -> NAC colouring ----------------------------------------------


def stable_cut_to_nac(g: Graph, cert: CutCertificate) -> EdgeColouring:
    """Colour edges meeting one chosen residual component red, the rest blue.

    The chosen component is the smallest one incident to an edge (ties by
    lowest vertex id).  Requires at least one edge incident to it and one not.
    """
    s = as_vertex_set(g, cert.s)
    if not is_stable(g, s):
        raise PreconditionError("certificate set is not stable")
    if len(cert.components) < 2:
        raise PreconditionError("certificate does not disconnect the graph")
    seen: set[int] = set(s)
    comp_of = {}
    for i, comp in enumerate(cert.components):
        for v in comp:
            if v in seen:
                raise PreconditionError("certificate components overlap")
            seen.add(v)
            comp_of[v] = i
    if seen != set(range(g.n)):
        raise PreconditionError("certificate does not partition the vertices")
    for u, v in g.edges:
        cu, cv = comp_of.get(u), comp_of.get(v)
        if cu is not None and cv is not None and cu != cv:
            raise PreconditionError("certificate components are joined by an edge")

    candidates = [c for c in cert.components if any(g.adjacency[v] for v in c)]
    if not candidates:
        raise PreconditionError("no edge is incident to any component (no red edge)")
    a = min(candidates, key=lambda c: (len(c), min(c)))
    red = 0
    for v in a:
        for w in g.adjacency[v]:
            red |= 1 << g.index_of(v, w)
    if red == (1 << g.m) - 1:
        raise PreconditionError("every edge meets the chosen component (no blue edge)")
    return EdgeColouring(g, red)


# -- exhaustive oracles (tests; n <= ~20) --------------------------------------


def _iter_stable_masks(g: Graph):
    masks = g.adjacency_masks
    for s_mask in range(1 << g.n):
        if mask_is_stable(masks, s_mask):
            yield s_mask


def stable_cut_exists_exhaustive(g: Graph) -> CutCertificate | None:
    if g.n > 20:
        raise ValueError("exhaustive scan is for n <= 20")
    full = (1 << g.n) - 1
    for s_mask in _iter_stable_masks(g):
        if len(component_masks(g.adjacency_masks, full & ~s_mask)) >= 2:
            return _certificate(g, s_mask, "stable")
    return None


def firm_cut_exists_exhaustive(g: Graph) -> CutCertificate | None:
    if g.n > 20:
        raise ValueError("exhaustive scan is for n <= 20")
    full = (1 << g.n) - 1
    for s_mask in _iter_stable_masks(g):
        comps = component_masks(g.adjacency_masks, full & ~s_mask)
        if len(comps) >= 2 and all(c & (c - 1) for c in comps):
            return _certificate(g, s_mask, "firm")
    return None


def sprime_violation_exhaustive(g: Graph) -> CutCertificate | None:
    if g.n > 20:
        raise ValueError("exhaustive scan is for n <= 20")
    full = (1 << g.n) - 1
    for s_mask in _iter_stable_masks(g):
        comps = component_masks(g.adjacency_masks, full & ~s_mask)
        if len(comps) >= 3 or (
            len(comps) == 2 and all(c & (c - 1) for c in comps)
        ):
            return _certificate(g, s_mask, "sprime-violation")
    return None
