"""Seeded random-graph generators and hitting-time computation.

Randomness contract: a RandomSource is the pure pair (master_seed, stream_id).
Streams are realised as numpy PCG64 generators seeded with
SeedSequence(master_seed, spawn_key=(stream_id,)), so the output is a pure
function of the pair and distinct stream ids give statistically independent
streams.  Derived stream ids come from a splitmix64 fold (see
RandomSource.derive), which is likewise pure.  Golden files pin this scheme;
changing it is a breaking change.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from . import cuts as _cuts
from . import nac as _nac
from .errors import DEFAULT_NODE_BUDGET, BudgetExceeded, check_node_budget
from .graphs import Graph, components, connection_step

__all__ = [
    "RandomSource",
    "ProcessTrace",
    "HittingRecord",
    "gnp",
    "gnm",
    "process",
    "replay_trace",
    "hitting_times",
    "regular_configuration",
    "p_star",
    "edge_from_index",
    "pairs_from_indices",
]

_SPLITMIX_GAMMA = 0x9E3779B97F4A7C15
_MASK64 = (1 << 64) - 1


def _splitmix64(x: int) -> int:
    x = (x + _SPLITMIX_GAMMA) & _MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    return x ^ (x >> 31)


@dataclass(frozen=True)
class RandomSource:
    """Pure handle on a reproducible random stream."""

    master_seed: int
    stream_id: int = 0

    def generator(self) -> np.random.Generator:
        seq = np.random.SeedSequence(
            self.master_seed & _MASK64, spawn_key=(self.stream_id & _MASK64,)
        )
        return np.random.Generator(np.random.PCG64(seq))

    def derive(self, *parts: int) -> "RandomSource":
        """New source whose stream id deterministically folds in `parts`."""
        h = self.stream_id & _MASK64
        for p in parts:
            h = _splitmix64(h ^ (p & _MASK64))
        return RandomSource(self.master_seed, h)


# -- edge indexing over the C(n,2) universe ------------------------------------


def pairs_from_indices(n: int, idx: np.ndarray | list[int]) -> np.ndarray:
    """(len(idx), 2) int64 rows (u, v): the pairs at lexicographic indices idx
    over {(u, v): u < v < n}, each in [0, C(n,2)).  Row u starts at
    u(n-1) - u(u-1)/2 = u(2n-1-u)/2, so a binary search over the n row starts
    finds each index's u."""
    u = np.arange(n, dtype=np.int64)
    offsets = u * (2 * n - 1 - u) // 2
    idx = np.asarray(idx, dtype=np.int64)
    rows = np.searchsorted(offsets, idx, side="right") - 1
    return np.column_stack((rows, idx - offsets[rows] + rows + 1))


def edge_from_index(k: int, n: int) -> tuple[int, int]:
    """The k-th pair in lexicographic order over {(u,v): u < v < n}."""
    if not 0 <= k < n * (n - 1) // 2:
        raise ValueError(f"edge index {k} out of range for n={n}")
    u, v = pairs_from_indices(n, [k])[0].tolist()
    return u, v


# -- generators -----------------------------------------------------------------


def gnp(n: int, p: float, src: RandomSource) -> Graph:
    """Binomial random graph: each pair is an edge independently with probability p.

    Uses geometric skipping over the edge universe for small p, otherwise a
    vectorised Bernoulli pass; both paths are deterministic given src.
    """
    if n < 0:  # before any index is mapped: C(n,2) is positive for n < 0 too
        raise ValueError(f"vertex count must be non-negative, got {n}")
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"edge probability must be in [0, 1], got {p}")
    total = n * (n - 1) // 2
    if p == 0.0 or total == 0:
        return Graph.from_edges(n, [])
    rng = src.generator()
    if p <= 0.25 and total > 4096:
        idx = []
        pos = -1
        while True:
            pos += int(rng.geometric(p))
            if pos >= total:
                break
            idx.append(pos)
    else:
        idx = np.flatnonzero(rng.random(total) < p)
    return Graph.from_edges(n, pairs_from_indices(n, idx).tolist())


def gnm(n: int, m: int, src: RandomSource) -> Graph:
    """Uniform graph with exactly m edges (partial Fisher-Yates over the universe)."""
    if n < 0:
        raise ValueError(f"vertex count must be non-negative, got {n}")
    total = n * (n - 1) // 2
    if not 0 <= m <= total:
        raise ValueError(f"edge count {m} out of range for n={n} (max {total})")
    rng = src.generator()
    swap: dict[int, int] = {}
    chosen = []
    for i in range(m):
        j = int(rng.integers(i, total))
        chosen.append(swap.get(j, j))
        swap[j] = swap.get(i, i)
    return Graph.from_edges(n, pairs_from_indices(n, chosen).tolist())


@dataclass(frozen=True)
class ProcessTrace:
    """A uniformly random ordering of all potential edges on n vertices."""

    n: int
    edge_order: np.ndarray = field(repr=False, compare=False)

    @property
    def total(self) -> int:
        return self.n * (self.n - 1) // 2

    def pairs(self) -> np.ndarray:
        """(total, 2) array: row t is the edge added at step t+1."""
        return pairs_from_indices(self.n, self.edge_order)

    def prefix_graph(self, t: int) -> Graph:
        if not 0 <= t <= self.total:
            raise ValueError(f"step {t} out of range")
        pairs = pairs_from_indices(self.n, self.edge_order[:t])
        return Graph.from_edges(self.n, pairs.tolist())


def process(n: int, src: RandomSource) -> ProcessTrace:
    """Random graph process: a uniform permutation of the edge universe.

    The prefix of length t is distributed as the uniform graph with t edges.
    """
    rng = src.generator()
    total = n * (n - 1) // 2
    return ProcessTrace(n, rng.permutation(total))


def replay_trace(n: int, edge_order: list[int] | np.ndarray) -> ProcessTrace:
    """Trace with an injected (non-random) edge order; for tests and replays."""
    order = np.asarray(edge_order, dtype=np.int64)
    total = n * (n - 1) // 2
    if sorted(order.tolist()) != list(range(total)):
        raise ValueError("edge order must be a permutation of all potential edges")
    return ProcessTrace(n, order)


@dataclass(frozen=True)
class HittingRecord:
    """First steps at which the process acquires each property.

    tau_S / tau_N are None when the underlying decision search exceeded its
    budget (recorded, never conflated with a definitive value).
    """

    tau_conn: int
    tau_T: int
    tau_S: int | None
    tau_N: int | None

    def as_json_value(self, field_name: str) -> int | str:
        v = getattr(self, field_name)
        return "budget-exceeded" if v is None else int(v)


def hitting_times(
    trace: ProcessTrace,
    *,
    node_budget: int = DEFAULT_NODE_BUDGET,
    check_identity: bool = False,
) -> HittingRecord:
    """tau_conn by `connection_step` and tau_T by an incremental scan;
    tau_S and tau_N by galloping up from tau_T, then bisecting the last gap.

    The searched properties are monotone: no-stable-cut (with the empty-cut
    convention) and connected-with-no-NAC-colouring.  Both are bracketed below
    by tau_T, which is sound because a graph with all vertices in triangles is
    exactly where those properties can first appear (n >= 3).  Each search
    probes tau_T + 2^k - 1 for k = 0, 1, 2, ... (capped at C(n,2), where both
    properties hold) and bisects between the last failing probe and the first
    passing one.  The result is the same as a bisection over [tau_T, C(n,2)],
    but the first probes land on the sparse prefixes near tau_T, where the
    answer lies with high probability.

    Each probed step builds its prefix graph once.  With check_identity,
    every probed step also cross-asserts, exactly once, that no-stable-cut
    equals triangle-cover AND no-bad-cut: `decompose_s`'s own stable-cut
    search answers the tau_S probe, and the tau_N search reuses its result
    at steps the tau_S search already probed.
    """
    n = trace.n
    if n < 3:
        raise ValueError("hitting times need n >= 3")
    check_node_budget(node_budget)
    edge_lists = trace.pairs().tolist()
    total = trace.total
    tau_conn = connection_step(n, edge_lists)

    # The scan is incremental because tau_T is a first step: the static
    # triangle_apexes kernel would rebuild every prefix.  It always breaks,
    # since K_n puts every vertex in a triangle.
    full = (1 << n) - 1
    adj = [0] * n
    in_tri = 0
    for tau_t, (u, v) in enumerate(edge_lists, 1):
        common = adj[u] & adj[v]
        adj[u] |= 1 << v
        adj[v] |= 1 << u
        if common:
            in_tri |= common | (1 << u) | (1 << v)
            if in_tri == full:
                break

    @functools.cache
    def prefix(t: int) -> Graph:
        return Graph.from_edges(n, edge_lists[:t])

    @functools.cache
    def decomposition(t: int) -> _cuts.SDecomposition:
        return _cuts.decompose_s(prefix(t), node_budget=node_budget)

    def no_stable_cut(t: int) -> bool:
        if check_identity:
            return decomposition(t).in_S
        return _cuts.stable_cut_exists(prefix(t), node_budget=node_budget) is None

    def nac_property(t: int) -> bool:
        g = prefix(t)
        if check_identity:
            decomposition(t)
        if components(g).count != 1:
            return False
        return _nac.nac_exists(g, node_budget=node_budget) is None

    def first_step(prop) -> int | None:
        """Least t in [tau_T, total] with prop(t); prop(total) is taken as true."""
        lo, hi = tau_t, tau_t
        try:
            while hi < total and not prop(hi):
                lo = hi + 1
                hi = min(2 * hi - tau_t + 1, total)
            while lo < hi:
                mid = (lo + hi) // 2
                if prop(mid):
                    hi = mid
                else:
                    lo = mid + 1
            return lo
        except BudgetExceeded:
            return None

    return HittingRecord(
        tau_conn, tau_t, first_step(no_stable_cut), first_step(nac_property)
    )


def regular_configuration(
    n: int, k: int, src: RandomSource, max_rejects: int = 10_000
) -> tuple[Graph, int]:
    """Uniform k-regular simple graph by configuration-model rejection.

    Pairs nk edge-ends uniformly and rejects multigraphs; returns the graph
    and how many pairings were rejected before acceptance.
    """
    if k < 0 or n < 0:
        raise ValueError("n and k must be non-negative")
    if (n * k) % 2 != 0:
        raise ValueError(f"n*k must be even, got n={n}, k={k}")
    if k >= n and k > 0:
        raise ValueError(f"degree {k} impossible on {n} vertices")
    rng = src.generator()
    stubs = np.repeat(np.arange(n, dtype=np.int64), k)
    for rejects in range(max_rejects + 1):
        perm = rng.permutation(n * k)
        ends = stubs[perm].reshape(-1, 2)
        lo = np.minimum(ends[:, 0], ends[:, 1])
        hi = np.maximum(ends[:, 0], ends[:, 1])
        if np.any(lo == hi):
            continue
        keys = lo * n + hi
        if len(np.unique(keys)) != len(keys):
            continue
        g = Graph.from_edges(n, list(zip(lo.tolist(), hi.tolist())))
        return g, rejects
    raise BudgetExceeded(
        f"configuration model rejected {max_rejects} pairings for n={n}, k={k}"
    )


def p_star(n: int) -> float:
    """The sharp-threshold edge probability (2 ln n / n^2)^(1/3)."""
    if n < 2:
        raise ValueError("threshold probability needs n >= 2")
    return (2.0 * math.log(n) / (n * n)) ** (1.0 / 3.0)
