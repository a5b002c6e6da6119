"""The benchmark's workloads: seeded inputs, timed trials and output checks.

A workload is a sequence of rounds.  Each round is a fixed list of trials, and
a trial is one call through nacflex's public API, looked up on the package at
call time so that tracing wrappers see it.  After a round, ``check`` returns
one verdict per trial (None when the output is correct) and the canonical
output lines that the digest of the default seed freezes.  Checks that
allocate much memory are queued and run by ``deferred_checks`` after the
run has read its peak memory.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Callable

import numpy as np

# Every search gets this budget explicitly, so a change of the library's
# defaults cannot change a workload.
NODE_BUDGET = 500_000
DEFAULT_SEED = 1
BUDGET = "budget-exceeded"

HITTING_NS = tuple(range(8, 31, 2))
DECIDE_NS = (20, 30)
SWEEP_N = 2000
SWEEP_C = (0.8, 1.0, 1.3)
SWEEP_CROSS_CHECK_EVERY = 16
REGULAR_NAC_N = 540
CONFIG_N = 1000
REGULAR_K = 4

_MASK64 = (1 << 64) - 1


def mix(seed: int, *parts: int) -> int:
    """A 63-bit master seed folded from the benchmark seed and trial indices."""
    h = seed & _MASK64
    for p in parts:
        h = ((h ^ (p & _MASK64)) + 0x9E3779B97F4A7C15) & _MASK64
        h = ((h ^ (h >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        h = ((h ^ (h >> 27)) * 0x94D049BB133111EB) & _MASK64
        h ^= h >> 31
    return h >> 1


@dataclass(frozen=True)
class Trial:
    kind: str
    # Called with the outputs of the round's earlier trials.
    call: Callable[[list], object]


def _csv_without(text: str, column: str) -> list[str]:
    rows = [line.split(",") for line in text.splitlines()]
    drop = rows[0].index(column)
    return [",".join(r[:drop] + r[drop + 1 :]) for r in rows]


def _budget_or_error(nf, out) -> str | None:
    """The verdict on a trial that raised, or None when it returned."""
    if isinstance(out, nf.BudgetExceeded):
        return BUDGET
    if isinstance(out, BaseException):
        return f"raised {type(out).__name__}: {out}"
    return None


class Workload:
    name = ""

    def __init__(self, nf, seed: int) -> None:
        self.nf = nf
        self.seed = seed

    def deferred_checks(self) -> list[str]:
        """Problems found by the checks queued during the run."""
        return []


class Hitting(Workload):
    """Criterion 6's shape: identity-checked hitting traces over n = 8..30."""

    name = "hitting"

    def round(self, r: int) -> list[Trial]:
        nf = self.nf
        return [
            Trial(
                f"hitting_equality_experiment n={n}",
                lambda prev, n=n, s=mix(self.seed, r, n): nf.hitting_equality_experiment(
                    (n,), 1, s, node_budget=NODE_BUDGET, check_identity=True
                ),
            )
            for n in HITTING_NS
        ]

    def check(self, r: int, outs: list) -> tuple[list[str | None], list[str]]:
        verdicts, lines = [], []
        for n, out in zip(HITTING_NS, outs):
            bad = _budget_or_error(self.nf, out)
            if bad is None:
                row = out.rows[0]
                if row.n != n or row.trials != 1:
                    bad = f"result is for n={row.n}, trials={row.trials}"
                elif row.ordering_violations:
                    bad = f"{row.ordering_violations} ordering violation(s) at n={n}"
                elif row.budget_exceeded:
                    bad = BUDGET
                lines += _csv_without(out.to_csv(), "wall_ms")[1:]
            else:
                lines.append(f"n={n} {bad}")
            verdicts.append(bad)
        return verdicts, lines


def _pairs_from_indices(n: int, idx: np.ndarray) -> np.ndarray:
    """Rows (u, v) of the lexicographic edge indices over {u < v < n}."""
    u = np.arange(n, dtype=np.int64)
    offsets = u * (n - 1) - u * (u - 1) // 2
    rows = np.searchsorted(offsets, idx, side="right") - 1
    return np.stack([rows, rows + 1 + idx - offsets[rows]], axis=1)


class Sparse(Workload):
    """Criteria 8, 9 and 10's shapes: n=2000 T-sweep trials and k=4 regular graphs.

    No exact search runs here: the work is numpy sampling and masking, the
    triangle kernels, the configuration model and NAC checks on sparse graphs
    with n up to 2000.
    """

    name = "sparse"

    def __init__(self, nf, seed: int) -> None:
        super().__init__(nf, seed)
        # (round, sweep index) -> coupled outcomes, to be re-decided later
        self.cross_checks: dict[tuple[int, int], list[int]] = {}

    def round(self, r: int) -> list[Trial]:
        nf, s = self.nf, self.seed
        sweeps = [
            Trial(
                f"run_sweep T n={SWEEP_N}",
                lambda prev, m=mix(s, r, i): nf.run_sweep(
                    nf.SweepSpec("T", (SWEEP_N,), SWEEP_C, 1, m, NODE_BUDGET)
                ),
            )
            for i in range(2)
        ]
        return sweeps + [
            Trial(
                f"regular_nac_lower_bound n={REGULAR_NAC_N}",
                lambda prev: nf.regular_nac_lower_bound(
                    REGULAR_NAC_N, REGULAR_K, 1, mix(s, r, 2)
                ),
            ),
            Trial(
                f"regular_configuration n={CONFIG_N}",
                lambda prev: nf.regular_configuration(
                    CONFIG_N, REGULAR_K, nf.RandomSource(mix(s, r, 3))
                ),
            ),
            Trial(
                f"triangle_count n={CONFIG_N}",
                lambda prev: nf.triangle_count(prev[-1][0]),
            ),
        ]

    def check(self, r: int, outs: list) -> tuple[list[str | None], list[str]]:
        verdicts, lines = [], []
        for i, out in enumerate(outs[:2]):
            bad = _budget_or_error(self.nf, out) or self._check_sweep(out, r, i)
            verdicts.append(bad)
            lines += [bad] if bad else _csv_without(out.to_csv(), "wall_ms")[1:]
        nac, config, tris = outs[2:]
        bad = _budget_or_error(self.nf, nac)
        if bad is None:
            row = nac.rows[0]
            if row.nac_failures:
                bad = f"{row.nac_failures} star colouring(s) failed the NAC check"
            elif row.x_size * (REGULAR_K**3 - REGULAR_K**2 + REGULAR_K + 1) < REGULAR_NAC_N:
                bad = f"distance-4 set of size {row.x_size} is too small"
            lines += nac.to_csv().splitlines()[1:]
        verdicts.append(bad)
        bad = _budget_or_error(self.nf, config)
        if bad is None:
            g, rejects = config
            degrees = np.bincount(np.array(g.edges).ravel(), minlength=g.n)
            if g.n != CONFIG_N or degrees.min() != REGULAR_K or degrees.max() != REGULAR_K:
                bad = "configuration graph is not 4-regular on 1000 vertices"
            edges_sha = hashlib.sha256(repr(g.edges).encode()).hexdigest()
            lines.append(f"config rejects={rejects} edges={edges_sha}")
        verdicts.append(bad)
        bad = _budget_or_error(self.nf, tris)
        if bad is None:
            expected = _triangles_by_sets(config[0])
            if tris != expected:
                bad = f"triangle_count gave {tris}, set intersection gives {expected}"
            lines.append(f"triangles={tris}")
        verdicts.append(bad)
        return verdicts, lines

    def _check_sweep(self, res, r: int, i: int) -> str | None:
        rows = res.rows
        if [(row.n, row.c, row.trials) for row in rows] != [
            (SWEEP_N, c, 1) for c in SWEEP_C
        ]:
            return "sweep rows do not match the spec"
        if any(row.budget_exceeded for row in rows):
            return BUDGET
        hits = [row.successes for row in rows]
        if hits != sorted(hits):
            return f"coupled outcomes not monotone in c: {hits}"
        if (2 * r + i) % SWEEP_CROSS_CHECK_EVERY == 0:
            self.cross_checks[r, i] = hits
        return None

    def deferred_checks(self) -> list[str]:
        out = []
        for (r, i), hits in sorted(self.cross_checks.items()):
            expected = covered_by_merge_scan(self.nf, mix(self.seed, r, i), SWEEP_N, SWEEP_C)
            if hits != expected:
                out.append(f"round {r}, sweep {i}: triangle_covered gave {hits}, "
                           f"every_vertex_in_triangle {expected}")
        self.cross_checks.clear()
        return out


def covered_by_merge_scan(nf, master: int, n: int, cs) -> list[int]:
    """Rebuild a sweep trial's coupled graphs and decide T with the merge-scan kernel.

    Mirrors the sweep's documented sampling: one uniform per potential edge
    from the trial's derived stream, thresholded at c * p_star(n).  A change
    of the sweep's sampling (e.g. drawing only the edges below the largest
    threshold) must change this function and the frozen digest with it.
    """
    stream = nf.RandomSource(master).derive(nf.experiments._TAG_SWEEP, 0, 0)
    uniforms = stream.generator().random(n * (n - 1) // 2)
    out = []
    for c in cs:
        p = min(c * nf.p_star(n), 1.0)
        pairs = _pairs_from_indices(n, np.flatnonzero(uniforms < p))
        g = nf.Graph.from_edges(n, pairs.tolist())
        out.append(int(nf.every_vertex_in_triangle(g)[0]))
    return out


def _triangles_by_sets(g) -> int:
    adj = [set(a) for a in g.adjacency]
    return sum(len(adj[u] & adj[v]) for u, v in g.edges) // 3


def tau_t_prefix(nf, n: int, master: int) -> tuple[tuple[int, int], ...]:
    """Edges of a random graph process on n vertices stopped at the triangle-cover step."""
    pairs = nf.process(n, nf.RandomSource(master)).pairs().tolist()
    adj = [0] * n
    covered = 0
    for t, (u, v) in enumerate(pairs):
        common = adj[u] & adj[v]
        if common:
            covered |= common | (1 << u) | (1 << v)
        adj[u] |= 1 << v
        adj[v] |= 1 << u
        if covered == (1 << n) - 1:
            return nf.Graph.from_edges(n, pairs[: t + 1]).edges
    raise ValueError(f"process on {n} vertices never covers every vertex by triangles")


class Decide(Workload):
    """The four search engines alone, on process prefixes at tau_T for n = 20 and 30.

    Each round decides fresh prefixes, generated from the seed and the round
    number before the round's trials are timed, so no graph repeats and the
    tail is not set by a few hard graphs of a small corpus.
    """

    name = "decide"
    DECISIONS = ("stable_cut_exists", "sprime_holds", "firm_cut_exists", "nac_exists")

    def prefixes(self, r: int) -> list[tuple[tuple[int, int], ...]]:
        return [tau_t_prefix(self.nf, n, mix(self.seed, r, n)) for n in DECIDE_NS]

    def round(self, r: int) -> list[Trial]:
        nf = self.nf
        # a fresh Graph per call, so the timed call also builds its caches
        return [
            Trial(
                f"{fn} n={n}",
                lambda prev, fn=fn, n=n, e=edges: getattr(nf, fn)(
                    nf.Graph(n, e), node_budget=NODE_BUDGET
                ),
            )
            for n, edges in zip(DECIDE_NS, self.prefixes(r))
            for fn in self.DECISIONS
        ]

    def check(self, r: int, outs: list) -> tuple[list[str | None], list[str]]:
        nf = self.nf
        verdicts, lines = [], []
        for k, (n, edges) in enumerate(zip(DECIDE_NS, self.prefixes(r))):
            g = nf.Graph(n, edges)
            stable, sprime, firm, nac = outs[4 * k : 4 * k + 4]
            got = [_budget_or_error(nf, out) for out in (stable, sprime, firm, nac)]
            if got[0] is None and stable is not None:
                got[0] = _cut_problem(nf, g, stable, lambda sizes: len(sizes) >= 2)
            if got[1] is None and not sprime[0] and sprime[1] is None:
                got[1] = "sprime_holds returned False without a certificate"
            elif got[1] is None and not sprime[0]:
                got[1] = _cut_problem(
                    nf, g, sprime[1], lambda s: len(s) >= 3 or (len(s) == 2 and min(s) >= 2)
                )
            if got[2] is None and firm is not None:
                got[2] = _cut_problem(nf, g, firm, lambda s: len(s) >= 2 and min(s) >= 2)
            if got[3] is None and nac is not None and not nf.nac_check(nac).is_nac:
                got[3] = "nac_exists returned a colouring that fails nac_check"
            if got[0] is None and got[1] is None:
                in_t = nf.every_vertex_in_triangle(g)[0]
                if (stable is None) != (in_t and sprime[0]):
                    got[0] = got[1] = "no-stable-cut differs from triangle-cover and no-bad-cut"
            verdicts += got
            for out, bad in zip((stable, sprime, firm, nac), got):
                lines.append(bad or _canonical(out))
        return verdicts, lines


def _cut_problem(nf, g, cert, sizes_ok) -> str | None:
    """Re-verify a cut certificate with is_stable and components."""
    if not nf.is_stable(g, cert.s):
        return f"{cert.kind} certificate set {cert.s} is not stable"
    rest, kept = nf.induced_delete(g, cert.s)
    comps = sorted(tuple(sorted(kept[v] for v in c)) for c in nf.components(rest).sets())
    if comps != sorted(cert.components):
        return f"{cert.kind} certificate components do not match G - S"
    if not sizes_ok([len(c) for c in comps]):
        return f"{cert.kind} certificate leaves components of sizes {[len(c) for c in comps]}"
    return None


def _canonical(out) -> str:
    """A certificate, colouring or sprime_holds pair as one digest line."""
    if isinstance(out, tuple):
        return f"{out[0]} {_canonical(out[1])}"
    if out is None:
        return "None"
    d = out.to_json_dict()
    return repr(d.get("red", d))


WORKLOADS = {cls.name: cls for cls in (Hitting, Sparse, Decide)}

# sha256 of the canonical output lines of round 0 at DEFAULT_SEED.
DIGESTS = {
    "hitting": "f76d5db4c98a544f0d03243490fd867ccb36e4bf577f17109a9cb7d9c9e5f4b8",
    "sparse": "6730d0fd13c6e6fd499dba85fc46b05981b9753876a233ebc4806f58d73b0587",
    "decide": "f35668ca5b7099059cdd8d56fe2defe929e35d4980c49a378e6b5661334219a0",
}


def digest(lines: list[str]) -> str:
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()
