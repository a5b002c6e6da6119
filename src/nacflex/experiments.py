"""Reproducible Monte Carlo experiment drivers and CSV/JSON emission.

Trials are pure functions of (master_seed, experiment tag, indices), so runs
are deterministic for any worker count and aggregation happens in trial
order.  Threshold sweeps couple trials across the probability multipliers
with common random numbers: one uniform per potential edge per trial, so a
trial's graphs are nested in c and every swept property, being monotone under
edge addition, is a step function of c.  A trial therefore bisects its c grid
and decides about log2(k+1) of its k levels; the rest follow by monotonicity.
"""

from __future__ import annotations

import json
import math
import os
import sys
import time
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from .cuts import decompose_s, sprime_holds, stable_cut_exists
from .errors import (
    DEFAULT_NODE_BUDGET,
    BudgetExceeded,
    PreconditionError,
    check_node_budget,
)
from .graphs import Graph, connection_step, mask_is_stable
from .nac import EdgeColouring, nac_check, nac_exists
from .randmodels import (
    RandomSource,
    hitting_times,
    p_star,
    pairs_from_indices,
    process,
    regular_configuration,
)

__all__ = [
    "PROPERTIES",
    "N_CEILINGS",
    "SweepSpec",
    "SweepRow",
    "SweepResult",
    "HittingRow",
    "HittingResult",
    "RegularNacRow",
    "RegularNacResult",
    "run_sweep",
    "hitting_equality_experiment",
    "regular_nac_lower_bound",
    "emit",
    "triangle_covered",
]

PROPERTIES = ("T", "S", "Sprime", "N", "NoStableCut", "Connected")

# T and Connected: one trial holds the edges below its largest level, O(n^2 p);
# at n = 32,000 a three-c trial took about 3 s and 330 MB RSS (README, "Scale
# defaults")
N_CEILINGS = {
    "T": 32_000,
    "Connected": 32_000,
    "S": 60,
    "Sprime": 60,
    "NoStableCut": 60,
    "N": 30,
}

_TAG_SWEEP = 0x53574550
_TAG_HITTING = 0x48495454
_TAG_REGULAR = 0x52454743

# star colourings NAC-checked per regular graph: every subset of S when it has
# at most this many non-empty ones, else this many sampled
_STAR_SUBSETS = 100


# -- fast property checks on raw edge arrays -----------------------------------

_CHUNK_EDGES = 4096


# Not triangle_apexes: at n=2000 and c=1.3 (40k edges, 2-vCPU VM) this bitset
# took 7 ms, a Graph and its apexes 64 ms.
def triangle_covered(n: int, pairs: np.ndarray) -> bool:
    """True iff every vertex lies in a triangle (vectorised bitset check).

    An edge is tested only while one of its ends is uncovered, which loses no
    vertex: the triangle edges of an uncovered vertex are all still tested.
    The passes stride over the edges, so each reaches every part of a sorted
    edge list, and the check returns once every vertex is covered.
    """
    if n == 0:
        return True
    if len(pairs) == 0:
        return False
    words = (n + 63) // 64
    bits = np.zeros((n, words), dtype=np.uint64)
    u = pairs[:, 0].astype(np.intp)
    v = pairs[:, 1].astype(np.intp)
    ones = np.ones(len(u), dtype=np.uint64)
    np.bitwise_or.at(bits, (u, v >> 6), np.left_shift(ones, (v & 63).astype(np.uint64)))
    np.bitwise_or.at(bits, (v, u >> 6), np.left_shift(ones, (u & 63).astype(np.uint64)))
    # about _CHUNK_EDGES rows a pass: all m rows at once take m * n/64 words twice
    passes = -(-len(u) // _CHUNK_EDGES)
    covered = np.zeros(n, dtype=bool)
    for first in range(passes):
        pu, pv = u[first::passes], v[first::passes]
        needed = ~(covered[pu] & covered[pv])
        pu, pv = pu[needed], pv[needed]
        tri = (bits[pu] & bits[pv]).any(axis=1)
        covered[pu[tri]] = True
        covered[pv[tri]] = True
        if covered.all():
            return True
    return False


def _decide(prop: str, n: int, pairs: np.ndarray, node_budget: int) -> bool:
    if prop == "T":
        return triangle_covered(n, pairs)
    edges = pairs.tolist()
    if prop == "Connected":
        return connection_step(n, edges) is not None
    g = Graph.from_edges(n, edges)
    if prop == "NoStableCut":
        return stable_cut_exists(g, node_budget=node_budget) is None
    if prop == "S":
        return decompose_s(g, node_budget=node_budget).in_S
    if prop == "Sprime":
        return sprime_holds(g, node_budget=node_budget)[0]
    if prop == "N":
        if connection_step(n, edges) is None:
            return False
        return nac_exists(g, node_budget=node_budget) is None
    raise ValueError(f"unknown property {prop!r}")


# -- result tables and the parallel map -----------------------------------------


class _Table:
    """An experiment result: its fields, and `rows` of flat dataclasses whose
    field names, in order, make up the class's CSV_HEADER."""

    def to_csv(self) -> str:
        lines = [self.CSV_HEADER]
        lines += [",".join(repr(x) for x in vars(r).values()) for r in self.rows]
        return "\n".join(lines) + "\n"

    def to_json_dict(self) -> dict:
        return vars(self) | {"rows": [vars(r) | {} for r in self.rows]}


def _map(fn, tasks: list[tuple], workers: int, chunksize: int = 1) -> list:
    """[fn(*task) for task in tasks], on at most `workers` processes.

    The pool never exceeds the task or CPU count, because it forks all of
    its processes up front.  Callers of cheap tasks pass a larger chunksize.
    """
    procs = min(workers, len(tasks), os.cpu_count() or 1)
    if procs <= 1:
        return [fn(*task) for task in tasks]
    # imported here: it loads multiprocessing, over 1 MB of resident memory
    # that a serial run never uses
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=procs) as pool:
        return list(pool.map(fn, *zip(*tasks), chunksize=chunksize))


# -- threshold sweeps -----------------------------------------------------------


@dataclass(frozen=True)
class SweepSpec:
    property: str
    n_values: tuple[int, ...]
    c_values: tuple[float, ...]
    trials: int
    master_seed: int
    node_budget: int = DEFAULT_NODE_BUDGET

    def validate(self, force: bool = False) -> None:
        if self.property not in PROPERTIES:
            raise PreconditionError(
                f"property must be one of {PROPERTIES}, got {self.property!r}"
            )
        if self.trials < 1:
            raise PreconditionError("trials must be >= 1")
        check_node_budget(self.node_budget)
        if not self.n_values:
            raise PreconditionError("at least one n value is required")
        if any(n < 2 for n in self.n_values):
            raise PreconditionError("n values must be >= 2")
        if not self.c_values:
            raise PreconditionError("at least one c value is required")
        if not all(math.isfinite(c) and c > 0 for c in self.c_values):
            raise PreconditionError("c values must be finite and positive")
        ceiling = N_CEILINGS[self.property]
        if not force and any(n > ceiling for n in self.n_values):
            raise PreconditionError(
                f"n exceeds the default ceiling {ceiling} for property "
                f"{self.property}; pass force to override"
            )


@dataclass(frozen=True)
class SweepRow:
    n: int
    c: float
    p: float
    trials: int
    successes: int
    budget_exceeded: int
    wall_ms: int


@dataclass(frozen=True)
class SweepResult(_Table):
    property: str
    master_seed: int
    rows: tuple[SweepRow, ...]

    CSV_HEADER = ",".join(f.name for f in fields(SweepRow))


_CHUNK_DRAWS = 1 << 16


def _edges_below(src: RandomSource, n: int, level: float) -> tuple[np.ndarray, np.ndarray]:
    """(idx, weights): the pair indices in [0, C(n,2)) whose uniform is below
    `level`, in increasing order, and those uniforms.

    One uniform per pair from `src`'s generator, drawn _CHUNK_DRAWS at a
    time: successive `random(k)` calls continue one stream, so the chunks are
    one `random(C(n,2))` call's values without its C(n,2) floats in memory.
    """
    rng = src.generator()
    total = n * (n - 1) // 2
    idx, weights = [], []
    for lo in range(0, total, _CHUNK_DRAWS):
        chunk = rng.random(min(_CHUNK_DRAWS, total - lo))
        below = np.flatnonzero(chunk < level)
        idx.append(below + lo)
        weights.append(chunk[below])
    return np.concatenate(idx), np.concatenate(weights)


def sweep_trial_outcomes(
    spec: SweepSpec, n_index: int, trial: int
) -> list[tuple[bool, bool, float]]:
    """(success, budget_exceeded, seconds) per c value for one coupled trial.

    One uniform is drawn per potential edge; each c keeps the edges whose
    uniform falls below p = min(c * p_star(n), 1).  The graphs are nested in
    p and every property in PROPERTIES is monotone under edge addition, so
    the trial bisects its distinct levels: a level that holds settles every
    level above it, one that fails every level below it.  Each decision gets
    the edges below its level from the edges below the largest level, which
    `_edges_below` draws in chunks, so the trial never holds all C(n,2)
    uniforms.  After a decision runs out of budget, that level is reported
    exceeded and the remaining unsettled levels are decided one at a time in
    increasing p.  A c settled without a decision of its own reports 0.0
    seconds; a decision's seconds go to the first c of its level.
    """
    n = spec.n_values[n_index]
    src = RandomSource(spec.master_seed).derive(_TAG_SWEEP, n_index, trial)
    base = p_star(n)
    ps = [min(c * base, 1.0) for c in spec.c_values]
    levels = sorted(set(ps))
    idx, weights = _edges_below(src, n, levels[-1])
    pairs = pairs_from_indices(n, idx)
    decided: dict[int, tuple[bool, bool, float]] = {}
    lo, hi = 0, len(levels)  # levels[:lo] fail and levels[hi:] hold
    exceeded = False
    while pending := [i for i in range(lo, hi) if i not in decided]:
        i = pending[0] if exceeded else pending[len(pending) // 2]
        start = time.perf_counter()
        try:
            ok = _decide(spec.property, n, pairs[weights < levels[i]], spec.node_budget)
        except BudgetExceeded:
            decided[i] = (False, True, time.perf_counter() - start)
            exceeded = True
            continue
        decided[i] = (ok, False, time.perf_counter() - start)
        if ok:
            hi = i
        else:
            lo = i + 1
    out = []
    for p in ps:
        i = levels.index(p)
        if i in decided:
            out.append(decided[i])
            decided[i] = decided[i][:2] + (0.0,)  # a level's seconds go to its first c
        else:
            out.append((i >= hi, False, 0.0))
    return out


def run_sweep(spec: SweepSpec, *, workers: int = 1, force: bool = False) -> SweepResult:
    spec.validate(force=force)
    tasks = [
        (spec, ni, trial)
        for ni in range(len(spec.n_values))
        for trial in range(spec.trials)
    ]
    results = _map(sweep_trial_outcomes, tasks, workers, chunksize=8)
    rows = []
    for ni, n in enumerate(spec.n_values):
        per_trial = results[ni * spec.trials : (ni + 1) * spec.trials]
        for ci, c in enumerate(spec.c_values):
            successes = sum(1 for tr in per_trial if tr[ci][0])
            exceeded = sum(1 for tr in per_trial if tr[ci][1])
            wall = sum(tr[ci][2] for tr in per_trial)
            rows.append(
                SweepRow(
                    n,
                    c,
                    min(c * p_star(n), 1.0),
                    spec.trials,
                    successes,
                    exceeded,
                    int(round(wall * 1000)),
                )
            )
    return SweepResult(spec.property, spec.master_seed, tuple(rows))


# -- hitting-time equality experiment -------------------------------------------


@dataclass(frozen=True)
class HittingRow:
    n: int
    trials: int
    eq_s: int
    eq_n: int
    frac_s_eq_t: float
    frac_n_eq_t: float
    se_s: float
    se_n: float
    ordering_violations: int
    budget_exceeded: int
    wall_ms: int


@dataclass(frozen=True)
class HittingResult(_Table):
    master_seed: int
    rows: tuple[HittingRow, ...]

    CSV_HEADER = ",".join(f.name for f in fields(HittingRow))


def _hitting_task(
    n: int, ni: int, trial: int, master_seed: int, node_budget: int, check_identity: bool
) -> tuple[int, int, int | None, int | None, float]:
    src = RandomSource(master_seed).derive(_TAG_HITTING, ni, trial)
    start = time.perf_counter()
    rec = hitting_times(
        process(n, src), node_budget=node_budget, check_identity=check_identity
    )
    return rec.tau_conn, rec.tau_T, rec.tau_S, rec.tau_N, time.perf_counter() - start


def hitting_equality_experiment(
    n_values: tuple[int, ...] | list[int],
    trials: int,
    master_seed: int,
    *,
    node_budget: int = DEFAULT_NODE_BUDGET,
    check_identity: bool = False,
    workers: int = 1,
) -> HittingResult:
    """Per-n fractions of traces with tau_S = tau_T and tau_N = tau_T.

    Ordering violations (tau_T <= tau_S <= tau_N failing on fully computed
    traces) are counted and must be zero; budget-exceeded traces are tallied
    separately and excluded from the equality denominators.
    """
    if trials < 1:
        raise PreconditionError("trials must be >= 1")
    check_node_budget(node_budget)
    if not n_values:
        raise PreconditionError("at least one n value is required")
    if any(n < 3 for n in n_values):
        raise PreconditionError("hitting times need n >= 3")
    tasks = [
        (n, ni, trial, master_seed, node_budget, check_identity)
        for ni, n in enumerate(n_values)
        for trial in range(trials)
    ]
    results = _map(_hitting_task, tasks, workers, chunksize=4)
    rows = []
    for ni, n in enumerate(n_values):
        recs = results[ni * trials : (ni + 1) * trials]
        exceeded = sum(1 for r in recs if r[2] is None or r[3] is None)
        full = [r for r in recs if r[2] is not None and r[3] is not None]
        eq_s = sum(1 for r in full if r[2] == r[1])
        eq_n = sum(1 for r in full if r[3] == r[1])
        violations = sum(1 for r in full if not (r[1] <= r[2] <= r[3]))
        denom = max(len(full), 1)
        frac_s = eq_s / denom
        frac_n = eq_n / denom
        rows.append(
            HittingRow(
                n,
                trials,
                eq_s,
                eq_n,
                frac_s,
                frac_n,
                math.sqrt(frac_s * (1 - frac_s) / denom),
                math.sqrt(frac_n * (1 - frac_n) / denom),
                violations,
                exceeded,
                int(round(sum(r[4] for r in recs) * 1000)),
            )
        )
    return HittingResult(master_seed, tuple(rows))


# -- random-regular NAC lower-bound construction ---------------------------------


@dataclass(frozen=True)
class RegularNacRow:
    trial: int
    x_size: int
    s_size: int
    colourings_checked: int
    nac_failures: int
    rejects: int


@dataclass(frozen=True)
class RegularNacResult(_Table):
    n: int
    k: int
    master_seed: int
    rows: tuple[RegularNacRow, ...]

    CSV_HEADER = ",".join(f.name for f in fields(RegularNacRow))


def _ball_mask(masks: tuple[int, ...], v: int, radius: int) -> int:
    ball = 1 << v
    frontier = ball
    for _ in range(radius):
        nxt = 0
        f = frontier
        while f:
            w = (f & -f).bit_length() - 1
            f &= f - 1
            nxt |= masks[w]
        frontier = nxt & ~ball
        ball |= frontier
    return ball


def _regular_nac_trial(n: int, k: int, trial: int, master_seed: int) -> RegularNacRow:
    src = RandomSource(master_seed).derive(_TAG_REGULAR, trial)
    g, rejects = regular_configuration(n, k, src)
    masks = g.adjacency_masks
    blocked = 0
    x_set = []
    for v in range(n):
        if not (blocked >> v) & 1:
            x_set.append(v)
            blocked |= _ball_mask(masks, v, 3)
    bound = k**3 - k**2 + k + 1
    if len(x_set) * bound < n:
        raise RuntimeError(
            "internal error: maximal distance-4 set smaller than n/(k^3-k^2+k+1)"
        )
    s_set = [x for x in x_set if mask_is_stable(masks, masks[x])]
    # colourings: a non-empty subset of s_set gets red stars, everything else blue
    rng = src.derive(1).generator()
    size = len(s_set)
    subsets: list[int] = []
    if size:
        if (1 << size) - 1 <= _STAR_SUBSETS:
            subsets = list(range(1, 1 << size))
        else:
            seen = set()
            attempts = 0
            while len(subsets) < _STAR_SUBSETS and attempts < 20 * _STAR_SUBSETS:
                attempts += 1
                mask = sum(1 << i for i, b in enumerate(rng.random(size) < 0.5) if b)
                if mask and mask not in seen:
                    seen.add(mask)
                    subsets.append(mask)
    # each centre's star as an edge mask; a colouring ORs its subset's stars
    stars = [sum(1 << g.index_of(x, w) for w in g.adjacency[x]) for x in s_set]
    failures = 0
    for mask in subsets:
        red = 0
        for i, star in enumerate(stars):
            if mask >> i & 1:
                red |= star
        if not nac_check(EdgeColouring(g, red)).is_nac:
            failures += 1
    return RegularNacRow(trial, len(x_set), len(s_set), len(subsets), failures, rejects)


def regular_nac_lower_bound(
    n: int,
    k: int,
    trials: int,
    master_seed: int,
    *,
    workers: int = 1,
) -> RegularNacResult:
    """Sample k-regular graphs; build a maximal pairwise-distance-4 set X,
    filter to stable neighbourhoods S, and NAC-check star colourings from S."""
    if trials < 1:
        raise PreconditionError("trials must be >= 1")
    if k < 2:
        raise PreconditionError(f"k must be >= 2, got k={k}")
    if (n * k) % 2 != 0:
        raise PreconditionError(f"n*k must be even, got n={n}, k={k}")
    tasks = [(n, k, t, master_seed) for t in range(trials)]
    rows = _map(_regular_nac_trial, tasks, workers)
    return RegularNacResult(n, k, master_seed, tuple(rows))


# -- emission --------------------------------------------------------------------


def emit(result: _Table, fmt: str, path: str | Path | None = None) -> None:
    """Write an experiment result as CSV or JSON (full precision, trailing
    newline) to `path`, or to stdout when no path is given."""
    if fmt not in ("csv", "json"):
        raise PreconditionError(f"format must be 'csv' or 'json', got {fmt!r}")
    if fmt == "csv":
        text = result.to_csv()
    else:
        text = json.dumps(result.to_json_dict(), indent=2) + "\n"
    if not path:
        sys.stdout.write(text)
        return
    try:
        Path(path).write_text(text)
    except OSError as exc:
        raise OSError(f"could not write {path}: {exc}") from exc
