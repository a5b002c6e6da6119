import hashlib
import itertools
import json
import math
import random
import tracemalloc
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from nacflex import cuts
from nacflex.cuts import decompose_s, stable_cut_exists
from nacflex.errors import BudgetExceeded
from nacflex.experiments import PROPERTIES, SweepSpec, run_sweep
from nacflex.graphs import complete_graph, components
from nacflex.nac import nac_exists
from nacflex.randmodels import (
    RandomSource,
    edge_from_index,
    gnm,
    gnp,
    hitting_times,
    p_star,
    pairs_from_indices,
    process,
    regular_configuration,
    replay_trace,
)

from conftest import brute_vertex_in_triangle


class TestRandomSource:
    def test_reproducible(self):
        a = RandomSource(7, 3).generator().random(8)
        b = RandomSource(7, 3).generator().random(8)
        assert np.array_equal(a, b)

    def test_streams_differ(self):
        a = RandomSource(7, 0).generator().random(8)
        b = RandomSource(7, 1).generator().random(8)
        assert not np.array_equal(a, b)

    def test_derive_pure_and_sensitive(self):
        s = RandomSource(7)
        assert s.derive(1, 2) == s.derive(1, 2)
        assert s.derive(1, 2) != s.derive(2, 1)
        assert s.derive(1) != s.derive(1, 0)


class TestEdgeIndexing:
    def test_exhaustive_small(self):
        for n in range(2, 12):
            pairs = list(itertools.combinations(range(n), 2))
            for k, expect in enumerate(pairs):
                assert edge_from_index(k, n) == expect
            arr = pairs_from_indices(n, np.arange(len(pairs)))
            assert [tuple(e) for e in arr.tolist()] == pairs

    def test_full_universe_is_the_upper_triangle(self):
        for n in (0, 1, 2, 3, 64, 2000):
            arr = pairs_from_indices(n, np.arange(n * (n - 1) // 2))
            assert arr.shape == (n * (n - 1) // 2, 2) and arr.dtype == np.int64
            assert np.array_equal(arr, np.column_stack(np.triu_indices(n, 1)))

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            edge_from_index(6, 4)
        with pytest.raises(ValueError):
            edge_from_index(-1, 4)


class TestGnp:
    def test_extremes(self):
        assert gnp(5, 0.0, RandomSource(1)).m == 0
        assert gnp(5, 1.0, RandomSource(1)) == complete_graph(5)

    def test_invalid_probability(self):
        with pytest.raises(ValueError):
            gnp(5, 1.5, RandomSource(1))

    def test_negative_n(self):
        for n in (-1, -2, -100):
            with pytest.raises(ValueError, match="non-negative"):
                gnp(n, 0.5, RandomSource(1))

    def test_sparse_memory_is_linear_in_the_edges(self):
        # about 1250 edges out of 12.5M pairs: the map never builds the universe
        tracemalloc.start()
        try:
            g = gnp(5000, 1e-4, RandomSource(7))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert 1000 < g.m < 1500
        assert peak < 16 * 2**20

    def test_deterministic(self):
        assert gnp(50, 0.1, RandomSource(3, 9)) == gnp(50, 0.1, RandomSource(3, 9))

    def test_mean_edge_count(self):
        # binomial mean C(1000,2)*0.01 = 4995, SE of the mean over 200 seeds
        counts = [gnp(1000, 0.01, RandomSource(2024, i)).m for i in range(200)]
        mean = sum(counts) / len(counts)
        se = math.sqrt(4995 * 0.99) / math.sqrt(200)
        assert abs(mean - 4995) <= 4 * se

    def test_both_paths_reasonable(self):
        # geometric-skip path (small p, large universe)
        g1 = gnp(200, 0.05, RandomSource(5))
        # Bernoulli path (large p)
        g2 = gnp(200, 0.5, RandomSource(5))
        m = 200 * 199 / 2
        assert abs(g1.m - 0.05 * m) < 5 * math.sqrt(m * 0.05)
        assert abs(g2.m - 0.5 * m) < 5 * math.sqrt(m * 0.25)


class TestGnm:
    def test_extremes(self):
        assert gnm(6, 0, RandomSource(1)).m == 0
        assert gnm(5, 10, RandomSource(1)) == complete_graph(5)

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            gnm(4, 7, RandomSource(1))
        with pytest.raises(ValueError, match="non-negative"):
            gnm(-1, 1, RandomSource(1))

    def test_exact_count(self):
        for m in (1, 5, 9):
            assert gnm(7, m, RandomSource(8, m)).m == m

    def test_uniformity(self):
        # every 4-subset of the 10 potential edges equally likely; 5-SE window
        # per cell plus a chi-square sanity bound
        from scipy.stats import chisquare

        draws = 250_000
        counts = Counter()
        for i in range(draws):
            g = gnm(5, 4, RandomSource(31337, i))
            counts[g.edges] += 1
        assert len(counts) == 210
        q = 1 / 210
        se = math.sqrt(draws * q * (1 - q))
        for c in counts.values():
            assert abs(c - draws * q) <= 5 * se
        stat, pvalue = chisquare(list(counts.values()))
        assert pvalue > 1e-6


class TestProcess:
    def test_prefix_extremes(self):
        tr = process(5, RandomSource(11))
        assert tr.prefix_graph(0).m == 0
        assert tr.prefix_graph(10) == complete_graph(5)

    def test_n3_all_orders(self):
        for order in itertools.permutations(range(3)):
            rec = hitting_times(replay_trace(3, list(order)))
            assert (rec.tau_conn, rec.tau_T, rec.tau_S, rec.tau_N) == (2, 3, 3, 3)

    def test_replay_validates(self):
        with pytest.raises(ValueError):
            replay_trace(3, [0, 0, 2])

    def test_star_first_connectivity(self):
        n = 8
        pairs = list(itertools.combinations(range(n), 2))
        star = [i for i, e in enumerate(pairs) if e[0] == 0]
        rest = [i for i in range(len(pairs)) if i not in star]
        rec = hitting_times(replay_trace(n, star + rest))
        assert rec.tau_conn == n - 1

    def test_prefix_marginal_matches_gnm(self):
        # prefix(3) of the process on n=4 and gnm(4,3) are both uniform over
        # the C(6,3)=20 edge-sets; chi-square both
        from scipy.stats import chisquare

        draws = 20_000
        proc_counts = Counter()
        gnm_counts = Counter()
        for i in range(draws):
            proc_counts[process(4, RandomSource(55, i)).prefix_graph(3).edges] += 1
            gnm_counts[gnm(4, 3, RandomSource(56, i)).edges] += 1
        assert len(proc_counts) == 20 and len(gnm_counts) == 20
        assert chisquare(list(proc_counts.values()))[1] > 1e-6
        assert chisquare(list(gnm_counts.values()))[1] > 1e-6


class TestHitting:
    def test_requires_n3(self):
        with pytest.raises(ValueError):
            hitting_times(process(2, RandomSource(1)))

    def test_ordering_invariant(self):
        src = RandomSource(77)
        for n in (8, 10, 12):
            for trial in range(40):
                rec = hitting_times(process(n, src.derive(n, trial)))
                assert rec.tau_T <= rec.tau_S <= rec.tau_N
                assert rec.tau_conn <= rec.tau_N

    def test_gallop_matches_linear_scan(self):
        src = RandomSource(78)
        for n in (8, 10, 12):
            for trial in range(6):
                tr = process(n, src.derive(n, trial))
                expect = _linear_scan(tr)
                for check_identity in (False, True):
                    rec = hitting_times(tr, check_identity=check_identity)
                    assert (rec.tau_conn, rec.tau_T, rec.tau_S, rec.tau_N) == expect

    def test_gallop_reaches_the_cap(self, monkeypatch):
        # Two cliques {0,1,2} and {0,3..11} glued at the cut vertex 0 cover
        # every vertex by triangles at step 17, and {0} stays a stable cut
        # until the first cross edge, step 49 of 66.  The offsets 0, 1, 3, ...,
        # 31 all fail, offset 63 is capped at 66, and the gap (48, 66] is
        # bisected.
        n = 12
        index = {e: k for k, e in enumerate(itertools.combinations(range(n), 2))}
        first = [(0, 1), (0, 2), (1, 2), (0, 3), (0, 4), (3, 4), (0, 5), (0, 6),
                 (5, 6), (0, 7), (0, 8), (7, 8), (0, 9), (0, 10), (9, 10),
                 (0, 11), (10, 11)]
        b_side = [e for e in itertools.combinations(range(3, n), 2) if e not in first]
        cross = [(a, b) for a in (1, 2) for b in range(3, n)]
        tr = replay_trace(n, [index[e] for e in first + b_side + cross])
        probed = []

        def record(g, **kw):
            probed.append(g.m)
            return stable_cut_exists(g, **kw)

        monkeypatch.setattr(cuts, "stable_cut_exists", record)
        rec = hitting_times(tr)
        assert (rec.tau_T, rec.tau_S) == (17, 49)
        assert probed[:6] == [17, 18, 20, 24, 32, 48]
        assert all(48 < t < tr.total for t in probed[6:]) and probed[6:]
        assert (rec.tau_conn, rec.tau_T, rec.tau_S, rec.tau_N) == _linear_scan(tr)

    def test_identity_check_runs_once_per_probed_step(self, monkeypatch):
        decomposed, searched = Counter(), Counter()

        def count_decompose(g, **kw):
            decomposed[g.m] += 1
            return decompose_s(g, **kw)

        def count_search(g, **kw):
            searched[g.m] += 1
            return stable_cut_exists(g, **kw)

        monkeypatch.setattr(cuts, "decompose_s", count_decompose)
        monkeypatch.setattr(cuts, "stable_cut_exists", count_search)
        src = RandomSource(81)
        for n in (8, 12, 16):
            for trial in range(5):
                decomposed.clear()
                searched.clear()
                hitting_times(process(n, src.derive(n, trial)), check_identity=True)
                assert decomposed and set(decomposed.values()) == {1}
                assert searched == decomposed

    def test_budget_propagates(self):
        rec = hitting_times(process(12, RandomSource(79)), node_budget=1)
        assert rec.tau_S is None
        assert rec.as_json_value("tau_S") == "budget-exceeded"

    def test_identity_check_runs(self):
        rec = hitting_times(process(10, RandomSource(80)), check_identity=True)
        assert rec.tau_T <= rec.tau_S <= rec.tau_N


def _linear_scan(tr):
    """(tau_conn, tau_T, tau_S, tau_N) by testing every step: the first two
    from step 0, tau_S and tau_N from tau_T upwards."""
    steps = range(tr.total + 1)
    tau_conn = next(t for t in steps if components(tr.prefix_graph(t)).count == 1)

    def covered(g):
        return all(brute_vertex_in_triangle(g, v) for v in range(g.n))

    tau_t = next(t for t in steps if covered(tr.prefix_graph(t)))
    tau_s = next(
        t
        for t in steps[tau_t:]
        if stable_cut_exists(tr.prefix_graph(t)) is None
    )
    tau_n = next(
        t
        for t in steps[tau_t:]
        if components(tr.prefix_graph(t)).count == 1
        and nac_exists(tr.prefix_graph(t)) is None
    )
    return tau_conn, tau_t, tau_s, tau_n


class TestRegularConfiguration:
    def test_perfect_matching(self):
        g, _ = regular_configuration(4, 1, RandomSource(90))
        assert g.m == 2
        assert all(g.degree(v) == 1 for v in range(4))

    def test_two_regular(self):
        g, _ = regular_configuration(30, 2, RandomSource(91))
        assert all(g.degree(v) == 2 for v in range(30))

    def test_degrees_exact(self):
        for trial in range(20):
            g, _ = regular_configuration(40, 4, RandomSource(92, trial))
            assert all(g.degree(v) == 4 for v in range(40))
            assert g.m == 80

    def test_parity_error(self):
        with pytest.raises(ValueError, match="even"):
            regular_configuration(5, 3, RandomSource(1))

    def test_degree_too_large(self):
        with pytest.raises(ValueError, match="impossible"):
            regular_configuration(4, 4, RandomSource(1))

    def test_deterministic(self):
        a, ra = regular_configuration(20, 3, RandomSource(93, 5))
        b, rb = regular_configuration(20, 3, RandomSource(93, 5))
        assert a == b and ra == rb

    def test_reject_budget(self):
        # find a stream whose first pairing is rejected, then starve it
        for i in range(50):
            _, rejects = regular_configuration(12, 3, RandomSource(94, i))
            if rejects > 0:
                with pytest.raises(BudgetExceeded):
                    regular_configuration(12, 3, RandomSource(94, i), max_rejects=0)
                return
        pytest.skip("no rejecting stream found in 50 tries")


class TestPStar:
    def test_values(self):
        assert p_star(1000) == pytest.approx(0.02400, abs=2e-5)
        assert p_star(100) == pytest.approx(0.0973, abs=2e-4)

    def test_monotone_decreasing(self):
        values = [p_star(n) for n in range(3, 200)]
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_requires_n2(self):
        with pytest.raises(ValueError):
            p_star(1)


SAMPLING_GOLDEN = Path(__file__).parent / "data" / "sampling_golden.json"

# (n, p, seed): the geometric-skip path (p <= 0.25 over more than 4096
# pairs), the Bernoulli path, p = 1.0 and an empty universe
GNP_CASES = (
    (200, 0.05, 5),
    (1000, 0.01, 3),
    (5000, 1e-4, 7),
    (60, 0.1, 2),
    (200, 0.5, 5),
    (50, 0.3, 4),
    (30, 1.0, 1),
    (1, 0.5, 1),
)
GNM_CASES = ((5, 4, 4), (7, 21, 1), (50, 300, 2), (2000, 500, 3))
PROCESS_CASES = ((3, 1), (8, 2), (30, 3), (100, 4))
# cut properties at n <= 20; T and Connected at n = 300
SWEEP_N = {"T": (2, 300), "Connected": (2, 300)}
SWEEP_C = (0.8, 1.0, 1.2, 1.5, 2.5)


def _sha256(value) -> str:
    return hashlib.sha256(json.dumps(value).encode()).hexdigest()


def sampling_digests() -> dict[str, str]:
    """sha256 of the sampled edges, process orders and sweep CSVs (without
    wall_ms) that tests/data/sampling_golden.json freezes."""
    out = {}
    for n, p, seed in GNP_CASES:
        out[f"gnp({n}, {p}, {seed})"] = _sha256(gnp(n, p, RandomSource(seed)).edges)
    for n, m, seed in GNM_CASES:
        out[f"gnm({n}, {m}, {seed})"] = _sha256(gnm(n, m, RandomSource(seed)).edges)
    for n, seed in PROCESS_CASES:
        out[f"process({n}, {seed})"] = _sha256(process(n, RandomSource(seed)).pairs().tolist())
    for prop in PROPERTIES:
        spec = SweepSpec(prop, SWEEP_N.get(prop, (2, 12, 20)), SWEEP_C, 20, 11)
        csv = [line.rsplit(",", 1)[0] for line in run_sweep(spec).to_csv().splitlines()]
        out[f"sweep {prop}"] = _sha256(csv)
    return out


class TestSamplingGolden:
    def test_digests_match_frozen_outputs(self):
        golden = json.loads(SAMPLING_GOLDEN.read_text())
        assert sampling_digests() == golden["sha256"]
