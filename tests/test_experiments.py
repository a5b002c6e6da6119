import concurrent.futures
import hashlib
import json
import math
import random
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from nacflex import experiments
from nacflex.cuts import decompose_s, firm_cut_exists, sprime_holds, stable_cut_exists
from nacflex.errors import DEFAULT_NODE_BUDGET, PreconditionError
from nacflex.experiments import (
    HittingResult,
    HittingRow,
    RegularNacResult,
    RegularNacRow,
    SweepResult,
    SweepRow,
    SweepSpec,
    emit,
    hitting_equality_experiment,
    regular_nac_lower_bound,
    run_sweep,
    sweep_trial_outcomes,
    triangle_covered,
)
from nacflex.graphs import (
    Graph,
    complete_graph,
    components,
    connection_step,
    every_vertex_in_triangle,
    path_graph,
)
from nacflex.nac import nac_count, nac_enumerate, nac_exists
from nacflex.randmodels import RandomSource, hitting_times, p_star, pairs_from_indices, process

from conftest import random_graph


def as_pairs(g: Graph) -> np.ndarray:
    return (
        np.array(g.edges, dtype=np.int64)
        if g.m
        else np.zeros((0, 2), dtype=np.int64)
    )


# Without the check, budget 0 let nac_exists(K3) answer None and
# stable_cut_exists(P3) a certificate, while the others ran out of budget.
@pytest.mark.parametrize("budget", [0, -1])
@pytest.mark.parametrize(
    "search",
    [
        lambda b: stable_cut_exists(path_graph(3), node_budget=b),
        lambda b: firm_cut_exists(path_graph(3), node_budget=b),
        lambda b: sprime_holds(path_graph(3), node_budget=b),
        lambda b: decompose_s(path_graph(3), node_budget=b),
        lambda b: nac_exists(complete_graph(3), node_budget=b),
        lambda b: nac_enumerate(complete_graph(3), node_budget=b),
        lambda b: nac_count(complete_graph(3), node_budget=b),
        lambda b: hitting_times(process(8, RandomSource(1)), node_budget=b),
    ],
    ids=[
        "stable_cut_exists",
        "firm_cut_exists",
        "sprime_holds",
        "decompose_s",
        "nac_exists",
        "nac_enumerate",
        "nac_count",
        "hitting_times",
    ],
)
def test_searches_refuse_a_budget_below_one(search, budget):
    with pytest.raises(PreconditionError, match="node_budget"):
        search(budget)


class TestSpecValidation:
    def test_bad_property(self):
        with pytest.raises(PreconditionError, match="property"):
            SweepSpec("X", (10,), (1.0,), 5, 1).validate()

    def test_bad_trials(self):
        with pytest.raises(PreconditionError, match="trials"):
            SweepSpec("T", (10,), (1.0,), 0, 1).validate()

    def test_bad_budget(self):
        for budget in (0, -1):
            with pytest.raises(PreconditionError, match="node_budget"):
                SweepSpec("T", (10,), (1.0,), 5, 1, budget).validate()

    def test_bad_c(self):
        with pytest.raises(PreconditionError, match="positive"):
            SweepSpec("T", (10,), (0.0,), 5, 1).validate()

    def test_empty_c(self):
        with pytest.raises(PreconditionError, match="at least one c value"):
            run_sweep(SweepSpec("T", (10,), (), 1, 1))

    def test_non_finite_c(self):
        for c in (float("nan"), float("inf"), float("-inf")):
            with pytest.raises(PreconditionError, match="finite"):
                SweepSpec("T", (10,), (1.0, c), 5, 1).validate()

    def test_ceiling(self):
        spec = SweepSpec("N", (40,), (1.0,), 5, 1)
        with pytest.raises(PreconditionError, match="ceiling"):
            spec.validate()
        spec.validate(force=True)

    def test_triangle_cover_ceiling(self):
        spec = SweepSpec("T", (32_001,), (1.0,), 1, 1)
        with pytest.raises(PreconditionError, match="ceiling 32000"):
            spec.validate()
        spec.validate(force=True)


class TestFastChecks:
    def test_triangle_covered_matches_graph_core(self):
        rnd = random.Random(51)
        for _ in range(1500):
            g = random_graph(rnd, 1, 10)
            assert triangle_covered(g.n, as_pairs(g)) == every_vertex_in_triangle(g)[0]

    def test_triangle_covered_memory_at_n4000(self):
        # 104,532 edges at 1.3 p*: intersecting all rows at once peaked at
        # 105 MB; a chunk of rows at a time peaks at 8.4 MB
        n = 4000
        total = n * (n - 1) // 2
        rng = np.random.default_rng(5)
        idx = np.unique(rng.integers(0, total, size=int(1.3 * p_star(n) * total)))
        pairs = pairs_from_indices(n, idx)
        tracemalloc.start()
        try:
            covered = triangle_covered(n, pairs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 24 * 2**20
        assert covered == every_vertex_in_triangle(Graph.from_edges(n, pairs.tolist()))[0]

    def test_triangle_covered_above_8192_vertices(self):
        # the bitset serves every n: 3000 disjoint triangles are covered, and
        # without one edge two of their vertices are not
        n = 9000
        tri = [(a, b) for t in range(0, n, 3) for a, b in ((t, t + 1), (t, t + 2), (t + 1, t + 2))]
        assert triangle_covered(n, np.array(tri, dtype=np.int64))
        assert not triangle_covered(n, np.array(tri[:-1], dtype=np.int64))

    def test_triangle_covered_reads_the_last_pass(self):
        # chunk + 4 disjoint triangles and a vertex x joined to one vertex of
        # each of three of them; x's edges sit in the last of four strided
        # passes, after their other ends are covered
        chunk = experiments._CHUNK_EDGES
        t = chunk + 4
        tri = [(a, b) for s in range(0, 3 * t, 3) for a, b in ((s, s + 1), (s, s + 2), (s + 1, s + 2))]
        x = 3 * t
        edges = tri[:3] + [(0, x)] + tri[3:6] + [(3, x)] + tri[6:9] + [(6, x)] + tri[9:]
        assert len(edges) > 3 * chunk and -(-len(edges) // chunk) == 4
        assert [i % 4 for i, e in enumerate(edges) if x in e] == [3, 3, 3]
        for extra in ([], [(0, 3)]):
            pairs = np.array(edges + extra, dtype=np.int64)
            want = every_vertex_in_triangle(Graph.from_edges(x + 1, pairs.tolist()))[0]
            assert triangle_covered(x + 1, pairs) == want == bool(extra)

    def test_triangle_covered_over_several_passes(self):
        # dense random graphs of 5k-20k edges, some with a vertex x whose
        # three neighbours are pairwise non-adjacent, in sorted and in
        # shuffled edge order
        rng = np.random.default_rng(53)
        seen = set()
        for case in range(16):
            n = int(rng.integers(150, 301))
            total = n * (n - 1) // 2
            m = int(rng.integers(5000, min(20_000, total) + 1))
            idx = rng.choice(total, m, replace=False)
            edges = set(map(tuple, pairs_from_indices(n, idx).tolist()))
            if case % 2:
                x, *nbrs = rng.choice(n, 4, replace=False).tolist()
                edges = {e for e in edges if x not in e and not set(e) <= set(nbrs)}
                edges |= {tuple(sorted((x, w))) for w in nbrs}
            pairs = np.array(sorted(edges), dtype=np.int64)
            assert len(pairs) > experiments._CHUNK_EDGES
            want = every_vertex_in_triangle(Graph.from_edges(n, pairs.tolist()))[0]
            seen.add(want)
            assert triangle_covered(n, pairs) == want
            assert triangle_covered(n, rng.permutation(pairs)) == want
        assert seen == {True, False}

    def test_connected_matches_components(self):
        # connection_step is the first prefix with one component, or None
        rnd = random.Random(52)
        for _ in range(1500):
            g = random_graph(rnd, 1, 10)
            pairs = list(g.edges)
            rnd.shuffle(pairs)
            expected = next(
                (
                    t
                    for t in range(len(pairs) + 1)
                    if components(Graph.from_edges(g.n, pairs[:t])).count <= 1
                ),
                None,
            )
            assert connection_step(g.n, pairs) == expected
        assert connection_step(0, []) == connection_step(1, []) == 0
        assert connection_step(4, [(0, 1), (2, 3), (1, 0)]) is None
        assert connection_step(3, [(0, 1), (1, 0), (2, 1), (0, 2)]) == 3


class TestSweep:
    def test_conservation_and_determinism(self):
        spec = SweepSpec("T", (40, 60), (0.7, 1.0, 1.4), 25, 99)
        res1 = run_sweep(spec)
        res2 = run_sweep(spec)
        assert strip_wall(res1) == strip_wall(res2)
        for row in res1.rows:
            assert 0 <= row.successes + row.budget_exceeded <= row.trials

    @pytest.mark.parametrize("prop", experiments.PROPERTIES)
    def test_bisection_matches_a_decision_at_every_c(self, prop):
        # unsorted, with a duplicate c and a c whose p caps at 1.0
        n_values = (2, 12, 20) + ((300,) if prop in ("T", "Connected") else ())
        spec = SweepSpec(prop, n_values, BISECT_GRID, 6, 7)
        for ni in range(len(n_values)):
            for trial in range(spec.trials):
                got = sweep_trial_outcomes(spec, ni, trial)
                want = [
                    experiments._decide(prop, n_values[ni], pairs, spec.node_budget)
                    for pairs in trial_graphs(spec, ni, trial)
                ]
                assert [(ok, ran_out) for ok, ran_out, _ in got] == [
                    (ok, False) for ok in want
                ]

    def test_budget_rule(self, monkeypatch):
        # a c counts as exceeded only when its own decision ran out; the rest
        # are decided, directly or by monotonicity, as at the default budget
        spec = SweepSpec("S", (20,), BISECT_GRID, 10, 3, node_budget=1)
        calls = []

        def recording_decide(prop, n, pairs, node_budget):
            calls.append(len(pairs))
            return decide(prop, n, pairs, node_budget)

        decide = experiments._decide
        monkeypatch.setattr(experiments, "_decide", recording_decide)
        exceeded = decided = 0
        for trial in range(spec.trials):
            calls.clear()
            got = sweep_trial_outcomes(spec, 0, trial)
            for (ok, ran_out, _), pairs in zip(got, trial_graphs(spec, 0, trial)):
                if ran_out:
                    exceeded += 1
                    assert not ok and len(pairs) in calls
                else:
                    decided += 1
                    assert ok == decide("S", 20, pairs, DEFAULT_NODE_BUDGET)
        assert exceeded and decided
        for row in run_sweep(spec).rows:
            assert row.successes + row.budget_exceeded <= row.trials

    def test_probe_count(self, monkeypatch):
        # a k-level grid costs at most ceil(log2(k+1)) decisions, exactly that
        # many when k + 1 is a power of two: 2 for criterion 8's three c values
        calls = []

        def counting_decide(*args):
            calls.append(args)
            return decide(*args)

        decide = experiments._decide
        monkeypatch.setattr(experiments, "_decide", counting_decide)
        grid = (0.5, 0.7, 0.8, 0.9, 1.0, 1.1, 1.2, 1.3, 1.5, 2.0, 3.0)
        for k in range(1, len(grid) + 1):
            bound = math.ceil(math.log2(k + 1))
            spec = SweepSpec("T", (60,), grid[:k], 8, 5)
            for trial in range(spec.trials):
                calls.clear()
                sweep_trial_outcomes(spec, 0, trial)
                if (k + 1) & k == 0:
                    assert len(calls) == bound
                else:
                    assert len(calls) <= bound

    @pytest.mark.parametrize("n, chunk", [(300, None), (700, None), (50, 7), (50, 64), (50, 1225)])
    def test_edges_below_matches_one_draw(self, monkeypatch, n, chunk):
        # n = 300 fits one chunk and n = 700 (244,650 pairs) ends in a partial
        # one; at n = 50, 1225 = 175 * 7 pairs fill their chunks exactly
        if chunk is not None:
            monkeypatch.setattr(experiments, "_CHUNK_DRAWS", chunk)
        src = RandomSource(11).derive(experiments._TAG_SWEEP, 0, 3)
        uniforms = src.generator().random(n * (n - 1) // 2)
        for level in (0.0, 0.05, 0.5, 1.0):
            idx, weights = experiments._edges_below(src, n, level)
            want = np.flatnonzero(uniforms < level)
            assert np.array_equal(idx, want)
            assert np.array_equal(weights, uniforms[want])

    def test_trial_memory_at_n3000(self):
        # drawing all C(n,2) uniforms at once held 36 MB of floats and 4.5 MB
        # of mask; the chunked draw holds one chunk and the kept edges
        spec = SweepSpec("T", (3000,), (0.8, 1.0, 1.3), 1, 7)
        tracemalloc.start()
        try:
            sweep_trial_outcomes(spec, 0, 0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20

    def test_workers_deterministic(self):
        spec = SweepSpec("Connected", (30,), (0.8, 1.2), 12, 5)
        seq = run_sweep(spec, workers=1)
        par = run_sweep(spec, workers=2)
        assert strip_wall(seq) == strip_wall(par)

    def test_pool_never_exceeds_tasks_or_cpus(self, monkeypatch):
        # the pool forks all of its processes up front, so its size is recorded
        # on a stand-in that runs the tasks in this process
        sizes = []

        class RecordingPool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, *iterables, chunksize=1):
                return map(fn, *iterables)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
        monkeypatch.setattr(experiments.os, "cpu_count", lambda: 4)
        spec = SweepSpec("Connected", (30,), (1.0,), 2, 5)
        assert strip_wall(run_sweep(spec, workers=5000)) == strip_wall(run_sweep(spec))
        hitting_equality_experiment((6,), 9, 7, workers=5000)
        regular_nac_lower_bound(106, 4, 1, 42, workers=5000)
        assert sizes == [2, 4]

    def test_cut_properties_run(self):
        for prop in ("S", "Sprime", "NoStableCut", "N"):
            spec = SweepSpec(prop, (12,), (1.0,), 6, 3)
            res = run_sweep(spec)
            assert res.rows[0].trials == 6
            assert res.rows[0].budget_exceeded == 0

    def test_sprime_at_n120_decided_within_budget(self):
        # below the triangle-cover step the ordered S' search ran out of its
        # 500k budget on 2 of these 40 trials; the small-side proof decides all
        spec = SweepSpec("Sprime", (120,), (1.0,), 40, 3)
        row = run_sweep(spec, force=True).rows[0]
        assert (row.successes, row.budget_exceeded) == (10, 0)

    def test_connected_near_threshold(self):
        # the triangle-cover threshold sits far above the connectivity
        # threshold log n / n, so samples there are essentially always connected
        spec = SweepSpec("Connected", (500,), (1.0,), 50, 8)
        res = run_sweep(spec)
        assert res.rows[0].successes / res.rows[0].trials >= 0.99


BISECT_GRID = (2.5, 0.6, 1.0, 1.0, 0.8, 1.2, 1.5, 40.0)


def trial_graphs(spec: SweepSpec, ni: int, trial: int) -> list[np.ndarray]:
    """A sweep trial's graph at each c, thresholded from its uniforms one c at a time."""
    n = spec.n_values[ni]
    src = RandomSource(spec.master_seed).derive(experiments._TAG_SWEEP, ni, trial)
    uniforms = src.generator().random(n * (n - 1) // 2)
    return [
        pairs_from_indices(n, np.flatnonzero(uniforms < min(c * p_star(n), 1.0)))
        for c in spec.c_values
    ]


def strip_wall(res: SweepResult):
    return [
        (r.n, r.c, r.p, r.trials, r.successes, r.budget_exceeded) for r in res.rows
    ]


class TestHittingExperiment:
    def test_n3_exact(self):
        res = hitting_equality_experiment((3,), 20, 123)
        row = res.rows[0]
        assert row.frac_s_eq_t == 1.0 and row.frac_n_eq_t == 1.0
        assert row.ordering_violations == 0 and row.budget_exceeded == 0

    def test_requires_n3(self):
        with pytest.raises(PreconditionError):
            hitting_equality_experiment((2,), 5, 1)

    def test_requires_an_n_value(self):
        with pytest.raises(PreconditionError, match="at least one n value"):
            hitting_equality_experiment((), 1, 1)

    def test_requires_a_budget_of_at_least_one(self):
        for budget in (0, -1):
            with pytest.raises(PreconditionError, match="node_budget"):
                hitting_equality_experiment((8,), 5, 1, node_budget=budget)

    def test_identity_checked_traces_at_n60(self):
        # an identity failure raises RuntimeError; the equality fractions are
        # not asserted
        row = hitting_equality_experiment((60,), 48, 20261019, check_identity=True).rows[0]
        assert row.trials == 48
        assert row.ordering_violations == 0 and row.budget_exceeded == 0

    def test_deterministic_across_workers(self):
        a = hitting_equality_experiment((8,), 10, 7, workers=1)
        b = hitting_equality_experiment((8,), 10, 7, workers=2)
        assert [r.eq_s for r in a.rows] == [r.eq_s for r in b.rows]
        assert [r.eq_n for r in a.rows] == [r.eq_n for r in b.rows]

    def test_golden_baseline(self):
        # pilot-measured counts frozen with their seed; the generator scheme
        # is pinned, so these are exact integers, not statistical bounds
        golden = json.loads(
            (Path(__file__).parent / "data" / "hitting_golden.json").read_text()
        )
        res = hitting_equality_experiment(
            tuple(r["n"] for r in golden["rows"]),
            golden["trials"],
            golden["master_seed"],
        )
        for row, want in zip(res.rows, golden["rows"]):
            assert row.n == want["n"]
            assert row.eq_s == want["eq_s"]
            assert row.eq_n == want["eq_n"]
            assert row.ordering_violations == want["ordering_violations"]
            assert row.budget_exceeded == want["budget_exceeded"]


# sha256 of the regular-NAC CSVs, frozen from the checker that flooded every
# monochromatic component; the rows carry no wall time, so they are exact
REGULAR_NAC_CSV_SHA256 = {
    (540, 4, 3, 7): "c441d3e4aa65c3a995637ea5e18a6732626d059abdbde06c9ecaf3e301b18675",
    (106, 4, 4, 42): "e500f3c7ea12421a90dfe5c448111a8f94ac4150c8ae6b5e9082493e46e4156a",
}


class TestRegularNac:
    @pytest.mark.parametrize("args", sorted(REGULAR_NAC_CSV_SHA256))
    def test_csv_matches_frozen_digest(self, args):
        csv = regular_nac_lower_bound(*args).to_csv()
        assert hashlib.sha256(csv.encode()).hexdigest() == REGULAR_NAC_CSV_SHA256[args]

    def test_small_run(self):
        res = regular_nac_lower_bound(106, 4, 4, 42)
        bound = 4**3 - 4**2 + 4 + 1
        for row in res.rows:
            assert row.x_size * bound >= 106
            assert row.nac_failures == 0
            assert row.colourings_checked == min(2**row.s_size - 1, 100)

    def test_parity(self):
        with pytest.raises(PreconditionError, match="even"):
            regular_nac_lower_bound(5, 3, 2, 1)

    @pytest.mark.parametrize("n, k", [(10, 0), (12, 1), (12, -2)])
    def test_degree_below_two_refused(self, n, k):
        # an edgeless graph has no surjective colouring, and in a perfect
        # matching the red stars of all S vertices leave no blue edge, so
        # both would read as NAC failures of the construction
        with pytest.raises(PreconditionError, match="k must be >= 2"):
            regular_nac_lower_bound(n, k, 1, 1)

    @pytest.mark.parametrize("n, k", [(12, 2), (20, 2), (30, 3)])
    def test_small_degrees_have_no_failures(self, n, k):
        res = regular_nac_lower_bound(n, k, 3, 1)
        assert all(row.nac_failures == 0 for row in res.rows)


class TestEmit:
    def test_empty_sweep_csv(self, tmp_path):
        res = SweepResult("T", 1, ())
        path = tmp_path / "out.csv"
        emit(res, "csv", path)
        assert path.read_text() == "n,c,p,trials,successes,budget_exceeded,wall_ms\n"

    def test_csv_roundtrip(self, tmp_path):
        spec = SweepSpec("T", (30,), (1.0,), 5, 11)
        res = run_sweep(spec)
        path = tmp_path / "out.csv"
        emit(res, "csv", path)
        text = path.read_text()
        assert text.endswith("\n")
        header, line = text.strip().split("\n")
        assert header == "n,c,p,trials,successes,budget_exceeded,wall_ms"
        fields = line.split(",")
        assert int(fields[0]) == 30
        assert float(fields[2]) == res.rows[0].p  # full precision round-trips

    def test_json_roundtrip(self, tmp_path):
        spec = SweepSpec("T", (30,), (1.0,), 5, 11)
        res = run_sweep(spec)
        path = tmp_path / "out.json"
        emit(res, "json", path)
        assert json.loads(path.read_text()) == res.to_json_dict()

    def test_bad_format(self, tmp_path):
        with pytest.raises(PreconditionError):
            emit(SweepResult("T", 1, ()), "xml", tmp_path / "x")

    def test_io_error_context(self, tmp_path):
        with pytest.raises(OSError, match="could not write"):
            emit(SweepResult("T", 1, ()), "csv", tmp_path / "nope" / "out.csv")

    def test_csv_rows_golden(self):
        sweep = SweepResult("T", 1, (SweepRow(30, 1.0, 0.125, 5, 2, 1, 7),))
        assert sweep.to_csv() == (
            "n,c,p,trials,successes,budget_exceeded,wall_ms\n30,1.0,0.125,5,2,1,7\n"
        )
        hit = HittingResult(1, (HittingRow(8, 3, 1, 2, 1 / 3, 2 / 3, 0.25, 0.5, 0, 0, 12),))
        assert hit.to_csv() == (
            "n,trials,eq_s,eq_n,frac_s_eq_t,frac_n_eq_t,se_s,se_n,"
            "ordering_violations,budget_exceeded,wall_ms\n"
            "8,3,1,2,0.3333333333333333,0.6666666666666666,0.25,0.5,0,0,12\n"
        )
        reg = RegularNacResult(106, 4, 1, (RegularNacRow(0, 11, 10, 100, 0, 3),))
        assert reg.to_csv() == (
            "trial,x_size,s_size,colourings_checked,nac_failures,rejects\n"
            "0,11,10,100,0,3\n"
        )
        assert reg.to_json_dict() == {
            "n": 106,
            "k": 4,
            "master_seed": 1,
            "rows": [
                {"trial": 0, "x_size": 11, "s_size": 10, "colourings_checked": 100,
                 "nac_failures": 0, "rejects": 3}
            ],
        }

    def test_hitting_and_regular_csv(self, tmp_path):
        hit = hitting_equality_experiment((3,), 4, 2)
        emit(hit, "csv", tmp_path / "h.csv")
        assert (tmp_path / "h.csv").read_text().startswith(HittingResult.CSV_HEADER)
        reg = regular_nac_lower_bound(106, 4, 2, 3)
        emit(reg, "csv", tmp_path / "r.csv")
        assert (tmp_path / "r.csv").read_text().startswith(RegularNacResult.CSV_HEADER)
