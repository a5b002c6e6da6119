"""Tests of the benchmark itself: metric output, checks, tracing, digests."""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run as bench  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((bench.ROOT / "BENCHMARK.json").read_text())
LISTED = [w["name"] for w in SPEC["workloads"]]


@pytest.fixture(scope="module")
def nf():
    return bench.import_nacflex()


def _run(*args: str, cwd: Path = bench.ROOT) -> subprocess.CompletedProcess:
    cmd = [sys.executable, str(cwd / "nacbench" / "run.py"), *args]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


def _metric_lines(stdout: str) -> dict[str, str]:
    out = {}
    for line in stdout.splitlines():
        name, sep, rest = line.strip().partition(" = ")
        if sep:
            out[name] = rest
    return out


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_smoke_run_prints_every_metric_with_its_unit(workload, trace):
    proc = _run("--workload", workload, "--seconds", "0.5", "--trace", str(trace))
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"], proc.stderr
    assert result["attempted"] >= 1 and result["failed"] == 0
    expected = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in expected]
    printed = _metric_lines(proc.stdout)
    for m in expected:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float))
        assert printed[m["name"]].split(" ")[1] == m["unit"]
    assert printed["failed_frac"].startswith("0.0 ratio")


def test_run_without_sources_fails_without_a_result(tmp_path):
    shutil.copy(bench.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "nacbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("--workload", LISTED[0], "--seconds", "1", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_forged_ordering_violation_raises_failed_frac(nf):
    wl = workloads.Hitting(nf, workloads.DEFAULT_SEED)
    trials, times, outs = bench.run_round(wl, 0)
    clean = bench.Tally(wl)
    clean.add(0, trials, times, outs)
    assert clean.failed == 0 and not clean.problems
    forged = list(outs)
    row = dataclasses.replace(outs[3].rows[0], ordering_violations=1)
    forged[3] = dataclasses.replace(outs[3], rows=(row,))
    tally = bench.Tally(wl)
    tally.add(0, trials, times, forged)
    assert tally.failed == 1
    assert "ordering violation" in tally.problems[0]


def test_identity_error_and_budget_are_failures_but_only_one_is_incorrect(nf):
    wl = workloads.Hitting(nf, workloads.DEFAULT_SEED)
    trials, times, outs = bench.run_round(wl, 0)
    forged = list(outs)
    forged[0] = RuntimeError("internal error: no-stable-cut decision disagrees")
    forged[1] = nf.BudgetExceeded("cut search exceeded 500000 nodes")
    tally = bench.Tally(wl)
    tally.add(0, trials, times, forged)
    assert tally.failed == 2
    assert len(tally.problems) == 1 and "RuntimeError" in tally.problems[0]


def test_sparse_checks_catch_corrupted_outputs(nf):
    wl = workloads.Sparse(nf, workloads.DEFAULT_SEED)
    trials, times, outs = bench.run_round(wl, 0)
    verdicts, _ = wl.check(0, outs)
    assert verdicts == [None] * len(trials)

    sweep = outs[0]
    bad_sweep = dataclasses.replace(sweep, rows=tuple(
        dataclasses.replace(row, successes=int(i == 0)) for i, row in enumerate(sweep.rows)
    ))
    nac = outs[2]
    bad_nac = dataclasses.replace(
        nac, rows=(dataclasses.replace(nac.rows[0], nac_failures=1),)
    )
    forged = [bad_sweep, outs[1], bad_nac, outs[3], outs[4] + 1]
    verdicts, _ = wl.check(0, forged)
    assert verdicts[0] and "monotone" in verdicts[0]
    assert verdicts[1] is None
    assert verdicts[2] and "NAC check" in verdicts[2]
    assert verdicts[3] is None
    assert verdicts[4] and "triangle_count" in verdicts[4]


def test_sweep_cross_check_runs_deferred_and_catches_wrong_outcomes(nf):
    wl = workloads.Sparse(nf, workloads.DEFAULT_SEED)
    trials, times, outs = bench.run_round(wl, 0)
    wl.check(0, outs)
    assert list(wl.cross_checks) == [(0, 0)]  # every 16th sweep, round 0 first
    assert wl.deferred_checks() == [] and not wl.cross_checks

    sweep = outs[0]
    wrong = 0 if sweep.rows[-1].successes else 1  # all-equal outcomes stay monotone
    forged = list(outs)
    forged[0] = dataclasses.replace(sweep, rows=tuple(
        dataclasses.replace(row, successes=wrong) for row in sweep.rows
    ))
    tally = bench.Tally(wl)
    tally.add(0, trials, times, forged)
    assert tally.failed == 0
    tally.finish()
    assert tally.failed == 1 and "every_vertex_in_triangle" in tally.problems[0]


def test_decide_checks_catch_forged_certificates_and_identity_breaks(nf, monkeypatch):
    wl = workloads.Decide(nf, workloads.DEFAULT_SEED)
    trials, times, outs = bench.run_round(wl, 0)
    verdicts, _ = wl.check(0, outs)
    assert verdicts == [None] * len(trials)

    n, edges = workloads.DECIDE_NS[0], wl.prefixes(0)[0]
    g = nf.Graph(n, edges)
    u, v = edges[0]
    not_stable = nf.CutCertificate((u, v), ((),), "stable")
    forged = list(outs)
    forged[0] = not_stable  # stable_cut_exists on the n=20 graph
    forged[2] = nf.CutCertificate((u, v), ((),), "firm")
    forged[3] = nf.EdgeColouring.from_red_edges(g, [edges[0]])
    verdicts, _ = wl.check(0, forged)
    assert "not stable" in verdicts[0]
    assert verdicts[1] is None
    assert "not stable" in verdicts[2]
    assert "nac_check" in verdicts[3]

    # the same verdicts on a graph that is not triangle-covered break the identity
    monkeypatch.setattr(nf, "every_vertex_in_triangle", lambda graph: (False, 0))
    verdicts, _ = wl.check(0, outs)
    assert outs[0] is None and outs[1][0] is True
    assert "triangle-cover" in verdicts[0] and "triangle-cover" in verdicts[1]


def test_sweep_cross_check_rebuilds_the_trial_graphs(nf):
    cs = (0.8, 1.3, 2.5)
    res = nf.run_sweep(nf.SweepSpec("T", (300,), cs, 1, 99))
    hits = [row.successes for row in res.rows]
    assert workloads.covered_by_merge_scan(nf, 99, 300, cs) == hits
    assert hits[-1] == 1


def test_pairs_from_indices_matches_edge_from_index(nf):
    from nacflex.randmodels import edge_from_index

    for n in (2, 3, 7, 2000):
        total = n * (n - 1) // 2
        idx = np.unique(np.random.default_rng(n).integers(0, total, size=min(total, 500)))
        idx = np.concatenate([[0, total - 1], idx])
        got = workloads._pairs_from_indices(n, idx)
        assert got.tolist() == [list(edge_from_index(int(k), n)) for k in idx]


def test_tracer_patches_every_binding_and_restores_them(nf):
    import nacflex.cuts
    import nacflex.experiments
    import nacflex.graphs
    import nacflex.randmodels

    bound = [
        (nacflex.experiments, "stable_cut_exists"),
        (nacflex.experiments, "nac_check"),
        (nacflex.randmodels, "components"),
        (nacflex.cuts, "components"),
        (nacflex, "triangle_count"),
    ]
    before = [getattr(m, a) for m, a in bound]
    from_edges = nacflex.graphs.Graph.__dict__["from_edges"]
    tracer = spans.Tracer(nf)
    with tracer.installed():
        assert all(getattr(m, a) is not f for (m, a), f in zip(bound, before))
        assert all(getattr(m, a).__wrapped__ is f for (m, a), f in zip(bound, before))
        g = nacflex.graphs.Graph.from_edges(3, [(0, 1), (1, 2)])
        nacflex.experiments.stable_cut_exists(g)
    assert [getattr(m, a) for m, a in bound] == before
    assert nacflex.graphs.Graph.__dict__["from_edges"] is from_edges
    names = [s["name"] for s in tracer.spans]
    assert names == ["graphs.Graph.from_edges", "cuts.stable_cut_exists", "graphs.components"]
    assert tracer.spans[2]["parent"] == tracer.spans[1]["id"]
    assert tracer.spans[1]["found"] is True  # the middle vertex cuts the path


def test_self_time_subtracts_the_union_of_child_spans(tmp_path):
    rows = [
        {"id": 0, "name": "randmodels.hitting_times", "parent": None, "trial": 0,
         "start": 0, "end": 10_000_000},
        {"id": 1, "name": "cuts.stable_cut_exists", "parent": 0, "trial": 0,
         "start": 1_000_000, "end": 4_000_000, "found": True},
        {"id": 2, "name": "graphs.Graph.from_edges", "parent": 0, "trial": 0,
         "start": 5_000_000, "end": 6_000_000},
        {"id": 3, "name": "nac.nac_exists", "parent": 0, "trial": 0,
         "start": 7_000_000, "end": 9_000_000, "error": "BudgetExceeded"},
    ]
    path = tmp_path / "spans.jsonl"
    path.write_text("".join(json.dumps(r) + "\n" for r in rows))
    totals = spans.layer_totals(path)
    hit = totals["randmodels.hitting_times"]
    assert hit["calls"] == 1 and hit["ms"] == 10.0
    assert hit["self_ms"] == pytest.approx(4.0)
    assert hit["probes"] == 2  # the from_edges child is not a probe
    assert totals["cuts.stable_cut_exists"]["found"] == 1
    assert totals["nac.nac_exists"]["budget_exceeded"] == 1


def test_tail_is_the_highest_percentile_with_ten_samples_beyond():
    value, note = bench.tail([float(i) for i in range(100)])
    assert value == 89.0 and note.startswith("p90.0")
    assert bench.tail([1.0, 3.0, 2.0])[0] == 3.0


def test_benchmark_spec_matches_the_code():
    names = [m["name"] for m in SPEC["per_layer"]]
    assert names == [f"{s}.{f}" for s, fs in bench.PER_LAYER.items() for f in fs] + [
        "trace.overhead_frac"
    ]
    assert [m["name"] for m in SPEC["end_to_end"]] == list(bench.END_TO_END)
    assert set(LISTED) <= set(workloads.WORKLOADS)
    assert set(workloads.WORKLOADS) == set(bench.PREDICTED)
    assert set(workloads.WORKLOADS) == set(workloads.DIGESTS)
