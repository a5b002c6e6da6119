import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import nacflex
from nacflex import experiments, flex
from nacflex.cli import main
from nacflex.graphs import (
    Graph,
    complete_bipartite,
    complete_graph,
    cycle_graph,
    path_graph,
    save_graph,
)
from nacflex.nac import Colour, EdgeColouring


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def write_colouring(path, colouring: EdgeColouring):
    path.write_text(json.dumps(colouring.to_json_dict()))


class TestNacCommands:
    def test_count_k22(self, tmp_path, capsys):
        gpath = tmp_path / "k22.json"
        save_graph(complete_bipartite(2, 2), gpath, fmt="json")
        code, out, _ = run(capsys, "nac", "count", str(gpath))
        assert code == 0
        assert json.loads(out)["count"] == 6

    def test_count_k56_has_no_class_ceiling(self, tmp_path, capsys):
        # 30 triangle classes, 1022 colourings
        gpath = tmp_path / "k56.json"
        save_graph(complete_bipartite(5, 6), gpath, fmt="json")
        code, out, err = run(capsys, "nac", "count", str(gpath))
        assert code == 0 and err == ""
        assert json.loads(out) == {"count": 1022}

    def test_count_force_flag_is_gone_exit_2(self, tmp_path, capsys):
        gpath = tmp_path / "k22.json"
        save_graph(complete_bipartite(2, 2), gpath, fmt="json")
        code, out, _ = run(capsys, "nac", "count", str(gpath), "--force")
        assert code == 2 and out == ""

    def test_find_on_a_path_deeper_than_the_recursion_limit(self, tmp_path, capsys):
        # 1199 triangle classes, one per edge: the class search goes that deep
        gpath = tmp_path / "p1200.txt"
        save_graph(path_graph(1200), gpath)
        code, out, err = run(capsys, "nac", "find", str(gpath))
        assert code == 0 and err == ""
        assert json.loads(out)["result"] == "found"

    def test_check(self, tmp_path, capsys):
        cpath = tmp_path / "c.json"
        write_colouring(cpath, EdgeColouring.from_red_edges(cycle_graph(4), [(0, 1), (2, 3)]))
        code, out, _ = run(capsys, "nac", "check", str(cpath))
        assert code == 0 and json.loads(out)["is_nac"] is True

    def test_check_failure_certificate(self, tmp_path, capsys):
        cpath = tmp_path / "c.json"
        write_colouring(cpath, EdgeColouring.from_red_edges(complete_graph(3), [(0, 1)]))
        code, out, _ = run(capsys, "nac", "check", str(cpath))
        data = json.loads(out)
        assert code == 0 and data["is_nac"] is False
        assert data["failure"] == "almost-monochromatic-cycle"
        assert "edge" in data and "path" in data

    def test_check_red_entry_not_a_pair_exit_2(self, tmp_path, capsys):
        graph = {"n": 3, "edges": [[0, 1], [1, 2]]}
        for red in ([[0, 1, 2]], "ab"):
            cpath = tmp_path / "c.json"
            cpath.write_text(json.dumps({"graph": graph, "red": red}))
            code, out, err = run(capsys, "nac", "check", str(cpath))
            assert code == 2 and out == ""
            assert err.startswith("error: malformed colouring JSON: ")
            assert "Traceback" not in err

    def test_find_and_enumerate(self, tmp_path, capsys):
        gpath = tmp_path / "c4.txt"
        save_graph(cycle_graph(4), gpath)
        code, out, _ = run(capsys, "nac", "find", str(gpath))
        assert code == 0 and json.loads(out)["result"] == "found"
        code, out, _ = run(capsys, "nac", "enumerate", str(gpath), "--cap", "4")
        data = json.loads(out)
        assert code == 0 and len(data["colourings"]) == 4 and data["complete"] is False

    def test_stable_witness(self, tmp_path, capsys):
        cpath = tmp_path / "c.json"
        write_colouring(cpath, EdgeColouring.from_red_edges(cycle_graph(4), [(0, 1), (0, 3)]))
        code, out, _ = run(capsys, "nac", "stable-witness", str(cpath), "--mode", "all")
        data = json.loads(out)
        assert code == 0 and data["stable"] is True
        assert {"side": "red", "s": [0]} in data["witnesses"]

    def test_stable_witness_ceiling_exit_2(self, tmp_path, capsys):
        from nacflex.graphs import Graph
        from nacflex.nac import MAX_WITNESSES

        k = MAX_WITNESSES.bit_length() - 1  # 2^k + 2 witnesses
        g = Graph.from_edges(2 * k + 2, [(2 * i, 2 * i + 1) for i in range(k + 1)])
        cpath = tmp_path / "c.json"
        write_colouring(cpath, EdgeColouring.from_red_edges(g, g.edges[:k]))
        code, out, err = run(capsys, "nac", "stable-witness", str(cpath), "--mode", "all")
        assert code == 2 and out == "" and "--size-cap" in err
        code, out, _ = run(
            capsys, "nac", "stable-witness", str(cpath), "--mode", "all", "--size-cap", "5"
        )
        assert code == 0 and len(json.loads(out)["witnesses"]) == 5

    def test_caps_below_one_exit_2(self, tmp_path, capsys):
        cpath = tmp_path / "c.json"
        write_colouring(cpath, EdgeColouring.from_red_edges(cycle_graph(4), [(0, 1), (0, 3)]))
        gpath = tmp_path / "c4.txt"
        save_graph(cycle_graph(4), gpath)
        for argv, message in (
            (("stable-witness", str(cpath), "--mode", "all", "--size-cap", "0"), "size_cap"),
            (("stable-witness", str(cpath), "--size-cap", "0"), "size_cap"),
            (("enumerate", str(gpath), "--cap", "-1"), "cap"),
        ):
            code, out, err = run(capsys, "nac", *argv)
            assert code == 2 and out == "" and message in err


class TestCutCommands:
    def test_stable_cut_json_shape(self, tmp_path, capsys):
        gpath = tmp_path / "p3.txt"
        save_graph(path_graph(3), gpath)
        code, out, _ = run(capsys, "cut", "stable", str(gpath))
        data = json.loads(out)
        assert code == 0
        assert set(data) == {"s", "components", "kind"}
        assert data["kind"] == "stable"

    def test_none(self, tmp_path, capsys):
        gpath = tmp_path / "k4.txt"
        save_graph(complete_graph(4), gpath)
        for kind, expect in (("stable", "none"), ("firm", "none"), ("sprime", "holds")):
            code, out, _ = run(capsys, "cut", kind, str(gpath))
            assert code == 0 and json.loads(out)["result"] == expect


class TestRandProcessFlex:
    def test_rand_gnp_deterministic(self, tmp_path, capsys):
        a, b = tmp_path / "a.txt", tmp_path / "b.txt"
        for out in (a, b):
            code, _, _ = run(
                capsys, "rand", "gnp", "--n", "30", "--p", "0.2",
                "--seed", "9", "--out", str(out),
            )
            assert code == 0
        assert a.read_bytes() == b.read_bytes()

    def test_rand_negative_n_exit_2(self, capsys):
        for model, param in (("gnp", ("--p", "0.5")), ("gnm", ("--m", "1"))):
            code, _, err = run(capsys, "rand", model, "--n", "-1", *param, "--seed", "1")
            assert code == 2 and "non-negative" in err

    def test_rand_requires_model_params(self, capsys):
        code, _, err = run(capsys, "rand", "gnp", "--n", "5", "--seed", "1")
        assert code == 2 and "requires --p" in err

    def test_process_trace(self, capsys):
        code, out, _ = run(capsys, "process", "trace", "--n", "6", "--seed", "4")
        data = json.loads(out)
        assert code == 0
        assert set(data) == {"n", "seed", "tau_conn", "tau_T", "tau_S", "tau_N"}
        assert data["tau_T"] <= data["tau_S"] <= data["tau_N"]

    def test_flex_build(self, tmp_path, capsys):
        cpath = tmp_path / "c.json"
        write_colouring(cpath, EdgeColouring.from_red_edges(cycle_graph(4), [(0, 1), (2, 3)]))
        code, out, _ = run(
            capsys, "flex", "build", str(cpath), "--seed", "3", "--samples", "16"
        )
        data = json.loads(out)
        assert code == 0
        assert len(data["theta"]) == 16 and len(data["positions"]) == 16
        assert len(data["positions"][0]) == 4
        assert data["report"]["max_edge_drift"] < 1e-9


    def test_flex_build_sampling_failure_exits_2(self, tmp_path, capsys, monkeypatch):
        cpath = tmp_path / "c.json"
        write_colouring(cpath, EdgeColouring.from_red_edges(cycle_graph(4), [(0, 1), (2, 3)]))
        monkeypatch.setattr(flex, "_min_pairwise_distance", lambda points: 0.0)
        code, out, err = run(capsys, "flex", "build", str(cpath), "--seed", "3")
        assert code == 2 and out == ""
        assert "could not sample separated base vectors" in err

    def test_flex_build_zero_samples_exits_2(self, tmp_path, capsys):
        cpath = tmp_path / "c.json"
        write_colouring(cpath, EdgeColouring.from_red_edges(cycle_graph(4), [(0, 1), (2, 3)]))
        code, out, err = run(
            capsys, "flex", "build", str(cpath), "--seed", "3", "--samples", "0"
        )
        assert code == 2 and out == ""
        assert "n_samples must be >= 1" in err


class TestBudgetExceeded:
    def test_nac_searches_report_budget_exceeded(self, tmp_path, capsys):
        # a 25-vertex path has 2^24 - 2 NAC-colourings; a small budget stops
        # the count and enumeration long before the default budget would
        gpath = tmp_path / "p25.txt"
        save_graph(path_graph(25), gpath)
        for argv in (("count", "--budget", "1000"), ("enumerate", "--budget", "1000"),
                     ("find", "--budget", "1")):
            code, out, err = run(capsys, "nac", argv[0], str(gpath), *argv[1:])
            assert code == 0 and err == ""
            assert json.loads(out) == {"result": "budget-exceeded"}

    def test_enumerate_on_a_star_stops_at_the_budget(self, tmp_path, capsys):
        # 27 triangle classes; only the node budget bounds the listing
        gpath = tmp_path / "star28.txt"
        save_graph(Graph.from_edges(28, [(0, i) for i in range(1, 28)]), gpath)
        code, out, err = run(capsys, "nac", "enumerate", str(gpath), "--budget", "1000")
        assert code == 0 and err == ""
        assert json.loads(out) == {"result": "budget-exceeded"}

    def test_rand_regular_reports_budget_exceeded(self, capsys):
        code, out, _ = run(
            capsys, "rand", "regular", "--n", "12", "--k", "3", "--seed", "1",
            "--max-rejects", "0",
        )
        assert code == 0 and json.loads(out) == {"result": "budget-exceeded"}


# every verb that takes --budget, with the other arguments it needs
BUDGET_VERBS = (
    ("nac", "count", "GRAPH"),
    ("nac", "find", "GRAPH"),
    ("nac", "enumerate", "GRAPH"),
    ("cut", "stable", "GRAPH"),
    ("cut", "firm", "GRAPH"),
    ("cut", "sprime", "GRAPH"),
    ("process", "trace", "--n", "6", "--seed", "4"),
    ("experiment", "sweep", "--property", "S", "--n", "10", "--c", "1.0",
     "--trials", "1", "--seed", "1"),
    ("experiment", "hitting", "--n", "6", "--trials", "1", "--seed", "1"),
)


@pytest.mark.parametrize("budget", ["0", "-1"])
@pytest.mark.parametrize("argv", BUDGET_VERBS, ids=lambda argv: " ".join(argv[:2]))
def test_budget_below_one_exit_2(argv, budget, tmp_path, capsys):
    # no search runs, so "budget-exceeded" would be a wrong answer
    gpath = tmp_path / "k3.txt"
    save_graph(complete_graph(3), gpath)
    argv = [str(gpath) if a == "GRAPH" else a for a in argv]
    code, out, err = run(capsys, *argv, "--budget", budget)
    assert code == 2 and out == ""
    assert "--budget" in err and "Traceback" not in err


# every verb that runs no search, with the arguments it needs to succeed
NO_BUDGET_VERBS = (
    ("nac", "check", "COLOURING"),
    ("nac", "stable-witness", "COLOURING"),
    ("rand", "gnp", "--n", "5", "--p", "0.5", "--seed", "1"),
    ("flex", "build", "COLOURING", "--seed", "1", "--samples", "4"),
    ("experiment", "regular-nac", "--n", "12", "--k", "3", "--trials", "1",
     "--seed", "1"),
)


@pytest.mark.parametrize("argv", NO_BUDGET_VERBS, ids=lambda argv: " ".join(argv[:2]))
def test_verbs_without_a_search_reject_budget(argv, tmp_path, capsys):
    cpath = tmp_path / "c.json"
    write_colouring(cpath, EdgeColouring.from_red_edges(cycle_graph(4), [(0, 1), (2, 3)]))
    argv = [str(cpath) if a == "COLOURING" else a for a in argv]
    assert run(capsys, *argv)[0] == 0
    code, out, err = run(capsys, *argv, "--budget", "10")
    assert code == 2 and out == ""
    assert "unrecognized arguments: --budget 10" in err


@pytest.mark.parametrize(
    "argv", BUDGET_VERBS + NO_BUDGET_VERBS, ids=lambda argv: " ".join(argv[:2])
)
def test_help_on_every_verb(argv, capsys):
    code, out, err = run(capsys, *argv[:2], "--help")
    assert code == 0 and err == ""
    assert out.startswith("usage: nacflex ")


EXPERIMENT_VERBS = (
    ("sweep", "--property", "T", "--n", "10", "--c", "1.0", "--trials", "2"),
    ("hitting", "--n", "6", "--trials", "2"),
    ("regular-nac", "--n", "12", "--k", "3", "--trials", "2"),
)


@pytest.mark.parametrize("argv", EXPERIMENT_VERBS, ids=lambda argv: argv[0])
def test_experiment_verbs_take_the_output_options(argv, tmp_path, capsys, monkeypatch):
    workers = []

    def serial_map(fn, tasks, n_workers, chunksize=1):
        workers.append(n_workers)
        return [fn(*task) for task in tasks]

    monkeypatch.setattr(experiments, "_map", serial_map)
    path = tmp_path / "result.json"
    code, out, err = run(
        capsys, "experiment", *argv, "--seed", "1", "--workers", "2",
        "--format", "json", "--out", str(path),
    )
    assert (code, out, err) == (0, "", "")
    assert json.loads(path.read_text())["rows"]
    assert workers == [2]


@pytest.mark.parametrize("workers", ["0", "-3"])
@pytest.mark.parametrize("argv", EXPERIMENT_VERBS, ids=lambda argv: argv[0])
def test_workers_below_one_exit_2(argv, workers, capsys):
    code, out, err = run(
        capsys, "experiment", *argv, "--seed", "1", "--workers", workers
    )
    assert code == 2 and out == ""
    assert "--workers" in err and "must be >= 1" in err and "Traceback" not in err


def test_regular_nac_degree_below_two_exit_2(capsys):
    code, out, err = run(
        capsys, "experiment", "regular-nac", "--n", "10", "--k", "0", "--trials", "1",
        "--seed", "1",
    )
    assert code == 2 and out == "" and "k must be >= 2" in err


def test_import_nacflex_stays_light():
    # nacbench times this import; the CLI and process pools load on demand
    heavy = ("nacflex.cli", "argparse", "multiprocessing", "concurrent.futures")
    src = str(Path(nacflex.__file__).parent.parent)
    env = os.environ | {"PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, nacflex; print(sorted(set(sys.argv[1:]) & set(sys.modules)))",
         *heavy],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


def test_python_m_nacflex():
    src = str(Path(nacflex.__file__).parent.parent)
    env = os.environ | {"PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run(
        [sys.executable, "-m", "nacflex", "process", "trace", "--n", "6", "--seed", "4"],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["n"] == 6


class TestExperimentCommands:
    def test_sweep_csv(self, tmp_path, capsys):
        out = tmp_path / "sweep.csv"
        code, _, _ = run(
            capsys, "experiment", "sweep", "--property", "T", "--n", "40",
            "--c", "0.8", "1.2", "--trials", "5", "--seed", "3",
            "--out", str(out), "--format", "csv",
        )
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "n,c,p,trials,successes,budget_exceeded,wall_ms"
        assert len(lines) == 3

    def test_sweep_budget_is_nodes(self, capsys):
        argv = ("experiment", "sweep", "--property", "S", "--n", "12", "--c", "1.5",
                "--trials", "4", "--seed", "3")
        rows = {}
        for budget in ("1", "500000"):
            code, out, _ = run(capsys, *argv, "--budget", budget)
            assert code == 0
            rows[budget] = out.splitlines()[1].split(",")
        # successes, budget_exceeded
        assert rows["1"][4:6] == ["0", "4"]
        assert rows["500000"][4:6] == ["3", "0"]
        _, default, _ = run(capsys, *argv)
        assert default.splitlines()[1].split(",")[:6] == rows["500000"][:6]

    def test_exit_code_precondition(self, capsys):
        code, _, err = run(
            capsys, "experiment", "sweep", "--property", "N", "--n", "100",
            "--c", "1.0", "--trials", "2", "--seed", "1",
        )
        assert code == 2 and "ceiling" in err

    def test_exit_code_io(self, tmp_path, capsys):
        code, _, err = run(
            capsys, "experiment", "sweep", "--property", "T", "--n", "20",
            "--c", "1.0", "--trials", "2", "--seed", "1",
            "--out", str(tmp_path / "missing" / "x.csv"),
        )
        assert code == 3 and "could not write" in err

    def test_non_finite_c_exit_2(self, capsys):
        code, out, err = run(
            capsys, "experiment", "sweep", "--property", "T", "--n", "10",
            "--c", "nan", "--trials", "1", "--seed", "1",
        )
        assert code == 2 and "finite" in err and out == ""

    def test_bad_arguments_exit_2(self, capsys):
        assert main(["experiment", "sweep", "--property", "BAD"]) == 2

    def test_malformed_files_exit_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"edges": [[0, 1]]}')
        assert main(["nac", "count", str(bad)]) == 2
        bad.write_text('{"graph": {"n": 2, "edges": [[0, 1]]}}')
        assert main(["nac", "check", str(bad)]) == 2
        capsys.readouterr()
        # JSON takes integers only: int() would truncate 3.9 and 1.7 and read
        # true as 1, and 1e400 (inf) would overflow
        for graph in (
            '{"n": 3.9, "edges": [[0, 1], [1, 2]]}',
            '{"n": 3, "edges": [[0, 1.7], [true, 2]]}',
            '{"n": 1e400, "edges": []}',
        ):
            bad.write_text(graph)
            assert main(["nac", "count", str(bad)]) == 2
        bad.write_text('{"graph": {"n": 3, "edges": [[0, 1], [1, 2]]}, "red": [[0.2, 1.9]]}')
        assert main(["nac", "check", str(bad)]) == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err and err.count("expected an integer") == 4

    def test_input_too_large_exits_2(self, tmp_path, capsys, monkeypatch):
        huge = tmp_path / "huge.json"
        huge.write_text('{"n": 100000000000000000000, "edges": []}')
        code, out, err = run(capsys, "nac", "count", str(huge))
        assert code == 2 and out == "" and err.startswith("error: input too large:")

        def out_of_memory(*args, **kwargs):
            raise MemoryError

        monkeypatch.setattr(nacflex.cli, "gnp", out_of_memory)
        code, out, err = run(
            capsys, "rand", "gnp", "--n", "60000", "--p", "0.5", "--seed", "1"
        )
        assert (code, out) == (2, "")
        assert err == "error: input too large: MemoryError\n"

    def test_missing_file_exit_3(self, tmp_path, capsys):
        assert main(["nac", "count", str(tmp_path / "absent.json")]) == 3

    def test_hitting_json(self, tmp_path, capsys):
        out = tmp_path / "hit.json"
        code, _, _ = run(
            capsys, "experiment", "hitting", "--n", "3", "--trials", "4",
            "--seed", "2", "--out", str(out), "--format", "json",
        )
        assert code == 0
        data = json.loads(out.read_text())
        assert data["rows"][0]["frac_s_eq_t"] == 1.0
