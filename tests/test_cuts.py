import hashlib
import json
import random
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nacflex import cuts
from nacflex.cuts import (
    CutCertificate,
    decompose_s,
    firm_cut_exists,
    firm_cut_exists_exhaustive,
    sprime_holds,
    sprime_violation_exhaustive,
    stable_cut_exists,
    stable_cut_exists_exhaustive,
    stable_cut_to_nac,
)
from nacflex.errors import BudgetExceeded, PreconditionError
from nacflex.graphs import (
    Graph,
    complete_graph,
    component_masks,
    components,
    cycle_graph,
    induced_delete,
    is_stable,
    mask_is_stable,
    path_graph,
)
from nacflex.nac import Colour, nac_check, nac_check_oracle, nac_exists
from nacflex.randmodels import RandomSource, hitting_times, process

from conftest import all_pairs, atlas_all, atlas_connected, random_graph


def glued_triangle():
    """Path x-y-z with a triangle y-a-b glued at y."""
    return Graph.from_labelled_edges(
        [("x", "y"), ("y", "z"), ("y", "a"), ("y", "b"), ("a", "b")]
    )


def glued_triangle_plus_xz():
    return Graph.from_labelled_edges(
        [("x", "y"), ("y", "z"), ("y", "a"), ("y", "b"), ("a", "b"), ("x", "z")]
    )


def check_certificate(g: Graph, cert: CutCertificate) -> None:
    assert is_stable(g, cert.s)
    assert len(cert.components) >= 2
    claimed = sorted(v for comp in cert.components for v in comp) + list(cert.s)
    assert sorted(claimed) == list(range(g.n))
    sub, kept = induced_delete(g, cert.s)
    lab = components(sub)
    comp_sets = {frozenset(kept[v] for v in cs) for cs in lab.sets()}
    assert {frozenset(c) for c in cert.components} == comp_sets
    if cert.kind == "firm":
        assert all(len(c) >= 2 for c in cert.components)
    if cert.kind == "sprime-violation":
        assert len(cert.components) >= 3 or (
            len(cert.components) == 2 and all(len(c) >= 2 for c in cert.components)
        )


class TestStableCut:
    def test_path(self):
        cert = stable_cut_exists(path_graph(3))
        check_certificate(path_graph(3), cert)

    def test_k4_none(self):
        assert stable_cut_exists(complete_graph(4)) is None

    def test_c4(self):
        cert = stable_cut_exists(cycle_graph(4))
        check_certificate(cycle_graph(4), cert)
        assert set(cert.s) in ({0, 2}, {1, 3})

    def test_glued_triangle(self):
        g, ids = glued_triangle()
        cert = stable_cut_exists(g)
        check_certificate(g, cert)
        assert cert.s == (ids["y"],)

    def test_disconnected_empty_cut(self):
        g = Graph.from_edges(4, [(0, 1)])
        cert = stable_cut_exists(g)
        assert cert.s == ()
        check_certificate(g, cert)

    def test_tiny_graphs(self):
        assert stable_cut_exists(Graph.from_edges(1, [])) is None
        assert stable_cut_exists(Graph.from_edges(2, [(0, 1)])) is None
        assert stable_cut_exists(complete_graph(3)) is None

    def test_budget(self):
        # wheel: hub adjacent to a 5-cycle; no stable cut, no stable open
        # neighbourhood, so only the full search can decide
        rim = [(i, i % 5 + 1) for i in range(1, 6)]
        hub = [(0, i) for i in range(1, 6)]
        g = Graph.from_edges(6, rim + hub)
        with pytest.raises(BudgetExceeded):
            stable_cut_exists(g, node_budget=1)
        assert stable_cut_exists(g) is None


class TestFirmCut:
    def test_glued_triangle_none(self):
        g, _ = glued_triangle()
        assert firm_cut_exists(g) is None

    def test_glued_triangle_plus_xz(self):
        g, ids = glued_triangle_plus_xz()
        cert = firm_cut_exists(g)
        check_certificate(g, cert)
        assert cert.s == (ids["y"],)
        assert {frozenset(c) for c in cert.components} == {
            frozenset({ids["x"], ids["z"]}),
            frozenset({ids["a"], ids["b"]}),
        }

    def test_k4_none(self):
        assert firm_cut_exists(complete_graph(4)) is None

    def test_isolated_vertices_absorbed(self):
        # two disjoint edges plus an isolated vertex: the isolated vertex must
        # sit inside the cut for every residual component to have >= 2 vertices
        g = Graph.from_edges(5, [(0, 1), (2, 3)])
        cert = firm_cut_exists(g)
        check_certificate(g, cert)
        assert 4 in cert.s

    def test_non_monotone_regression(self):
        # adding an edge can create a firm cut where none existed
        g, _ = glued_triangle()
        g2, _ = glued_triangle_plus_xz()
        assert firm_cut_exists(g) is None and firm_cut_exists(g2) is not None


class TestSprime:
    def test_glued_triangle_plus_xz_violates(self):
        g, ids = glued_triangle_plus_xz()
        holds, cert = sprime_holds(g)
        assert not holds
        check_certificate(g, cert)
        assert cert.s == (ids["y"],)

    def test_k4_holds(self):
        assert sprime_holds(complete_graph(4)) == (True, None)

    def test_star_violates(self):
        g = Graph.from_edges(4, [(0, 1), (0, 2), (0, 3)])
        holds, cert = sprime_holds(g)
        assert not holds
        assert cert.s == (0,)
        assert len(cert.components) == 3

    def test_c4_holds(self):
        # C4's only stable cuts leave two singleton components, which is not
        # a violating shape
        holds, cert = sprime_holds(cycle_graph(4))
        assert holds and cert is None
        assert sprime_violation_exhaustive(cycle_graph(4)) is None


class TestDecompose:
    def test_k4(self):
        d = decompose_s(complete_graph(4))
        assert (d.in_T, d.in_Sprime, d.in_S) == (True, True, True)

    def test_path(self):
        d = decompose_s(path_graph(3))
        assert (d.in_T, d.in_Sprime, d.in_S) == (False, True, False)

    def test_c4(self):
        d = decompose_s(cycle_graph(4))
        assert (d.in_T, d.in_Sprime, d.in_S) == (False, True, False)

    def test_identity_on_random(self):
        rnd = random.Random(31)
        for _ in range(2000):
            g = random_graph(rnd, 3, 8)
            d = decompose_s(g)  # raises internally on identity violation
            assert d.in_S == (d.in_T and d.in_Sprime)


class TestOracleEquivalence:
    def test_random_graphs(self):
        rnd = random.Random(32)
        for _ in range(4000):
            g = random_graph(rnd, 1, 8)
            assert (stable_cut_exists(g) is None) == (
                stable_cut_exists_exhaustive(g) is None
            )
            assert (firm_cut_exists(g) is None) == (
                firm_cut_exists_exhaustive(g) is None
            )
            assert sprime_holds(g)[0] == (sprime_violation_exhaustive(g) is None)

    def test_certificates_are_valid(self):
        rnd = random.Random(33)
        for _ in range(1500):
            g = random_graph(rnd, 1, 8)
            for cert in (
                stable_cut_exists(g),
                firm_cut_exists(g),
                sprime_holds(g)[1],
            ):
                if cert is not None:
                    check_certificate(g, cert)

    def test_full_catalogue_up_to_7(self):
        # one representative per isomorphism class, disconnected included
        for n in range(1, 8):
            for g in atlas_all(n):
                assert (stable_cut_exists(g) is None) == (
                    stable_cut_exists_exhaustive(g) is None
                ), g.edges
                assert (firm_cut_exists(g) is None) == (
                    firm_cut_exists_exhaustive(g) is None
                ), g.edges
                assert sprime_holds(g)[0] == (
                    sprime_violation_exhaustive(g) is None
                ), g.edges


class TestMonotonicity:
    def test_no_stable_cut_monotone(self):
        rnd = random.Random(34)
        done = 0
        while done < 3000:
            g = random_graph(rnd, 2, 8)
            missing = [e for e in all_pairs(g.n) if not g.has_edge(*e)]
            if not missing:
                continue
            e = rnd.choice(missing)
            g2 = Graph.from_edges(g.n, list(g.edges) + [e])
            if stable_cut_exists(g2) is not None:
                assert stable_cut_exists(g) is not None
            done += 1

    def test_sprime_monotone(self):
        rnd = random.Random(35)
        done = 0
        while done < 3000:
            g = random_graph(rnd, 2, 8)
            missing = [e for e in all_pairs(g.n) if not g.has_edge(*e)]
            if not missing:
                continue
            e = rnd.choice(missing)
            g2 = Graph.from_edges(g.n, list(g.edges) + [e])
            if not sprime_holds(g2)[0]:
                assert not sprime_holds(g)[0]
            done += 1


class TestStableCutToNac:
    def test_c4(self):
        g = cycle_graph(4)
        cert = CutCertificate((0, 2), ((1,), (3,)), "stable")
        c = stable_cut_to_nac(g, cert)
        assert c.edges_of(Colour.RED) == ((0, 1), (1, 2))
        assert nac_check(c).is_nac and nac_check_oracle(c)

    def test_path(self):
        g = path_graph(3)
        cert = CutCertificate((1,), ((0,), (2,)), "stable")
        c = stable_cut_to_nac(g, cert)
        assert c.edges_of(Colour.RED) == ((0, 1),)
        assert nac_check(c).is_nac

    def test_no_blue_edge(self):
        g = Graph.from_edges(3, [(0, 1)])
        cert = CutCertificate((), ((0, 1), (2,)), "stable")
        with pytest.raises(PreconditionError, match="no blue edge"):
            stable_cut_to_nac(g, cert)

    def test_no_red_edge(self):
        g = Graph.from_edges(3, [])
        cert = CutCertificate((), ((0,), (1,), (2,)), "stable")
        with pytest.raises(PreconditionError, match="no red edge"):
            stable_cut_to_nac(g, cert)

    def test_rejects_bad_certificates(self):
        g = cycle_graph(4)
        with pytest.raises(PreconditionError, match="not stable"):
            stable_cut_to_nac(g, CutCertificate((0, 1), ((2,), (3,)), "stable"))
        with pytest.raises(PreconditionError, match="joined by an edge"):
            stable_cut_to_nac(g, CutCertificate((0,), ((1,), (2, 3)), "stable"))

    @pytest.mark.parametrize("components", [((0,), (-1,)), ((0,), (7,))])
    def test_rejects_components_outside_the_graph(self, components):
        # -1 would index vertex 2 and colour every edge blue; 7 has no adjacency
        cert = CutCertificate((1,), components, "stable")
        with pytest.raises(PreconditionError, match="partition"):
            stable_cut_to_nac(path_graph(3), cert)

    def test_random_certified_instances(self):
        rnd = random.Random(36)
        done = 0
        while done < 10_000:
            g = random_graph(rnd, 2, 8)
            cert = stable_cut_exists(g)
            if cert is None:
                continue
            try:
                c = stable_cut_to_nac(g, cert)
            except PreconditionError:
                continue  # no off-component edge available
            assert nac_check(c).is_nac
            if g.m - g.n + components(g).count <= 12:
                assert nac_check_oracle(c)
            done += 1


class TestNoNacImpliesNoStableCut:
    def test_connected_atlas_up_to_7(self):
        for n in range(1, 8):
            for g in atlas_connected(n):
                if nac_exists(g) is None:
                    assert stable_cut_exists(g) is None, (n, g.edges)


# -- frozen certificates --------------------------------------------------------

GOLDEN_CERTIFICATES = Path(__file__).parent / "data" / "cut_certificates_golden.json"


def certificate_corpus():
    """Random graphs with n <= 11, then process prefixes at n = 12..30 taken
    at 0.6, 0.8, tau_T - 1, tau_T and tau_T + 3 steps."""
    rnd = random.Random(20261018)
    for _ in range(600):
        yield random_graph(rnd, 1, 11)
    for n in (12, 16, 20, 25, 30):
        for i in range(8):
            trace = process(n, RandomSource(20261018).derive(n, i))
            tau = hitting_times(trace).tau_T
            for t in (int(0.6 * tau), int(0.8 * tau), tau - 1, tau, tau + 3):
                yield trace.prefix_graph(t)


def certificate_records(graphs) -> tuple[list[list], str]:
    """Per graph [n, m, stable S, firm S, S' violation S] (None: no cut, or
    S' holds), and the sha256 of the `repr` of every full output."""
    rows, reprs = [], []
    for g in graphs:
        outs = (stable_cut_exists(g), firm_cut_exists(g), sprime_holds(g))
        certs = (outs[0], outs[1], outs[2][1])
        rows.append([g.n, g.m] + [None if c is None else list(c.s) for c in certs])
        reprs.append(repr(outs))
    return rows, hashlib.sha256("\n".join(reprs).encode()).hexdigest()


def test_certificates_match_frozen_outputs():
    golden = json.loads(GOLDEN_CERTIFICATES.read_text())
    rows, digest = certificate_records(certificate_corpus())
    assert len(rows) == len(golden["rows"])
    for got, want in zip(rows, golden["rows"]):
        assert got == want
    assert digest == golden["sha256"]


def test_tau_t_prefixes_at_n60_need_few_nodes():
    # without the class-closure prune, the stable-cut and firm-cut searches
    # ran past 500k nodes on the first four of these prefixes, and the S'
    # search on the first; with it, each uses at most 81
    for i in range(5):
        trace = process(60, RandomSource(7).derive(60, i))
        g = trace.prefix_graph(hitting_times(trace).tau_T)
        stable = stable_cut_exists(g, node_budget=5_000)
        holds = sprime_holds(g, node_budget=5_000)[0]
        firm = firm_cut_exists(g, node_budget=5_000)
        # every vertex lies in a triangle, so no stable cut means S' holds
        assert (stable is None) == holds
        assert stable is not None or firm is None


# -- the small-side proof --------------------------------------------------------


def draw_graph(n, data):
    """A graph on n vertices, some of them forced to be isolated."""
    isolated = data.draw(st.sets(st.integers(0, n - 1), max_size=3))
    pool = [e for e in all_pairs(n) if not isolated & set(e)]
    edges = data.draw(st.lists(st.sampled_from(pool), max_size=len(pool))) if pool else []
    return Graph.from_edges(n, edges)


def violation_with_few_singletons(g: Graph) -> bool:
    """Brute force: some S' violation leaves at most one single-vertex
    component (the shapes the pair scan does not find)."""
    masks, full = g.adjacency_masks, (1 << g.n) - 1
    for s_mask in range(1 << g.n):
        if not mask_is_stable(masks, s_mask):
            continue
        comps = component_masks(masks, full & ~s_mask)
        singles = sum(1 for c in comps if not c & (c - 1))
        if singles <= 1 and (len(comps) >= 3 or (len(comps) == 2 and not singles)):
            return True
    return False


class TestSmallSideProof:
    @given(st.integers(1, 12), st.data())
    @settings(max_examples=400, deadline=None)
    def test_decisions_match_oracles(self, n, data):
        g = draw_graph(n, data)
        assert (stable_cut_exists(g) is None) == (stable_cut_exists_exhaustive(g) is None)
        assert (firm_cut_exists(g) is None) == (firm_cut_exists_exhaustive(g) is None)
        assert sprime_holds(g)[0] == (sprime_violation_exhaustive(g) is None)

    @given(st.integers(1, 12), st.data())
    @settings(max_examples=400, deadline=None)
    def test_proof_claims_only_what_oracles_confirm(self, n, data):
        # "free" rules out every cut whose components all have two vertices
        # (firm cuts, and the stable cuts that the fast path leaves), and
        # every S' violation that the pair scan does not find
        g = draw_graph(n, data)
        if cuts._no_cut_from_small_side(g, cuts._node_counter(10**9)):
            assert firm_cut_exists_exhaustive(g) is None
            assert not violation_with_few_singletons(g)

    def test_budget_exceeded_in_proof_reaches_caller(self, monkeypatch):
        # a "yes" graph for all three decisions; at small budgets the proof
        # runs out, and the caller must raise, never answer "none"
        g, _ = glued_triangle_plus_xz()
        proof = cuts._no_cut_from_small_side
        raised_in_proof = []

        def spy(*args):
            try:
                return proof(*args)
            except BudgetExceeded:
                raised_in_proof.append(args)
                raise

        monkeypatch.setattr(cuts, "_no_cut_from_small_side", spy)
        decisions = (
            stable_cut_exists,
            firm_cut_exists,
            lambda g, **kw: sprime_holds(g, **kw)[1],
        )
        for decide in decisions:
            want = decide(g)
            assert want is not None
            raised_in_proof.clear()
            for budget in range(1, 40):
                try:
                    got = decide(g, node_budget=budget)
                except BudgetExceeded:
                    continue
                assert got == want
            assert raised_in_proof


def test_tau_t_prefixes_at_n400_decided_within_2000_nodes():
    # without the small-side proof, the stable-cut and S' searches ran past
    # 200k nodes on these two prefixes, after 5-7 s each
    for i in (1, 3):
        trace = process(400, RandomSource(5).derive(i))
        g = trace.prefix_graph(hitting_times(trace, node_budget=2000).tau_T)
        assert stable_cut_exists(g, node_budget=2000) is None
        assert sprime_holds(g, node_budget=2000) == (True, None)
        assert firm_cut_exists(g, node_budget=2000) is None


# Two tau_T prefixes at n = 30 on which the searches run deep: the first
# reaches the ordered separator search, the second exhausts a large NAC
# search tree.  Per decision (stable cut, S', firm cut, NAC) the least node
# budget at which it answers, and its certificate: the cut's S and
# components, and the blue edges of the NAC-colouring.
DEEP_PREFIXES = [
    (
        792884164160639042,
        (3713, 3713, 3713, 64),
        (
            (0, 4, 6, 8, 13, 17, 20, 29),
            (
                (1, 2, 3, 5, 9, 10, 11, 12, 14, 15, 18, 19, 21, 23, 24, 25, 26, 27, 28),
                (7, 16, 22),
            ),
        ),
        ((0, 22), (6, 22), (7, 16), (7, 22), (13, 22), (16, 22), (16, 29), (22, 29)),
    ),
    (5997469170741038559, (49, 49, 49, 5899), None, None),
]


@pytest.mark.parametrize("seed, budgets, cut, blue", DEEP_PREFIXES)
def test_deep_prefixes_keep_node_counts_and_certificates(seed, budgets, cut, blue):
    trace = process(30, RandomSource(seed))
    g = trace.prefix_graph(hitting_times(trace).tau_T)
    decisions = (
        stable_cut_exists,
        lambda g, **kw: sprime_holds(g, **kw)[1],
        firm_cut_exists,
        nac_exists,
    )
    answers = []
    for decide, budget in zip(decisions, budgets):
        with pytest.raises(BudgetExceeded):
            decide(g, node_budget=budget - 1)
        answers.append(decide(g, node_budget=budget))
    *certs, colouring = answers
    for cert, kind in zip(certs, ("stable", "sprime-violation", "firm")):
        assert cert == (None if cut is None else CutCertificate(*cut, kind))
    if blue is None:
        assert colouring is None
    else:
        assert colouring.edges_of(Colour.BLUE) == blue
