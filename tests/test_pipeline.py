import math
from collections import defaultdict
from fractions import Fraction

import pytest

from congestlist import pipeline
from congestlist.config import SimConfig
from congestlist.engine import RoundEngine
from congestlist.graphs import (
    Graph,
    brute_force_list_kp,
    complete,
    decode_cliques,
    degeneracy_orient,
    empty,
    gnp,
    norm_edge,
    planted,
)
from congestlist.pipeline import (
    Exponent,
    arb_list,
    congest_list_k4,
    congest_list_kp,
    iteration_schedule,
    list_round,
    halving_epsilon0,
)


def clique_edges(inst):
    return [norm_edge(a, b) for i, a in enumerate(inst) for b in inst[i + 1:]]


def oracle_of_edges(n, edges, p):
    return brute_force_list_kp(Graph(n, frozenset(edges)), p)


def dumbbell():
    """Two K_16 joined by a matching between eight nodes of each."""
    edges = set()
    for u in range(16):
        for v in range(u + 1, 16):
            edges.add((u, v))
            edges.add((u + 16, v + 16))
    for i in range(8):
        edges.add((i, 16 + i))
    return Graph(32, frozenset(edges))


def fresh_driver(g):
    og, _ = degeneracy_orient(g)
    engine = RoundEngine(og, SimConfig(), seed=0)
    return og, dict(og.orientation), engine


class TestScheduleArithmetic:
    def test_epsilon0_value(self):
        # (1 + log2 log2 n) / log2 n at n = 2^16: (1 + 4) / 16
        assert abs(halving_epsilon0().value(2 ** 16) - 5 / 16) < 1e-12

    def test_coupling_d_minus_delta_is_eps0_exact(self):
        eps0 = halving_epsilon0()
        for n, p in [(2 ** 20, 4), (2 ** 32, 6)]:
            steps = iteration_schedule(n, p, forced_depth=8)
            for step in steps:
                assert step.d - step.delta == eps0  # exact rational identity

    def test_halving_step_d_closed_form(self):
        # with the halving step size, d_k = 1 - k / log2 n
        steps = iteration_schedule(2 ** 30, 6, forced_depth=5)
        for step in steps:
            assert step.d.a == 1 and step.d.b == -step.k and step.d.c == 0

    def test_stop_predicate_large_n(self):
        # at n = 2^64, delta_0 = 1 - 7/64 > 3/4: the schedule really iterates
        steps = iteration_schedule(2 ** 64, 6)
        assert len(steps) >= 2
        target = 6 / 8
        for step in steps:
            assert step.delta.value(2 ** 64) > target

    @pytest.mark.parametrize("p, k4_variant, first", [
        (4, True, 15), (4, False, 22), (5, False, 22), (6, False, 22), (7, False, 26)])
    def test_first_step_over_powers_of_two(self, p, k4_variant, first):
        # over n = 2^k the default schedule is first non-empty at k = first
        nonempty = [k for k in range(1, first + 1)
                    if iteration_schedule(2 ** k, p, k4_variant=k4_variant)]
        assert nonempty == [first]

    @pytest.mark.parametrize("p, k4_variant", [
        (4, True), (4, False), (5, False), (6, False), (7, False), (9, False)])
    def test_schedule_descends_to_the_abstract_exponent(self, p, k4_variant):
        # delta_k falls by exactly 1/log2 n per step while n^(d_k) halves,
        # and the schedule stops on the first delta at or below the
        # abstract's exponent: p/(p+2) for the K_4 variant and for p >= 6,
        # 3/4 for the general schedule at p = 4, 5
        target = p / (p + 2) if k4_variant or p >= 6 else 3 / 4
        for k in (30, 60, 120, 199, 300):
            n = 2 ** k
            steps = iteration_schedule(n, p, k4_variant=k4_variant)
            if not steps:
                continue
            deltas = [s.delta.value(n) for s in steps]
            assert all(a > b for a, b in zip(deltas, deltas[1:]))
            for a, b in zip(steps, steps[1:]):
                assert abs(a.d.n_pow(n) / b.d.n_pow(n) - 2) < 1e-9
            assert 0 < deltas[-1] - target <= 1 / k

    def test_desk_scale_stops_immediately(self):
        assert iteration_schedule(64, 5) == []

    def test_forced_depth_overrides_stop(self):
        steps = iteration_schedule(64, 5, forced_depth=2,
                                   eps0=Exponent.of(Fraction(1, 2)))
        assert len(steps) == 2

    def test_at_most_log_n_steps(self):
        steps = iteration_schedule(2 ** 40, 4, forced_depth=100)
        assert len(steps) <= 40

    def test_npow_matches_value(self):
        e = Exponent.of(Fraction(1, 2), Fraction(-2), Fraction(1))
        for n in (64, 256, 1024):
            assert abs(e.n_pow(n) - n ** e.value(n)) < 1e-6 * e.n_pow(n)

    def test_k4_variant_drops_three_quarters_condition(self):
        # with the 3/4 requirement gone the K_4 schedule keeps iterating
        # after the general p=4 schedule must stop
        n = 2 ** 40
        general = iteration_schedule(n, 4)
        k4 = iteration_schedule(n, 4, k4_variant=True)
        assert len(k4) > len(general)
        assert all(s.delta.value(n) > 2 / 3 for s in k4)


class TestArbList:
    def test_empty_remainder(self):
        g, orient, engine = fresh_driver(gnp(32, 0.3, 1))
        e_s = set(g.edges)
        c = math.ceil(g.max_out_degree() / 32 ** 0.5)
        res = arb_list(g, e_s, set(), 4, 0.5, c, seed=0, d_value=1.0,
                       orient=orient, engine=engine, cfg=SimConfig())
        assert res.hat_em == set() and res.cliques == set()
        assert res.hat_es == e_s and res.hat_er == set()

    def test_rejects_uncertified_sparse_set(self):
        g, orient, engine = fresh_driver(gnp(32, 0.3, 1))
        with pytest.raises(ValueError):
            arb_list(g, set(g.edges), set(), 4, 0.5, 0, seed=0, d_value=1.0,
                     orient=orient, engine=engine, cfg=SimConfig())

    def test_single_clique_remainder_fully_listed(self):
        g, orient, engine = fresh_driver(complete(12))
        res = arb_list(g, set(), set(g.edges), 4, 0.5, 0, seed=0, d_value=1.0,
                       orient=orient, engine=engine, cfg=SimConfig())
        assert res.hat_em == set(g.edges)
        assert len(res.cliques) == 495  # C(12,4)

    @pytest.mark.parametrize("seed", [4, 5])
    def test_set_algebra_soundness(self, seed):
        base = gnp(48, 0.35, seed)
        g, orient, engine = fresh_driver(base)
        p = 4
        oracle = brute_force_list_kp(g, p)
        res = arb_list(g, set(), set(g.edges), p, 0.5, 0, seed=seed,
                       d_value=1.0, orient=orient, engine=engine,
                       cfg=SimConfig())
        assert res.cliques <= oracle
        # every clique with an edge in hat_Em is listed
        must = {inst for inst in oracle
                if any(e in res.hat_em for e in clique_edges(inst))}
        assert must <= res.cliques
        # surviving edges carry the rest
        survivor = res.hat_es | res.hat_er
        assert res.cliques | oracle_of_edges(g.n, survivor, p) == oracle
        # labels partition the input
        assert res.hat_em | survivor == set(g.edges)
        assert not (res.hat_em & res.hat_er) and not (res.hat_em & res.hat_es)

    def test_sparse_cert_grows_one_unit_per_step(self):
        g, orient, engine = fresh_driver(gnp(64, 0.3, 7))
        delta = 0.5
        nd = 64 ** delta
        e_s, e_r = set(), set(g.edges)
        for c in range(3):
            if not e_r:
                break
            res = arb_list(g, e_s, e_r, 4, delta, c, seed=1, d_value=1.0,
                           orient=orient, engine=engine, cfg=SimConfig())
            e_s, e_r = res.hat_es, res.hat_er
            out = {}
            for e in e_s:
                out[orient.get(e, e[0])] = out.get(orient.get(e, e[0]), 0) + 1
            assert max(out.values(), default=0) <= (c + 1) * nd + 1e-9


class TestListRound:
    def test_edgeless_graph(self):
        g, orient, engine = fresh_driver(empty(32))
        res = list_round(g, set(), 4, Exponent.of(1), 0,
                         eps0=halving_epsilon0(), orient=orient, engine=engine,
                         cfg=SimConfig(), force=True)
        assert not res.tilde_em and not res.tilde_es and not res.cliques

    def test_remainder_monotone_and_partition_preserved(self):
        base = gnp(48, 0.3, 3)
        g, orient, engine = fresh_driver(base)
        res = list_round(g, set(g.edges), 4, Exponent.of(1), 0,
                         eps0=Exponent.of(Fraction(1, 2)), orient=orient,
                         engine=engine, cfg=SimConfig(), force=True)
        for a, b in zip(res.er_trace, res.er_trace[1:]):
            assert b < a or a == 0
        assert res.tilde_em | res.tilde_es | res.leftover_er == set(g.edges)

    def test_remainder_quarters_under_default_factors(self):
        # with the default heavy/light factors no node is ever bad at this
        # scale, so the remainder must shrink by at least 4x per inner step
        for n, q, seed in [(48, 0.3, 1), (64, 0.25, 2)]:
            g, orient, engine = fresh_driver(gnp(n, q, seed))
            res = list_round(g, set(g.edges), 4, Exponent.of(1), 0,
                             eps0=Exponent.of(Fraction(1, 2)), orient=orient,
                             engine=engine, cfg=SimConfig(), force=True)
            assert not res.leftover_er
            for before, after in zip(res.er_trace, res.er_trace[1:]):
                assert after <= before / 4.0

    def test_oracle_split_between_listed_and_sparse(self):
        base = gnp(40, 0.35, 8)
        g, orient, engine = fresh_driver(base)
        p = 4
        res = list_round(g, set(g.edges), p, Exponent.of(1), 0,
                         eps0=Exponent.of(Fraction(1, 2)), orient=orient,
                         engine=engine, cfg=SimConfig(), force=True)
        oracle = brute_force_list_kp(g, p)
        survivor = res.tilde_es | res.leftover_er
        assert res.cliques | oracle_of_edges(g.n, survivor, p) == oracle

    def test_precondition_rejected(self):
        g, orient, engine = fresh_driver(gnp(32, 0.3, 1))
        with pytest.raises(ValueError):
            list_round(g, set(g.edges), 4, Exponent.of(Fraction(1, 10)), 0,
                       eps0=halving_epsilon0(), orient=orient, engine=engine,
                       cfg=SimConfig(), force=False)


class TestCongestListKp:
    def test_empty_graph(self):
        report = congest_list_kp(empty(64), 4, seed=0)
        assert report.cliques == []
        assert report.violations == []

    def test_complete_16_k4(self):
        report = congest_list_kp(complete(16), 4, seed=0)
        assert len(report.cliques) == 1820  # C(16,4)

    def test_planted_oracle_equality(self):
        g = planted(96, 6, 2, 0.08, seed=13)
        report = congest_list_kp(g, 6, seed=13)
        assert report.clique_set() == brute_force_list_kp(g, 6)
        assert report.violations == []

    @pytest.mark.parametrize("p", [4, 5])
    def test_oracle_equality_default_schedule(self, p):
        for n, q, seed in [(32, 0.4, 1), (48, 0.3, 2), (64, 0.25, 3)]:
            g = gnp(n, q, seed)
            report = congest_list_kp(g, p, seed=5)
            assert report.clique_set() == brute_force_list_kp(g, p)
            assert report.total_rounds == sum(report.rounds_by_phase.values())
            assert report.violations == []
            assert report.notes["terminal_broadcast"]["within_cap"]

    def test_oracle_equality_forced_depth(self):
        for n, q, seed in [(48, 0.35, 4), (64, 0.3, 5)]:
            g = gnp(n, q, seed)
            report = congest_list_kp(g, 4, seed=7, forced_depth=2,
                                     eps0_fraction=Fraction(1, 2))
            assert report.clique_set() == brute_force_list_kp(g, 4), (n, q)
            assert report.violations == []
            assert report.schedule  # the forced schedule actually ran
            assert any("decompose" in phase for phase in report.rounds_by_phase)

    def test_multi_cluster_pipeline_with_import_traffic(self):
        # three planted K_14s over faint background decompose into parallel
        # clusters ringed by light (and sometimes heavy) outside nodes, so
        # the import, probe, reshuffle, and delivery stages all carry traffic
        cfg = SimConfig(light_factor=0.1)
        for seed in (3, 7):
            g = planted(64, 14, 3, 0.01, seed=seed)
            report = congest_list_kp(g, 4, seed=seed, cfg=cfg, forced_depth=2,
                                     eps0_fraction=Fraction(1, 2))
            assert report.clique_set() == brute_force_list_kp(g, 4)
            assert report.violations == []
            assert len({r["cluster"] for r in report.cluster_reports}) >= 2
            assert sum(r["light"] for r in report.cluster_reports) > 0
            msgs = report.notes["messages_by_phase"]
            assert sum(v for k, v in msgs.items() if "import-light-send" in k) > 0
            assert sum(v for k, v in msgs.items() if "reshuffle" in k) > 0

    def test_leftover_remainder_is_still_listed_exactly(self):
        # two cliques bridged by cross edges; a near-zero light threshold
        # makes every bridge endpoint bad, so their clique edges get
        # deferred forever and the inner loop must stall and hand the
        # leftover to the terminal broadcast
        g = dumbbell()
        # phi_min above the dumbbell's conductance keeps the bridges getting
        # cut, so the bad-node cliques re-form every inner step
        cfg = SimConfig(light_factor=0.01, phi_min=0.2)
        report = congest_list_kp(g, 4, seed=1, cfg=cfg, forced_depth=1,
                                 eps0_fraction=Fraction(1, 2))
        assert report.schedule[0]["leftover"] > 0
        assert "terminal-broadcast" in report.rounds_by_phase
        assert report.clique_set() == brute_force_list_kp(g, 4)

    def test_small_n_uses_fallback(self):
        g = gnp(8, 0.8, 1)  # p=4 > ceil(log2 8) = 3
        report = congest_list_kp(g, 4, seed=0)
        assert "broadcast-fallback" in report.rounds_by_phase
        assert report.clique_set() == brute_force_list_kp(g, 4)

    def test_rejects_p3(self):
        with pytest.raises(ValueError):
            congest_list_kp(complete(8), 3, seed=0)

    def test_determinism(self):
        g = gnp(48, 0.3, 9)
        a = congest_list_kp(g, 4, seed=3, forced_depth=1,
                            eps0_fraction=Fraction(1, 2))
        b = congest_list_kp(g, 4, seed=3, forced_depth=1,
                            eps0_fraction=Fraction(1, 2))
        assert a.to_json() == b.to_json()


class TestCongestListK4:
    def test_k4_itself(self):
        report = congest_list_k4(complete(4), seed=0)
        assert report.cliques == [(0, 1, 2, 3)]

    def test_bipartite_graph_empty(self):
        edges = frozenset((u, v) for u in range(8) for v in range(8, 16))
        g = Graph(16, edges)
        report = congest_list_k4(g, seed=0)
        assert report.cliques == []

    def test_oracle_equality(self):
        g = gnp(80, 0.3, 17)
        report = congest_list_k4(g, seed=17)
        assert report.clique_set() == brute_force_list_kp(g, 4)
        assert report.violations == []

    def test_forced_depth_exercises_light_listing(self):
        g = gnp(64, 0.35, 11)
        report = congest_list_k4(g, seed=2, forced_depth=2,
                                 eps0_fraction=Fraction(1, 2))
        assert report.clique_set() == brute_force_list_kp(g, 4)
        assert report.violations == []
        # the variant must never defer cluster edges
        assert all(rep["bad_edges"] == 0 for rep in report.cluster_reports)

    def test_multi_cluster_variant_with_heavy_and_light_paths(self):
        # several parallel clusters: heavy-heavy outside edges go through the
        # cluster listing, light-touching ones through the light nodes
        cfg = SimConfig(light_factor=0.1)
        for q, seed in [(0.01, 3), (0.02, 7), (0.03, 7)]:
            g = planted(64, 14, 3, q, seed=seed)
            report = congest_list_k4(g, seed=seed, cfg=cfg, forced_depth=2,
                                     eps0_fraction=Fraction(1, 2))
            assert report.clique_set() == brute_force_list_kp(g, 4), (q, seed)
            assert report.violations == []
            assert len({r["cluster"] for r in report.cluster_reports}) >= 2

    def test_light_listing_phase_charged_when_clusters_exist(self):
        g = gnp(64, 0.4, 21)
        report = congest_list_k4(g, seed=2, forced_depth=1,
                                 eps0_fraction=Fraction(1, 2))
        if report.cluster_reports:
            assert any("k4-light" in phase for phase in report.rounds_by_phase)


class TestReportShape:
    def test_json_round_trip_and_schema(self):
        import json

        g = gnp(32, 0.4, 2)
        report = congest_list_kp(g, 4, seed=1)
        data = json.loads(json.dumps(report.to_json(), indent=2, sort_keys=True))
        assert data["schema"] == 2
        assert data["clique_count"] == len(report.cliques)
        assert decode_cliques(data["cliques"]) == report.cliques
        assert data["total_rounds"] == sum(data["rounds_by_phase"].values())


# ---------------------------------------------------------------------------
# the flood: exactly-once listing from each node's own view
# ---------------------------------------------------------------------------

# bridge endpoints turn bad and the inner loop stalls, so a forced-depth run
# hands a leftover to the terminal broadcast (see the dumbbell test above)
STALLING = SimConfig(light_factor=0.01, phi_min=0.2)
HALF = Fraction(1, 2)

# (graph, p, driver keyword arguments, the flood's phase)
FLOOD_CASES = {
    "kp-default": (lambda: gnp(48, 0.3, 7), 4, {"seed": 3}, "terminal-broadcast"),
    "k4-default": (lambda: gnp(40, 0.35, 3), 4, {"seed": 6}, "terminal-broadcast"),
    "kp-leftover": (dumbbell, 4, {"seed": 1, "cfg": STALLING, "forced_depth": 1,
                                  "eps0_fraction": HALF}, "terminal-broadcast"),
    "k4-leftover": (dumbbell, 4, {"seed": 1, "cfg": STALLING, "forced_depth": 1,
                                  "eps0_fraction": HALF}, "terminal-broadcast"),
    "kp-fallback": (lambda: gnp(16, 0.7, 3), 5, {"seed": 2}, "broadcast-fallback"),
    "k4-fallback": (lambda: gnp(8, 0.8, 1), 4, {"seed": 0}, "broadcast-fallback"),
}


def run_case(name):
    make, p, kwargs, phase = FLOOD_CASES[name]
    g = make()
    if name.startswith("k4"):
        return g, p, congest_list_k4(g, **kwargs), phase
    return g, p, congest_list_kp(g, p, **kwargs), phase


@pytest.fixture
def flood_log(monkeypatch):
    """One record per flood of the run: its phase, the edges it flooded and
    their orientation at that moment, the (sender, receiver) message counts
    it charged, and the (node, cliques) of every per-node listing call."""
    log = []
    flood, charge, kernel = (pipeline._flood_and_list,
                             RoundEngine.phase_transfer_counts,
                             pipeline.rooted_cliques)

    def logged_flood(engine, edges, orient, p, phase):
        log.append({"phase": phase, "edges": set(edges), "orient": dict(orient),
                    "counts": None, "listed": []})
        return flood(engine, edges, orient, p, phase)

    def logged_charge(self, phase, counts, *args, **kwargs):
        if log and log[-1]["phase"] == phase and log[-1]["counts"] is None:
            log[-1]["counts"] = dict(counts)
        return charge(self, phase, counts, *args, **kwargs)

    def logged_kernel(adj, p, v):
        out = kernel(adj, p, v)
        log[-1]["listed"].append((v, out))
        return out

    monkeypatch.setattr(pipeline, "_flood_and_list", logged_flood)
    monkeypatch.setattr(RoundEngine, "phase_transfer_counts", logged_charge)
    monkeypatch.setattr(pipeline, "rooted_cliques", logged_kernel)
    return log


def flood_inboxes(flood) -> dict[int, set]:
    """Every node's edges after the flood: its own incident edges plus the
    out-edges each neighbour sent it, rebuilt from the charged messages."""
    out_edges = defaultdict(set)
    inbox = defaultdict(set)
    for e in flood["edges"]:
        out_edges[flood["orient"].get(e, e[0])].add(e)
        inbox[e[0]].add(e)
        inbox[e[1]].add(e)
    expected = {(u, w) for u in out_edges for e in flood["edges"] if u in e
                for w in e if w != u}
    assert set(flood["counts"]) == expected
    for (u, w), sent in flood["counts"].items():
        assert sent == len(out_edges[u])
        inbox[w] |= out_edges[u]
    return inbox


class TestFloodListing:
    @pytest.mark.parametrize("name", sorted(FLOOD_CASES))
    def test_every_clique_listed_once(self, name, flood_output_sizes, flood_log):
        g, p, report, phase = run_case(name)
        oracle = brute_force_list_kp(g, p)
        assert report.clique_set() == oracle
        (flood,) = flood_log
        assert flood["phase"] == phase
        flooded = brute_force_list_kp(Graph(g.n, frozenset(flood["edges"])), p)
        assert sum(flood_output_sizes) == len(flooded)
        if "leftover" in name:
            # the forced schedule ran and left edges to the terminal flood
            assert report.schedule and flood["edges"]
            if name == "kp-leftover":
                assert 0 < sum(flood_output_sizes) < len(report.cliques)
        else:
            # the flood is the run's only lister
            assert sum(flood_output_sizes) == len(report.cliques) == len(oracle)

    @pytest.mark.parametrize("name", ["kp-default", "k4-default", "kp-fallback",
                                      "kp-leftover"])
    def test_lister_holds_every_clique_edge(self, name, flood_log):
        run_case(name)
        for flood in flood_log:
            inbox = flood_inboxes(flood)
            for v, cliques in flood["listed"]:
                for c in cliques:
                    assert c[0] == v == min(c)
                    assert set(clique_edges(c)) <= inbox[v], (v, c)

    def test_view_holds_under_a_rewritten_orientation(self, flood_log):
        # the decomposition's S orientation overwrites the degeneracy one on
        # some flooded edges before the terminal broadcast
        g = planted(48, 8, 3, 0.05, seed=2)
        report = congest_list_kp(g, 4, seed=2, cfg=STALLING, forced_depth=2,
                                 eps0_fraction=HALF)
        assert report.clique_set() == brute_force_list_kp(g, 4)
        (flood,) = flood_log
        initial = degeneracy_orient(g)[0].orientation
        assert any(flood["orient"][e] != initial[e] for e in flood["edges"])
        inbox = flood_inboxes(flood)
        listed = [c for v, cliques in flood["listed"] for c in cliques
                  if c[0] == v and set(clique_edges(c)) <= inbox[v]]
        flooded = brute_force_list_kp(Graph(g.n, frozenset(flood["edges"])), 4)
        assert flooded and sorted(listed) == sorted(flooded)
