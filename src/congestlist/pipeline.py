"""Nested iteration schedules for K_p listing in the CONGEST model.

The outer loop drives the graph's certified out-degree (the arboricity
surrogate) down by half per step; each step calls the inner loop, which
repeatedly decomposes the current remainder edges, runs the per-cluster
listing stage on the clusters, quarters the remainder, and accumulates the
sparse part. A terminal broadcast handles whatever survives the schedule.

Exponents are carried exactly as a + (b + c*log2(log2 n)) / log2 n with
rational coefficients, so schedule identities (d_k - delta_k = eps0) hold
with no floating drift across iterations.
"""

from __future__ import annotations

import math
from collections import defaultdict
from dataclasses import dataclass
from fractions import Fraction

from .cluster_pipeline import (
    GoalEdgeSet,
    PhaseAggregator,
    classify,
    cluster_list_kp,
    import_outside_edges,
    k4_light_listing,
    knowledge_universe,
    mark_bad_edges,
    reshuffle,
)
from .config import SimConfig, ceil_log2
from .decomposition import expander_decompose
from .engine import ClusterChannel, RoundEngine, assign_cluster_ids
from .graphs import (
    CliqueInstance,
    Edge,
    Graph,
    clique_fields,
    degeneracy_orient,
    iter_bits,
    rooted_cliques,
)
from .graphs import cliques_with_node  # noqa: F401  (the benchmark trace wraps it)

# ---------------------------------------------------------------------------
# exact exponent arithmetic
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Exponent:
    """value = a + (b + c * log2(log2 n)) / log2 n, with exact coefficients."""
    a: Fraction
    b: Fraction
    c: Fraction

    @staticmethod
    def of(a=0, b=0, c=0) -> "Exponent":
        return Exponent(Fraction(a), Fraction(b), Fraction(c))

    def __add__(self, other: "Exponent") -> "Exponent":
        return Exponent(self.a + other.a, self.b + other.b, self.c + other.c)

    def __sub__(self, other: "Exponent") -> "Exponent":
        return Exponent(self.a - other.a, self.b - other.b, self.c - other.c)

    def scale(self, factor) -> "Exponent":
        f = Fraction(factor)
        return Exponent(self.a * f, self.b * f, self.c * f)

    def value(self, n: int) -> float:
        log_n = math.log2(max(2, n))
        llog = math.log2(log_n) if log_n > 1 else 0.0
        return float(self.a) + (float(self.b) + float(self.c) * llog) / log_n

    def n_pow(self, n: int) -> float:
        # n^(b / log2 n) = 2^b and n^(c llog / log2 n) = (log2 n)^c
        log_n = math.log2(max(2, n))
        return (max(2, n) ** float(self.a)) * (2.0 ** float(self.b)) * (log_n ** float(self.c))

    def __str__(self):
        return f"{self.a} + ({self.b} + {self.c}*llog)/log"


ONE = Exponent.of(1)
LLOG_OVER_LOG = Exponent.of(0, 0, 1)  # log2(log2 n) / log2 n


def halving_epsilon0() -> Exponent:
    """(1 + log2 log2 n) / log2 n: the step size that halves the certified
    out-degree bound every outer round (n^(d - eps0) = n^d / (2 log2 n))."""
    return Exponent.of(0, 1, 1)


@dataclass(frozen=True)
class ScheduleStep:
    k: int
    epsilon: Exponent
    delta: Exponent
    d: Exponent


def iteration_schedule(n: int, p: int, *, k4_variant: bool = False,
                       eps0: Exponent | None = None,
                       forced_depth: int | None = None) -> list[ScheduleStep]:
    """Outer-loop exponents; stops when delta crosses the listing threshold
    (p/(p+2), and 3/4 unless the K_4 variant drops that condition) or after
    log2 n steps. forced_depth overrides the stop predicate for tests at
    small n, where the asymptotic schedule halts immediately."""
    eps0 = eps0 or halving_epsilon0()
    cap = ceil_log2(n)
    max_steps = min(forced_depth, cap) if forced_depth is not None else cap
    target = Fraction(p, p + 2)
    steps: list[ScheduleStep] = []
    for k in range(max_steps):
        eps_k = eps0.scale(k + 1) - LLOG_OVER_LOG.scale(k)
        delta_k = ONE - eps_k
        d_k = delta_k + eps0
        dv = delta_k.value(n)
        if forced_depth is None:
            if dv <= float(target) or (not k4_variant and dv <= 0.75):
                break
        else:
            if dv <= 0.05:
                break
        steps.append(ScheduleStep(k, eps_k, delta_k, d_k))
    return steps


# ---------------------------------------------------------------------------
# ARB-LIST: one decomposition + cluster-listing pass over the remainder
# ---------------------------------------------------------------------------


@dataclass
class ArbListResult:
    hat_em: set[Edge]
    hat_es: set[Edge]
    hat_er: set[Edge]
    cliques: set[CliqueInstance]
    cluster_reports: list[dict]


def arb_list(g: Graph, e_s: set[Edge], e_r: set[Edge], p: int,
             delta: float, c: int, seed: int, *,
             d_value: float,
             orient: dict[Edge, int],
             engine: RoundEngine,
             cfg: SimConfig,
             k4_variant: bool = False,
             phase_prefix: str = "") -> ArbListResult:
    """Split E_s u E_r into (hat_Em listed, hat_Es sparse, hat_Er deferred).

    Decomposes (V, E_r), extends the sparse set by the decomposition's S
    edges (out-degree grows by one n^delta unit), relabels bad cluster edges
    into the remainder (skipped in the K_4 variant), imports outside edges
    into each cluster, reshuffles, and runs the in-cluster listing core.
    """
    n = g.n
    acc = engine.accounting
    s_out: dict[int, int] = defaultdict(int)
    for e in e_s:
        s_out[orient.get(e, e[0])] += 1
    worst_s = max(s_out.values(), default=0)
    if worst_s > c * float(n) ** delta + 1e-9:
        raise ValueError(
            f"sparse set out-degree {worst_s} exceeds the certified "
            f"{c} * n^delta = {c * float(n) ** delta:.1f}")
    current = Graph(n, frozenset(e_s | e_r),
                    {e: t for e, t in orient.items() if e in e_s or e in e_r})
    part = expander_decompose(current, delta, cfg, edges=e_r,
                              accounting=acc, phase=phase_prefix + "decompose")
    for e, tail in part.s_orientation.items():
        orient[e] = tail
    hat_es = set(e_s) | part.s_edges
    hat_er = set(part.r_edges)
    hat_em: set[Edge] = set()
    cliques: set[CliqueInstance] = set()
    reports: list[dict] = []

    if k4_variant:
        heavy_threshold = float(n) ** (d_value - 1.0 / 3.0)
    else:
        heavy_threshold = cfg.heavy_factor * float(n) ** 0.25
    light_threshold = cfg.light_factor * math.sqrt(n) * math.log2(max(2, n))

    agg = PhaseAggregator(engine, phase_prefix)
    staged = []
    member_sets = []
    for cluster in part.clusters:
        cls = classify(cluster, current, heavy_threshold, light_threshold, agg=agg)
        m_edges = {e for e in part.m_edges
                   if e[0] in cluster.members and e[1] in cluster.members}
        if k4_variant:  # this variant never defers cluster edges
            goal_set = GoalEdgeSet(goal=frozenset(m_edges), bad_edges=frozenset())
        else:
            goal_set = mark_bad_edges(cluster, cls, m_edges)
        hat_er |= set(goal_set.bad_edges)
        hat_em |= set(goal_set.goal)
        learned = import_outside_edges(
            cluster, cls, current, cfg, d_value, agg=agg, accounting=acc,
            include_light_probes=not k4_variant,
            phase=phase_prefix + "import")
        staged.append((cluster, cls, goal_set, learned))
        member_sets.append(cluster.members)
    agg.flush()

    if member_sets:
        new_ids_list = assign_cluster_ids(member_sets, n, accounting=acc,
                                          phase=phase_prefix + "assign-ids")
    else:
        new_ids_list = []

    reshuffle_max = 0
    bc_max = 0
    deliver_max = 0
    for (cluster, cls, goal_set, learned), new_ids in zip(staged, new_ids_list):
        channel = ClusterChannel.for_cluster(cluster.members, n, delta, cfg)
        know = knowledge_universe(cluster, current, learned)
        _, owned, rs_rounds = reshuffle(
            cluster, new_ids, know, current, cfg, d_value,
            channel=channel, accounting=acc,
            phase=phase_prefix + "reshuffle", charge_rounds=False)
        got, sub_rounds = cluster_list_kp(
            cluster, new_ids, owned, p, seed, cfg, current,
            channel=channel, accounting=acc,
            phase=phase_prefix + "cluster-list", charge_rounds=False)
        cliques |= got
        reshuffle_max = max(reshuffle_max, rs_rounds)
        bc_max = max(bc_max, sub_rounds["partition-broadcast"])
        deliver_max = max(deliver_max, sub_rounds["deliver"])
        reports.append({
            "cluster": cluster.id,
            "k": len(cluster.members),
            "heavy": len(cls.heavy),
            "light": len(cls.light),
            "bad": len(cls.bad),
            "goal_edges": len(goal_set.goal),
            "bad_edges": len(goal_set.bad_edges),
            "learned_histogram": {str(u): learned.count(u)
                                  for u in sorted(cluster.members)},
            "conductance_estimate": cluster.conductance_estimate,
            "rounds_by_phase": {
                "reshuffle": rs_rounds,
                "partition-broadcast": sub_rounds["partition-broadcast"],
                "deliver": sub_rounds["deliver"],
            },
        })
    acc.charge(phase_prefix + "reshuffle", reshuffle_max)
    acc.charge(phase_prefix + "cluster-list/partition-broadcast", bc_max)
    acc.charge(phase_prefix + "cluster-list/deliver", deliver_max)

    if k4_variant:
        # light nodes list the instances whose outside edge touches a light
        # node; clusters handled sequentially, so charges under the shared
        # label add up
        for cluster, cls, _goal, _learned in staged:
            cliques |= k4_light_listing(cluster, cls, current, engine,
                                        phase=phase_prefix + "k4-light")

    return ArbListResult(hat_em, hat_es, hat_er, cliques, reports)


# ---------------------------------------------------------------------------
# LIST: quarter the remainder until it vanishes
# ---------------------------------------------------------------------------


@dataclass
class ListRoundResult:
    tilde_em: set[Edge]
    tilde_es: set[Edge]
    leftover_er: set[Edge]
    cliques: set[CliqueInstance]
    er_trace: list[int]
    cluster_reports: list[dict]


def list_round(g: Graph, edges: set[Edge], p: int, d: Exponent, seed: int, *,
               eps0: Exponent,
               orient: dict[Edge, int],
               engine: RoundEngine,
               cfg: SimConfig,
               k4_variant: bool = False,
               force: bool = False,
               phase_prefix: str = "") -> ListRoundResult:
    """One outer step: iterate arb_list with growing sparse budget c until
    the remainder empties (at most log2 n inner steps).

    Under the asymptotic constants the remainder quarters each inner step
    and the leftover is always empty; with scaled test constants a non-empty
    leftover is handed back to the caller, whose terminal broadcast covers
    it, so listing stays exact either way.
    """
    n = g.n
    delta = d - eps0
    dv, deltav = d.value(n), delta.value(n)
    if not force:
        out_deg = defaultdict(int)
        for e in edges:
            out_deg[orient.get(e, e[0])] += 1
        worst = max(out_deg.values(), default=0)
        if worst > d.n_pow(n) + 1e-9:
            raise ValueError(
                f"certified out-degree {worst} exceeds n^d = {d.n_pow(n):.1f}")
        if deltav <= p / (p + 2):
            raise ValueError(
                f"delta = {deltav:.3f} <= p/(p+2); the schedule must stop here")
    e_s: set[Edge] = set()
    e_r = set(edges)
    cliques: set[CliqueInstance] = set()
    tilde_em: set[Edge] = set()
    er_trace = [len(e_r)]
    reports: list[dict] = []
    for c in range(ceil_log2(n)):
        if not e_r:
            break
        res = arb_list(g, e_s, e_r, p, deltav, c, seed, d_value=dv,
                       orient=orient, engine=engine, cfg=cfg,
                       k4_variant=k4_variant,
                       phase_prefix=f"{phase_prefix}i{c}/")
        stalled = len(res.hat_er) >= len(e_r)
        cliques |= res.cliques
        tilde_em |= res.hat_em
        e_s, e_r = res.hat_es, res.hat_er
        er_trace.append(len(e_r))
        reports.extend(res.cluster_reports)
        if stalled:
            # scaled thresholds recycled every deferred edge; stop here and
            # let the caller's terminal broadcast cover the leftover
            break
    return ListRoundResult(tilde_em, e_s, e_r, cliques, er_trace, reports)


# ---------------------------------------------------------------------------
# top-level drivers
# ---------------------------------------------------------------------------

# the version of every report the CLI emits; cliques are encoded since 2
REPORT_SCHEMA = 2


@dataclass
class RunReport:
    mode: str
    n: int
    p: int
    seed: int
    cliques: list[CliqueInstance]
    rounds_by_phase: dict[str, int]
    total_rounds: int
    edge_counts: list[dict]
    schedule: list[dict]
    violations: list[dict]
    cluster_reports: list[dict]
    notes: dict
    config: dict

    def clique_set(self) -> set[CliqueInstance]:
        return set(self.cliques)

    def to_json(self) -> dict:
        return {
            "schema": REPORT_SCHEMA,
            "mode": self.mode,
            "n": self.n,
            "p": self.p,
            "seed": self.seed,
            **clique_fields(self.cliques),
            "rounds_by_phase": dict(self.rounds_by_phase),
            "total_rounds": self.total_rounds,
            "edge_counts": self.edge_counts,
            "schedule": self.schedule,
            "violations": self.violations,
            "cluster_reports": self.cluster_reports,
            "notes": self.notes,
            "config": self.config,
        }


def _flood_and_list(engine: RoundEngine, edges: set[Edge],
                    orient: dict[Edge, int], p: int, phase: str,
                    ) -> tuple[set[CliqueInstance], int]:
    """Every node floods its outgoing edges to all current neighbors, then
    lists the cliques whose smallest member it is.

    Node v searches candidates among its neighbours above v
    (`rooted_cliques`), so it reads only its own edges and edges between two
    of its neighbours. The tail of such an edge is a neighbour of v, which
    floods the edge to v; listing from one shared mask table of the flooded
    edges therefore equals listing from each node's own flood view. That
    holds under any `orient`, acyclic or not, which matters because
    forced-depth runs rewrite it with the decomposition's S orientation
    before the terminal broadcast. Owners follow node IDs, not the
    orientation: each K_p has one smallest member, so it is listed exactly
    once.
    """
    n = engine.n
    masks = [0] * n
    out_degree: dict[int, int] = defaultdict(int)
    for e in edges:
        a, b = e
        masks[a] |= 1 << b
        masks[b] |= 1 << a
        out_degree[orient.get(e, a)] += 1
    counts = {(u, w): sent for u, sent in out_degree.items()
              for w in iter_bits(masks[u])}
    rounds = engine.phase_transfer_counts(phase, counts)
    cliques: set[CliqueInstance] = set()
    for v in range(n):
        if masks[v]:
            cliques.update(rooted_cliques(masks, p, v))
    return cliques, rounds


def _run_congest(g: Graph, p: int, seed: int, cfg: SimConfig, *,
                 mode: str,
                 k4_variant: bool,
                 forced_depth: int | None = None,
                 eps0_fraction: Fraction | None = None) -> RunReport:
    if p < 4:
        raise ValueError("the CONGEST schedules need p >= 4; use cc mode for K_3")
    og, cert = degeneracy_orient(g)
    n = g.n
    engine = RoundEngine(og, cfg, seed=seed)
    acc = engine.accounting
    orient: dict[Edge, int] = dict(og.orientation or {})
    eps0 = Exponent.of(eps0_fraction) if eps0_fraction is not None else halving_epsilon0()

    listed: set[CliqueInstance] = set()
    survivors = set(g.edges)
    edge_counts = [{"stage": "input", "edges": len(survivors)}]
    schedule_trace = []
    cluster_reports: list[dict] = []
    notes: dict = {"degeneracy": cert.max_out_degree}

    if p > ceil_log2(max(2, n)):
        # listing is near-linear anyway: flood whole neighborhoods once
        cliques, _ = _flood_and_list(engine, survivors, orient, p,
                                     "broadcast-fallback")
        listed |= cliques
        survivors = set()
        notes["fallback"] = "p exceeds log2 n; single flood"
    else:
        steps = iteration_schedule(n, p, k4_variant=k4_variant, eps0=eps0,
                                   forced_depth=forced_depth)
        for step in steps:
            if not survivors:
                break
            res = list_round(
                g, survivors, p, step.d, seed,
                eps0=eps0, orient=orient, engine=engine, cfg=cfg,
                k4_variant=k4_variant, force=forced_depth is not None,
                phase_prefix=f"o{step.k}/")
            listed |= res.cliques
            survivors = set(res.tilde_es) | set(res.leftover_er)
            cluster_reports.extend(res.cluster_reports)
            schedule_trace.append({
                "k": step.k,
                "d": step.d.value(n),
                "delta": step.delta.value(n),
                "epsilon": step.epsilon.value(n),
                "er_trace": res.er_trace,
                "leftover": len(res.leftover_er),
            })
            edge_counts.append({"stage": f"after-o{step.k}",
                                "edges": len(survivors)})

    if survivors:
        cliques, rounds = _flood_and_list(engine, survivors, orient, p,
                                          "terminal-broadcast")
        listed |= cliques
        d_term = schedule_trace[-1]["d"] if schedule_trace else 1.0
        cap = cfg.broadcast_cap * float(n) ** d_term
        notes["terminal_broadcast"] = {"rounds": rounds, "cap": cap,
                                       "within_cap": rounds <= cap}
    edge_counts.append({"stage": "final", "edges": 0})
    notes["max_sent"] = max(acc.sent.values(), default=0)
    notes["max_received"] = max(acc.received.values(), default=0)
    notes["messages_by_phase"] = dict(acc.messages_by_phase)

    return RunReport(
        mode=mode, n=n, p=p, seed=seed,
        cliques=sorted(listed),
        rounds_by_phase=dict(acc.rounds_by_phase),
        total_rounds=acc.total_rounds(),
        edge_counts=edge_counts,
        schedule=schedule_trace,
        violations=list(acc.violations),
        cluster_reports=cluster_reports,
        notes=notes,
        config=_config_echo(cfg, seed=seed, forced_depth=forced_depth,
                            eps0=eps0_fraction),
    )


def congest_list_kp(g: Graph, p: int, seed: int, cfg: SimConfig | None = None,
                    forced_depth: int | None = None,
                    eps0_fraction: Fraction | None = None) -> RunReport:
    """K_p listing in the CONGEST model (p >= 4): arboricity-halving outer
    schedule, remainder-quartering inner schedule, terminal broadcast."""
    return _run_congest(g, p, seed, cfg or SimConfig(), mode="congest",
                        k4_variant=False, forced_depth=forced_depth,
                        eps0_fraction=eps0_fraction)


def congest_list_k4(g: Graph, seed: int, cfg: SimConfig | None = None,
                    forced_depth: int | None = None,
                    eps0_fraction: Fraction | None = None) -> RunReport:
    """The K_4 variant: no bad-edge deferral, heavy threshold n^(d - 1/3),
    and per-cluster sequential light-node listing instead of light probes."""
    return _run_congest(g, 4, seed, cfg or SimConfig(), mode="congest-k4",
                        k4_variant=True, forced_depth=forced_depth,
                        eps0_fraction=eps0_fraction)


def _config_echo(cfg: SimConfig, **extra) -> dict:
    import dataclasses

    echo = dataclasses.asdict(cfg)
    for key, value in extra.items():
        echo[key] = None if value is None else (
            str(value) if isinstance(value, Fraction) else value)
    return echo
