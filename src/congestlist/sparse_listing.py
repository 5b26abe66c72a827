"""Sparsity-aware K_p listing over a complete communication graph.

The same machinery drives two callers: the standalone congested-clique mode
(num_parts = ceil(n^(1/p)), every node simulates itself) and the in-cluster
listing core (num_parts = ceil(k^(1/p)), each of the k cluster nodes
simulates a range of graph nodes).

Nodes are split into num_parts random parts. New IDs in [1..k] map to
p-tuples of parts through the base-num_parts digits of new_id - 1; because
ceil() makes num_parts^p overshoot k, a node stands in for every tuple index
congruent to its own modulo k, so all num_parts^p tuples stay covered. An
edge travels to exactly the nodes whose tuple contains both endpoint parts
(in two distinct digit positions). Every sorted part multiset has one
canonical holder, the first holder of the tuple whose digits are that
multiset in order; it receives every edge among the multiset's parts and
lists exactly the cliques with one node in each of its slots. Each K_p has
one part multiset, so it is listed once, by one holder. Sparse inputs are
padded with tagged fake edges that ride along for load purposes but are
never listed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

import numpy as np

from .config import SimConfig
from .engine import Accounting, BudgetViolation, RoundEngine
from .graphs import CliqueInstance, Edge, Graph, iter_bits
from .graphs import enumerate_cliques  # noqa: F401  (the benchmark trace wraps it)


@dataclass(frozen=True)
class NodePartition:
    num_parts: int
    assignment: tuple[int, ...]
    seed: int

    def part_of(self, node: int) -> int:
        return self.assignment[node]

    def part_sizes(self) -> list[int]:
        sizes = [0] * self.num_parts
        for part in self.assignment:
            sizes[part] += 1
        return sizes


def random_partition(n: int, num_parts: int, seed: int) -> NodePartition:
    """Independently uniform part per node, derived from the seed."""
    if num_parts < 1:
        raise ValueError("num_parts must be >= 1")
    rng = np.random.default_rng(np.random.SeedSequence((seed, 0x9A77)))
    parts = rng.integers(0, num_parts, size=n)
    return NodePartition(num_parts, tuple(int(x) for x in parts), seed)


def tuple_assign(new_id: int, num_parts: int, p: int) -> tuple[int, ...]:
    """Little-endian base-num_parts digits of new_id - 1, padded to p."""
    if new_id < 1:
        raise ValueError("new IDs start at 1")
    x = new_id - 1
    digits = []
    for _ in range(p):
        digits.append(x % num_parts)
        x //= num_parts
    return tuple(digits)


def tuple_holders(total: int, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Which of k holders stand in for which of `total` tuple indices, as
    parallel arrays (tuple index, holder new ID). Tuples are dealt
    round-robin: one holder each when total >= k, and every holder congruent
    to t + 1 modulo total when total < k. Row t (for t < total) names tuple
    t's first holder, its canonical one."""
    row = np.arange(max(total, k))
    return row % total, row % k + 1


def _runs(keys: np.ndarray, values: list) -> dict:
    """{key: tuple of its values} for parallel keys and values in which
    equal keys are adjacent."""
    cuts = [0, *(np.flatnonzero(np.diff(keys)) + 1).tolist(), len(values)]
    firsts = keys[cuts[:-1]].tolist() if values else []
    return {key: tuple(values[a:b]) for key, a, b in zip(firsts, cuts, cuts[1:])}


@dataclass(frozen=True)
class FanoutTable:
    """Precomputed pair-of-parts -> receiving new IDs map for (b, p, k), and
    the sorted part multisets each holder lists canonically."""
    num_parts: int
    p: int
    k: int
    by_pair: dict[tuple[int, int], tuple[int, ...]]
    pairs_by_node: dict[int, tuple[tuple[int, int], ...]]
    owned: dict[int, tuple[tuple[int, ...], ...]]


def build_fanout_table(num_parts: int, p: int, k: int) -> FanoutTable:
    total = num_parts ** p
    span = num_parts * num_parts
    tup, holder = tuple_holders(total, k)
    digits = tup[:, None] // num_parts ** np.arange(p) % num_parts
    # the part pair of every two distinct digit positions, coded lo * b + hi
    first, second = np.triu_indices(p, 1)
    code = (np.minimum(digits[:, first], digits[:, second]) * num_parts
            + np.maximum(digits[:, first], digits[:, second]))
    # one link per distinct (holder, pair), sorted by holder, then by pair
    links = np.unique(np.repeat(holder, len(first)) * span + code.ravel())
    link_holder, link_code = np.divmod(links, span)
    lo, hi = np.divmod(link_code, num_parts)
    by_code = np.lexsort((link_holder, link_code))
    receivers = _runs(link_code[by_code], link_holder[by_code].tolist())
    # a tuple whose little-endian digits never decrease is a sorted multiset
    canonical = np.flatnonzero(np.all(np.diff(digits[:total], axis=1) >= 0, axis=1))
    canonical = canonical[np.argsort(holder[canonical], kind="stable")]
    return FanoutTable(
        num_parts, p, k,
        {divmod(c, num_parts): ids for c, ids in receivers.items()},
        dict.fromkeys(range(1, k + 1), ())
        | _runs(link_holder, list(zip(lo.tolist(), hi.tolist()))),
        _runs(holder[canonical], [tuple(d) for d in digits[canonical].tolist()]),
    )


def delivery_fanout(edge: Edge, partition: NodePartition, num_parts: int, p: int,
                    k: int | None = None,
                    table: FanoutTable | None = None) -> set[int]:
    """New IDs that must receive this edge: every node standing in for a
    tuple that contains both endpoint parts in distinct digit positions."""
    if num_parts != partition.num_parts:
        raise ValueError("num_parts disagrees with the partition")
    k = len(partition.assignment) if k is None else k
    if table is None:
        table = build_fanout_table(num_parts, p, k)
    a = partition.part_of(edge[0])
    b = partition.part_of(edge[1])
    return set(table.by_pair.get((min(a, b), max(a, b)), ()))


# ---------------------------------------------------------------------------
# random-partition concentration check
# ---------------------------------------------------------------------------

@dataclass
class BalanceReport:
    applicable: bool
    reason: str
    counts: dict[tuple[int, ...], int]
    bounds: dict[tuple[int, ...], float]
    violations: list[tuple[tuple[int, ...], int, float]]

    @property
    def ok(self) -> bool:
        return not self.violations

    @property
    def events(self) -> int:
        return len(self.counts)


def check_partition_balance(g: Graph, part: NodePartition) -> BalanceReport:
    """Count edges inside every part and every union of two parts and compare
    with the 6 q^2 m concentration bound (q = sampling probability of the
    set: 1/num_parts for single parts, 2/num_parts for unions)."""
    n, m = g.n, g.m
    b = part.num_parts
    log_n = math.log2(max(2, n))
    q = 1.0 / b
    max_deg = max((g.degree(v) for v in range(n)), default=0)
    applicable = True
    reason = ""
    if m == 0 or q * q * m < 400.0 * log_n ** 2:
        applicable = False
        reason = f"q^2 m = {q * q * m:.1f} < 400 log^2 n = {400 * log_n ** 2:.1f}"
    elif max_deg > m * q / (20.0 * log_n):
        applicable = False
        reason = (f"max degree {max_deg} > mq/(20 log n) = "
                  f"{m * q / (20 * log_n):.1f}")

    cross = np.zeros((b, b), dtype=np.int64)
    for u, v in g.edges:
        pu, pv = part.part_of(u), part.part_of(v)
        cross[min(pu, pv), max(pu, pv)] += 1

    counts: dict[tuple[int, ...], int] = {}
    bounds: dict[tuple[int, ...], float] = {}
    for a in range(b):
        counts[(a,)] = int(cross[a, a])
        bounds[(a,)] = 6.0 * q * q * m
    for a in range(b):
        for c in range(a + 1, b):
            counts[(a, c)] = int(cross[a, a] + cross[c, c] + cross[a, c])
            bounds[(a, c)] = 6.0 * (2.0 * q) ** 2 * m
    violations = [(key, counts[key], bounds[key]) for key in counts
                  if counts[key] > bounds[key]]
    return BalanceReport(applicable, reason, counts, bounds, violations)


# ---------------------------------------------------------------------------
# fake-edge padding
# ---------------------------------------------------------------------------

def fake_edge_target(n: int, m: int, p: int, factor: float) -> int:
    """Edges required so that m / n^(1/p) reaches factor * n * log2 n."""
    if n < 2:
        return 0
    return math.ceil(factor * n * math.log2(n) * n ** (1.0 / p))


def sample_fake_edges(g: Graph, count: int, seed: int) -> list[Edge]:
    """Uniformly random absent pairs; capped at the complete graph."""
    if count <= 0:
        return []
    absent = [(u, v) for u in range(g.n) for v in range(u + 1, g.n)
              if not g.has_edge(u, v)]
    if count >= len(absent):
        return absent
    rng = np.random.default_rng(np.random.SeedSequence((seed, 0xFA4E)))
    picks = rng.choice(len(absent), size=count, replace=False)
    return [absent[i] for i in sorted(picks)]


# ---------------------------------------------------------------------------
# canonical-owner local listing
# ---------------------------------------------------------------------------

def holder_cliques(adj: list[int], part_masks: list[int],
                   multisets: Iterable[tuple[int, ...]]) -> list[CliqueInstance]:
    """The cliques one holder lists: for each sorted part multiset `slots`,
    those with exactly one node per slot, the slot-i node taken from part
    slots[i] and slots naming the same part taking increasing IDs.

    Every clique of `adj` appears at most once: its part multiset and the
    order of its nodes within each part fix its slots.
    """
    out: list[CliqueInstance] = []
    chosen: list[int] = []

    def rec(slots: tuple[int, ...], i: int, common: int, after: int):
        cand = common & part_masks[slots[i]] & ~after
        if i == len(slots) - 1:
            out.extend(tuple(sorted(chosen + [v])) for v in iter_bits(cand))
            return
        same_next = slots[i + 1] == slots[i]
        for v in iter_bits(cand):
            chosen.append(v)
            rec(slots, i + 1, common & adj[v], (2 << v) - 1 if same_next else 0)
            chosen.pop()

    for slots in multisets:
        rec(slots, 0, -1, 0)
    return out


def local_listing(table: FanoutTable, assignment: Sequence[int],
                  received: Callable[[int], Iterable[Edge]]) -> set[CliqueInstance]:
    """Every holder that canonically owns a part multiset builds adjacency
    masks from the edges it received and lists the cliques of its
    multisets; the outputs are disjoint and their union covers every K_p
    whose edges all reached their holders. Charged 0 rounds by the callers.
    """
    n = len(assignment)
    part_masks = [0] * table.num_parts
    for v, part in enumerate(assignment):
        part_masks[part] |= 1 << v
    cliques: set[CliqueInstance] = set()
    for w, multisets in table.owned.items():
        adj = [0] * n
        for u, v in received(w):
            adj[u] |= 1 << v
            adj[v] |= 1 << u
        cliques.update(holder_cliques(adj, part_masks, multisets))
    return cliques


# ---------------------------------------------------------------------------
# the congested-clique listing algorithm
# ---------------------------------------------------------------------------

def cc_list_kp(g: Graph, p: int, seed: int,
               cfg: SimConfig | None = None) -> tuple[set[CliqueInstance], Accounting]:
    """List all K_p of g in the congested-clique model.

    Every node owns its outgoing edges, pads the graph with tagged fake
    edges when too sparse, and ships each edge to the nodes whose part
    tuples contain the edge's endpoint parts. The canonical holder of each
    sorted part multiset then lists the cliques of that multiset from the
    real edges it received, so every K_p is listed exactly once and the
    disjoint union of the per-node outputs equals the brute-force listing.
    """
    if p < 3:
        raise ValueError(f"p must be >= 3, got {p}")
    cfg = cfg or SimConfig()
    engine = RoundEngine(g, cfg, clique_mode=True, seed=seed)
    acc = engine.accounting
    n = g.n
    if n == 0:
        return set(), acc

    num_parts = max(1, math.ceil(n ** (1.0 / p)))
    partition = random_partition(n, num_parts, seed)
    table = build_fanout_table(num_parts, p, n)

    target = fake_edge_target(n, g.m, p, cfg.fake_density_factor)
    fake_edges = sample_fake_edges(g, target - g.m, seed)
    acc.notes["m_real"] = g.m
    acc.notes["m_padded"] = g.m + len(fake_edges)

    # Phase 1: every node announces its own part to everyone (one round).
    if n > 1:
        engine.phase_transfer_counts(
            "partition-broadcast",
            {(u, v): 1 for u in range(n) for v in range(n) if u != v},
            validate=False)
    else:
        engine.charge("partition-broadcast", 0)

    # Phase 2: edge delivery. The owner of each edge's tail queues one
    # message per receiving node; every ordered pair drains its queue at the
    # bandwidth cap, so the phase costs the max queue length.
    pair_groups_real: dict[tuple[int, int], list[Edge]] = {}
    send_matrix = np.zeros((n, n), dtype=np.int64)

    def pair_key(e: Edge) -> tuple[int, int]:
        a, b = partition.part_of(e[0]), partition.part_of(e[1])
        return (min(a, b), max(a, b))

    tails_by_pair: dict[tuple[int, int], list[int]] = {}
    for e in g.sorted_edges:
        pk = pair_key(e)
        pair_groups_real.setdefault(pk, []).append(e)
        tails_by_pair.setdefault(pk, []).append(g.tail(e))
    for e in fake_edges:
        tails_by_pair.setdefault(pair_key(e), []).append(e[0])

    for pk, tails in sorted(tails_by_pair.items()):
        receivers = np.array([w - 1 for w in table.by_pair.get(pk, ())], dtype=np.int64)
        if receivers.size == 0:
            continue
        tail_counts = np.bincount(np.array(tails, dtype=np.int64), minlength=n)
        send_matrix[:, receivers] += tail_counts[:, None]
    np.fill_diagonal(send_matrix, 0)  # an owner keeps its own tuples' edges

    sent_per_node = send_matrix.sum(axis=1)
    recv_per_node = send_matrix.sum(axis=0)
    for u in range(n):
        if sent_per_node[u]:
            acc.sent[u] += int(sent_per_node[u])
        if recv_per_node[u]:
            acc.received[u] += int(recv_per_node[u])
    acc.count_messages("edge-delivery", int(send_matrix.sum()))
    rounds = int(math.ceil(send_matrix.max() / engine.cap)) if send_matrix.size else 0
    engine.charge("edge-delivery", rounds)

    m_padded = g.m + len(fake_edges)
    budget = cfg.receive_budget_factor * p * p * m_padded / (num_parts * num_parts)
    worst = int(recv_per_node.max()) if n else 0
    acc.notes["edge_delivery"] = {
        "max_receive": worst,
        "receive_budget": budget,
        "measured_load_const": (worst * num_parts * num_parts / (p * p * m_padded)
                                if m_padded else 0.0),
    }
    if worst > budget:
        node = int(recv_per_node.argmax())
        acc.record_violation(node, "edge-delivery", budget, worst, "receive-budget")
        raise BudgetViolation(node, "edge-delivery", budget, worst, "receive-budget")

    # Phase 3: canonical-owner local listing over received real edges (fake
    # edges are tagged and never used).
    cliques = local_listing(
        table, partition.assignment,
        lambda w: (e for pk in table.pairs_by_node[w] for e in pair_groups_real.get(pk, ())))
    engine.charge("local-listing", 0)
    return cliques, acc
