"""Sparsity-aware K_p listing by tuple delivery, over k holders that talk
as a complete graph.

One core, `list_by_tuples`, is written once and drives two callers: the
standalone congested-clique mode (`cc_list_kp`: k = n, every node is the
holder of itself) and the in-cluster listing step (`cluster_list_kp` in
`cluster_pipeline`: k cluster nodes, each simulating a range of graph nodes).
The callers keep what differs: the partition seed, fake-edge padding, how a
phase is charged, and the budget policy.

The core splits the n graph nodes into num_parts = ceil(k^(1/p)) random
parts. Holder i in [0, k) (new ID i + 1) maps to the p-tuple of parts
given by the base-num_parts digits of i; because ceil() makes num_parts^p
overshoot k, a holder stands in for every tuple index congruent to its own
modulo k, so all num_parts^p tuples stay covered. An edge travels to exactly
the holders whose tuple contains both endpoint parts (in two distinct digit
positions). Every sorted part multiset has one canonical holder, the first
holder of the tuple whose digits are that multiset in order; it receives
every edge among the multiset's parts and lists exactly the cliques with one
node in each of its slots. Each K_p has one part multiset, so it is listed
once, by one holder. Padding edges (the congested clique's tagged fake
edges) add delivery load but are never listed.
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


# the tag that derives the congested clique's node parts from its run seed
PARTITION_TAG = 0x9A77


def random_partition(n: int, num_parts: int, seed: int) -> NodePartition:
    """Independently uniform part per node, derived from the seed; the parts
    that cc_list_kp draws for the same (n, num_parts, seed)."""
    if num_parts < 1:
        raise ValueError("num_parts must be >= 1")
    rng = np.random.default_rng(np.random.SeedSequence((seed, PARTITION_TAG)))
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
    parallel arrays (tuple index, holder index in [0, k)). Tuples are dealt
    round-robin: one holder each when total >= k, and every holder congruent
    to t modulo total when total < k. Row t (for t < total) names tuple t's
    first holder, its canonical one."""
    row = np.arange(max(total, k))
    return row % total, row % k


@dataclass(frozen=True)
class FanoutTable:
    """The tuple delivery of (num_parts, p, k): one (holder index, pair
    code lo * num_parts + hi) link per pair a holder receives, sorted by
    holder, then by code; and each sorted part multiset as a row of the
    (count, p) `multisets`, with its canonical holder in `owner`, sorted
    stably by owner."""
    num_parts: int
    p: int
    k: int
    link_holder: np.ndarray
    link_code: np.ndarray
    owner: np.ndarray
    multisets: np.ndarray


def build_fanout_table(num_parts: int, p: int, k: int) -> FanoutTable:
    total = num_parts ** p
    span = num_parts * num_parts
    tup, holder = tuple_holders(total, k)
    digits = tup[:, None] // num_parts ** np.arange(p) % num_parts
    # the part pair of every two distinct digit positions
    first, second = np.triu_indices(p, 1)
    code = (np.minimum(digits[:, first], digits[:, second]) * num_parts
            + np.maximum(digits[:, first], digits[:, second]))
    # one link per distinct (holder, pair); a sort and an adjacent-difference
    # mask, since the hash-based np.unique is far slower on these sizes
    links = np.sort(np.repeat(holder, len(first)) * span + code.ravel())
    links = links[np.diff(links, prepend=-1) != 0]
    # a tuple whose little-endian digits never decrease is a sorted multiset
    canonical = np.flatnonzero(np.all(np.diff(digits[:total], axis=1) >= 0, axis=1))
    canonical = canonical[np.argsort(holder[canonical], kind="stable")]
    return FanoutTable(num_parts, p, k, *np.divmod(links, span),
                       holder[canonical], digits[canonical])


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
    # the owner column is sorted, so each canonical holder's rows are one block
    cuts = np.flatnonzero(np.diff(table.owner)) + 1
    holders = table.owner[np.r_[0, cuts]].tolist()
    for w, multisets in zip(holders, np.split(table.multisets, cuts)):
        adj = [0] * n
        for u, v in received(w):
            adj[u] |= 1 << v
            adj[v] |= 1 << u
        cliques.update(holder_cliques(adj, part_masks, multisets.tolist()))
    return cliques


# ---------------------------------------------------------------------------
# the listing core: random parts, tuple delivery, canonical listing
# ---------------------------------------------------------------------------

def list_by_tuples(n: int, k: int, p: int, rng_seed: np.random.SeedSequence,
                   sent: Sequence[tuple[int, Edge]],
                   padding: Sequence[tuple[int, Edge]] = (),
                   ) -> tuple[set[CliqueInstance], np.ndarray, int]:
    """Run the listing core over k holders and the graph nodes 0..n-1.

    The n nodes get independent uniform parts among num_parts =
    ceil(k^(1/p)), drawn from `rng_seed`. `sent` and `padding` hold
    (sender, edge) items, a sender being a holder index in [0, k), that is,
    its new ID - 1. Each item goes to every holder whose tuple contains both
    endpoint parts of its edge. Returns (cliques, counts, num_parts):
    - the cliques that the canonical holders list from the real edges they
      received, every K_p among those edges exactly once;
    - the k x k delivery counts, rows the senders and columns the
      receivers; the diagonal counts the items a holder keeps for itself,
      and padding items add to the counts only.
    Nothing is charged here: the callers turn the counts into rounds and
    budget checks.
    """
    num_parts = max(1, math.ceil(k ** (1.0 / p)))
    part = np.random.default_rng(rng_seed).integers(0, num_parts, size=n)
    table = build_fanout_table(num_parts, p, k)

    # the part pair of every item, coded as in the table
    items = [*sent, *padding]
    senders = np.fromiter((s for s, _ in items), np.int64, len(items))
    ends = np.array([e for _, e in items], dtype=np.int64).reshape(-1, 2)
    a, b = part[ends[:, 0]], part[ends[:, 1]]
    codes = np.minimum(a, b) * num_parts + np.maximum(a, b)
    # items per (sender, pair), fanned out to the receivers of each pair
    span = num_parts * num_parts
    load = np.bincount(senders * span + codes, minlength=k * span).reshape(k, span)
    receives = np.zeros((span, k), dtype=np.int64)
    receives[table.link_code, table.link_holder] = 1
    counts = load @ receives

    real_by_code: dict[int, list[Edge]] = {}
    for (_, e), code in zip(sent, codes[:len(sent)].tolist()):
        real_by_code.setdefault(code, []).append(e)
    # holder w's codes are link_code[starts[w]:starts[w + 1]]
    starts = np.searchsorted(table.link_holder, np.arange(k + 1)).tolist()
    cliques = local_listing(table, part.tolist(), lambda w: (
        e for code in table.link_code[starts[w]:starts[w + 1]].tolist()
        for e in real_by_code.get(code, ())))
    return cliques, counts, num_parts


# ---------------------------------------------------------------------------
# the congested-clique listing algorithm
# ---------------------------------------------------------------------------

def cc_list_kp(g: Graph, p: int, seed: int,
               cfg: SimConfig | None = None) -> tuple[set[CliqueInstance], Accounting]:
    """List all K_p of g in the congested-clique model.

    The listing core with k = n holders, node v being holder v. Every node
    owns its outgoing edges, the graph is padded with tagged fake edges when
    too sparse, and each edge is shipped to the nodes whose part tuples
    contain the edge's endpoint parts. The canonical holder of each sorted
    part multiset then lists the cliques of that multiset from the real
    edges it received, so every K_p is listed exactly once and the disjoint
    union of the per-node outputs equals the brute-force listing.
    """
    if p < 3:
        raise ValueError(f"p must be >= 3, got {p}")
    cfg = cfg or SimConfig()
    engine = RoundEngine(g, cfg, clique_mode=True, seed=seed)
    acc = engine.accounting
    n = g.n
    if n == 0:
        return set(), acc

    target = fake_edge_target(n, g.m, p, cfg.fake_density_factor)
    fake_edges = sample_fake_edges(g, target - g.m, seed)
    m_padded = g.m + len(fake_edges)
    acc.notes["m_real"] = g.m
    acc.notes["m_padded"] = m_padded

    # Phase 1: every node announces its own part to everyone (one round).
    if n > 1:
        src, dst = np.nonzero(~np.eye(n, dtype=bool))
        engine.transfer("partition-broadcast", src, dst, np.ones_like(src))
    else:
        acc.charge("partition-broadcast", 0)

    # Phase 2: edge delivery. The owner of each edge's tail queues one
    # message per receiving node; every ordered pair drains its queue at the
    # bandwidth cap, so the phase costs the max queue length. The core also
    # runs phase 3, the canonical-owner local listing over the received
    # real edges (fake edges are tagged and never used).
    cliques, send_matrix, num_parts = list_by_tuples(
        n, n, p, np.random.SeedSequence((seed, PARTITION_TAG)),
        [(g.tail(e), e) for e in g.sorted_edges], [(e[0], e) for e in fake_edges])
    np.fill_diagonal(send_matrix, 0)  # an owner keeps its own tuples' edges
    src, dst = np.nonzero(send_matrix)
    engine.transfer("edge-delivery", src, dst, send_matrix[src, dst])
    recv_per_node = send_matrix.sum(axis=0)

    budget = cfg.receive_budget_factor * p * p * m_padded / (num_parts * num_parts)
    worst = int(recv_per_node.max())
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

    acc.charge("local-listing", 0)
    return cliques, acc
