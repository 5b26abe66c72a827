"""Round-synchronous message passing under CONGEST bandwidth limits.

The engine runs per-node step functions in lockstep rounds: messages sent in
round t are readable in round t+1, and each edge carries at most a fixed
number of O(log n)-bit messages per direction per round. Costs for the two
primitives used as black boxes (intra-cluster routing and cluster ID
assignment) are charged into the same accounting rather than simulated.

Bulk phases are charged from counts: `RoundEngine.transfer` from (src, dst,
count) link arrays, `ClusterChannel.route` from per-member sent and received
totals. `phase_transfer`, `phase_transfer_counts` and `cluster_route` only
tally messages or a count dict into them.

In clique mode the communication graph is the complete graph on n nodes and
the input graph is node-local data.
"""

from __future__ import annotations

import math
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Sequence

import numpy as np

from .config import SimConfig, ceil_log2, polylog
from .graphs import Graph


class ProtocolError(RuntimeError):
    pass


class BudgetViolation(RuntimeError):
    """A node attempted to exceed a bandwidth or load budget."""

    def __init__(self, node: int, phase: str, budget: float, actual: float, kind: str):
        super().__init__(
            f"{kind} budget exceeded at node {node} in phase {phase!r}: "
            f"{actual} > {budget}")
        self.node = node
        self.phase = phase
        self.budget = budget
        self.actual = actual
        self.kind = kind


@dataclass
class Accounting:
    """Per-phase simulated round counts plus per-node message counters."""

    rounds_by_phase: dict[str, int] = field(default_factory=dict)
    messages_by_phase: dict[str, int] = field(default_factory=dict)
    sent: Counter = field(default_factory=Counter)
    received: Counter = field(default_factory=Counter)
    violations: list[dict] = field(default_factory=list)
    notes: dict[str, Any] = field(default_factory=dict)

    def charge(self, phase: str, rounds: int) -> None:
        if rounds < 0:
            raise ValueError("negative round charge")
        self.rounds_by_phase[phase] = self.rounds_by_phase.get(phase, 0) + int(rounds)

    def count_messages(self, phase: str, count: int) -> None:
        self.messages_by_phase[phase] = self.messages_by_phase.get(phase, 0) + int(count)

    def total_rounds(self) -> int:
        return sum(self.rounds_by_phase.values())

    def record_violation(self, node: int, phase: str, budget: float, actual: float,
                         kind: str) -> None:
        self.violations.append({
            "node": int(node), "phase": phase, "budget": float(budget),
            "actual": float(actual), "kind": kind,
        })

    def message_histogram(self) -> dict[str, dict[str, int]]:
        return {
            "sent": {str(k): int(v) for k, v in sorted(self.sent.items())},
            "received": {str(k): int(v) for k, v in sorted(self.received.items())},
        }

    def to_json(self) -> dict:
        return {
            "rounds_by_phase": {k: int(v) for k, v in self.rounds_by_phase.items()},
            "messages_by_phase": {k: int(v) for k, v in self.messages_by_phase.items()},
            "total_rounds": self.total_rounds(),
            "messages": self.message_histogram(),
            "violations": list(self.violations),
            "notes": _jsonable(self.notes),
        }


def _jsonable(value):
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple, set, frozenset)):
        return [_jsonable(v) for v in sorted(value)] if isinstance(value, (set, frozenset)) \
            else [_jsonable(v) for v in value]
    if isinstance(value, (np.integer,)):
        return int(value)
    if isinstance(value, (np.floating,)):
        return float(value)
    return value


# protocol(node, state, inbox, round_no, rng) -> (new_state, sends, halted)
# where inbox is a list of (src, payload) and sends a list of (dst, payload).
Protocol = Callable[[int, Any, list, int, np.random.Generator],
                    tuple[Any, list, bool]]


@dataclass
class ProtocolRun:
    states: dict[int, Any]
    inbox_log: dict[int, list]     # every (src, payload) each node ever received
    rounds: int


class RoundEngine:
    def __init__(self, graph: Graph, cfg: SimConfig | None = None, *,
                 clique_mode: bool = False, seed: int = 0):
        self.graph = graph
        self.cfg = cfg or SimConfig()
        self.clique_mode = clique_mode
        self.n = graph.n
        self.seed = seed
        self.cap = self.cfg.messages_per_edge_per_round()
        self.id_bits = ceil_log2(max(2, self.n))
        self.accounting = Accounting()

    # -- link and payload validation ---------------------------------------

    def has_link(self, src: int, dst: int) -> bool:
        if not (0 <= src < self.n and 0 <= dst < self.n) or src == dst:
            return False
        return True if self.clique_mode else self.graph.has_edge(src, dst)

    def check_payload(self, payload) -> None:
        if payload is None:
            return
        if len(payload) > self.cfg.message_words:
            raise ProtocolError(
                f"payload {payload!r} exceeds {self.cfg.message_words} words")
        limit = 1 << self.id_bits
        for word in payload:
            if not isinstance(word, (int, np.integer)) or not 0 <= int(word) < limit:
                raise ProtocolError(
                    f"payload word {word!r} does not fit in {self.id_bits} bits")

    def node_rng(self, node: int) -> np.random.Generator:
        return np.random.default_rng(np.random.SeedSequence((self.seed, node)))

    # -- full protocol execution -------------------------------------------

    def run_protocol(self, protocol: Protocol, *, phase: str = "protocol",
                     init_states: dict[int, Any] | None = None,
                     max_rounds: int | None = 10 ** 6) -> ProtocolRun:
        """Step every node once per round until all halt.

        Deterministic for a fixed engine seed: nodes are stepped in ID order
        and each gets an RNG derived from (seed, node ID). A halted node
        still receives (and logs) late deliveries but is never stepped again.
        """
        states: dict[int, Any] = {u: None for u in range(self.n)}
        if init_states:
            states.update(init_states)
        halted = [False] * self.n
        rngs = {u: self.node_rng(u) for u in range(self.n)}
        inbox_log: dict[int, list] = {u: [] for u in range(self.n)}
        pending: list[tuple[int, int, Any]] = []
        rounds = 0
        while True:
            inboxes: dict[int, list] = defaultdict(list)
            for src, dst, payload in pending:
                inboxes[dst].append((src, payload))
                inbox_log[dst].append((src, payload))
                self.accounting.received[dst] += 1
            pending = []
            if all(halted):
                break
            rounds += 1
            if max_rounds is not None and rounds > max_rounds:
                raise ProtocolError(f"protocol exceeded {max_rounds} rounds")
            link_counts: Counter = Counter()
            for u in range(self.n):
                if halted[u]:
                    continue
                states[u], sends, done = protocol(u, states[u], inboxes.get(u, []),
                                                  rounds, rngs[u])
                halted[u] = bool(done)
                for dst, payload in sends:
                    if not self.has_link(u, dst):
                        raise ProtocolError(f"node {u} sent to non-neighbor {dst}")
                    self.check_payload(payload)
                    link_counts[(u, dst)] += 1
                    if link_counts[(u, dst)] > self.cap:
                        self.accounting.record_violation(
                            u, phase, self.cap, link_counts[(u, dst)], "bandwidth")
                        raise BudgetViolation(u, phase, self.cap,
                                              link_counts[(u, dst)], "bandwidth")
                    self.accounting.sent[u] += 1
                    self.accounting.count_messages(phase, 1)
                    pending.append((u, dst, payload))
        self.accounting.charge(phase, rounds)
        return ProtocolRun(states, inbox_log, rounds)

    # -- bulk scheduled transfers -------------------------------------------

    def transfer(self, phase: str, src, dst, count) -> int:
        """Deliver count[i] messages over each distinct link src[i] -> dst[i].
        Links drain their queues at the bandwidth cap in parallel, so the
        phase costs ceil(max count / cap) rounds. Links must be in range, not
        loops, and graph edges unless in clique mode."""
        src, dst, count = (np.asarray(a, dtype=np.int64) for a in (src, dst, count))
        ok = (src >= 0) & (src < self.n) & (dst >= 0) & (dst < self.n) & (src != dst)
        if not self.clique_mode:
            ok[ok] = np.fromiter(map(self.graph.has_edge, src[ok].tolist(),
                                     dst[ok].tolist()), bool, int(ok.sum()))
        if not ok.all():
            i = int(np.argmin(ok))
            raise ProtocolError(f"phase {phase!r}: {src[i]}->{dst[i]} is not an edge")
        _tally(self.accounting.sent, np.bincount(src, count, self.n))
        _tally(self.accounting.received, np.bincount(dst, count, self.n))
        self.accounting.count_messages(phase, int(count.sum()))
        rounds = -(-int(count.max(initial=0)) // self.cap)
        self.accounting.charge(phase, rounds)
        return rounds

    def phase_transfer(self, phase: str, messages: Iterable[tuple]) -> int:
        """Deliver a batch of (src, dst[, payload]) messages; see `transfer`."""
        counts: Counter = Counter()
        for msg in messages:
            if len(msg) > 2:
                self.check_payload(msg[2])
            counts[msg[0], msg[1]] += 1
        return self.phase_transfer_counts(phase, counts)

    def phase_transfer_counts(self, phase: str, counts: dict[tuple[int, int], int]) -> int:
        """`transfer` of counts[(src, dst)] messages per link."""
        links = np.array(list(counts), dtype=np.int64).reshape(-1, 2)
        return self.transfer(phase, links[:, 0], links[:, 1], list(counts.values()))


# ---------------------------------------------------------------------------
# intra-cluster routing, charged per the load/bandwidth contract
# ---------------------------------------------------------------------------

@dataclass
class ClusterChannel:
    """Routing inside one well-mixing cluster, cost-charged.

    Delivery is direct; the price is routing_factor * ceil(L / n^delta)
    rounds where L is the maximum per-node send/receive load. Loads above
    load_cap indicate a protocol bug and abort.
    """
    members: frozenset[int]
    n: int
    delta: float
    routing_factor: float
    load_cap: float

    @classmethod
    def for_cluster(cls, members: Iterable[int], n: int, delta: float,
                    cfg: SimConfig) -> "ClusterChannel":
        nd = float(n) ** delta
        return cls(
            members=frozenset(members), n=n, delta=delta,
            routing_factor=cfg.resolved_routing_factor(n),
            load_cap=cfg.load_cap_factor * nd * polylog(n),
        )

    def charge_for_load(self, max_load: int) -> int:
        if max_load <= 0:
            return 0
        nd = float(self.n) ** self.delta
        return math.ceil(self.routing_factor * math.ceil(max_load / nd))

    def route(self, nodes, sent, received, accounting: Accounting | None = None,
              phase: str = "cluster-route", charge_rounds: bool = True) -> int:
        """Charge routing in which nodes[i] sends sent[i] and receives
        received[i] messages. The worst load max(sent, received) above
        load_cap aborts, naming the lowest node ID at that load. Callers
        coordinating clusters that route in parallel pass charge_rounds=False
        and charge the max themselves."""
        nodes, sent, received = (np.asarray(a, dtype=np.int64)
                                 for a in (nodes, sent, received))
        load = np.maximum(sent, received)
        max_load = int(load.max(initial=0))
        if max_load > self.load_cap:
            worst = int(nodes[load == max_load].min())
            if accounting is not None:
                accounting.record_violation(worst, phase, self.load_cap, max_load,
                                            "cluster-route-load")
            raise BudgetViolation(worst, phase, self.load_cap, max_load,
                                  "cluster-route-load")
        rounds = self.charge_for_load(max_load)
        if accounting is not None:
            _tally(accounting.sent, np.bincount(nodes, sent))
            _tally(accounting.received, np.bincount(nodes, received))
            accounting.count_messages(phase, int(sent.sum()))
            if charge_rounds:
                accounting.charge(phase, rounds)
        return rounds


def cluster_route(channel: ClusterChannel,
                  messages: Sequence[tuple[int, int, Any]],
                  accounting: Accounting | None = None,
                  phase: str = "cluster-route",
                  charge_rounds: bool = True) -> int:
    """Route (src, dst, payload) messages between cluster members; returns
    the rounds that `ClusterChannel.route` charges for their tallies."""
    sends: Counter = Counter()
    recvs: Counter = Counter()
    for src, dst, _ in messages:
        if src not in channel.members or dst not in channel.members:
            raise ProtocolError(
                f"cluster_route: {src}->{dst} not within the cluster")
        sends[src] += 1
        recvs[dst] += 1
    nodes = sorted(sends.keys() | recvs.keys())
    return channel.route(nodes, [sends[u] for u in nodes], [recvs[u] for u in nodes],
                         accounting, phase, charge_rounds)


def _tally(counter: Counter, totals: np.ndarray) -> None:
    """Add each nonzero totals[node] to counter[node], as Python ints."""
    hit = np.flatnonzero(totals)
    for node, c in zip(hit.tolist(), totals[hit].astype(np.int64).tolist()):
        counter[node] += c


def assign_cluster_ids(clusters: Sequence[Iterable[int]],
                       n: int,
                       accounting: Accounting | None = None,
                       phase: str = "assign-ids") -> list[dict[int, int]]:
    """New IDs 1..|C| per cluster, by rank of original ID.

    Clusters are processed in parallel: one polylog(n) charge covers the
    whole batch.
    """
    batch = list(clusters)
    out = []
    for members in batch:
        ordered = sorted(members)
        if not ordered:
            raise ValueError("cannot assign IDs in an empty cluster")
        out.append({node: i + 1 for i, node in enumerate(ordered)})
    if accounting is not None and batch:
        accounting.charge(phase, polylog(n))
    return out
