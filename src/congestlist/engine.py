"""Round-synchronous message passing under CONGEST bandwidth limits.

The engine runs per-node step functions in lockstep rounds: messages sent in
round t are readable in round t+1, and each edge carries at most a fixed
number of O(log n)-bit messages per direction per round. Costs for the two
primitives used as black boxes (intra-cluster routing and cluster ID
assignment) are charged into the same accounting rather than simulated.

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

    def phase_transfer(self, phase: str, messages: Iterable[tuple]) -> int:
        """Deliver a batch of (src, dst[, payload]) messages.

        Each directed edge drains its queue at the bandwidth cap, all edges in
        parallel, so the phase costs max over edges of ceil(queue/cap) rounds.
        Equivalent to a canonical per-edge round-robin schedule.
        """
        counts: Counter = Counter()
        for msg in messages:
            src, dst = msg[0], msg[1]
            if not self.has_link(src, dst):
                raise ProtocolError(f"phase {phase!r}: {src}->{dst} is not an edge")
            if len(msg) > 2:
                self.check_payload(msg[2])
            counts[(src, dst)] += 1
        return self.phase_transfer_counts(phase, counts)

    def phase_transfer_counts(self, phase: str, counts: dict[tuple[int, int], int],
                              validate: bool = True) -> int:
        rounds = 0
        total = 0
        for (src, dst), c in counts.items():
            if validate and not self.has_link(src, dst):
                raise ProtocolError(f"phase {phase!r}: {src}->{dst} is not an edge")
            self.accounting.sent[src] += c
            self.accounting.received[dst] += c
            total += c
            rounds = max(rounds, math.ceil(c / self.cap))
        self.accounting.count_messages(phase, total)
        self.accounting.charge(phase, rounds)
        return rounds

    def charge(self, phase: str, rounds: int) -> None:
        self.accounting.charge(phase, rounds)


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


def cluster_route(channel: ClusterChannel,
                  messages: Sequence[tuple[int, int, Any]],
                  accounting: Accounting | None = None,
                  phase: str = "cluster-route",
                  charge_rounds: bool = True) -> tuple[dict[int, list], int]:
    """Deliver (src, dst, payload) messages between cluster members.

    Returns (messages grouped by destination, charged rounds) and charges the
    rounds into `accounting` if given. Callers coordinating clusters that
    route in parallel pass charge_rounds=False and charge the max themselves.
    """
    sends: Counter = Counter()
    recvs: Counter = Counter()
    delivered: dict[int, list] = defaultdict(list)
    for src, dst, payload in messages:
        if src not in channel.members or dst not in channel.members:
            raise ProtocolError(
                f"cluster_route: {src}->{dst} not within the cluster")
        sends[src] += 1
        recvs[dst] += 1
        delivered[dst].append((src, payload))
    max_load = 0
    worst_node = -1
    for node in channel.members:
        load = max(sends.get(node, 0), recvs.get(node, 0))
        if load > max_load:
            max_load, worst_node = load, node
    if max_load > channel.load_cap:
        if accounting is not None:
            accounting.record_violation(worst_node, phase, channel.load_cap,
                                        max_load, "cluster-route-load")
        raise BudgetViolation(worst_node, phase, channel.load_cap, max_load,
                              "cluster-route-load")
    rounds = channel.charge_for_load(max_load)
    if accounting is not None:
        for node, c in sends.items():
            accounting.sent[node] += c
        for node, c in recvs.items():
            accounting.received[node] += c
        accounting.count_messages(phase, len(messages))
        if charge_rounds:
            accounting.charge(phase, rounds)
    return dict(delivered), rounds


def assign_cluster_ids(clusters: Sequence[Iterable[int]] | Iterable[int],
                       n: int,
                       accounting: Accounting | None = None,
                       phase: str = "assign-ids") -> list[dict[int, int]]:
    """New IDs 1..|C| per cluster, by rank of original ID.

    Clusters are processed in parallel: one polylog(n) charge covers the
    whole batch.
    """
    batch = list(clusters)
    if batch and all(isinstance(x, (int, np.integer)) for x in batch):
        batch = [batch]  # a single cluster was passed directly
    out = []
    for members in batch:
        ordered = sorted(members)
        if not ordered:
            raise ValueError("cannot assign IDs in an empty cluster")
        out.append({node: i + 1 for i, node in enumerate(ordered)})
    if accounting is not None and batch:
        accounting.charge(phase, polylog(n))
    return out
