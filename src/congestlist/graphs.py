"""Graph representation, degeneracy orientations, generators, and the
brute-force clique oracle.

Graphs are immutable: nodes are 0..n-1, edges are normalized (u, v) pairs
with u < v, and the optional orientation maps each edge to the endpoint it
points *away from* (its tail). Partitions and edge removals downstream are
expressed as label maps over the edge set, never by mutating a Graph.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Iterator, Mapping, Sequence

import numpy as np

Edge = tuple[int, int]
# A listed clique: strictly increasing tuple of p node IDs.
CliqueInstance = tuple[int, ...]


def encode_cliques(cliques: Sequence[CliqueInstance]) -> list[str]:
    """The report encoding of a clique list: each clique as one string of
    its node IDs separated by single spaces, in the order given.

    One format string serves the whole list, so every clique must have the
    size of the first; a clique of another size raises TypeError.
    """
    if not cliques:
        return []
    fmt = " ".join(["%d"] * len(cliques[0]))
    return [fmt % c for c in cliques]


def decode_cliques(encoded: Iterable[str]) -> list[CliqueInstance]:
    """The cliques of an encode_cliques list, as tuples in the same order."""
    return [tuple(map(int, s.split())) for s in encoded]


def clique_fields(cliques: Sequence[CliqueInstance]) -> dict:
    """The clique fields of a report: clique_count, the encoded cliques and
    clique_digest, the SHA-256 hex of the encoded cliques joined by newlines."""
    encoded = encode_cliques(cliques)
    digest = hashlib.sha256("\n".join(encoded).encode()).hexdigest()
    return {"clique_count": len(encoded), "cliques": encoded, "clique_digest": digest}


def norm_edge(u: int, v: int) -> Edge:
    if u == v:
        raise ValueError(f"self-loop at node {u}")
    return (u, v) if u < v else (v, u)


@dataclass(frozen=True)
class Graph:
    n: int
    edges: frozenset[Edge]
    # edge -> tail node. None means the default orientation (away from the
    # smaller endpoint).
    orientation: Mapping[Edge, int] | None = None

    def __post_init__(self):
        if self.n < 0:
            raise ValueError(f"node count must be >= 0, got {self.n}")
        for u, v in self.edges:
            if not (0 <= u < v < self.n):
                raise ValueError(f"edge ({u},{v}) out of range for n={self.n}")
        if self.orientation is not None:
            for e, t in self.orientation.items():
                if t not in e:
                    raise ValueError(f"tail {t} is not an endpoint of {e}")

    @property
    def m(self) -> int:
        return len(self.edges)

    def tail(self, e: Edge) -> int:
        if self.orientation is None:
            return e[0]
        return self.orientation.get(e, e[0])

    @cached_property
    def adj_masks(self) -> list[int]:
        """Adjacency as one int bitmask per node."""
        masks = [0] * self.n
        for u, v in self.edges:
            masks[u] |= 1 << v
            masks[v] |= 1 << u
        return masks

    @cached_property
    def sorted_edges(self) -> tuple[Edge, ...]:
        return tuple(sorted(self.edges))

    def neighbors(self, u: int) -> Iterator[int]:
        return iter_bits(self.adj_masks[u])

    def degree(self, u: int) -> int:
        return self.adj_masks[u].bit_count()

    def has_edge(self, u: int, v: int) -> bool:
        return u != v and bool(self.adj_masks[u] >> v & 1)

    def out_edges(self, u: int) -> list[Edge]:
        return [e for e in self.incident_edges(u) if self.tail(e) == u]

    def out_degree(self, u: int) -> int:
        return len(self.out_edges(u))

    def incident_edges(self, u: int) -> list[Edge]:
        return [norm_edge(u, v) for v in self.neighbors(u)]

    def max_out_degree(self) -> int:
        counts = [0] * self.n
        for e in self.edges:
            counts[self.tail(e)] += 1
        return max(counts, default=0)

    def with_orientation(self, orientation: Mapping[Edge, int]) -> "Graph":
        return Graph(self.n, self.edges, dict(orientation))


def iter_bits(mask: int) -> Iterator[int]:
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


@dataclass(frozen=True)
class OrientationCertificate:
    max_out_degree: int
    peel_order: tuple[int, ...]


def degeneracy_orient(g: Graph) -> tuple[Graph, OrientationCertificate]:
    """Orient every edge away from its earlier-peeled endpoint.

    Peeling repeatedly removes a (smallest-ID) node of minimum remaining
    degree; the certificate's max_out_degree is the degeneracy of g, and
    every node's out-degree under the returned orientation is at most it.
    """
    degs = [g.degree(u) for u in range(g.n)]
    alive = g.adj_masks[:]
    removed = [False] * g.n
    # bucket queue over degrees
    buckets: list[set[int]] = [set() for _ in range(g.n)] or [set()]
    for u in range(g.n):
        buckets[degs[u]].add(u)
    order: list[int] = []
    degeneracy = 0
    cur = 0
    for _ in range(g.n):
        while cur < len(buckets) and not buckets[cur]:
            cur += 1
        u = min(buckets[cur])
        buckets[cur].remove(u)
        degeneracy = max(degeneracy, degs[u])
        order.append(u)
        removed[u] = True
        for v in iter_bits(alive[u]):
            if not removed[v]:
                buckets[degs[v]].remove(v)
                degs[v] -= 1
                buckets[degs[v]].add(v)
                alive[v] &= ~(1 << u)
        cur = max(0, cur - 1)
    rank = {u: i for i, u in enumerate(order)}
    orientation = {e: (e[0] if rank[e[0]] < rank[e[1]] else e[1]) for e in g.edges}
    cert = OrientationCertificate(degeneracy if g.edges else 0, tuple(order))
    return g.with_orientation(orientation), cert


def enumerate_cliques(adj: Sequence[int], p: int, n: int | None = None) -> set[CliqueInstance]:
    """All p-cliques (p >= 2) among nodes 0..n-1 of the graph given as
    adjacency bitmasks, as increasing tuples.

    This is the oracle's own kernel; it shares no code with the listers it
    checks. Taking the lowest candidate w drops it from the candidates, so
    cand & adj[w] holds only common neighbours above w and every clique is
    reached along one increasing path. At depth p - 1 every remaining
    candidate closes one clique, added without a further call.
    """
    if p < 2:
        raise ValueError(f"p must be >= 2, got {p}")
    n = len(adj) if n is None else n
    out: set[CliqueInstance] = set()
    add = out.add
    last = p - 1

    def rec(prefix: CliqueInstance, cand: int, depth: int):
        if depth == last:
            while cand:
                low = cand & -cand
                add((*prefix, low.bit_length() - 1))
                cand ^= low
            return
        # nodes the level below must still find after the one taken here
        need = last - depth
        while cand:
            low = cand & -cand
            w = low.bit_length() - 1
            cand ^= low
            nxt = cand & adj[w]
            if nxt.bit_count() >= need:
                rec((*prefix, w), nxt, depth + 1)

    rec((), (1 << n) - 1, 0)
    return out


def brute_force_list_kp(g: Graph, p: int) -> set[CliqueInstance]:
    """All p-cliques of g, by recursive neighborhood intersection.

    This is the oracle every listing algorithm is checked against.
    """
    if p < 3:
        raise ValueError(f"p must be >= 3, got {p}")
    return enumerate_cliques(g.adj_masks, p, g.n)


def cliques_with_node(adj: list[int], n: int, p: int, v: int) -> set[CliqueInstance]:
    """p-cliques containing v in the graph given by adjacency masks."""
    out: set[CliqueInstance] = set()

    def rec(prefix: list[int], cand: int, depth: int):
        if depth == p:
            out.add(tuple(sorted(prefix)))
            return
        if cand.bit_count() < p - depth:
            return
        for w in iter_bits(cand):
            prefix.append(w)
            rec(prefix, cand & adj[w] & ~((1 << (w + 1)) - 1), depth + 1)
            prefix.pop()

    rec([v], adj[v], 1)
    return out


def rooted_cliques(adj: Sequence[int], p: int, v: int) -> list[CliqueInstance]:
    """The p-cliques whose smallest member is v (p >= 2), each once, as
    increasing tuples, in the graph given by adjacency masks.

    The candidates start as the neighbours of v above v. Taking the lowest
    candidate w drops it and every bit below it, and the next level keeps
    only cand & adj[w], so each clique is reached along one increasing path.
    At depth p - 1 every remaining candidate closes one clique, emitted
    without a further call. Only adj[v] and the masks of v's neighbours are
    read, and of those only the bits of other neighbours of v.
    """
    if p < 2:
        raise ValueError(f"p must be >= 2, got {p}")
    out: list[CliqueInstance] = []
    last = p - 1

    def rec(prefix: CliqueInstance, cand: int, depth: int):
        if depth == last:
            while cand:
                low = cand & -cand
                out.append((*prefix, low.bit_length() - 1))
                cand ^= low
            return
        # nodes the level below must still find after the one taken here
        need = last - depth
        while cand:
            low = cand & -cand
            w = low.bit_length() - 1
            cand ^= low
            nxt = cand & adj[w]
            if nxt.bit_count() >= need:
                rec((*prefix, w), nxt, depth + 1)

    rec((v,), adj[v] >> (v + 1) << (v + 1), 1)
    return out


def is_clique(g: Graph, nodes: CliqueInstance) -> bool:
    return all(g.has_edge(a, b) for i, a in enumerate(nodes) for b in nodes[i + 1:])


# ---------------------------------------------------------------------------
# generators
# ---------------------------------------------------------------------------

def empty(n: int) -> Graph:
    return Graph(n, frozenset())


def complete(n: int) -> Graph:
    return Graph(n, frozenset((u, v) for u in range(n) for v in range(u + 1, n)))


def gnp(n: int, q: float, seed: int) -> Graph:
    """Erdos-Renyi G(n, q), deterministic per seed."""
    if not 0.0 <= q <= 1.0:
        raise ValueError("q must be in [0, 1]")
    rng = np.random.default_rng(seed)
    iu, iv = np.triu_indices(n, k=1)
    keep = rng.random(iu.shape[0]) < q
    edges = frozenset(zip(iu[keep].tolist(), iv[keep].tolist()))
    return Graph(n, edges)

def planted(n: int, p: int, count: int, q_background: float, seed: int) -> Graph:
    """G(n, q_background) with `count` vertex-disjoint K_p planted on top."""
    if count * p > n:
        raise ValueError(f"cannot plant {count} disjoint K_{p} in {n} nodes")
    rng = np.random.default_rng(seed)
    base = gnp(n, q_background, seed + 1)
    nodes = rng.permutation(n)[: count * p]
    edges = set(base.edges)
    for i in range(count):
        group = sorted(int(x) for x in nodes[i * p:(i + 1) * p])
        edges.update((a, b) for j, a in enumerate(group) for b in group[j + 1:])
    return Graph(n, frozenset(edges))


def planted_cliques(n: int, p: int, count: int, seed: int) -> list[CliqueInstance]:
    """The clique node sets planted() embeds for the same (n, p, count, seed)."""
    rng = np.random.default_rng(seed)
    nodes = rng.permutation(n)[: count * p]
    return [tuple(sorted(int(x) for x in nodes[i * p:(i + 1) * p])) for i in range(count)]


def parse_gen_spec(spec: str) -> Graph:
    """Parse generator specs like gnp:100:0.25:7, complete:8, empty:32,
    planted:40:5:3:0.05:2."""
    parts = spec.split(":")
    kind, args = parts[0], parts[1:]
    try:
        if kind == "gnp":
            n, q, seed = int(args[0]), float(args[1]), int(args[2])
            return gnp(n, q, seed)
        if kind == "planted":
            n, p, count, q, seed = (int(args[0]), int(args[1]), int(args[2]),
                                    float(args[3]), int(args[4]))
            return planted(n, p, count, q, seed)
        if kind == "complete":
            return complete(int(args[0]))
        if kind == "empty":
            return empty(int(args[0]))
    except (IndexError, ValueError) as exc:
        raise ValueError(f"bad generator spec {spec!r}: {exc}") from exc
    raise ValueError(f"unknown generator kind {kind!r}")


# ---------------------------------------------------------------------------
# edge-list I/O: header "n m", one "u v [tail]" line per edge
# ---------------------------------------------------------------------------

def write_edge_list(g: Graph, path: str) -> None:
    with open(path, "w") as fh:
        fh.write(f"{g.n} {g.m}\n")
        for u, v in g.sorted_edges:
            if g.orientation is None:
                fh.write(f"{u} {v}\n")
            else:
                fh.write(f"{u} {v} {g.tail((u, v))}\n")


def read_edge_list(path: str) -> Graph:
    """Read the edge-list format; a malformed header or line, a self-loop, a
    node ID outside 0..n-1, a foreign tail or a repeated edge raises
    ValueError naming the file and line."""
    with open(path) as fh:
        header = fh.readline().split()
        where = f"{path}, line 1"
        if len(header) != 2:
            raise ValueError(f"{where}: expected header 'n m'")
        try:
            n, m = int(header[0]), int(header[1])
        except ValueError:
            raise ValueError(f"{where}: header counts must be integers, "
                             f"got {' '.join(header)!r}") from None
        if n < 0 or m < 0:
            raise ValueError(f"{where}: header counts must be >= 0, got {n} {m}")
        edges = set()
        orientation: dict[Edge, int] = {}
        for lineno, line in enumerate(fh, start=2):
            fields = line.split()
            if not fields:
                continue
            where = f"{path}, line {lineno}"
            if len(fields) not in (2, 3):
                raise ValueError(f"{where}: expected 'u v [tail]', got {line.strip()!r}")
            try:
                u, v, *tail = map(int, fields)
            except ValueError:
                raise ValueError(f"{where}: node IDs must be integers, "
                                 f"got {line.strip()!r}") from None
            if u == v:
                raise ValueError(f"{where}: self-loop at node {u}")
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"{where}: edge ({u},{v}) has a node ID outside 0..{n - 1}")
            e = norm_edge(u, v)
            if e in edges:
                raise ValueError(f"{where}: duplicate edge ({u},{v})")
            edges.add(e)
            if tail:
                if tail[0] not in e:
                    raise ValueError(f"{where}: tail {tail[0]} is not an endpoint of {e}")
                orientation[e] = tail[0]
    if len(edges) != m:
        raise ValueError(f"{path}: header claims {m} edges, found {len(edges)}")
    return Graph(n, frozenset(edges), orientation or None)
