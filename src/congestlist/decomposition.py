"""Expander decompositions and their verifier.

An edge set is partitioned into three labels:

* ``M`` -- cluster edges. Every connected component of M with more than one
  node is a cluster: min degree >= min_degree_factor * n^delta and certified
  conductance >= phi_min (the operative stand-in for polylog mixing time).
* ``S`` -- sparse edges, carrying an orientation with per-node out-degree
  <= n^delta.
* ``R`` -- remainder, at most |E|/6.

The construction here is a centralized reference: peel low-degree nodes into
S, accept well-mixing components as clusters, and otherwise split along the
best Fiedler sweep cut, sending cut edges to R. Its round cost in the
simulated model is charged, not simulated.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from .config import SimConfig, polylog
from .engine import Accounting
from .graphs import Edge, Graph, norm_edge

M, S, R = "M", "S", "R"


class DecompositionError(RuntimeError):
    """The requested contract could not be met; never silently relaxed."""


@dataclass(frozen=True)
class Cluster:
    id: int
    members: frozenset[int]
    delta: float
    conductance_estimate: float


@dataclass
class EdgePartition:
    delta: float
    labels: dict[Edge, str]
    clusters: list[Cluster]
    s_orientation: dict[Edge, int]
    params: dict = field(default_factory=dict)

    def edges_with(self, label: str) -> set[Edge]:
        return {e for e, lab in self.labels.items() if lab == label}

    @property
    def m_edges(self) -> set[Edge]:
        return self.edges_with(M)

    @property
    def s_edges(self) -> set[Edge]:
        return self.edges_with(S)

    @property
    def r_edges(self) -> set[Edge]:
        return self.edges_with(R)

    def cluster_of(self) -> dict[int, int]:
        out: dict[int, int] = {}
        for c in self.clusters:
            for v in c.members:
                out[v] = c.id
        return out

    def to_json(self) -> dict:
        return {
            "delta": self.delta,
            "clusters": [
                {
                    "id": c.id,
                    "members": sorted(c.members),
                    "conductance_estimate": c.conductance_estimate,
                }
                for c in self.clusters
            ],
            "labels": {f"{u},{v}": lab for (u, v), lab in sorted(self.labels.items())},
            "s_orientation": {f"{u},{v}": t for (u, v), t in sorted(self.s_orientation.items())},
            "params": dict(self.params),
        }


# ---------------------------------------------------------------------------
# conductance certificates
# ---------------------------------------------------------------------------

def exact_conductance(nodes: Sequence[int], adj: dict[int, set[int]]) -> float:
    """Minimum conductance over all node subsets (Gray-code walk).

    Only for tiny components; used both as the certificate there and as the
    ground truth the spectral bound is tested against.
    """
    nodes = sorted(nodes)
    k = len(nodes)
    idx = {v: i for i, v in enumerate(nodes)}
    masks = [0] * k
    deg = [0] * k
    for i, v in enumerate(nodes):
        for w in adj[v]:
            masks[i] |= 1 << idx[w]
        deg[i] = masks[i].bit_count()
    vol_total = sum(deg)
    if vol_total == 0:
        return 0.0
    best = math.inf
    sub = 0
    cut = 0
    vol = 0
    prev = 0
    for code in range(1, 1 << k):
        gray = code ^ (code >> 1)
        flip = (gray ^ prev).bit_length() - 1
        prev = gray
        bit = 1 << flip
        if gray & bit:  # flip joined the subset
            in_before = (masks[flip] & (gray & ~bit)).bit_count()
            cut += deg[flip] - 2 * in_before
            vol += deg[flip]
        else:  # flip left the subset
            in_after = (masks[flip] & gray).bit_count()
            cut -= deg[flip] - 2 * in_after
            vol -= deg[flip]
        small = min(vol, vol_total - vol)
        if small > 0:
            best = min(best, cut / small)
    return 0.0 if best is math.inf else best


def _adjacency(order: list[int], adj: dict[int, set[int]]):
    """(row, column) index arrays of the adjacency among ``order``, and
    D^{-1/2} (isolated nodes get a huge finite entry, never a division by 0)."""
    idx = {v: i for i, v in enumerate(order)}
    deg = np.array([len(adj[v]) for v in order], dtype=np.intp)
    rows = np.repeat(np.arange(len(order)), deg)
    cols = np.array([idx[w] for v in order for w in adj[v]], dtype=np.intp)
    return rows, cols, 1.0 / np.sqrt(np.maximum(deg, 1e-12))


def _dense_normalized_laplacian(order: list[int],
                                adj: dict[int, set[int]]) -> np.ndarray:
    """I - D^{-1/2} A D^{-1/2} as a dense array, built with numpy alone.

    Bit for bit the sparse builder's matrix: each edge entry is
    (dinv[i] * 1.0) * dinv[j] subtracted from an exact 0, every other
    off-diagonal entry is +0.0, and the diagonal is exactly 1.
    """
    k = len(order)
    rows, cols, dinv = _adjacency(order, adj)
    A = np.zeros((k, k))
    A[rows, cols] = 1.0
    return np.eye(k) - dinv[:, None] * A * dinv[None, :]


def _sparse_normalized_laplacian(order: list[int], adj: dict[int, set[int]]):
    """The same matrix in CSR form, so that large components never hold a
    dense k x k array. Imports scipy on first use."""
    import scipy.sparse

    k = len(order)
    rows, cols, dinv = _adjacency(order, adj)
    A = scipy.sparse.csr_matrix((np.ones(len(rows)), (rows, cols)), shape=(k, k))
    Dinv = scipy.sparse.diags(dinv)
    return scipy.sparse.eye(k) - Dinv @ A @ Dinv


def spectral_gap(nodes: Sequence[int], adj: dict[int, set[int]],
                 dense_limit: int) -> tuple[float, np.ndarray, np.ndarray]:
    """(lambda_2 of the normalized Laplacian, Fiedler vector, node order).

    Components of at most ``dense_limit`` edges (or fewer than 5 nodes) are
    solved densely with numpy; only larger ones load scipy for Lanczos.
    """
    order = sorted(nodes)
    k = len(order)
    edge_count = sum(len(adj[v]) for v in order) // 2
    if edge_count <= dense_limit or k < 5:
        vals, vecs = np.linalg.eigh(_dense_normalized_laplacian(order, adj))
        lam2 = float(vals[1]) if k >= 2 else 0.0
        fiedler = vecs[:, 1] if k >= 2 else np.zeros(k)
    else:
        import scipy.sparse
        import scipy.sparse.linalg

        # Lanczos on 2I - L (largest end is numerically robust); v0 fixed for
        # determinism.
        shifted = 2.0 * scipy.sparse.eye(k) - _sparse_normalized_laplacian(order, adj)
        v0 = np.full(k, 1.0 / math.sqrt(k))
        vals, vecs = scipy.sparse.linalg.eigsh(shifted, k=2, which="LA", v0=v0)
        orderv = np.argsort(-vals)
        lam2 = float(2.0 - vals[orderv[1]])
        fiedler = vecs[:, orderv[1]]
    return max(0.0, lam2), fiedler, np.array(order)


def conductance_certificate(nodes: Sequence[int], adj: dict[int, set[int]],
                            cfg: SimConfig) -> float:
    """A certified lower bound on the component's conductance.

    Exact for tiny components, lambda_2 / 2 (Cheeger) beyond that.
    """
    if len(nodes) <= cfg.exact_conductance_node_limit:
        return exact_conductance(nodes, adj)
    lam2, _, _ = spectral_gap(nodes, adj, cfg.dense_spectral_edge_limit)
    return lam2 / 2.0


def sweep_cut(nodes: Sequence[int], adj: dict[int, set[int]],
              dense_limit: int) -> tuple[set[int], set[int]]:
    """Split a component along the minimum-conductance Fiedler sweep cut."""
    _, fiedler, order = spectral_gap(nodes, adj, dense_limit)
    ranked = [int(v) for v in order[np.lexsort((order, fiedler))]]
    deg = {v: len(adj[v]) for v in nodes}
    vol_total = sum(deg.values())
    in_side: set[int] = set()
    cut = 0
    vol = 0
    best_phi = math.inf
    best_k = 1
    for i, v in enumerate(ranked[:-1]):
        inside = sum(1 for w in adj[v] if w in in_side)
        cut += deg[v] - 2 * inside
        vol += deg[v]
        in_side.add(v)
        small = min(vol, vol_total - vol)
        if small > 0:
            phi = cut / small
            if phi < best_phi:
                best_phi = phi
                best_k = i + 1
    side = set(ranked[:best_k])
    return side, set(ranked[best_k:])


# ---------------------------------------------------------------------------
# construction
# ---------------------------------------------------------------------------

def _components(nodes: Iterable[int], adj: dict[int, set[int]]) -> list[set[int]]:
    seen: set[int] = set()
    out = []
    for start in sorted(nodes):
        if start in seen or not adj[start]:
            continue
        comp = {start}
        queue = deque([start])
        seen.add(start)
        while queue:
            v = queue.popleft()
            for w in adj[v]:
                if w not in seen:
                    seen.add(w)
                    comp.add(w)
                    queue.append(w)
        out.append(comp)
    return out


def expander_decompose(g: Graph, delta: float, cfg: SimConfig | None = None,
                       edges: Iterable[Edge] | None = None,
                       accounting: Accounting | None = None,
                       phase: str = "decompose") -> EdgePartition:
    """Build a delta-decomposition of ``edges`` (default: all of g).

    Raises DecompositionError when the remainder budget |R| <= |E|/6 cannot
    be met under the given parameters.
    """
    cfg = cfg or SimConfig()
    if not 0.0 < delta < 1.0:
        raise ValueError("delta must lie in (0, 1)")
    if cfg.min_degree_factor > 1.0:
        raise ValueError("min_degree_factor > 1 would break the S out-degree bound")
    n = g.n
    nd = float(n) ** delta
    thr = max(1, math.ceil(cfg.min_degree_factor * nd))
    phi_min = cfg.resolved_phi_min(n)
    universe = set(edges) if edges is not None else set(g.edges)

    adj: dict[int, set[int]] = {v: set() for v in range(n)}
    for u, v in universe:
        adj[u].add(v)
        adj[v].add(u)

    labels: dict[Edge, str] = {}
    s_orientation: dict[Edge, int] = {}
    clusters: list[Cluster] = []

    def peel(comp: set[int]) -> set[int]:
        """Remove nodes of degree < thr, labeling their edges S."""
        live = {v for v in comp if adj[v]}
        queue = deque(sorted(v for v in live if len(adj[v]) < thr))
        queued = set(queue)
        while queue:
            v = queue.popleft()
            queued.discard(v)
            if v not in live:
                continue
            for w in sorted(adj[v]):
                e = norm_edge(v, w)
                labels[e] = S
                s_orientation[e] = v
                adj[w].discard(v)
                if w in live and len(adj[w]) < thr and w not in queued:
                    queue.append(w)
                    queued.add(w)
            adj[v].clear()
            live.discard(v)
        return {v for v in live if adj[v]}

    work: deque[set[int]] = deque(_components(range(n), adj))
    next_cluster_id = 0
    while work:
        comp = work.popleft()
        core = peel(comp)
        if not core:
            continue
        for piece in _components(core, adj):
            cert = conductance_certificate(sorted(piece), adj, cfg)
            if cert >= phi_min:
                members = frozenset(piece)
                for v in piece:
                    for w in adj[v]:
                        labels[norm_edge(v, w)] = M
                clusters.append(Cluster(next_cluster_id, members, delta, cert))
                next_cluster_id += 1
                for v in piece:
                    adj[v].clear()
            else:
                side_a, side_b = sweep_cut(sorted(piece), adj,
                                           cfg.dense_spectral_edge_limit)
                for v in side_a:
                    for w in list(adj[v]):
                        if w in side_b:
                            labels[norm_edge(v, w)] = R
                            adj[v].discard(w)
                            adj[w].discard(v)
                work.append(side_a)
                work.append(side_b)

    r_count = sum(1 for lab in labels.values() if lab == R)
    if r_count > len(universe) / 6.0:
        raise DecompositionError(
            f"remainder overflow: |R|={r_count} > |E|/6={len(universe) / 6.0:.1f} "
            f"(delta={delta}, phi_min={phi_min:.4f}, min_degree={thr})")
    part = EdgePartition(
        delta=delta, labels=labels, clusters=clusters,
        s_orientation=s_orientation,
        params={
            "min_degree_factor": cfg.min_degree_factor,
            "phi_min": phi_min,
            "min_degree_threshold": thr,
        },
    )
    if accounting is not None:
        charge = math.ceil(cfg.decomposition_factor * n ** (1.0 - delta) * polylog(n))
        accounting.charge(phase, charge)
    return part


# ---------------------------------------------------------------------------
# verification
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    details: str = ""


@dataclass
class DecompositionReport:
    checks: list[CheckResult]

    @property
    def ok(self) -> bool:
        return all(c.passed for c in self.checks)

    def failed(self) -> list[CheckResult]:
        return [c for c in self.checks if not c.passed]

    def to_json(self) -> dict:
        return {
            "ok": self.ok,
            "checks": [
                {"name": c.name, "passed": c.passed, "details": c.details}
                for c in self.checks
            ],
        }


def verify_decomposition(g: Graph, part: EdgePartition,
                         cfg: SimConfig | None = None) -> DecompositionReport:
    """Pure check of the decomposition contract, under the partition's own
    declared parameters."""
    cfg = cfg or SimConfig()
    n = g.n
    nd = float(n) ** part.delta
    thr = part.params.get("min_degree_threshold")
    if thr is None:
        factor = part.params.get("min_degree_factor", cfg.min_degree_factor)
        thr = max(1, math.ceil(factor * nd))
    phi_min = part.params.get("phi_min", cfg.resolved_phi_min(n))
    checks: list[CheckResult] = []

    universe = set(part.labels)
    foreign = [e for e in universe if e not in g.edges]
    bad_label = [e for e, lab in part.labels.items() if lab not in (M, S, R)]
    checks.append(CheckResult(
        "labels-total", not foreign and not bad_label,
        f"{len(foreign)} foreign edges, {len(bad_label)} bad labels"))

    member_of = part.cluster_of()
    m_edges = part.m_edges
    misplaced = [e for e in m_edges
                 if member_of.get(e[0]) is None
                 or member_of.get(e[0]) != member_of.get(e[1])]
    checks.append(CheckResult(
        "m-edges-inside-one-cluster", not misplaced,
        f"{len(misplaced)} M-edges crossing or outside clusters"))

    seen_nodes: set[int] = set()
    overlapping = False
    for c in part.clusters:
        if c.members & seen_nodes:
            overlapping = True
        seen_nodes |= c.members
    checks.append(CheckResult("clusters-node-disjoint", not overlapping))

    cluster_adj: dict[int, dict[int, set[int]]] = {c.id: {v: set() for v in c.members}
                                                   for c in part.clusters}
    for u, v in m_edges:
        cid = member_of.get(u)
        if cid is not None and cid == member_of.get(v):
            cluster_adj[cid][u].add(v)
            cluster_adj[cid][v].add(u)

    min_deg_ok, conn_ok, cond_ok = True, True, True
    min_deg_detail, conn_detail, cond_detail = [], [], []
    for c in part.clusters:
        adj = cluster_adj[c.id]
        if len(c.members) < 2:
            conn_ok = False
            conn_detail.append(f"cluster {c.id} has a single node")
            continue
        worst = min(len(adj[v]) for v in c.members)
        if worst < thr:
            min_deg_ok = False
            min_deg_detail.append(f"cluster {c.id}: min degree {worst} < {thr}")
        comp = _components(c.members, adj)
        if len(comp) != 1 or comp[0] != set(c.members):
            conn_ok = False
            conn_detail.append(f"cluster {c.id} not connected in M")
            continue
        cert = conductance_certificate(sorted(c.members), adj, cfg)
        if cert < phi_min:
            cond_ok = False
            cond_detail.append(f"cluster {c.id}: conductance {cert:.4f} < {phi_min:.4f}")
    checks.append(CheckResult("cluster-min-degree", min_deg_ok, "; ".join(min_deg_detail)))
    checks.append(CheckResult("cluster-connected", conn_ok, "; ".join(conn_detail)))
    checks.append(CheckResult("cluster-conductance", cond_ok, "; ".join(cond_detail)))

    out_deg: dict[int, int] = {}
    missing = 0
    for e in part.s_edges:
        tail = part.s_orientation.get(e)
        if tail is None or tail not in e:
            missing += 1
            continue
        out_deg[tail] = out_deg.get(tail, 0) + 1
    worst_out = max(out_deg.values(), default=0)
    s_ok = missing == 0 and worst_out <= nd + 1e-9
    checks.append(CheckResult(
        "s-out-degree", s_ok,
        f"max out-degree {worst_out} vs bound {nd:.2f}; {missing} unoriented"))

    r_count = len(part.r_edges)
    checks.append(CheckResult(
        "r-bound", r_count <= len(universe) / 6.0 + 1e-9,
        f"|R|={r_count}, |E|/6={len(universe) / 6.0:.2f}"))
    return DecompositionReport(checks)
