"""networkx as a second, independent oracle: for the slot-restricted
listing that every canonical holder runs, for the rooted listing that every
node runs after the CONGEST flood, and for brute_force_list_kp and its
kernel enumerate_cliques."""

import itertools

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import congestlist
from congestlist import cluster_pipeline, graphs, pipeline, sparse_listing
from congestlist.graphs import (
    Graph,
    brute_force_list_kp,
    enumerate_cliques,
    gnp,
    iter_bits,
    rooted_cliques,
)
from congestlist.sparse_listing import holder_cliques

nx = pytest.importorskip("networkx")


@st.composite
def planted_graphs(draw, max_p=6):
    """A clique size 2 <= p <= max_p and a graph on at most 12 nodes holding
    a planted clique of at least min(n, p) nodes."""
    p = draw(st.integers(2, max_p))
    n = draw(st.integers(0, 12))
    planted = draw(st.sets(st.integers(0, max(0, n - 1)), min_size=min(n, p), max_size=n))
    pairs = list(itertools.combinations(range(n), 2))
    keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    g = Graph(n, frozenset(e for e, kept in zip(pairs, keep)
                           if kept or set(e) <= planted))
    return g, p


@st.composite
def dense_graphs(draw):
    """A clique size 2 <= p <= 7 and a G(n, 0.8) on at most 16 nodes."""
    n = draw(st.integers(0, 16))
    return gnp(n, 0.8, draw(st.integers(0, 2**32 - 1))), draw(st.integers(2, 7))


@st.composite
def partitioned_graphs(draw):
    """A planted graph and its nodes split into 1-5 parts, some possibly
    empty."""
    g, p = draw(planted_graphs())
    n = g.n
    num_parts = draw(st.integers(1, 5))
    assignment = draw(st.lists(st.integers(0, num_parts - 1), min_size=n, max_size=n))
    return g, num_parts, assignment, p


def networkx_cliques(g: Graph, p: int) -> set[tuple[int, ...]]:
    h = nx.Graph()
    h.add_nodes_from(range(g.n))
    h.add_edges_from(g.edges)
    out = set()
    for clique in nx.enumerate_all_cliques(h):
        if len(clique) > p:
            break
        if len(clique) == p:
            out.add(tuple(sorted(clique)))
    return out


def part_masks(num_parts: int, assignment: list[int]) -> list[int]:
    masks = [0] * num_parts
    for v, part in enumerate(assignment):
        masks[part] |= 1 << v
    return masks


@given(partitioned_graphs(), st.data())
@settings(max_examples=150, deadline=None)
def test_slot_listing_matches_networkx(case, data):
    g, num_parts, assignment, p = case
    slots = tuple(sorted(data.draw(
        st.lists(st.integers(0, num_parts - 1), min_size=p, max_size=p), label="slots")))
    want = {c for c in networkx_cliques(g, p)
            if tuple(sorted(assignment[v] for v in c)) == slots}
    got = holder_cliques(g.adj_masks, part_masks(num_parts, assignment), [slots])
    assert len(got) == len(set(got))
    assert set(got) == want


@given(partitioned_graphs())
@settings(max_examples=100, deadline=None)
def test_all_multisets_list_every_clique_once(case):
    g, num_parts, assignment, p = case
    multisets = itertools.combinations_with_replacement(range(num_parts), p)
    got = holder_cliques(g.adj_masks, part_masks(num_parts, assignment), multisets)
    want = networkx_cliques(g, p)
    assert len(got) == len(want)
    assert set(got) == want
    if p >= 3:
        assert brute_force_list_kp(g, p) == want


def neighbourhood_view(adj: list[int], v: int) -> list[int]:
    """The masks node v can see after the flood: its own edges, and the edges
    between two of its neighbours; every other bit is cleared."""
    closed = adj[v] | 1 << v
    view = [0] * len(adj)
    for x in iter_bits(closed):
        view[x] = adj[x] & closed
    return view


@given(planted_graphs())
@example((Graph(0, frozenset()), 4))
@example((Graph(6, frozenset()), 2))
@example((Graph(9, frozenset({(1, 4), (1, 7), (4, 7), (2, 3)})), 3))
@settings(max_examples=150, deadline=None)
def test_rooted_listing_matches_networkx(case):
    g, p = case
    got = []
    for v in range(g.n):
        rooted = rooted_cliques(g.adj_masks, p, v)
        assert all(c[0] == v and list(c) == sorted(set(c)) for c in rooted)
        # v's own flood view is enough to list them
        assert rooted_cliques(neighbourhood_view(g.adj_masks, v), p, v) == rooted
        got.extend(rooted)
    assert len(got) == len(set(got))
    assert set(got) == networkx_cliques(g, p)


@given(st.one_of(planted_graphs(max_p=7), dense_graphs()))
@example((Graph(0, frozenset()), 2))
@example((gnp(16, 1.0, 0), 7))
@settings(max_examples=200, deadline=None)
def test_oracle_matches_networkx(case):
    g, p = case
    # the 2-cliques are the edges
    want = set(g.edges) if p == 2 else networkx_cliques(g, p)
    assert enumerate_cliques(g.adj_masks, p, g.n) == want
    if p >= 3:
        assert brute_force_list_kp(g, p) == want


@pytest.mark.parametrize("p", [1, 0, -1])
def test_oracle_rejects_p_below_2(p):
    with pytest.raises(ValueError):
        enumerate_cliques(gnp(8, 0.5, 1).adj_masks, p)


LISTERS = ("rooted_cliques", "holder_cliques", "cliques_with_node")


def refuse(*args, **kwargs):
    raise AssertionError("the oracle called a lister it checks")


@given(planted_graphs(max_p=7).filter(lambda case: case[1] >= 3))
@settings(max_examples=60, deadline=None)
def test_oracle_calls_no_lister(case):
    g, p = case
    with pytest.MonkeyPatch.context() as mp:
        for module in (congestlist, graphs, sparse_listing, cluster_pipeline, pipeline):
            for name in LISTERS:
                if hasattr(module, name):
                    mp.setattr(module, name, refuse)
        got = brute_force_list_kp(g, p)
    assert got == networkx_cliques(g, p)
