"""networkx as a second, independent oracle: for the slot-restricted
listing that every canonical holder runs, and for brute_force_list_kp."""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from congestlist.graphs import Graph, brute_force_list_kp
from congestlist.sparse_listing import holder_cliques

nx = pytest.importorskip("networkx")


@st.composite
def partitioned_graphs(draw):
    """A clique size 2 <= p <= 6, a graph on at most 12 nodes holding a
    planted clique of at least min(n, p) nodes, and its nodes split into
    1-5 parts, some possibly empty."""
    p = draw(st.integers(2, 6))
    n = draw(st.integers(0, 12))
    planted = draw(st.sets(st.integers(0, max(0, n - 1)), min_size=min(n, p), max_size=n))
    pairs = list(itertools.combinations(range(n), 2))
    keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    g = Graph(n, frozenset(e for e, kept in zip(pairs, keep)
                           if kept or set(e) <= planted))
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
