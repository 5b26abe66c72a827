import itertools

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from congestlist.graphs import (
    Graph,
    brute_force_list_kp,
    complete,
    decode_cliques,
    degeneracy_orient,
    encode_cliques,
    empty,
    gnp,
    is_clique,
    norm_edge,
    parse_gen_spec,
    planted,
    planted_cliques,
    read_edge_list,
    rooted_cliques,
    write_edge_list,
)


def exact_degeneracy(g: Graph) -> int:
    """Independent oracle: iterated min-degree removal, naive O(n^2)."""
    alive = set(range(g.n))
    deg = {u: g.degree(u) for u in alive}
    best = 0
    while alive:
        u = min(alive, key=lambda x: (deg[x], x))
        best = max(best, deg[u])
        alive.remove(u)
        for v in g.neighbors(u):
            if v in alive:
                deg[v] -= 1
    return best


def subsets_oracle(g: Graph, p: int) -> set[tuple[int, ...]]:
    """Independent oracle: test every p-subset of the nodes."""
    return {
        combo
        for combo in itertools.combinations(range(g.n), p)
        if all(g.has_edge(a, b) for a, b in itertools.combinations(combo, 2))
    }


def small_graphs():
    return st.builds(
        lambda n, pairs: Graph(
            n, frozenset(norm_edge(u % n, v % n) for u, v in pairs if u % n != v % n)
        ),
        st.integers(min_value=2, max_value=12),
        st.lists(st.tuples(st.integers(0, 11), st.integers(0, 11)), max_size=40),
    )


class TestGenerators:
    def test_complete_edge_count(self):
        assert complete(6).m == 15

    def test_gnp_zero_density(self):
        assert gnp(100, 0.0, 123).m == 0

    def test_gnp_full_density(self):
        assert gnp(20, 1.0, 5).m == 190

    def test_gnp_deterministic(self):
        a, b = gnp(64, 0.3, 7), gnp(64, 0.3, 7)
        assert a.edges == b.edges
        assert gnp(64, 0.3, 8).edges != a.edges

    def test_planted_cliques_found_by_oracle(self):
        g = planted(40, 5, 3, 0.05, seed=2)
        found = brute_force_list_kp(g, 5)
        for clique in planted_cliques(40, 5, 3, seed=2):
            assert clique in found

    def test_planted_rejects_overfull(self):
        with pytest.raises(ValueError):
            planted(10, 4, 3, 0.1, seed=0)

    def test_parse_gen_spec(self):
        assert parse_gen_spec("complete:6").m == 15
        assert parse_gen_spec("empty:9").n == 9
        assert parse_gen_spec("gnp:32:0.25:7").edges == gnp(32, 0.25, 7).edges
        with pytest.raises(ValueError):
            parse_gen_spec("mystery:3")
        with pytest.raises(ValueError):
            parse_gen_spec("gnp:32")


class TestDegeneracyOrient:
    def test_empty_graph(self):
        _, cert = degeneracy_orient(empty(5))
        assert cert.max_out_degree == 0

    def test_complete_k4(self):
        g, cert = degeneracy_orient(complete(4))
        assert cert.max_out_degree == 3
        assert g.max_out_degree() <= 3

    def test_matches_exact_degeneracy(self):
        g = gnp(32, 0.25, seed=7)
        _, cert = degeneracy_orient(g)
        assert cert.max_out_degree == exact_degeneracy(g)

    def test_out_degrees_bounded_by_certificate(self):
        for seed in (1, 2, 3):
            g = gnp(48, 0.2, seed)
            og, cert = degeneracy_orient(g)
            assert og.edges == g.edges
            assert all(og.out_degree(u) <= cert.max_out_degree for u in range(og.n))

    @given(small_graphs())
    @settings(max_examples=60, deadline=None)
    def test_certificate_property(self, g):
        og, cert = degeneracy_orient(g)
        assert cert.max_out_degree == exact_degeneracy(g)
        assert all(og.out_degree(u) <= cert.max_out_degree for u in range(og.n))
        assert sorted(cert.peel_order) == list(range(g.n))


class TestBruteForce:
    def test_k5_has_five_k4(self):
        assert len(brute_force_list_kp(complete(5), 4)) == 5

    def test_triangle_free_graph(self):
        # 4-cycle has no triangle
        g = Graph(4, frozenset({(0, 1), (1, 2), (2, 3), (0, 3)}))
        assert brute_force_list_kp(g, 3) == set()

    def test_against_subset_enumeration(self):
        g = gnp(20, 0.5, seed=1)
        assert brute_force_list_kp(g, 4) == subsets_oracle(g, 4)

    def test_rejects_small_p(self):
        with pytest.raises(ValueError):
            brute_force_list_kp(complete(4), 2)

    @given(small_graphs(), st.integers(3, 5))
    @settings(max_examples=60, deadline=None)
    def test_outputs_are_cliques_and_complete(self, g, p):
        got = brute_force_list_kp(g, p)
        assert got == subsets_oracle(g, p)
        for inst in got:
            assert list(inst) == sorted(set(inst))
            assert is_clique(g, inst)


class TestRootedCliques:
    def test_k5_roots(self):
        # node v is the smallest member of C(4 - v, 3) of the five K_4
        adj = complete(5).adj_masks
        assert [len(rooted_cliques(adj, 4, v)) for v in range(5)] == [4, 1, 0, 0, 0]
        assert rooted_cliques(adj, 4, 1) == [(1, 2, 3, 4)]

    def test_rejects_small_p(self):
        with pytest.raises(ValueError):
            rooted_cliques(complete(4).adj_masks, 1, 0)


def sorted_clique_lists():
    """Sorted lists of distinct increasing p-tuples, p from 2 to 6, with
    node IDs up to 2^31."""
    def of_size(p):
        clique = st.lists(st.integers(0, 2**31), min_size=p, max_size=p,
                          unique=True).map(lambda xs: tuple(sorted(xs)))
        return st.lists(clique, max_size=30, unique=True).map(sorted)
    return st.integers(2, 6).flatmap(of_size)


class TestCliqueEncoding:
    def test_k4_strings(self):
        assert encode_cliques([(0, 1, 2, 3), (7, 12, 130, 2**31)]) == [
            "0 1 2 3", "7 12 130 2147483648"]

    @given(sorted_clique_lists())
    @example([])
    @settings(max_examples=80, deadline=None)
    def test_round_trip(self, cliques):
        assert decode_cliques(encode_cliques(cliques)) == cliques

    def test_mixed_sizes_raise(self):
        with pytest.raises(TypeError):
            encode_cliques([(0, 1, 2), (0, 1, 2, 3)])


class TestIO:
    def test_round_trip_without_orientation(self, tmp_path):
        g = gnp(30, 0.3, 11)
        path = tmp_path / "g.edges"
        write_edge_list(g, str(path))
        h = read_edge_list(str(path))
        assert h.n == g.n and h.edges == g.edges and h.orientation is None

    def test_round_trip_with_orientation(self, tmp_path):
        g, _ = degeneracy_orient(gnp(30, 0.3, 11))
        path = tmp_path / "g.edges"
        write_edge_list(g, str(path))
        h = read_edge_list(str(path))
        assert h.edges == g.edges
        assert all(h.tail(e) == g.tail(e) for e in g.edges)

    def test_rejects_bad_header(self, tmp_path):
        path = tmp_path / "bad.edges"
        path.write_text("3\n0 1\n")
        with pytest.raises(ValueError):
            read_edge_list(str(path))

    @pytest.mark.parametrize("text, what", [
        ("3\n0 1\n", "expected header 'n m'"),
        ("a b\n", "must be integers"),
        ("-4 0\n", "must be >= 0"),
        ("4 -1\n", "must be >= 0"),
    ])
    def test_bad_header_names_file_and_line(self, tmp_path, text, what):
        path = tmp_path / "bad.edges"
        path.write_text(text)
        with pytest.raises(ValueError) as info:
            read_edge_list(str(path))
        assert f"{path}, line 1:" in str(info.value)
        assert what in str(info.value)

    @pytest.mark.parametrize("text, line, what", [
        ("3 3\n0 1\n1 2\n2 1\n", 4, "duplicate edge"),
        ("3 2\n0 1\n\n2 2\n", 4, "self-loop"),
        ("3 2\n0 1\n1 3\n", 3, "outside 0..2"),
        ("3 2\n0 1\n1\n", 3, "expected 'u v [tail]'"),
        ("3 2\n0 1\n1 x\n", 3, "must be integers"),
        ("3 2\n0 1 1\n1 2 0\n", 3, "tail 0 is not an endpoint"),
    ])
    def test_bad_edge_line_names_file_and_line(self, tmp_path, text, line, what):
        path = tmp_path / "bad.edges"
        path.write_text(text)
        with pytest.raises(ValueError) as info:
            read_edge_list(str(path))
        assert f"{path}, line {line}:" in str(info.value)
        assert what in str(info.value)


class TestGraphInvariants:
    def test_rejects_self_loop(self):
        with pytest.raises(ValueError):
            norm_edge(3, 3)

    @pytest.mark.parametrize("make", [
        lambda: Graph(-2, frozenset()), lambda: empty(-2), lambda: complete(-3),
        lambda: gnp(-5, 0.3, 1),
    ])
    def test_rejects_negative_node_count(self, make):
        with pytest.raises(ValueError, match="node count"):
            make()

    def test_rejects_out_of_range_edge(self):
        with pytest.raises(ValueError):
            Graph(3, frozenset({(0, 5)}))

    def test_rejects_foreign_tail(self):
        with pytest.raises(ValueError):
            Graph(3, frozenset({(0, 1)}), {(0, 1): 2})
