import copy
import math
import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from treeopt.enumeration import enumerate_regular
from treeopt.errors import Graph6Error, UnsupportedSizeError
from treeopt.graphs import (
    GIRTH_INFINITE,
    Graph,
    complement,
    complete_bipartite,
    complete_graph,
    count_induced_p3,
    count_triangles,
    cycle_graph,
    degree_info,
    disjoint_union,
    empty_graph,
    extend_g0,
    from_graph6,
    girth,
    girth_and_cycles,
    h_family,
    is_clique_union,
    is_connected,
    join,
    join_power,
    path_graph,
    to_graph6,
)

from conftest import (
    all_pairs,
    are_isomorphic,
    brute_cycle_count,
    brute_induced_p3,
    brute_triangles,
    graph_from_mask,
)


@st.composite
def small_graphs(draw, min_n=1, max_n=8):
    n = draw(st.integers(min_n, max_n))
    npairs = n * (n - 1) // 2
    mask = draw(st.integers(0, (1 << npairs) - 1))
    return graph_from_mask(n, mask)


# ---------------------------------------------------------------------------
# construction and basic accessors

def test_graph_validates_input():
    with pytest.raises(ValueError):
        Graph.from_edges(2, [(0, 0)])  # self loop
    with pytest.raises(ValueError):
        Graph.from_edges(2, [(0, 2)])  # out of range
    with pytest.raises(ValueError):
        Graph(2, (1, 0))  # asymmetric rows
    with pytest.raises(ValueError):
        Graph.from_edges(63, [])  # above the format limit


def test_accessors():
    g = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3)])
    assert g.n == 4 and g.m == 3
    assert g.degrees() == (1, 2, 2, 1)
    assert g.rows[1] >> 0 & 1 and not g.rows[0] >> 2 & 1


def test_relabel_moves_edges():
    g = Graph.from_edges(3, [(0, 1)])
    h = g.relabel([2, 0, 1])  # old 0 becomes 2, old 1 becomes 0
    assert h.rows[2] >> 0 & 1 and h.m == 1


def test_equality_and_hash():
    a = path_graph(4)
    b = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3)])
    assert a == b and hash(a) == hash(b)
    assert a != cycle_graph(4)


def test_pickle_and_copy_round_trip():
    g = cycle_graph(5)
    for twin in (pickle.loads(pickle.dumps(g)), copy.copy(g), copy.deepcopy(g)):
        assert twin == g and twin.rows == g.rows and twin.n == g.n
        with pytest.raises(AttributeError):
            twin.n = 4
        with pytest.raises(AttributeError):
            twin.rows = ()


def test_replace_keeps_the_checks():
    g = path_graph(3)
    assert g._replace(rows=(0b110, 0b001, 0b001)) == Graph(3, (0b110, 0b001, 0b001))
    with pytest.raises(ValueError):
        g._replace(rows=(0b010, 0b000, 0b000))  # 0 -> 1 without 1 -> 0
    with pytest.raises(UnsupportedSizeError):
        g._replace(n=0)


def test_record_hash_and_equality_on_a_class():
    members = enumerate_regular(10, 4)
    assert len(members) == len(set(members)) == 60
    for g in members:
        twin = Graph(g.n, g.rows)
        assert hash(g) == hash((g.n, g.rows)) == hash(twin)
        assert g == twin and g == (g.n, g.rows)


# ---------------------------------------------------------------------------
# graph6 codec

def test_graph6_known_values():
    # hand-computed: column-major upper triangle, 6-bit groups, offset 63
    assert to_graph6(complete_graph(4)) == "C~"
    assert to_graph6(empty_graph(4)) == "C?"
    assert to_graph6(path_graph(3)) == "Bg"
    assert to_graph6(Graph.from_edges(2, [(0, 1)])) == "A_"
    assert from_graph6("C~") == complete_graph(4)
    assert from_graph6("Bg") == path_graph(3)


def test_graph6_errors_carry_offsets():
    with pytest.raises(Graph6Error) as ei:
        from_graph6("")
    assert "offset 0" in str(ei.value)
    with pytest.raises(Graph6Error) as ei:
        from_graph6("C~?")  # extra body byte
    assert "offset 2" in str(ei.value)
    assert from_graph6("C~\n") == complete_graph(4)  # whitespace is tolerated
    with pytest.raises(Graph6Error) as ei:
        from_graph6("C")  # body missing
    assert "offset 1" in str(ei.value)
    with pytest.raises(Graph6Error):
        from_graph6("B!")  # character below the printable range
    with pytest.raises(Graph6Error) as ei:
        from_graph6("  B!")  # offsets count the leading whitespace
    assert "offset 3" in str(ei.value) and ei.value.offset == 3
    with pytest.raises(Graph6Error) as ei:
        from_graph6("B\u00e9")  # not ASCII: must not be read as '?'
    assert "offset 1" in str(ei.value)
    with pytest.raises(UnsupportedSizeError):
        from_graph6("~??~??????")  # long form starts with '~'


def test_graph6_rejects_nonzero_padding():
    # n=2 stores 1 of 6 bits; flipping a pad bit must be rejected
    bad = "A" + chr(63 + 0b000001)
    with pytest.raises(Graph6Error) as ei:
        from_graph6(bad)
    assert ei.value.offset == 1  # the last body byte


@settings(max_examples=200)
@given(small_graphs(max_n=12))
def test_graph6_round_trip(g):
    assert from_graph6(to_graph6(g)) == g


# ---------------------------------------------------------------------------
# standard constructions

def test_standard_families():
    assert complete_graph(5).m == 10
    assert cycle_graph(6).degrees() == (2,) * 6
    assert path_graph(2).m == 1
    assert complete_bipartite(3, 3).m == 9
    assert empty_graph(3).m == 0


def test_complement_involution():
    g = Graph.from_edges(5, [(0, 1), (2, 3), (3, 4)])
    assert complement(complement(g)) == g
    assert g.m + complement(g).m == 10


def test_disjoint_union_shifts_labels():
    g = disjoint_union(complete_graph(2), complete_graph(2))
    assert g == Graph.from_edges(4, [(0, 1), (2, 3)])


def test_join_adds_all_cross_edges():
    g = join(empty_graph(2), empty_graph(3))
    assert g == complete_bipartite(2, 3)
    # join of complements equals complement of union
    a, b = path_graph(3), complete_graph(2)
    assert join(a, b) == complement(disjoint_union(complement(a), complement(b)))


def test_join_power():
    assert join_power(empty_graph(5), 2) == complete_bipartite(5, 5)
    assert join_power(complete_graph(2), 3) == complete_graph(6)
    with pytest.raises(ValueError):
        join_power(empty_graph(2), 0)


def test_extend_g0_checks_degrees():
    # seed degrees must sit in {d-1, d}
    g0 = cycle_graph(4)
    out = extend_g0(g0, 2, 2, 1)
    assert out.n == 4 + 2 * 3 + 1 * 2
    counts = sorted(out.degrees())
    assert set(counts) <= {1, 2}
    with pytest.raises(ValueError):
        extend_g0(path_graph(4), 3, 1, 1)  # path has degree-1 vertices, d-1 = 2


# ---------------------------------------------------------------------------
# H family

def test_h_family_small_members():
    assert h_family(5) == empty_graph(5)
    info = degree_info(h_family(6))
    assert info.is_regular and h_family(6).degrees() == (1,) * 6
    assert are_isomorphic(h_family(7), cycle_graph(7))
    assert are_isomorphic(h_family(10), complete_bipartite(5, 5))


def test_h_family_regular_degree():
    for n in range(5, 14):
        g = h_family(n)
        assert g.n == n
        assert g.degrees() == (n - 5,) * n, n


def test_h8_h9_shape():
    h8 = h_family(8)
    assert h8.m == 12 and girth(h8) == 4
    h9 = h_family(9)
    assert h9.m == 18 and h9.degrees() == (4,) * 9


def test_h_family_rejects_small_n():
    with pytest.raises(ValueError):
        h_family(4)


# ---------------------------------------------------------------------------
# counting invariants

def test_triangle_and_p3_counts_match_brute_force():
    samples = [
        complete_graph(5), cycle_graph(6), path_graph(6),
        complete_bipartite(3, 3), h_family(8),
        Graph.from_edges(6, [(0, 1), (0, 2), (1, 2), (2, 3), (3, 4), (3, 5)]),
    ]
    for mask in range(0, 1 << 10, 37):  # spread of 5-vertex graphs
        samples.append(graph_from_mask(5, mask))
    for g in samples:
        assert count_triangles(g) == brute_triangles(g)
        assert count_induced_p3(g) == brute_induced_p3(g)


def test_connectivity():
    assert is_connected(cycle_graph(4))
    assert not is_connected(disjoint_union(complete_graph(2), complete_graph(3)))
    assert not is_connected(disjoint_union(complete_graph(2), empty_graph(1)))
    assert is_connected(complete_graph(1))


def test_is_clique_union():
    assert is_clique_union(disjoint_union(complete_graph(3), complete_graph(2)))
    assert is_clique_union(empty_graph(4))  # K_1 components
    assert not is_clique_union(path_graph(3))
    assert not is_clique_union(cycle_graph(4))


def reference_components(g):
    """Vertex lists of the components, by a breadth-first search over lists."""
    adj = [[u for u in range(g.n) if g.rows[v] >> u & 1] for v in range(g.n)]
    comps, seen = [], set()
    for s in range(g.n):
        if s in seen:
            continue
        comp, queue = [s], [s]
        seen.add(s)
        while queue:
            for u in adj[queue.pop(0)]:
                if u not in seen:
                    seen.add(u)
                    comp.append(u)
                    queue.append(u)
        comps.append(comp)
    return comps


def reference_graph6(g):
    """graph6 one pair at a time: pairs (i, j), i < j, ordered by j then i."""
    bits = [g.rows[i] >> j & 1 for j in range(1, g.n) for i in range(j)]
    bits += [0] * (-len(bits) % 6)
    groups = [bits[k:k + 6] for k in range(0, len(bits), 6)]
    return chr(63 + g.n) + "".join(chr(63 + int("".join(map(str, b)), 2)) for b in groups)


def test_bitset_queries_match_references_on_every_small_graph():
    # every labeled graph on 1..6 vertices, against definitions that share no code
    for n in range(1, 7):
        pairs = all_pairs(n)
        base = list(range(1, n, 2)) + list(range(0, n, 2))
        for mask in range(1 << len(pairs)):
            g = graph_from_mask(n, mask)
            comps = reference_components(g)
            assert is_connected(g) == (len(comps) == 1), (n, mask)
            cliques = all(g.rows[u] >> v & 1 for c in comps for u in c for v in c if u != v)
            assert is_clique_union(g) == cliques, (n, mask)
            assert count_triangles(g) == brute_triangles(g), (n, mask)
            assert to_graph6(g) == reference_graph6(g), (n, mask)
            perm = [(p + mask) % n for p in base]
            edges = [(perm[u], perm[v]) for u, v in pairs if g.rows[u] >> v & 1]
            assert g.relabel(perm) == Graph.from_edges(n, edges), (n, mask)


# ---------------------------------------------------------------------------
# girth and cycle counts

def test_girth_values():
    assert girth(path_graph(5)) == GIRTH_INFINITE
    assert girth(empty_graph(3)) == math.inf
    assert girth(cycle_graph(5)) == 5
    assert girth(complete_graph(4)) == 3
    assert girth(complete_bipartite(2, 3)) == 4
    assert girth(h_family(8)) == 4


def test_girth_against_brute_force(classes_by_n):
    # the least length with a cycle, over every class on up to 7 vertices
    for n, pool in classes_by_n.items():
        for g in pool:
            least = next((L for L in range(3, n + 1) if brute_cycle_count(g, L) > 0), math.inf)
            assert girth(g) == least, to_graph6(g)


def test_cycle_census_against_brute_force(classes_by_n):
    for n in range(3, 7):
        for g in classes_by_n[n]:
            expect = tuple(brute_cycle_count(g, L) for L in range(3, n + 1))
            assert girth_and_cycles(g, n)[1] == expect, to_graph6(g)


def test_girth_and_cycles_against_brute_force():
    cube = Graph.from_edges(8, [(0, 1), (1, 2), (2, 3), (3, 0),
                                (4, 5), (5, 6), (6, 7), (7, 4),
                                (0, 4), (1, 5), (2, 6), (3, 7)])
    for g in [complete_graph(4), cycle_graph(5), complete_bipartite(3, 3),
              h_family(8), cube, path_graph(4)]:
        gir, counts = girth_and_cycles(g, min(7, g.n))
        assert gir == girth(g)
        expect = tuple(brute_cycle_count(g, L) for L in range(3, min(7, g.n) + 1))
        assert counts == expect, to_graph6(g)


def test_cycle_census_r38():
    # frozen census: every 3-regular class on 8 vertices, lengths 3..7
    from treeopt.enumeration import enumerate_regular

    censuses = sorted(girth_and_cycles(g, 7)[1] for g in enumerate_regular(8, 3))
    assert censuses == [
        (0, 4, 8, 4, 8),     # h_family(8)
        (0, 6, 0, 16, 0),    # the cube
        (1, 3, 6, 6, 6),
        (2, 2, 4, 7, 8),
        (4, 2, 0, 4, 8),
        (8, 6, 0, 0, 0),     # 2K_4
    ]
    assert girth_and_cycles(h_family(8), 7)[1] == (0, 4, 8, 4, 8)


def test_girth_and_cycles_window_validation():
    with pytest.raises(ValueError):
        girth_and_cycles(complete_graph(4), 2)
    with pytest.raises(ValueError):
        girth_and_cycles(complete_graph(4), 5)  # beyond n


@settings(max_examples=60)
@given(small_graphs(min_n=3, max_n=7))
def test_cycle_counts_match_brute_force(g):
    _, counts = girth_and_cycles(g, g.n)
    assert counts == tuple(brute_cycle_count(g, L) for L in range(3, g.n + 1))


def test_degree_info_flags():
    assert degree_info(cycle_graph(4)).is_regular
    info = degree_info(path_graph(4))
    assert info.is_almost_regular and not info.is_regular
    assert not degree_info(Graph.from_edges(4, [(0, 1), (0, 2), (0, 3)])).is_almost_regular
