import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from treeopt.enumeration import enumerate_by_edges, enumerate_regular
from treeopt.graphs import (
    Graph,
    complete_bipartite,
    complete_graph,
    count_induced_p3,
    cycle_graph,
    disjoint_union,
    is_clique_union,
    path_graph,
)
from treeopt.linalg import adjacency_matrix, laplacian
from treeopt.sequences import (
    ADJACENCY,
    LAPLACIAN,
    adjacency_sequence,
    degree_power_floor,
    gap_sequence,
    laplacian_sequence,
    lex_compare,
    mixed_trace_identity_check,
    nu,
    select_lex_minima,
)

from conftest import graph_from_mask


def naive_trace_power(rows, k):
    """Plain nested-loop matrix power trace, independent of IntMatrix."""
    n = len(rows)
    acc = [row[:] for row in rows]
    for _ in range(k - 1):
        nxt = [[sum(acc[i][t] * rows[t][j] for t in range(n)) for j in range(n)]
               for i in range(n)]
        acc = nxt
    return sum(acc[i][i] for i in range(n))


def prism():
    return Graph.from_edges(6, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3),
                                (0, 3), (1, 4), (2, 5)])


two_c3 = disjoint_union(cycle_graph(3), cycle_graph(3))


def test_frozen_third_traces():
    assert laplacian_sequence(cycle_graph(6), 3).values[2] == 120
    assert laplacian_sequence(two_c3, 3).values[2] == 108
    assert laplacian_sequence(prism(), 3).values[2] == 312
    assert laplacian_sequence(complete_bipartite(3, 3), 3).values[2] == 324
    assert adjacency_sequence(cycle_graph(6), 3).values[2] == 0
    assert adjacency_sequence(two_c3, 3).values[2] == 12


@settings(max_examples=40)
@given(st.integers(2, 6), st.integers(0, (1 << 15) - 1), st.integers(1, 5))
def test_traces_match_naive_matrix_power(n, mask, k):
    g = graph_from_mask(n, mask & ((1 << (n * (n - 1) // 2)) - 1))
    assert (laplacian_sequence(g, k).values[k - 1]
            == naive_trace_power([list(r) for r in laplacian(g).rows], k))
    assert (adjacency_sequence(g, k).values[k - 1]
            == naive_trace_power([list(r) for r in adjacency_matrix(g).rows], k))


def test_gap_sequence_known():
    gaps = gap_sequence(path_graph(3), 4)
    assert gaps.values == (0, 0, 2, 12)
    assert gap_sequence(complete_graph(4), 6).values == (0,) * 6  # clique


def test_gap_identities_on_samples():
    for mask in range(0, 1 << 10, 7):
        g = graph_from_mask(5, mask)
        gaps = gap_sequence(g, 6)
        assert gaps.values[0] == 0 and gaps.values[1] == 0
        assert gaps.values[2] == 2 * nu(g)
        assert all(v >= 0 for v in gaps.values)
        assert (all(v == 0 for v in gaps.values)) == is_clique_union(g)


def test_degree_power_floor():
    g = path_graph(3)  # degrees 1, 2, 1
    assert degree_power_floor(g, 1) == 4
    assert degree_power_floor(g, 3) == 2 * 4 + 2 * 9


def test_nu_alias():
    g = graph_from_mask(6, 0b101011101)
    assert nu(g) == count_induced_p3(g)


def test_lex_compare():
    c6 = adjacency_sequence(cycle_graph(6), 6)
    cc = adjacency_sequence(two_c3, 6)
    v = lex_compare(c6, cc)
    assert v.relation == "LESS" and v.divergence_index == 3
    assert lex_compare(c6, c6).relation == "EQUAL"
    assert lex_compare(c6, c6).divergence_index is None
    with pytest.raises(ValueError):
        lex_compare(c6, laplacian_sequence(cycle_graph(6), 6))
    with pytest.raises(ValueError):
        lex_compare(c6, adjacency_sequence(cycle_graph(6), 5))


def test_select_lex_minima_adjacency():
    minima, records = select_lex_minima([cycle_graph(6), two_c3], ADJACENCY)
    assert minima == [cycle_graph(6)]
    assert records[0]["relation"] == "EQUAL"
    assert records[1] == {"relation": "GREATER", "divergence_index": 3,
                          "value": 12, "minimum_value": 0}


def test_select_lex_minima_laplacian():
    minima, records = select_lex_minima([cycle_graph(6), two_c3], LAPLACIAN)
    assert minima == [two_c3]
    assert records[0]["divergence_index"] == 3
    assert records[0]["value"] == 120 and records[0]["minimum_value"] == 108


def test_select_lex_minima_keeps_ties():
    minima, _ = select_lex_minima([cycle_graph(5), cycle_graph(5)], ADJACENCY)
    assert len(minima) == 2


def test_select_lex_minima_validation():
    with pytest.raises(ValueError):
        select_lex_minima([], ADJACENCY)
    with pytest.raises(ValueError):
        select_lex_minima([cycle_graph(4), cycle_graph(5)], ADJACENCY)
    with pytest.raises(ValueError):
        select_lex_minima([cycle_graph(5)], "spectral")
    for cutoff in (0, -1):
        with pytest.raises(ValueError):
            select_lex_minima([cycle_graph(5), path_graph(5)], LAPLACIAN, cutoff)


def _reference_lex_minima(pool, kind):
    """Full sequences for every member, each compared with the overall least."""
    sequence = adjacency_sequence if kind == ADJACENCY else laplacian_sequence
    seqs = [sequence(g, g.n) for g in pool]
    least = min(seqs, key=lambda s: s.values)
    minima, records = [], []
    for g, seq in zip(pool, seqs):
        verdict = lex_compare(seq, least)
        assert verdict.relation != "LESS"
        k = verdict.divergence_index
        if k is None:
            minima.append(g)
        records.append({"relation": verdict.relation, "divergence_index": k,
                        "value": None if k is None else seq.values[k - 1],
                        "minimum_value": None if k is None else least.values[k - 1]})
    return minima, records


def test_select_lex_minima_matches_full_sequences():
    classes = [enumerate_regular(n, d).graphs for n in range(1, 9) for d in range(n)]
    classes += [enumerate_by_edges(6, m).graphs for m in range(16)]
    checked = 0
    for pool in classes:
        if not pool:
            continue  # odd degree sum
        for kind in (ADJACENCY, LAPLACIAN):
            assert select_lex_minima(pool, kind) == _reference_lex_minima(pool, kind)
            checked += len(pool)
    assert checked == 2 * (48 + 156)  # regular classes n <= 8, and every graph on 6 vertices


def test_mixed_trace_identity_regular():
    lhs, rhs, ok = mixed_trace_identity_check(cycle_graph(5), 2, 1)
    assert (lhs, rhs, ok) == (90, 90, True)
    for i in range(1, 5):
        for j in range(1, 3):
            assert mixed_trace_identity_check(prism(), i, j)[2]


def test_mixed_trace_requires_regular():
    with pytest.raises(ValueError):
        mixed_trace_identity_check(path_graph(3), 2, 1)


def test_sequence_kind_tags():
    assert adjacency_sequence(complete_graph(3), 2).kind == ADJACENCY
    assert laplacian_sequence(complete_graph(3), 2).kind == LAPLACIAN
    assert laplacian_sequence(complete_graph(3), 4).cutoff == 4
