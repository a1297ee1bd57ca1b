import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from treeopt import sequences
from treeopt.cli import main
from treeopt.enumeration import enumerate_by_edges, enumerate_regular
from treeopt.errors import InternalConsistencyError
from treeopt.graphs import (
    Graph,
    complete_bipartite,
    complete_graph,
    count_induced_p3,
    cycle_graph,
    disjoint_union,
    from_graph6,
    is_clique_union,
    path_graph,
    to_graph6,
)
from treeopt.linalg import adjacency_matrix, laplacian, trace_powers
from treeopt.sequences import (
    ADJACENCY,
    LAPLACIAN,
    _trace_prefix,
    degree_power_floor,
    gap_sequence,
    lex_divergence,
    mixed_trace_identity_check,
    select_lex_minima,
    trace_sequence,
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
    assert trace_sequence(cycle_graph(6), LAPLACIAN, 3)[2] == 120
    assert trace_sequence(two_c3, LAPLACIAN, 3)[2] == 108
    assert trace_sequence(prism(), LAPLACIAN, 3)[2] == 312
    assert trace_sequence(complete_bipartite(3, 3), LAPLACIAN, 3)[2] == 324
    assert trace_sequence(cycle_graph(6), ADJACENCY, 3)[2] == 0
    assert trace_sequence(two_c3, ADJACENCY, 3)[2] == 12


@settings(max_examples=40)
@given(st.integers(2, 6), st.integers(0, (1 << 15) - 1), st.integers(1, 5))
def test_traces_match_naive_matrix_power(n, mask, k):
    g = graph_from_mask(n, mask & ((1 << (n * (n - 1) // 2)) - 1))
    assert (trace_sequence(g, LAPLACIAN, k)[k - 1]
            == naive_trace_power([list(r) for r in laplacian(g).rows], k))
    assert (trace_sequence(g, ADJACENCY, k)[k - 1]
            == naive_trace_power([list(r) for r in adjacency_matrix(g).rows], k))


@settings(max_examples=60)
@given(st.integers(1, 9), st.integers(0, (1 << 36) - 1), st.integers(1, 4))
def test_bitset_trace_prefix_matches_matrix_powers(n, mask, cutoff):
    # the route that settles indices 1..4 in `select_lex_minima` against
    # IntMatrix products and against plain nested-loop products
    g = graph_from_mask(n, mask & ((1 << (n * (n - 1) // 2)) - 1))
    for kind, mat in ((ADJACENCY, adjacency_matrix(g)), (LAPLACIAN, laplacian(g))):
        prefix = _trace_prefix(g, kind, cutoff)
        assert prefix == tuple(trace_powers(mat, cutoff))
        rows = [list(r) for r in mat.rows]
        assert prefix == tuple(naive_trace_power(rows, k) for k in range(1, cutoff + 1))


def test_sequences_match_trace_powers_past_the_prefix():
    # k runs past the bitset prefix (k <= 4) into the products; C5 + C5
    # ties with C10 in R_2(10) through k = 4, so selection reads that tail
    c5c5 = disjoint_union(cycle_graph(5), cycle_graph(5))
    graphs = [from_graph6("@"), *enumerate_regular(8, 3), c5c5]
    for g in graphs:
        k = g.n + 2
        lap = tuple(trace_powers(laplacian(g), k))
        assert trace_sequence(g, ADJACENCY, k) == tuple(trace_powers(adjacency_matrix(g), k))
        assert trace_sequence(g, LAPLACIAN, k) == lap
        assert gap_sequence(g, k) == tuple(v - degree_power_floor(g, i)
                                           for i, v in enumerate(lap, start=1))
        for kind in (ADJACENCY, LAPLACIAN):
            with pytest.raises(ValueError):
                trace_sequence(g, kind, 0)
        with pytest.raises(ValueError):
            gap_sequence(g, 0)


def test_trace_sequence_refuses_an_unknown_kind():
    for cutoff in (3, 6):  # inside the bitset prefix, and past it
        with pytest.raises(ValueError, match="'spectral'"):
            trace_sequence(cycle_graph(6), "spectral", cutoff)


def test_gap_sequence_known():
    assert gap_sequence(path_graph(3), 4) == (0, 0, 2, 12)
    assert gap_sequence(complete_graph(4), 6) == (0,) * 6  # clique


def test_gaps_that_do_not_vanish_are_an_internal_fault(monkeypatch, capsys):
    real = _trace_prefix

    def off_by_two(g, kind, upto):  # tr L^2 off by 2
        traces = list(real(g, kind, upto))
        if kind == LAPLACIAN and upto >= 2:
            traces[1] += 2
        return tuple(traces)

    monkeypatch.setattr(sequences, "_trace_prefix", off_by_two)
    with pytest.raises(InternalConsistencyError, match="gap at index 2 is 2, expected 0"):
        gap_sequence(cycle_graph(5), 4)
    assert main(["gaps", "--k", "4", "--g6", to_graph6(cycle_graph(5))]) == 4
    assert capsys.readouterr() == ("", "internal fault: gap at index 2 is 2, expected 0\n")


def test_gap_identities_on_samples():
    for mask in range(0, 1 << 10, 7):
        g = graph_from_mask(5, mask)
        gaps = gap_sequence(g, 6)
        assert gaps[0] == 0 and gaps[1] == 0
        assert gaps[2] == 2 * count_induced_p3(g)
        assert all(v >= 0 for v in gaps)
        assert (all(v == 0 for v in gaps)) == is_clique_union(g)


def test_degree_power_floor():
    g = path_graph(3)  # degrees 1, 2, 1
    assert degree_power_floor(g, 1) == 4
    assert degree_power_floor(g, 3) == 2 * 4 + 2 * 9


def test_select_lex_minima_adjacency():
    assert select_lex_minima([cycle_graph(6), two_c3], ADJACENCY) == [cycle_graph(6)]
    assert lex_divergence(cycle_graph(6), cycle_graph(6), ADJACENCY) is None
    assert lex_divergence(two_c3, cycle_graph(6), ADJACENCY) == (3, 12, 0)


def test_select_lex_minima_laplacian():
    assert select_lex_minima([cycle_graph(6), two_c3], LAPLACIAN) == [two_c3]
    assert lex_divergence(cycle_graph(6), two_c3, LAPLACIAN) == (3, 120, 108)


def test_select_lex_minima_keeps_ties():
    minima = select_lex_minima([cycle_graph(5), cycle_graph(5)], ADJACENCY)
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
    with pytest.raises(ValueError):
        lex_divergence(cycle_graph(4), cycle_graph(5), ADJACENCY)
    with pytest.raises(ValueError):
        lex_divergence(cycle_graph(5), path_graph(5), "spectral")


def _reference_lex_minima(pool, kind, cutoff=None):
    """Full sequences for every member, each compared with the overall least
    at the first index where the two differ: the minima, and per member None
    or (that index, its value, the least value there)."""
    seqs = [trace_sequence(g, kind, cutoff or g.n) for g in pool]
    least = min(seqs)
    minima, divergences = [], []
    for g, seq in zip(pool, seqs):
        k = next((i for i, (a, b) in enumerate(zip(seq, least), start=1) if a != b), None)
        if k is None:
            minima.append(g)
            divergences.append(None)
        else:
            assert seq[k - 1] > least[k - 1]
            divergences.append((k, seq[k - 1], least[k - 1]))
    return minima, divergences


def test_select_lex_minima_matches_full_sequences():
    classes = [enumerate_regular(n, d) for n in range(1, 9) for d in range(n)]
    classes += [enumerate_by_edges(6, m) for m in range(16)]
    # the only regular classes with n <= 10 that keep two members tied after
    # k = 4: C10 and C5 + C5 in R_2(10) for the adjacency kind, and their
    # complements in R_7(10) for the Laplacian kind, so the product tail runs
    tied = [enumerate_regular(10, 2), enumerate_regular(10, 7)]
    for pool, kind in zip(tied, (ADJACENCY, LAPLACIAN)):
        prefixes = [_trace_prefix(g, kind, 4) for g in pool]
        assert prefixes.count(min(prefixes)) == 2
    checked = 0
    for pool in classes + tied:
        if not pool:
            continue  # odd degree sum
        for kind in (ADJACENCY, LAPLACIAN):
            minima, divergences = _reference_lex_minima(pool, kind)
            assert select_lex_minima(pool, kind) == minima
            for g, want in zip(pool, divergences):
                assert lex_divergence(g, minima[0], kind) == want
            checked += len(pool)
    # regular classes n <= 8, every graph on 6 vertices, R_2(10) and R_7(10)
    assert checked == 2 * (48 + 156 + 5 + 5)


def test_select_lex_minima_one_member_and_short_cutoffs():
    pool = enumerate_regular(8, 3)
    for kind in (ADJACENCY, LAPLACIAN):
        assert select_lex_minima(pool[:1], kind) == [pool[0]]
        for cutoff in (1, 2, 3, 4, 5):
            assert (select_lex_minima(pool, kind, cutoff)
                    == _reference_lex_minima(pool, kind, cutoff)[0])


def test_mixed_trace_identity_regular():
    lhs, rhs, ok = mixed_trace_identity_check(cycle_graph(5), 2, 1)
    assert (lhs, rhs, ok) == (90, 90, True)
    for i in range(1, 5):
        for j in range(1, 3):
            assert mixed_trace_identity_check(prism(), i, j)[2]


def test_mixed_trace_requires_regular():
    with pytest.raises(ValueError):
        mixed_trace_identity_check(path_graph(3), 2, 1)
    with pytest.raises(ValueError):
        mixed_trace_identity_check(cycle_graph(5), 0, 0)  # i must be >= 1
