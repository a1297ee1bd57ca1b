"""The paper's chain, class by class: t-optimal graphs are the complements
of trace-minimal ones.

The two sides share no deciding code. One ranks every member of the dense
class by its Bareiss tree count (Petingi and Rodriguez, Discrete Math. 244,
2002). The other selects the Laplacian trace lex minima of the sparse class
and maps their complements through `canonical_relabel` (Abrego et al.,
Linear Algebra Appl. 412, 2006). Both sides are computed here; no graph6
list is pinned.
"""
from treeopt.enumeration import canonical_form, enumerate_by_edges, enumerate_regular, ladder_level
from treeopt.graphs import complement, is_connected, to_graph6
from treeopt.linalg import spanning_tree_count
from treeopt.sequences import LAPLACIAN, select_lex_minima


def t_maximal(members) -> set[str]:
    scores = [spanning_tree_count(g) for g in members]
    top = max(scores)
    return {to_graph6(g) for g, t in zip(members, scores) if t == top}


def complements(graphs) -> set[str]:
    return {canonical_form(complement(g)) for g in graphs}


def test_t_maximal_regular_graphs_are_complements_of_laplacian_lex_minima():
    pairs = 0
    for n in range(4, 12):
        for d in range(n):
            if n * d % 2:
                continue
            lex_minima = select_lex_minima(enumerate_regular(n, d), LAPLACIAN)
            assert t_maximal(enumerate_regular(n, n - 1 - d)) == complements(lex_minima), (n, d)
            pairs += 1
    assert pairs == 46


def test_t_maximal_edge_class_members_are_complements_of_the_ladder():
    ties = []
    for n in range(1, 9):
        total = n * (n - 1) // 2
        for m in range(total // 2 + 1):
            dense = enumerate_by_edges(n, total - m)
            if not any(is_connected(g) for g in dense):
                continue
            best = t_maximal(dense)
            chosen = complements(ladder_level(n, m, n))
            if best != chosen:
                # the ladder breaks a tie that the tree count leaves
                assert chosen < best, (n, m)
                ties.append((n, m))
    # two trees on four vertices, the path and the star, tie at t = 1
    assert ties == [(4, 3)]
