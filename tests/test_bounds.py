import random
from fractions import Fraction

import pytest

import treeopt.bounds as bounds
from treeopt.bounds import (
    CERTIFIED_BY_CYCLE_COUNTS,
    CERTIFIED_UNIQUE,
    INCONCLUSIVE,
    abrego_feasibility,
    base_bound,
    f_of,
    family_tree_count,
    girth_certificate,
    improved_bound,
    n0_threshold,
)
from treeopt.enumeration import canonical_relabel, enumerate_regular
from treeopt.errors import InternalConsistencyError
from treeopt.graphs import (
    Graph,
    complement,
    complete_bipartite,
    complete_graph,
    cycle_graph,
    disjoint_union,
    empty_graph,
    extend_g0,
    h_family,
    is_clique_union,
    is_connected,
    path_graph,
)
from treeopt.linalg import spanning_tree_count
from treeopt.sequences import ADJACENCY, LAPLACIAN, trace_sequence

from conftest import graph_from_mask

REL = 1e-9

two_c3 = disjoint_union(cycle_graph(3), cycle_graph(3))
two_k2 = disjoint_union(complete_graph(2), complete_graph(2))


# ---------------------------------------------------------------------------
# the degree product factor

def test_f_of_values():
    assert f_of((1, 1, 1, 1), 4) == pytest.approx(0.25, rel=1e-12)
    assert f_of((0, 0, 0), 5) == 1.0  # isolated vertices contribute nothing
    assert f_of((2, 2), 3) == 0.0  # a factor hits zero exactly
    with pytest.raises(ValueError):
        f_of((3, 3), 2)  # negative base has no real fractional power


# ---------------------------------------------------------------------------
# base and improved bounds

def test_base_bound_equality_case():
    rep = base_bound(two_k2)
    assert rep.exact_t == 4  # complement is C_4
    assert rep.bound_value == pytest.approx(4.0, rel=1e-12)
    assert rep.equality_flag and rep.connected_complement
    assert rep.c_used == 3
    assert abs(rep.slack) <= REL * rep.exact_t


def test_bound_dominates_exact_count_on_sweep():
    for n in range(2, 7):
        npairs = n * (n - 1) // 2
        for mask in range(1 << npairs):
            g = graph_from_mask(n, mask)
            rep = base_bound(g)
            assert rep.connected_complement == is_connected(complement(g)), (n, mask)
            if not rep.connected_complement:
                assert rep.exact_t == 0, (n, mask)
                continue
            assert rep.exact_t <= rep.bound_value * (1 + REL), (n, mask)
            assert rep.equality_flag == is_clique_union(g)
            tight = abs(rep.bound_value - rep.exact_t) <= REL * max(rep.exact_t, 1)
            assert tight == rep.equality_flag, (n, mask)


def test_improved_bound_c3_equals_base():
    for g in [path_graph(5), cycle_graph(6), two_c3, complete_bipartite(2, 3)]:
        a = base_bound(g).bound_value
        b = improved_bound(g, 3).bound_value
        assert b == pytest.approx(a, rel=1e-12)


def test_improved_bound_monotone_in_c():
    for g in [path_graph(6), cycle_graph(6), graph_from_mask(6, 0b101100111)]:
        values = [improved_bound(g, c).bound_value for c in range(3, 8)]
        for a, b in zip(values, values[1:]):
            assert b <= a * (1 + 1e-12)


def test_improved_bound_validates_c():
    with pytest.raises(ValueError):
        improved_bound(path_graph(3), 0)


def test_disconnected_complement_is_flagged():
    rep = base_bound(complete_bipartite(3, 3))  # complement 2K_3 disconnected
    assert not rep.connected_complement and rep.exact_t == 0


# ---------------------------------------------------------------------------
# the clique-extension family

def test_family_tree_count_agreement():
    checks = [
        (cycle_graph(4), 2, 1, 0),
        (cycle_graph(4), 2, 0, 2),
        (complete_graph(3), 2, 2, 1),
        (path_graph(3), 2, 1, 1),
        (empty_graph(2), 1, 2, 2),
    ]
    for g0, d, p, q in checks:
        # the two routes inside must agree, or it raises
        t = family_tree_count(g0, d, p, q)
        assert t == spanning_tree_count(complement(extend_g0(g0, d, p, q))), (g0, d, p, q)


def test_family_tree_count_checks_degrees():
    with pytest.raises(ValueError):
        family_tree_count(path_graph(4), 3, 1, 0)


def test_family_value_raises_on_disagreement(monkeypatch):
    # break the matrix-tree route by one: the product formula must catch it
    direct = bounds.spanning_tree_count
    monkeypatch.setattr(bounds, "spanning_tree_count", lambda g: direct(g) + 1)
    with pytest.raises(InternalConsistencyError, match="disagree"):
        family_tree_count(cycle_graph(4), 2, 1, 0)


# ---------------------------------------------------------------------------
# threshold and feasibility arithmetic

def test_n0_threshold_values():
    assert n0_threshold(5, 4, 1) == 8 + 5 * 8 ** 3 == 2568
    assert n0_threshold(5, 4, 2) == 8 + 5 * 8 ** 4 == 20488
    vals = [n0_threshold(5, 4, c) for c in range(1, 6)]
    assert vals == sorted(vals) and len(set(vals)) == len(vals)
    with pytest.raises(ValueError):
        n0_threshold(5, 0, 1)


def test_abrego_feasibility():
    rhs, holds = abrego_feasibility(21, 3, 1)
    assert rhs == Fraction(21, 4) and not holds
    rhs, holds = abrego_feasibility(8, 3, 0)  # rho = 0 kills both terms
    assert rhs == 0 and not holds
    rhs, _ = abrego_feasibility(9, 4, 2)  # rho = 4: (4/4)(25-16) + 3
    assert rhs == Fraction(12)
    with pytest.raises(ValueError):
        abrego_feasibility(9, 2, 0)
    with pytest.raises(ValueError):
        abrego_feasibility(9, 3, -1)


# ---------------------------------------------------------------------------
# girth certificate

def test_girth_certificate_unique():
    members = list(enumerate_regular(6, 2))
    assert girth_certificate(cycle_graph(6), members) == CERTIFIED_UNIQUE
    assert girth_certificate(two_c3, members) == INCONCLUSIVE  # smaller girth
    members7 = list(enumerate_regular(7, 2))
    assert girth_certificate(cycle_graph(7), members7) == CERTIFIED_UNIQUE


def test_girth_certificate_cycle_counts():
    members = list(enumerate_regular(8, 3))
    assert girth_certificate(h_family(8), members) == CERTIFIED_BY_CYCLE_COUNTS
    cube = Graph.from_edges(8, [(0, 1), (1, 2), (2, 3), (3, 0),
                                (4, 5), (5, 6), (6, 7), (7, 4),
                                (0, 4), (1, 5), (2, 6), (3, 7)])
    # ties the girth but loses the 4-cycle count 6 > 4
    assert girth_certificate(cube, members) == INCONCLUSIVE


def test_girth_certificate_membership():
    with pytest.raises(ValueError):
        girth_certificate(cycle_graph(6), list(enumerate_regular(6, 3)))


def test_girth_certificate_acyclic_tie():
    forests = [canonical_relabel(path_graph(4)),
               canonical_relabel(disjoint_union(path_graph(3), empty_graph(1)))]
    assert girth_certificate(forests[0], forests) == INCONCLUSIVE


def test_girth_certificate_canonicalizes_the_candidate_once(monkeypatch):
    calls = []
    relabel = bounds.canonical_relabel
    monkeypatch.setattr(bounds, "canonical_relabel", lambda g: calls.append(g) or relabel(g))
    petersen = Graph.from_edges(10, [(i, (i + 1) % 5) for i in range(5)]
                                + [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
                                + [(i, i + 5) for i in range(5)])
    assert girth_certificate(petersen, enumerate_regular(10, 3)) == CERTIFIED_UNIQUE
    assert calls == [petersen]


def test_girth_certificate_on_members_in_other_labelings():
    # members must be canonical representatives: a relabeled pool is refused,
    # not matched by canonical form
    rnd = random.Random(8)
    members = []
    for g in enumerate_regular(8, 3):
        perm = list(range(8))
        rnd.shuffle(perm)
        members.append(g.relabel(perm))
    assert canonical_relabel(h_family(8)) not in members
    with pytest.raises(ValueError, match="must be canonical"):
        girth_certificate(h_family(8), members)
    with pytest.raises(ValueError, match="must be canonical"):
        girth_certificate(complete_bipartite(4, 4), members)


def test_girth_certificate_singleton_class():
    members = list(enumerate_regular(4, 1))
    assert len(members) == 1
    assert girth_certificate(members[0], members) == CERTIFIED_UNIQUE


def test_girth_shortcuts_agree_with_exhaustive_minima():
    # the verify commands' two shortcuts against full trace sequences on every
    # regular class with n <= 10: a certificate for g in R_d(n) must name the
    # unique adjacency lex minimum, and one for complement(g) in R_{n-1-d}(n)
    # the unique Laplacian lex minimum of R_d(n)
    certified = {ADJACENCY: 0, LAPLACIAN: 0}
    for n in range(1, 11):
        classes = [enumerate_regular(n, d) for d in range(n)]
        for d, members in enumerate(classes):
            if not members:
                continue
            dual = classes[n - 1 - d]
            for kind in (ADJACENCY, LAPLACIAN):
                values = [trace_sequence(g, kind, n) for g in members]
                least = [g for g, v in zip(members, values) if v == min(values)]
                for g in members:
                    probe, pool = (g, members) if kind == ADJACENCY else (complement(g), dual)
                    if girth_certificate(probe, pool) != INCONCLUSIVE:
                        certified[kind] += 1
                        assert least == [g], (n, d, kind)
    assert certified == {ADJACENCY: 45, LAPLACIAN: 45}
