"""Acceptance gate: one test per shipped guarantee, exact unless stated.

Each test prints one pass/fail line under pytest -v. Tolerances are pinned
here and nowhere else: REL = 1e-9 for float bound comparisons, C3_REL = 1e-12
for the c = 3 bound against the closed form. Everything else is integer
equality.
"""
import time

from treeopt.bounds import base_bound, improved_bound, family_tree_count
from treeopt.certify import (
    REFUTED,
    VERIFIED,
    cmd_check_duality,
    cmd_report_class,
    cmd_verify_l_trace_minimal,
    cmd_verify_t_optimal,
    cmd_verify_trace_minimal,
    report_to_json,
)
from treeopt.enumeration import (
    GraphClassSpec,
    _class_tasks,
    _worker,
    canonical_form,
    enumerate_almost_regular,
    enumerate_by_edges,
    enumerate_regular,
    ladder_level,
    nu_min_set,
)
from treeopt.graphs import (
    Graph,
    complement,
    complete_bipartite,
    complete_graph,
    cycle_graph,
    degree_info,
    disjoint_union,
    extend_g0,
    h_family,
    is_clique_union,
    is_connected,
    path_graph,
)
from treeopt.linalg import spanning_tree_count, tree_count_via_complement
from treeopt.sequences import (
    ADJACENCY,
    LAPLACIAN,
    degree_power_floor,
    gap_sequence,
    mixed_trace_identity_check,
    select_lex_minima,
    trace_sequence,
)

from conftest import are_isomorphic, brute_induced_p3, burnside_counts, strip_timing

REL = 1e-9
C3_REL = 1e-12

WORKER_COUNTS = (1, 2, 8)


def test_criterion_01_identity_suite(classes_by_n):
    t0 = time.monotonic()
    for n, pool in classes_by_n.items():
        by_m = {}
        for g in pool:
            by_m[g.m] = by_m.get(g.m, 0) + 1
        oracle = burnside_counts(n)
        assert [by_m.get(m, 0) for m in range(len(oracle))] == oracle, n
        for g in pool:
            ell = trace_sequence(g, LAPLACIAN, 10)
            floors = [degree_power_floor(g, k) for k in range(1, 11)]
            gaps = gap_sequence(g, 10)
            assert list(gaps) == [a - b for a, b in zip(ell, floors)]
            assert all(a >= b for a, b in zip(ell, floors))
            assert gaps[0] == 0 and gaps[1] == 0
            assert gaps[2] == 2 * brute_induced_p3(g)
            assert (all(v == 0 for v in gaps)) == is_clique_union(g)
    assert time.monotonic() - t0 < 120


def test_criterion_02_tree_count_dual_route(classes_by_n):
    for pool in classes_by_n.values():
        for g in pool:
            assert spanning_tree_count(g) == tree_count_via_complement(g)
    assert spanning_tree_count(complete_graph(1)) == 1
    for n in range(2, 10):
        assert spanning_tree_count(complete_graph(n)) == n ** (n - 2)


def test_criterion_03_mixed_trace_identity():
    checked = 0
    for n in range(1, 9):
        for d in range(0, n):
            for g in enumerate_regular(n, d):
                for i in range(1, 6):
                    for j in range(0, 4):
                        lhs, rhs, ok = mixed_trace_identity_check(g, i, j)
                        assert ok and lhs == rhs, (n, d, i, j)
                checked += 1
    assert checked >= 40  # the sweep actually covered the regular classes


def test_criterion_04_duality_sweep():
    t0 = time.monotonic()
    nonempty = set()
    for n in range(1, 10):
        for d in range(0, n):
            cert = cmd_check_duality(n, d, workers=8)
            assert cert.verdict == VERIFIED, (n, d)
            if cert.class_size > 0:
                nonempty.add((n, d))
    # d-regular graphs on n vertices exist exactly when n*d is even
    expected = {(n, d) for n in range(1, 10) for d in range(0, n)
                if n * d % 2 == 0}
    assert nonempty == expected
    assert time.monotonic() - t0 < 600


def test_criterion_05_h_family_minima():
    for n in range(5, 11):
        minima = select_lex_minima(enumerate_regular(n, n - 5), ADJACENCY)
        assert len(minima) == 1, n
        assert are_isomorphic(minima[0], h_family(n)), n
    assert are_isomorphic(h_family(10), complete_bipartite(5, 5))


def test_criterion_06_bound_suite(classes_by_n):
    checked = 0
    for pool in classes_by_n.values():
        for g in pool:
            if not is_connected(complement(g)):
                continue
            checked += 1
            rep = base_bound(g)
            assert rep.exact_t <= rep.bound_value * (1 + REL)
            assert rep.equality_flag == is_clique_union(g)
            tight = abs(rep.bound_value - rep.exact_t) <= REL * max(rep.exact_t, 1)
            assert tight == rep.equality_flag
            vals = [improved_bound(g, c).bound_value for c in range(1, 8)]
            for lo_c, hi_c in zip(vals, vals[1:]):
                assert hi_c <= lo_c * (1 + REL)
            assert abs(vals[2] - rep.bound_value) <= C3_REL * max(rep.bound_value, 1)
    assert checked >= 900


def test_criterion_07_family_identity(classes_by_n):
    cases = 0
    for n0 in range(1, 6):
        for g0 in classes_by_n[n0]:
            if not degree_info(g0).is_almost_regular:
                continue
            degs = g0.degrees()
            top = max(degs)
            for d in (top, top + 1):
                if d < 1 or any(deg not in (d - 1, d) for deg in degs):
                    continue
                for p in range(3):
                    for q in range(3):
                        if n0 + p * (d + 1) + q * d > 20:
                            continue
                        # the two routes inside must agree, or it raises
                        t = family_tree_count(g0, d, p, q)
                        big = extend_g0(g0, d, p, q)
                        assert t == spanning_tree_count(complement(big)), \
                            (canonical_form(g0), d, p, q)
                        cases += 1
    assert cases >= 100


def test_criterion_08_t_optimality():
    t0 = time.monotonic()
    cert = cmd_verify_t_optimal(complete_bipartite(3, 3), 6, 9)
    assert cert.verdict == VERIFIED
    assert cert.extra["max_t"] == 81 and cert.extra["unique"] is True
    assert cert.winners == (canonical_form(complete_bipartite(3, 3)),)

    members = enumerate_by_edges(4, 3)
    tvals = [spanning_tree_count(g) for g in members]
    tmax = max(tvals)
    winners = {canonical_form(g) for g, t in zip(members, tvals) if t == tmax}
    assert tmax == 1
    assert winners == {canonical_form(path_graph(4)),
                       canonical_form(complete_bipartite(1, 3))}

    reports = [cmd_report_class(8, 12, workers=w)
               for w in WORKER_COUNTS]
    texts = {strip_timing(report_to_json(r)) for r in reports}
    assert len(texts) == 1

    h8 = h_family(8)
    t_h8 = spanning_tree_count(h8)
    big = enumerate_by_edges(8, 12)
    scored = sorted((-spanning_tree_count(g), canonical_form(g)) for g in big)
    expected_rank = scored.index((-t_h8, canonical_form(h8))) + 1
    report = reports[0]
    assert report["h_family_rank"] == expected_rank == 1
    assert report["rows"][expected_rank - 1]["is_h_family"] is True
    assert time.monotonic() - t0 < 300


def test_criterion_09_ladder_consistency():
    pairs = 0
    for n in range(1, 8):
        for m in range(0, n * (n - 1) // 2 + 1):
            lvl2 = {canonical_form(g) for g in ladder_level(n, m, 2)}
            ar = {canonical_form(g) for g in enumerate_almost_regular(n, m)}
            assert lvl2 == ar, (n, m)
            lvl3 = {canonical_form(g) for g in ladder_level(n, m, 3)}
            numin = {canonical_form(g) for g in nu_min_set(n, m)}
            assert lvl3 == numin, (n, m)
            pairs += 1
    assert pairs == sum(n * (n - 1) // 2 + 1 for n in range(1, 8))


def test_criterion_10_parallel_determinism():
    # the classes below really split: R_3(8) (duality), S(6,9) and S(8,12) (t-optimal)
    for spec in (GraphClassSpec("regular", 8, d=3), GraphClassSpec("edges", 6, m=9),
                 GraphClassSpec("edges", 8, m=12)):
        assert sum(1 for task in _class_tasks(spec) if _worker(task)) >= 2, spec
    two_c3 = disjoint_union(cycle_graph(3), cycle_graph(3))
    # t = 384, below the H family's 392
    cube = Graph.from_edges(8, [(v, v ^ b) for v in range(8) for b in (1, 2, 4) if v < v ^ b])
    runs = [
        (lambda w: cmd_verify_trace_minimal(h_family(8), 8, 3, workers=w), VERIFIED),
        (lambda w: cmd_verify_trace_minimal(two_c3, 6, 2, workers=w), REFUTED),
        (lambda w: cmd_verify_l_trace_minimal(cycle_graph(6), 6, 2, workers=w), REFUTED),
        (lambda w: cmd_verify_t_optimal(complete_bipartite(3, 3), 6, 9, workers=w),
         VERIFIED),
        (lambda w: cmd_verify_t_optimal(cube, 8, 12, workers=w), REFUTED),
        (lambda w: cmd_check_duality(8, 3, workers=w), VERIFIED),
    ]
    for command, expected_verdict in runs:
        payloads = set()
        for w in WORKER_COUNTS:
            cert = command(w)
            assert cert.verdict == expected_verdict
            payloads.add(strip_timing(cert.to_json()))
        assert len(payloads) == 1
