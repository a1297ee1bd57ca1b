"""Tests of the benchmark's own oracles against brute force.

    python3 -m pytest bench/tests
"""
import os
import random
import sys
from itertools import combinations, permutations, product
from math import comb

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), ".."))

import oracles as o  # noqa: E402


def pairs(n):
    return list(combinations(range(n), 2))


def from_mask(n, mask):
    return o.from_edges(n, [p for k, p in enumerate(pairs(n)) if mask >> k & 1])


def scan_classes(n):
    """One representative per class of n-vertex graphs: every edge mask,
    keyed by the least mask over all relabelings."""
    ps = pairs(n)
    index = {p: k for k, p in enumerate(ps)}
    reps = {}
    for mask in range(1 << len(ps)):
        key = min(sum(1 << index[tuple(sorted((perm[i], perm[j])))]
                      for k, (i, j) in enumerate(ps) if mask >> k & 1)
                  for perm in permutations(range(n)))
        reps.setdefault(key, from_mask(n, mask))
    return list(reps.values())


def random_graph(rng, n, p=0.5):
    return o.from_edges(n, [e for e in pairs(n) if rng.random() < p])


def subset_tree_count(g):
    n = g[0]
    edges = [(i, j) for i, j in pairs(n) if g[1][i] >> j & 1]
    count = 0
    for subset in combinations(edges, n - 1):
        parent = list(range(n))

        def find(x):
            while parent[x] != x:
                x = parent[x]
            return x

        for u, v in subset:
            parent[find(u)] = find(v)
        count += len({find(v) for v in range(n)}) == 1
    return count


def test_burnside_matches_edge_mask_scan():
    for n in range(1, 6):
        reps = scan_classes(n)
        for m in range(comb(n, 2) + 1):
            assert o.class_count(n, m) == sum(o.edge_count(g) == m for g in reps)


def test_burnside_known_counts():
    assert o.class_count(8, 12) == 1312
    assert o.class_count(8, 14) == 1646
    assert sum(o.class_count(6, m) for m in range(16)) == 156


def test_determinant_complete_graphs():
    for n in range(2, 9):
        kn = o.from_edges(n, pairs(n))
        assert o.spanning_trees(kn) == n ** (n - 2)


def test_determinant_against_subset_counts():
    rng = random.Random(7)
    cycle = o.from_edges(6, [(i, (i + 1) % 6) for i in range(6)])
    graphs = [cycle] + [random_graph(rng, n) for n in (3, 4, 5, 6, 6, 7) for _ in range(3)]
    for g in graphs:
        assert o.spanning_trees(g) == subset_tree_count(g)


def test_determinant_signs_and_singular():
    assert o.determinant([[0, 1], [1, 0]]) == -1
    assert o.determinant([[2, 4], [1, 2]]) == 0
    assert o.determinant([[2, -1, 0], [-1, 2, -1], [0, -1, 2]]) == 4


def closed_walks(g, k):
    n, rows = g
    total = 0
    for seq in product(range(n), repeat=k):
        total += all(rows[seq[i]] >> seq[(i + 1) % k] & 1 for i in range(k))
    return total


def weighted_closed_walks(matrix, k):
    """tr(M^k) as the sum over closed index sequences of entry products."""
    total = 0
    for seq in product(range(len(matrix)), repeat=k):
        term = 1
        for i in range(k):
            term *= matrix[seq[i]][seq[(i + 1) % k]]
        total += term
    return total


def test_traces_count_closed_walks():
    rng = random.Random(11)
    for n in (4, 5, 6):
        g = random_graph(rng, n)
        assert o.adjacency_traces(g, 5) == tuple(closed_walks(g, k) for k in range(1, 6))
        lap = o.laplacian(g)
        assert o.laplacian_traces(g, 4) == tuple(weighted_closed_walks(lap, k)
                                                 for k in range(1, 5))


def test_triple_counts():
    k6 = o.from_edges(6, pairs(6))
    assert o.triple_counts(k6) == (20, 0)
    star = o.from_edges(6, [(0, v) for v in range(1, 6)])
    assert o.triple_counts(star) == (0, 10)


def test_graph6_decoding():
    assert o.decode_graph6("A_") == (2, (2, 1))
    assert o.decode_graph6("C~") == o.from_edges(4, pairs(4))
    petersen = o.decode_graph6("IheA@GUAo")
    assert o.degrees(petersen) == [3] * 10 and o.edge_count(petersen) == 15
    for bad in ("", "A", "A_?", "A`"):
        try:
            o.decode_graph6(bad)
        except ValueError:
            continue
        raise AssertionError(f"{bad!r} decoded")


def test_isomorphic_under_random_relabelings():
    rng = random.Random(3)
    for n in (5, 7, 8, 10):
        for _ in range(5):
            g = random_graph(rng, n)
            perm = list(range(n))
            rng.shuffle(perm)
            assert o.isomorphic(g, o.relabel(g, perm))


def test_non_isomorphic_pairs_with_equal_degrees():
    c6 = o.from_edges(6, [(i, (i + 1) % 6) for i in range(6)])
    two_triangles = o.from_edges(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])
    k33 = o.from_edges(6, [(i, j) for i in range(3) for j in range(3, 6)])
    prism = o.from_edges(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5),
                             (0, 3), (1, 4), (2, 5)])
    assert not o.isomorphic(c6, two_triangles)
    assert not o.isomorphic(k33, prism)
    assert o.isomorphic(o.complement(k33), two_triangles)


def test_pairwise_non_isomorphic_on_scanned_classes():
    reps = scan_classes(5)
    assert len(reps) == 34
    assert o.pairwise_non_isomorphic(reps)
    rng = random.Random(5)
    g = reps[17]
    perm = list(range(5))
    rng.shuffle(perm)
    assert not o.pairwise_non_isomorphic(reps + [o.relabel(g, perm)])
    assert o.same_classes(reps, list(reversed(reps)))
    assert not o.same_classes(reps[:-1] + [reps[0]], reps)
