"""Shared brute-force oracles.

Everything here recomputes an answer from first principles (subset scans,
permutation orbits, Burnside sums) so the package's optimized routines are
checked against independent arithmetic, not against themselves. The
exception is `are_isomorphic`, a helper that compares canonical forms; the
canonical form itself is checked against brute force in test_enumeration.
"""
from itertools import combinations, permutations
from math import factorial

import pytest

from treeopt.graphs import Graph, to_graph6
from treeopt.enumeration import canonical_form, enumerate_by_edges


def all_pairs(n):
    return [(i, j) for i in range(n) for j in range(i + 1, n)]


def graph_from_mask(n: int, mask: int) -> Graph:
    pairs = all_pairs(n)
    return Graph.from_edges(n, [pairs[k] for k in range(len(pairs)) if mask >> k & 1])


def brute_cycle_count(g: Graph, length: int) -> int:
    """Cycle subgraphs on exactly `length` vertices, one per vertex set and
    cyclic arrangement (direction quotiented out)."""
    count = 0
    for vs in combinations(range(g.n), length):
        for perm in permutations(vs[1:]):
            if perm and perm[0] > perm[-1]:
                continue
            seq = (vs[0],) + perm
            if all(g.rows[seq[i]] >> seq[(i + 1) % length] & 1 for i in range(length)):
                count += 1
    return count


def brute_spanning_trees(g: Graph) -> int:
    if g.n == 1:
        return 1
    count = 0
    for subset in combinations(g.edges(), g.n - 1):
        adj = {v: [] for v in range(g.n)}
        for u, v in subset:
            adj[u].append(v)
            adj[v].append(u)
        seen = {0}
        stack = [0]
        while stack:
            for w in adj[stack.pop()]:
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        if len(seen) == g.n:
            count += 1
    return count


def brute_triangles(g: Graph) -> int:
    return sum(1 for a, b, c in combinations(range(g.n), 3)
               if g.rows[a] >> b & 1 and g.rows[a] >> c & 1 and g.rows[b] >> c & 1)


def brute_induced_p3(g: Graph) -> int:
    count = 0
    for trip in combinations(range(g.n), 3):
        edges = sum(g.rows[u] >> v & 1 for u, v in combinations(trip, 2))
        if edges == 2:
            count += 1
    return count


def burnside_counts(n: int) -> list[int]:
    """Iso-class counts of n-vertex graphs by edge count, via the cycle
    index of the pair action: [x^m] (1/n!) sum over permutations of
    prod over edge-cycles (1 + x^len)."""
    npairs = n * (n - 1) // 2
    total = [0] * (npairs + 1)
    for perm in permutations(range(n)):
        seen = set()
        poly = [1]
        for e in all_pairs(n):
            if e in seen:
                continue
            length = 0
            cur = e
            while cur not in seen:
                seen.add(cur)
                length += 1
                a, b = perm[cur[0]], perm[cur[1]]
                cur = (a, b) if a < b else (b, a)
            new = poly + [0] * length
            for idx, c in enumerate(poly):
                new[idx + length] += c
            poly = new
        for idx, c in enumerate(poly):
            total[idx] += c
    fact = factorial(n)
    assert all(v % fact == 0 for v in total)
    return [v // fact for v in total]


def labeled_regular_count(n: int, d: int) -> int:
    """Count labeled d-regular graphs by scanning every edge mask. n <= 6."""
    npairs = n * (n - 1) // 2
    pairs = all_pairs(n)
    count = 0
    for mask in range(1 << npairs):
        deg = [0] * n
        bits = mask
        while bits:
            low = bits & -bits
            u, v = pairs[low.bit_length() - 1]
            deg[u] += 1
            deg[v] += 1
            bits ^= low
        if all(x == d for x in deg):
            count += 1
    return count


def are_isomorphic(g: Graph, h: Graph) -> bool:
    return g.n == h.n and g.m == h.m and canonical_form(g) == canonical_form(h)


def aut_size(g: Graph) -> int:
    return sum(1 for perm in permutations(range(g.n)) if g.relabel(perm) == g)


def relabelings(g: Graph):
    for perm in permutations(range(g.n)):
        yield g.relabel(perm)


@pytest.fixture(scope="session")
def classes_by_n():
    """All isomorphism classes on 1..7 vertices, grouped by vertex count."""
    out = {}
    for n in range(1, 8):
        pool = []
        for m in range(n * (n - 1) // 2 + 1):
            pool.extend(enumerate_by_edges(n, m))
        out[n] = pool
    return out


def strip_timing(json_text: str) -> str:
    import json

    obj = json.loads(json_text)
    obj.pop("elapsed_ms", None)
    obj.pop("tool_version", None)
    return json.dumps(obj, sort_keys=True)
