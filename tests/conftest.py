"""Shared brute-force oracles, and guards on the processes tests fork.

Everything here recomputes an answer from first principles (subset scans,
permutation orbits, Burnside sums) so the package's optimized routines are
checked against independent arithmetic, not against themselves. The
exception is `are_isomorphic`, a helper that compares canonical forms; the
canonical form itself is checked against brute force in test_enumeration.

Every test must reap every child process it starts (`no_child_left`).
`counting_fork` and `split_worker` steer the forked children that
enumeration runs at more than one worker.
"""
import os
import select
import signal
from itertools import combinations, permutations
from math import factorial, gcd

import pytest
from hypothesis import strategies as st

from treeopt.graphs import Graph, to_graph6
from treeopt.enumeration import canonical_form, enumerate_by_edges


def all_pairs(n):
    return [(i, j) for i in range(n) for j in range(i + 1, n)]


def graph_from_mask(n: int, mask: int) -> Graph:
    pairs = all_pairs(n)
    return Graph.from_edges(n, [pairs[k] for k in range(len(pairs)) if mask >> k & 1])


@st.composite
def small_graphs(draw, min_n=1, max_n=8):
    """A graph on min_n..max_n vertices, any edge set."""
    n = draw(st.integers(min_n, max_n))
    npairs = n * (n - 1) // 2
    return graph_from_mask(n, draw(st.integers(0, (1 << npairs) - 1)))


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
    edges = [(u, v) for u, v in all_pairs(g.n) if g.rows[u] >> v & 1]
    for subset in combinations(edges, g.n - 1):
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


def cycle_types(n: int, largest: int | None = None):
    """The partitions of n, as non-increasing lists of parts."""
    if n == 0:
        yield []
        return
    for part in range(min(n, largest or n), 0, -1):
        for rest in cycle_types(n - part, part):
            yield [part] + rest


def burnside_counts(n: int) -> list[int]:
    """Iso-class counts of n-vertex graphs by edge count, via the cycle
    index of the pair action: [x^m] (1/n!) sum over permutations of
    prod over edge-cycles (1 + x^len). Permutations of one cycle type give
    the same product, so the sum runs over cycle types, each weighted by
    its class size n!/prod k^(m_k) m_k!. A cycle of length k splits its
    own pairs into (k-1)//2 cycles of length k, plus one of length k/2
    when k is even; two cycles of lengths a and b split the pairs across
    them into gcd(a, b) cycles of length lcm(a, b)."""
    total = [0] * (n * (n - 1) // 2 + 1)
    for parts in cycle_types(n):
        lengths = []
        for i, a in enumerate(parts):
            lengths += [a] * ((a - 1) // 2) + ([a // 2] if a % 2 == 0 else [])
            for b in parts[i + 1:]:
                lengths += [a * b // gcd(a, b)] * gcd(a, b)
        poly = [1]
        for length in lengths:
            new = poly + [0] * length
            for idx, c in enumerate(poly):
                new[idx + length] += c
            poly = new
        size = factorial(n)
        for k in set(parts):
            size //= k ** parts.count(k) * factorial(parts.count(k))
        for idx, c in enumerate(poly):
            total[idx] += size * c
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


@pytest.fixture(autouse=True)
def no_child_left():
    """Fail a test that leaves a child process of the test process unreaped."""
    yield
    try:
        pid, _ = os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return
    pytest.fail(f"the test left a child process ({pid or 'still running'})")


def counting_fork(monkeypatch, limit: int) -> list:
    """Count the calls to `os.fork` in a list, which is returned. A call past
    `limit` raises before it forks, so a broken cap on the number of children
    fails the test instead of starting a process per extra worker."""
    forks: list = []
    real_fork = os.fork

    def fork():
        forks.append(len(forks))
        if len(forks) > limit:
            raise AssertionError(f"fork number {len(forks)} is past the limit of {limit}")
        return real_fork()

    monkeypatch.setattr(os, "fork", fork)
    return forks


@pytest.fixture
def split_worker(monkeypatch):
    """Install `_worker` stand-ins: `split_worker(child, parent)` runs
    `child(task, row)` for the tasks a forked child claims and `parent(task,
    row)` for the test process's own. The test process's first task waits
    until a child has started one, so that a child surely claims a task.
    The test is stopped with TimeoutError after 60 s instead of hanging."""
    import treeopt.enumeration as enum

    started_r, started_w = os.pipe()
    me = os.getpid()
    waited: list = []

    def install(child, parent):
        def worker(task, row):
            if os.getpid() != me:
                os.write(started_w, b"x")
                return child(task, row)
            if not waited:
                waited.append(select.select([started_r], [], [], 30)[0])
            return parent(task, row)

        monkeypatch.setattr(enum, "_worker", worker)

    def timeout(signum, frame):
        raise TimeoutError("the run did not finish in 60 s")

    previous = signal.signal(signal.SIGALRM, timeout)
    signal.alarm(60)
    try:
        yield install
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
        os.close(started_r)
        os.close(started_w)
