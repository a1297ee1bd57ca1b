"""Simple undirected graphs on at most 62 vertices, bitset adjacency rows.

Vertices are 0..n-1. A Graph is a namedtuple record (n, rows), so it is
immutable and hashable, and its checks run on every build, `_replace` and
unpickling included; `rows[i]` is an int whose bit j is set iff ij is an
edge. graph6 I/O covers the short form only, which is exactly the n <= 62
range supported here.
"""

from __future__ import annotations

import math
from collections import namedtuple
from typing import Iterable, Sequence

from .errors import Graph6Error, UnsupportedSizeError

MAX_VERTICES = 62

GIRTH_INFINITE = math.inf  # acyclic graphs


class Graph(namedtuple("Graph", "n rows")):
    __slots__ = ()

    def __new__(cls, n: int, rows: Sequence[int]):
        if not 1 <= n <= MAX_VERTICES:
            raise UnsupportedSizeError(f"vertex count {n} outside 1..{MAX_VERTICES}")
        rows = tuple(rows)
        if len(rows) != n:
            raise ValueError(f"expected {n} adjacency rows, got {len(rows)}")
        full = (1 << n) - 1
        for i, r in enumerate(rows):
            if r & ~full:
                raise ValueError(f"row {i} has bits beyond vertex {n - 1}")
            if r >> i & 1:
                raise ValueError(f"self-loop at vertex {i}")
        for i in range(n):
            for j in range(i + 1, n):
                if (rows[i] >> j & 1) != (rows[j] >> i & 1):
                    raise ValueError(f"adjacency not symmetric at ({i}, {j})")
        return super().__new__(cls, n, rows)

    @classmethod
    def _make(cls, iterable):  # `_replace` builds through here: keep the checks
        return cls(*iterable)

    @classmethod
    def from_edges(cls, n: int, edges: Iterable[tuple[int, int]]) -> "Graph":
        rows = [0] * n
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u}, {v}) outside vertex range 0..{n - 1}")
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            rows[u] |= 1 << v
            rows[v] |= 1 << u
        return cls(n, rows)

    def degrees(self) -> tuple[int, ...]:
        return tuple(r.bit_count() for r in self.rows)

    @property
    def m(self) -> int:
        return sum(r.bit_count() for r in self.rows) // 2

    def relabel(self, perm: Sequence[int]) -> "Graph":
        """New graph where old vertex i becomes perm[i]."""
        n, old = self
        if sorted(perm) != list(range(n)):
            raise ValueError("perm is not a permutation of 0..n-1")
        rows = [0] * n
        for i, r in enumerate(old):
            ri = 0
            while r:
                low = r & -r
                ri |= 1 << perm[low.bit_length() - 1]
                r ^= low
            rows[perm[i]] = ri
        return Graph(n, rows)


# ---------------------------------------------------------------------------
# graph6 (short form)

def from_graph6(text: str) -> Graph:
    data = text.strip()
    lead = len(text) - len(text.lstrip())  # offsets count from the caller's text
    if not data:
        raise Graph6Error("empty graph6 string", lead)
    for off, ch in enumerate(data):
        if not "?" <= ch <= "~":
            raise Graph6Error(f"character {ch!r} outside graph6 range", lead + off)
    raw = data.encode("ascii")
    n = raw[0] - 63
    if n == 63:
        # long-form marker '~'; only the short form (n <= 62) is supported
        raise UnsupportedSizeError("long-form graph6 (n > 62) not supported")
    if n == 0:
        raise Graph6Error("graph6 order 0 not supported", lead)
    nbits = n * (n - 1) // 2
    nbytes = (nbits + 5) // 6
    if len(raw) - 1 < nbytes:
        raise Graph6Error(f"graph6 body too short, need {nbytes} bytes", lead + len(raw))
    if len(raw) - 1 > nbytes:
        raise Graph6Error("trailing garbage after graph6 body", lead + 1 + nbytes)
    body = 0
    for c in raw[1:]:
        body = body << 6 | c - 63
    pad = 6 * nbytes - nbits
    if body & ((1 << pad) - 1):
        raise Graph6Error("nonzero padding bits", lead + nbytes)  # the last body byte
    # the first pair's bit is the highest, pairs in to_graph6's order
    bit = nbits + pad
    rows = [0] * n
    for j in range(1, n):
        for i in range(j):
            bit -= 1
            if body >> bit & 1:
                rows[i] |= 1 << j
                rows[j] |= 1 << i
    return Graph(n, rows)


def to_graph6(g: Graph) -> str:
    n, rows = g.n, g.rows
    nbits = n * (n - 1) // 2
    nbytes = (nbits + 5) // 6
    # the body as one int, first pair highest, as from_graph6 reads it
    body = 0
    for j in range(1, n):
        col = rows[j]  # bit i is the pair ij
        for i in range(j):
            body = body << 1 | col >> i & 1
    body <<= 6 * nbytes - nbits
    return chr(63 + n) + "".join([chr(63 + (body >> s & 63))
                                  for s in range(6 * nbytes - 6, -1, -6)])


# ---------------------------------------------------------------------------
# constructions

def empty_graph(n: int) -> Graph:
    return Graph(n, [0] * n)


def complete_graph(n: int) -> Graph:
    full = (1 << n) - 1
    return Graph(n, [full ^ (1 << i) for i in range(n)])


def cycle_graph(n: int) -> Graph:
    if n < 3:
        raise ValueError("cycle needs at least 3 vertices")
    return Graph.from_edges(n, [(i, (i + 1) % n) for i in range(n)])


def path_graph(n: int) -> Graph:
    return Graph.from_edges(n, [(i, i + 1) for i in range(n - 1)])


def complete_bipartite(a: int, b: int) -> Graph:
    return join(empty_graph(a), empty_graph(b))


def complement(g: Graph) -> Graph:
    full = (1 << g.n) - 1
    return Graph(g.n, [full ^ r ^ (1 << i) for i, r in enumerate(g.rows)])


def disjoint_union(g: Graph, h: Graph) -> Graph:
    """g keeps its labels, h is shifted up by g.n."""
    if g.n + h.n > MAX_VERTICES:
        raise UnsupportedSizeError(f"union order {g.n + h.n} exceeds {MAX_VERTICES}")
    rows = list(g.rows) + [r << g.n for r in h.rows]
    return Graph(g.n + h.n, rows)


def join(g: Graph, h: Graph) -> Graph:
    """Disjoint union plus all cross edges; same labeling as disjoint_union."""
    u = disjoint_union(g, h)
    gmask = (1 << g.n) - 1
    hmask = ((1 << u.n) - 1) ^ gmask
    rows = [r | hmask if i < g.n else r | gmask for i, r in enumerate(u.rows)]
    return Graph(u.n, rows)


def join_power(g: Graph, k: int) -> Graph:
    """Join of k disjoint copies of g (k = 1 returns g itself)."""
    if k < 1:
        raise ValueError("join power needs k >= 1")
    out = g
    for _ in range(k - 1):
        out = join(out, g)
    return out


def extend_g0(g0: Graph, d: int, p: int, q: int) -> Graph:
    """g0 plus p disjoint copies of K_{d+1} and q of K_d.

    g0 must be almost-regular with top degree d: every degree in {d-1, d}.
    """
    if d < 1:
        raise ValueError("d must be a positive integer")
    if p < 0 or q < 0:
        raise ValueError("p and q must be nonnegative")
    degs = g0.degrees()
    bad = [v for v in range(g0.n) if degs[v] not in (d - 1, d)]
    if bad:
        raise ValueError(
            f"vertex {bad[0]} has degree {degs[bad[0]]}, need d-1={d - 1} or d={d}")
    out = g0
    for _ in range(p):
        out = disjoint_union(out, complete_graph(d + 1))
    for _ in range(q):
        out = disjoint_union(out, complete_graph(d))
    return out


_H_SEED_EDGES = {
    5: [],
    6: [(0, 1), (2, 3), (4, 5)],
    7: [(i, (i + 1) % 7) for i in range(7)],
    8: [(i, (i + 1) % 8) for i in range(8)] + [(i, i + 4) for i in range(4)],
    # 4-regular seed on 9 vertices, labels a..i -> 0..8
    9: [(0, 3), (0, 4), (0, 5), (0, 6), (1, 3), (1, 4), (1, 5), (1, 6),
        (2, 5), (2, 6), (2, 7), (2, 8), (3, 7), (3, 8), (4, 7), (4, 8),
        (5, 7), (6, 8)],
}


def h_family(n: int) -> Graph:
    """The (n-5)-regular family member on n vertices (n >= 5).

    Seeds on 5..9 vertices, then joins with floor(n/5)-1 empty 5-vertex
    blocks; all blocks pairwise joined.
    """
    if n < 5:
        raise ValueError("family defined for n >= 5")
    if n > MAX_VERTICES:
        raise UnsupportedSizeError(f"order {n} exceeds {MAX_VERTICES}")
    q, rho = divmod(n, 5)
    out = Graph.from_edges(5 + rho, _H_SEED_EDGES[5 + rho])
    for _ in range(q - 1):
        out = join(out, empty_graph(5))
    return out


# ---------------------------------------------------------------------------
# structure counters

# is_almost_regular: degrees take at most two values, and those differ by 1
DegreeInfo = namedtuple("DegreeInfo", "is_regular is_almost_regular")


def degree_info(g: Graph) -> DegreeInfo:
    degs = g.degrees()
    lo, hi = min(degs), max(degs)
    return DegreeInfo(lo == hi, hi - lo <= 1)


def count_triangles(g: Graph) -> int:
    rows = g.rows
    total = 0
    for i, ri in enumerate(rows):
        r = ri >> (i + 1) << (i + 1)  # the neighbours above i
        while r:
            low = r & -r
            r ^= low  # i's neighbours above j, the vertex of low: triangles i < j < k
            total += (r & rows[low.bit_length() - 1]).bit_count()
    return total


def count_induced_p3(g: Graph, triangles: int | None = None) -> int:
    """Induced 2-edge paths (nu): sum C(d_i, 2) minus 3 * `triangles`, which
    defaults to `count_triangles(g)`. The third gap equals twice this."""
    if triangles is None:
        triangles = count_triangles(g)
    return sum(d * (d - 1) // 2 for d in g.degrees()) - 3 * triangles


def is_connected(g: Graph) -> bool:
    """One breadth-first search from vertex 0, a level at a time."""
    rows = g.rows
    seen = level = 1
    while level:
        reached = 0
        r = level
        while r:
            low = r & -r
            reached |= rows[low.bit_length() - 1]
            r ^= low
        level = reached & ~seen
        seen |= level
    return seen == (1 << g.n) - 1


def is_clique_union(g: Graph) -> bool:
    """True iff every connected component is complete (structural check):
    adjacent vertices have equal closed neighbourhoods."""
    closed = [r | 1 << v for v, r in enumerate(g.rows)]
    for v, r in enumerate(g.rows):
        while r:
            low = r & -r
            if closed[low.bit_length() - 1] != closed[v]:
                return False
            r ^= low
    return True


def girth(g: Graph) -> int | float:
    """Length of a shortest cycle, GIRTH_INFINITE if acyclic.

    One breadth-first search per root, a level at a time on the bitset rows.
    At depth t, an edge inside the level closes a walk of length 2t+1, and a
    new vertex reached from two vertices of the level one of length 2t+2;
    each holds a cycle at most that long. From a vertex of a shortest cycle
    the search finds that cycle's length, so the least length over all roots
    is the girth. A root stops once 2t+1 reaches the best length so far.
    """
    rows = g.rows
    best = GIRTH_INFINITE
    for root in range(g.n):
        seen = level = 1 << root
        odd = 1  # 2t+1 at depth t
        while level and odd < best:
            reached = twice = 0
            r = level
            while r:
                low = r & -r
                row = rows[low.bit_length() - 1]
                twice |= reached & row
                reached |= row
                r ^= low
            if reached & level:  # an edge inside the level
                best = odd
            elif twice & ~seen:  # a new vertex reached twice
                best = odd + 1
            level = reached & ~seen
            seen |= level
            odd += 2
    return best


def girth_and_cycles(g: Graph, max_len: int) -> tuple[int | float, tuple[int, ...]]:
    """Girth plus counts of cycle subgraphs of each length 3..max_len.

    Cycles are counted once each as subgraphs (not walks, not orientations);
    chords are allowed. max_len must not exceed n.
    """
    if not 3 <= max_len <= g.n:
        raise ValueError(f"max_len must be in 3..{g.n}")
    rows = g.rows
    counts = [0] * (max_len + 1)
    for root in range(g.n):
        # paths as (last vertex's row, visited, length once extended); the
        # vertices up to root start visited, so paths stay above root, and
        # each cycle is found twice (two directions)
        root_bit = 1 << root
        stack = [(rows[root], (2 << root) - 1, 2)]
        while stack:
            row, visited, length = stack.pop()
            r = row & ~visited
            while r:
                low = r & -r
                r ^= low
                nxt = rows[low.bit_length() - 1]
                if nxt & root_bit and length >= 3:
                    counts[length] += 1
                if length < max_len:
                    stack.append((nxt, visited | low, length + 1))
    cyc = tuple(c // 2 for c in counts[3:max_len + 1])
    gir = girth(g)
    return gir, cyc
