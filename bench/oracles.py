"""Independent computations the benchmark checks treeopt's outputs against.

Standard library only, and nothing here imports treeopt. graph6 decoding,
Burnside class counts, exact determinants, triangle and induced-path counts,
trace powers and the isomorphism test are written out again from their
definitions, so a fault in the package cannot hide behind a shared helper.

A graph is a pair (n, rows): rows[i] is an int whose bit j is set iff ij is
an edge.
"""
from __future__ import annotations

from collections import Counter
from fractions import Fraction
from itertools import combinations
from math import factorial, gcd

# Published counts of d-regular graphs on n vertices, disconnected graphs
# included (OEIS A005638 for cubic, A033301 for quartic). Complementation
# gives the classes of degree n - 1 - d.
REGULAR_CLASS_COUNTS = {(10, 3): 21, (10, 4): 60}


def regular_class_count(n: int, d: int) -> int:
    if (n, d) in REGULAR_CLASS_COUNTS:
        return REGULAR_CLASS_COUNTS[(n, d)]
    return REGULAR_CLASS_COUNTS[(n, n - 1 - d)]


# ---------------------------------------------------------------------------
# graphs

def decode_graph6(text: str) -> tuple[int, tuple[int, ...]]:
    """Short-form graph6 (1..62 vertices); raises ValueError on bad input."""
    raw = text.encode("ascii")
    if not raw:
        raise ValueError("empty graph6 string")
    n = raw[0] - 63
    if not 1 <= n <= 62:
        raise ValueError(f"graph6 order byte {raw[0]} out of range")
    need = n * (n - 1) // 2
    if len(raw) - 1 != (need + 5) // 6:
        raise ValueError(f"graph6 body of {text!r} has the wrong length")
    bits = []
    for b in raw[1:]:
        if not 63 <= b <= 126:
            raise ValueError(f"graph6 byte {b} out of range")
        bits.extend((b - 63) >> k & 1 for k in range(5, -1, -1))
    if any(bits[need:]):
        raise ValueError("nonzero graph6 padding")
    rows = [0] * n
    k = 0
    for j in range(1, n):  # graph6 lists the upper triangle column by column
        for i in range(j):
            if bits[k]:
                rows[i] |= 1 << j
                rows[j] |= 1 << i
            k += 1
    return n, tuple(rows)


def from_edges(n: int, edges) -> tuple[int, tuple[int, ...]]:
    rows = [0] * n
    for u, v in edges:
        rows[u] |= 1 << v
        rows[v] |= 1 << u
    return n, tuple(rows)


def degrees(g) -> list[int]:
    return [bin(r).count("1") for r in g[1]]


def edge_count(g) -> int:
    return sum(degrees(g)) // 2


def complement(g):
    n, rows = g
    full = (1 << n) - 1
    return n, tuple(full & ~r & ~(1 << i) for i, r in enumerate(rows))


def relabel(g, perm):
    """Old vertex i becomes perm[i]."""
    n, rows = g
    out = [0] * n
    for i in range(n):
        for j in range(n):
            if rows[i] >> j & 1:
                out[perm[i]] |= 1 << perm[j]
    return n, tuple(out)


def triple_counts(g) -> tuple[int, int]:
    """(triangles, induced 2-edge paths) by scanning every vertex triple."""
    n, rows = g
    tri = p3 = 0
    for a, b, c in combinations(range(n), 3):
        e = (rows[a] >> b & 1) + (rows[a] >> c & 1) + (rows[b] >> c & 1)
        if e == 3:
            tri += 1
        elif e == 2:
            p3 += 1
    return tri, p3


# ---------------------------------------------------------------------------
# class counts: Burnside over the pair action of S_n

def partitions(n: int, largest: int | None = None):
    """Integer partitions of n as non-increasing tuples."""
    if largest is None:
        largest = n
    if n == 0:
        yield ()
        return
    for first in range(min(n, largest), 0, -1):
        for rest in partitions(n - first, first):
            yield (first,) + rest


def _pair_cycle_lengths(cycle_type: tuple[int, ...]) -> list[int]:
    """Cycle lengths of the induced permutation on vertex pairs."""
    out = []
    for a in cycle_type:  # pairs inside one vertex cycle
        out.extend([a] * ((a - 1) // 2))
        if a % 2 == 0:
            out.append(a // 2)
    for a, b in combinations(cycle_type, 2):  # pairs across two cycles
        out.extend([a * b // gcd(a, b)] * gcd(a, b))
    return out


def class_count(n: int, m: int) -> int:
    """Number of isomorphism classes of graphs with n vertices and m edges:
    (1/n!) sum over permutations of [x^m] prod over pair cycles (1 + x^len),
    summed by cycle type."""
    total = 0
    for lam in partitions(n):
        z = 1
        for length, mult in Counter(lam).items():
            z *= length ** mult * factorial(mult)
        poly = [1]
        for length in _pair_cycle_lengths(lam):
            grown = poly + [0] * length
            for i, c in enumerate(poly):
                grown[i + length] += c
            poly = grown
        if m < len(poly):
            total += factorial(n) // z * poly[m]
    if total % factorial(n):
        raise ArithmeticError("Burnside sum not divisible by n!")
    return total // factorial(n)


# ---------------------------------------------------------------------------
# exact linear algebra

def determinant(matrix) -> int:
    """Determinant of an integer matrix by Gaussian elimination over Fraction."""
    a = [[Fraction(x) for x in row] for row in matrix]
    size = len(a)
    det = Fraction(1)
    for c in range(size):
        pivot = next((r for r in range(c, size) if a[r][c] != 0), None)
        if pivot is None:
            return 0
        if pivot != c:
            a[c], a[pivot] = a[pivot], a[c]
            det = -det
        det *= a[c][c]
        for r in range(c + 1, size):
            f = a[r][c] / a[c][c]
            if f:
                for k in range(c, size):
                    a[r][k] -= f * a[c][k]
    if det.denominator != 1:
        raise ArithmeticError("integer determinant came out fractional")
    return int(det)


def adjacency(g) -> list[list[int]]:
    n, rows = g
    return [[rows[i] >> j & 1 for j in range(n)] for i in range(n)]


def laplacian(g) -> list[list[int]]:
    n, rows = g
    deg = degrees(g)
    return [[deg[i] if i == j else -(rows[i] >> j & 1) for j in range(n)]
            for i in range(n)]


def spanning_trees(g) -> int:
    """Matrix-tree theorem: the Laplacian with its first row and column removed."""
    lap = laplacian(g)
    return determinant([row[1:] for row in lap[1:]])


def matmul(a, b) -> list[list[int]]:
    size = len(a)
    return [[sum(a[i][k] * b[k][j] for k in range(size)) for j in range(size)]
            for i in range(size)]


def power_traces(matrix, kmax: int) -> tuple[int, ...]:
    """(tr M, tr M^2, ..., tr M^kmax)."""
    out = []
    power = matrix
    for k in range(kmax):
        out.append(sum(power[i][i] for i in range(len(matrix))))
        if k + 1 < kmax:
            power = matmul(power, matrix)
    return tuple(out)


def adjacency_traces(g, kmax: int | None = None) -> tuple[int, ...]:
    return power_traces(adjacency(g), kmax or g[0])


def laplacian_traces(g, kmax: int | None = None) -> tuple[int, ...]:
    return power_traces(laplacian(g), kmax or g[0])


# ---------------------------------------------------------------------------
# isomorphism, without any canonical form

def _refined_colours(g):
    """Colour refinement started from (degree, triangles at the vertex).

    Returns (invariant, colours): the invariant lists the sorted colour
    signatures of every round, so two graphs with equal invariants get
    colours that correspond, and isomorphic graphs always get equal ones.
    """
    n, rows = g
    nbrs = [[j for j in range(n) if rows[i] >> j & 1] for i in range(n)]
    sig = [(len(nbrs[v]),
            sum(1 for a, b in combinations(nbrs[v], 2) if rows[a] >> b & 1))
           for v in range(n)]
    invariant = []
    classes = 0
    while True:
        ranks = {s: r for r, s in enumerate(sorted(set(sig)))}
        colours = [ranks[s] for s in sig]
        invariant.append(tuple(sorted(sig)))
        if len(ranks) == classes:
            return tuple(invariant), colours
        classes = len(ranks)
        sig = [(colours[v], tuple(sorted(colours[w] for w in nbrs[v])))
               for v in range(n)]


def isomorphic(g, h) -> bool:
    """Backtracking search for an adjacency-preserving bijection that keeps
    refined colours; exhaustive, so False is a proof of non-isomorphism."""
    if g[0] != h[0] or edge_count(g) != edge_count(h):
        return False
    inv_g, col_g = _refined_colours(g)
    inv_h, col_h = _refined_colours(h)
    if inv_g != inv_h:
        return False
    return _extend_map(g, h, col_g, col_h)


def _extend_map(g, h, col_g, col_h) -> bool:
    n, grows = g
    hrows = h[1]
    size = Counter(col_g)
    order = sorted(range(n), key=lambda v: (size[col_g[v]], col_g[v], v))
    image = [-1] * n
    used = [False] * n

    def place(depth: int) -> bool:
        if depth == n:
            return True
        v = order[depth]
        for w in range(n):
            if used[w] or col_h[w] != col_g[v]:
                continue
            if all((grows[v] >> u & 1) == (hrows[w] >> image[u] & 1)
                   for u in order[:depth]):
                image[v] = w
                used[w] = True
                if place(depth + 1):
                    return True
                used[w] = False
        image[v] = -1
        return False

    return place(0)


def pairwise_non_isomorphic(graphs) -> bool:
    """No two members isomorphic. Graphs are grouped by refined-colour
    invariant first; only members sharing one are searched pairwise."""
    groups: dict = {}
    for g in graphs:
        key = (g[0], edge_count(g), _refined_colours(g)[0])
        groups.setdefault(key, []).append(g)
    for members in groups.values():
        for a, b in combinations(members, 2):
            if isomorphic(a, b):
                return False
    return True


def same_classes(left, right) -> bool:
    """Do two lists, each pairwise non-isomorphic, hold the same classes?"""
    if len(left) != len(right):
        return False
    unmatched = list(right)
    for g in left:
        hit = next((i for i, h in enumerate(unmatched) if isomorphic(g, h)), None)
        if hit is None:
            return False
        unmatched.pop(hit)
    return True
