"""Trace sequences of adjacency/Laplacian powers, gap sequences, lex order.

The cutoff for lex comparisons defaults to n: by Newton's identities the
first n power sums determine the characteristic polynomial, so two same-order
graphs whose sequences agree through n agree at every length.
"""

from __future__ import annotations

from typing import Iterable, Iterator

from .errors import InternalConsistencyError
from .graphs import Graph
from .linalg import IntMatrix, adjacency_matrix, laplacian

ADJACENCY = "adjacency"
LAPLACIAN = "laplacian"


def _trace_prefix(g: Graph, kind: str, upto: int) -> tuple[int, ...]:
    """Traces at indices 1..upto (at most 4) from the bitset rows alone; no
    matrix is built. With c_ij = |N(i) & N(j)|:
    tr A = 0, tr A^2 = 2m, tr A^3 = 6 tau, tr A^4 = sum_ij c_ij^2, and
    tr L = sum d, tr L^2 = sum d^2 + sum d, tr L^3 = sum d^3 + 3 sum d^2 -
    6 tau, tr L^4 = sum_ij (L^2)_ij^2 with (L^2)_ii = d_i^2 + d_i and
    (L^2)_ij = c_ij - a_ij (d_i + d_j)."""
    if kind not in (ADJACENCY, LAPLACIAN):
        raise ValueError(f"unknown sequence kind {kind!r}")
    rows = g.rows
    degs = [r.bit_count() for r in rows]
    tri = off = 0  # over i < j: c_ij on edges (3 tau), and (M^2)_ij squared
    for i, ri in enumerate(rows):
        for j in range(i + 1, g.n):
            c = (ri & rows[j]).bit_count()
            if ri >> j & 1:
                tri += c
                if kind == LAPLACIAN:
                    c -= degs[i] + degs[j]
            off += c * c
    s1, s2, s3 = (sum(d ** p for d in degs) for p in (1, 2, 3))
    if kind == ADJACENCY:
        full = (0, s1, 2 * tri, s2 + 2 * off)
    else:
        full = (s1, s2 + s1, s3 + 3 * s2 - 2 * tri,
                sum((d * d + d) ** 2 for d in degs) + 2 * off)
    return full[:upto]


def adjacency_sequence(g: Graph, cutoff: int) -> tuple[int, ...]:
    """Traces of A^1..A^cutoff: entry k-1 is the trace at index k."""
    return tuple(_traces(g, ADJACENCY, cutoff))


def laplacian_sequence(g: Graph, cutoff: int) -> tuple[int, ...]:
    """Traces of L^1..L^cutoff: entry k-1 is the trace at index k."""
    return tuple(_traces(g, LAPLACIAN, cutoff))


def degree_power_floor(g: Graph, k: int) -> int:
    """sum_i d_i (d_i + 1)^(k-1), the clique-union value of the k-th trace."""
    return sum(d * (d + 1) ** (k - 1) for d in g.degrees())


def gap_sequence(g: Graph, cutoff: int) -> tuple[int, ...]:
    """Laplacian trace minus its degree floor, per index 1..cutoff: entry
    k-1 is the gap at index k.

    The first two gaps vanish identically; that is asserted here because a
    violation would mean the trace computation itself broke.
    """
    gaps = tuple(trace - degree_power_floor(g, k)
                 for k, trace in enumerate(_traces(g, LAPLACIAN, cutoff), start=1))
    for k in (1, 2):
        if k <= cutoff and gaps[k - 1] != 0:
            raise InternalConsistencyError(f"gap at index {k} is {gaps[k - 1]}, expected 0")
    return gaps


def _traces(g: Graph, kind: str, cutoff: int) -> Iterator[int]:
    """The kind's traces at indices 1..cutoff, computed as they are pulled:
    1..4 from `_trace_prefix`, then one product per index, from the fourth
    power on. A stream dropped by index 4 builds no matrix. Every trace
    sequence in the package is read from this one stream."""
    if cutoff < 1:
        raise ValueError("cutoff must be >= 1")
    yield from _trace_prefix(g, kind, min(cutoff, 4))
    if cutoff > 4:
        m = (adjacency_matrix if kind == ADJACENCY else laplacian)(g)
        power = m.mul(m)
        power = power.mul(power)
        for _ in range(4, cutoff):
            power = power.mul(m)
            yield power.trace()


def select_lex_minima(graphs: Iterable[Graph], kind: str,
                      cutoff: int | None = None) -> list[Graph]:
    """The members whose kind's trace sequence through the cutoff is
    lexicographically least, in input order.

    At each index every member still alive yields its next trace, and only
    those at the least value stay. Selection stops at the cutoff or as soon
    as one member is left.
    """
    pool = list(graphs)
    if not pool:
        raise ValueError("class is empty")
    n = pool[0].n
    if any(g.n != n for g in pool):
        raise ValueError("members must share the vertex count")
    if cutoff is None:
        cutoff = n
    if cutoff < 1:
        raise ValueError("cutoff must be >= 1")
    alive = [(g, _traces(g, kind, cutoff)) for g in pool]
    for _ in range(cutoff):
        values = [next(stream) for _, stream in alive]
        low = min(values)
        alive = [member for member, v in zip(alive, values) if v == low]
        if len(alive) == 1:
            break
    return [g for g, _ in alive]


def lex_divergence(g: Graph, h: Graph, kind: str) -> tuple[int, int, int] | None:
    """(k, g's trace, h's trace) at the first index k <= n where the two
    kind's traces differ, or None when they agree through n."""
    if g.n != h.n:
        raise ValueError("graphs must share the vertex count")
    pairs = zip(_traces(g, kind, g.n), _traces(h, kind, h.n))
    for k, (a, b) in enumerate(pairs, start=1):
        if a != b:
            return k, a, b
    return None


def mixed_trace_identity_check(g: Graph, i: int, j: int) -> tuple[int, int, bool]:
    """tr(L^i ((d+1)I - J)^j) against (d+1)^j * tr(L^i) for regular g.

    The left side is computed by direct matrix products, the right side from
    the trace stream, which takes i <= 4 from the bitset identities of
    `_trace_prefix`; so the two sides are independent routes, both exact.
    """
    degs = g.degrees()
    if min(degs) != max(degs):
        raise ValueError("graph is not regular")
    if i < 1 or j < 0:
        raise ValueError("need i >= 1 and j >= 0")
    d = degs[0]
    lap = laplacian(g)
    prod = lap
    for _ in range(i - 1):
        prod = prod.mul(lap)
    # B = (d+1)I - J: d on the diagonal, -1 elsewhere
    b = IntMatrix(tuple(tuple(d if r == c else -1 for c in range(g.n)) for r in range(g.n)))
    for _ in range(j):
        prod = prod.mul(b)
    lhs = prod.trace()
    rhs = (d + 1) ** j * laplacian_sequence(g, i)[-1]
    return lhs, rhs, lhs == rhs
