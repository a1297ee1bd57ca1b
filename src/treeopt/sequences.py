"""Trace sequences of adjacency/Laplacian powers, gap sequences, lex order.

The cutoff for lex comparisons defaults to n: by Newton's identities the
first n power sums determine the characteristic polynomial, so two same-order
graphs whose sequences agree through n agree at every length.
"""

from __future__ import annotations

from typing import Iterable

from .errors import InternalConsistencyError
from .graphs import Graph
from .linalg import IntMatrix, adjacency_matrix, laplacian, trace_powers

ADJACENCY = "adjacency"
LAPLACIAN = "laplacian"

EQUAL = "EQUAL"
GREATER = "GREATER"


def _trace_prefix(g: Graph, kind: str, upto: int) -> tuple[int, ...]:
    """Traces at indices 1..upto (at most 4) from the bitset rows alone, by
    the identities that `select_lex_minima` names; no matrix is built."""
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
    return tuple(trace_powers(adjacency_matrix(g), cutoff))


def laplacian_sequence(g: Graph, cutoff: int) -> tuple[int, ...]:
    """Traces of L^1..L^cutoff: entry k-1 is the trace at index k."""
    return tuple(trace_powers(laplacian(g), cutoff))


def degree_power_floor(g: Graph, k: int) -> int:
    """sum_i d_i (d_i + 1)^(k-1), the clique-union value of the k-th trace."""
    return sum(d * (d + 1) ** (k - 1) for d in g.degrees())


def gap_sequence(g: Graph, cutoff: int) -> tuple[int, ...]:
    """Laplacian trace minus its degree floor, per index 1..cutoff: entry
    k-1 is the gap at index k.

    The first two gaps vanish identically; that is asserted here because a
    violation would mean the trace computation itself broke.
    """
    ell = trace_powers(laplacian(g), cutoff)
    gaps = tuple(ell[k - 1] - degree_power_floor(g, k) for k in range(1, cutoff + 1))
    for k in (1, 2):
        if k <= cutoff and gaps[k - 1] != 0:
            raise InternalConsistencyError(f"gap at index {k} is {gaps[k - 1]}, expected 0")
    return gaps


def select_lex_minima(
    graphs: Iterable[Graph], kind: str, cutoff: int | None = None,
) -> tuple[list[Graph], list[dict]]:
    """Lex-minimal members plus a per-graph divergence record.

    Indices 1..min(4, cutoff) come from the bitset rows, with no matrix:
    tr A = 0, tr A^2 = 2m, tr A^3 = 6 tau, tr A^4 = sum_ij c_ij^2, and
    tr L = sum d, tr L^2 = sum d^2 + sum d, tr L^3 = sum d^3 + 3 sum d^2 -
    6 tau, tr L^4 = sum_ij (L^2)_ij^2 with (L^2)_ii = d_i^2 + d_i and
    (L^2)_ij = c_ij - a_ij (d_i + d_j), where c_ij = |N(i) & N(j)|. A member
    whose prefix exceeds the least one is recorded as GREATER at
    `divergence_index` k, the first index where the two differ, with its
    `value` and the `minimum_value` there. The members still tied go on from
    k = 5 by matrix products: each survivor's running power is multiplied
    once per index, and those whose trace exceeds the least among the
    survivors are recorded and dropped the same way. Selection stops at the
    cutoff or as soon as one member is left. The members left are the
    minima; their records are EQUAL with index and values None.
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
    upto = min(cutoff, 4)
    prefixes = [_trace_prefix(g, kind, upto) for g in pool]
    least = min(prefixes)
    records: list = [None] * len(pool)
    for i, p in enumerate(prefixes):
        if p != least:
            k = next(k for k in range(upto) if p[k] != least[k])
            records[i] = {"relation": GREATER, "divergence_index": k + 1,
                          "value": p[k], "minimum_value": least[k]}
    alive = [i for i, p in enumerate(prefixes) if p == least]
    for k in range(5, cutoff + 1):
        if len(alive) == 1:
            break
        if k == 5:  # the fourth powers of the members tied through k = 4
            build = adjacency_matrix if kind == ADJACENCY else laplacian
            mats = {i: build(pool[i]) for i in alive}
            powers = {i: m.mul(m) for i, m in mats.items()}
            powers = {i: p.mul(p) for i, p in powers.items()}
        for i in alive:
            powers[i] = powers[i].mul(mats[i])
        values = {i: powers[i].trace() for i in alive}
        low = min(values.values())
        for i, v in values.items():
            if v != low:
                records[i] = {"relation": GREATER, "divergence_index": k,
                              "value": v, "minimum_value": low}
        alive = [i for i in alive if values[i] == low]
    for i in alive:
        records[i] = {"relation": EQUAL, "divergence_index": None,
                      "value": None, "minimum_value": None}
    return [pool[i] for i in alive], records


def mixed_trace_identity_check(g: Graph, i: int, j: int) -> tuple[int, int, bool]:
    """tr(L^i ((d+1)I - J)^j) against (d+1)^j * tr(L^i) for regular g.

    Left side is computed by direct matrix products, right side from the
    trace sequence; both exact.
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
    rhs = (d + 1) ** j * trace_powers(lap, i)[-1]
    return lhs, rhs, lhs == rhs
