"""Trace sequences of adjacency/Laplacian powers, gap sequences, lex order.

The cutoff for lex comparisons defaults to n: by Newton's identities the
first n power sums determine the characteristic polynomial, so two same-order
graphs whose sequences agree through n agree at every length.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .errors import InternalConsistencyError
from .graphs import Graph, count_induced_p3
from .linalg import IntMatrix, adjacency_matrix, laplacian, trace_powers

ADJACENCY = "adjacency"
LAPLACIAN = "laplacian"

EQUAL = "EQUAL"
LESS = "LESS"
GREATER = "GREATER"


@dataclass(frozen=True)
class TraceSequence:
    kind: str
    values: tuple[int, ...]  # values[i] = trace of the (i+1)-th power

    @property
    def cutoff(self) -> int:
        return len(self.values)


@dataclass(frozen=True)
class GapSequence:
    values: tuple[int, ...]  # values[i] = gap at index i+1


@dataclass(frozen=True)
class LexVerdict:
    relation: str  # EQUAL, LESS, GREATER
    divergence_index: int | None  # 1-based, None when EQUAL


def _matrix_for(g: Graph, kind: str) -> IntMatrix:
    if kind == ADJACENCY:
        return adjacency_matrix(g)
    if kind == LAPLACIAN:
        return laplacian(g)
    raise ValueError(f"unknown sequence kind {kind!r}")


def adjacency_sequence(g: Graph, cutoff: int) -> TraceSequence:
    return TraceSequence(ADJACENCY, tuple(trace_powers(adjacency_matrix(g), cutoff)))


def laplacian_sequence(g: Graph, cutoff: int) -> TraceSequence:
    return TraceSequence(LAPLACIAN, tuple(trace_powers(laplacian(g), cutoff)))


def degree_power_floor(g: Graph, k: int) -> int:
    """sum_i d_i (d_i + 1)^(k-1), the clique-union value of the k-th trace."""
    return sum(d * (d + 1) ** (k - 1) for d in g.degrees())


def gap_sequence(g: Graph, cutoff: int) -> GapSequence:
    """Laplacian trace minus its degree floor, per index 1..cutoff.

    The first two gaps vanish identically; that is asserted here because a
    violation would mean the trace computation itself broke.
    """
    ell = trace_powers(laplacian(g), cutoff)
    gaps = tuple(ell[k - 1] - degree_power_floor(g, k) for k in range(1, cutoff + 1))
    for k in (1, 2):
        if k <= cutoff and gaps[k - 1] != 0:
            raise InternalConsistencyError(f"gap at index {k} is {gaps[k - 1]}, expected 0")
    return GapSequence(gaps)


def lex_compare(s: TraceSequence, t: TraceSequence) -> LexVerdict:
    if s.kind != t.kind:
        raise ValueError(f"kind mismatch: {s.kind} vs {t.kind}")
    if s.cutoff != t.cutoff:
        raise ValueError(f"cutoff mismatch: {s.cutoff} vs {t.cutoff}")
    for i, (a, b) in enumerate(zip(s.values, t.values), start=1):
        if a != b:
            return LexVerdict(LESS if a < b else GREATER, i)
    return LexVerdict(EQUAL, None)


def select_lex_minima(
    graphs: Iterable[Graph], kind: str, cutoff: int | None = None,
) -> tuple[list[Graph], list[dict]]:
    """Lex-minimal members plus a per-graph divergence record.

    Lexicographic order by definition: for k = 1..cutoff each surviving
    member's running matrix power is multiplied once, and the members whose
    k-th trace exceeds the least one among the survivors are recorded as
    GREATER at `divergence_index` k, with their `value` and the
    `minimum_value` there, and dropped. The survivors at k agree with the
    minimum through k - 1, so k is where a dropped member's sequence leaves
    the minimum's. The members left at the cutoff are the minima; their
    records are EQUAL with index and values None.
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
    mats = [_matrix_for(g, kind) for g in pool]
    powers = list(mats)
    records: list = [None] * len(pool)
    alive = range(len(pool))
    for k in range(1, cutoff + 1):
        if k > 1:
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
    n = g.n
    lap_i = laplacian(g).power(i)
    b = IntMatrix.identity(n).scale(d + 1).sub(IntMatrix.ones(n))
    lhs_mat = lap_i if j == 0 else lap_i.mul(b.power(j))
    lhs = lhs_mat.trace()
    rhs = (d + 1) ** j * trace_powers(laplacian(g), i)[-1]
    return lhs, rhs, lhs == rhs


def nu(g: Graph) -> int:
    """Induced 2-edge path count; the third gap equals twice this."""
    return count_induced_p3(g)
