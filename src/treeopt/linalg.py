"""Exact integer matrix work: characteristic polynomials and tree counts.

Everything here is division-free or uses exact divisions only; no floats.
Products sum only over the nonzero entries of each column of the right
factor, which saves work when that factor is sparse: a power of a graph's
A or L has at most d + 1 of them per column. `IntMatrix` stays, not plain
rows, because the benchmark books products at its `mul`.
"""

from __future__ import annotations

from .errors import InternalConsistencyError
from .graphs import Graph, complement


class IntMatrix:
    __slots__ = ("order", "rows")

    def __init__(self, rows):
        rows = tuple(tuple(int(x) for x in r) for r in rows)
        n = len(rows)
        if any(len(r) != n for r in rows):
            raise ValueError("matrix must be square")
        object.__setattr__(self, "order", n)
        object.__setattr__(self, "rows", rows)

    def __setattr__(self, name, value):
        raise AttributeError("IntMatrix is immutable")

    def __reduce__(self):
        return IntMatrix, (self.rows,)

    def mul(self, other: "IntMatrix") -> "IntMatrix":
        if other.order != self.order:
            raise ValueError("order mismatch")
        cols = [[(l, v) for l, v in enumerate(col) if v] for col in zip(*other.rows)]
        return IntMatrix([[sum([row[l] * v for l, v in col]) for col in cols]
                          for row in self.rows])

    def trace(self) -> int:
        return sum(self.rows[i][i] for i in range(self.order))

    def __eq__(self, other):
        return isinstance(other, IntMatrix) and self.rows == other.rows


def adjacency_matrix(g: Graph) -> IntMatrix:
    return IntMatrix([[r >> j & 1 for j in range(g.n)] for r in g.rows])


def laplacian(g: Graph) -> IntMatrix:
    return IntMatrix([[r.bit_count() if i == j else -(r >> j & 1) for j in range(g.n)]
                      for i, r in enumerate(g.rows)])


def char_poly(mat: IntMatrix) -> tuple[int, ...]:
    """det(xI - mat) by the Berkowitz division-free scheme, as its exact
    coefficients in ascending order (the last one is 1)."""
    a = mat.rows
    poly = [1]  # descending coefficients, current leading principal block
    for k in range(mat.order):
        row = a[k][:k]
        w = [a[i][k] for i in range(k)]
        toep = [1, -a[k][k]]
        for step in range(k):
            toep.append(-sum(row[i] * w[i] for i in range(k)))
            if step < k - 1:
                w = [sum(a[i][j] * w[j] for j in range(k)) for i in range(k)]
        # times the lower-triangular Toeplitz matrix whose first column is toep
        poly = [sum(toep[i - j] * poly[j] for j in range(min(i + 1, len(poly))))
                for i in range(len(poly) + 1)]
    return tuple(reversed(poly))


def det_bareiss(rows) -> int:
    """Exact determinant by fraction-free elimination.

    Accepts an IntMatrix or any square sequence of integer rows.
    """
    if isinstance(rows, IntMatrix):
        rows = rows.rows
    a = [list(r) for r in rows]
    n = len(a)
    if n == 0:
        return 1
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            pivot = next((i for i in range(k + 1, n) if a[i][k] != 0), None)
            if pivot is None:
                return 0
            a[k], a[pivot] = a[pivot], a[k]
            sign = -sign
        top = a[k]
        p = top[k]
        for i in range(k + 1, n):
            row = a[i]
            f = row[k]
            for j in range(k + 1, n):
                row[j] = (row[j] * p - f * top[j]) // prev
        prev = p
    return sign * a[n - 1][n - 1]


def spanning_tree_count(g: Graph) -> int:
    """Matrix-tree count: any principal (n-1)-minor of the Laplacian, here
    the one without the last vertex, built from the bitset rows."""
    m = g.n - 1
    minor = []
    for i, r in enumerate(g.rows[:m]):
        row = [0] * m
        bits = r & ((1 << m) - 1)
        while bits:
            low = bits & -bits
            row[low.bit_length() - 1] = -1
            bits ^= low
        row[i] = r.bit_count()
        minor.append(row)
    return det_bareiss(minor)


def tree_count_via_complement(g: Graph) -> int:
    """t(g) as P_complement(n) / n^2, exactness of the division enforced."""
    n = g.n
    val = sum(c * n ** k for k, c in enumerate(char_poly(laplacian(complement(g)))))
    q, r = divmod(val, n * n)
    if r:
        raise InternalConsistencyError(
            f"complement-polynomial value {val} not divisible by {n * n}")
    return q


def trace_powers(mat: IntMatrix, kmax: int) -> list[int]:
    """[trace(mat^1), ..., trace(mat^kmax)]."""
    if kmax < 1:
        raise ValueError("kmax must be >= 1")
    out = []
    power = mat
    for k in range(kmax):
        out.append(power.trace())
        if k + 1 < kmax:
            power = power.mul(mat)
    return out
