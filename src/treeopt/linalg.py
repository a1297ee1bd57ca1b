"""Exact integer matrix work: characteristic polynomials and tree counts.

Everything here is division-free or uses exact divisions only; no floats.
"""

from __future__ import annotations

from dataclasses import dataclass

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
        n = self.order
        if other.order != n:
            raise ValueError("order mismatch")
        bt = tuple(zip(*other.rows))
        return IntMatrix(
            tuple(tuple(sum(a * b for a, b in zip(row, col)) for col in bt) for row in self.rows))

    def trace(self) -> int:
        return sum(self.rows[i][i] for i in range(self.order))

    def __eq__(self, other):
        return isinstance(other, IntMatrix) and self.rows == other.rows

def adjacency_matrix(g: Graph) -> IntMatrix:
    return IntMatrix(tuple(tuple(g.rows[i] >> j & 1 for j in range(g.n))
                           for i in range(g.n)))


def laplacian(g: Graph) -> IntMatrix:
    degs = g.degrees()
    return IntMatrix(tuple(
        tuple(degs[i] if i == j else -(g.rows[i] >> j & 1) for j in range(g.n))
        for i in range(g.n)))


@dataclass(frozen=True)
class CharPoly:
    """Monic P(x) = sum coeffs[k] x^k, exact integer coefficients."""

    coeffs: tuple[int, ...]  # ascending, coeffs[-1] == 1

    def evaluate(self, x: int) -> int:
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc


def char_poly(mat: IntMatrix) -> CharPoly:
    """det(xI - mat) by the Berkowitz division-free scheme."""
    n = mat.order
    a = mat.rows
    poly = [1]  # descending coefficients, current leading principal block
    if n:
        poly = [1, -a[0][0]]
    for k in range(1, n):
        row = a[k][:k]
        col = [a[i][k] for i in range(k)]
        toep = [1, -a[k][k]]
        w = col
        for step in range(k):
            toep.append(-sum(row[i] * w[i] for i in range(k)))
            if step < k - 1:
                w = [sum(a[i][j] * w[j] for j in range(k)) for i in range(k)]
        new = []
        for i in range(len(poly) + 1):
            acc = 0
            for j in range(max(0, i - len(toep) + 1), min(i, len(poly) - 1) + 1):
                acc += toep[i - j] * poly[j]
            new.append(acc)
        poly = new
    return CharPoly(tuple(reversed(poly)))


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
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
            a[i][k] = 0
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


def spanning_tree_count(g: Graph) -> int:
    """Matrix-tree count: any principal (n-1)-minor of the Laplacian."""
    if g.n == 1:
        return 1
    lap = laplacian(g).rows
    minor = [r[:-1] for r in lap[:-1]]
    return det_bareiss(minor)


def tree_count_via_complement(g: Graph) -> int:
    """t(g) as P_complement(n) / n^2, exactness of the division enforced."""
    n = g.n
    p = char_poly(laplacian(complement(g)))
    val = p.evaluate(n)
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
