import copy
import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from treeopt import linalg
from treeopt.errors import InternalConsistencyError
from treeopt.graphs import (
    complete_bipartite,
    complete_graph,
    cycle_graph,
    disjoint_union,
    path_graph,
)
from treeopt.linalg import (
    IntMatrix,
    adjacency_matrix,
    char_poly,
    det_bareiss,
    laplacian,
    spanning_tree_count,
    trace_powers,
    tree_count_via_complement,
)

from conftest import brute_spanning_trees, graph_from_mask


def naive_det(rows):
    """Cofactor expansion over exact rationals; the slow reference."""
    n = len(rows)
    if n == 0:
        return 1
    if n == 1:
        return rows[0][0]
    total = 0
    for j in range(n):
        if rows[0][j] == 0:
            continue
        minor = [[row[k] for k in range(n) if k != j] for row in rows[1:]]
        sign = -1 if j % 2 else 1
        total += sign * rows[0][j] * naive_det(minor)
    return total


small_entries = st.integers(-6, 6)
sparse_entries = st.one_of(st.just(0), small_entries)  # about half zeros


@st.composite
def int_matrices(draw, max_n=5, order=None, entries=small_entries):
    n = draw(st.integers(1, max_n)) if order is None else order
    rows = [tuple(draw(entries) for _ in range(n)) for _ in range(n)]
    return IntMatrix(tuple(rows))


# ---------------------------------------------------------------------------
# IntMatrix basics

def test_matrix_ops():
    a = IntMatrix(((1, 2), (3, 4)))
    b = IntMatrix(((1, 0), (0, 1)))
    assert a.mul(b) == a
    with pytest.raises(ValueError):
        IntMatrix(((1, 2),))  # not square
    with pytest.raises(ValueError):
        a.mul(IntMatrix(((1,),)))  # orders 2 and 1


def test_matrix_pickle_and_copy_round_trip():
    a = IntMatrix(((1, -2), (3, 4)))
    for twin in (pickle.loads(pickle.dumps(a)), copy.copy(a), copy.deepcopy(a)):
        assert twin == a and twin.order == 2
        with pytest.raises(AttributeError):
            twin.rows = ()


def test_matrix_is_a_validated_record():
    a = IntMatrix(((1, -2, 0), (3, 4, 5), (0, 0, 1)))
    twin = pickle.loads(pickle.dumps(a))
    assert twin.order == 3 and twin == a and twin.trace() == 6
    assert a._replace(rows=((7,),)).order == 1
    with pytest.raises(ValueError):
        a._replace(rows=((1, 2), (3, 4), (5, 6)))  # not square
    with pytest.raises(AttributeError):
        a.order = 2


def test_matrix_refuses_non_int_entries():
    # a cast would truncate 1.5 to 1 and read 0.5 I as 0, the wrong polynomial
    for bad in (((1.5, 2), (3, 4)), ((0.5, 0), (0, 0.5)), (("7",),), ((True,),)):
        with pytest.raises(TypeError):
            IntMatrix(bad)
    a = IntMatrix(((1, 2), (3, 4)))
    with pytest.raises(TypeError):
        a._replace(rows=((1, 2.0), (3, 4)))
    assert IntMatrix([[1, 2], [3, 4]]) == a  # lists still become tuples


def naive_mul(a, b):
    """Plain triple-loop product of two row sequences; the slow reference."""
    n = len(a)
    return [[sum(a[i][l] * b[l][j] for l in range(n)) for j in range(n)] for i in range(n)]


@st.composite
def matrix_pairs(draw):
    a = draw(int_matrices(entries=sparse_entries))
    return a, draw(int_matrices(order=a.order, entries=sparse_entries))


@settings(max_examples=150)
@given(matrix_pairs())
def test_sparse_product_matches_triple_loop(pair):
    a, b = pair
    prod = a.mul(b)
    public = IntMatrix(naive_mul(a.rows, b.rows))
    # the product must be indistinguishable from the same rows built directly
    assert prod == public and prod.order == public.order
    assert pickle.dumps(prod) == pickle.dumps(public)
    with pytest.raises(AttributeError):
        prod.rows = ()


def test_adjacency_and_laplacian():
    g = path_graph(3)
    assert adjacency_matrix(g) == IntMatrix(((0, 1, 0), (1, 0, 1), (0, 1, 0)))
    lap = laplacian(g)
    assert lap.trace() == 4  # sum of degrees
    assert all(sum(lap.rows[i]) == 0 for i in range(3))  # row sums vanish


# ---------------------------------------------------------------------------
# determinants

def test_det_known_values():
    assert det_bareiss(((2, 0), (0, 3))) == 6
    assert det_bareiss(((1, 2), (2, 4))) == 0  # singular
    assert det_bareiss(((0, 1), (1, 0))) == -1  # needs a pivot swap


@pytest.mark.parametrize("rows", [
    # column 1 has a zero pivot only after step 0 and needs a swap
    [[1, 2, 3], [2, 4, 1], [3, 5, 2]],
    # rows 2 and 3 already hold 0 in column 0, so step 0 only rescales them
    # (times the pivot 3, divided by 1)
    [[3, 1, 2, 0], [0, 2, 1, 1], [0, 1, 4, 2], [1, 0, 2, 5]],
    # the pivot at step 1 equals the one at step 0 (-3) and row 2 holds 0 in
    # column 1, so the update at step 1 leaves it unchanged
    [[-3, 3, 0], [0, 1, 3], [3, -3, 2]],
    # singular, seen only at step 1: no nonzero left in column 1
    [[1, 2, 3, 4], [2, 4, 6, 9], [3, 6, 1, 2], [1, 2, 0, 7]],
])
def test_det_elimination_branches(rows):
    assert det_bareiss(rows) == naive_det(rows)


@settings(max_examples=150)
@given(int_matrices())
def test_det_matches_cofactor_expansion(mat):
    assert det_bareiss(mat.rows) == naive_det([list(r) for r in mat.rows])


# ---------------------------------------------------------------------------
# characteristic polynomial (division-free) vs determinant route

def test_char_poly_known():
    # Laplacian of K_4: x^4 - 12x^3 + 48x^2 - 64x
    assert char_poly(laplacian(complete_graph(4))) == (0, -64, 48, -12, 1)
    assert char_poly(laplacian(path_graph(3))) == (0, 3, -4, 1)


@settings(max_examples=80)
@given(int_matrices(max_n=4), st.integers(-5, 5))
def test_char_poly_agrees_with_determinant(mat, x):
    # P(x) = det(xI - M), the two exact routes must coincide pointwise
    p = char_poly(mat)
    shifted = [[(x if i == j else 0) - a for j, a in enumerate(row)]
               for i, row in enumerate(mat.rows)]
    assert sum(c * x ** k for k, c in enumerate(p)) == det_bareiss(shifted)


# ---------------------------------------------------------------------------
# spanning trees

def test_tree_count_known_values():
    assert spanning_tree_count(complete_graph(4)) == 16
    assert spanning_tree_count(cycle_graph(5)) == 5
    assert spanning_tree_count(complete_bipartite(3, 3)) == 81
    assert spanning_tree_count(disjoint_union(complete_graph(2), complete_graph(2))) == 0
    assert spanning_tree_count(complete_graph(1)) == 1
    assert spanning_tree_count(path_graph(4)) == 1


def test_tree_count_cayley():
    for n in range(2, 10):
        assert spanning_tree_count(complete_graph(n)) == n ** (n - 2)


def test_tree_count_matches_brute_force():
    for g in [complete_graph(4), cycle_graph(5), complete_bipartite(3, 3),
              complete_graph(5), path_graph(5)]:
        assert spanning_tree_count(g) == brute_spanning_trees(g)


@settings(max_examples=100)
@given(st.integers(2, 6), st.integers(0, (1 << 15) - 1))
def test_two_tree_count_routes_agree(n, mask):
    g = graph_from_mask(n, mask & ((1 << (n * (n - 1) // 2)) - 1))
    assert spanning_tree_count(g) == tree_count_via_complement(g)


def test_tree_count_via_complement_value():
    # evaluation route: t(G) = P_complement(n) / n^2 on an exact division
    assert tree_count_via_complement(complete_bipartite(3, 3)) == 81
    assert tree_count_via_complement(complete_graph(1)) == 1


def test_tree_count_via_complement_checks_its_division(monkeypatch):
    # the complement's polynomial at n, off by one, is no multiple of n^2
    real = linalg.char_poly
    monkeypatch.setattr(linalg, "char_poly", lambda mat: (real(mat)[0] + 1, *real(mat)[1:]))
    with pytest.raises(InternalConsistencyError, match="not divisible by 36"):
        tree_count_via_complement(complete_bipartite(3, 3))


def test_trace_powers():
    a = adjacency_matrix(cycle_graph(4))
    assert trace_powers(a, 4) == [0, 8, 0, 32]
    lap = laplacian(complete_graph(3))
    assert trace_powers(lap, 3) == [6, 18, 54]
    with pytest.raises(ValueError):
        trace_powers(lap, 0)
    naive = lap.rows
    for want in trace_powers(lap, 3):
        assert sum(naive[i][i] for i in range(3)) == want
        naive = naive_mul(naive, lap.rows)
