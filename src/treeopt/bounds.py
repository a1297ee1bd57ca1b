"""Analytic bounds on complement spanning-tree counts, plus certificates.

Floats appear here and only here, always in log space with compensated
summation; every verification decision elsewhere is exact-integer. Equality
detection is structural (union of complete graphs), never a float test.
"""

from __future__ import annotations

import math
from collections import namedtuple
from numbers import Rational
from typing import Sequence

from .errors import InternalConsistencyError
from .graphs import (GIRTH_INFINITE, Graph, complement, count_induced_p3, extend_g0,
                     girth, girth_and_cycles, is_clique_union)
from .linalg import char_poly, laplacian, spanning_tree_count
from .sequences import gap_sequence

CERTIFIED_UNIQUE = "CERTIFIED_UNIQUE"
CERTIFIED_BY_CYCLE_COUNTS = "CERTIFIED_BY_CYCLE_COUNTS"
INCONCLUSIVE = "INCONCLUSIVE"


def f_of(degrees: Sequence[int], x: float) -> float:
    """prod_i (1 - (d_i+1)/x)^(d_i/(d_i+1)), in log space.

    x must exceed max(d_i) + 1 whenever that d_i is positive; hitting it
    exactly gives 0, going below raises.
    """
    terms = []
    for d in degrees:
        if d == 0:
            continue
        base = 1.0 - (d + 1) / x
        if base == 0.0:
            return 0.0
        if base < 0.0:
            raise ValueError(f"evaluation point {x} below degree {d} + 1")
        terms.append(d / (d + 1) * math.log(base))
    return math.exp(math.fsum(terms))


# equality_flag is structural: the complement of a clique union attains the bound
BoundReport = namedtuple("BoundReport", "bound_value exact_t slack equality_flag c_used "
                                        "connected_complement")


def _bound_report(g: Graph, gap_terms: list[float], c_used: int) -> BoundReport:
    n = g.n
    degs = g.degrees()
    exact_t = spanning_tree_count(complement(g))  # 0 iff the complement is disconnected
    f_val = f_of(degs, float(n))
    if f_val == 0.0:
        bound = 0.0
    else:
        log_bound = (n - 2) * math.log(n) - math.fsum(gap_terms) + math.log(f_val)
        bound = math.exp(log_bound)
    return BoundReport(
        bound_value=bound,
        exact_t=exact_t,
        slack=bound - exact_t,
        equality_flag=is_clique_union(g),
        c_used=c_used,
        connected_complement=exact_t > 0,
    )


def base_bound(g: Graph) -> BoundReport:
    """n^(n-2) * exp(-2 nu / (3 n^3)) * f(d, n); tight exactly on clique unions."""
    n = g.n
    return _bound_report(g, [2 * count_induced_p3(g) / (3 * n ** 3)], c_used=3)


def improved_bound(g: Graph, c: int) -> BoundReport:
    """Same shape with the first c gap terms: exp(-sum g_k / (k n^k))."""
    if c < 1:
        raise ValueError("c must be >= 1")
    n = g.n
    gaps = gap_sequence(g, c)
    terms = [gaps[k - 1] / (k * n ** k) for k in range(1, c + 1)]
    return _bound_report(g, terms, c_used=c)


def family_tree_count(g0: Graph, d: int, p: int, q: int) -> int:
    """t(complement(g0 + p K_{d+1} + q K_d)) along two independent routes:
    matrix-tree on the complement, and the exact rational product formula
    over g0's Laplacian polynomial. They must agree."""
    from fractions import Fraction  # imported here: the CLI never needs it
    big = extend_g0(g0, d, p, q)  # validates the degree precondition
    np_ = big.n
    direct = spanning_tree_count(complement(big))
    poly_at_np = sum(c * np_ ** k for k, c in enumerate(char_poly(laplacian(g0))))
    val = Fraction(np_) ** (np_ - 2 - p * d - q * (d - 1)) \
        * Fraction(np_ - d - 1) ** (p * d) \
        * Fraction(np_ - d) ** (q * (d - 1)) \
        * Fraction(poly_at_np, np_ ** g0.n)
    if val.denominator != 1:
        raise InternalConsistencyError(f"family product {val} is not an integer")
    if val != direct:
        raise InternalConsistencyError(f"family count paths disagree: {direct} vs {val}")
    return direct


def n0_threshold(g0_order: int, d: int, c: int) -> int:
    """Order beyond which the c-term bound separates the family; the c = 1
    exponent from the remark coincides with c + 2, so one formula serves."""
    if g0_order < 0 or d < 1 or c < 1:
        raise ValueError("need g0_order >= 0, d >= 1, c >= 1")
    return 2 * d + (g0_order and g0_order * (2 * d) ** (c + 2))  # no power when g0 is empty


def abrego_feasibility(n: int, delta: int, tau_value: int) -> tuple[Rational, bool]:
    """Exact right-hand side rho((delta+1)^2 - rho^2)/4 + (3/2) tau, as a
    Fraction, and whether n <= that bound. tau_value is supplied by the caller; it is the
    least triangle count over the rho-regular class on delta+1+rho vertices."""
    if delta < 3:
        raise ValueError("delta must be at least 3")
    if tau_value < 0:
        raise ValueError("tau_value must be nonnegative")
    from fractions import Fraction
    rho = n % (delta + 1)
    rhs = Fraction(rho * ((delta + 1) ** 2 - rho ** 2), 4) + Fraction(3, 2) * tau_value
    return rhs, n <= rhs


def girth_certificate(candidate: Graph, rivals: Sequence[Graph]) -> str:
    """Cheap minimality certificate from girth and cycle counts, which are
    isomorphism invariants, against the other members of the candidate's class.

    CERTIFIED_UNIQUE when the candidate's girth exceeds every rival's;
    CERTIFIED_BY_CYCLE_COUNTS when every rival of equal girth has a larger
    first diverging cycle count (lengths 3..2*girth-1); INCONCLUSIVE
    otherwise. Inconclusive is not a refutation.
    """
    g_girth = girth(candidate)
    rival_girths = [girth(h) for h in rivals]
    if all(gh < g_girth for gh in rival_girths):
        return CERTIFIED_UNIQUE
    if any(gh > g_girth for gh in rival_girths):
        return INCONCLUSIVE
    if g_girth == GIRTH_INFINITE:  # a tie with an acyclic rival: no cycle counts to compare
        return INCONCLUSIVE
    window = min(2 * int(g_girth) - 1, candidate.n)
    _, cand_cyc = girth_and_cycles(candidate, window)
    for h, gh in zip(rivals, rival_girths):
        if gh < g_girth:
            continue  # diverges at its own girth, in the candidate's favor
        _, h_cyc = girth_and_cycles(h, window)
        if not cand_cyc < h_cyc:  # equal lengths: lex order is the first difference
            return INCONCLUSIVE
    return CERTIFIED_BY_CYCLE_COUNTS
