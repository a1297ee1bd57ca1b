"""Exact-arithmetic toolkit for spanning-tree maximization.

Everything certification-relevant runs on arbitrary-precision integers:
graph enumeration up to isomorphism, characteristic polynomials, trace
sequences and their gap floors, spanning-tree counts through complements,
and the girth shortcut for trace-minimality. Floating point appears only
in the diagnostic upper bounds. The package namespace exports nothing:
import from the modules, as in `from treeopt.graphs import Graph`.
"""
