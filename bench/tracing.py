"""Spans around treeopt's public functions, recorded from outside the package.

`traced(tracer)` replaces each function named in SPANS with a wrapper that
records (function, layer, start, end, parent) and puts the original back on
exit. Several modules import functions by name (certify imports
`enumerate_regular`, bounds imports `canonical_form`, cli imports
`spool_class`), so a wrapper is installed in every loaded treeopt namespace
that holds the original object, not only in the defining module. Methods
are wrapped on their class.
"""
from __future__ import annotations

import sys
import time
from contextlib import contextmanager

# (defining module, attribute or Class.method, layer metric that the span's self
# time is booked to). Functions not listed here are not
# wrapped; their time is self time of the listed caller.
SPANS = [
    ("treeopt.enumeration", "enumerate_regular", "enumeration.generate"),
    ("treeopt.enumeration", "enumerate_by_edges", "enumeration.generate"),
    ("treeopt.enumeration", "spool_class", "enumeration.generate"),
    ("treeopt.enumeration", "canonical_relabel", "enumeration.canonical_relabel"),
    ("treeopt.enumeration", "canonical_form", "enumeration.canonical_relabel"),
    ("treeopt.linalg", "spanning_tree_count", "linalg.spanning_tree_count"),
    ("treeopt.linalg", "det_bareiss", "linalg.spanning_tree_count"),
    ("treeopt.linalg", "IntMatrix.mul", "linalg.matmul"),
    ("treeopt.linalg", "trace_powers", "linalg.trace_powers"),
    ("treeopt.linalg", "char_poly", "linalg.char_poly"),
    ("treeopt.sequences", "select_lex_minima", "sequences.select_lex_minima"),
    ("treeopt.bounds", "girth_certificate", "bounds.girth_certificate"),
    ("treeopt.graphs", "girth", "graphs.girth"),
    ("treeopt.graphs", "girth_and_cycles", "graphs.girth"),
    ("treeopt.graphs", "from_graph6", "graphs.graph6"),
    ("treeopt.graphs", "to_graph6", "graphs.graph6"),
    ("treeopt.graphs", "complement", "graphs.structure"),
    ("treeopt.graphs", "degree_info", "graphs.structure"),
    ("treeopt.graphs", "count_triangles", "graphs.structure"),
    ("treeopt.graphs", "count_induced_p3", "graphs.structure"),
    ("treeopt.graphs", "h_family", "graphs.structure"),
    ("treeopt.certify", "cmd_verify_trace_minimal", "certify.decide"),
    ("treeopt.certify", "cmd_verify_l_trace_minimal", "certify.decide"),
    ("treeopt.certify", "cmd_verify_t_optimal", "certify.decide"),
    ("treeopt.certify", "cmd_check_duality", "certify.decide"),
    ("treeopt.certify", "cmd_report_class", "certify.decide"),
    ("treeopt.certify", "Certificate.to_json", "certify.render"),
    ("treeopt.certify", "Certificate.render_text", "certify.render"),
    ("treeopt.certify", "report_to_json", "certify.render"),
    ("treeopt.certify", "report_render_text", "certify.render"),
]

LAYERS = sorted({layer for _, _, layer in SPANS})

# Spans whose result is a class: its size is added to the member count.
_CLASS_SIZE = {
    "enumerate_regular": len,
    "enumerate_by_edges": len,
    "spool_class": int,
}


class Tracer:
    """In-memory span log for one traced pass."""

    def __init__(self):
        self.spans: list[list] = []  # [function, layer, start, end, parent index]
        self.members = 0
        self._stack: list[int] = []

    def wrap(self, function: str, layer: str, fn, class_size=None):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        def traced_call(*args, **kwargs):
            idx = len(spans)
            spans.append([function, layer, 0.0, 0.0, stack[-1] if stack else -1])
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx][2] = start
                spans[idx][3] = end
            if class_size is not None:
                self.members += class_size(result)
            return result

        traced_call.__wrapped__ = fn
        traced_call.__name__ = function
        return traced_call

    def totals(self) -> tuple[dict, dict, float]:
        """Self seconds per layer, calls per function, and seconds inside root spans."""
        child = [0.0] * len(self.spans)
        covered = 0.0
        for _, _, start, end, parent in self.spans:
            if parent < 0:
                covered += end - start
            else:
                child[parent] += end - start
        self_s = dict.fromkeys(LAYERS, 0.0)
        calls = dict.fromkeys((attr for _, attr, _ in SPANS), 0)
        for (function, layer, start, end, _), inner in zip(self.spans, child):
            self_s[layer] += end - start - inner
            calls[function] += 1
        return self_s, calls, covered


@contextmanager
def traced(tracer: Tracer):
    """Install span wrappers for the duration of the block."""
    undo = []
    try:
        for module_name, attr, layer in SPANS:
            module = sys.modules[module_name]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name)
                original = cls.__dict__[meth]
                setattr(cls, meth, tracer.wrap(attr, layer, original))
                undo.append((cls, meth, original))
                continue
            original = getattr(module, attr)
            wrapper = tracer.wrap(attr, layer, original, _CLASS_SIZE.get(attr))
            for name, namespace in list(sys.modules.items()):
                if (name == "treeopt" or name.startswith("treeopt.")) \
                        and namespace.__dict__.get(attr) is original:
                    setattr(namespace, attr, wrapper)
                    undo.append((namespace, attr, original))
        yield tracer
    finally:
        for owner, attr, original in reversed(undo):
            setattr(owner, attr, original)
