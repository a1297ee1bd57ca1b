"""The benchmark tracer's span table must name functions that exist.

`bench/tracing.py` wraps each (module, attribute) in SPANS by name, so a
renamed or deleted function would only fail once `bench/run.py --trace 1`
runs, and the ranked pass must go through the wrapped entry points for the
trace to book its members and tree counts. The file is read and executed
from source, which writes nothing under bench/.
"""
import importlib
import runpy
from pathlib import Path

from treeopt.certify import REFUTED, cmd_check_duality, cmd_report_class, cmd_verify_trace_minimal
from treeopt.graphs import complete_graph, disjoint_union, from_graph6

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


def test_every_span_resolves():
    spans = runpy.run_path(str(TRACING))["SPANS"]
    assert spans
    for module_name, attr, _ in spans:
        module = importlib.import_module(module_name)
        if "." in attr:
            cls_name, meth = attr.split(".")
            assert callable(getattr(module, cls_name).__dict__.get(meth)), (module_name, attr)
        else:
            assert callable(module.__dict__.get(attr)), (module_name, attr)


def _traced_calls(command, *args):
    tracing = runpy.run_path(str(TRACING))
    tracer = tracing["Tracer"]()
    with tracing["traced"](tracer):
        result = command(*args)
    return result, tracer, tracer.totals()[1]


def test_ranked_pass_is_traced():
    # the tracer books members and tree counts at the wrapped entry points, so
    # a ranked pass that goes round `enumerate_by_edges` would read zero here
    report, tracer, calls = _traced_calls(cmd_report_class, 6, 9)
    size = int(report["class_size"])
    assert size == 21
    assert tracer.members == size and calls["spanning_tree_count"] == size
    # each tree count's determinant runs through the wrapped `det_bareiss`
    assert calls["det_bareiss"] == calls["spanning_tree_count"]
    # one triangle count per member serves both nu and tau
    assert calls["count_triangles"] == size


def test_trace_products_are_traced():
    # `linalg.matmul` is booked at `IntMatrix.mul`: lex-minimum selection must
    # still multiply through it for members tied past k = 4, as C10 and C5 + C5
    # are in R_2(10) and their complements in R_7(10)
    _, _, calls = _traced_calls(cmd_check_duality, 10, 7)
    assert calls["IntMatrix.mul"] > 0


def test_duality_settled_by_bitset_traces_makes_no_products():
    # R_4(10) and R_5(10) keep one member each after k = 4, so selection
    # multiplies no matrix at all
    cert, _, calls = _traced_calls(cmd_check_duality, 10, 4)
    assert cert.class_size == 60
    assert calls["IntMatrix.mul"] == 0


def test_refutation_settled_by_bitset_traces_makes_no_products():
    # K5 + K5 loses to the winner of R_4(10) at k = 3, so neither the
    # selection nor the witness multiplies a matrix
    k5 = complete_graph(5)
    cert, _, calls = _traced_calls(cmd_verify_trace_minimal, disjoint_union(k5, k5), 10, 4)
    assert cert.verdict == REFUTED and cert.witnesses[0].divergence_index == 3
    assert calls["IntMatrix.mul"] == 0


def test_girth_spans_book_the_verify_path():
    # `graphs.girth_s` keeps measuring the same work: the girth certificate
    # takes the girth of each of the 21 members of R_3(10) for the Petersen
    # graph; in R_3(8) it takes 6 girths, then the cycle census of the two
    # girth-4 members, each of which takes the girth once more
    _, _, calls = _traced_calls(cmd_verify_trace_minimal, from_graph6("IheA@GUAo"), 10, 3)
    assert (calls["girth"], calls["girth_and_cycles"]) == (21, 0)
    _, _, calls = _traced_calls(cmd_verify_trace_minimal, from_graph6("G@Umf?"), 8, 3)
    assert (calls["girth"], calls["girth_and_cycles"]) == (8, 2)
