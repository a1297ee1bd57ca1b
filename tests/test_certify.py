import json
import pickle
import sys

import pytest

from treeopt.certify import (
    EXHAUSTIVE,
    GIRTH_CERTIFICATE,
    REFUTED,
    VERIFIED,
    Certificate,
    cmd_check_duality,
    cmd_report_class,
    cmd_verify_l_trace_minimal,
    cmd_verify_t_optimal,
    cmd_verify_trace_minimal,
    construct_summary,
    report_render_text,
    report_to_json,
)
from treeopt.cli import main
from treeopt.enumeration import GraphClassSpec, canonical_form
from treeopt.errors import InternalConsistencyError
from treeopt.graphs import (
    Graph,
    complement,
    complete_bipartite,
    complete_graph,
    count_triangles,
    cycle_graph,
    disjoint_union,
    empty_graph,
    from_graph6,
    h_family,
    to_graph6,
)

from conftest import strip_timing

two_c3 = disjoint_union(cycle_graph(3), cycle_graph(3))
k33 = complete_bipartite(3, 3)
prism = complement(cycle_graph(6))


def test_trace_minimal_girth_path():
    cert = cmd_verify_trace_minimal(h_family(8), 8, 3)
    assert cert.verdict == VERIFIED
    assert cert.method == GIRTH_CERTIFICATE
    assert cert.extra["girth_certificate"] == "CERTIFIED_BY_CYCLE_COUNTS"
    assert cert.winners == (canonical_form(h_family(8)),)
    assert cert.class_size == 6 and not cert.witnesses

    cert = cmd_verify_trace_minimal(cycle_graph(6), 6, 2)
    assert cert.verdict == VERIFIED
    assert cert.extra["girth_certificate"] == "CERTIFIED_UNIQUE"


def test_trace_minimal_exhaustive_refuted():
    cert = cmd_verify_trace_minimal(two_c3, 6, 2)
    assert cert.verdict == REFUTED and cert.method == EXHAUSTIVE
    assert cert.winners == (canonical_form(cycle_graph(6)),)
    (w,) = cert.witnesses
    assert w.opponent == canonical_form(cycle_graph(6))
    assert w.divergence_index == 3
    assert (w.opponent_value, w.candidate_value) == (0, 12)


def test_trace_minimal_relabel_invariance():
    perm = [3, 5, 0, 4, 1, 2]
    relabeled = Graph.from_edges(
        6, [(perm[u], perm[v]) for u, v in two_c3.edges()])
    a = cmd_verify_trace_minimal(two_c3, 6, 2)
    b = cmd_verify_trace_minimal(relabeled, 6, 2)
    assert strip_timing(a.to_json()) == strip_timing(b.to_json())


def test_candidate_validation():
    with pytest.raises(ValueError):
        cmd_verify_trace_minimal(cycle_graph(5), 6, 2)
    with pytest.raises(ValueError):
        cmd_verify_trace_minimal(cycle_graph(6), 6, 3)
    with pytest.raises(ValueError):
        cmd_verify_t_optimal(k33, 6, 8)


def test_ltrace_minimal_duality_path():
    cert = cmd_verify_l_trace_minimal(two_c3, 6, 2)
    assert cert.verdict == VERIFIED and cert.method == GIRTH_CERTIFICATE
    assert cert.extra["certified_via"] == "complement duality"
    assert cert.extra["girth_certificate"] == "CERTIFIED_UNIQUE"
    assert cert.class_spec == GraphClassSpec("regular", 6, d=2)

    big = cmd_verify_l_trace_minimal(complement(h_family(8)), 8, 4)
    assert big.verdict == VERIFIED
    assert big.extra["girth_certificate"] == "CERTIFIED_BY_CYCLE_COUNTS"


def test_ltrace_minimal_exhaustive_refuted():
    cert = cmd_verify_l_trace_minimal(cycle_graph(6), 6, 2)
    assert cert.verdict == REFUTED and cert.method == EXHAUSTIVE
    assert cert.winners == (canonical_form(two_c3),)
    (w,) = cert.witnesses
    assert w.divergence_index == 3
    assert (w.opponent_value, w.candidate_value) == (108, 120)


def test_t_optimal_verified_unique():
    cert = cmd_verify_t_optimal(k33, 6, 9)
    assert cert.verdict == VERIFIED and cert.method == EXHAUSTIVE
    assert cert.winners == (canonical_form(k33),)
    assert cert.class_size == 21
    assert cert.extra["candidate_t"] == 81
    assert cert.extra["max_t"] == 81
    assert cert.extra["unique"] is True
    assert "note" not in cert.extra  # 9 edges is not the h-family class


def test_t_optimal_refuted():
    cert = cmd_verify_t_optimal(prism, 6, 9)
    assert cert.verdict == REFUTED
    assert cert.extra["candidate_t"] == 75
    (w,) = cert.witnesses
    assert w.opponent == canonical_form(k33)
    assert w.divergence_index is None
    assert (w.opponent_value, w.candidate_value) == (81, 75)


def test_t_optimal_h_family_note():
    cert = cmd_verify_t_optimal(h_family(7), 7, 7)
    assert cert.verdict == VERIFIED
    assert cert.class_size == 65
    assert cert.extra["max_t"] == 7 and cert.extra["unique"] is True
    assert "evidence" in cert.extra["note"]


def test_duality_verified():
    cert = cmd_check_duality(6, 2)
    assert cert.verdict == VERIFIED
    assert cert.winners == (canonical_form(two_c3),)
    assert cert.extra["complement_image_of_trace_minima"] == [canonical_form(two_c3)]
    assert cert.candidate is None


def test_duality_empty_class():
    cert = cmd_check_duality(5, 3)  # odd n*d, no members
    assert cert.verdict == VERIFIED
    assert cert.winners == () and cert.class_size == 0
    assert "warning" in cert.extra


def test_payload_shape_and_worker_independence():
    texts = []
    for workers in (1, 2):
        cert = cmd_check_duality(6, 2, workers=workers)
        texts.append(strip_timing(cert.to_json()))
    assert texts[0] == texts[1]
    payload = json.loads(texts[0])
    assert "worker" not in texts[0]
    assert payload["class_size"] == "2"  # integers travel as decimal strings
    assert payload["schema_version"] == "2"
    raw = cmd_check_duality(6, 2).to_json()
    assert raw.endswith("\n") and raw.startswith("{\n")  # indented, trailing newline
    assert "elapsed_ms" in json.loads(raw)


def test_render_text_contents():
    cert = cmd_verify_trace_minimal(two_c3, 6, 2)
    text = cert.render_text()
    assert "verdict: REFUTED" in text
    assert "diverges at k=3" in text
    assert canonical_form(cycle_graph(6)) in text


def test_invariant_checks_reject_bad_certificates():
    spec = GraphClassSpec("regular", 6, d=2)
    with pytest.raises(InternalConsistencyError):  # refuted without a witness
        Certificate("verify-trace-min", spec, "x", REFUTED, ("y",), (), EXHAUSTIVE, 2, 0)
    with pytest.raises(InternalConsistencyError):  # decisive without winners
        Certificate("verify-trace-min", spec, "x", VERIFIED, (), (), EXHAUSTIVE, 2, 0)


def test_certificate_is_an_immutable_record():
    spec = GraphClassSpec("regular", 6, d=2)
    a, b = (Certificate("duality", spec, None, VERIFIED, ("x",), (), EXHAUSTIVE, 1, 0)
            for _ in range(2))
    a.extra["note"] = "only a's"
    assert b.extra == {}  # each certificate gets its own empty dict
    with pytest.raises(AttributeError):
        a.verdict = REFUTED
    with pytest.raises(AttributeError):
        a.workers = 2


def test_certificate_pickles_and_keeps_its_checks():
    cert = cmd_verify_trace_minimal(two_c3, 6, 2)
    assert cert.verdict == REFUTED and cert.witnesses
    twin = pickle.loads(pickle.dumps(cert))
    assert type(twin) is Certificate and twin == cert
    assert twin.to_json() == cert.to_json() and twin.render_text() == cert.render_text()
    with pytest.raises(InternalConsistencyError):
        twin._replace(witnesses=())
    unchecked = tuple.__new__(Certificate, (*twin[:5], (), *twin[6:]))  # skips the checks
    with pytest.raises(InternalConsistencyError):  # unpickling runs them
        pickle.loads(pickle.dumps(unchecked))


def test_witness_serialization():
    (w,) = json.loads(cmd_verify_trace_minimal(two_c3, 6, 2).to_json())["witnesses"]
    assert w == {"opponent": canonical_form(cycle_graph(6)), "divergence_index": "3",
                 "opponent_value": "0", "candidate_value": "12"}
    (w,) = json.loads(cmd_verify_t_optimal(prism, 6, 9).to_json())["witnesses"]
    assert w["divergence_index"] is None
    assert (w["opponent_value"], w["candidate_value"]) == ("81", "75")


def test_construct_summary_fields():
    s = construct_summary(complete_graph(4))
    assert s == {"graph6": "C~", "n": 4, "m": 6,
                 "degree_min": 3, "degree_max": 3, "girth": 3}
    assert construct_summary(empty_graph(3))["girth"] == "infinite"


def test_report_class_ranking():
    report = cmd_report_class(6, 9)
    assert report["class_size"] == 21
    rows = report["rows"]
    assert [r["rank"] for r in rows] == list(range(1, 22))
    ts = [int(r["t"]) for r in rows]
    assert ts == sorted(ts, reverse=True)
    assert rows[0]["graph6"] == canonical_form(k33)
    assert rows[0]["t"] == 81 and rows[0]["regular"] is True
    assert "h_family_rank" not in report


def test_report_class_h_family():
    report = cmd_report_class(7, 7)
    assert report["h_family_rank"] == 1
    marked = [r for r in report["rows"] if r["is_h_family"]]
    assert len(marked) == 1 and marked[0]["graph6"] == canonical_form(h_family(7))
    text = report_render_text(report)
    assert "h-family rank: 1" in text
    # the writer stamps the versions and writes numbers as decimal strings;
    # the report itself carries neither
    assert json.loads(report_to_json(report)) == {
        **report, "schema_version": "2", "tool_version": "0.1.0",
        "class_spec": {"kind": "edges", "n": "7", "m": "7"},
        "class_size": str(report["class_size"]), "h_family_rank": "1",
        "elapsed_ms": str(report["elapsed_ms"]),
        "rows": [{**r, "rank": str(r["rank"]), "t": str(r["t"]), "nu": str(r["nu"]),
                  "tau": str(r["tau"])} for r in report["rows"]]}


def test_report_deterministic_across_workers():
    a = cmd_report_class(6, 9, workers=1)
    b = cmd_report_class(6, 9, workers=2)
    assert strip_timing(report_to_json(a)) == strip_timing(report_to_json(b))


def _count_calls(monkeypatch, fn) -> list:
    """Record each call of `fn` from any treeopt module that imported it."""
    calls = []

    def counting(*args):
        calls.append(args)
        return fn(*args)

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "treeopt" and getattr(module, fn.__name__, None) is fn:
            monkeypatch.setattr(module, fn.__name__, counting)
    return calls


def test_report_encodes_each_member_once(monkeypatch):
    calls = _count_calls(monkeypatch, to_graph6)
    report = cmd_report_class(8, 12, workers=1)
    # 1,312 members, each encoded once in its task, plus the H family's form
    assert report["class_size"] == 1312 and len(calls) == 1313


def test_verify_encodes_each_member_once(monkeypatch):
    calls = _count_calls(monkeypatch, to_graph6)
    cert = cmd_verify_trace_minimal(from_graph6("I~{?GKF@w"), 10, 4, workers=1)
    # 60 members, each encoded once in its task, plus the candidate and the
    # one winner; the candidate is found among the members as a Graph
    assert cert.verdict == REFUTED and cert.method == EXHAUSTIVE
    assert cert.class_size == 60 and len(cert.winners) == 1 and len(calls) == 62


def test_enumerate_encodes_each_member_once(monkeypatch, capsys):
    calls = _count_calls(monkeypatch, to_graph6)
    assert main(["enumerate", "--class", "s", "--n", "8", "--m", "12", "--workers", "1"]) == 0
    forms = capsys.readouterr().out.splitlines()
    # 1,312 members, each encoded once in its task and printed as it came
    assert len(forms) == 1312 and forms == sorted(forms) and len(calls) == 1312


def test_verify_t_optimal_counts_no_triangles(monkeypatch):
    calls = _count_calls(monkeypatch, count_triangles)
    assert cmd_verify_t_optimal(k33, 6, 9, workers=1).verdict == VERIFIED
    assert calls == []
