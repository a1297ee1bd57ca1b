import json

import pytest

from treeopt.certify import (
    EXHAUSTIVE,
    GIRTH_CERTIFICATE,
    REFUTED,
    VERIFIED,
    Certificate,
    Witness,
    cmd_check_duality,
    cmd_report_class,
    cmd_verify_l_trace_minimal,
    cmd_verify_t_optimal,
    cmd_verify_trace_minimal,
    construct_summary,
    report_render_text,
    report_to_json,
)
from treeopt.enumeration import GraphClassSpec, canonical_form
from treeopt.errors import InternalConsistencyError
from treeopt.graphs import (
    Graph,
    complement,
    complete_bipartite,
    complete_graph,
    cycle_graph,
    disjoint_union,
    empty_graph,
    h_family,
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
    assert (w.opponent_value, w.candidate_value) == ("0", "12")


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
    assert (w.opponent_value, w.candidate_value) == ("108", "120")


def test_t_optimal_verified_unique():
    cert = cmd_verify_t_optimal(k33, 6, 9)
    assert cert.verdict == VERIFIED and cert.method == EXHAUSTIVE
    assert cert.winners == (canonical_form(k33),)
    assert cert.class_size == 21
    assert cert.extra["candidate_t"] == "81"
    assert cert.extra["max_t"] == "81"
    assert cert.extra["unique"] is True
    assert "note" not in cert.extra  # 9 edges is not the h-family class


def test_t_optimal_refuted():
    cert = cmd_verify_t_optimal(prism, 6, 9)
    assert cert.verdict == REFUTED
    assert cert.extra["candidate_t"] == "75"
    (w,) = cert.witnesses
    assert w.opponent == canonical_form(k33)
    assert w.divergence_index is None
    assert (w.opponent_value, w.candidate_value) == ("81", "75")


def test_t_optimal_h_family_note():
    cert = cmd_verify_t_optimal(h_family(7), 7, 7)
    assert cert.verdict == VERIFIED
    assert cert.class_size == 65
    assert cert.extra["max_t"] == "7" and cert.extra["unique"] is True
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


def test_witness_serialization():
    w = Witness("Bw", 3, "0", "12")
    assert w.to_dict() == {"opponent": "Bw", "divergence_index": "3",
                           "opponent_value": "0", "candidate_value": "12"}
    assert Witness("Bw", None, "81", "75").to_dict()["divergence_index"] is None


def test_construct_summary_fields():
    s = construct_summary(complete_graph(4))
    assert s == {"graph6": "C~", "n": "4", "m": "6",
                 "degree_min": "3", "degree_max": "3", "girth": "3"}
    assert construct_summary(empty_graph(3))["girth"] == "infinite"


def test_report_class_ranking():
    report = cmd_report_class(6, 9)
    assert report["class_size"] == "21"
    rows = report["rows"]
    assert [r["rank"] for r in rows] == [str(i) for i in range(1, 22)]
    ts = [int(r["t"]) for r in rows]
    assert ts == sorted(ts, reverse=True)
    assert rows[0]["graph6"] == canonical_form(k33)
    assert rows[0]["t"] == "81" and rows[0]["regular"] is True
    assert "h_family_rank" not in report


def test_report_class_h_family():
    report = cmd_report_class(7, 7)
    assert report["h_family_rank"] == "1"
    marked = [r for r in report["rows"] if r["is_h_family"]]
    assert len(marked) == 1 and marked[0]["graph6"] == canonical_form(h_family(7))
    text = report_render_text(report)
    assert "h-family rank: 1" in text
    # the writer stamps the versions; the report itself carries none
    assert json.loads(report_to_json(report)) == {
        **report, "schema_version": "2", "tool_version": "0.1.0"}


def test_report_deterministic_across_workers():
    a = cmd_report_class(6, 9, workers=1)
    b = cmd_report_class(6, 9, workers=2)
    assert strip_timing(report_to_json(a)) == strip_timing(report_to_json(b))
