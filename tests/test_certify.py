import json
import pickle
import re
import sys
from pathlib import Path

import pytest

from treeopt import certify
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
from treeopt.enumeration import GraphClassSpec, canonical_form, canonical_relabel
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
from treeopt.sequences import ADJACENCY

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


@pytest.mark.parametrize("mode, d, g6, winner, values", [
    ("trace-min", 2, "Ihc?GC@@G", "IqGOOGA?W", ("0", "20")),  # C5 + C5
    ("ltrace-min", 7, "IUZ~vz}}o", "I~~el\\^Nw", ("332480", "332500")),  # its complement
])
def test_witness_diverging_after_index_4(capsys, mode, d, g6, winner, values):
    # the candidate ties the winner through k = 4, so its witness values
    # come from matrix products
    for workers in ("1", "2"):
        rc = main(["verify", mode, "--n", "10", "--d", str(d), "--g6", g6,
                   "--format", "structured", "--workers", workers])
        assert rc == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["verdict"] == "REFUTED" and payload["winners"] == [winner]
        assert payload["witnesses"] == [{
            "opponent": winner, "divergence_index": "5",
            "opponent_value": values[0], "candidate_value": values[1]}]


def test_trace_minimal_relabel_invariance():
    perm = [3, 5, 0, 4, 1, 2]
    relabeled = two_c3.relabel(perm)
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


PETERSEN = "IheA@GUAo"
K55 = to_graph6(complete_bipartite(5, 5))


@pytest.mark.parametrize("mode, d, g6, dropped", [
    ("trace-min", 3, PETERSEN, PETERSEN),
    # the girth probe is the complement, the Petersen graph in R_3(10)
    ("ltrace-min", 6, "IUX|}vh|G", PETERSEN),
    # the probe 2K_5 is inconclusive, so the sweep over R_5(10) runs
    ("ltrace-min", 5, K55, K55),
])
def test_a_candidate_its_class_lacks_is_an_internal_fault(monkeypatch, capsys, mode, d, g6,
                                                          dropped):
    real = certify.enumerate_regular
    lost = canonical_relabel(from_graph6(dropped))
    monkeypatch.setattr(certify, "enumerate_regular",
                        lambda n, d, **kw: [g for g in real(n, d, **kw) if g != lost])
    assert main(["verify", mode, "--n", "10", "--d", str(d), "--g6", g6]) == 4
    assert capsys.readouterr() == ("", "internal fault: candidate missing from its own class\n")


@pytest.mark.parametrize("mode, d, g6", [
    ("trace-min", 3, PETERSEN),
    # the probe is the complement of the candidate, the Petersen graph
    ("ltrace-min", 6, "IUX|}vh|G"),
])
def test_the_girth_certificate_takes_the_probe_s_rivals(monkeypatch, capsys, mode, d, g6):
    calls = []
    real = certify.girth_certificate
    monkeypatch.setattr(certify, "girth_certificate",
                        lambda probe, rivals: calls.append((probe, rivals)) or real(probe, rivals))
    assert main(["verify", mode, "--n", "10", "--d", str(d), "--g6", g6]) == 0
    assert "CERTIFIED_UNIQUE" in capsys.readouterr().out
    [(probe, rivals)] = calls
    assert probe == canonical_relabel(from_graph6(PETERSEN)) and probe not in rivals
    assert sorted(rivals + [probe]) == sorted(certify.enumerate_regular(10, 3))


def test_a_t_candidate_its_class_lacks_is_an_internal_fault(monkeypatch, capsys):
    real = certify.enumerate_by_edges
    lost = canonical_form(k33)
    monkeypatch.setattr(certify, "enumerate_by_edges",
                        lambda n, m, **kw: [r for r in real(n, m, **kw) if r[1] != lost])
    assert main(["verify", "t-optimal", "--n", "6", "--m", "9", "--g6", to_graph6(k33)]) == 4
    assert capsys.readouterr() == ("", "internal fault: candidate missing from its own class\n")


def test_duality_verified():
    cert = cmd_check_duality(6, 2)
    assert cert.verdict == VERIFIED
    assert cert.winners == (canonical_form(two_c3),)
    assert cert.extra["complement_image_of_trace_minima"] == [canonical_form(two_c3)]
    assert cert.candidate is None


def test_duality_refuted_names_each_form_on_one_side(monkeypatch, capsys):
    real = certify.select_lex_minima

    def others_on_adjacency_side(members, kind, cutoff=None):
        minima = real(members, kind, cutoff)
        return [g for g in members if g not in minima] if kind == ADJACENCY else minima

    monkeypatch.setattr(certify, "select_lex_minima", others_on_adjacency_side)
    cert = cmd_check_duality(6, 2)
    lset = list(cert.winners)
    image = cert.extra["complement_image_of_trace_minima"]
    # the adjacency side now picks the prism, not K33, and the prism's image is C6
    assert lset == [canonical_form(two_c3)] and image == [canonical_form(cycle_graph(6))]
    assert cert.verdict == REFUTED
    assert [w.opponent for w in cert.witnesses] == sorted(set(lset) ^ set(image))
    for w in cert.witnesses:
        assert w.divergence_index is None
        assert (w.opponent_value, w.candidate_value) == (int(w.opponent in lset),
                                                         int(w.opponent in image))
    assert main(["duality", "--n", "6", "--d", "2", "--workers", "1"]) == 1
    assert "verdict: REFUTED" in capsys.readouterr().out


def test_duality_empty_class():
    cert = cmd_check_duality(5, 3)  # odd n*d, no members
    assert cert.verdict == VERIFIED
    assert cert.winners == () and cert.class_size == 0
    assert "warning" in cert.extra


def test_tool_version_matches_the_project_metadata():
    # a regex, not tomllib: tomllib is new in Python 3.11 and 3.10 is supported
    text = (Path(__file__).resolve().parent.parent / "pyproject.toml").read_text()
    assert re.findall(r'^version = "([^"]+)"$', text, re.M) == [certify.TOOL_VERSION]


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
    # each extra field renders as one "key: value" line before the elapsed time
    petersen = cmd_verify_trace_minimal(from_graph6("IheA@GUAo"), 10, 3, workers=1)
    lines = petersen.render_text().splitlines()
    assert lines[-2] == "girth_certificate: CERTIFIED_UNIQUE"
    assert lines[-1].startswith("elapsed: ")


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


def test_verify_canonicalizes_the_candidate_once(monkeypatch):
    calls = _count_calls(monkeypatch, canonical_relabel)
    petersen = from_graph6("IheA@GUAo")
    # the canonical candidate is the adjacency probe, located among the members
    # of its class as it is; the girth certificate canonicalizes nothing
    assert cmd_verify_trace_minimal(petersen, 10, 3, workers=1).method == GIRTH_CERTIFICATE
    assert calls == [(petersen,)]
    k5k5 = from_graph6("I~{?GKF@w")
    assert cmd_verify_trace_minimal(k5k5, 10, 4, workers=1).verdict == REFUTED
    assert calls[1:] == [(k5k5,)]
    # the Laplacian probe is the complement, canonicalized apart
    del calls[:]
    cert = cmd_verify_l_trace_minimal(complement(petersen), 10, 6, workers=1)
    assert cert.method == GIRTH_CERTIFICATE and len(calls) == 2


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
