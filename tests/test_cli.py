import json
import multiprocessing
import os
import re
import stat
import sys
from pathlib import Path

import pytest

from treeopt import cli
from treeopt.cli import main
from treeopt.enumeration import canonical_form
from treeopt.errors import InternalConsistencyError
from treeopt.graphs import (
    complete_bipartite,
    complete_graph,
    cycle_graph,
    disjoint_union,
    from_graph6,
    h_family,
    to_graph6,
)

from conftest import are_isomorphic

g6_k33 = to_graph6(complete_bipartite(3, 3))
g6_c6 = to_graph6(cycle_graph(6))
g6_c4 = to_graph6(cycle_graph(4))
g6_2c3 = to_graph6(disjoint_union(cycle_graph(3), cycle_graph(3)))
g6_2k2 = to_graph6(disjoint_union(complete_graph(2), complete_graph(2)))
g6_h8 = to_graph6(h_family(8))


def test_count_text(capsys):
    assert main(["count", "--g6", g6_k33]) == 0
    assert capsys.readouterr().out == "t = 81\n"


def test_count_structured(capsys):
    assert main(["count", "--format", "structured", "--g6", g6_k33]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["t"] == "81" and payload["n"] == "6"
    assert payload["schema_version"] == "2"
    assert payload["tool_version"] == "0.1.0"


def test_seq_outputs(capsys):
    assert main(["seq", "--kind", "lap", "--k", "3", "--g6", g6_c6]) == 0
    assert capsys.readouterr().out == "lap traces k=1..3: 12 36 120\n"
    assert main(["seq", "--kind", "adj", "--k", "4", "--g6", g6_c4]) == 0
    assert capsys.readouterr().out == "adj traces k=1..4: 0 8 0 32\n"
    assert main(["seq", "--kind", "adj", "--k", "0", "--g6", g6_c4]) == 2


def test_gaps_output(capsys):
    assert main(["gaps", "--k", "4", "--g6", "Bg"]) == 0
    assert capsys.readouterr().out == "gaps k=1..4: 0 0 2 12\n"


def test_verify_refuted_exit_code(capsys):
    rc = main(["verify", "trace-min", "--n", "6", "--d", "2", "--g6", g6_2c3])
    assert rc == 1
    out = capsys.readouterr().out
    assert "verdict: REFUTED" in out and "diverges at k=3" in out


def test_verify_girth_path_structured(capsys):
    rc = main(["verify", "trace-min", "--n", "8", "--d", "3",
               "--format", "structured", "--g6", g6_h8])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["verdict"] == "VERIFIED"
    assert payload["method"] == "GIRTH_CERTIFICATE"
    assert payload["girth_certificate"] == "CERTIFIED_BY_CYCLE_COUNTS"
    assert payload["class_size"] == "6"


def test_verify_usage_errors(capsys):
    assert main(["verify", "t-optimal", "--n", "6", "--g6", g6_k33]) == 2
    assert "error:" in capsys.readouterr().err
    assert main(["verify", "trace-min", "--n", "6", "--g6", g6_c6]) == 2


def test_bad_graph6_is_usage_error(capsys):
    assert main(["count", "--g6", "B!"]) == 2
    assert "error:" in capsys.readouterr().err
    # a non-ASCII character is refused, not decoded as the graph6 byte '?'
    assert main(["count", "--g6", "B\u00e9"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "byte offset 1" in captured.err


def test_caps_refusal(capsys):
    assert main(["enumerate", "--class", "r", "--n", "13", "--d", "4"]) == 3
    assert capsys.readouterr().err == (
        "refused: regular enumeration capped at n = 12, requested n = 13\n")


def test_caps_refusal_writes_nothing(tmp_path, capsys):
    out = tmp_path / "r134.g6"
    assert main(["enumerate", "--class", "r", "--n", "13", "--d", "4",
                 "--out", str(out)]) == 3
    assert "refused:" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_edge_class_at_the_cap(capsys):
    assert main(["enumerate", "--class", "s", "--n", "9", "--m", "2"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 2
    assert main(["enumerate", "--class", "s", "--n", "10", "--m", "2"]) == 3
    assert capsys.readouterr().err == (
        "refused: edge-count enumeration capped at n = 9, requested n = 10\n")


def test_caps_reach_the_certify_commands(capsys):
    # S(9,2) is at the edge-count cap; both members (2K_2 and P_3) have t = 0
    args = ["verify", "t-optimal", "--n", "9", "--m", "2", "--g6", "Ho?????"]
    assert main(args + ["--format", "structured"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["verdict"] == "VERIFIED"
    assert payload["class_size"] == "2" and len(payload["winners"]) == 2
    # S(10,2) is past it
    assert main(["verify", "t-optimal", "--n", "10", "--m", "2", "--g6", "Io???????"]) == 3
    assert "refused:" in capsys.readouterr().err


def test_caps_override_is_an_unknown_argument(capsys):
    assert main(["enumerate", "--class", "s", "--n", "9", "--m", "2",
                 "--caps-override"]) == 2
    assert "unrecognized arguments: --caps-override" in capsys.readouterr().err


def test_enumerate_parity_warning(tmp_path, capsys):
    assert main(["enumerate", "--class", "r", "--n", "5", "--d", "3"]) == 0
    captured = capsys.readouterr()
    assert captured.out == "" and "warning:" in captured.err

    assert main(["enumerate", "--class", "r", "--n", "5", "--d", "3",
                 "--format", "structured"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["graphs"] == [] and "warning" in payload

    out = tmp_path / "r53.g6"
    assert main(["enumerate", "--class", "r", "--n", "5", "--d", "3", "--out", str(out)]) == 0
    captured = capsys.readouterr()
    assert captured.out == f"0 classes written to {out}\n" and "warning:" in captured.err
    assert out.read_text() == ""

    assert main(["enumerate", "--class", "r", "--n", "5", "--d", "3", "--out", str(out),
                 "--format", "structured"]) == 0
    captured = capsys.readouterr()
    payload = json.loads(captured.out)
    assert payload["count"] == "0" and "warning" in payload and captured.err == ""


@pytest.mark.parametrize("args, size, member", [
    (["--class", "r", "--n", "8", "--d", "3"], 6, h_family(8)),
    (["--class", "s", "--n", "6", "--m", "7"], 24,
     disjoint_union(complete_graph(4), complete_graph(2))),
], ids=["regular", "edges"])
def test_enumerate_stream(tmp_path, capsys, args, size, member):
    assert main(["enumerate", *args]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == size and lines == sorted(lines)
    assert canonical_form(member) in lines
    # stdout and the spool list the same class
    out = tmp_path / "class.g6"
    assert main(["enumerate", *args, "--out", str(out)]) == 0
    assert out.read_text().splitlines() == lines


def test_enumerate_spool(tmp_path, capsys):
    out = tmp_path / "r38.g6"
    rc = main(["enumerate", "--class", "r", "--n", "8", "--d", "3",
               "--out", str(out)])
    assert rc == 0
    assert f"6 classes written to {out}" in capsys.readouterr().out
    lines = out.read_text().splitlines()
    assert len(lines) == 6 and lines == sorted(lines)
    assert not (tmp_path / "r38.g6.checkpoint").exists()


@pytest.mark.parametrize("args", [
    ["--class", "r", "--n", "6", "--d", "9"],
    ["--class", "s", "--n", "5", "--m", "20"],
    ["--class", "s", "--n", "5", "--m", "-1"],
])
def test_enumerate_out_of_range_is_usage_error(tmp_path, capsys, args):
    out = tmp_path / "f.g6"
    assert main(["enumerate", *args]) == 2
    assert main(["enumerate", *args, "--out", str(out)]) == 2
    assert "error:" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_enumerate_out_in_missing_directory_is_usage_error(tmp_path, capsys):
    out = tmp_path / "missing" / "x.g6"
    assert main(["enumerate", "--class", "r", "--n", "6", "--d", "2", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err == f"error: output directory {out.parent} does not exist\n"
    assert list(tmp_path.iterdir()) == []


def test_enumerate_out_naming_a_directory_is_usage_error(tmp_path, capsys):
    out = tmp_path / "dir"
    out.mkdir()
    assert main(["enumerate", "--class", "s", "--n", "5", "--m", "3", "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"error: output path {out} is a directory\n"
    assert list(tmp_path.iterdir()) == [out] and list(out.iterdir()) == []


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no named pipes on this platform")
def test_enumerate_out_naming_a_fifo_is_usage_error(tmp_path, capsys):
    out = tmp_path / "pipe"
    os.mkfifo(out)
    assert main(["enumerate", "--class", "s", "--n", "5", "--m", "3", "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"error: output path {out} is not a regular file\n"
    assert stat.S_ISFIFO(os.stat(out).st_mode)
    assert list(tmp_path.iterdir()) == [out]  # no checkpoint, no temp file


def test_enumerate_out_the_system_refuses_is_usage_error(tmp_path, capsys):
    out = tmp_path / ("x" * 300)  # longer than any file system allows a name
    assert main(["enumerate", "--class", "r", "--n", "6", "--d", "2", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert list(tmp_path.iterdir()) == []


def test_workers_flag_validation(capsys):
    assert main(["count", "--workers", "0", "--g6", g6_k33]) == 2
    assert "positive" in capsys.readouterr().err


def test_default_workers_are_the_usable_cores(monkeypatch):
    unset = cli._build_parser().parse_args(["count", "--g6", g6_k33])
    assert unset.workers is None
    monkeypatch.setattr(cli.os, "cpu_count", lambda: 8)
    monkeypatch.setattr(cli.os, "sched_getaffinity", lambda pid: {3}, raising=False)
    assert cli._workers(unset) == 1  # pinned to one core, as under `taskset -c 3`
    monkeypatch.delattr(cli.os, "sched_getaffinity")
    assert cli._workers(unset) == 8  # no affinity call: every core
    monkeypatch.setattr(cli.os, "cpu_count", lambda: None)
    assert cli._workers(unset) == 1  # core count unknown


def test_run_pinned_to_one_core_starts_no_pool(monkeypatch, capsys):
    from treeopt.enumeration import GraphClassSpec, _class_tasks

    def no_pool(*args, **kwargs):
        raise AssertionError("a pool was started")

    assert len(_class_tasks(GraphClassSpec("edges", 6, m=9))) > 1  # two workers would fork
    monkeypatch.setattr(cli.os, "sched_getaffinity", lambda pid: {0}, raising=False)
    monkeypatch.setattr(multiprocessing, "Pool", no_pool)
    assert main(["report", "--n", "6", "--m", "9"]) == 0
    assert "Traceback" not in capsys.readouterr().err


def test_construct_h(capsys):
    assert main(["construct", "h", "--n", "7"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert are_isomorphic(from_graph6(lines[0]), cycle_graph(7))
    assert lines[1] == "n=7 m=7 degrees 2..2 girth 7"


def test_construct_complement(capsys):
    assert main(["construct", "complement", "--g6", "C~"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[1] == "n=4 m=0 degrees 0..0 girth infinite"


def test_construct_g0pq_and_join_power(capsys):
    rc = main(["construct", "g0pq", "--g6", "C~", "--d", "3",
               "--p", "1", "--q", "0"])
    assert rc == 0
    assert "n=8 m=12" in capsys.readouterr().out
    assert main(["construct", "join-power", "--g6", "A_", "--k", "2"]) == 0
    assert "n=4 m=6" in capsys.readouterr().out


def test_construct_usage_error(capsys):
    assert main(["construct", "h"]) == 2
    assert main(["construct", "g0pq", "--g6", "C~"]) == 2
    capsys.readouterr()


def test_threshold(capsys):
    assert main(["threshold", "--g0-order", "5", "--d", "4", "--c", "1"]) == 0
    assert capsys.readouterr().out == "n0 = 2568\n"


@pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"),
                    reason="no limit on int-to-str digits in this interpreter")
@pytest.mark.parametrize("fmt", ["text", "structured"])
def test_threshold_too_large_to_print_is_usage_error(capsys, fmt):
    # n0 = 2 + 2 * 2**100002 has about 30,000 digits, past the default limit of 4,300
    args = ["threshold", "--g0-order", "2", "--d", "1", "--c", "100000", "--format", fmt]
    assert main(args) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: n0 is too large to print for --c 100000\n"


def test_duality_structured(capsys):
    assert main(["duality", "--n", "6", "--d", "2", "--format", "structured"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["verdict"] == "VERIFIED"
    assert payload["winners"] == [canonical_form(
        disjoint_union(cycle_graph(3), cycle_graph(3)))]


def test_bound_output(capsys):
    assert main(["bound", "--c", "3", "--g6", g6_2k2]) == 0
    out = capsys.readouterr().out
    assert "equality: True" in out
    assert "exact t(complement): 4" in out


def test_report_text_and_structured(capsys):
    assert main(["report", "--n", "6", "--m", "9"]) == 0
    out = capsys.readouterr().out
    assert "rank  t  graph6" in out
    assert f"   1  81  {canonical_form(complete_bipartite(3, 3))}  regular" in out

    assert main(["report", "--n", "6", "--m", "9", "--format", "structured"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["rows"][0]["t"] == "81"


@pytest.mark.parametrize("args", [
    ["count", "--g6", g6_k33],
    ["seq", "--kind", "lap", "--k", "3", "--g6", g6_c6],
    ["gaps", "--k", "4", "--g6", "Bg"],
    ["verify", "t-optimal", "--n", "6", "--m", "9", "--g6", g6_k33],
    ["verify", "trace-min", "--n", "6", "--d", "2", "--g6", g6_2c3],
    ["verify", "ltrace-min", "--n", "6", "--d", "2", "--g6", g6_c6],
    ["duality", "--n", "6", "--d", "2"],
    ["construct", "h", "--n", "7"],
    ["enumerate", "--class", "r", "--n", "6", "--d", "2"],
    ["enumerate", "--class", "r", "--n", "6", "--d", "2", "--out", "@OUT"],
    ["bound", "--c", "3", "--g6", g6_2k2],
    ["report", "--n", "6", "--m", "9"],
    ["threshold", "--g0-order", "5", "--d", "4", "--c", "1"],
])
def test_structured_output_carries_one_stamp(tmp_path, capsys, args):
    args = [str(tmp_path / "f.g6") if a == "@OUT" else a for a in args]
    assert main([*args, "--format", "structured"]) in (0, 1)
    payload = json.loads(capsys.readouterr().out)
    assert payload["command"]
    assert payload["schema_version"] == "2"
    assert payload["tool_version"] == "0.1.0"
    # every number is a decimal string: the leaves are strings, bools and nulls
    nodes = [payload]
    while nodes:
        node = nodes.pop()
        if isinstance(node, (dict, list)):
            nodes.extend(node.values() if isinstance(node, dict) else node)
        else:
            assert node is None or type(node) in (str, bool), (args, node)


def test_help_and_unknown_commands(capsys):
    assert main(["--help"]) == 0
    assert main(["nope"]) == 2
    assert main([]) == 2
    capsys.readouterr()


README = Path(__file__).resolve().parent.parent / "README.md"
LONG_OPTION = re.compile(r"(?<![\w-])--[a-z][\w-]*")
COMMON_OPTIONS = {"--format", "--workers"}


def _help(capsys, *args) -> str:
    assert main([*args, "--help"]) == 0
    return capsys.readouterr().out


def test_readme_cli_section_matches_the_parser(capsys):
    section = README.read_text().split("\n## CLI\n", 1)[1]
    lines = {}
    for line in section.split("```\n", 2)[1].splitlines():
        name = line.split()[1]
        assert line.startswith("treeopt ") and name not in lines, line
        lines[name] = line
    names = re.search(r"\{([\w,-]+)\}", _help(capsys)).group(1).split(",")
    assert sorted(lines) == sorted(names)
    accepts = next(p for p in section.split("\n\n") if p.startswith("Every subcommand accepts"))
    assert COMMON_OPTIONS <= set(LONG_OPTION.findall(accepts))
    accepted = set()
    for name in names:
        options = set(LONG_OPTION.findall(_help(capsys, name)))
        assert COMMON_OPTIONS <= options, name
        accepted |= options
        missing = options - COMMON_OPTIONS - {"--help"} - set(LONG_OPTION.findall(lines[name]))
        assert not missing, (name, missing)
    assert set(LONG_OPTION.findall(section)) <= accepted


def test_internal_fault_exit_code(monkeypatch, capsys):
    def boom(*args, **kwargs):
        raise InternalConsistencyError("boom")

    monkeypatch.setattr("treeopt.cli.cmd_check_duality", boom)
    assert main(["duality", "--n", "6", "--d", "2"]) == 4
    assert "internal fault: boom" in capsys.readouterr().err


def test_unexpected_error_exit_code(monkeypatch, capsys):
    def boom(*args, **kwargs):
        raise RuntimeError("surprise")

    monkeypatch.setattr("treeopt.cli.cmd_check_duality", boom)
    assert main(["duality", "--n", "6", "--d", "2"]) == 4
    assert "surprise" in capsys.readouterr().err


def test_interrupt_exit_code(monkeypatch, capsys):
    def interrupted(*args, **kwargs):
        raise KeyboardInterrupt

    monkeypatch.setattr("treeopt.cli.cmd_check_duality", interrupted)
    assert main(["duality", "--n", "6", "--d", "2"]) == 130
    assert capsys.readouterr().err == "interrupted\n"


def test_interrupted_spool_resumes(tmp_path, monkeypatch, capsys):
    import treeopt.enumeration as enum

    args = ["enumerate", "--class", "s", "--n", "6", "--m", "7", "--workers", "1", "--out"]
    clean = tmp_path / "clean.g6"
    assert main(args + [str(clean)]) == 0
    tasks = enum._class_tasks(enum.GraphClassSpec("edges", 6, m=7))
    assert sum(1 for task in tasks if enum._worker(task)) >= 2  # the resume skips work
    out = tmp_path / "s67.g6"
    ck = tmp_path / "s67.g6.checkpoint"
    real_worker = enum._worker

    def interrupted(task, row):
        if ck.exists() and ck.read_text().count("\n") >= 2:  # header and one record
            raise KeyboardInterrupt
        return real_worker(task, row)

    monkeypatch.setattr(enum, "_worker", interrupted)
    capsys.readouterr()
    assert main(args + [str(out)]) == 130
    err = capsys.readouterr().err
    assert err == "interrupted; rerun the same command to resume\n"
    assert "Traceback" not in err
    assert ck.read_text().count("\n") == 2 and not out.exists()

    monkeypatch.setattr(enum, "_worker", real_worker)
    assert main(args + [str(out)]) == 0
    assert out.read_bytes() == clean.read_bytes()
    assert not ck.exists()
