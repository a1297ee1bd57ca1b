"""Checks of treeopt's outputs against the independent oracles.

Each check takes an operation's output and returns a list of problems; an
empty list means the output is right. Nothing is compared with a saved copy
of earlier output: counts come from Burnside sums or published tables, tree
counts, path counts and traces from oracles.py, and sets of graphs are
compared up to isomorphism with oracles.isomorphic.
"""
from __future__ import annotations

import oracles as o

# The h-family member on 8 vertices is its 8-vertex seed, the Moebius
# ladder (Wagner graph): an 8-cycle plus its four long diagonals.
WAGNER = o.from_edges(8, [(i, (i + 1) % 8) for i in range(8)]
                      + [(i, i + 4) for i in range(4)])


class RegularClasses:
    """Complete lists of d-regular graphs on n vertices, one per class.

    The members come from the program's own `enumerate --class r` output,
    which `fetch(n, d)` returns as graph6 strings; a list is accepted only
    if its size is the published class count, every member is d-regular on
    n vertices and no two members are isomorphic. Together these make it a
    complete set of class representatives whatever produced it.
    """

    def __init__(self, fetch):
        self._fetch = fetch
        self._lists: dict = {}
        self._minima: dict = {}

    def get(self, n: int, d: int) -> list:
        if (n, d) in self._lists:
            return self._lists[(n, d)]
        if (n, d) not in o.REGULAR_CLASS_COUNTS:
            members = [o.complement(g) for g in self.get(n, n - 1 - d)]
        else:
            members = [o.decode_graph6(s) for s in self._fetch(n, d)]
            if len(members) != o.regular_class_count(n, d):
                raise AssertionError(f"R_{d}({n}) has {len(members)} members, "
                                     f"published count {o.regular_class_count(n, d)}")
            if any(g[0] != n or set(o.degrees(g)) != {d} for g in members):
                raise AssertionError(f"R_{d}({n}) holds a member of the wrong degree")
            if not o.pairwise_non_isomorphic(members):
                raise AssertionError(f"R_{d}({n}) holds two isomorphic members")
        self._lists[(n, d)] = members
        return members

    def minima(self, n: int, d: int, kind: str) -> tuple[list, tuple]:
        """Members whose trace sequence (through index n) is lex-least."""
        if (n, d, kind) not in self._minima:
            traces = o.adjacency_traces if kind == "adjacency" else o.laplacian_traces
            seqs = [traces(g) for g in self.get(n, d)]
            least = min(seqs)
            self._minima[(n, d, kind)] = (
                [g for g, s in zip(self.get(n, d), seqs) if s == least], least)
        return self._minima[(n, d, kind)]


def _decode_all(forms, problems: list) -> list:
    graphs = []
    for f in forms:
        try:
            graphs.append(o.decode_graph6(f))
        except (ValueError, UnicodeError) as e:
            problems.append(f"bad graph6 {f!r}: {e}")
    return graphs


def _spec(kind: str, n: int, **extra) -> dict:
    out = {"kind": kind, "n": str(n)}
    out.update({k: str(v) for k, v in extra.items()})
    return out


def check_report(out: dict, n: int, m: int) -> list[str]:
    """`report --format structured`: every row scored right, ranked right,
    and the rows are exactly the classes of S(n, m)."""
    problems = []
    want = o.class_count(n, m)
    if out.get("class_spec") != _spec("edges", n, m=m):
        problems.append(f"class_spec {out.get('class_spec')}")
    rows = out.get("rows", [])
    if out.get("class_size") != str(want) or len(rows) != want:
        problems.append(f"class size {out.get('class_size')} / {len(rows)} rows, "
                        f"Burnside count {want}")
    graphs = _decode_all([r["graph6"] for r in rows], problems)
    if problems:
        return problems
    for rank, (r, g) in enumerate(zip(rows, graphs), start=1):
        deg = o.degrees(g)
        tri, p3 = o.triple_counts(g)
        expect = {"rank": str(rank), "t": str(o.spanning_trees(g)),
                  "nu": str(p3), "tau": str(tri),
                  "regular": min(deg) == max(deg),
                  "almost_regular": max(deg) - min(deg) <= 1}
        bad = {k: (r.get(k), v) for k, v in expect.items() if r.get(k) != v}
        if g[0] != n or o.edge_count(g) != m:
            bad["(n, m)"] = ((g[0], o.edge_count(g)), (n, m))
        if bad:
            problems.append(f"row {r['graph6']}: (got, want) {bad}")
    keys = [(-int(r["t"]), r["graph6"]) for r in rows]
    if keys != sorted(keys):
        problems.append("rows not sorted by (-t, graph6)")
    if not o.pairwise_non_isomorphic(graphs):
        problems.append("two rows are isomorphic")
    if (n, m) == (8, 12):
        marked = [int(r["rank"]) for r, g in zip(rows, graphs) if r["is_h_family"]]
        truth = [rank for rank, g in enumerate(graphs, start=1)
                 if o.isomorphic(g, WAGNER)]
        if marked != truth or out.get("h_family_rank") != str(truth[0]):
            problems.append(f"h-family rows {marked}, rank "
                            f"{out.get('h_family_rank')}; Wagner graph at {truth}")
    return problems


def check_duality(out: dict, n: int, d: int, classes: RegularClasses) -> list[str]:
    """`duality`: the Laplacian minima of R_d(n) and the complements of the
    adjacency minima of R_{n-1-d}(n), both from the benchmark's own traces."""
    problems = []
    size = o.regular_class_count(n, d)
    for key, want in (("command", "duality"), ("class_spec", _spec("regular", n, d=d)),
                      ("class_size", str(size)), ("method", "EXHAUSTIVE"),
                      ("candidate", None)):
        if out.get(key) != want:
            problems.append(f"{key} = {out.get(key)!r}, want {want!r}")
    lap_min, _ = classes.minima(n, d, "laplacian")
    adj_min, _ = classes.minima(n, n - 1 - d, "adjacency")
    image = [o.complement(g) for g in adj_min]
    winners = _decode_all(out.get("winners", []), problems)
    reported_image = _decode_all(out.get("complement_image_of_trace_minima", []), problems)
    if not o.same_classes(winners, lap_min):
        problems.append(f"winners are not the {len(lap_min)} Laplacian minima")
    if not o.same_classes(reported_image, image):
        problems.append(f"complement image is not that of the {len(adj_min)} "
                        "adjacency minima")
    verdict = "VERIFIED" if o.same_classes(lap_min, image) else "REFUTED"
    if out.get("verdict") != verdict:
        problems.append(f"verdict {out.get('verdict')}, own traces give {verdict}")
    return problems


def check_verify(out: dict, mode: str, n: int, d: int, g6: str,
                 classes: RegularClasses) -> list[str]:
    """`verify trace-min|ltrace-min`: verdict, winners and witnesses from an
    exhaustive lex comparison over the class with the benchmark's traces."""
    problems = []
    kind = "adjacency" if mode == "trace-min" else "laplacian"
    traces = o.adjacency_traces if kind == "adjacency" else o.laplacian_traces
    cand = o.decode_graph6(g6)
    minima, least = classes.minima(n, d, kind)
    mine = traces(cand)
    verdict = "VERIFIED" if mine == least else "REFUTED"
    for key, want in (("command", f"verify-{mode}"),
                      ("class_spec", _spec("regular", n, d=d)),
                      ("class_size", str(o.regular_class_count(n, d))),
                      ("verdict", verdict)):
        if out.get(key) != want:
            problems.append(f"{key} = {out.get(key)!r}, want {want!r}")
    allowed = {"GIRTH_CERTIFICATE", "EXHAUSTIVE"} if verdict == "VERIFIED" else {"EXHAUSTIVE"}
    if out.get("method") not in allowed:
        problems.append(f"method {out.get('method')!r} for a {verdict} verdict")
    got = _decode_all([out.get("candidate") or "?"], problems)
    if got and not o.isomorphic(got[0], cand):
        problems.append("reported candidate is not the input graph")
    winners = _decode_all(out.get("winners", []), problems)
    if not o.same_classes(winners, minima):
        problems.append(f"winners are not the {len(minima)} lex minima")
    witnesses = out.get("witnesses", [])
    if verdict == "VERIFIED":
        if witnesses:
            problems.append("witnesses on a VERIFIED verdict")
        return problems
    k = next(i for i, (a, b) in enumerate(zip(mine, least), start=1) if a != b)
    want_fields = {"divergence_index": str(k), "opponent_value": str(least[k - 1]),
                   "candidate_value": str(mine[k - 1])}
    opponents = _decode_all([w.get("opponent", "?") for w in witnesses], problems)
    if not o.same_classes(opponents, minima):
        problems.append("witness opponents are not the lex minima")
    for w in witnesses:
        bad = {f: (w.get(f), v) for f, v in want_fields.items() if w.get(f) != v}
        if bad:
            problems.append(f"witness {w.get('opponent')}: (got, want) {bad}")
    return problems


def check_spool(stdout: str, data: bytes, path: str, n: int, m: int) -> list[str]:
    """`enumerate --out`: the file lists S(n, m) once per class, sorted."""
    problems = []
    want = o.class_count(n, m)
    if stdout != f"{want} classes written to {path}\n":
        problems.append(f"stdout {stdout!r}")
    if data is None:
        return problems + ["no spool file written"]
    text = data.decode("ascii", errors="replace")
    if not text.endswith("\n") and text:
        problems.append("spool file does not end in a newline")
    forms = text.splitlines()
    if len(forms) != want:
        problems.append(f"{len(forms)} lines, Burnside count {want}")
    if forms != sorted(set(forms)):
        problems.append("lines not sorted and distinct")
    graphs = _decode_all(forms, problems)
    if any(g[0] != n or o.edge_count(g) != m for g in graphs):
        problems.append(f"a line is not a graph with (n, m) = ({n}, {m})")
    if not o.pairwise_non_isomorphic(graphs):
        problems.append("two lines are isomorphic")
    return problems
