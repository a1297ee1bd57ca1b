"""Verification commands and machine-readable certificates.

Each command enumerates a finite class, decides a verdict, and packages
the evidence (winners, divergence witnesses, method) so a run can be
replayed or diffed. Payloads are built from native values and written by
`payload_json` alone: a single JSON object in which every number, integer
or float, is a decimal string, byte-identical across worker counts apart
from the elapsed and tool_version fields.
"""
from __future__ import annotations

import json
import time
from collections import namedtuple

from .bounds import INCONCLUSIVE, girth_certificate
from .enumeration import (
    GraphClassSpec,
    Row,
    canonical_form,
    canonical_relabel,
    enumerate_by_edges,
    enumerate_regular,
)
from .errors import InternalConsistencyError
from .graphs import (
    GIRTH_INFINITE,
    Graph,
    complement,
    count_induced_p3,
    count_triangles,
    degree_info,
    girth,
    h_family,
    to_graph6,
)
from .linalg import spanning_tree_count
from .sequences import ADJACENCY, LAPLACIAN, lex_divergence, select_lex_minima

TOOL_VERSION = "0.1.0"
SCHEMA_VERSION = "2"

VERIFIED = "VERIFIED"
REFUTED = "REFUTED"

EXHAUSTIVE = "EXHAUSTIVE"
GIRTH_CERTIFICATE = "GIRTH_CERTIFICATE"

# recorded whenever a command touches the n(n-5)/2 edge classes: uniqueness
# of the H family is a threshold claim, desk-scale sweeps are evidence only
H_FAMILY_NOTE = ("h-family uniqueness is a large-n threshold claim; at this "
                 "size the exhaustive table is evidence, not the claim itself")


def _decimal_strings(v):
    """v with every int and float (not bool) as its decimal string and every
    tuple as a list; strings, bools and None stay as they are."""
    if isinstance(v, dict):
        return {k: _decimal_strings(x) for k, x in v.items()}
    if isinstance(v, (list, tuple)):
        return [_decimal_strings(x) for x in v]
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        return v
    return repr(v)


def payload_json(payload: dict) -> str:
    """A payload stamped with the schema and tool versions, as indented JSON
    with every number written as a decimal string."""
    stamped = {**payload, "schema_version": SCHEMA_VERSION, "tool_version": TOOL_VERSION}
    return json.dumps(_decimal_strings(stamped), indent=2, sort_keys=True) + "\n"


def _class_line(spec: dict, class_size: int) -> str:
    """The text header naming a class spec and its size."""
    return ("class: " + " ".join(f"{k}={v}" for k, v in spec.items())
            + f" ({class_size} classes)")


# One losing comparison: who beat the candidate (canonical graph6), where (the
# 1-based sequence index, None for scalar comparisons), by what values.
Witness = namedtuple("Witness", "opponent divergence_index opponent_value candidate_value")


class Certificate(namedtuple("Certificate", "command class_spec candidate verdict winners "
                                           "witnesses method class_size elapsed_ms extra")):
    """Verdict plus the evidence needed to audit it.

    Every verdict is decisive: winners is nonempty except in the vacuous
    duality case (empty class, class_size 0), and a REFUTED one names a
    witness; construction checks both. Worker count is
    deliberately not a field: payloads must not vary with parallelism.
    """

    __slots__ = ()

    def __new__(cls, command: str, class_spec: GraphClassSpec, candidate: str | None,
                verdict: str, winners: tuple[str, ...], witnesses: tuple[Witness, ...],
                method: str, class_size: int, elapsed_ms: int, extra: dict | None = None):
        if verdict == REFUTED and not witnesses:
            raise InternalConsistencyError("REFUTED certificate without a witness")
        if class_size > 0 and not winners:
            raise InternalConsistencyError("decisive certificate with empty winners")
        return super().__new__(cls, command, class_spec, candidate, verdict, winners,
                               witnesses, method, class_size, elapsed_ms,
                               {} if extra is None else extra)

    @classmethod
    def _make(cls, iterable):  # `_replace` builds through here: keep the checks
        return cls(*iterable)

    def to_dict(self) -> dict:
        out = {**self._asdict(), "class_spec": self.class_spec.to_dict(),
               "witnesses": [w._asdict() for w in self.witnesses], **self.extra}
        del out["extra"]
        return out

    def to_json(self) -> str:
        return payload_json(self.to_dict())

    def render_text(self) -> str:
        lines = [f"command: {self.command}",
                 _class_line(self.class_spec.to_dict(), self.class_size)]
        if self.candidate is not None:
            lines.append(f"candidate: {self.candidate}")
        lines.append(f"verdict: {self.verdict}")
        lines.append(f"method: {self.method}")
        lines.append("winners: " + (" ".join(self.winners) if self.winners else "(none)"))
        for w in self.witnesses:
            where = ("" if w.divergence_index is None
                     else f" diverges at k={w.divergence_index}")
            lines.append(f"witness: {w.opponent}{where} "
                         f"({w.opponent_value} vs {w.candidate_value})")
        for k, v in sorted(self.extra.items()):
            lines.append(f"{k}: {v}")
        lines.append(f"elapsed: {self.elapsed_ms} ms")
        return "\n".join(lines) + "\n"


def _elapsed_ms(t0: float) -> int:
    return int((time.perf_counter() - t0) * 1000)


def _require_regular(candidate: Graph, n: int, d: int) -> None:
    if candidate.n != n:
        raise ValueError(f"candidate has {candidate.n} vertices, class wants {n}")
    if any(deg != d for deg in candidate.degrees()):
        raise ValueError(f"candidate is not {d}-regular")


def _locate(cand, members: list) -> int:
    """The candidate's index among the members, both canonical: as `Graph`s
    or as graph6 forms."""
    if cand not in members:
        raise InternalConsistencyError("candidate missing from its own class")
    return members.index(cand)


def _t_row(g: Graph) -> tuple[int, str, int]:
    """A member's (-t, canonical graph6, t), all `verify t-optimal` needs.
    Ascending order ranks by t descending, then graph6 ascending."""
    t = spanning_tree_count(g)
    return -t, to_graph6(g), t


def _report_row(g: Graph) -> tuple:
    """`_t_row` followed by the report's regular and almost-regular flags,
    nu and tau."""
    info = degree_info(g)
    tau = count_triangles(g)
    return (*_t_row(g), info.is_regular, info.is_almost_regular, count_induced_p3(g, tau), tau)


def _ranked_by_edges(n: int, m: int, workers: int, row: Row
                     ) -> tuple[list[tuple], str | None]:
    """S_{n,m} as rows made by `row` (`_t_row` or `_report_row`) in the
    workers, one per member, ordered by t descending and then graph6
    ascending, plus the H family's form when m = n(n-5)/2."""
    ranked = enumerate_by_edges(n, m, workers=workers, row=row)
    h_form = None
    if n >= 5 and m == n * (n - 5) // 2:
        h_form = canonical_form(h_family(n))
    return ranked, h_form


def _verify_lex_minimal(kind: str, candidate: Graph, n: int, d: int,
                        workers: int) -> Certificate:
    """Is the candidate's `kind` trace sequence lex-minimal in R_d(n)?

    Cheap path first: a girth certificate for the candidate in R_d(n), or,
    for the Laplacian, for its complement in R_{n-1-d}(n), which is
    trace-minimal there exactly when the candidate is L-trace-minimal here.
    Either settles the verdict without any trace computation. Fallback is
    the exhaustive sweep over R_d(n).
    """
    t0 = time.perf_counter()
    _require_regular(candidate, n, d)
    command = "verify-trace-min" if kind == ADJACENCY else "verify-ltrace-min"
    spec = GraphClassSpec("regular", n, d=d)
    probe_d = d if kind == ADJACENCY else n - 1 - d
    probe_members = enumerate_regular(n, probe_d, workers=workers)
    cand = canonical_relabel(candidate)  # once: as the adjacency probe it is a member
    cand_form = to_graph6(cand)
    probe = cand if kind == ADJACENCY else complement(candidate)
    status = girth_certificate(probe, probe_members)
    if status != INCONCLUSIVE:
        extra = {"girth_certificate": status}
        if kind == LAPLACIAN:
            extra["certified_via"] = "complement duality"
        # |R_d(n)| equals the complementary class size (complement bijection)
        return Certificate(
            command, spec, cand_form, VERIFIED, (cand_form,), (), GIRTH_CERTIFICATE,
            len(probe_members), _elapsed_ms(t0), extra=extra)
    members = (probe_members if kind == ADJACENCY
               else enumerate_regular(n, d, workers=workers))
    _locate(cand, members)
    minima = select_lex_minima(members, kind)
    winners = tuple(sorted(to_graph6(g) for g in minima))
    witnesses = ()
    if cand not in minima:
        k, cand_value, winner_value = lex_divergence(cand, minima[0], kind)
        witnesses = tuple(Witness(w, k, winner_value, cand_value) for w in winners)
    return Certificate(
        command, spec, cand_form, REFUTED if witnesses else VERIFIED, winners, witnesses,
        EXHAUSTIVE, len(members), _elapsed_ms(t0))


def cmd_verify_trace_minimal(candidate: Graph, n: int, d: int, *,
                             workers: int = 1) -> Certificate:
    """Is the candidate's adjacency trace sequence lex-minimal in R_d(n)?"""
    return _verify_lex_minimal(ADJACENCY, candidate, n, d, workers)


def cmd_verify_l_trace_minimal(candidate: Graph, n: int, d: int, *,
                               workers: int = 1) -> Certificate:
    """Is the candidate's Laplacian trace sequence lex-minimal in R_d(n)?"""
    return _verify_lex_minimal(LAPLACIAN, candidate, n, d, workers)


def cmd_verify_t_optimal(candidate: Graph, n: int, m: int, *,
                         workers: int = 1) -> Certificate:
    """Does the candidate maximize the spanning-tree count over S_{n,m}?"""
    t0 = time.perf_counter()
    if candidate.n != n or candidate.m != m:
        raise ValueError(
            f"candidate has (n, m) = ({candidate.n}, {candidate.m}), "
            f"class wants ({n}, {m})")
    ranked, h_form = _ranked_by_edges(n, m, workers, _t_row)
    cand_form = canonical_form(candidate)
    cand_t = ranked[_locate(cand_form, [form for _, form, _ in ranked])][2]
    tmax = ranked[0][2]
    winners = tuple(form for _, form, t in ranked if t == tmax)
    extra = {
        "candidate_t": cand_t,
        "max_t": tmax,
        "unique": len(winners) == 1,
    }
    if cand_form == h_form:
        extra["note"] = H_FAMILY_NOTE
    witnesses = () if cand_t == tmax else tuple(
        Witness(w, None, tmax, cand_t) for w in winners)
    return Certificate(
        "verify-t-optimal", GraphClassSpec("edges", n, m=m), cand_form,
        REFUTED if witnesses else VERIFIED, winners, witnesses, EXHAUSTIVE, len(ranked),
        _elapsed_ms(t0), extra=extra)


def cmd_check_duality(n: int, d: int, *, workers: int = 1) -> Certificate:
    """L-trace minima of R_d(n) must be the complements of the trace minima
    of R_{n-1-d}(n); both sides are computed exhaustively and compared as
    canonical-form sets."""
    t0 = time.perf_counter()
    spec = GraphClassSpec("regular", n, d=d)
    l_members = enumerate_regular(n, d, workers=workers)
    if not l_members:
        extra = {"warning": spec.warning} if spec.warning else {}
        return Certificate("duality", spec, None, VERIFIED, (), (), EXHAUSTIVE,
                           0, _elapsed_ms(t0), extra=extra)
    a_members = enumerate_regular(n, n - 1 - d, workers=workers)
    lmin = select_lex_minima(l_members, LAPLACIAN)
    amin = select_lex_minima(a_members, ADJACENCY)
    lset = sorted(to_graph6(g) for g in lmin)
    image = sorted(canonical_form(complement(g)) for g in amin)
    witnesses = tuple(
        Witness(f, None, int(f in lset), int(f in image))
        for f in sorted(set(lset) ^ set(image)))
    return Certificate(
        "duality", spec, None, REFUTED if witnesses else VERIFIED, tuple(lset), witnesses,
        EXHAUSTIVE, len(l_members), _elapsed_ms(t0),
        extra={"complement_image_of_trace_minima": image})


def construct_summary(g: Graph) -> dict:
    """graph6 plus the one-line facts a construction command reports."""
    degs = g.degrees()
    gir = girth(g)
    return {
        "graph6": to_graph6(g),
        "n": g.n,
        "m": g.m,
        "degree_min": min(degs),
        "degree_max": max(degs),
        "girth": "infinite" if gir == GIRTH_INFINITE else gir,
    }


def cmd_report_class(n: int, m: int, *, workers: int = 1) -> dict:
    """Every iso class of S_{n,m} ranked by exact spanning-tree count.

    Ties share a t value but not a rank; rows are ordered by (t descending,
    canonical graph6 ascending) so the table is deterministic. No winner is
    asserted: the table reports, tests elsewhere decide.
    """
    t0 = time.perf_counter()
    ranked, h_form = _ranked_by_edges(n, m, workers, _report_row)
    rows = []
    h_rank = None
    for rank, (_, form, t, regular, almost_regular, nu, tau) in enumerate(ranked, start=1):
        if form == h_form:
            h_rank = rank
        rows.append({
            "rank": rank,
            "graph6": form,
            "t": t,
            "regular": regular,
            "almost_regular": almost_regular,
            "nu": nu,
            "tau": tau,
            "is_h_family": form == h_form,
        })
    report = {
        "command": "report",
        "class_spec": GraphClassSpec("edges", n, m=m).to_dict(),
        "class_size": len(ranked),
        "rows": rows,
        "elapsed_ms": _elapsed_ms(t0),
    }
    if h_form is not None:
        report["h_family_rank"] = h_rank
        report["note"] = H_FAMILY_NOTE
    return report


def report_to_json(report: dict) -> str:
    return payload_json(report)


def report_render_text(report: dict) -> str:
    lines = [_class_line(report["class_spec"], report["class_size"])]
    if "h_family_rank" in report:
        lines.append(f"h-family rank: {report['h_family_rank']}")
        lines.append(f"note: {report['note']}")
    lines.append("rank  t  graph6  degrees  nu  tau  h-family")
    for r in report["rows"]:
        shape = "regular" if r["regular"] else (
            "almost-regular" if r["almost_regular"] else "irregular")
        mark = " H" if r["is_h_family"] else ""
        lines.append(f"{r['rank']:>4}  {r['t']}  {r['graph6']}  {shape}  "
                     f"{r['nu']}  {r['tau']}{mark}")
    lines.append(f"elapsed: {report['elapsed_ms']} ms")
    return "\n".join(lines) + "\n"
