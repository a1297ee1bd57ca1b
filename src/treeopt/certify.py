"""Verification commands and machine-readable certificates.

Each command enumerates a finite class, decides a verdict, and packages
the evidence (winners, divergence witnesses, method) so a run can be
replayed or diffed. STRUCTURED output is a single JSON object with every
integer rendered as a decimal string; byte-identical across worker counts
apart from the elapsed and tool_version fields.
"""
from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass, field
from typing import Optional

from .bounds import INCONCLUSIVE as _GIRTH_INCONCLUSIVE
from .bounds import girth_certificate
from .enumeration import (
    Caps,
    GraphClassSpec,
    canonical_form,
    enumerate_by_edges,
    enumerate_regular,
)
from .errors import InternalConsistencyError
from .graphs import (
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
from .sequences import ADJACENCY, EQUAL, LAPLACIAN, select_lex_minima

TOOL_VERSION = "0.1.0"
SCHEMA_VERSION = "2"

VERIFIED = "VERIFIED"
REFUTED = "REFUTED"
INCONCLUSIVE = "INCONCLUSIVE"

EXHAUSTIVE = "EXHAUSTIVE"
GIRTH_CERTIFICATE = "GIRTH_CERTIFICATE"

TEXT = "TEXT"
STRUCTURED = "STRUCTURED"

# recorded whenever a command touches the n(n-5)/2 edge classes: uniqueness
# of the H family is a threshold claim, desk-scale sweeps are evidence only
H_FAMILY_NOTE = ("h-family uniqueness is a large-n threshold claim; at this "
                 "size the exhaustive table is evidence, not the claim itself")


@dataclass(frozen=True)
class Witness:
    """One losing comparison: who beat the candidate, where, by what values."""

    opponent: str  # canonical graph6
    divergence_index: Optional[int]  # 1-based sequence index, None for scalar comparisons
    opponent_value: str
    candidate_value: str

    def to_dict(self) -> dict:
        return {
            "opponent": self.opponent,
            "divergence_index": None if self.divergence_index is None
            else str(self.divergence_index),
            "opponent_value": self.opponent_value,
            "candidate_value": self.candidate_value,
        }


@dataclass(frozen=True)
class Certificate:
    """Verdict plus the evidence needed to audit it.

    winners is nonempty whenever the verdict is decisive, except the
    vacuous duality case (empty class, class_size 0). Worker count is
    deliberately not a field: payloads must not vary with parallelism.
    """

    command: str
    class_spec: GraphClassSpec
    candidate: Optional[str]
    verdict: str
    winners: tuple[str, ...]
    witnesses: tuple[Witness, ...]
    method: str
    class_size: int
    elapsed_ms: int
    tool_version: str = TOOL_VERSION
    schema_version: str = SCHEMA_VERSION
    extra: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        out = {
            "command": self.command,
            "class_spec": {k: str(v) for k, v in self.class_spec.to_dict().items()},
            "candidate": self.candidate,
            "verdict": self.verdict,
            "winners": list(self.winners),
            "witnesses": [w.to_dict() for w in self.witnesses],
            "method": self.method,
            "class_size": str(self.class_size),
            "elapsed_ms": str(self.elapsed_ms),
            "tool_version": self.tool_version,
            "schema_version": self.schema_version,
        }
        for k, v in sorted(self.extra.items()):
            out[k] = v
        return out

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n"

    def render_text(self) -> str:
        spec = self.class_spec.to_dict()
        lines = [
            f"command: {self.command}",
            "class: " + " ".join(f"{k}={v}" for k, v in spec.items())
            + f" ({self.class_size} classes)",
        ]
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


@dataclass(frozen=True)
class RunConfig:
    worker_count: int = 1
    caps: Caps = field(default_factory=Caps)
    format: str = TEXT


def _elapsed_ms(t0: float) -> int:
    return int((time.perf_counter() - t0) * 1000)


def _check_invariants(cert: Certificate) -> Certificate:
    if cert.verdict == REFUTED and not cert.witnesses:
        raise InternalConsistencyError("REFUTED certificate without a witness")
    if cert.verdict != INCONCLUSIVE and cert.class_size > 0 and not cert.winners:
        raise InternalConsistencyError("decisive certificate with empty winners")
    return cert


def _require_regular(candidate: Graph, n: int, d: int) -> None:
    if candidate.n != n:
        raise ValueError(f"candidate has {candidate.n} vertices, class wants {n}")
    if any(deg != d for deg in candidate.degrees()):
        raise ValueError(f"candidate is not {d}-regular")


def _seq_verdict(candidate: Graph, graphs: list[Graph], kind: str):
    """Exhaustive lex comparison; returns (verified, winners, witnesses)."""
    forms = [to_graph6(g) for g in graphs]  # stream members are canonical already
    cand_form = canonical_form(candidate)
    if cand_form not in forms:
        raise InternalConsistencyError("candidate missing from its own class")
    minima, records = select_lex_minima(graphs, kind)
    winners = tuple(sorted(to_graph6(g) for g in minima))
    rec = records[forms.index(cand_form)]
    if rec["relation"] == EQUAL:
        return True, winners, ()
    witnesses = tuple(
        Witness(w, rec["divergence_index"],
                str(rec["minimum_value"]), str(rec["value"]))
        for w in winners)
    return False, winners, witnesses


def cmd_verify_trace_minimal(candidate: Graph, n: int, d: int,
                             config: RunConfig | None = None) -> Certificate:
    """Is the candidate's adjacency trace sequence lex-minimal in R_d(n)?

    Tries the girth certificate before paying for the exhaustive sweep.
    """
    config = config or RunConfig()
    t0 = time.perf_counter()
    _require_regular(candidate, n, d)
    stream = enumerate_regular(n, d, config.caps, config.worker_count)
    spec = stream.spec
    status = girth_certificate(candidate, stream.graphs)
    if status != _GIRTH_INCONCLUSIVE:
        return _check_invariants(Certificate(
            "verify-trace-min", spec, canonical_form(candidate), VERIFIED,
            (canonical_form(candidate),), (), GIRTH_CERTIFICATE,
            len(stream), _elapsed_ms(t0), extra={"girth_certificate": status}))
    verified, winners, witnesses = _seq_verdict(candidate, stream.graphs, ADJACENCY)
    return _check_invariants(Certificate(
        "verify-trace-min", spec, canonical_form(candidate),
        VERIFIED if verified else REFUTED, winners, witnesses, EXHAUSTIVE,
        len(stream), _elapsed_ms(t0)))


def cmd_verify_l_trace_minimal(candidate: Graph, n: int, d: int,
                               config: RunConfig | None = None) -> Certificate:
    """Laplacian analogue of cmd_verify_trace_minimal.

    Cheap path first: the candidate is L-trace-minimal exactly when its
    complement is trace-minimal in the complementary class, so a girth
    certificate for the complement settles the verdict without any trace
    computation. Fallback is the exhaustive Laplacian sweep over R_d(n).
    """
    config = config or RunConfig()
    t0 = time.perf_counter()
    _require_regular(candidate, n, d)
    spec = GraphClassSpec("regular", n, d=d)
    comp = complement(candidate)
    comp_stream = enumerate_regular(n, n - 1 - d, config.caps, config.worker_count)
    status = girth_certificate(comp, comp_stream.graphs)
    if status != _GIRTH_INCONCLUSIVE:
        # |R_d(n)| equals the complementary class size (complement bijection)
        return _check_invariants(Certificate(
            "verify-ltrace-min", spec, canonical_form(candidate), VERIFIED,
            (canonical_form(candidate),), (), GIRTH_CERTIFICATE,
            len(comp_stream), _elapsed_ms(t0),
            extra={"girth_certificate": status,
                   "certified_via": "complement duality"}))
    stream = enumerate_regular(n, d, config.caps, config.worker_count)
    verified, winners, witnesses = _seq_verdict(candidate, stream.graphs, LAPLACIAN)
    return _check_invariants(Certificate(
        "verify-ltrace-min", spec, canonical_form(candidate),
        VERIFIED if verified else REFUTED, winners, witnesses, EXHAUSTIVE,
        len(stream), _elapsed_ms(t0)))


def cmd_verify_t_optimal(candidate: Graph, n: int, m: int,
                         config: RunConfig | None = None) -> Certificate:
    """Does the candidate maximize the spanning-tree count over S_{n,m}?"""
    config = config or RunConfig()
    t0 = time.perf_counter()
    if candidate.n != n or candidate.m != m:
        raise ValueError(
            f"candidate has (n, m) = ({candidate.n}, {candidate.m}), "
            f"class wants ({n}, {m})")
    stream = enumerate_by_edges(n, m, config.caps, config.worker_count)
    forms = [to_graph6(g) for g in stream.graphs]
    cand_form = canonical_form(candidate)
    if cand_form not in forms:
        raise InternalConsistencyError("candidate missing from its own class")
    tvals = [spanning_tree_count(g) for g in stream.graphs]
    tmax = max(tvals)
    winners = tuple(sorted(f for f, t in zip(forms, tvals) if t == tmax))
    cand_t = tvals[forms.index(cand_form)]
    extra = {
        "candidate_t": str(cand_t),
        "max_t": str(tmax),
        "unique": len(winners) == 1,
    }
    if n >= 5 and m == n * (n - 5) // 2 and cand_form == canonical_form(h_family(n)):
        extra["note"] = H_FAMILY_NOTE
    witnesses = () if cand_t == tmax else tuple(
        Witness(w, None, str(tmax), str(cand_t)) for w in winners)
    return _check_invariants(Certificate(
        "verify-t-optimal", stream.spec, cand_form, REFUTED if witnesses else VERIFIED,
        winners, witnesses, EXHAUSTIVE, len(stream), _elapsed_ms(t0), extra=extra))


def cmd_check_duality(n: int, d: int, config: RunConfig | None = None) -> Certificate:
    """L-trace minima of R_d(n) must be the complements of the trace minima
    of R_{n-1-d}(n); both sides are computed exhaustively and compared as
    canonical-form sets."""
    config = config or RunConfig()
    t0 = time.perf_counter()
    l_stream = enumerate_regular(n, d, config.caps, config.worker_count)
    spec = l_stream.spec
    if not l_stream.graphs:
        extra = {"warning": l_stream.warning} if l_stream.warning else {}
        return Certificate("duality", spec, None, VERIFIED, (), (), EXHAUSTIVE,
                           0, _elapsed_ms(t0), extra=extra)
    a_stream = enumerate_regular(n, n - 1 - d, config.caps, config.worker_count)
    lmin, _ = select_lex_minima(l_stream.graphs, LAPLACIAN)
    amin, _ = select_lex_minima(a_stream.graphs, ADJACENCY)
    lset = sorted(to_graph6(g) for g in lmin)
    image = sorted(canonical_form(complement(g)) for g in amin)
    extra = {"complement_image_of_trace_minima": image}
    if lset == image:
        cert = Certificate("duality", spec, None, VERIFIED, tuple(lset), (),
                           EXHAUSTIVE, len(l_stream), _elapsed_ms(t0), extra=extra)
    else:
        bad = sorted(set(lset) ^ set(image))
        witnesses = tuple(
            Witness(f, None, "1" if f in lset else "0", "1" if f in image else "0")
            for f in bad)
        cert = Certificate("duality", spec, None, REFUTED, tuple(lset), witnesses,
                           EXHAUSTIVE, len(l_stream), _elapsed_ms(t0), extra=extra)
    return _check_invariants(cert)


def construct_summary(g: Graph) -> dict:
    """graph6 plus the one-line facts a construction command reports."""
    degs = g.degrees()
    gir = girth(g)
    return {
        "graph6": to_graph6(g),
        "n": str(g.n),
        "m": str(g.m),
        "degree_min": str(min(degs)),
        "degree_max": str(max(degs)),
        "girth": "infinite" if gir == math.inf else str(gir),
    }


def cmd_report_class(n: int, m: int, config: RunConfig | None = None) -> dict:
    """Every iso class of S_{n,m} ranked by exact spanning-tree count.

    Ties share a t value but not a rank; rows are ordered by (t descending,
    canonical graph6 ascending) so the table is deterministic. No winner is
    asserted: the table reports, tests elsewhere decide.
    """
    config = config or RunConfig()
    t0 = time.perf_counter()
    stream = enumerate_by_edges(n, m, config.caps, config.worker_count)
    h_form = None
    if n >= 5 and m == n * (n - 5) // 2:
        h_form = canonical_form(h_family(n))
    scored = []
    for g in stream.graphs:
        form = to_graph6(g)
        info = degree_info(g)
        scored.append({
            "graph6": form,
            "t": spanning_tree_count(g),
            "regular": info.is_regular,
            "almost_regular": info.is_almost_regular,
            "nu": count_induced_p3(g),
            "tau": count_triangles(g),
            "is_h_family": form == h_form,
        })
    scored.sort(key=lambda r: (-r["t"], r["graph6"]))
    rows = []
    h_rank = None
    for rank, r in enumerate(scored, start=1):
        if r["is_h_family"]:
            h_rank = rank
        rows.append({
            "rank": str(rank),
            "graph6": r["graph6"],
            "t": str(r["t"]),
            "regular": r["regular"],
            "almost_regular": r["almost_regular"],
            "nu": str(r["nu"]),
            "tau": str(r["tau"]),
            "is_h_family": r["is_h_family"],
        })
    report = {
        "command": "report",
        "class_spec": {k: str(v) for k, v in stream.spec.to_dict().items()},
        "class_size": str(len(stream)),
        "rows": rows,
        "elapsed_ms": str(_elapsed_ms(t0)),
        "tool_version": TOOL_VERSION,
        "schema_version": SCHEMA_VERSION,
    }
    if h_form is not None:
        report["h_family_rank"] = None if h_rank is None else str(h_rank)
        report["note"] = H_FAMILY_NOTE
    return report


def report_to_json(report: dict) -> str:
    return json.dumps(report, indent=2, sort_keys=True) + "\n"


def report_render_text(report: dict) -> str:
    spec = report["class_spec"]
    head = ("class: " + " ".join(f"{k}={v}" for k, v in spec.items())
            + f" ({report['class_size']} classes)")
    lines = [head]
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
