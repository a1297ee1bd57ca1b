"""Command-line front end.

Exit codes: 0 verified/success, 1 refuted, 2 usage error (bad input, or an
output path the system refuses), 3 caps refusal, 4 internal-consistency
fault, 130 interrupted (Ctrl-C; a spool run leaves its checkpoint, and the
same command resumes from it).

Run as a program, `main` freezes the heap that imports left, so no garbage
collection walks it again, the one at interpreter exit included; library
callers of `main(argv)` and of the enumeration and certify functions keep
a fully collectable heap.
"""
from __future__ import annotations

import argparse
import gc
import os
import sys

from .bounds import improved_bound, n0_threshold
from .certify import (
    VERIFIED,
    cmd_check_duality,
    cmd_report_class,
    cmd_verify_l_trace_minimal,
    cmd_verify_t_optimal,
    cmd_verify_trace_minimal,
    construct_summary,
    payload_json,
    report_render_text,
    report_to_json,
)
from .enumeration import (
    CHECKPOINT_SUFFIX,
    GraphClassSpec,
    enumerate_class,
    spool_class,
)
from .errors import CapsExceededError, InternalConsistencyError
from .graphs import complement, extend_g0, from_graph6, h_family, join_power, to_graph6
from .linalg import spanning_tree_count
from .sequences import ADJACENCY, LAPLACIAN, gap_sequence, trace_sequence

EXIT_OK = 0
EXIT_REFUTED = 1
EXIT_USAGE = 2
EXIT_CAPS = 3
EXIT_INTERNAL = 4
EXIT_INTERRUPTED = 130


def _workers(ns) -> int:
    """--workers, else every core this process may run on."""
    if ns.workers is None:
        usable = getattr(os, "sched_getaffinity", None)  # Linux; absent on macOS and Windows
        return len(usable(0)) if usable else (os.cpu_count() or 1)
    if ns.workers < 1:
        raise ValueError("--workers must be positive")
    return ns.workers


# Each `_run_*` takes the parsed arguments and the worker count and returns
# (exit code, structured output, text output), the two outputs as thunks:
# `main` renders only the one --format asks for.
def _plain(payload: dict, text: str):
    return EXIT_OK, lambda: payload_json(payload), lambda: text


def _certificate(cert):
    return (EXIT_OK if cert.verdict == VERIFIED else EXIT_REFUTED,
            cert.to_json, cert.render_text)


def _run_count(ns, workers):
    g = from_graph6(ns.g6)
    t = spanning_tree_count(g)
    return _plain({"command": "count", "graph6": ns.g6, "n": g.n, "m": g.m, "t": t},
                  f"t = {t}\n")


def _refuse_past_digit_limit(what: str, factor: int, base: int, exp: int) -> None:
    """Raise the usage error `what` when factor * base**exp (factor, exp >= 1),
    a bound on the largest number a command builds, could have more digits
    than the interpreter prints: its limit, else CPython's 4,300. As
    3 < log2 10 < 10/3, bit lengths settle all but powers of under about
    20/3 limit bits, and the exact comparison builds those."""
    limit = getattr(sys, "get_int_max_str_digits", int)() or 4300
    low = factor.bit_length() - 1 + exp * (base.bit_length() - 1)  # 2^low <= the product
    high = factor.bit_length() + exp * base.bit_length()  # the product < 2^high
    if 3 * low >= 10 * limit or (high > 3 * limit and factor * base ** exp >= 10 ** limit):
        raise ValueError(what)


def _trace_radius(g, kind: str) -> int:
    """rho with |tr M^k| <= n rho^k for the kind's matrix M: A's eigenvalues
    are at most the largest degree D in size, L's at most 2D and n (as
    L(G) + L(complement) = nI - J), and a gap's degree floor is at most
    n (D + 1)^k, within the Laplacian bound."""
    top = max(g.degrees())
    return top if kind == ADJACENCY else min(2 * top, g.n)


def _run_seq(ns, workers):
    g = from_graph6(ns.g6)
    if ns.k < 1:
        raise ValueError("--k must be at least 1")
    kind = LAPLACIAN if ns.kind == "lap" else ADJACENCY
    _refuse_past_digit_limit(f"{ns.kind} traces are too large to print for --k {ns.k}",
                             g.n, _trace_radius(g, kind), ns.k)
    seq = trace_sequence(g, kind, ns.k)
    vals = " ".join(str(v) for v in seq)
    return _plain({"command": "seq", "kind": ns.kind, "graph6": ns.g6,
                   "k": ns.k, "values": seq},
                  f"{ns.kind} traces k=1..{ns.k}: {vals}\n")


def _run_gaps(ns, workers):
    g = from_graph6(ns.g6)
    if ns.k < 1:
        raise ValueError("--k must be at least 1")
    _refuse_past_digit_limit(f"gaps are too large to print for --k {ns.k}",
                             g.n, _trace_radius(g, LAPLACIAN), ns.k)
    gaps = gap_sequence(g, ns.k)
    vals = " ".join(str(v) for v in gaps)
    return _plain({"command": "gaps", "graph6": ns.g6, "k": ns.k, "values": gaps},
                  f"gaps k=1..{ns.k}: {vals}\n")


def _run_verify(ns, workers):
    g = from_graph6(ns.g6)
    if ns.mode == "t-optimal":
        if ns.m is None:
            raise ValueError("verify t-optimal needs --m")
        cert = cmd_verify_t_optimal(g, ns.n, ns.m, workers=workers)
    else:
        if ns.d is None:
            raise ValueError(f"verify {ns.mode} needs --d")
        cmd = (cmd_verify_trace_minimal if ns.mode == "trace-min"
               else cmd_verify_l_trace_minimal)
        cert = cmd(g, ns.n, ns.d, workers=workers)
    return _certificate(cert)


def _run_duality(ns, workers):
    return _certificate(cmd_check_duality(ns.n, ns.d, workers=workers))


def _run_construct(ns, workers):
    if ns.family == "h":
        if ns.n is None:
            raise ValueError("construct h needs --n")
        g = h_family(ns.n)
    elif ns.family == "g0pq":
        if ns.g6 is None or ns.d is None or ns.p is None or ns.q is None:
            raise ValueError("construct g0pq needs --g6, --d, --p, --q")
        g = extend_g0(from_graph6(ns.g6), ns.d, ns.p, ns.q)
    elif ns.family == "join-power":
        if ns.g6 is None or ns.k is None:
            raise ValueError("construct join-power needs --g6 and --k")
        g = join_power(from_graph6(ns.g6), ns.k)
    else:  # complement
        if ns.g6 is None:
            raise ValueError("construct complement needs --g6")
        g = complement(from_graph6(ns.g6))
    s = construct_summary(g)
    text = (f"{s['graph6']}\n"
            f"n={s['n']} m={s['m']} degrees {s['degree_min']}..{s['degree_max']} "
            f"girth {s['girth']}\n")
    return _plain({"command": "construct", "family": ns.family, **s}, text)


def _run_enumerate(ns, workers):
    if ns.klass == "r":
        if ns.d is None:
            raise ValueError("--class r needs --d")
        spec = GraphClassSpec("regular", ns.n, d=ns.d)
    else:
        if ns.m is None:
            raise ValueError("--class s needs --m")
        spec = GraphClassSpec("edges", ns.n, m=ns.m)
    payload = {"command": "enumerate", "class_spec": spec.to_dict()}
    if ns.out:
        count = spool_class(spec, ns.out, workers=workers)
        payload.update(out=ns.out, count=count)
        text = f"{count} classes written to {ns.out}\n"
    else:
        forms = enumerate_class(spec, workers=workers, row=to_graph6)
        payload.update(count=len(forms), graphs=forms)
        text = "".join(f"{f}\n" for f in forms)
    if spec.warning:
        payload["warning"] = spec.warning
        if ns.format == "text":
            print(f"warning: {spec.warning}", file=sys.stderr)
    return _plain(payload, text)


def _run_bound(ns, workers):
    g = from_graph6(ns.g6)
    if ns.c < 1:
        raise ValueError("--c must be at least 1")
    _refuse_past_digit_limit(f"gaps are too large for --c {ns.c}",
                             g.n, _trace_radius(g, LAPLACIAN), ns.c)
    report = improved_bound(g, ns.c)
    payload = {"command": "bound", "graph6": ns.g6, **report._asdict()}
    text = (f"bound (c={report.c_used}): {report.bound_value!r}\n"
            f"exact t(complement): {report.exact_t}\n"
            f"slack: {report.slack!r}\n"
            f"equality: {report.equality_flag}\n"
            f"connected complement: {report.connected_complement}\n")
    return _plain(payload, text)


def _run_report(ns, workers):
    report = cmd_report_class(ns.n, ns.m, workers=workers)
    return EXIT_OK, lambda: report_to_json(report), lambda: report_render_text(report)


def _run_threshold(ns, workers):
    if min(ns.g0_order, ns.d, ns.c) >= 1:  # n0 = 2d + g0 (2d)^(c+2) <= (g0 + 1)(2d)^(c+2)
        _refuse_past_digit_limit(f"n0 is too large to print for --c {ns.c}",
                                 ns.g0_order + 1, 2 * ns.d, ns.c + 2)
    n0 = n0_threshold(ns.g0_order, ns.d, ns.c)
    return _plain({"command": "threshold", "g0_order": ns.g0_order,
                   "d": ns.d, "c": ns.c, "n0": n0},
                  f"n0 = {n0}\n")


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--workers", type=int, default=None,
                        help="worker processes (default: the cores this process may use)")
    common.add_argument("--format", choices=["text", "structured"], default="text")

    parser = argparse.ArgumentParser(prog="treeopt",
                                     description="exact spanning-tree toolkit")
    sub = parser.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("count", parents=[common], help="spanning-tree count")
    p.add_argument("--g6", required=True)
    p.set_defaults(func=_run_count)

    p = sub.add_parser("seq", parents=[common], help="trace sequence prefix")
    p.add_argument("--kind", choices=["lap", "adj"], required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--g6", required=True)
    p.set_defaults(func=_run_seq)

    p = sub.add_parser("gaps", parents=[common], help="gap sequence prefix")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--g6", required=True)
    p.set_defaults(func=_run_gaps)

    p = sub.add_parser("verify", parents=[common], help="minimality/optimality certificates")
    p.add_argument("mode", choices=["trace-min", "ltrace-min", "t-optimal"])
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--d", type=int)
    p.add_argument("--m", type=int)
    p.add_argument("--g6", required=True)
    p.set_defaults(func=_run_verify)

    p = sub.add_parser("duality", parents=[common],
                       help="L-trace minima vs complemented trace minima")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--d", type=int, required=True)
    p.set_defaults(func=_run_duality)

    p = sub.add_parser("construct", parents=[common], help="named graph constructions")
    p.add_argument("family", choices=["h", "g0pq", "join-power", "complement"])
    p.add_argument("--n", type=int)
    p.add_argument("--g6")
    p.add_argument("--d", type=int)
    p.add_argument("--p", type=int)
    p.add_argument("--q", type=int)
    p.add_argument("--k", type=int)
    p.set_defaults(func=_run_construct)

    p = sub.add_parser("enumerate", parents=[common], help="isomorphism classes of a class")
    p.add_argument("--class", dest="klass", choices=["r", "s"], required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--d", type=int)
    p.add_argument("--m", type=int)
    p.add_argument("--out", help="spool to file with a resumable checkpoint")
    p.set_defaults(func=_run_enumerate)

    p = sub.add_parser("bound", parents=[common], help="spanning-tree upper bound")
    p.add_argument("--c", type=int, required=True)
    p.add_argument("--g6", required=True)
    p.set_defaults(func=_run_bound)

    p = sub.add_parser("report", parents=[common], help="rank a class by tree count")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.set_defaults(func=_run_report)

    p = sub.add_parser("threshold", parents=[common], help="family size threshold")
    p.add_argument("--g0-order", dest="g0_order", type=int, required=True)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--c", type=int, required=True)
    p.set_defaults(func=_run_threshold)

    return parser


def main(argv=None) -> int:
    if argv is None:
        gc.freeze()  # a program's import-time objects live until exit: keep collections off them
    parser = _build_parser()
    try:
        ns = parser.parse_args(argv)
    except SystemExit as e:
        return EXIT_OK if e.code == 0 else EXIT_USAGE
    try:
        code, structured, text = ns.func(ns, _workers(ns))
        sys.stdout.write(structured() if ns.format == "structured" else text())
        return code
    except (ValueError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE
    except CapsExceededError as e:
        print(f"refused: {e}", file=sys.stderr)
        return EXIT_CAPS
    except InternalConsistencyError as e:
        print(f"internal fault: {e}", file=sys.stderr)
        return EXIT_INTERNAL
    except KeyboardInterrupt:
        out = getattr(ns, "out", None)
        resumable = out is not None and os.path.exists(out + CHECKPOINT_SUFFIX)
        print("interrupted; rerun the same command to resume" if resumable
              else "interrupted", file=sys.stderr)
        return EXIT_INTERRUPTED
    except Exception:
        import traceback  # only a fault that no other branch names reaches here
        traceback.print_exc()
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
