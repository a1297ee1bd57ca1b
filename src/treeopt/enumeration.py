"""Isomorph-free enumeration of small graph classes, exact at desk scale.

One canonical convention serves the whole package: the row-major adjacency
code, maximal over relabelings (row i holds the bits ij for j > i, j = i+1
first, and codes compare row by row). Two orderly generators emit exactly
the relabelings that attain it: fixed edge count classes grow edge by edge,
regular classes grow row by row with packed cells. Each isomorphism class is
produced once, already in canonical form, so members need no post-hoc
isomorphism filtering or relabeling; `canonical_relabel` maps outside input
to the same form. Public emission order is ascending canonical graph6.

Caps keep runs at desk scale: regular classes to n = 10 (12 with override),
edge-count sweeps to n = 8 (9 with override). The canonical form itself is
hard-capped at n = 16.
"""

from __future__ import annotations

import json
import multiprocessing
import os
from dataclasses import dataclass
from itertools import combinations
from typing import Callable, Iterator, Sequence

from .errors import CapsExceededError, UnsupportedSizeError
from .graphs import Graph, degree_info, to_graph6
from .linalg import laplacian, trace_powers
from .sequences import nu

CANONICAL_HARD_CAP = 16

_REGULAR_DEFAULT_N = 10
_REGULAR_OVERRIDE_N = 12
_EDGES_DEFAULT_N = 8
_EDGES_OVERRIDE_N = 9


@dataclass(frozen=True)
class Caps:
    override: bool = False

    @property
    def regular_limit(self) -> int:
        return _REGULAR_OVERRIDE_N if self.override else _REGULAR_DEFAULT_N

    @property
    def edges_limit(self) -> int:
        return _EDGES_OVERRIDE_N if self.override else _EDGES_DEFAULT_N


@dataclass(frozen=True)
class GraphClassSpec:
    kind: str  # "regular" or "edges"
    n: int
    d: int | None = None
    m: int | None = None

    def to_dict(self) -> dict:
        out = {"kind": self.kind, "n": self.n}
        if self.d is not None:
            out["d"] = self.d
        if self.m is not None:
            out["m"] = self.m
        return out


class IsoClassStream:
    """Materialized class members, canonical representatives, sorted."""

    def __init__(self, spec: GraphClassSpec, graphs: list[Graph], warning: str | None = None):
        self.spec = spec
        self.graphs = graphs
        self.warning = warning

    def __iter__(self) -> Iterator[Graph]:
        return iter(self.graphs)

    def __len__(self) -> int:
        return len(self.graphs)


# ---------------------------------------------------------------------------
# canonical form: row-major adjacency code, maximal over relabelings

def _row_vals(n: int, adj: Sequence[int]) -> list[int]:
    return [sum((adj[i] >> j & 1) << (n - 1 - j) for j in range(i + 1, n))
            for i in range(n)]


def canonical_relabel(g: Graph) -> Graph:
    """The relabeling of g with the largest row-major code.

    Enumerator members are fixed points. The search is the one `_beaten`
    runs: the next label goes to a vertex of the first cell, its neighbours
    are packed first inside each cell and ties refine the cells. Only the
    candidates with the largest row value go deeper, twins (adjacent or not)
    are tried once, and a prefix below the best complete code is dropped. A
    leaf equal to the best one differs from it by an automorphism fixing
    their common prefix, so the search backs up to where their paths part.
    """
    n = g.n
    if n > CANONICAL_HARD_CAP:
        raise UnsupportedSizeError(f"canonical form capped at {CANONICAL_HARD_CAP} vertices")
    adj = g.rows
    best_code: tuple = ()
    best_path: tuple = ()

    def dfs(cells: list[list[int]], code: tuple, path: tuple) -> int:
        # returns the level to go on from: n carries on, less backs up
        nonlocal best_code, best_path
        level = len(path)
        if level == n:
            if code == best_code:
                return next(i for i in range(n) if path[i] != best_path[i])
            best_code, best_path = code, path
            return n
        options = []
        reps: list[int] = []
        for v in cells[0]:
            if any((adj[u] ^ adj[v]) & ~((1 << u) | (1 << v)) == 0 for u in reps):
                continue
            reps.append(v)
            row = adj[v]
            val = 0
            split: list[list[int]] = []
            for cell in cells:
                nb, rest = [], []
                for w in cell:
                    if w == v:
                        continue
                    (nb if row >> w & 1 else rest).append(w)
                val = (val << (len(nb) + len(rest))) | (((1 << len(nb)) - 1) << len(rest))
                if nb:
                    split.append(nb)
                if rest:
                    split.append(rest)
            options.append((val, v, split))
        top = max(val for val, _, _ in options)
        code += (top,)
        if code < best_code[:level + 1]:
            return n
        for val, v, split in options:
            if val == top:
                back = dfs(split, code, path + (v,))
                if back < level:
                    return back
        return n

    dfs([list(range(n))], (), ())
    perm = [0] * n
    for new, old in enumerate(best_path):
        perm[old] = new
    return g.relabel(perm)


def canonical_form(g: Graph) -> str:
    """Relabeling-invariant key: graph6 of the largest-code relabeling."""
    return to_graph6(canonical_relabel(g))


def are_isomorphic(g: Graph, h: Graph) -> bool:
    return g.n == h.n and g.m == h.m and canonical_form(g) == canonical_form(h)


def _beaten(n: int, adj: Sequence[int], rowvals: Sequence[int], depth: int,
            candidate_cap: int) -> bool:
    """Does some relabeling give a strictly larger row-code prefix?

    Compares rows 0..depth-1 only, drawing adversary vertices below
    candidate_cap (pass n for a complete graph). Cells hold the vertices not
    yet assigned a new label; packing neighbors first inside each cell is the
    best the adversary can do at a row, ties refine the cells.
    """

    def dfs(level: int, cells: list[list[int]]) -> bool:
        if level == depth:
            return False
        target = rowvals[level]
        seen = set()
        for v in cells[0]:
            if v >= candidate_cap:
                continue
            key = adj[v] | (1 << v)
            if key in seen:
                continue
            seen.add(key)
            row = adj[v]
            val = 0
            split: list[list[int]] = []
            for ci, cell in enumerate(cells):
                nb, rest = [], []
                for w in cell:
                    if w == v:
                        continue
                    (nb if row >> w & 1 else rest).append(w)
                val = (val << (len(nb) + len(rest))) | (((1 << len(nb)) - 1) << len(rest))
                if nb:
                    split.append(nb)
                if rest:
                    split.append(rest)
            if val > target:
                return True
            if val == target and dfs(level + 1, split):
                return True
        return False

    return dfs(0, [list(range(n))])


def _is_row_canonical(n: int, adj: Sequence[int]) -> bool:
    return not _beaten(n, adj, _row_vals(n, adj), n, n)


# ---------------------------------------------------------------------------
# fixed edge count: orderly edge augmentation

def _positions(n: int) -> list[tuple[int, int]]:
    return [(i, j) for i in range(n) for j in range(i + 1, n)]


def _edges_children(n: int, adj: tuple[int, ...], last: int, npos: int,
                    positions, remaining: int):
    out = []
    for p in range(last + 1, npos - remaining + 1):
        i, j = positions[p]
        child = list(adj)
        child[i] |= 1 << j
        child[j] |= 1 << i
        child_t = tuple(child)
        if _is_row_canonical(n, child_t):
            out.append((child_t, p))
    return out


def _edges_dfs(n: int, m: int, adj: tuple[int, ...], last: int, edges: int,
               positions, npos: int, sink: list):
    if edges == m:
        sink.append(adj)
        return
    for child, p in _edges_children(n, adj, last, npos, positions, m - edges):
        _edges_dfs(n, m, child, p, edges + 1, positions, npos, sink)


def _edges_states(n: int, m: int, depth: int):
    """(adj, last, edges) frontier after `depth` augmentations."""
    positions = _positions(n)
    npos = len(positions)
    states = [((0,) * n, -1, 0)]
    for _ in range(depth):
        nxt = []
        for adj, last, edges in states:
            for child, p in _edges_children(n, adj, last, npos, positions, m - edges):
                nxt.append((child, p, edges + 1))
        states = nxt
    return states


def _edges_worker(args):
    n, m, adj, last, edges = args
    positions = _positions(n)
    sink: list = []
    _edges_dfs(n, m, adj, last, edges, positions, len(positions), sink)
    return sink


# ---------------------------------------------------------------------------
# regular: row completion over packed cells

def _erdos_gallai(seq: list[int]) -> bool:
    """Is seq realizable as a degree sequence (Erdos-Gallai)?"""
    s = sorted(seq, reverse=True)
    if any(x < 0 for x in s):
        return False
    if sum(s) % 2:
        return False
    p = len(s)
    if s and s[0] > p - 1:
        return False
    prefix = 0
    for k in range(1, p + 1):
        prefix += s[k - 1]
        tail = sum(min(x, k) for x in s[k:])
        if prefix > k * (k - 1) + tail:
            return False
    return True


def _compositions(limits: list[int], total: int):
    """All tuples 0 <= a_i <= limits[i] with sum total."""
    out: list[tuple[int, ...]] = []

    def rec(i: int, left: int, acc: tuple[int, ...]):
        if i == len(limits):
            if left == 0:
                out.append(acc)
            return
        tail = sum(limits[i:])
        if left > tail:
            return
        for a in range(min(limits[i], left), -1, -1):
            rec(i + 1, left - a, acc + (a,))

    rec(0, total, ())
    return out


def _regular_children(n: int, d: int, k: int, adj: tuple[int, ...],
                      cells: tuple[tuple[int, int, int], ...]):
    """Expand row k. cells: (lo, hi, residual) intervals over k..n-1."""
    # vertex k fronts the first cell; peel it off
    if not cells or cells[0][0] != k:
        raise AssertionError("cell bookkeeping broke")
    lo, hi, r = cells[0]
    delta = r
    rest = cells[1:] if hi == k else ((k + 1, hi, r),) + cells[1:]
    limits = [hi_ - lo_ + 1 if r_ > 0 else 0 for lo_, hi_, r_ in rest]
    out = []
    for counts in _compositions(limits, delta):
        mask = 0
        new_cells = []
        feasible = True
        for (lo_, hi_, r_), a in zip(rest, counts):
            if a:
                mask |= ((1 << a) - 1) << lo_
                new_cells.append((lo_, lo_ + a - 1, r_ - 1))
            if lo_ + a <= hi_:
                new_cells.append((lo_ + a, hi_, r_))
        residuals = []
        future = n - k - 1
        for lo_, hi_, r_ in new_cells:
            if r_ > max(future - 1, 0):
                feasible = False
                break
            residuals.extend([r_] * (hi_ - lo_ + 1))
        if not feasible or not _erdos_gallai(residuals):
            continue
        child = list(adj)
        child[k] |= mask
        v = mask
        w = 0
        while v:
            if v & 1:
                child[w] |= 1 << k
            v >>= 1
            w += 1
        child_t = tuple(child)
        rowvals = _row_vals(n, child_t)
        if _beaten(n, child_t, rowvals, k + 1, k + 1):
            continue
        out.append((child_t, tuple(new_cells)))
    return out


def _regular_dfs(n: int, d: int, k: int, adj: tuple[int, ...],
                 cells: tuple[tuple[int, int, int], ...], sink: list):
    if k == n:
        if _is_row_canonical(n, adj):
            sink.append(adj)
        return
    for child, new_cells in _regular_children(n, d, k, adj, cells):
        _regular_dfs(n, d, k + 1, child, new_cells, sink)


def _regular_states(n: int, d: int, depth: int):
    states = [(0, (0,) * n, ((0, n - 1, d),))]
    for _ in range(depth):
        nxt = []
        for k, adj, cells in states:
            if k == n:
                nxt.append((k, adj, cells))
                continue
            for child, new_cells in _regular_children(n, d, k, adj, cells):
                nxt.append((k + 1, child, new_cells))
        states = nxt
    return states


def _regular_worker(args):
    n, d, k, adj, cells = args
    sink: list = []
    _regular_dfs(n, d, k, adj, cells, sink)
    return sink


# ---------------------------------------------------------------------------
# drivers

def _run_partitioned(tasks: list, worker: Callable, workers: int) -> Iterator[list]:
    """Map worker over search-tree tasks, yielding results in task order as they land."""
    if workers <= 1 or len(tasks) <= 1:
        yield from map(worker, tasks)
    else:
        with multiprocessing.Pool(workers) as pool:
            yield from pool.imap(worker, tasks, chunksize=1)


def _class_tasks(spec: GraphClassSpec, caps: Caps) -> tuple[list, Callable, str | None]:
    """Check a class spec against its ranges and caps, then split its search:
    (subtree tasks, in an order that never depends on the worker count, the
    worker expanding one task into labeled members, empty-class warning)."""
    n, d, m = spec.n, spec.d, spec.m
    override = " (override active)" if caps.override else ""
    if spec.kind == "regular":
        if n < 1 or d is None or not 0 <= d <= n - 1:
            raise ValueError(f"need n >= 1 and 0 <= d <= n-1, got n={n} d={d}")
        if n > caps.regular_limit:
            raise CapsExceededError(f"regular enumeration capped at n = {caps.regular_limit}"
                                    f"{override}, requested n = {n}")
        if (n * d) % 2:
            return [], _regular_worker, "odd degree sum: class is empty"
        depth = 2 if n >= 8 else 1
        return ([(n, d, k, adj, cells) for k, adj, cells in _regular_states(n, d, depth)],
                _regular_worker, None)
    if spec.kind == "edges":
        maxm = n * (n - 1) // 2
        if n < 1 or m is None or not 0 <= m <= maxm:
            raise ValueError(f"need n >= 1 and 0 <= m <= {maxm}, got n={n} m={m}")
        if n > caps.edges_limit:
            raise CapsExceededError(f"edge-count enumeration capped at n = {caps.edges_limit}"
                                    f"{override}, requested n = {n}")
        return ([(n, m, adj, last, edges) for adj, last, edges in _edges_states(n, m, min(m, 3))],
                _edges_worker, None)
    raise ValueError(f"unknown class kind {spec.kind!r}")


def _enumerate(spec: GraphClassSpec, caps: Caps | None, workers: int) -> IsoClassStream:
    tasks, worker, warning = _class_tasks(spec, caps or Caps())
    # generator output is canonical already
    graphs = [Graph(spec.n, adj) for labeled in _run_partitioned(tasks, worker, workers)
              for adj in labeled]
    graphs.sort(key=to_graph6)
    return IsoClassStream(spec, graphs, warning)


def enumerate_regular(n: int, d: int, caps: Caps | None = None,
                      workers: int = 1) -> IsoClassStream:
    """All d-regular graphs on n vertices up to isomorphism.

    Odd n*d is not an error: the stream is empty and carries a parity
    warning flag.
    """
    return _enumerate(GraphClassSpec("regular", n, d=d), caps, workers)


def enumerate_by_edges(n: int, m: int, caps: Caps | None = None,
                       workers: int = 1) -> IsoClassStream:
    """All graphs on n vertices with exactly m edges, up to isomorphism."""
    return _enumerate(GraphClassSpec("edges", n, m=m), caps, workers)


def enumerate_almost_regular(n: int, m: int, caps: Caps | None = None,
                             workers: int = 1) -> list[Graph]:
    """Members of the edge-count class whose degrees span at most two adjacent values."""
    stream = enumerate_by_edges(n, m, caps, workers)
    return [g for g in stream if degree_info(g).is_almost_regular]


def ladder_level(n: int, m: int, k: int, caps: Caps | None = None,
                 workers: int = 1) -> list[Graph]:
    """Iterated minimizers: level 1 is the whole class, level j+1 keeps the
    members minimizing the (j+1)-th Laplacian trace among level j."""
    if k < 1:
        raise ValueError("ladder level starts at 1")
    survivors = list(enumerate_by_edges(n, m, caps, workers))
    for j in range(2, k + 1):
        if not survivors:
            break
        vals = [trace_powers(laplacian(g), j)[-1] for g in survivors]
        lo = min(vals)
        survivors = [g for g, v in zip(survivors, vals) if v == lo]
    return survivors


def nu_min_set(n: int, m: int, caps: Caps | None = None,
               workers: int = 1) -> list[Graph]:
    """Minimizers of the induced-path count among almost-regular members."""
    pool = enumerate_almost_regular(n, m, caps, workers)
    if not pool:
        return []
    vals = [nu(g) for g in pool]
    lo = min(vals)
    return [g for g, v in zip(pool, vals) if v == lo]


def tau_min(n: int, d: int, caps: Caps | None = None,
            workers: int = 1) -> tuple[int | None, list[Graph]]:
    """Least triangle count over the regular class, with all witnesses.

    Empty class (odd parity) gives (None, [])."""
    from .graphs import count_triangles

    stream = enumerate_regular(n, d, caps, workers)
    if not stream.graphs:
        return None, []
    vals = [count_triangles(g) for g in stream]
    lo = min(vals)
    return lo, [g for g, v in zip(stream.graphs, vals) if v == lo]


# ---------------------------------------------------------------------------
# spooling with a resumable checkpoint

def _resume(ck_path: str, header: dict, ntasks: int) -> dict[int, list[str]]:
    """Finished tasks in the checkpoint an interrupted run left behind.

    A final record without its newline was cut off mid-write: it is dropped
    and its task runs again. A checkpoint for another class, or with any
    other unreadable line, is discarded. The file is cut back to the lines
    kept, which leaves it empty when none are.
    """
    try:
        with open(ck_path, "rb") as fh:
            lines = fh.read().split(b"\n")[:-1]  # what follows the last newline is torn
    except FileNotFoundError:
        return {}
    done: dict[int, list[str]] = {}
    try:
        if lines and json.loads(lines[0]) != header:
            raise ValueError("checkpoint of another class")
        for ln in lines[1:]:
            rec = json.loads(ln)
            task, forms = rec["task"], rec["graphs"]
            # forms must be a sorted list of strings
            if type(task) is not int or not 0 <= task < ntasks or forms != sorted(map(str, forms)):
                raise ValueError("bad checkpoint record")
            done[task] = forms
    except (KeyError, TypeError, ValueError):
        done, lines = {}, []
    with open(ck_path, "r+b") as fh:
        fh.truncate(sum(len(ln) + 1 for ln in lines))
    return done


def spool_class(spec: GraphClassSpec, path: str, caps: Caps | None = None,
                workers: int = 1) -> int:
    """Write one canonical graph6 line per class member to `path`.

    Work is split into subtree tasks; finished tasks land in
    `path.checkpoint` as they complete, so a rerun after an interruption
    only runs what is missing. Returns the class size.
    """
    tasks, worker, _ = _class_tasks(spec, caps or Caps())
    ck_path = path + ".checkpoint"
    header = {"spec": spec.to_dict(), "tasks": len(tasks)}
    done = _resume(ck_path, header, len(tasks))

    with open(ck_path, "a") as ck:
        if os.path.getsize(ck_path) == 0:
            ck.write(json.dumps(header, sort_keys=True) + "\n")
            ck.flush()
        pending = [i for i in range(len(tasks)) if i not in done]
        results = _run_partitioned([tasks[i] for i in pending], worker, workers)
        for i, labeled in zip(pending, results, strict=True):
            # write as soon as a task lands so interruptions lose only it
            forms = sorted(to_graph6(Graph(spec.n, adj)) for adj in labeled)
            done[i] = forms
            ck.write(json.dumps({"task": i, "graphs": forms}, sort_keys=True) + "\n")
            ck.flush()

    forms = sorted(f for chunk in done.values() for f in chunk)
    with open(path, "w") as fh:
        for f in forms:
            fh.write(f + "\n")
    os.remove(ck_path)
    return len(forms)
