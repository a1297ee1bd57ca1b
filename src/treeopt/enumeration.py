"""Isomorph-free enumeration of small graph classes, exact at desk scale.

One canonical convention serves the whole package: the row-major adjacency
code, maximal over relabelings (row i holds the bits ij for j > i, j = i+1
first, and codes compare row by row). Two orderly generators emit exactly
the relabelings that attain it: fixed edge count classes grow edge by edge,
regular classes grow row by row with packed cells. Each isomorphism class is
produced once, already in canonical form, so members need no post-hoc
isomorphism filtering or relabeling; `canonical_relabel` maps outside input
to the same form. Public emission order is ascending canonical graph6.

Both the generators' canonicity test (`_beaten`) and `canonical_relabel`
search relabelings over ordered cells held as int bitmasks, count
neighbours in a cell with `int.bit_count`, and try twins of either kind
(vertices with equal open or equal closed neighbourhoods) once.

Caps keep runs at desk scale: regular classes to n = 10 (12 with override),
edge-count sweeps to n = 8 (9 with override). The canonical form itself is
hard-capped at n = 16.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import signal
from dataclasses import dataclass
from typing import Callable, Iterator, Sequence

from .errors import CapsExceededError, UnsupportedSizeError
from .graphs import Graph, degree_info, to_graph6
from .sequences import LAPLACIAN, nu, select_lex_minima

CANONICAL_HARD_CAP = 16
CHECKPOINT_SUFFIX = ".checkpoint"

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
    runs, on the same int bitmask cells: the next label goes to a vertex of
    the first cell, its neighbours are packed first inside each cell and
    ties refine the cells. Only the candidates with the largest row value go
    deeper, twins of either kind (equal open or equal closed
    neighbourhoods) are tried once, and a prefix below the best complete
    code is dropped. A leaf equal to the best one differs from it by an
    automorphism fixing their common prefix, so the search backs up to
    where their paths part.
    """
    n = g.n
    if n > CANONICAL_HARD_CAP:
        raise UnsupportedSizeError(f"canonical form capped at {CANONICAL_HARD_CAP} vertices")
    adj = g.rows
    best_code: tuple = ()
    best_path: tuple = ()

    def dfs(cells: list[int], code: tuple, path: tuple) -> int:
        # returns the level to go on from: n carries on, less backs up
        nonlocal best_code, best_path
        level = len(path)
        if level == n:
            if code == best_code:
                return next(i for i in range(n) if path[i] != best_path[i])
            best_code, best_path = code, path
            return n
        options = []
        seen = set()
        pool = cells[0]
        while pool:
            bit = pool & -pool
            pool ^= bit
            row = adj[bit.bit_length() - 1]
            closed = ~(row | bit)
            if row in seen or closed in seen:
                continue
            seen.add(row)
            seen.add(closed)
            val = 0
            for cell in cells:
                cell &= ~bit
                size = cell.bit_count()
                k = (cell & row).bit_count()
                val = (val << size) | (((1 << k) - 1) << (size - k))
            options.append((val, bit))
        top = max(val for val, _ in options)
        code += (top,)
        if code < best_code[:level + 1]:
            return n
        for val, bit in options:
            if val != top:
                continue
            v = bit.bit_length() - 1
            row = adj[v]
            split = []
            for cell in cells:
                cell &= ~bit
                nb = cell & row
                if nb:
                    split.append(nb)
                if cell ^ nb:
                    split.append(cell ^ nb)
            back = dfs(split, code, path + (v,))
            if back < level:
                return back
        return n

    dfs([(1 << n) - 1], (), ())
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
    candidate_cap (pass n for a complete graph). Cells are int bitmasks of
    the vertices not yet assigned a new label, in label order; packing
    neighbors first inside each cell is the best the adversary can do at a
    row, ties refine the cells. The target row, cut at the cells, asks for a
    number of neighbors in each cell, so a candidate is compared one cell at
    a time: it wins at the first cell where it has more, drops out at the
    first where it has fewer, and only a tie builds the refined cells.
    Twins of either kind (equal open or equal closed neighborhoods) are
    tried once: swapping two of them inside the first cell is an
    automorphism fixing the labeled prefix and every cell.
    """
    cap = (1 << candidate_cap) - 1
    stop = min(depth, n - 1)  # row n-1 is empty and always ties

    def discrete(level: int, cells: list[int]) -> bool:
        # singleton cells fix the rest of the labeling: compare its rows
        weight = [0] * n
        rest = 0
        for label, cell in enumerate(cells, level):
            weight[cell.bit_length() - 1] = 1 << (n - 1 - label)
            rest |= cell
        for label in range(level, stop):
            bit = cells[label - level]
            if not bit & cap:
                return False
            rest ^= bit
            nb = adj[bit.bit_length() - 1] & rest
            val = 0
            while nb:
                low = nb & -nb
                nb ^= low
                val |= weight[low.bit_length() - 1]
            if val != rowvals[label]:
                return val > rowvals[label]
        return False

    def dfs(level: int, cells: list[int]) -> bool:
        if level == stop:
            return False
        if len(cells) == n - level:
            return discrete(level, cells)
        target = rowvals[level]
        width = n - 1 - level
        # per cell: (cell, neighbors a tie needs, the target segment is 1..10..0)
        needs = []
        first = True
        for cell in cells:
            size = cell.bit_count() - first
            first = False
            width -= size
            holes = (target >> width & ((1 << size) - 1)) ^ ((1 << size) - 1)
            exact = holes & (holes + 1) == 0
            needs.append((cell, size - holes.bit_length(), exact))
            if not exact:
                break
        seen = set()
        pool = cells[0] & cap
        while pool:
            bit = pool & -pool
            pool ^= bit
            row = adj[bit.bit_length() - 1]
            for cell, need, exact in needs:
                k = (cell & row).bit_count()
                if k > need:
                    return True
                if k < need or not exact:
                    break
            else:
                # a twin compares the same, so the check waits for a tie
                closed = ~(row | bit)
                if row in seen or closed in seen:
                    continue
                seen.add(row)
                seen.add(closed)
                split = []
                for cell in cells:
                    cell &= ~bit
                    nb = cell & row
                    if nb:
                        split.append(nb)
                    if cell ^ nb:
                        split.append(cell ^ nb)
                if dfs(level + 1, split):
                    return True
        return False

    return dfs(0, [(1 << n) - 1])


def _is_row_canonical(n: int, adj: Sequence[int]) -> bool:
    return not _beaten(n, adj, _row_vals(n, adj), n, n)


# ---------------------------------------------------------------------------
# fixed edge count: orderly edge augmentation

def _positions(n: int) -> list[tuple[int, int]]:
    return [(i, j) for i in range(n) for j in range(i + 1, n)]


def _edges_children(n: int, adj: tuple[int, ...], rows: tuple[int, ...], last: int,
                    npos: int, positions, remaining: int):
    """Canonical children adding one edge after position `last`; adding ij
    (i < j) changes row i of the row code alone."""
    out = []
    for p in range(last + 1, npos - remaining + 1):
        i, j = positions[p]
        child = list(adj)
        child[i] |= 1 << j
        child[j] |= 1 << i
        child_rows = list(rows)
        child_rows[i] |= 1 << (n - 1 - j)
        if not _beaten(n, child, child_rows, n, n):
            out.append((tuple(child), tuple(child_rows), p))
    return out


def _edges_dfs(n: int, m: int, adj: tuple[int, ...], rows: tuple[int, ...], last: int,
               edges: int, positions, npos: int, sink: list):
    if edges == m:
        sink.append(adj)
        return
    for child, child_rows, p in _edges_children(n, adj, rows, last, npos, positions, m - edges):
        _edges_dfs(n, m, child, child_rows, p, edges + 1, positions, npos, sink)


def _edges_states(n: int, m: int, depth: int):
    """(adj, row code, last, edges) frontier after `depth` augmentations."""
    positions = _positions(n)
    npos = len(positions)
    states = [((0,) * n, (0,) * n, -1, 0)]
    for _ in range(depth):
        nxt = []
        for adj, rows, last, edges in states:
            for child, child_rows, p in _edges_children(n, adj, rows, last, npos, positions,
                                                        m - edges):
                nxt.append((child, child_rows, p, edges + 1))
        states = nxt
    return states


def _edges_worker(args):
    n, m, adj, rows, last, edges = args
    positions = _positions(n)
    sink: list = []
    _edges_dfs(n, m, adj, rows, last, edges, positions, len(positions), sink)
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


def _regular_children(n: int, d: int, k: int, adj: tuple[int, ...], rows: tuple[int, ...],
                      cells: tuple[tuple[int, int, int], ...]):
    """Expand row k. rows: row code values of rows 0..k-1; cells: (lo, hi,
    residual) intervals over k..n-1."""
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
        row = 0
        new_cells = []
        feasible = True
        for (lo_, hi_, r_), a in zip(rest, counts):
            if a:
                mask |= ((1 << a) - 1) << lo_
                row |= ((1 << a) - 1) << (n - lo_ - a)
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
        child_rows = rows + (row,)
        # row k = n-1 makes the graph whole: this is the full canonicity test
        if _beaten(n, child, child_rows, k + 1, k + 1):
            continue
        out.append((tuple(child), child_rows, tuple(new_cells)))
    return out


def _regular_dfs(n: int, d: int, k: int, adj: tuple[int, ...], rows: tuple[int, ...],
                 cells: tuple[tuple[int, int, int], ...], sink: list):
    if k == n:
        sink.append(adj)
        return
    for child, child_rows, new_cells in _regular_children(n, d, k, adj, rows, cells):
        _regular_dfs(n, d, k + 1, child, child_rows, new_cells, sink)


def _regular_states(n: int, d: int, depth: int):
    states = [(0, (0,) * n, (), ((0, n - 1, d),))]
    for _ in range(depth):
        nxt = []
        for k, adj, rows, cells in states:
            if k == n:
                nxt.append((k, adj, rows, cells))
                continue
            for child, child_rows, new_cells in _regular_children(n, d, k, adj, rows, cells):
                nxt.append((k + 1, child, child_rows, new_cells))
        states = nxt
    return states


def _regular_worker(args):
    n, d, k, adj, rows, cells = args
    sink: list = []
    _regular_dfs(n, d, k, adj, rows, cells, sink)
    return sink


# ---------------------------------------------------------------------------
# drivers

def _run_partitioned(tasks: list, worker: Callable, workers: int) -> Iterator[list]:
    """Map worker over search-tree tasks, yielding results in task order as they land.

    Pool workers ignore SIGINT: Ctrl-C interrupts the parent alone, and
    leaving the pool terminates them.
    """
    if workers <= 1 or len(tasks) <= 1:
        yield from map(worker, tasks)
    else:
        with multiprocessing.Pool(workers, signal.signal, (signal.SIGINT, signal.SIG_IGN)) as pool:
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
        return ([(n, d, *state) for state in _regular_states(n, d, depth)],
                _regular_worker, None)
    if spec.kind == "edges":
        maxm = n * (n - 1) // 2
        if n < 1 or m is None or not 0 <= m <= maxm:
            raise ValueError(f"need n >= 1 and 0 <= m <= {maxm}, got n={n} m={m}")
        if n > caps.edges_limit:
            raise CapsExceededError(f"edge-count enumeration capped at n = {caps.edges_limit}"
                                    f"{override}, requested n = {n}")
        return ([(n, m, *state) for state in _edges_states(n, m, min(m, 3))],
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
    members minimizing the (j+1)-th Laplacian trace among level j. The first
    trace is 2m throughout, so level k is the class's lex minima at cutoff k."""
    return select_lex_minima(enumerate_by_edges(n, m, caps, workers), LAPLACIAN, k)[0]


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
    only runs what is missing. The output goes to `path.tmp`, is synced and
    then renamed onto `path`, and only after that is the checkpoint removed:
    `path` holds either its old bytes or the whole class. Returns the class
    size. A path in a missing directory raises ValueError before any work.
    """
    folder = os.path.dirname(path) or "."
    if not os.path.isdir(folder):
        raise ValueError(f"output directory {folder} does not exist")
    tasks, worker, _ = _class_tasks(spec, caps or Caps())
    ck_path = path + CHECKPOINT_SUFFIX
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
    tmp = path + ".tmp"
    with open(tmp, "w") as fh:
        fh.writelines(f + "\n" for f in forms)
        fh.flush()
        os.fsync(fh.fileno())
    os.replace(tmp, path)
    os.remove(ck_path)
    return len(forms)
