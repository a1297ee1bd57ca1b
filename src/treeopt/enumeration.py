"""Isomorph-free enumeration of small graph classes, exact at desk scale.

One canonical convention serves the whole package: the row-major adjacency
code, maximal over relabelings (row i holds the bits ij for j > i, j = i+1
first, and codes compare row by row). One orderly generator emits exactly
the relabelings that attain it: Read's scheme with rows as the augmentation
step, as in Faradzev's generator. It fills the adjacency matrix row by row,
packing each row into the cells of vertices with equal adjacency to the rows
before. Regular and fixed edge count classes differ only in the rule that
keeps a partial graph completable. Each isomorphism class is produced once,
already in canonical form, so members need no post-hoc isomorphism
filtering or relabeling; `canonical_relabel` maps outside input to the same
form. Public emission order is ascending canonical graph6.

Both the generator's canonicity test (`_row_search`) and `canonical_relabel`
search relabelings over ordered cells held as int bitmasks, count
neighbours in a cell with `int.bit_count`, and try twins of either kind
(vertices with equal open or equal closed neighbourhoods) once. The
generator carries each child's search on from its parent's instead of
starting it again.

A class's search is split into subtree tasks by a rule blind to the worker
count. One task loop (`_run_partitioned`) serves every worker count: at
more than one worker, forked children and the calling process claim the
tasks from one pipe, with no `multiprocessing` pool; at one worker, or
where `os.fork` is absent, no child is forked and the calling process
claims every task itself. Results come back as they land, and every caller
sorts them, so no output depends on the worker count.

Size caps keep runs at desk scale: regular classes to n = 12, edge-count
sweeps to n = 9. The canonical form itself is hard-capped at n = 16.
"""

from __future__ import annotations

import json
import os
from collections import namedtuple
from typing import Callable, Iterator, Sequence

from .errors import CapsExceededError, InternalConsistencyError, UnsupportedSizeError
from .graphs import Graph, count_induced_p3, count_triangles, degree_info, to_graph6
from .sequences import LAPLACIAN, select_lex_minima

CANONICAL_HARD_CAP = 16
CHECKPOINT_SUFFIX = ".checkpoint"

_REGULAR_CAP = 12
_EDGES_CAP = 9

Row = Callable[[Graph], object]  # a member's sortable, picklable row


class GraphClassSpec(namedtuple("GraphClassSpec", "kind n d m", defaults=(None, None))):
    """kind "regular" with degree d, or "edges" with edge count m, on n vertices."""

    __slots__ = ()

    def to_dict(self) -> dict:
        return {k: v for k, v in self._asdict().items() if v is not None}

    @property
    def warning(self) -> str | None:
        """Why the class is empty, when its parameters alone say so."""
        if self.kind == "regular" and self.d is not None and self.n * self.d % 2:
            return "odd degree sum: class is empty"
        return None


# ---------------------------------------------------------------------------
# canonical form: row-major adjacency code, maximal over relabelings

def canonical_relabel(g: Graph) -> Graph:
    """The relabeling of g with the largest row-major code.

    Enumerator members are fixed points. The search is the one `_row_search`
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
    best = [(), ()]
    _canonical_search(g.rows, [(1 << n) - 1], (), (), best)
    perm = [0] * n
    for new, old in enumerate(best[1]):
        perm[old] = new
    return g.relabel(perm)


def _canonical_search(adj: Sequence[int], cells: list[int], code: tuple, path: tuple,
                      best: list) -> int:
    """One node of `canonical_relabel`'s search, below the labels `path`
    whose rows give `code`; `best` holds the best complete code and its
    path so far. Returns the level to go on from: n carries on, less backs up."""
    n = len(adj)
    level = len(path)
    if level == n:
        if code == best[0]:
            return next(i for i in range(n) if path[i] != best[1][i])
        best[:] = code, path
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
    if code < best[0][:level + 1]:
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
        back = _canonical_search(adj, split, code, path + (v,), best)
        if back < level:
            return back
    return n


def canonical_form(g: Graph) -> str:
    """Relabeling-invariant key: graph6 of the largest-code relabeling."""
    return to_graph6(canonical_relabel(g))


# ---------------------------------------------------------------------------
# orderly generation: row completion over packed cells

def _row_search(n: int, adj: Sequence[int], rowvals: Sequence[int], k: int,
                record: list) -> list | None:
    """The generator's canonicity check of row k, carried on from `record`:
    does a relabeling beat the row code first at some row L <= k, giving
    labels 0..L to vertices 0..k? Returns None if one does, else the
    record of this search.

    The search runs over cells, int bitmasks of the vertices not yet
    labeled, in label order. Packing neighbours first inside each cell is
    the best a relabeling can do at a row, and ties refine the cells. The
    target row, cut at the cells, asks for a number of neighbours in each
    cell, so a candidate is compared one cell at a time: it wins at the
    first cell where it has more, drops out at the first where it has
    fewer, and only a tie builds the refined cells. Twins of either kind
    (equal open or equal closed neighbourhoods) are tried once: swapping two
    of them inside the first cell is an automorphism fixing the labeled
    prefix and every cell. Singleton cells fix the rest of the labeling,
    whose rows are then compared directly.

    A record lists the nodes a later search must revisit: tied nodes whose
    first cell still holds a vertex above k, as (level, cells, needs, twin
    keys seen), and nodes where the search stopped at its depth or went
    discrete (from the first label not yet compared), as (level, cells,
    None, None). Before row 0 the record is the root alone, stopped at
    level 0.

    Given the record of row k-1's search, this search tries vertex k at
    every tied node whose first cell holds it, and resumes every stopped
    node. Rows 0..k-1 and the adjacency of vertices 0..k-1 are the same in
    parent and child, and vertex k is the largest candidate, so every node
    tries it last: the result is the search from the root, node for node.
    Row n-1 is empty and always ties, so row n-2's search is the whole
    graph's: vertex n-1 is a new candidate there too.
    """
    newest = 1 << k
    if k == n - 2:
        newest |= 1 << k + 1
    out: list = []
    search = (n, adj, rowvals, k + 1, (1 << newest.bit_length()) - 1, out)
    for level, cells, needs, seen in record:
        if _row_dfs(search, level, cells, needs, seen, cells[0] & newest):
            return None
    return out


def _row_dfs(search: tuple, level: int, cells: list[int], needs=None, seen=None,
             pool: int = 0) -> bool:
    """One node of `_row_search`'s search, which `search` holds as (n, adj,
    rowvals, stop, cap, out): is the row code beaten below it? A new node
    has `needs` None; a resumed one tries the candidates in `pool`."""
    n, adj, rowvals, stop, cap, out = search
    if needs is None:
        if level == stop:
            out.append((level, cells, None, None))
            return False
        if len(cells) == n - level:
            # singleton cells fix the rest of the labeling: compare its rows
            weight = [0] * n
            rest = 0
            for label, cell in enumerate(cells, level):
                weight[cell.bit_length() - 1] = 1 << (n - 1 - label)
                rest |= cell
            for label in range(level, stop):
                bit = cells[label - level]
                if not bit & cap:
                    break
                rest ^= bit
                nb = adj[bit.bit_length() - 1] & rest
                val = 0
                while nb:
                    low = nb & -nb
                    nb ^= low
                    val |= weight[low.bit_length() - 1]
                if val != rowvals[label]:
                    return val > rowvals[label]
            else:
                label = stop
            # labels level..label-1 tie: keep the rest as a discrete node at label
            out.append((label, cells[label - level:], None, None))
            return False
        target = rowvals[level]
        width = n - 1 - level
        # per cell: (cell, neighbours a tie needs). `_children` packs each
        # row into the first vertices of each of its cells, and on a tied
        # path the search's cells have those cells' sizes, so every target
        # segment is 1..10..0: its popcount is all a tie must match
        needs = []
        first = True
        for cell in cells:
            size = cell.bit_count() - first
            first = False
            width -= size
            needs.append((cell, (target >> width & ((1 << size) - 1)).bit_count()))
        seen = set()
        pool = cells[0] & cap
    elif pool:
        seen = set(seen)  # the record's copy stays as it was for the other children
    while pool:
        bit = pool & -pool
        pool ^= bit
        row = adj[bit.bit_length() - 1]
        for cell, need in needs:
            has = (cell & row).bit_count()
            if has > need:
                return True
            if has < need:
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
            if _row_dfs(search, level + 1, split):
                return True
    if cells[0] >> stop:
        out.append((level, cells, needs, seen))
    return False


def _erdos_gallai(pairs: list[tuple[int, int]]) -> bool:
    """Is the sequence holding `count` copies of each `value` of the
    (value, count) pairs a degree sequence (Erdos-Gallai)? The inequality
    need only hold where a run of equal values ends (Tripathi and Vijay
    2003), so it is tested once per pair."""
    pairs = sorted(pairs, reverse=True)
    if pairs and pairs[-1][0] < 0 or sum(v * c for v, c in pairs) % 2:
        return False
    prefix = k = 0
    for i, (value, count) in enumerate(pairs):
        prefix += value * count
        k += count
        if prefix > k * (k - 1) + sum(c * min(v, k) for v, c in pairs[i + 1:]):
            return False
    return True


def _children(n: int, k: int, adj: tuple[int, ...], rows: tuple[int, ...],
              cells: tuple[tuple[int, int, int], ...], left: int | None, record: list):
    """The canonical ways to fill row k, each as the state of row k+1.

    rows: row code values of rows 0..k-1; cells: (lo, hi, residual)
    intervals over k..n-1 of vertices with equal adjacency to 0..k-1, the
    residual being the degree cap less the degree so far; left: the edges
    still to place in an edge-count class, None in a regular class; record:
    that of the parent's canonicity search. Row k takes the first vertices
    of each cell: swapping a later neighbour with an earlier non-neighbour
    of one cell keeps rows 0..k-1 and raises row k, so a max-code graph
    packs its rows. Each child comes with the record of its own search.
    """
    _, hi, r = cells[0]  # vertex k fronts the first cell
    rest = cells[1:] if hi == k else ((k + 1, hi, r),) + cells[1:]
    future = n - k - 1
    if left is None:
        # regular: row k fills vertex k's residual, and the residuals left
        # must be a degree sequence on the vertices after k
        low = high = r
        need = 0
    else:
        # edge count: row 0 gives vertex 0 its whole degree, the top one,
        # which caps every degree. The vertices after k must have room for
        # the ends of the edges left, min(r_, future - 1) ends for one with
        # residual r_. Each neighbour row k takes places an edge, two ends,
        # and costs one end of room if its residual r_ < future: a gain of
        # w = 2 or 1 towards `need`, the ends of the edges left less the
        # room the vertices after k have before row k
        low, high = (r if k == 0 else 0), min(r, left)
        need = 2 * left
    # per cell of rest: the cell, the most neighbours row k takes there, w,
    # and what the cells after it can add (most neighbours, most gain)
    plan = []
    s_hi = s_w = 0
    for lo_, hi_, r_ in reversed(rest):
        a_hi = hi_ - lo_ + 1 if r_ else 0
        if left is None:
            w = 0
        else:
            need -= (hi_ - lo_ + 1) * min(r_, future - 1)
            w = 2 if r_ >= future else 1
        plan.append((lo_, hi_, r_, a_hi, w, s_hi, s_w))
        s_hi += a_hi
        s_w += w * a_hi
    # every way to fill row k, cell by cell, as (neighbours, gain, row k's
    # mask over the vertices, row k's code value, the cells it leaves); a
    # partial fill is cut once the cells after it cannot bring its size into
    # low..high or, each taking all it can, its gain up to `need`
    partial = [(0, 0, 0, 0, ())]
    for lo_, hi_, r_, a_hi, w, s_hi, s_w in reversed(plan):
        nxt = []
        for total, gain, mask, row, split in partial:
            top = high - total
            if top > a_hi:
                top = a_hi
            bottom = low - total - s_hi
            if bottom < 0:
                bottom = 0
            if w and bottom < (need - gain - s_w + w - 1) // w:
                bottom = (need - gain - s_w + w - 1) // w
            for a in range(top, bottom - 1, -1):
                ones = (1 << a) - 1
                if not a:
                    parts = ((lo_, hi_, r_),)
                elif a <= hi_ - lo_:
                    parts = ((lo_, lo_ + a - 1, r_ - 1), (lo_ + a, hi_, r_))
                else:
                    parts = ((lo_, hi_, r_ - 1),)
                nxt.append((total + a, gain + w * a, mask | ones << lo_,
                            row | ones << (n - lo_ - a), split + parts))
        partial = nxt
    bit = 1 << k
    out = []
    for total, _, mask, row, new_cells in partial:
        if left is None and not _erdos_gallai([(r_, hi_ - lo_ + 1)
                                               for lo_, hi_, r_ in new_cells]):
            continue
        child = list(adj)
        child[k] |= mask
        v = mask
        while v:
            low_bit = v & -v
            v ^= low_bit
            child[low_bit.bit_length() - 1] |= bit
        child_rows = rows + (row,)
        # row k = n-2 makes the graph whole: this is the full canonicity test
        child_record = _row_search(n, child, child_rows, k, record)
        if child_record is not None:
            out.append((k + 1, tuple(child), child_rows, new_cells,
                        None if left is None else left - total, child_record))
    return out


def _states(n: int, states: list, depth: int) -> list:
    """The states `depth` rows below `states`, each as (k, adj, rows,
    cells, left, record); a finished graph (k = n-1: the last row is
    empty) stays as it is."""
    for _ in range(depth):
        nxt = []
        for state in states:
            if state[0] == n - 1:
                nxt.append(state)
            else:
                nxt.extend(_children(n, *state))
        states = nxt
    return states


def _canonical_row(g: Graph) -> tuple[str, Graph]:
    return to_graph6(g), g


def _worker(task, row: Row = _canonical_row) -> list:
    """The sorted rows of the members below one task, n followed by a state:
    `row` of each member, labeled canonically. Depth first: the states
    waiting are the siblings along one path, not a whole row of the tree."""
    n, *state = task
    found: list = []
    stack = [state]
    while stack:
        state = stack.pop()
        if state[0] == n - 1:
            found.append(state[1])
        else:
            stack.extend(_children(n, *state))
    # rows are made once the search is done: making each as its member turns
    # up measured 5-8% slower at one worker
    return sorted(row(Graph(n, adj)) for adj in found)


# ---------------------------------------------------------------------------
# drivers

def _run_partitioned(tasks: list, workers: int, row: Row) -> Iterator[tuple[int, list]]:
    """`_worker` with `row` over search-tree tasks, yielding (task index,
    result) as each result lands.

    Every task index goes, as one byte, into one pipe in a single write
    before any fork, so each one-byte read claims a distinct task, and the
    pipe reads empty once all are claimed. `min(workers, len(tasks)) - 1`
    forked children and this process claim from it; at one worker, or
    without `os.fork`, no child is forked and this process claims every
    task. A child ignores SIGINT (Ctrl-C interrupts this process alone),
    runs the tasks it claims and writes each result as a length-prefixed
    pickled frame (index, ok, result or exception) to its own pipe, then
    leaves by `os._exit`. This process reads the frames that are ready after
    each of its own tasks; once none is left to claim, it waits on them. A
    child's exception is raised here; when two tasks fail, which exception
    surfaces depends on which lands first. A task that no child returns,
    because its child died or could not pickle the frame, raises
    InternalConsistencyError. Leaving early (an exception, Ctrl-C, closing
    the generator) kills the children; every child is reaped, so its CPU
    time counts towards this process's. Forking is safe only while this
    process runs no other thread; the CLI starts none.
    """
    if len(tasks) > 255:
        raise InternalConsistencyError(f"{len(tasks)} tasks do not fit in one-byte claims")
    children = max(0, min(workers, len(tasks)) - 1) if hasattr(os, "fork") else 0
    if children:
        import pickle
        import select
        import signal
    claims, claim_w = os.pipe()
    os.write(claim_w, bytes(range(len(tasks))))
    os.close(claim_w)
    pids: list[int] = []
    pending: dict[int, bytearray] = {}  # an open result pipe -> bytes not yet framed
    finished = False

    def receive(timeout: float | None) -> Iterator[tuple[int, list]]:
        # wait up to `timeout` for a frame or an end, then yield all that is ready
        while pending:
            ready, _, _ = select.select(list(pending), [], [], timeout)
            if not ready:
                return
            timeout = 0
            for fd in ready:
                data = os.read(fd, 1 << 16)
                if not data:  # the child has left
                    os.close(fd)
                    del pending[fd]
                    continue
                buf = pending[fd]
                buf += data
                while len(buf) >= 8:
                    size = 8 + int.from_bytes(buf[:8], "little")
                    if len(buf) < size:
                        break
                    index, ok, value = pickle.loads(buf[8:size])
                    del buf[:size]
                    if not ok:
                        raise value
                    yield index, value

    try:
        for _ in range(children):
            out, out_w = os.pipe()
            pid = os.fork()
            if pid == 0:
                try:
                    signal.signal(signal.SIGINT, signal.SIG_IGN)
                    for fd in (out, *pending):
                        os.close(fd)
                    while claim := os.read(claims, 1):
                        index = claim[0]
                        try:
                            frame = (index, True, _worker(tasks[index], row))
                        except Exception as e:
                            frame = (index, False, e)
                        data = pickle.dumps(frame)
                        data = memoryview(len(data).to_bytes(8, "little") + data)
                        while data:
                            data = data[os.write(out_w, data):]
                finally:
                    os._exit(0)
            pids.append(pid)
            os.close(out_w)
            pending[out] = bytearray()
        missing = set(range(len(tasks)))
        while missing:
            claim = os.read(claims, 1)
            if claim:
                missing.remove(claim[0])
                yield claim[0], _worker(tasks[claim[0]], row)
            elif not pending:
                raise InternalConsistencyError(f"task {min(missing)} was lost with its child")
            # with nothing left to claim, wait for the next frame
            for index, result in receive(0 if claim else None):
                missing.remove(index)
                yield index, result
        finished = True
    finally:
        os.close(claims)
        for fd in pending:
            os.close(fd)
        for pid in pids:
            if not finished:
                os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)


def _class_tasks(spec: GraphClassSpec) -> list:
    """Check a class spec against its ranges and caps, then split its search
    into subtree tasks for `_worker`, in an order that never depends on the
    worker count."""
    n, d, m = spec.n, spec.d, spec.m
    # the canonicity search before row 0: its root, stopped at level 0
    root = [(0, [(1 << n) - 1], None, None)]
    if spec.kind == "regular":
        if n < 1 or d is None or not 0 <= d <= n - 1:
            raise ValueError(f"need n >= 1 and 0 <= d <= n-1, got n={n} d={d}")
        if n > _REGULAR_CAP:
            raise CapsExceededError(f"regular enumeration capped at n = {_REGULAR_CAP}, "
                                    f"requested n = {n}")
        if spec.warning:
            return []
        roots = [(0, (0,) * n, (), ((0, n - 1, d),), None, root)]
    elif spec.kind == "edges":
        maxm = n * (n - 1) // 2
        if n < 1 or m is None or not 0 <= m <= maxm:
            raise ValueError(f"need n >= 1 and 0 <= m <= {maxm}, got n={n} m={m}")
        if n > _EDGES_CAP:
            raise CapsExceededError(f"edge-count enumeration capped at n = {_EDGES_CAP}, "
                                    f"requested n = {n}")
        # one root per degree of vertex 0, the top one: at least the mean 2m/n
        roots = [(0, (0,) * n, (), ((0, n - 1, top),), m, root)
                 for top in range(-(-2 * m // n), min(n - 1, m) + 1)]
    else:
        raise ValueError(f"unknown class kind {spec.kind!r}")
    # one rule for both kinds, blind to the worker count: checkpoint headers
    # and the task numbers in their records rest on it
    depth = 2 if n >= 8 else 1
    return [(n, *state) for state in _states(n, roots, depth)]


def enumerate_class(spec: GraphClassSpec, *, workers: int = 1, row: Row | None = None) -> list:
    """The class's members, canonical representatives in ascending graph6 order.

    Given `row`, the workers apply it to each member and the result is the
    members' rows in ascending order. Its rows must pickle: a forked child
    sends them back to the calling process.
    """
    tasks = _class_tasks(spec)
    # each task's rows come sorted: the sort only merges the runs
    rows = [r for _, chunk in _run_partitioned(tasks, workers, row or _canonical_row)
            for r in chunk]
    rows.sort()
    return rows if row else [g for _, g in rows]


def enumerate_regular(n: int, d: int, *, workers: int = 1) -> list[Graph]:
    """All d-regular graphs on n vertices up to isomorphism.

    Odd n*d is not an error: the class is empty, and its spec's `warning`
    says why.
    """
    return enumerate_class(GraphClassSpec("regular", n, d=d), workers=workers)


def enumerate_by_edges(n: int, m: int, *, workers: int = 1, row: Row | None = None) -> list:
    """All graphs on n vertices with exactly m edges, up to isomorphism; or,
    given `row`, their rows, as `enumerate_class` makes them."""
    return enumerate_class(GraphClassSpec("edges", n, m=m), workers=workers, row=row)


def enumerate_almost_regular(n: int, m: int, *, workers: int = 1) -> list[Graph]:
    """Members of the edge-count class whose degrees span at most two adjacent values."""
    return [g for g in enumerate_by_edges(n, m, workers=workers)
            if degree_info(g).is_almost_regular]


def ladder_level(n: int, m: int, k: int, *, workers: int = 1) -> list[Graph]:
    """Iterated minimizers: level 1 is the whole class, level j+1 keeps the
    members minimizing the (j+1)-th Laplacian trace among level j. The first
    trace is 2m throughout, so level k is the class's lex minima at cutoff k."""
    members = enumerate_by_edges(n, m, workers=workers)
    return select_lex_minima(members, LAPLACIAN, k)


def nu_min_set(n: int, m: int, *, workers: int = 1) -> list[Graph]:
    """Minimizers of the induced-path count among almost-regular members
    (every class in range has some)."""
    pool = enumerate_almost_regular(n, m, workers=workers)
    vals = [count_induced_p3(g) for g in pool]
    lo = min(vals)
    return [g for g, v in zip(pool, vals) if v == lo]


def tau_min(n: int, d: int, *, workers: int = 1) -> tuple[int | None, list[Graph]]:
    """Least triangle count over the regular class, with all witnesses.

    Empty class (odd parity) gives (None, [])."""
    members = enumerate_regular(n, d, workers=workers)
    if not members:
        return None, []
    vals = [count_triangles(g) for g in members]
    lo = min(vals)
    return lo, [g for g, v in zip(members, vals) if v == lo]


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


def spool_class(spec: GraphClassSpec, path: str, *, workers: int = 1) -> int:
    """Write one canonical graph6 line per class member to `path`.

    Work is split into subtree tasks; each task is written to
    `path.checkpoint` as it finishes, so a rerun after an interruption runs
    only the tasks not written yet. The output goes to
    `path.tmp`, is synced and then renamed onto `path`, and only after that
    is the checkpoint removed: `path` holds either its old bytes or the
    whole class. Returns the class size. A path in a missing directory, or
    naming a directory or any other file that is not a regular one (a FIFO,
    a device), raises ValueError before any work.
    """
    folder = os.path.dirname(path) or "."
    if not os.path.isdir(folder):
        raise ValueError(f"output directory {folder} does not exist")
    if os.path.isdir(path):
        raise ValueError(f"output path {path} is a directory")
    if os.path.exists(path) and not os.path.isfile(path):
        raise ValueError(f"output path {path} is not a regular file")
    tasks = _class_tasks(spec)
    ck_path = path + CHECKPOINT_SUFFIX
    header = {"spec": spec.to_dict(), "tasks": len(tasks)}
    done = _resume(ck_path, header, len(tasks))

    with open(ck_path, "a") as ck:
        if os.path.getsize(ck_path) == 0:
            ck.write(json.dumps(header, sort_keys=True) + "\n")
            ck.flush()
        pending = [i for i in range(len(tasks)) if i not in done]
        for j, forms in _run_partitioned([tasks[i] for i in pending], workers, to_graph6):
            done[pending[j]] = forms
            ck.write(json.dumps({"task": pending[j], "graphs": forms}, sort_keys=True) + "\n")
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
