import gc
import json
import math
import os
import pickle
import random
from collections import Counter
from itertools import permutations, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from treeopt import enumeration
from treeopt.certify import cmd_check_duality, cmd_report_class, cmd_verify_trace_minimal
from treeopt.errors import CapsExceededError, InternalConsistencyError, UnsupportedSizeError
from treeopt.graphs import (
    Graph,
    complement,
    complete_bipartite,
    complete_graph,
    cycle_graph,
    degree_info,
    disjoint_union,
    empty_graph,
    from_graph6,
    girth_and_cycles,
    is_connected,
    path_graph,
    to_graph6,
)
from treeopt.enumeration import (
    CANONICAL_HARD_CAP,
    GraphClassSpec,
    _class_tasks,
    _erdos_gallai,
    canonical_form,
    canonical_relabel,
    enumerate_almost_regular,
    enumerate_by_edges,
    enumerate_class,
    enumerate_regular,
    ladder_level,
    nu_min_set,
    spool_class,
    tau_min,
)

from conftest import (
    are_isomorphic,
    aut_size,
    burnside_counts,
    counting_fork,
    graph_from_mask,
    labeled_regular_count,
)


@st.composite
def small_graphs(draw, min_n=1, max_n=8):
    n = draw(st.integers(min_n, max_n))
    npairs = n * (n - 1) // 2
    return graph_from_mask(n, draw(st.integers(0, (1 << npairs) - 1)))


# ---------------------------------------------------------------------------
# canonical form

@settings(max_examples=120)
@given(small_graphs(), st.randoms(use_true_random=False))
def test_canonical_form_is_relabeling_invariant(g, rnd):
    perm = list(range(g.n))
    rnd.shuffle(perm)
    assert canonical_form(g.relabel(perm)) == canonical_form(g)


def test_canonical_relabel_is_a_relabeling():
    g = graph_from_mask(6, 0b10110101)
    canon = canonical_relabel(g)
    assert any(g.relabel(p) == canon for p in permutations(range(6)))


def test_canonical_form_separates_all_five_vertex_classes():
    # pairwise distinct forms, cross-checked by exhaustive permutation search
    classes = []
    for m in range(11):
        classes.extend(enumerate_by_edges(5, m))
    forms = [to_graph6(g) for g in classes]
    assert len(set(forms)) == len(forms)
    for i in range(0, len(classes), 5):
        for j in range(i + 1, min(i + 4, len(classes))):
            a, b = classes[i], classes[j]
            brute = any(a.relabel(p) == b for p in permutations(range(5)))
            assert are_isomorphic(a, b) == brute


def test_are_isomorphic():
    assert are_isomorphic(path_graph(4), path_graph(4).relabel([3, 1, 0, 2]))
    assert not are_isomorphic(path_graph(4), cycle_graph(4))
    assert not are_isomorphic(path_graph(4), path_graph(5))


def _row_code(g):
    return [sum((g.rows[i] >> j & 1) << (g.n - 1 - j) for j in range(i + 1, g.n))
            for i in range(g.n)]


@settings(max_examples=60)
@given(small_graphs(max_n=6))
def test_canonical_relabel_has_the_largest_row_code(g):
    # brute force over all n! relabelings
    best = max(_row_code(g.relabel(p)) for p in permutations(range(g.n)))
    assert _row_code(canonical_relabel(g)) == best


# ---------------------------------------------------------------------------
# the orderly generator's canonicity kernel against brute force

def _row_vals(n, adj):
    return [sum((adj[i] >> j & 1) << (n - 1 - j) for j in range(i + 1, n))
            for i in range(n)]


def _beaten(n, adj, rowvals, depth, candidate_cap):
    """Does some relabeling give a strictly larger row-code prefix?

    The oracle for `_row_search`: the same search run from the root, with
    no record to carry on from. The tests below check it against brute
    force.

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

    def discrete(level, cells):
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

    def dfs(level, cells):
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


def _is_row_canonical(n, adj):
    return not _beaten(n, adj, _row_vals(n, adj), n, n)


def _rows_under(n, rows, order):
    # row code of the relabeling that gives vertex order[t] the label t
    label = {v: t for t, v in enumerate(order)}
    return tuple(sum(1 << (n - 1 - label[u]) for u in order[t + 1:] if rows[v] >> u & 1)
                 for t, v in enumerate(order))


def _check_kernel(n, rows):
    """`_beaten` for every depth and candidate cap, and `_is_row_canonical`,
    against all n! relabelings. The kernel is beaten at (depth, cap) iff some
    relabeling's code first differs at a row L < depth, is larger there, and
    labels 0..L go to vertices below cap."""
    target = _rows_under(n, rows, range(n))
    wins = set()
    for order in permutations(range(n)):
        code = _rows_under(n, rows, order)
        first = next((t for t in range(n) if code[t] != target[t]), None)
        if first is not None and code[first] > target[first]:
            wins.add((first, max(order[:first + 1])))
    assert _row_vals(n, rows) == list(target)
    assert _is_row_canonical(n, rows) == (not wins), rows
    for depth in range(1, n + 1):
        for cap in range(1, n + 1):
            expect = any(first < depth and top < cap for first, top in wins)
            assert _beaten(n, rows, target, depth, cap) == expect, (rows, depth, cap)


def test_kernel_on_every_labeled_graph_up_to_five_vertices():
    for n in range(1, 6):
        for mask in range(1 << (n * (n - 1) // 2)):
            _check_kernel(n, graph_from_mask(n, mask).rows)


def _twin_kinds(g):
    kinds = set()
    for u in range(g.n):
        for v in range(u + 1, g.n):
            if (g.rows[u] ^ g.rows[v]) & ~(1 << u | 1 << v) == 0:
                kinds.add("adjacent" if g.rows[u] >> v & 1 else "non-adjacent")
    return kinds


def test_kernel_on_random_graphs_with_planted_twins():
    rnd = random.Random(20)
    kinds = []
    for n in [6] * 24 + [7] * 8:
        core = rnd.randint(2, n - 2)
        edges = [(i, j) for i in range(core) for j in range(i + 1, core) if rnd.random() < 0.5]
        for y in range(core, n):
            # y copies the neighbourhood of an earlier x, and joins x half the time
            x = rnd.randrange(y)
            edges += [(w, y) for w in range(y) if (w, x) in edges or (x, w) in edges]
            if rnd.random() < 0.5:
                edges.append((x, y))
        perm = list(range(n))
        rnd.shuffle(perm)
        g = Graph.from_edges(n, edges).relabel(perm)
        kinds.append(_twin_kinds(g))
        _check_kernel(n, g.rows)
    assert sum("adjacent" in k for k in kinds) >= 8
    assert sum("non-adjacent" in k for k in kinds) >= 8


def test_row_search_agrees_with_the_search_from_the_root(monkeypatch):
    # every candidate row the generator tries, accepted or rejected, gets
    # from the search carried on from its parent's record the verdict of
    # `_beaten` run from the root: on every R_d(n) with n <= 10, every S(n, m)
    # with n <= 7, and S(8, 12). Row n-2's search is the whole graph's, with
    # vertex n-1 a candidate too
    row_search = enumeration._row_search
    verdicts = {True: 0, False: 0}

    def checked(n, adj, rowvals, k, record):
        out = row_search(n, adj, rowvals, k, record)
        cap = k + 2 if k == n - 2 else k + 1
        assert (out is None) == _beaten(n, adj, rowvals, k + 1, cap), (adj, k)
        verdicts[out is None] += 1
        return out

    monkeypatch.setattr(enumeration, "_row_search", checked)
    for n in range(1, 11):
        for d in range(n):
            enumerate_regular(n, d)
    assert verdicts == {True: 937, False: 1836}  # rejected, accepted
    verdicts.update({True: 0, False: 0})
    for n in range(1, 8):
        for m in range(n * (n - 1) // 2 + 1):
            enumerate_by_edges(n, m)
    enumerate_by_edges(8, 12)
    assert verdicts == {True: 5963, False: 9840}


def test_erdos_gallai_matches_brute_force_graphicality():
    # every sequence of length p <= 6 over -1..p, given as one pair per entry
    # and as (value, count) pairs, against the degree sequences of all
    # labeled graphs on p vertices
    assert _erdos_gallai([])
    for p in range(1, 7):
        graphic = {tuple(sorted(graph_from_mask(p, mask).degrees()))
                   for mask in range(1 << (p * (p - 1) // 2))}
        for seq in product(range(-1, p + 1), repeat=p):
            expect = tuple(sorted(seq)) in graphic
            assert _erdos_gallai([(v, 1) for v in seq]) == expect, seq
            assert _erdos_gallai(list(Counter(seq).items())) == expect, seq


def test_enumerator_members_are_fixed_points():
    members = [g for n in range(1, 7) for m in range(n * (n - 1) // 2 + 1)
               for g in enumerate_by_edges(n, m)]
    members += enumerate_regular(8, 3) + enumerate_regular(10, 3)
    assert len(members) == sum(sum(burnside_counts(n)) for n in range(1, 7)) + 6 + 21
    for g in members:
        assert canonical_relabel(g) == g, to_graph6(g)


def _hypercube(k):
    n = 1 << k
    return Graph.from_edges(n, [(u, u | 1 << b) for u in range(n) for b in range(k)
                                if not u >> b & 1])


@pytest.mark.parametrize("g", [
    cycle_graph(16),
    disjoint_union(cycle_graph(8), cycle_graph(8)),
    _hypercube(4),
    Graph.from_edges(16, [(2 * i, 2 * i + 1) for i in range(8)]),
    empty_graph(16),
], ids=["C16", "2C8", "Q4", "8K2", "E16"])
def test_canonical_form_is_relabeling_invariant_at_the_cap(g):
    rnd = random.Random(g.m)
    form = canonical_form(g)
    for _ in range(3):
        perm = list(range(g.n))
        rnd.shuffle(perm)
        assert canonical_form(g.relabel(perm)) == form
    assert canonical_relabel(from_graph6(form)) == from_graph6(form)


def test_canonical_hard_cap():
    with pytest.raises(UnsupportedSizeError):
        canonical_form(empty_graph(CANONICAL_HARD_CAP + 1))


# ---------------------------------------------------------------------------
# enumeration completeness: Burnside's lemma is the outside referee

def test_edge_class_counts_match_burnside():
    # the totals on 7, 8 and 9 vertices are the published ones (OEIS A000088)
    assert sum(burnside_counts(7)) == 1044
    for n in range(1, 8):
        expect = burnside_counts(n)
        for m, want in enumerate(expect):
            assert len(enumerate_by_edges(n, m)) == want, (n, m)


def test_edge_class_counts_match_burnside_n8_spot():
    expect = burnside_counts(8)
    assert sum(expect) == 12346
    for m in (0, 12, 16, 28):
        got = len(enumerate_by_edges(8, m))
        assert got == expect[m], m


def test_regular_counts_match_labeled_mask_scan():
    # sum of n!/|Aut| over classes must equal the brute labeled count
    for n in range(2, 7):
        for d in range(n):
            classes = enumerate_regular(n, d)
            orbit_total = sum(math.factorial(n) // aut_size(g) for g in classes)
            assert orbit_total == labeled_regular_count(n, d), (n, d)


def test_regular_equals_filtered_edge_enumeration():
    # independent route: take the Burnside-certified edge class and filter
    for n, d in [(8, 3), (7, 4), (6, 3)]:
        m = n * d // 2
        filtered = sorted(to_graph6(g) for g in enumerate_by_edges(n, m)
                          if degree_info(g).is_regular and g.degrees()[0] == d)
        direct = sorted(to_graph6(g) for g in enumerate_regular(n, d))
        assert filtered == direct, (n, d)


def test_regular_complement_bijection():
    for n in range(2, 10):
        for d in range(n):
            a = enumerate_regular(n, d)
            b = enumerate_regular(n, n - 1 - d)
            image = sorted(canonical_form(complement(g)) for g in a)
            assert image == [to_graph6(g) for g in b], (n, d)


def test_regular_census_at_ten_vertices():
    classes = [enumerate_regular(10, d) for d in range(10)]
    assert [len(members) for members in classes] == [1, 1, 5, 21, 60, 60, 21, 5, 1, 1]
    for d, members in enumerate(classes):
        image = sorted(canonical_form(complement(g)) for g in members)
        assert image == [to_graph6(g) for g in classes[9 - d]], d


def test_known_class_sizes():
    assert len(enumerate_regular(8, 3)) == 6
    assert len(enumerate_regular(9, 4)) == 16
    assert len(enumerate_regular(10, 3)) == 21
    assert len(enumerate_by_edges(4, 3)) == 3
    assert [to_graph6(g) for g in enumerate_regular(6, 2)] == \
        sorted([canonical_form(cycle_graph(6)),
                canonical_form(disjoint_union(cycle_graph(3), cycle_graph(3)))])


def test_class_sizes_at_the_caps_match_published_counts():
    # connected cubic and quartic graphs (OEIS A002851, A006820; Meringer,
    # J. Graph Theory 30, 1999). A disconnected member is a union of smaller
    # connected ones: K4 with one of the 5 cubic graphs on 8 vertices, two of
    # the 2 on 6, or 3K4 make 9 cubic on 12; K5 with the octahedron makes 1
    # quartic on 11; K5 with one of the 2 quartic on 7, or two octahedra, 3 on 12
    for n, d, connected, disconnected in [(12, 3, 85, 9), (11, 4, 265, 1), (12, 4, 1544, 3)]:
        members = enumerate_regular(n, d)
        assert sum(map(is_connected, members)) == connected, (n, d)
        assert len(members) == connected + disconnected, (n, d)
    # and the complement bijection at n = 11
    image = sorted(canonical_form(complement(g)) for g in enumerate_regular(11, 4))
    assert image == [to_graph6(g) for g in enumerate_regular(11, 6)]


def test_edge_class_sizes_at_the_cap_match_burnside():
    expect = burnside_counts(9)
    assert sum(expect) == 274668
    for m, want in [(10, 1637), (12, 5995)]:
        assert expect[m] == want
        assert len(enumerate_by_edges(9, m)) == want, m


def test_searches_leave_no_garbage():
    # a recursive closure refers to itself through its cell, so each call of
    # one leaves a cycle that only the collector frees; the searches are
    # module-level functions and leave none
    enumerate_regular(8, 3)
    cmd_check_duality(8, 3)  # warm the package's lazy imports
    petersen = from_graph6("IheA@GUAo")
    calls = {
        "S(8,12)": lambda: enumerate_by_edges(8, 12),
        "R_4(10)": lambda: enumerate_regular(10, 4),
        "complements": lambda: [canonical_form(complement(g)) for g in enumerate_regular(10, 4)],
        "census": lambda: girth_and_cycles(petersen, 10),
        "report": lambda: cmd_report_class(8, 12),
        "duality": lambda: cmd_check_duality(10, 4),
        "verify Petersen": lambda: cmd_verify_trace_minimal(petersen, 10, 3),
        "verify G@Umf?": lambda: cmd_verify_trace_minimal(from_graph6("G@Umf?"), 8, 3),
    }
    gc.collect()
    gc.disable()
    try:
        for name, call in calls.items():
            call()
            assert gc.collect() == 0, name
    finally:
        gc.enable()


def test_stream_metadata():
    assert enumerate_regular(5, 1) == []
    assert GraphClassSpec("regular", 5, d=1).warning == "odd degree sum: class is empty"
    assert GraphClassSpec("regular", 6, d=1).warning is None
    assert GraphClassSpec("edges", 5, m=3).warning is None
    members = enumerate_regular(1, 0)
    assert len(members) == 1 and members[0].n == 1
    assert GraphClassSpec("regular", 6, d=2).to_dict() == {"kind": "regular", "n": 6, "d": 2}


def test_class_spec_is_a_hashable_immutable_record():
    spec = GraphClassSpec("edges", 8, m=12)
    assert spec.kind == "edges" and spec.n == 8 and spec.d is None and spec.m == 12
    assert hash(spec) == hash(GraphClassSpec("edges", 8, None, 12))
    assert {spec: "S(8,12)"}[GraphClassSpec("edges", 8, m=12)] == "S(8,12)"
    assert spec.to_dict() == {"kind": "edges", "n": 8, "m": 12}
    assert spec.warning is None
    with pytest.raises(AttributeError):
        spec.m = 14
    with pytest.raises(AttributeError):
        spec.note = "no new fields"


def test_validation_and_caps():
    with pytest.raises(ValueError):
        enumerate_regular(4, 4)
    with pytest.raises(ValueError):
        enumerate_by_edges(4, 7)
    assert len(enumerate_regular(12, 3)) == 94
    with pytest.raises(CapsExceededError):
        enumerate_regular(13, 2)
    assert len(enumerate_by_edges(9, 2)) == 2  # 2K_2 or P_3
    with pytest.raises(CapsExceededError):
        enumerate_by_edges(10, 2)


def test_worker_count_does_not_change_results():
    base = [to_graph6(g) for g in enumerate_regular(8, 3, workers=1)]
    for workers in (2, 8):
        assert [to_graph6(g) for g in enumerate_regular(8, 3, workers=workers)] == base
    edges_base = [to_graph6(g) for g in enumerate_by_edges(6, 7, workers=1)]
    assert [to_graph6(g) for g in enumerate_by_edges(6, 7, workers=3)] == edges_base
    # on classes whose partition really splits the work
    for spec in [GraphClassSpec("edges", 8, m=12), GraphClassSpec("regular", 10, d=4)]:
        tasks = _class_tasks(spec)
        assert sum(1 for task in tasks if enumeration._worker(task)) >= 2, spec
        runs = {workers: [to_graph6(g) for g in enumerate_class(spec, workers=workers)]
                for workers in (1, 2, 8)}
        assert runs[1] and runs[2] == runs[1] and runs[8] == runs[1], spec


def test_forks_are_capped_at_the_task_count(monkeypatch):
    tasks = _class_tasks(GraphClassSpec("regular", 10, d=4))
    assert 2 <= len(tasks) <= 5
    forks = counting_fork(monkeypatch, len(tasks))
    serial = sorted(enumeration._run_partitioned(tasks, 1, to_graph6))
    assert forks == []
    # results come in landing order, so the runs compare by task index
    assert sorted(enumeration._run_partitioned(tasks, len(tasks) + 2, to_graph6)) == serial
    assert len(forks) == len(tasks) - 1  # the parent runs tasks too


def test_fork_runner_refuses_more_tasks_than_one_byte_claims_hold(monkeypatch):
    forks = counting_fork(monkeypatch, 0)
    tasks = _class_tasks(GraphClassSpec("regular", 6, d=2)) * 256
    with pytest.raises(InternalConsistencyError, match="256 tasks"):
        next(enumeration._run_partitioned(tasks, 2, to_graph6))
    assert forks == []


def test_every_class_inside_the_caps_fits_in_one_byte_claims():
    # `_run_partitioned` claims each task as one byte and refuses 256 or
    # more, so no class the caps admit may split further (the largest split
    # is 63 tasks, S(9,13))
    specs = [GraphClassSpec("edges", n, m=m) for n in range(1, enumeration._EDGES_CAP + 1)
             for m in range(n * (n - 1) // 2 + 1)]
    specs += [GraphClassSpec("regular", n, d=d) for n in range(1, enumeration._REGULAR_CAP + 1)
              for d in range(n)]
    assert max(len(_class_tasks(spec)) for spec in specs) < 256


def test_without_fork_every_task_runs_in_this_process(monkeypatch):
    tasks = _class_tasks(GraphClassSpec("regular", 10, d=4))
    serial = sorted(enumeration._run_partitioned(tasks, 1, to_graph6))
    monkeypatch.delattr(os, "fork")
    assert sorted(enumeration._run_partitioned(tasks, 2, to_graph6)) == serial


def test_a_result_larger_than_one_read_is_reassembled(split_worker):
    tasks = _class_tasks(GraphClassSpec("regular", 10, d=4))
    # distinct strings, so that pickle cannot shrink the frame by memoizing
    big = [f"member {i:06d}" for i in range(8000)]
    assert len(pickle.dumps(big)) > 1 << 16  # more than one read of the pipe
    split_worker(lambda task, row: big, lambda task, row: [])
    results = [result for _, result in enumeration._run_partitioned(tasks, 2, to_graph6)]
    assert big in results and all(r in (big, []) for r in results)


def test_a_child_that_dies_mid_task_is_an_internal_fault(split_worker):
    tasks = _class_tasks(GraphClassSpec("regular", 10, d=4))
    split_worker(lambda task, row: os._exit(0), enumeration._worker)
    with pytest.raises(InternalConsistencyError, match="was lost with its child"):
        list(enumeration._run_partitioned(tasks, 2, to_graph6))


# ---------------------------------------------------------------------------
# derived selections

def test_almost_regular_filter():
    members = enumerate_almost_regular(5, 4)
    assert all(degree_info(g).is_almost_regular for g in members)
    whole = enumerate_by_edges(5, 4)
    rest = [g for g in whole if not degree_info(g).is_almost_regular]
    assert len(members) + len(rest) == len(whole) and rest


def test_every_edge_class_has_an_almost_regular_member():
    # so `nu_min_set` always has a pool to minimize over
    for n in range(1, 8):
        for m in range(n * (n - 1) // 2 + 1):
            assert enumerate_almost_regular(n, m), (n, m)


def test_ladder_level_one_is_whole_class():
    assert len(ladder_level(5, 4, 1)) == len(enumerate_by_edges(5, 4))


def test_ladder_level_two_is_almost_regular():
    # minimizing l_2 = sum d_i(d_i + 1) flattens the degree sequence
    for n, m in [(5, 4), (6, 7), (6, 9)]:
        level = sorted(to_graph6(g) for g in ladder_level(n, m, 2))
        flat = sorted(to_graph6(g) for g in enumerate_almost_regular(n, m))
        assert level == flat, (n, m)


def test_nu_min_set_small():
    # A_{6,9} is exactly R_3(6) = {K_{3,3}, prism}; nu 18 vs 12
    prism = Graph.from_edges(6, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3),
                                 (0, 3), (1, 4), (2, 5)])
    got = sorted(to_graph6(g) for g in nu_min_set(6, 9))
    assert got == [canonical_form(prism)]
    assert canonical_form(complete_bipartite(3, 3)) not in got


def test_tau_min():
    lo, witnesses = tau_min(6, 3)
    assert lo == 0
    assert [to_graph6(g) for g in witnesses] == [canonical_form(complete_bipartite(3, 3))]
    assert tau_min(5, 1) == (None, [])
    assert tau_min(3, 2) == (1, [complete_graph(3)])


# ---------------------------------------------------------------------------
# spooling

def _spool_forms(path):
    with open(path) as fh:
        return fh.read().splitlines()


def test_spool_writes_sorted_canonical_forms(tmp_path):
    out = tmp_path / "r62.g6"
    count = spool_class(GraphClassSpec("regular", 6, d=2), str(out))
    assert count == 2
    assert _spool_forms(out) == [to_graph6(g) for g in enumerate_regular(6, 2)]
    assert not (tmp_path / "r62.g6.checkpoint").exists()


def test_spool_empty_class(tmp_path):
    out = tmp_path / "odd.g6"
    assert spool_class(GraphClassSpec("regular", 5, d=1), str(out)) == 0
    assert _spool_forms(out) == []


def test_spool_resumes_from_checkpoint(tmp_path, monkeypatch):
    import treeopt.enumeration as enum

    spec = GraphClassSpec("edges", 6, m=7)
    out = tmp_path / "s67.g6"
    real_worker = enum._worker

    calls = []
    found = []

    def counting(task, row):
        calls.append(task)
        members = real_worker(task, row)
        found.append(len(members))
        return members

    monkeypatch.setattr(enum, "_worker", counting)
    total = spool_class(spec, str(out))
    full_runs = len(calls)
    # otherwise the resume test is vacuous
    assert full_runs >= 2 and sum(1 for count in found if count) >= 2
    baseline = _spool_forms(out)

    # crash after the first completed task, then resume
    out2 = tmp_path / "s67b.g6"
    calls.clear()

    def crashing(task, row):
        if len(calls) >= 1:
            raise RuntimeError("simulated interruption")
        calls.append(task)
        return real_worker(task, row)

    monkeypatch.setattr(enum, "_worker", crashing)
    with pytest.raises(RuntimeError):
        spool_class(spec, str(out2))
    assert (tmp_path / "s67b.g6.checkpoint").exists()
    assert not out2.exists()

    calls.clear()
    monkeypatch.setattr(enum, "_worker", counting)
    assert spool_class(spec, str(out2)) == total
    assert len(calls) == full_runs - 1  # the finished task was not recomputed
    assert _spool_forms(out2) == baseline
    assert not (tmp_path / "s67b.g6.checkpoint").exists()


def test_spool_resumes_from_a_torn_checkpoint(tmp_path, monkeypatch):
    import treeopt.enumeration as enum

    spec = GraphClassSpec("edges", 6, m=7)
    out = tmp_path / "s67.g6"
    ck = tmp_path / "s67.g6.checkpoint"
    with monkeypatch.context() as mp:
        mp.setattr(enum.os, "remove", lambda path: None)  # keep the finished checkpoint
        spool_class(spec, str(out))
    clean = out.read_bytes()
    full = ck.read_bytes()
    ntasks = full.count(b"\n") - 1
    records = [json.loads(line) for line in full.splitlines()[1:]]
    assert ntasks >= 2 and sum(1 for rec in records if rec["graphs"]) >= 2
    real_worker = enum._worker
    calls = []

    def counting(task, row):
        calls.append(task)
        return real_worker(task, row)

    monkeypatch.setattr(enum, "_worker", counting)
    for cut in range(len(full) + 1):
        out.unlink(missing_ok=True)
        ck.write_bytes(full[:cut])
        calls.clear()
        spool_class(spec, str(out))
        assert out.read_bytes() == clean, cut
        assert not ck.exists()
        # only the tasks whose records were not complete run again
        finished = max(full[:cut].count(b"\n") - 1, 0)
        assert len(calls) == ntasks - finished, cut


def test_an_interrupted_spool_keeps_a_task_that_landed_ahead_of_an_earlier_one(
        tmp_path, monkeypatch, split_worker):
    import treeopt.enumeration as enum

    spec = GraphClassSpec("edges", 7, m=10)
    tasks = _class_tasks(spec)
    assert len(tasks) >= 4
    clean_path = tmp_path / "clean.g6"
    spool_class(spec, str(clean_path))
    clean = clean_path.read_bytes()

    real_worker = enum._worker
    gate, gate_w = os.pipe()
    ran = []

    def parent(task, row):
        # the child holds task 0 or 1, so this process's second task, task 2,
        # lands ahead of it; Ctrl-C comes during the third
        if len(ran) == 2:
            raise KeyboardInterrupt
        result = real_worker(task, row)
        ran.append(tasks.index(task))
        return result

    out = tmp_path / "s710.g6"
    ck = tmp_path / "s710.g6.checkpoint"
    try:
        split_worker(lambda task, row: os.read(gate, 1), parent)
        with pytest.raises(KeyboardInterrupt):
            spool_class(spec, str(out), workers=2)
    finally:
        os.close(gate)
        os.close(gate_w)
    assert 2 in ran and not out.exists()
    records = [json.loads(line) for line in ck.read_text().splitlines()[1:]]
    assert sorted(rec["task"] for rec in records) == sorted(ran)

    calls = []

    def counting(task, row):
        calls.append(tasks.index(task))
        return real_worker(task, row)

    monkeypatch.setattr(enum, "_worker", counting)
    assert spool_class(spec, str(out)) == clean.count(b"\n")
    assert 2 not in calls and sorted(calls + ran) == list(range(len(tasks)))
    assert out.read_bytes() == clean
    assert not ck.exists()


def test_spool_replaces_its_output_atomically(tmp_path, monkeypatch):
    import treeopt.enumeration as enum

    spec = GraphClassSpec("regular", 6, d=2)
    out = tmp_path / "r62.g6"
    ck = tmp_path / "r62.g6.checkpoint"
    out.write_bytes(b"old bytes\n")

    def failing(src, dst):
        raise OSError("simulated rename failure")

    with monkeypatch.context() as mp:
        mp.setattr(enum.os, "replace", failing)
        with pytest.raises(OSError):
            spool_class(spec, str(out))
    assert out.read_bytes() == b"old bytes\n"
    assert ck.exists()

    assert spool_class(spec, str(out)) == 2
    assert out.read_text() == "".join(to_graph6(g) + "\n" for g in enumerate_regular(6, 2))
    assert not ck.exists()
    assert not (tmp_path / "r62.g6.tmp").exists()


def test_spool_discards_unreadable_checkpoint(tmp_path):
    spec = GraphClassSpec("regular", 6, d=2)
    out = tmp_path / "r.g6"
    ck = tmp_path / "r.g6.checkpoint"
    header = json.dumps({"spec": spec.to_dict(), "tasks": 1}, sort_keys=True)
    for junk in ["not json", json.dumps({"task": 5, "graphs": []}),
                 json.dumps({"task": 0, "graphs": ["b", "a"]}), json.dumps([0])]:
        ck.write_text(header + "\n" + junk + "\n")
        assert spool_class(spec, str(out)) == 2
        assert _spool_forms(out) == [to_graph6(g) for g in enumerate_regular(6, 2)]


def test_spool_discards_mismatched_checkpoint(tmp_path):
    spec = GraphClassSpec("regular", 6, d=2)
    out = tmp_path / "r.g6"
    ck = tmp_path / "r.g6.checkpoint"
    ck.write_text(json.dumps({"spec": {"kind": "regular", "n": 5, "d": 2}, "tasks": 1})
                  + "\n" + json.dumps({"task": 0, "graphs": ["bogus"]}) + "\n")
    assert spool_class(spec, str(out)) == 2
    assert _spool_forms(out) == [to_graph6(g) for g in enumerate_regular(6, 2)]


def test_spool_rejects_unknown_kind(tmp_path):
    with pytest.raises(ValueError):
        spool_class(GraphClassSpec("weird", 4), str(tmp_path / "x"))
    with pytest.raises(ValueError):
        enumerate_class(GraphClassSpec("weird", 4))
