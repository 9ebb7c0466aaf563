"""Tests for the golden-model dependence analysis (Listing 2 semantics)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.runtime.task_graph import DependenceKind, build_task_graph
from repro.traces import AccessMode, Param, TaskTrace, TraceTask


def trace_of(*param_lists, times=None):
    """Build a trace where task k has the given (addr, mode) parameter list."""
    tasks = []
    for tid, plist in enumerate(param_lists):
        params = tuple(Param(addr, 64, AccessMode.parse(mode)) for addr, mode in plist)
        cost = times[tid] if times else 100
        tasks.append(TraceTask(tid, 1, params, cost))
    return TaskTrace("unit", tasks)


A, B, C = 0x100, 0x200, 0x300


class TestHazards:
    def test_raw(self):
        g = build_task_graph(trace_of([(A, "out")], [(A, "in")]))
        assert g.is_edge(0, 1)
        assert g.edge_kinds[(0, 1)] == DependenceKind.RAW

    def test_war(self):
        g = build_task_graph(trace_of([(A, "in")], [(A, "out")]))
        assert g.is_edge(0, 1)
        assert g.edge_kinds[(0, 1)] == DependenceKind.WAR

    def test_waw(self):
        g = build_task_graph(trace_of([(A, "out")], [(A, "out")]))
        assert g.is_edge(0, 1)
        assert g.edge_kinds[(0, 1)] == DependenceKind.WAW

    def test_readers_do_not_depend_on_each_other(self):
        g = build_task_graph(trace_of([(A, "out")], [(A, "in")], [(A, "in")]))
        assert g.is_edge(0, 1) and g.is_edge(0, 2)
        assert not g.is_edge(1, 2) and not g.is_edge(2, 1)

    def test_writer_waits_for_all_readers(self):
        g = build_task_graph(
            trace_of([(A, "out")], [(A, "in")], [(A, "in")], [(A, "out")])
        )
        assert g.is_edge(1, 3) and g.is_edge(2, 3)
        assert g.edge_kinds[(1, 3)] == DependenceKind.WAR

    def test_reader_after_waiting_writer_depends_on_writer(self):
        # T0 reads, T1 writes (waits for T0), T2 reads -> T2 must see T1's
        # value, not race ahead of it (the paper's writer-waits flag).
        g = build_task_graph(trace_of([(A, "in")], [(A, "out")], [(A, "in")]))
        assert g.is_edge(1, 2)
        assert g.edge_kinds[(1, 2)] == DependenceKind.RAW
        assert not g.is_edge(0, 2)

    def test_inout_acts_as_read_and_write(self):
        g = build_task_graph(trace_of([(A, "inout")], [(A, "inout")]))
        assert g.is_edge(0, 1)
        # RAW dominates the simultaneous WAW.
        assert g.edge_kinds[(0, 1)] == DependenceKind.RAW

    def test_independent_addresses_no_edges(self):
        g = build_task_graph(trace_of([(A, "out")], [(B, "out")], [(C, "inout")]))
        assert g.n_edges == 0

    def test_duplicate_address_within_task_merges_modes(self):
        # Task 1 lists A twice (in + out); it must behave as inout: depend on
        # the old writer once and become the new writer.
        g = build_task_graph(
            trace_of([(A, "out")], [(A, "in"), (A, "out")], [(A, "in")])
        )
        assert g.is_edge(0, 1)
        assert g.is_edge(1, 2)
        assert not g.is_edge(0, 2)

    def test_chain_of_writers(self):
        g = build_task_graph(trace_of([(A, "out")], [(A, "inout")], [(A, "inout")]))
        assert g.is_edge(0, 1) and g.is_edge(1, 2)
        assert not g.is_edge(0, 2)  # only the adjacent writer

    def test_mixed_hazards_on_one_pair_keep_the_strongest(self):
        # Task 1 read A and wrote B; task 2 writes A (WAR on 1) and reads
        # B (RAW on 1), in either parameter order: one RAW edge.
        for plist in ([(A, "out"), (B, "in")], [(B, "in"), (A, "out")]):
            g = build_task_graph(trace_of([(A, "out")], [(A, "in"), (B, "out")], plist))
            assert g.edge_kinds[(1, 2)] == DependenceKind.RAW
            assert g.predecessors[2] == {0, 1}


class TestGraphQueries:
    def test_roots_and_degrees(self):
        g = build_task_graph(trace_of([(A, "out")], [(B, "out")], [(A, "in"), (B, "in")]))
        assert g.roots() == [0, 1]
        assert g.in_degree(2) == 2
        assert g.n_edges == 2

    def test_parallelism_profile(self):
        g = build_task_graph(trace_of([(A, "out")], [(B, "out")], [(A, "in"), (B, "in")]))
        assert g.parallelism_profile() == [2, 1]
        assert g.max_parallelism() == 2
        assert g.average_parallelism() == pytest.approx(1.5)


class TestBounds:
    def test_critical_path_linear_chain(self):
        g = build_task_graph(
            trace_of([(A, "out")], [(A, "inout")], [(A, "inout")], times=[10, 20, 30])
        )
        assert g.critical_path() == 60
        assert g.total_work == 60

    def test_critical_path_diamond(self):
        g = build_task_graph(
            trace_of(
                [(A, "out"), (B, "out")],  # 0
                [(A, "in"), (C, "out")],  # 1 (depends on 0)
                [(B, "inout")],  # 2 (depends on 0)
                [(C, "in"), (B, "in")],  # 3 (depends on 1 and 2)
                times=[5, 10, 50, 5],
            )
        )
        assert g.critical_path() == 5 + 50 + 5

    def test_list_schedule_one_core_equals_total_work(self):
        g = build_task_graph(trace_of([(A, "out")], [(B, "out")], times=[30, 40]))
        assert g.list_schedule_makespan(1) == 70

    def test_list_schedule_parallel_tasks(self):
        g = build_task_graph(
            trace_of([(A, "out")], [(B, "out")], [(C, "out")], times=[50, 50, 50])
        )
        assert g.list_schedule_makespan(3) == 50
        assert g.list_schedule_makespan(1) == 150

    def test_list_schedule_respects_dependencies(self):
        g = build_task_graph(
            trace_of([(A, "out")], [(A, "inout")], times=[100, 100])
        )
        assert g.list_schedule_makespan(8) == 200

    def test_makespan_bounds_sandwich(self):
        from repro.traces import h264_wavefront_trace

        g = build_task_graph(h264_wavefront_trace(rows=8, cols=8))
        for p in (1, 2, 4):
            ms = g.list_schedule_makespan(p)
            assert ms >= g.critical_path()
            assert ms >= g.total_work // p
            assert ms <= g.total_work

    def test_invalid_core_count(self):
        g = build_task_graph(trace_of([(A, "out")]))
        with pytest.raises(ValueError):
            g.list_schedule_makespan(0)


class TestScheduleChecker:
    def test_legal_schedule_passes(self):
        g = build_task_graph(trace_of([(A, "out")], [(A, "in")]))
        assert g.check_schedule([0, 100], [100, 200]) == []

    def test_violation_detected(self):
        g = build_task_graph(trace_of([(A, "out")], [(A, "in")]))
        problems = g.check_schedule([0, 50], [100, 150])
        assert len(problems) == 1
        assert "RAW violation" in problems[0]

    def test_wrong_length_detected(self):
        g = build_task_graph(trace_of([(A, "out")], [(A, "in")]))
        assert g.check_schedule([0], [10]) != []


_RANK = {DependenceKind.WAR: 0, DependenceKind.WAW: 1, DependenceKind.RAW: 2}


def reference_graph(trace):
    """The analysis stated edge by edge: fold repeated addresses, then add
    RAW/WAW from the last writer and WAR from the readers since it,
    keeping each pair's strongest kind."""
    succ = [set() for _ in trace]
    pred = [set() for _ in trace]
    kinds = {}
    last_writer, readers = {}, {}

    def add(p, s, kind):
        succ[p].add(s)
        pred[s].add(p)
        if (p, s) not in kinds or _RANK[kind] > _RANK[kinds[p, s]]:
            kinds[p, s] = kind

    for task in trace:
        folded = {}
        for p in task.params:
            r, w = folded.get(p.addr, (False, False))
            folded[p.addr] = (r or p.mode.reads, w or p.mode.writes)
        for addr, (reads, writes) in folded.items():
            w = last_writer.get(addr)
            if reads and w is not None:
                add(w, task.tid, DependenceKind.RAW)
            if writes:
                if w is not None:
                    add(w, task.tid, DependenceKind.WAW)
                for r in readers.get(addr, []):
                    add(r, task.tid, DependenceKind.WAR)
                last_writer[addr] = task.tid
                readers[addr] = []
            else:
                readers.setdefault(addr, []).append(task.tid)
    return succ, pred, kinds


_params = st.lists(
    st.tuples(st.sampled_from([A, B, C]), st.sampled_from(["in", "out", "inout"])),
    min_size=1,
    max_size=5,
)


@settings(max_examples=200, deadline=None)
@given(st.lists(_params, min_size=1, max_size=12))
def test_one_pass_analysis_matches_the_edge_by_edge_reference(param_lists):
    """Any trace over three addresses, repeated addresses within a task
    included, gets exactly the reference's edges and kinds."""
    trace = trace_of(*param_lists)
    g = build_task_graph(trace)
    succ, pred, kinds = reference_graph(trace)
    assert g.successors == succ
    assert g.predecessors == pred
    assert g.edge_kinds == kinds
