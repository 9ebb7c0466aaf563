"""Golden-model task graph: StarSs dependence semantics in plain software.

This is the reference the hardware model is differentially tested against.
It applies the same rules as the paper's Listing 2, expressed directly:

* a task **reading** address A depends on the most recent preceding task
  (in serial program order) that **writes** A;
* a task **writing** A depends on that writer *and* on every reader of A
  since that writer (WAR), and then becomes the new "last writer" (WAW);
* ``inout`` parameters are both.

Note the hardware queues a late reader behind a *waiting* writer (the
writer-waits flag); that is the same partial order as "reader depends on
last preceding writer", because the queued writer precedes the reader in
program order.  The equivalence is exercised by the differential tests.

Besides edges, this module computes scheduling-theoretic quantities used by
the analysis layer and the test oracles: critical path length, maximum/
average parallelism profile, and a greedy list-schedule makespan for a
P-core machine (an upper bound a correct Nexus++ run must beat or match
up to modelled overheads... and a sanity lower bound via work/P).
"""

from __future__ import annotations

import heapq
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Set, Tuple

from ..traces.trace import AccessMode, TaskTrace

__all__ = ["TaskGraph", "build_task_graph", "DependenceKind"]


class DependenceKind:
    """Edge labels (true/anti/output dependencies)."""

    RAW = "RAW"
    WAR = "WAR"
    WAW = "WAW"


@dataclass
class TaskGraph:
    """Immutable dependence DAG over a trace, with analysis helpers."""

    trace: TaskTrace
    #: successors[tid] -> set of dependent task ids.
    successors: List[Set[int]]
    #: predecessors[tid] -> set of prerequisite task ids.
    predecessors: List[Set[int]]
    #: Edge kinds keyed by (pred, succ); a pair may carry several hazards,
    #: the strongest (RAW > WAW > WAR) is kept.
    edge_kinds: Dict[Tuple[int, int], str] = field(default_factory=dict)

    # ---- basic queries ----------------------------------------------------------

    @property
    def n_tasks(self) -> int:
        return len(self.trace)

    @property
    def n_edges(self) -> int:
        return sum(len(s) for s in self.successors)

    def in_degree(self, tid: int) -> int:
        return len(self.predecessors[tid])

    def roots(self) -> List[int]:
        """Tasks with no prerequisites (ready at time zero)."""
        return [t for t in range(self.n_tasks) if not self.predecessors[t]]

    def is_edge(self, pred: int, succ: int) -> bool:
        return succ in self.successors[pred]

    # ---- scheduling-theoretic bounds ---------------------------------------------

    def task_cost(self, tid: int) -> int:
        """Serial per-task cost used in bounds: exec plus memory phases."""
        t = self.trace[tid]
        return t.exec_time + t.read_time + t.write_time

    @property
    def total_work(self) -> int:
        """T1: serial execution time of the whole trace."""
        return sum(self.task_cost(t) for t in range(self.n_tasks))

    def critical_path(self) -> int:
        """T-infinity: longest cost-weighted path through the DAG."""
        n = self.n_tasks
        finish = [0] * n
        for tid in range(n):  # tids are a topological order (program order)
            start = 0
            for p in self.predecessors[tid]:
                if finish[p] > start:
                    start = finish[p]
            finish[tid] = start + self.task_cost(tid)
        return max(finish) if n else 0

    def list_schedule_makespan(self, cores: int) -> int:
        """Greedy list-schedule makespan on ``cores`` identical cores.

        Graham-style earliest-finish assignment; an achievable (not optimal)
        makespan that bounds what an ideal zero-overhead runtime could do.
        """
        if cores < 1:
            raise ValueError("cores must be >= 1")
        n = self.n_tasks
        indeg = [len(self.predecessors[t]) for t in range(n)]
        ready: List[int] = [t for t in range(n) if indeg[t] == 0]
        heapq.heapify(ready)
        core_free = [0] * cores  # heap of core-available times
        heapq.heapify(core_free)
        earliest = [0] * n
        finish = [0] * n
        done = 0
        # Event-driven: pop the ready task with the smallest id, run it on the
        # earliest-available core no sooner than its data-ready time.
        pending: List[Tuple[int, int]] = []  # (ready_time, tid) not yet startable
        while done < n:
            if not ready:
                # Advance time to the next pending task.
                t_ready, tid = heapq.heappop(pending)
                heapq.heappush(ready, tid)
                earliest[tid] = max(earliest[tid], t_ready)
                continue
            tid = heapq.heappop(ready)
            core_at = heapq.heappop(core_free)
            start = max(core_at, earliest[tid])
            end = start + self.task_cost(tid)
            finish[tid] = end
            heapq.heappush(core_free, end)
            done += 1
            for s in self.successors[tid]:
                indeg[s] -= 1
                earliest[s] = max(earliest[s], end)
                if indeg[s] == 0:
                    heapq.heappush(pending, (earliest[s], s))
            # Promote pending tasks whose ready time has passed the earliest
            # core availability (cheap heuristic; exactness is not needed for
            # a bound).
            while pending and pending[0][0] <= start:
                _, p = heapq.heappop(pending)
                heapq.heappush(ready, p)
        return max(finish) if n else 0

    def parallelism_profile(self) -> List[int]:
        """Number of tasks at each unit-cost dataflow step.

        Uses unit task costs (pure graph shape): profile[s] = tasks whose
        longest prerequisite chain has length s.  For the wavefront this is
        the paper's "ramping effect" curve.
        """
        n = self.n_tasks
        depth = [0] * n
        for tid in range(n):
            d = 0
            for p in self.predecessors[tid]:
                if depth[p] + 1 > d:
                    d = depth[p] + 1
            depth[tid] = d
        profile: Dict[int, int] = defaultdict(int)
        for d in depth:
            profile[d] += 1
        return [profile[s] for s in range(max(profile) + 1)] if n else []

    def max_parallelism(self) -> int:
        return max(self.parallelism_profile()) if self.n_tasks else 0

    def average_parallelism(self) -> float:
        prof = self.parallelism_profile()
        return self.n_tasks / len(prof) if prof else 0.0

    # ---- validation helpers ---------------------------------------------------------

    def check_schedule(
        self,
        start_times: Sequence[int],
        finish_times: Sequence[int],
    ) -> List[str]:
        """Return a list of dependence violations for a simulated schedule.

        A legal schedule starts every task no earlier than the finish of all
        its predecessors.  Empty list = legal.
        """
        problems = []
        if len(start_times) != self.n_tasks or len(finish_times) != self.n_tasks:
            problems.append(
                f"schedule covers {len(start_times)} tasks, trace has {self.n_tasks}"
            )
            return problems
        for succ in range(self.n_tasks):
            for pred in self.predecessors[succ]:
                if finish_times[pred] > start_times[succ]:
                    kind = self.edge_kinds.get((pred, succ), "?")
                    problems.append(
                        f"{kind} violation: task {succ} started at "
                        f"{start_times[succ]} before task {pred} finished at "
                        f"{finish_times[pred]}"
                    )
        return problems


#: Edge kinds by rank: a pair carrying several hazards keeps the strongest.
_KINDS_BY_RANK = (DependenceKind.WAR, DependenceKind.WAW, DependenceKind.RAW)
_WAR, _WAW, _RAW = range(3)


def build_task_graph(trace: TaskTrace) -> TaskGraph:
    """Run the golden dependence analysis over a trace in program order.

    One pass over the tasks.  Each task first folds its parameters into
    one access per distinct address (a repeated address acts with its
    strongest combined mode — reads if any param reads, writes if any
    writes — matching the hardware, which processes parameters
    sequentially against the table), then ranks its prerequisites in a
    local map before committing them, so every edge is stored once with
    its strongest hazard (RAW > WAW > WAR).
    """
    n = len(trace)
    successors: List[Set[int]] = [set() for _ in range(n)]
    predecessors: List[Set[int]] = [set() for _ in range(n)]
    edge_kinds: Dict[Tuple[int, int], str] = {}

    last_writer: Dict[int, int] = {}
    # Readers of an address since its last write (the WAR candidates).
    readers: Dict[int, List[int]] = {}
    inout = AccessMode.INOUT
    # Scratch maps, cleared per task rather than rebuilt: address ->
    # folded mode, and prerequisite -> strongest hazard rank so far.
    folded: Dict[int, AccessMode] = {}
    rank: Dict[int, int] = {}

    for task in trace.tasks:
        tid = task.tid
        folded.clear()
        for p in task.params:
            prev = folded.get(p.addr)
            folded[p.addr] = p.mode if prev is None or prev is p.mode else inout

        rank.clear()
        for addr, mode in folded.items():
            w = last_writer.get(addr)
            if mode.writes:
                if w is not None:
                    if mode.reads:
                        rank[w] = _RAW
                    elif rank.get(w, _WAR) == _WAR:
                        rank[w] = _WAW
                war = readers.pop(addr, None)
                if war:
                    for r in war:
                        if r not in rank:
                            rank[r] = _WAR
                last_writer[addr] = tid
            else:
                if w is not None:
                    rank[w] = _RAW
                war = readers.get(addr)
                if war is None:
                    readers[addr] = [tid]
                else:
                    war.append(tid)

        if rank:
            preds = predecessors[tid]
            for pred, k in rank.items():
                preds.add(pred)
                successors[pred].add(tid)
                edge_kinds[pred, tid] = _KINDS_BY_RANK[k]

    return TaskGraph(trace, successors, predecessors, edge_kinds)
