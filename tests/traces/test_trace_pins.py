"""Pinned traces and golden graphs of the benchmark workloads, and the
streaming sampler behind the >8192-task random path.

The three benchmark workloads (``perfbench/workloads.py``) are restated
here so a generator or golden-analysis change that moves any of them
fails in tier-1, not only in the benchmark.  The digests were recorded
before the generators shared ``Param`` objects and before the one-pass
golden analysis, so they also prove both changes byte-identical.
"""

import hashlib
import itertools
from collections import Counter

import numpy as np
import pytest

from repro.runtime.task_graph import build_task_graph
from repro.traces import gaussian_trace, random_trace, wait_chain_trace
from repro.traces.random_traces import sample_without_replacement


def trace_digest(trace) -> str:
    """sha256 over every task's ``(tid, func, [(addr, size, mode)], exec,
    read, write)``."""
    h = hashlib.sha256()
    for t in trace:
        h.update(repr((
            t.tid, t.func, [(p.addr, p.size, int(p.mode)) for p in t.params],
            t.exec_time, t.read_time, t.write_time,
        )).encode())
    return h.hexdigest()


def graph_digest(graph) -> str:
    """sha256 over every task's sorted successors and predecessors, then
    the sorted edge kinds."""
    h = hashlib.sha256()
    for tid in range(graph.n_tasks):
        h.update(repr((
            tid, sorted(graph.successors[tid]), sorted(graph.predecessors[tid]),
        )).encode())
    h.update(repr(sorted(graph.edge_kinds.items())).encode())
    return h.hexdigest()


def distinct_params(trace) -> int:
    """Number of distinct ``Param`` *objects* the trace holds."""
    return len({id(p) for t in trace for p in t.params})


WORKLOADS = {
    "paper-gauss": lambda seed: gaussian_trace(140),
    "hazard-stack": lambda seed: random_trace(
        8000, n_addresses=96, max_params=6, mean_exec=4000, mean_memory=0,
        seed=seed,
    ),
    "fine-chain": lambda seed: wait_chain_trace(
        32, 320, spin_ns=250, cv=0.25, seed=seed
    ),
}

#: (workload, seed) -> (trace digest, golden-graph digest, distinct Params).
#: paper-gauss is seed-free; fine-chain's seed moves only the exec times,
#: so its graph is the same at both seeds.
PINS = {
    ("paper-gauss", 1): (
        "00498c350b38851f876b39dc97a5121fe9d34e346f106d927f1951eb6b75eed5",
        "a381da14bea773f1f37dac75394a36a087e4388a40f5d5d86fe8c54506f77e31",
        280,
    ),
    ("paper-gauss", 7): (
        "00498c350b38851f876b39dc97a5121fe9d34e346f106d927f1951eb6b75eed5",
        "a381da14bea773f1f37dac75394a36a087e4388a40f5d5d86fe8c54506f77e31",
        280,
    ),
    ("hazard-stack", 1): (
        "effa94f5af98e22c7886ad62b109ed47b9100225bb7a2aa51b3c35293a776d20",
        "44dd54b3705a6e357c380b93067c11b2723f6a2bf6525b637addc2b6fb52edd9",
        288,
    ),
    ("hazard-stack", 7): (
        "9eec2b457ec629445968773b36163a111480cb102dcf5ba8e03d452eba75a0ec",
        "f21af6decc5e9a7000a8b4a16ae6a91451e6c31c351bc5e5d82bcc420e8e3632",
        288,
    ),
    ("fine-chain", 1): (
        "106f03c98cbe1904ef57f20f1284214f9fa338858048ef64b3ca3148b0c08d0c",
        "e5bb377cf8e045395bf26d13f46187c0800dd6c5697420aa45e898321323e016",
        20448,
    ),
    ("fine-chain", 7): (
        "f73f72d3658164403a6eda9eb798ef675c7e44448d09477e05d49bf3fd502239",
        "e5bb377cf8e045395bf26d13f46187c0800dd6c5697420aa45e898321323e016",
        20448,
    ),
}


@pytest.mark.parametrize("workload,seed", sorted(PINS))
def test_benchmark_workload_is_pinned(workload, seed):
    trace = WORKLOADS[workload](seed)
    want_trace, want_graph, want_params = PINS[workload, seed]
    assert trace_digest(trace) == want_trace
    assert graph_digest(build_task_graph(trace)) == want_graph
    # One shared object per distinct (addr, size, mode): Gaussian names
    # 140 rows as in and inout (280 values) ~29k times, and hazard-stack
    # draws from 96 addresses x 3 modes.  Every wait-chain param is a
    # distinct value already.
    assert distinct_params(trace) == want_params


def test_streaming_trace_is_pinned():
    """One >8192-task trace, on the streaming path's own stream."""
    trace = random_trace(10_000, n_addresses=64, max_params=4, seed=3)
    assert trace_digest(trace) == (
        "4db9849348c494cb3787984c9b77c8f429c2ba0d48ec07569f4b0ff9cc1fa921"
    )
    assert distinct_params(trace) == 64 * 3


class TestSampler:
    def test_deterministic_per_seed(self):
        ks = np.array([1, 3, 5, 2] * 50)
        a = sample_without_replacement(np.random.default_rng(4), ks, 9)
        b = sample_without_replacement(np.random.default_rng(4), ks, 9)
        c = sample_without_replacement(np.random.default_rng(5), ks, 9)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)

    @pytest.mark.parametrize("n", [1, 2, 5, 64])
    def test_no_repeated_id_within_a_row(self, n):
        rng = np.random.default_rng(n)
        ks = np.minimum(rng.integers(1, 7, size=2000), n)
        ids = sample_without_replacement(rng, ks, n)
        for k, row in zip(ks.tolist(), ids.tolist()):
            taken = row[:k]
            assert len(set(taken)) == k
            assert all(0 <= i < n for i in taken)

    def test_full_draw_is_a_permutation(self):
        ids = sample_without_replacement(
            np.random.default_rng(0), np.full(100, 6), 6
        )
        assert (np.sort(ids, axis=1) == np.arange(6)).all()

    def test_roughly_uniform_over_ids(self):
        m, k, n = 30_000, 3, 10
        ids = sample_without_replacement(np.random.default_rng(1), np.full(m, k), n)
        counts = np.bincount(ids.ravel(), minlength=n)
        # Each id is in a row with probability k/n: 9,000 expected, sd ~79.
        assert np.abs(counts - m * k / n).max() < 400

    def test_roughly_uniform_over_subsets(self):
        m, n = 20_000, 5
        ids = sample_without_replacement(np.random.default_rng(2), np.full(m, 2), n)
        counts = Counter(tuple(sorted(row)) for row in ids.tolist())
        assert set(counts) == set(itertools.combinations(range(n), 2))
        # 10 pairs, 2,000 expected each, sd ~42.
        assert max(abs(c - m / 10) for c in counts.values()) < 250

    def test_streaming_trace_uses_the_whole_pool_evenly(self):
        trace = random_trace(20_000, n_addresses=16, max_params=4, seed=8)
        uses = Counter(p.addr for t in trace for p in t.params)
        assert len(uses) == 16
        mean = sum(uses.values()) / 16
        assert max(abs(u - mean) for u in uses.values()) < 0.05 * mean
