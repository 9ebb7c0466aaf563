"""The benchmark's workloads: one trace generator and one machine each.

Each workload is a fixed input size on a fixed machine; the seed only
selects which random trace of that size is generated.  The rationale and
the layers each workload exercises or bypasses are in README.md.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict

from repro import gaussian_trace, paper_default
from repro.config import SystemConfig
from repro.config.presets import decentral_check
from repro.traces import TaskTrace, random_trace, wait_chain_trace

#: Seed used when ``--seed`` is not given.
DEFAULT_SEED = 1
#: Seed held back from tuning: a claimed gain must also hold on it.
HELD_OUT_SEED = 7


@dataclass(frozen=True)
class Workload:
    name: str
    #: ``seed -> trace``; a seed-free workload ignores its argument.
    make_trace: Callable[[int], TaskTrace]
    make_config: Callable[[], SystemConfig]
    seeded: bool


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        # Gaussian elimination has no random input: the same trace for
        # every seed, by construction.
        Workload(
            "paper-gauss",
            lambda seed: gaussian_trace(140),
            lambda: paper_default(workers=16),
            seeded=False,
        ),
        Workload(
            "hazard-stack",
            lambda seed: random_trace(
                8000,
                n_addresses=96,
                max_params=6,
                mean_exec=4000,
                mean_memory=0,
                seed=seed,
            ),
            lambda: decentral_check(
                workers=8, masters=4, memory_contention=False
            ),
            seeded=True,
        ),
        Workload(
            "fine-chain",
            lambda seed: wait_chain_trace(32, 320, spin_ns=250, cv=0.25, seed=seed),
            lambda: paper_default(
                workers=16, memory_contention=False, telemetry_window=1_000_000
            ),
            seeded=True,
        ),
    )
}
