"""Named configurations matching the paper's experimental setups."""

from __future__ import annotations

from .system_config import SystemConfig

__all__ = [
    "paper_default",
    "contention_free",
    "no_prep_delay",
    "nexus_restricted",
    "fast_functional",
    "sharded_maestro",
    "multi_master",
    "pipelined_retire",
    "fast_dispatch",
    "coalesced_resolve",
    "decentral_check",
]


def paper_default(workers: int = 16, **overrides) -> SystemConfig:
    """Table IV configuration: double buffering, memory contention modeled."""
    return SystemConfig(workers=workers, **overrides)


def contention_free(workers: int = 256, **overrides) -> SystemConfig:
    """The paper's contention-free memory experiments (143x headline)."""
    return SystemConfig(workers=workers, memory_contention=False, **overrides)


def no_prep_delay(workers: int = 256, **overrides) -> SystemConfig:
    """Contention-free *and* zero task-preparation delay (221x headline)."""
    return SystemConfig(
        workers=workers, memory_contention=False, task_prep_time=0, **overrides
    )


def nexus_restricted(workers: int = 16, **overrides) -> SystemConfig:
    """Original-Nexus limitations: no dummy tasks/entries, no double buffering.

    Tasks with more than ``max_params_per_td`` parameters, or dependency
    patterns needing more than ``kickoff_list_size`` waiters on one address,
    raise :class:`repro.hw.errors.CapacityError` — the paper's argument for
    why e.g. Gaussian elimination "could not be executed by Nexus".
    """
    overrides.setdefault("buffering_depth", 1)
    return SystemConfig(workers=workers, restricted=True, **overrides)


def sharded_maestro(shards: int = 4, workers: int = 16, **overrides) -> SystemConfig:
    """Multi-Maestro machine: the Dependence Table hash-partitioned over
    ``shards`` Maestro instances on a ring interconnect (beyond the paper).

    The total Dependence Table capacity matches Table IV (each shard owns
    ``ceil(dependence_table_entries / shards)`` entries).
    """
    return SystemConfig(workers=workers, maestro_shards=shards, **overrides)


def multi_master(
    masters: int = 2,
    batch: int = 4,
    shards: int = 4,
    workers: int = 16,
    **overrides,
) -> SystemConfig:
    """Parallel submission front-end on top of the sharded Maestro (beyond
    the paper): ``masters`` master cores each submit a round-robin slice of
    the trace in DMA-style batches of ``batch`` descriptors per bus
    transaction; a sequence-numbered merge unit restores global program
    order before Write TP, so dependence resolution is unchanged.

    Defaults pair the front-end with a 4-shard Maestro — the machine PR 1's
    shard-scaling sweep showed to be master-bound.
    """
    return SystemConfig(
        workers=workers,
        master_cores=masters,
        submission_batch=batch,
        maestro_shards=shards,
        **overrides,
    )


def pipelined_retire(
    depth: int = 4,
    masters: int = 4,
    batch: int = 8,
    shards: int = 4,
    workers: int = 16,
    **overrides,
) -> SystemConfig:
    """Pipelined per-shard retirement on top of the multi-master sharded
    machine (beyond the paper): each shard's retire front-end keeps up to
    ``depth`` finishes in flight, tagging finish scatter/gather with retire
    tickets so param read, table update, reply gather and chain free of
    successive tasks overlap.

    Defaults pair the pipeline with the 4-master/4-shard machine PR 2's
    submission sweep showed to be retire-bound (the ~31 us ceiling on the
    hazard-dense bench workload).
    """
    return SystemConfig(
        workers=workers,
        retire_pipeline_depth=depth,
        master_cores=masters,
        submission_batch=batch,
        maestro_shards=shards,
        **overrides,
    )


def fast_dispatch(
    td_cache: int = 64,
    prefetch_depth: int = 2,
    depth: int = 4,
    masters: int = 4,
    batch: int = 8,
    shards: int = 4,
    workers: int = 16,
    **overrides,
) -> SystemConfig:
    """Fast-dispatch subsystem on top of the pipelined-retire machine
    (beyond the paper): per-shard TD prefetch caches of ``td_cache``
    staged descriptors pull near-ready waiters' TD chains out of the Task
    Pool ahead of the final finish->kick resolution, and the kick-off
    fast path lets the resolving shard hand a became-ready waiter
    straight to an idle local worker, skipping the home-shard forward
    hop.  Locality-aware stealing rides along (``locality_stealing``
    derives on).

    Defaults pair the subsystem with the 4-shard / 4-master / depth-4
    machine PR 3's retire sweep left *latency-bound* (~90 ns per
    dependence-chain hop on the hazard-dense bench workload).
    ``prefetch_depth`` defaults to 2 (stage a waiter's TD two unresolved
    dependences out): under the fast path the window between the last
    two resolutions shrinks to almost nothing, so the conservative
    drops-to-1 trigger misses the finishes that land back-to-back.
    """
    return SystemConfig(
        workers=workers,
        td_cache_entries=td_cache,
        td_prefetch_depth=prefetch_depth,
        kickoff_fast_path=True,
        retire_pipeline_depth=depth,
        master_cores=masters,
        submission_batch=batch,
        maestro_shards=shards,
        **overrides,
    )


def coalesced_resolve(
    coalesce: int = 8,
    td_cache: int = 64,
    prefetch_depth: int = 2,
    depth: int = 4,
    masters: int = 8,
    batch: int = 8,
    shards: int = 4,
    workers: int = 16,
    **overrides,
) -> SystemConfig:
    """Staged resolve pipeline on top of the fast-dispatch machine (beyond
    the paper): finish-notification coalescing (up to ``coalesce``
    notifications drained per resolve activation, same-row Dependence
    Table updates merged into one row access, the probe/modify stages
    pipelined across the batch) plus speculative kick-off (per-shard kick
    units overlap each waiter kick with the next notification's
    table-update commit).

    Defaults pair the pipeline with an 8-master fast-dispatch machine —
    PR 4's bench left the 4-master machine master-bound again, and with
    the front-end widened the hazard-dense workload is *resolve*-bound
    (~47 ns resolve hop), which is exactly what these knobs cut.
    """
    return SystemConfig(
        workers=workers,
        finish_coalesce_limit=coalesce,
        speculative_kickoff=True,
        td_cache_entries=td_cache,
        td_prefetch_depth=prefetch_depth,
        kickoff_fast_path=True,
        retire_pipeline_depth=depth,
        master_cores=masters,
        submission_batch=batch,
        maestro_shards=shards,
        **overrides,
    )


def decentral_check(
    check_coalesce: int = 8,
    coalesce: int = 8,
    td_cache: int = 64,
    prefetch_depth: int = 2,
    depth: int = 4,
    masters: int = 8,
    batch: int = 8,
    shards: int = 4,
    workers: int = 16,
    **overrides,
) -> SystemConfig:
    """Decentralized check scatter on top of the coalesced-resolve machine
    (beyond the paper): the central Check Scatter sequencer is replaced by
    per-master scatter slices re-sequenced per destination shard (the
    program-ordered check invariant preserved by sequence numbers, as the
    merge unit preserves submission order), and the per-shard check
    engines coalesce up to ``check_coalesce`` already-arrived probes per
    activation, merging same-row probes into one Dependence Table row
    access — the check-side mirror of finish-notification coalescing.

    Defaults pair the knobs with the full 8-master fast-dispatch stack —
    PR 5's bench left that machine's central scatter sequencer >80% busy,
    the last serialization point every probe still funnels through.
    """
    return SystemConfig(
        workers=workers,
        decentralized_check_scatter=True,
        check_coalesce_limit=check_coalesce,
        finish_coalesce_limit=coalesce,
        speculative_kickoff=True,
        td_cache_entries=td_cache,
        td_prefetch_depth=prefetch_depth,
        kickoff_fast_path=True,
        retire_pipeline_depth=depth,
        master_cores=masters,
        submission_batch=batch,
        maestro_shards=shards,
        **overrides,
    )


def fast_functional(workers: int = 4, **overrides) -> SystemConfig:
    """Small, quick configuration for functional tests (not timing studies)."""
    overrides.setdefault("memory_batch_chunks", 8)
    return SystemConfig(workers=workers, **overrides)
