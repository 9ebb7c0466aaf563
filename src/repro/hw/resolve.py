"""The staged resolve pipeline: finish notifications to waiter kick-off.

The finish/resolve path — everything between a worker raising its
task-finished line and a released waiter landing on a ready list — used to
be smeared across two monolithic loops (the single Maestro's Handle
Finished, the sharded Maestro's finish engines).  This module is that path
as one shared subsystem of block bodies (the ``write_tp_block`` /
``send_tds_block`` pattern of :mod:`repro.hw.maestro`), restructured as
three explicit stages so the timing model lives in exactly one place and
the two optimizations below apply to *both* engines:

* **Notify intake** — pop the trigger queue (the ``finished_notify`` line
  in the single Maestro, a shard's finish inbox in the sharded one) and,
  with coalescing on, drain up to ``finish_coalesce_limit`` further
  already-arrived notifications into one batch (:func:`notify_drain` /
  :func:`inbox_drain`).  A notification still in flight is never waited
  for.
* **Dependence-table update** — apply the batch's updates to the
  Dependence Table (:func:`table_update_block`).  Updates hitting the
  same table row are merged into a single row access: the hash probe is
  paid once per row per batch (``row_latched`` in
  :meth:`~repro.hw.dependence_table.DependenceTable.finish_param`),
  while Kick-Off List manipulations still pay their way.  Per-address
  finish order is preserved — batches drain in arrival order and
  same-row updates apply in that order within the merged access —
  which is ARCHITECTURE.md invariant 5.
* **Waiter kick** — decrement each granted waiter's Dependence Counter
  (:func:`waiter_kick_block`) and hand became-ready tasks on (ready
  list, forward hop, or the fast-dispatch kick-off fast path).  With
  ``speculative_kickoff`` on, the kicks are posted to a per-shard **kick
  unit** (:meth:`ResolvePipeline.kick_unit`) instead of running inline,
  so the kick of one notification's waiter overlaps the table-update
  commit of the *next* notification.  The kick unit arbitrates for the
  same Task Pool ports as every other Maestro block and preserves kick
  order per shard (a FIFO hand-off), so no bandwidth is conjured and
  duplicate grants of the same waiter commute exactly as they did
  inline.

With both knobs at their defaults (``finish_coalesce_limit=1``,
``speculative_kickoff=False``) none of this changes the machines: batches
are single notifications, row merging never triggers, no kick queues or
kick-unit processes exist — both engines are cycle-for-cycle the
pre-resolve-pipeline machines (differential-tested against recorded
goldens in ``tests/integration/test_resolve_differential.py``).

The *check* side of the machine reuses the same staging discipline:
:func:`inbox_drain` / :func:`check_update_block` (driven by
:class:`CheckPipeline`) are the check-flavored intake and table-update
stages — a batch of already-arrived check probes per check-engine
activation, same-row probes merged into one hash-probe access
(``row_latched`` in
:meth:`~repro.hw.dependence_table.DependenceTable.check_param`), the
probe/insert stages pipelined across the batch.  Gated by
``check_coalesce_limit`` and differential-tested in
``tests/integration/test_check_differential.py``.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from ..sim import Fifo

__all__ = [
    "ResolvePipeline",
    "CheckPipeline",
    "notify_drain",
    "inbox_drain",
    "table_update_block",
    "check_update_block",
    "waiter_kick_block",
]


def notify_drain(fab, first, limit: int) -> list:
    """Stage 1 (single-Maestro flavor): coalesce finished-notify pops.

    ``first`` is the core id already popped off the ``finished_notify``
    line (the activation trigger; its 1-cycle acknowledge is charged by
    the caller).  Drains further already-queued notifications, up to
    ``limit`` in all, in zero time.  Returns the list of notifying core
    ids, arrival order.
    """
    cores = [first]
    while len(cores) < limit:
        nxt = fab.finished_notify.try_get()
        if nxt is None:
            break
        cores.append(nxt)
    return cores


def inbox_drain(fab, inbox: Fifo, first, limit: int) -> list:
    """Stage 1 (sharded flavor): coalesce a shard's finish- or
    check-inbox drain.

    ``first`` is the stamped message's payload already received (and
    waited out) by the engine.  Drains further messages whose stamped
    arrival time has passed, up to ``limit`` in all, in zero time — a
    message still in flight on the ring is *not* waited for, so
    coalescing never delays a batch for traffic that has not physically
    arrived.  Returns the payload list, arrival order.
    """
    msgs = [first]
    now = fab.sim.now
    while len(msgs) < limit:
        head = inbox.peek()
        if head is None or head[0] > now:
            break
        msgs.append(inbox.try_get()[1])
    return msgs


def check_update_block(fab, shard: int, msgs, check: "CheckPipeline"):
    """Stage 2 (check flavor): apply a batch of dependence checks to one
    shard's Dependence Table slice.

    ``msgs`` is the batch's ordered ``(head, home, param, n_params)``
    check-message list.  Probes are grouped by table row (insertion
    order, so per-address order within the batch is arrival order); each
    group costs one port arbitration and one merged access — the first
    probe pays the hash lookup (and any insert), the rest find the row
    latched; a later row's first probe pipelines with the previous row's
    commit.  A batch of one is cycle-for-cycle the paper's Listing 2
    loop.  Blocked tasks get their Dependence Counter bumped and every
    probe's reply travels to its own home shard, in batch order per row
    group — a coalesced batch never delays an early group's replies
    behind an unrelated row.
    """
    sim = fab.sim
    table = fab.dep_shards[shard]
    port = fab.dt_ports[shard]
    pipelined = check.coalesce_limit > 1
    pending = list(msgs)
    commits = 0
    while pending:
        # A check may need fresh table slots (a new address entry or a
        # Kick-Off dummy, at most one per probe).  The free-slot wait must
        # precede the port grab: the finish engine that frees slots
        # arbitrates for the same port, so waiting while holding it would
        # deadlock the shard.  One slot per probe is reserved
        # conservatively.
        while not table.free_slots:
            fab.dt_freed_shard[shard].clear()
            yield fab.dt_freed_shard[shard].wait()
        row = pending[0][2].addr
        if table.free_slots >= len(pending):
            # Room for every probe left: merge the earliest row's probes.
            group = [m for m in pending if m[2].addr == row]
            pending = [m for m in pending if m[2].addr != row]
        else:
            # Slots are scarce: commit in arrival order, merging only the
            # leading run of same-row probes that fits.  A later probe
            # that jumped ahead to join its row could take the last slot
            # from an earlier probe whose task must be checked first —
            # waiting on a slot only a task checked behind it frees.
            run = 1
            while (run < table.free_slots and run < len(pending)
                   and pending[run][2].addr == row):
                run += 1
            group, pending = pending[:run], pending[run:]
        yield port.acquire()
        accesses_total = 0
        results = []
        for i, (head, home, param, n) in enumerate(group):
            blocked, accesses = table.check_param(
                head, param.addr, param.size,
                param.mode.reads, param.mode.writes,
                # Same-row probes after the first find the row latched
                # (the first probe touched or inserted the entry); a
                # later row's first probe hides behind the previous
                # row's write-back.  The batch's very first probe pays
                # full price — a batch of one is Listing 2 exactly.
                row_latched=i > 0,
                probe_overlapped=pipelined and i == 0 and commits > 0,
            )
            accesses_total += accesses
            results.append((head, home, n, blocked))
        commits += 1
        yield sim.timeout(accesses_total * fab.on_chip)
        port.release()
        for head, home, n, blocked in results:
            if blocked:
                yield fab.tp_port.acquire()
                fab.task_pool.add_dependence(head)
                yield sim.timeout(fab.on_chip)
                fab.tp_port.release()
            yield fab.reply_inbox[home].put(
                fab.icn.message(shard, home, (head, n))
            )
    check.note_batch(len(msgs), commits)


def table_update_block(fab, table, port, freed, updates,
                       resolve: Optional["ResolvePipeline"] = None,
                       on_grants=None, grants_early: bool = False):
    """Stage 2: apply a batch of finish updates to one Dependence Table.

    ``updates`` is the batch's ordered ``(releaser_head, param)`` list;
    ``table``/``port``/``freed`` are the engine's table, port and
    slots-freed signal (the central ones in the single Maestro, a shard's
    own in the sharded one) — the timing body is shared so the resolve
    charge cannot drift between engines.  Updates are grouped by table
    row (insertion order, so per-address order within the batch is
    arrival order); each group costs one port arbitration and one merged
    access — the first update pays the hash probe, the rest find the row
    latched.  A batch of one is cycle-for-cycle the paper's
    per-parameter loop.

    ``on_grants`` (a generator function taking the group's ordered
    ``(releaser_head, waiter_head)`` grants) is invoked per row group,
    so a waiter released by the batch's first row is kicked while the
    remaining rows still update — a coalesced batch never delays an
    early grant behind an unrelated row.  Without it the grants are
    collected and returned.  ``grants_early`` is the speculative-kickoff
    overlap: the grants are handed on the moment the row's grant
    decision is computed, *before* the row's commit latency elapses —
    safe because a computed grant is final (the Kick-Off pops committed
    with the row write-back can only be re-read, never revoked), and it
    is what lets a kick overlap the table-update commit instead of
    following it.  Only a decoupled kick unit may take grants early; an
    inline caller doing its own kick work must leave it False.
    """
    sim = fab.sim
    # The probe/modify pipelining below is part of the *coalesced* drain
    # model: without coalescing the engine processes updates one
    # notification at a time, exactly as the paper's loop, and no probe
    # has a predecessor's write-back to hide behind.
    pipelined = resolve is not None and resolve.coalesce_limit > 1
    groups: Dict[int, List[Tuple[int, object]]] = {}
    for head, param in updates:
        groups.setdefault(param.addr, []).append((head, param))
    granted: List[Tuple[int, int]] = []
    for g, group in enumerate(groups.values()):
        yield port.acquire()
        accesses_total = 0
        group_grants: List[Tuple[int, int]] = []
        for i, (head, param) in enumerate(group):
            kicked, accesses = table.finish_param(
                head, param.addr, param.mode.reads, param.mode.writes,
                # Same-row updates after the first find the row latched;
                # a later row's first update has its probe pipelined with
                # the previous row's write-back (the table's probe/modify
                # stages stream a drained batch).  The batch's very first
                # update pays full price — a batch of one is the paper's
                # loop exactly.
                row_latched=i > 0,
                probe_overlapped=pipelined and i == 0 and g > 0,
            )
            accesses_total += accesses
            group_grants.extend((head, waiter) for waiter in kicked)
        if grants_early and on_grants is not None:
            yield from on_grants(group_grants)
        yield sim.timeout(accesses_total * fab.on_chip)
        port.release()
        freed.set()
        if on_grants is not None:
            if not grants_early:
                yield from on_grants(group_grants)
        else:
            granted.extend(group_grants)
    if resolve is not None:
        resolve.note_batch(len(updates), len(groups))
    return granted


def waiter_kick_block(fab, waiter_head: int):
    """Stage 3 core: decrement one waiter's Dependence Counter.

    One Task Pool port arbitration plus one access — identical for both
    engines and for inline vs. speculative kicks, so the kick charge
    cannot drift.  Returns True when the waiter became ready.
    """
    yield fab.tp_port.acquire()
    became_ready = fab.task_pool.resolve_dependence(waiter_head)
    yield fab.sim.timeout(fab.on_chip)
    fab.tp_port.release()
    return became_ready


class ResolvePipeline:
    """Owner of the staged-resolve state: knobs, kick queues, counters.

    Built by the :class:`~repro.hw.fabric.Fabric` for every machine (the
    counters are free bookkeeping), but the speculative kick queues and
    kick-unit processes exist only when ``speculative_kickoff`` is on —
    a knobs-off machine carries no extra FIFOs, processes or events.
    The kick-unit *processes* are started by the owning Maestro (they
    are Maestro blocks); this class provides the shared body.
    """

    def __init__(self, fabric) -> None:
        self.fabric = fabric
        config = fabric.config
        self.coalesce_limit = config.finish_coalesce_limit
        self.speculative = config.speculative_kickoff
        #: One kick queue per shard (one total on the single Maestro).
        self.kick_queues: List[Fifo] = []
        if self.speculative:
            # Sized for every in-flight grant: a waiter is granted at most
            # once per parameter, so outstanding kicks are bounded by the
            # in-flight parameter count — the queue can never deadlock the
            # resolve stage that fills it.
            cap = config.task_pool_entries * config.max_params_per_td
            self.kick_queues = [
                Fifo(fabric.sim, cap, f"s{s}-kick-queue", track_occupancy=True)
                for s in range(fabric.n_shards if fabric.sharded else 1)
            ]
        # ---- statistics ------------------------------------------------------
        #: Resolve activations (one per drained batch).
        self.batches = 0
        #: Table updates applied (one per finished parameter).
        self.updates = 0
        #: Updates that found their row latched by an earlier update of
        #: the same batch (the merged row accesses).
        self.row_merges = 0
        #: Largest update batch one activation applied.
        self.max_batch = 0
        #: Kicks handed to the kick units instead of running inline.
        self.speculative_kicks = 0

    # ---- coalescing bookkeeping --------------------------------------------------

    def note_batch(self, n_updates: int, n_rows: int) -> None:
        """Record one table-update batch (stats only, no events)."""
        self.batches += 1
        self.updates += n_updates
        self.row_merges += n_updates - n_rows
        if n_updates > self.max_batch:
            self.max_batch = n_updates

    # ---- speculative kick-off ----------------------------------------------------

    def post_kick(self, shard: int, releaser_tid: int, waiter_head: int):
        """Waitable that hands one kick to ``shard``'s kick unit.

        The releaser's trace tid is captured eagerly: with the kick
        decoupled from the resolve loop, the releasing task can retire
        (and leave the in-flight map) before the kick unit runs.
        """
        self.speculative_kicks += 1
        return self.kick_queues[shard].put((releaser_tid, waiter_head))

    def kick_unit(self, shard: int, busy, handler):
        """Process body of ``shard``'s kick unit (stage 3, decoupled).

        Drains the shard's kick queue in FIFO order and runs ``handler``
        — the owning engine's kick body (Dependence Counter decrement
        plus its engine-specific became-ready hand-off) — for each.
        FIFO order per shard preserves the inline kick order, so
        duplicate grants of one waiter commute exactly as before.
        """
        queue = self.kick_queues[shard]
        while True:
            releaser_tid, waiter_head = yield queue.get()
            busy.begin()
            yield from handler(releaser_tid, waiter_head)
            busy.end()

    # ---- reporting ---------------------------------------------------------------

    def stats(self) -> dict:
        out = {
            "coalesce_limit": self.coalesce_limit,
            "speculative_kickoff": self.speculative,
            "batches": self.batches,
            "updates": self.updates,
            "mean_batch": self.updates / self.batches if self.batches else 0.0,
            "max_batch": self.max_batch,
            "row_merges": self.row_merges,
            "coalesce_rate": (
                self.row_merges / self.updates if self.updates else 0.0
            ),
            "speculative_kicks": self.speculative_kicks,
        }
        return out


class CheckPipeline:
    """Owner of the check-path state: knobs and coalescing counters.

    The check-side mirror of :class:`ResolvePipeline`: built by the
    :class:`~repro.hw.fabric.Fabric` for every machine (the counters are
    free bookkeeping), but the scatter slices and per-destination
    re-sequencers exist only when ``decentralized_check_scatter`` is on —
    a knobs-off machine carries no extra FIFOs, processes or events and
    keeps the central program-ordered scatter sequencer.
    """

    def __init__(self, fabric) -> None:
        self.fabric = fabric
        config = fabric.config
        self.coalesce_limit = config.check_coalesce_limit
        self.decentralized = config.decentralized_check_scatter
        # ---- statistics ------------------------------------------------------
        #: Check-engine activations (one per drained batch).
        self.batches = 0
        #: Dependence checks applied (one per parameter probe).
        self.probes = 0
        #: Probes that found their row latched by an earlier probe of the
        #: same batch (the merged row accesses).
        self.row_merges = 0
        #: Largest probe batch one activation applied.
        self.max_batch = 0

    # ---- coalescing bookkeeping --------------------------------------------------

    def note_batch(self, n_probes: int, n_rows: int) -> None:
        """Record one check batch (stats only, no events)."""
        self.batches += 1
        self.probes += n_probes
        self.row_merges += n_probes - n_rows
        if n_probes > self.max_batch:
            self.max_batch = n_probes

    # ---- reporting ---------------------------------------------------------------

    def stats(self) -> dict:
        return {
            "decentralized_scatter": self.decentralized,
            "coalesce_limit": self.coalesce_limit,
            "batches": self.batches,
            "probes": self.probes,
            "mean_batch": self.probes / self.batches if self.batches else 0.0,
            "max_batch": self.max_batch,
            "row_merges": self.row_merges,
            "coalesce_rate": (
                self.row_merges / self.probes if self.probes else 0.0
            ),
        }
