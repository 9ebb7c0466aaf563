"""Task traces: the workload format consumed by the Task Machine.

The paper's evaluation is trace-driven: each task carries its input/output
parameter list (base address, size, access mode — the same triple a StarSs
``#pragma css task input(...) inout(...)`` produces) plus the time it spends
executing and reading/writing its operands from/to off-chip memory.
"""

from __future__ import annotations


import json
from dataclasses import dataclass
from enum import IntEnum
from typing import Any, Callable, Iterable, Iterator, Optional

import numpy as np

__all__ = ["AccessMode", "Param", "TraceTask", "TaskTrace", "param_pool"]


class AccessMode(IntEnum):
    """StarSs parameter direction.

    ``reads`` and ``writes`` are plain member attributes fixed when the
    enum is built, so the hot loops that test them pay an attribute load,
    not a property call.
    """

    IN = (0, True, False)
    OUT = (1, False, True)
    INOUT = (2, True, True)

    reads: bool
    writes: bool

    def __new__(cls, value: int, reads: bool, writes: bool) -> "AccessMode":
        member = int.__new__(cls, value)
        member._value_ = value
        member.reads = reads
        member.writes = writes
        return member

    @classmethod
    def parse(cls, text: str) -> "AccessMode":
        try:
            return cls[text.strip().upper()]
        except KeyError:
            raise ValueError(f"unknown access mode {text!r}") from None


@dataclass(frozen=True)
class Param:
    """One task parameter: ``(base memory address, size, access mode)``.

    Dependencies are decided by comparing base addresses only, exactly as in
    the paper ("dependencies between tasks are decided by comparing the base
    addresses of the inputs/outputs").
    """

    addr: int
    size: int
    mode: AccessMode

    def __post_init__(self) -> None:
        if self.addr < 0:
            raise ValueError(f"negative address {self.addr:#x}")
        if self.size <= 0:
            raise ValueError(f"parameter size must be positive, got {self.size}")

    def __str__(self) -> str:
        return f"{self.addr:#x}/{self.size}/{self.mode.name.lower()}"


def param_pool() -> Callable[[int, int, AccessMode], Param]:
    """A ``Param`` constructor that shares one object per distinct value.

    Calling the returned function with ``(addr, size, mode)`` gives the
    same ``Param`` every time it sees the same triple, so a trace holds
    one object per distinct parameter instead of one per mention
    (``gaussian_trace(140)`` names 280 distinct row/mode values ~29k
    times).
    ``Param`` is a frozen value type, so sharing is invisible to every
    consumer that compares or hashes parameters by value — and no
    consumer may key them by identity.  One pool serves one trace build;
    it is not a process-wide cache.
    """
    pool: dict[tuple[int, int, int], Param] = {}

    def param(addr: int, size: int, mode: AccessMode) -> Param:
        key = (addr, size, mode)
        shared = pool.get(key)
        if shared is None:
            shared = pool[key] = Param(addr, size, mode)
        return shared

    return param


@dataclass(frozen=True)
class TraceTask:
    """A task instance in serial program order.

    ``exec_time``/``read_time``/``write_time`` are uncontended durations in
    picoseconds; the machine model adds queueing/contention on top.
    """

    tid: int
    func: int
    params: tuple[Param, ...]
    exec_time: int
    read_time: int = 0
    write_time: int = 0

    def __post_init__(self) -> None:
        if self.tid < 0:
            raise ValueError(f"negative task id {self.tid}")
        if not self.params:
            raise ValueError(f"task {self.tid}: needs at least one parameter")
        if self.exec_time < 0 or self.read_time < 0 or self.write_time < 0:
            raise ValueError(f"task {self.tid}: negative duration")

    @property
    def n_params(self) -> int:
        return len(self.params)

    @property
    def memory_time(self) -> int:
        """Total uncontended off-chip time (read + write phases)."""
        return self.read_time + self.write_time

    def reads(self) -> Iterator[Param]:
        return (p for p in self.params if p.mode.reads)

    def writes(self) -> Iterator[Param]:
        return (p for p in self.params if p.mode.writes)


class TaskTrace:
    """An ordered collection of tasks plus provenance metadata.

    Iteration order is serial program order — the order the master core
    generates and submits Task Descriptors.
    """

    def __init__(self, name: str, tasks: Iterable[TraceTask], meta: Optional[dict] = None):
        self.name = name
        self.tasks: list[TraceTask] = list(tasks)
        self.meta: dict[str, Any] = dict(meta or {})
        self._validate()

    def _validate(self) -> None:
        if not self.tasks:
            raise ValueError(f"trace {self.name!r} is empty")
        for i, task in enumerate(self.tasks):
            if task.tid != i:
                raise ValueError(
                    f"trace {self.name!r}: task #{i} has tid {task.tid}; "
                    "tids must equal serial position"
                )

    def __len__(self) -> int:
        return len(self.tasks)

    def __iter__(self) -> Iterator[TraceTask]:
        return iter(self.tasks)

    def __getitem__(self, tid: int) -> TraceTask:
        return self.tasks[tid]

    # ---- summary statistics ---------------------------------------------------

    @property
    def total_exec_time(self) -> int:
        return sum(t.exec_time for t in self.tasks)

    @property
    def total_memory_time(self) -> int:
        return sum(t.memory_time for t in self.tasks)

    @property
    def mean_exec_time(self) -> float:
        return self.total_exec_time / len(self.tasks)

    @property
    def mean_memory_time(self) -> float:
        return self.total_memory_time / len(self.tasks)

    @property
    def max_params(self) -> int:
        return max(t.n_params for t in self.tasks)

    def address_set(self) -> set[int]:
        return {p.addr for t in self.tasks for p in t.params}

    def describe(self) -> str:
        return (
            f"trace {self.name!r}: {len(self.tasks)} tasks, "
            f"mean exec {self.mean_exec_time / 1e6:.3g}us, "
            f"mean mem {self.mean_memory_time / 1e6:.3g}us, "
            f"max params {self.max_params}, "
            f"{len(self.address_set())} distinct addresses"
        )

    # ---- serialization -----------------------------------------------------------

    def save(self, path: str) -> None:
        """Persist to a compact ``.npz`` file (variable-length params flattened)."""
        n = len(self.tasks)
        counts = np.fromiter((t.n_params for t in self.tasks), dtype=np.int64, count=n)
        offsets = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(counts, out=offsets[1:])
        total = int(offsets[-1])
        addr = np.zeros(total, dtype=np.uint64)
        size = np.zeros(total, dtype=np.int64)
        mode = np.zeros(total, dtype=np.int8)
        pos = 0
        for t in self.tasks:
            for p in t.params:
                addr[pos] = p.addr
                size[pos] = p.size
                mode[pos] = int(p.mode)
                pos += 1
        np.savez_compressed(
            path,
            name=np.array(self.name),
            meta=np.array(json.dumps(self.meta)),
            func=np.fromiter((t.func for t in self.tasks), dtype=np.int64, count=n),
            exec_time=np.fromiter((t.exec_time for t in self.tasks), dtype=np.int64, count=n),
            read_time=np.fromiter((t.read_time for t in self.tasks), dtype=np.int64, count=n),
            write_time=np.fromiter((t.write_time for t in self.tasks), dtype=np.int64, count=n),
            param_offsets=offsets,
            param_addr=addr,
            param_size=size,
            param_mode=mode,
        )

    @classmethod
    def load(cls, path: str) -> "TaskTrace":
        """Load a trace produced by :meth:`save`."""
        with np.load(path, allow_pickle=False) as data:
            name = str(data["name"])
            meta = json.loads(str(data["meta"]))
            offsets = data["param_offsets"]
            addr = data["param_addr"]
            size = data["param_size"]
            mode = data["param_mode"]
            param = param_pool()
            tasks = []
            for tid in range(len(data["func"])):
                lo, hi = int(offsets[tid]), int(offsets[tid + 1])
                params = tuple(
                    param(int(addr[k]), int(size[k]), AccessMode(int(mode[k])))
                    for k in range(lo, hi)
                )
                tasks.append(
                    TraceTask(
                        tid=tid,
                        func=int(data["func"][tid]),
                        params=params,
                        exec_time=int(data["exec_time"][tid]),
                        read_time=int(data["read_time"][tid]),
                        write_time=int(data["write_time"][tid]),
                    )
                )
        return cls(name, tasks, meta)
