"""Deterministic fault injection for pgsim's durability layer.

Crash-safety claims are only as good as the failures they were tested
against.  This module provides the single chokepoint through which all
durability-relevant file I/O in pgsim flows — WAL appends, WAL fsyncs,
page write-back, relation extension and the checkpoint's data-file
fsyncs — so a test can deterministically break any one of those
operations and then assert that recovery still
upholds the commit contract (committed data survives, unacknowledged
data may not resurrect partial state).

Three failure modes are modelled, matching the bug classes that
dominate crash/recovery defect reports in vector DBMSs:

- :data:`CRASH` — the process dies *before* the operation happens
  (crash-at-write-boundary).  At an fsync site this means the preceding
  writes reached the OS but the barrier never ran.
- :data:`TORN_WRITE` — a prefix of the payload reaches the medium and
  then the process dies (a torn sector/page write).
- :data:`FAIL_FSYNC` — ``fsync`` reports failure but the process
  survives.  Mirrors the *fsyncgate* class of bugs: after a failed
  fsync the kernel may have dropped the dirty pages, so retrying the
  fsync later and seeing success proves nothing.  pgsim reacts like
  PostgreSQL post-fsyncgate: the WAL enters a panic state and refuses
  further work until the database is restarted and recovered.  A
  failed data-file fsync (``disk.fsync``, issued only by a checkpoint,
  once per relation written since the last one) panics the database
  the same way, before the checkpoint record is written.

Simulated crashes are delivered as :class:`SimulatedCrash` exceptions.
Because everything runs in one process, "crash" means: the exception
propagates out of the database call, the caller abandons the instance,
and a *new* instance recovers from the files left behind.  Writes that
were issued before the crash are considered on the medium (as if the
OS flushed them); the interesting torn states are produced explicitly
by :data:`TORN_WRITE`.

Operations are counted globally in call order, so a schedule is just
``{operation_index: Fault(...)}``.  Running a workload once against a
no-fault injector and reading :attr:`FaultInjector.ops` yields the
number of boundaries to iterate a crash over — see
``tests/test_fault_injection.py``.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

#: Fault kinds (see module docstring).
CRASH = "crash"
TORN_WRITE = "torn-write"
FAIL_FSYNC = "fail-fsync"


class SimulatedCrash(RuntimeError):
    """The process died at an injected crash point.

    Deliberately *not* an :class:`OSError`: nothing in pgsim may catch
    and absorb it, the same way nothing survives ``kill -9``.
    """


class SimulatedIOError(OSError):
    """An injected, survivable I/O failure (e.g. ``fsync`` returning -1)."""


@dataclass(frozen=True, slots=True)
class Fault:
    """One scheduled failure.

    Args:
        kind: one of :data:`CRASH`, :data:`TORN_WRITE`,
            :data:`FAIL_FSYNC`.
        keep_fraction: for torn writes, the fraction of the payload
            that reaches the medium before the crash.
    """

    kind: str
    keep_fraction: float = 0.5

    def __post_init__(self) -> None:
        if self.kind not in (CRASH, TORN_WRITE, FAIL_FSYNC):
            raise ValueError(f"unknown fault kind: {self.kind!r}")
        if not 0.0 <= self.keep_fraction < 1.0:
            raise ValueError("keep_fraction must be in [0, 1)")


@dataclass(slots=True)
class FaultInjector:
    """Consulted at every durability-relevant I/O boundary.

    Each call to :meth:`write` or :meth:`fsync` consumes one operation
    index; when the schedule names that index, the fault fires.  With
    an empty schedule the injector is a pass-through that merely counts
    operations (and performs the real I/O), which is how workloads are
    sized before a crash sweep.
    """

    schedule: dict[int, Fault] = field(default_factory=dict)
    #: Next operation index (== operations performed so far).
    ops: int = 0
    #: ``(op_index, site, kind)`` of every fault that fired.
    fired: list[tuple[int, str, str]] = field(default_factory=list)

    # -- schedule builders ------------------------------------------------
    @classmethod
    def crash_at(cls, op_index: int) -> "FaultInjector":
        """Injector that crashes before operation ``op_index``."""
        return cls(schedule={op_index: Fault(CRASH)})

    @classmethod
    def torn_write_at(cls, op_index: int, keep_fraction: float = 0.5) -> "FaultInjector":
        """Injector that tears the write at ``op_index`` and crashes."""
        return cls(schedule={op_index: Fault(TORN_WRITE, keep_fraction)})

    @classmethod
    def fail_fsync_at(cls, op_index: int) -> "FaultInjector":
        """Injector whose fsync at ``op_index`` fails (process survives)."""
        return cls(schedule={op_index: Fault(FAIL_FSYNC)})

    # -- instrumented I/O -------------------------------------------------
    def write(self, site: str, fobj, payload: bytes) -> None:
        """Write ``payload`` to ``fobj``, honouring any scheduled fault."""
        fault = self._poll()
        if fault is None or fault.kind == FAIL_FSYNC:
            # FAIL_FSYNC scheduled on a write boundary is inert: the
            # write itself succeeds, only a sync barrier can fail.
            fobj.write(payload)
            return
        self._record(site, fault)
        if fault.kind == CRASH:
            raise SimulatedCrash(f"crash before {site} write (op {self.ops - 1})")
        # TORN_WRITE: a prefix lands on the medium, then the lights go out.
        keep = int(len(payload) * fault.keep_fraction)
        fobj.write(payload[:keep])
        fobj.flush()
        raise SimulatedCrash(f"torn {site} write (op {self.ops - 1}, kept {keep} bytes)")

    def fsync(self, site: str, fobj) -> None:
        """Flush+fsync ``fobj``, honouring any scheduled fault."""
        fault = self._poll()
        if fault is not None:
            self._record(site, fault)
            if fault.kind == FAIL_FSYNC:
                raise SimulatedIOError(f"fsync failed at {site} (op {self.ops - 1})")
            # CRASH and TORN_WRITE at a sync boundary both mean: the
            # preceding writes made it, the barrier did not.
            raise SimulatedCrash(f"crash before {site} fsync (op {self.ops - 1})")
        fobj.flush()
        os.fsync(fobj.fileno())

    def _poll(self) -> Fault | None:
        fault = self.schedule.get(self.ops)
        self.ops += 1
        return fault

    def _record(self, site: str, fault: Fault) -> None:
        # Only faults that actually took effect are recorded: an inert
        # FAIL_FSYNC on a write boundary does not count as "fired".
        self.fired.append((self.ops - 1, site, fault.kind))


#: Shared pass-through injector for callers that want real, unbroken I/O.
NO_FAULTS = FaultInjector()
