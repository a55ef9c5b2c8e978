"""Deterministic fault plans injected into the analysis engine.

A :class:`FaultPlan` is a picklable bundle of *actions* handed to
``analyze_trace(fault_plan=...)``.  The engine forwards the plan to
every worker process, and each worker calls :meth:`FaultPlan.fire`
after every dispatch tick (one dispatched own-shard event).  An action
fires when its ``worker``, ``after_batches`` tick and ``attempt`` all
match — and because replay is deterministic, so is the fault: the same
plan against the same trace kills or stalls the same worker at the same
point every run.

``attempt`` selects which run attempt of the worker a fault hits:
``0`` (the default) faults only the first attempt, so a supervised
retry succeeds and the chaos tests can assert verdict parity after
recovery; ``None`` faults *every* attempt, exhausting the retry budget
and forcing the degraded serial path.

:class:`WriterCrash` is the recorder-side counterpart: passed as the
``fault_hook`` of a trace writer, it raises
:class:`SimulatedWriterCrash` after a chosen chunk flush (or at close),
modelling a recorder that dies mid-write.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field
from typing import Optional, Tuple

__all__ = [
    "FaultPlan",
    "KillWorker",
    "SimulatedWriterCrash",
    "StallWorker",
    "WriterCrash",
]


@dataclass(frozen=True)
class KillWorker:
    """Hard-kill worker ``worker`` at dispatch tick ``after_batches``.

    The kill is ``os._exit`` — no cleanup, no result message, exactly
    what a segfault or an OOM kill looks like to the supervisor.
    """

    worker: int
    after_batches: int = 1
    attempt: Optional[int] = 0  #: None = every attempt
    exitcode: int = 17


@dataclass(frozen=True)
class StallWorker:
    """Wedge worker ``worker`` at tick ``after_batches`` for ``seconds``.

    The default stall is far beyond any sane supervision timeout, so
    the worker looks hung, not slow.
    """

    worker: int
    after_batches: int = 1
    attempt: Optional[int] = 0  #: None = every attempt
    seconds: float = 3600.0


#: per-process memory of fired actions — workers are forked per attempt,
#: so this marks each (action, worker, attempt) one-shot within a worker
_FIRED = set()


@dataclass(frozen=True)
class FaultPlan:
    """A deterministic, seeded set of faults for one analysis run."""

    actions: Tuple = ()
    seed: int = 0  #: carried for file corruptors built from the plan

    def fire(self, worker: int, attempt: int, ticks: int) -> None:
        """Called from worker processes after each dispatch tick.

        Triggers use ``ticks >= after_batches`` with one-shot latching
        (file workers can skip tick values when one event dispatches to
        two owned shards), so a plan fires exactly once per attempt at
        the first tick past its threshold.
        """
        for i, action in enumerate(self.actions):
            if action.worker != worker or ticks < action.after_batches:
                continue
            if action.attempt is not None and action.attempt != attempt:
                continue
            key = (i, worker, attempt)
            if key in _FIRED:
                continue
            _FIRED.add(key)
            if isinstance(action, KillWorker):
                os._exit(action.exitcode)
            elif isinstance(action, StallWorker):
                time.sleep(action.seconds)


class SimulatedWriterCrash(RuntimeError):
    """Raised by :class:`WriterCrash` to model a recorder dying mid-write."""


@dataclass
class WriterCrash:
    """Trace-writer ``fault_hook`` that dies after ``after_chunks`` flushes.

    With ``stage="close"`` the crash happens during finalize instead —
    after every chunk hit disk but before the trailer and the atomic
    rename, the nastiest recorder failure to clean up after.
    """

    after_chunks: int = 1
    stage: str = "chunk"
    fired: bool = field(default=False, compare=False)

    def __call__(self, stage: str, n: int) -> None:
        if self.fired:
            return
        if stage == self.stage and (stage == "close"
                                    or n >= self.after_chunks):
            self.fired = True
            raise SimulatedWriterCrash(
                f"injected recorder crash at {stage} {n}"
            )
