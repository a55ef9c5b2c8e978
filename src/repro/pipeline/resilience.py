"""Worker supervision for the sharded analysis engine.

PR 1's collector called ``out_q.get()`` blind: a worker that segfaulted
or wedged left the whole analysis hung forever.  This module is the
layer that makes the pipeline survivable:

* **Heartbeats** — workers piggyback ``("hb", worker, attempt, ticks)``
  messages on the result queue every :data:`HEARTBEAT_INTERVAL`
  seconds of dispatch work, so the supervisor can tell *slow* from
  *wedged* without any extra channel.
* **Liveness** — :func:`collect_results` polls the queue with a short
  timeout and, between messages, checks ``Process.is_alive()`` /
  ``exitcode``.  A nonzero exitcode is an immediate failure; a worker
  that exited 0 without reporting gets a short grace period for its
  final message to drain the queue, then fails too.
* **Stall timeouts** — with ``timeout`` set, a worker whose last
  heartbeat is older than ``timeout`` seconds is terminated and
  recorded as stalled.  Every wait in the collector is bounded, so the
  engine can *never* hang, whatever the workers do.

The collector itself never retries: it reports
:class:`~repro.pipeline.resilience.WorkerFailure` records and lets the
engine decide — raise :class:`~repro.mpi.errors.WorkerCrashedError`
(recovery disabled), re-run the dead worker's shard-group with
capped-exponential backoff (each worker reads the trace file itself and
replay is deterministic, so retried verdicts are byte-identical), or
degrade to serial in-process replay of the missing shards.
"""

from __future__ import annotations

import queue as _queue
import time
from dataclasses import dataclass, field
from typing import Dict, List, Sequence

__all__ = [
    "HEARTBEAT_INTERVAL",
    "CollectOutcome",
    "WorkerFailure",
    "backoff_delay",
    "collect_results",
    "reap_processes",
]

#: seconds of dispatch work between worker heartbeats on the result queue
HEARTBEAT_INTERVAL = 0.25

#: collector poll granularity — bounds every single wait
_POLL = 0.1

#: grace for a 0-exit worker's final message to drain the queue feeder
_EXIT_GRACE = 1.5


@dataclass
class WorkerFailure:
    """One worker attempt that did not produce a result."""

    worker: int
    shards: List[int]
    #: "crashed" | "stalled" | "exited without result" | "recycle limit"
    reason: str
    exitcode: object = None
    attempt: int = 0

    def to_dict(self) -> dict:
        return {
            "worker": self.worker,
            "shards": list(self.shards),
            "reason": self.reason,
            "exitcode": self.exitcode,
            "attempt": self.attempt,
        }


@dataclass
class CollectOutcome:
    """What one supervised collection pass gathered."""

    payloads: Dict[int, list] = field(default_factory=dict)
    failures: List[WorkerFailure] = field(default_factory=list)
    #: workers whose payload is a *partial* result (deadline guard hit;
    #: they checkpointed, stopped cleanly, and are resumable)
    partial_workers: set = field(default_factory=set)
    #: memory-guard recycle requests: the worker checkpointed and exited
    #: voluntarily; respawning it is *not* a retry (no backoff, no retry
    #: budget) — entries are {"worker", "attempt", "info"} dicts
    recycled: List[dict] = field(default_factory=list)


def backoff_delay(attempt: int, *, base: float, cap: float) -> float:
    """Capped exponential backoff before retry round ``attempt`` (>= 1)."""
    return min(base * (2 ** (attempt - 1)), cap)


def _terminate(proc, patience: float = 1.0) -> None:
    """Stop one process for sure, escalating terminate -> kill."""
    if not proc.is_alive():
        proc.join(patience)
        return
    proc.terminate()
    proc.join(patience)
    if proc.is_alive():  # pragma: no cover - SIGTERM normally suffices
        proc.kill()
        proc.join(patience)


def reap_processes(procs: Sequence) -> None:
    """Terminate and join every process — the engine's cleanup path.

    Safe on already-exited processes; bounded waits throughout, so an
    interrupt (KeyboardInterrupt, SIGTERM) in the supervising parent
    leaves no orphans behind.
    """
    for proc in procs:
        if proc.is_alive():
            proc.terminate()
    for proc in procs:
        _terminate(proc)


def collect_results(
    out_q,
    procs: Dict[int, object],
    worker_shards: Sequence[Sequence[int]],
    *,
    attempts: Dict[int, int],
    timeout: float = None,
    poll: float = _POLL,
    grace: float = _EXIT_GRACE,
) -> CollectOutcome:
    """Drain worker results with liveness checks and bounded waits.

    ``procs`` maps worker id -> live ``multiprocessing.Process`` for
    this attempt; ``timeout`` is the per-worker no-heartbeat stall
    limit (``None`` disables stall detection but crash detection always
    runs).  Returns payloads for workers that finished and a
    :class:`WorkerFailure` per worker that did not; stalled workers are
    terminated before being reported.

    ``attempts`` maps worker id -> its current attempt number (workers
    in one pass may run different attempts: checkpoint resume mixes
    retried and recycled workers).  Messages tagged with any other
    attempt are dropped — a stale attempt's payload merging twice is
    exactly the double-count bug the per-attempt registry scoping
    exists to prevent.
    """
    outcome = CollectOutcome()
    pending = set(procs)
    expected = {w: attempts[w] for w in pending}
    now = time.monotonic()
    last_progress = {w: now for w in pending}
    dead_since: Dict[int, float] = {}

    def check_liveness() -> None:
        now = time.monotonic()
        for w in sorted(pending):
            proc = procs[w]
            if not proc.is_alive():
                code = proc.exitcode
                if code == 0:
                    # its final message may still be in the queue feeder
                    if w not in dead_since:
                        dead_since[w] = now
                        continue
                    if now - dead_since[w] < grace:
                        continue
                    reason = "exited without result"
                else:
                    reason = "crashed"
                pending.discard(w)
                outcome.failures.append(WorkerFailure(
                    w, list(worker_shards[w]), reason,
                    exitcode=code, attempt=expected[w],
                ))
            elif timeout is not None and now - last_progress[w] > timeout:
                _terminate(proc)
                pending.discard(w)
                outcome.failures.append(WorkerFailure(
                    w, list(worker_shards[w]), "stalled",
                    exitcode=None, attempt=expected[w],
                ))

    while pending:
        try:
            kind, worker, msg_attempt, payload = out_q.get(timeout=poll)
        except _queue.Empty:
            check_liveness()
            continue
        if worker not in pending or msg_attempt != expected[worker]:
            continue  # stale message from a previous, failed attempt
        if kind == "hb":
            last_progress[worker] = time.monotonic()
        elif kind in ("done", "partial"):
            outcome.payloads[worker] = payload
            if kind == "partial":
                outcome.partial_workers.add(worker)
            pending.discard(worker)
        elif kind == "recycle":
            # the worker checkpointed and is exiting on purpose; hand
            # the respawn decision to the engine (not a failure)
            outcome.recycled.append({
                "worker": worker, "attempt": msg_attempt, "info": payload,
            })
            pending.discard(worker)
        check_liveness()

    for worker in outcome.payloads:
        procs[worker].join()
    for rec in outcome.recycled:
        procs[rec["worker"]].join()
    return outcome
