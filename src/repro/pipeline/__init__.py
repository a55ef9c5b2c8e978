"""Sharded parallel trace-analysis pipeline.

The paper's detector is on-the-fly and per-window: every access is
checked against one window's BST.  Analysis of a *recorded* execution is
therefore embarrassingly parallel across per-rank shards, which this
subsystem exploits end to end:

* :mod:`repro.pipeline.format` — the ``repro-trace-v2`` chunked binary
  format with streaming writer/reader (auto-detects and still reads the
  v1 JSON-lines format),
* :mod:`repro.pipeline.shard` — event routing by memory rank, with sync
  events replicated so every shard sees the full ordering skeleton,
* :mod:`repro.pipeline.engine` — the multiprocessing worker pool
  (each worker reads the trace file itself and keeps its own shards'
  events) and the deterministic aggregator,
* :mod:`repro.pipeline.resilience` — worker supervision: heartbeats,
  stall timeouts, crash detection, and the retry/degrade machinery
  that keeps a crashed or wedged worker from sinking the analysis,
* :mod:`repro.pipeline.checkpoint` — crash-consistent ``repro-ckpt-v1``
  checkpoints of in-flight detector state, so retries resume mid-trace
  and the deadline/memory guards leave resumable partial runs,
* :mod:`repro.pipeline.record` — ``repro record``: run an app with a
  constant-memory streaming recorder attached.

Quickstart::

    from repro.pipeline import analyze_trace, record_app

    record_app("minivite", nranks=8, out="mv.trace")
    result = analyze_trace("mv.trace", detector="our", jobs=4)
    print(result.races, round(result.events_per_sec), "events/s")

Any existing :class:`~repro.mpi.interposition.DetectorProtocol` detector
runs unchanged — the pipeline instantiates one per shard and merges
verdicts afterwards.
"""

from .checkpoint import (
    CKPT_MAGIC,
    CKPT_SCHEMA,
    CheckpointError,
    CheckpointPlan,
    CheckpointStore,
    TraceDivergedError,
)
from .engine import (
    DETECTOR_SPECS,
    PipelineResult,
    ShardStats,
    analyze_trace,
    canonical_verdicts,
    detector_display_name,
)
from .format import (
    CHAIN_ALGO,
    FORMAT_V1,
    FORMAT_V2,
    MAGIC_V2,
    BinaryTraceWriter,
    JsonTraceWriter,
    TraceReader,
    compare_chain,
    make_trace_writer,
    trace_chain,
)
from .record import RECORDABLE_APPS, AppSpec, RecordResult, record_app
from .resilience import (
    HEARTBEAT_INTERVAL,
    CollectOutcome,
    WorkerFailure,
    backoff_delay,
    collect_results,
)
from .shard import ReplayWindow, dispatch_event, own_reports, shards_of

__all__ = [
    "AppSpec",
    "BinaryTraceWriter",
    "CHAIN_ALGO",
    "CKPT_MAGIC",
    "CKPT_SCHEMA",
    "CheckpointError",
    "CheckpointPlan",
    "CheckpointStore",
    "CollectOutcome",
    "DETECTOR_SPECS",
    "FORMAT_V1",
    "FORMAT_V2",
    "HEARTBEAT_INTERVAL",
    "JsonTraceWriter",
    "MAGIC_V2",
    "PipelineResult",
    "RECORDABLE_APPS",
    "RecordResult",
    "ReplayWindow",
    "ShardStats",
    "TraceDivergedError",
    "TraceReader",
    "WorkerFailure",
    "analyze_trace",
    "backoff_delay",
    "canonical_verdicts",
    "collect_results",
    "compare_chain",
    "detector_display_name",
    "dispatch_event",
    "make_trace_writer",
    "own_reports",
    "record_app",
    "shards_of",
    "trace_chain",
]
