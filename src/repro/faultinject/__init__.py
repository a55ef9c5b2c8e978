"""Fault injection for the analysis runtime — chaos, made deterministic.

A resilience claim is only as good as the failures it has been shown to
survive.  This package provides seeded, reproducible fault *plans*
against the pipeline (kill a worker after batch *k*, stall one past the
supervision timeout) and the trace files themselves (flip payload bytes
in chunk *j*, truncate mid-chunk, smash a frame tag), plus a simulated
recorder crash for the atomic-finalize path.  The chaos suite under
``tests/resilience/`` drives every plan and asserts that analysis
either recovers to byte-identical verdicts or degrades cleanly with
accurate loss accounting — never hangs, never lies.

Quickstart::

    from repro.faultinject import FaultPlan, KillWorker, flip_bytes
    from repro.pipeline import analyze_trace

    plan = FaultPlan(actions=(KillWorker(worker=1, after_batches=2),))
    result = analyze_trace("mv.trace", jobs=4,
                           fault_plan=plan)      # retried, full verdicts

    flip_bytes("mv.trace", chunk=3, seed=7)
    result = analyze_trace("mv.trace", salvage=True)  # chunk 3 quarantined
"""

from .corrupt import (
    ChunkInfo,
    chunk_index,
    corrupt_checkpoint,
    corrupt_chunk_tag,
    corrupt_journal_record,
    flip_bytes,
    truncate_mid_chunk,
)
from .incremental import (
    append_mid_analysis,
    extend_trace,
    patch_chunk,
    rewrite_prefix,
    truncate_tail_mid_append,
)
from .daemon import (
    KillAfterCheckpoints,
    StallAfterCheckpoints,
    install_serve_faults_from_env,
    kill_daemon,
    sever_mid_upload,
)
from .plan import (
    FaultPlan,
    KillWorker,
    SimulatedWriterCrash,
    StallWorker,
    WriterCrash,
)

__all__ = [
    "ChunkInfo",
    "FaultPlan",
    "KillAfterCheckpoints",
    "KillWorker",
    "SimulatedWriterCrash",
    "StallAfterCheckpoints",
    "StallWorker",
    "WriterCrash",
    "append_mid_analysis",
    "chunk_index",
    "corrupt_checkpoint",
    "corrupt_chunk_tag",
    "corrupt_journal_record",
    "extend_trace",
    "flip_bytes",
    "install_serve_faults_from_env",
    "kill_daemon",
    "patch_chunk",
    "rewrite_prefix",
    "sever_mid_upload",
    "truncate_mid_chunk",
    "truncate_tail_mid_append",
]
