"""The traced run's layer passes over one analyze trace.

``analyze_trace`` runs read, verify, decode, timeline and detect as one
call, so the benchmark splits its wall time by running each layer's
public entry point on its own, under a span:

* ``format.wire_stream``: a full :meth:`TraceReader.wire_stream` pass
  (framing, crc32, sha256 chain) — the *verify* layer;
* ``format.iter``: a full ``iter(TraceReader)`` pass; *decode* is this
  minus verify;
* ``shard.dispatch_batch``: one detector fed each trace chunk with
  ``timeline=None`` — the *detect* layer — and a second detector fed
  the same chunk with the registry's ``Timeline()``; *timeline* is the
  difference;
* ``ckpt.snapshot`` / ``ckpt.write``: after every chunk, the timeline
  leg's detector is checkpointed as a serve job's would be;
* ``detect.ingest_wire``: the flat core's fused wire ingest;
* ``format.trace_chain``: the chain index serve builds at admission.

*Residual* is the untraced ``analyze_trace`` wall minus verify, decode,
timeline and detect: what the engine adds around the layers.  The passes
run seconds apart while the machine's speed drifts, so each pass is
bracketed by CPU probes and its times are later brought to the run's
median speed before they are summed.
"""

from __future__ import annotations

from contextlib import contextmanager
from pathlib import Path
from typing import Callable, Dict, Tuple

from repro import obs
from repro.obs.registry import Registry
from repro.pipeline import DETECTOR_SPECS, TraceReader
from repro.pipeline.checkpoint import CheckpointStore
from repro.pipeline.format import trace_chain
from repro.pipeline.shard import dispatch_batch

from spans import Tracer

__all__ = ["layer_pass"]


@contextmanager
def _probed(probe: Callable[[], float], speeds: Dict[str, float], *keys):
    """Record the mean of a CPU probe before and after the block for keys."""
    before = probe()
    yield
    mean = (before + probe()) / 2
    for key in keys:
        speeds[key] = mean


def layer_pass(path: Path, ckpt_dir: Path, tracer: Tracer,
               probe: Callable[[], float]) -> Tuple[dict, dict]:
    """Run every layer once over ``path``.

    Returns the layer times in ns, and for each the CPU probe time taken
    around the pass that measured it.
    """
    reader = TraceReader(path)
    nranks = reader.nranks
    out, speeds = {}, {}

    with _probed(probe, speeds, "verify"):
        with tracer.span("format.wire_stream") as sp:
            for _ in reader.wire_stream():
                pass
    out["verify"] = sp.ns
    with _probed(probe, speeds, "iter"):
        with tracer.span("format.iter") as sp:
            for _ in reader:
                pass
    out["iter"] = sp.ns
    with _probed(probe, speeds, "chain"):
        with tracer.span("format.trace_chain") as sp:
            trace_chain(path)
    out["chain"] = sp.ns

    plain, timed = DETECTOR_SPECS["our"](), DETECTOR_SPECS["our"]()
    reg_plain, reg_timed = Registry(), Registry()
    store = CheckpointStore(ckpt_dir, "serial")
    detect = with_tl = snap_ns = write_ns = 0
    writes = ckpt_bytes = 0
    keys = ("detect", "timeline", "ckpt_snapshot", "ckpt_write")
    with _probed(probe, speeds, *keys):
        for chunk, cursor in reader.iter_chunks():
            with obs.scope(reg_plain, merge=False):
                with tracer.span("shard.dispatch_batch") as sp:
                    dispatch_batch(plain, chunk, nranks, timeline=None)
            detect += sp.ns
            with obs.scope(reg_timed, merge=False):
                with tracer.span("shard.dispatch_batch+timeline") as sp:
                    dispatch_batch(timed, chunk, nranks,
                                   timeline=reg_timed.timeline)
                with_tl += sp.ns
                with tracer.span("ckpt.snapshot") as sp:
                    snap = timed.snapshot()
                snap_ns += sp.ns
                state = {"detector": snap, "cursor": cursor,
                         "ticks": cursor["events_applied"],
                         "obs": reg_timed.snapshot(),
                         "timeline": reg_timed.timeline.snapshot()}
                with tracer.span("ckpt.write") as sp:
                    written = store.write(
                        {"detector": "our", "nranks": nranks}, state)
                write_ns += sp.ns
            writes += 1
            ckpt_bytes = written.stat().st_size
    out.update(detect=detect, timeline=with_tl - detect,
               ckpt_snapshot=snap_ns / max(writes, 1),
               ckpt_write=write_ns / max(writes, 1), ckpt_bytes=ckpt_bytes)

    wire_det = DETECTOR_SPECS["our"]()
    wire = reader.wire_stream()
    wire_ns = 0
    with obs.scope(Registry(), merge=False), \
            _probed(probe, speeds, "wire_detect"):
        with tracer.span("detect.wire_pass"):
            for payload, off, nevents in wire:
                with tracer.span("detect.ingest_wire") as sp:
                    wire_det.ingest_wire(payload, off, nevents, wire, nranks)
                wire_ns += sp.ns
    out["wire_detect"] = wire_ns
    return out, speeds
