"""One in-process ``repro serve`` daemon and a closed-loop client.

The daemon is the production pair — :class:`~repro.serve.Scheduler`
plus :class:`~repro.serve.ReproServer` — built from a default
:class:`~repro.serve.ServeConfig` (two worker threads, a checkpoint
every chunk, a 256-entry verdict cache).  One client sends one request
at a time over HTTP and waits for its terminal state before the next.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

from repro.serve import (
    ReproServer,
    Scheduler,
    ServeConfig,
    poll_job,
    request,
    submit_trace,
)
from repro.serve.client import TERMINAL_STATES

from spans import Tracer

__all__ = ["Daemon", "Reply"]

#: client poll interval while a job runs; small against the ~0.1 s cold
#: latencies measured, so polling adds little to submit->verdict
POLL_S = 0.002


@dataclass
class Reply:
    """What the client saw for one request."""

    ok: bool
    latency_s: float
    upload_s: float
    job: dict
    result: Optional[dict]


class Daemon:
    """Scheduler + HTTP listener on an ephemeral localhost port."""

    def __init__(self, state_dir: Path) -> None:
        cfg = ServeConfig(state_dir=str(state_dir), port=0)
        self.scheduler = Scheduler(
            cfg.state_dir, workers=cfg.workers, max_queue=cfg.max_queue,
            tenant_cap=cfg.tenant_cap, retries=cfg.retries,
            deadline_s=cfg.deadline_s, max_rss_mb=cfg.max_rss_mb,
            ckpt_every=cfg.ckpt_every, cache_max=cfg.cache_max,
        )
        self.scheduler.recover()
        self.scheduler.start()
        self.httpd = ReproServer(cfg, self.scheduler)
        self._thread = threading.Thread(
            target=self.httpd.serve_forever, kwargs={"poll_interval": 0.05},
            daemon=True)
        self._thread.start()
        host, port = self.httpd.server_address[:2]
        self.base = f"http://{host}:{port}"

    def instrument(self, tracer: Tracer) -> None:
        """Span every admission, cache and journal call of this daemon."""
        sched = self.scheduler
        tracer.wrap(sched, "submit_file", "serve.submit_file")
        tracer.wrap(sched.cache, "get", "cache.get")
        tracer.wrap(sched.cache, "put", "cache.put")
        tracer.wrap(sched.journal, "append", "journal.append")

    def submit(self, trace: Path, tracer: Tracer) -> Reply:
        """One closed-loop request: upload, poll to a terminal state, fetch."""
        t0 = time.perf_counter()
        with tracer.span("client.request", client=True):
            with tracer.span("client.submit_trace"):
                status, _, job = submit_trace(self.base, trace)
            upload = time.perf_counter() - t0
            if status != 202:
                return Reply(False, time.perf_counter() - t0, upload, job,
                             None)
            if job.get("state") not in TERMINAL_STATES:
                with tracer.span("client.poll_job"):
                    job = poll_job(self.base, job["id"], timeout_s=120.0,
                                   interval_s=POLL_S)
            latency = time.perf_counter() - t0
        result = None
        if job.get("state") == "done":
            with tracer.span("client.fetch_result"):
                status, _, result = request(
                    f"{self.base}/jobs/{job['id']}/result")
            if status != 200:
                result = None
        return Reply(result is not None, latency, upload, job, result)

    def close(self) -> None:
        self.httpd.shutdown()
        self.httpd.server_close()
        self._thread.join(timeout=10.0)
        self.scheduler.drain(timeout=10.0)
