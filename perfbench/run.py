#!/usr/bin/env python3
"""The repository's benchmark: default ``repro analyze`` and ``repro serve``.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload cfd-halo --seed 1 --seconds 20

Workloads and metrics are declared in ``BENCHMARK.json``; which end-to-end
metric each per-layer metric should move, and on which workload, is in
``perfbench/layer_map.json``.  One run of a workload:

1. **Set-up**, three rounds.  A round records the workload's analyze trace
   and a third of its serve traces from seeded app configs, grows the
   traces picked for grown requests by 10%, starts a daemon in a fresh
   state directory and warms it with one job.  ``setup_s`` is the median
   round.  The last round's daemon serves the run.
2. **Measure** for ``--seconds``, interleaving three kinds of operation
   so that every metric samples the whole window (the machine's speed
   drifts over seconds):

   * *serve*: one client, closed loop, submits the next request of a
     seeded mix of cold, cached and grown requests and times
     submit->verdict;
   * *analyze*: ``analyze_trace(path)`` on the analyze trace in the
     default configuration;
   * *sharded*: the same with ``jobs=2, dispatch="file"`` — a
     non-default setting, never the headline.

   The next operation is always of the kind furthest below its share of
   the time spent (the workload's weights).
3. **Check**: every served result is compared with a direct
   ``analyze_trace`` of the same file, every analysis of the analyze trace
   with the first one (verdicts and forensics, byte for byte), and race
   counts with the app's ground truth.

With ``--trace 0`` the run prints the end-to-end metrics.  With ``--trace
1`` it records spans around each layer call instead (``layers.py``,
``serveload.py``), writes them to ``.perfbench/`` when it ends, and
prints the per-layer metrics, each span's self time, the layer-sum check
and the tracing overhead.  The last line of standard output is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics``.

Timings are reported at a reference machine speed.  Between operations,
at most every 0.1 s, the run times a fixed stdlib-only CPU probe
(:func:`cpu_probe`); every time is multiplied, and every rate divided, by
``PROBE_REF_S / median(probe)``.  The shared machine's speed drifts by up
to 2x within minutes, and the probe tracks that drift; the raw values are
printed in the notes and kept in ``.perfbench/result-*.json``.

A run in an environment that sets a ``REPRO_*`` knob is not the default
configuration: it is marked non-comparable and reports ``correct: false``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"

#: set-up rounds per run; ``setup_s`` is their median
SETUP_ROUNDS = 3

#: the CPU probe's median at the reference speed every timing is scaled
#: to (roughly its time on an unloaded 2-CPU Xeon VM)
PROBE_REF_S = 0.004

#: time between two probes: the run's probes sample its whole span
#: evenly, as the interleaved operations do
PROBE_EVERY_S = 0.1

#: the layer-sum check tolerates layers that overshoot the untraced
#: wall by this share of it: the layers are timed in separate passes,
#: and on a shared 2-CPU VM one pass's time varies by up to 20%
LAYER_SUM_TOLERANCE = 0.25


def _median(xs):
    return statistics.median(xs) if xs else None


def cpu_probe() -> float:
    """Seconds for a fixed stdlib-only workload: the run's speed gauge.

    The machine's speed drifts by up to 2x over tens of seconds when
    other tenants load its cores, far beyond any useful bound, so every
    reported timing is scaled by ``PROBE_REF_S / median(probe)`` of its
    own run (raw values are kept in the notes).  The probe runs no
    repository code, and with the collector off its cost does not
    depend on how much memory the program holds.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        table = {(i, i * 7 % 13): [i, str(i)] for i in range(5000)}
        sorted(table, key=lambda k: (k[1], -k[0]))
        sum(len(v[1]) for v in table.values())
        return time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


def scaled(metrics: dict, scale: float) -> dict:
    """Timings at the reference speed: times times ``scale``, rates over it."""
    factor = {"s": scale, "ms": scale, "ns": scale, "1/s": 1.0 / scale}
    return {name: (None if v is None else v * factor.get(unit, 1.0), unit)
            for name, (v, unit) in metrics.items()}


def _rate(events, walls):
    """Throughput over all ops: events analyzed per second spent analyzing.

    The machine's speed drifts over seconds, so per-op rates spread over
    several modes; the pooled rate moves smoothly with the time spent in
    each, where a median would jump between them.
    """
    return events * len(walls) / sum(walls) if walls else None


def _tail(xs):
    """The highest percentile with at least ten samples beyond it.

    Returns ``(value, percentile)``; with ten samples or fewer there is no
    such percentile and the median is returned with percentile 50.
    """
    xs = sorted(xs)
    if len(xs) <= 10:
        return _median(xs), 50
    return xs[len(xs) - 11], 100 * (len(xs) - 10) // len(xs)


def provenance() -> dict:
    """Where and how this run was made; ``comparable`` is the config guard."""
    knobs = {k: v for k, v in sorted(os.environ.items())
             if k.startswith("REPRO_")}
    git_sha = None
    try:
        out = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
            capture_output=True, text=True, timeout=10,
        ).stdout.split()
        # a checkout that is not itself a repository has no sha of its
        # own (src_sha256 identifies the code either way)
        if len(out) == 2 and Path(out[0]).resolve() == ROOT:
            git_sha = out[1]
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    model = None
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "git_sha": git_sha,
        "src_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu_model": model,
        "pythonhashseed": os.environ.get("PYTHONHASHSEED"),
        "repro_env": knobs,
        "comparable": not knobs,
    }


def _identity(res) -> str:
    """The bytes two analyses of one trace must agree on."""
    if not isinstance(res, dict):
        res = {"verdicts": res.verdicts, "forensics": res.forensics,
               "events_total": res.events_total}
    return json.dumps({"verdicts": res["verdicts"],
                       "forensics": res["forensics"],
                       "events_total": res["events_total"]}, sort_keys=True)


class Bench:
    """One run of one workload: set-up, interleaved measurement, checks."""

    def __init__(self, args) -> None:
        from spans import Tracer
        from workloads import TINY, WORKLOADS, serve_schedule

        self.args = args
        self.wl = wl = WORKLOADS[args.workload]
        self.analyze_size, self.serve_size = wl.analyze_size, wl.serve_size
        self.n_cold, n_grown = wl.n_cold, wl.n_grown
        if args.tiny:
            self.analyze_size, self.serve_size = TINY[wl.name]
            self.n_cold, n_grown = 3, 1
        self.traced = bool(args.trace)
        self.tracer = Tracer(enabled=self.traced)
        self.attempted = 0
        self.failures = []
        self.work = OUT / f"work-{wl.name}-{os.getpid()}"
        self.schedule = serve_schedule(args.seed, self.n_cold, n_grown)
        self.cold = [self.work / f"cold-{i}.trace" for i in range(self.n_cold)]
        self.grown = {i: self.work / f"grown-{i}.trace"
                      for kind, i in self.schedule if kind == "grown"}
        self.grown_chunks = {}
        self.record_events = self.record_ns = 0
        self.daemon = None
        # measurements
        self.probes = []
        self.last_probe = 0.0
        self.setup_s = []
        self.lat = {"cold": [], "cached": [], "grown": []}
        self.served = {"cold": {}, "grown": {}}
        self.walls, self.layer_runs, self.shard_runs = [], [], []
        self.layer_walls = []
        self.ref = None
        self.events = None
        self.detect_counts = {}
        self.serve_stats = {"upload": [], "analyze": [], "wait": [],
                            "writes": [], "hits": 0, "cached": 0,
                            "skipped": 0, "chunks": 0,
                            "traced_cold": [], "untraced_cold": []}

    # -- bookkeeping ----------------------------------------------------------

    def op(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failures.append(what)
            print(f"FAILED: {what}", flush=True)
        return ok

    def probe(self) -> None:
        """Probe the machine's speed if the last probe is older than
        PROBE_EVERY_S; called between operations, never inside one."""
        if time.perf_counter() - self.last_probe >= PROBE_EVERY_S:
            self.probes.append(cpu_probe())
            self.last_probe = time.perf_counter()

    def _record(self, index: int, size: int, path: Path) -> None:
        from workloads import record

        with self.tracer.span("pipeline.record"):
            t0 = time.perf_counter_ns()
            self.record_events += record(self.wl, self.args.seed, index,
                                         size, path)
            self.record_ns += time.perf_counter_ns() - t0

    # -- 1. set-up ------------------------------------------------------------

    def setup(self) -> None:
        from repro.serve import trace_sha256

        from serveload import Daemon
        from workloads import grow

        shutil.rmtree(self.work, ignore_errors=True)
        self.work.mkdir(parents=True)
        analyze_paths = []
        for r in range(SETUP_ROUNDS):
            if self.daemon is not None:
                self.daemon.close()
                self.daemon = None
            self.tracer.op = f"setup-{r}"
            self.probe()
            t0 = time.perf_counter()
            path = self.work / f"analyze-{r}.trace"
            self._record(self.n_cold + SETUP_ROUNDS, self.analyze_size, path)
            analyze_paths.append(path)
            for i in range(r, self.n_cold, SETUP_ROUNDS):
                self._record(i, self.serve_size, self.cold[i])
                if i in self.grown:
                    self.grown_chunks[i] = grow(self.cold[i], self.grown[i])
            warm = self.work / f"warm-{r}.trace"
            self._record(self.n_cold + r, self.serve_size, warm)
            self.daemon = Daemon(self.work / f"state-{r}")
            reply = self.daemon.submit(warm, self.tracer)
            self.setup_s.append(time.perf_counter() - t0)
            self.op(reply.ok, f"warm-up job ended {reply.job.get('state')}")
        self.apath = analyze_paths[0]
        first = self.apath.read_bytes()
        self.op(all(p.read_bytes() == first for p in analyze_paths[1:]),
                "re-recording the analyze trace with one seed changed it")
        serve_traces = self.cold + list(self.grown.values()) + [
            self.work / f"warm-{r}.trace" for r in range(SETUP_ROUNDS)]
        shas = {trace_sha256(p) for p in serve_traces}
        self.op(len(shas) == len(serve_traces),
                "two serve traces are identical, so a cold request would "
                "be a cache hit")
        if self.traced:
            self.daemon.instrument(self.tracer)

    # -- 2. operations --------------------------------------------------------

    def serve_step(self, k: int) -> None:
        kind, i = self.schedule[k]
        tracer = self.tracer
        # in the traced run every other request runs untraced, so the
        # tracing overhead is measured on the same mix
        tracer.enabled = self.traced and k % 2 == 0
        tracer.op = f"serve-{k}-{kind}-{i}"
        path = self.grown[i] if kind == "grown" else self.cold[i]
        reply = self.daemon.submit(path, tracer)
        tracer.enabled = self.traced
        job = reply.job
        resumed = job.get("resumed") or []
        if kind == "cold":
            shape = not job.get("cached") and not resumed
        elif kind == "cached":
            shape = bool(job.get("cached"))
            self.serve_stats["cached"] += 1
            self.serve_stats["hits"] += shape
        else:
            shape = bool(resumed and resumed[0]["chunks_skipped"] > 0)
        if not self.op(reply.ok and shape,
                       f"serve {kind} request for trace {i}: state "
                       f"{job.get('state')}, cached {job.get('cached')}, "
                       f"resumed {resumed}"):
            return
        self.lat[kind].append(reply.latency_s)
        ident = _identity(reply.result)
        if kind == "cached":
            if i in self.served["cold"]:
                self.op(ident == self.served["cold"][i],
                        f"cached result for trace {i} differs from its "
                        "cold result")
        else:
            self.served[kind][i] = ident
        stats = self.serve_stats
        if kind == "cold":
            stats["traced_cold" if k % 2 == 0 else "untraced_cold"].append(
                reply.latency_s)
            stats["writes"].append(
                (reply.result.get("checkpoint") or {}).get("written"))
        elif kind == "grown":
            stats["skipped"] += resumed[0]["chunks_skipped"]
            stats["chunks"] += self.grown_chunks[i]["chunks_after"]
        if not (self.traced and k % 2 == 0):
            return
        stats["upload"].append(reply.upload_s * 1e3)
        if kind == "cold":
            analyze_s = job.get("wall_seconds") or 0.0
            stats["analyze"].append(analyze_s * 1e3)
            stats["wait"].append(
                (reply.latency_s - reply.upload_s - analyze_s) * 1e3)

    def analyze_step(self, k: int) -> None:
        from repro.pipeline import analyze_trace

        from layers import layer_pass

        self.tracer.op = f"analyze-{k}"
        before = cpu_probe() if self.traced else None
        with self.tracer.span("engine.analyze_trace"):
            t0 = time.perf_counter()
            res = analyze_trace(self.apath)
            wall = time.perf_counter() - t0
        ident = _identity(res)
        if self.ref is None:
            self.ref = ident
            self.events = res.events_total
            self.op((res.races > 0) == self.wl.racy,
                    f"analyze found {res.races} races on a "
                    f"{'racy' if self.wl.racy else 'race-free'} trace")
            self.detect_counts = _detect_counts(res)
        if self.op(ident == self.ref, f"analyze op {k} differs from op 0"):
            self.walls.append(wall)
        if self.traced:
            # the untraced wall, and the probe around it, for the layer sum
            self.layer_walls.append((wall, (before + cpu_probe()) / 2))
            self.layer_runs.append(layer_pass(
                self.apath, self.work / "ckpt", self.tracer, cpu_probe))

    def sharded_step(self, k: int) -> None:
        from repro.pipeline import analyze_trace

        self.tracer.op = f"sharded-{k}"
        with self.tracer.span("engine.analyze_trace[jobs=2]"):
            t0 = time.perf_counter()
            res = analyze_trace(self.apath, jobs=2, dispatch="file")
            wall = time.perf_counter() - t0
        if self.op(_identity(res) == self.ref and not res.degraded,
                   f"sharded op {k} differs from the serial analysis"):
            self.shard_runs.append((wall, res))

    def measure(self) -> None:
        """Interleave the operations by the workload's time shares."""
        weights = dict(zip(("analyze", "sharded", "serve"), self.wl.weights))
        steps = {"analyze": self.analyze_step, "sharded": self.sharded_step,
                 "serve": self.serve_step}
        done = {name: 0 for name in steps}
        spent = {name: 0.0 for name in steps}

        def covered(name):
            if name == "serve":
                return all(self.lat.values())
            return done[name] > 0

        end = time.perf_counter() + self.args.seconds
        while True:
            live = [n for n in steps
                    if n != "serve" or done["serve"] < len(self.schedule)]
            if time.perf_counter() > end:
                live = [n for n in live if not covered(n)]
            if not live:
                break
            # ties go to the first kind, so the reference analysis runs first
            name = min(live, key=lambda n: spent[n] / weights[n])
            self.probe()
            t0 = time.perf_counter()
            steps[name](done[name])
            spent[name] += time.perf_counter() - t0
            done[name] += 1

    # -- 3. checks ------------------------------------------------------------

    def check_served(self) -> None:
        from repro.pipeline import analyze_trace

        self.tracer.op = "check"
        for kind, results in self.served.items():
            for i, ident in sorted(results.items()):
                path = self.grown[i] if kind == "grown" else self.cold[i]
                direct = analyze_trace(path)
                self.op(ident == _identity(direct),
                        f"served {kind} result for trace {i} differs from "
                        "a direct analyze_trace")
                self.op((direct.races > 0) == self.wl.racy,
                        f"{kind} trace {i}: {direct.races} races, ground "
                        f"truth {'racy' if self.wl.racy else 'race-free'}")

    def close(self) -> None:
        if self.daemon is not None:
            self.daemon.close()
            self.daemon = None
        shutil.rmtree(self.work, ignore_errors=True)

    # -- metrics --------------------------------------------------------------

    def end_to_end(self) -> dict:
        cold_tail, _ = _tail(self.lat["cold"])
        return {
            "analyze_events_per_s": (_rate(self.events, self.walls), "1/s"),
            "sharded_events_per_s": (
                _rate(self.events, [w for w, _ in self.shard_runs]), "1/s"),
            "cold_verdict_s_p50": (_median(self.lat["cold"]), "s"),
            "cold_verdict_s_tail": (cold_tail, "s"),
            "grown_verdict_s_p50": (_median(self.lat["grown"]), "s"),
            "cached_verdict_s_p50": (_median(self.lat["cached"]), "s"),
            "setup_s": (_median(self.setup_s), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF)
                            .ru_maxrss / 1024.0, "MB"),
            "ok_frac": (1.0 - len(self.failures) / max(self.attempted, 1),
                        "frac"),
        }

    def time_scale(self) -> float:
        return PROBE_REF_S / _median(self.probes)

    def notes(self) -> dict:
        return {
            "analyze_events": self.events,
            "samples": {"analyze": len(self.walls),
                        "sharded": len(self.shard_runs),
                        **{k: len(v) for k, v in self.lat.items()},
                        "setup_rounds": len(self.setup_s)},
            "cold_tail_percentile": _tail(self.lat["cold"])[1],
            "probes": len(self.probes),
            "probe_median_ms": _median(self.probes) * 1e3,
            "failed_frac": len(self.failures) / max(self.attempted, 1),
        }

    def per_layer(self):
        """Per-layer metrics of a traced run, plus the layer-sum table."""
        runs, events = self.layer_runs, self.events
        # each pass's times at the run's median speed (see layers.py)
        speed = _median(self.probes)
        med = {key: _median([out[key] * speed / speeds.get(key, speed)
                             for out, speeds in runs])
               for key in runs[0][0]}
        wall_ns = _median([w * speed / p for w, p in self.layer_walls]) * 1e9
        verify = med["verify"]
        decode = med["iter"] - med["verify"]
        residual = wall_ns - verify - decode - med["timeline"] - med["detect"]
        self.op(residual >= -LAYER_SUM_TOLERANCE * wall_ns,
                f"layer sum exceeds the untraced wall: residual "
                f"{residual / 1e6:.1f} ms of {wall_ns / 1e6:.1f} ms")
        shard_events, worker_max = [], []
        for _, res in self.shard_runs:
            shard_events.append(sum(s.events for s in res.shard_stats))
            # with jobs=2, worker w owns shards w, w+2, ... (engine split)
            per_worker = [0, 0]
            for s in res.shard_stats:
                per_worker[s.shard % 2] += s.events
            worker_max.append(max(per_worker) / sum(per_worker))
        stats = self.serve_stats
        spans_ms = self.tracer.durations_ms
        metrics = {
            "format.verify_ns_per_event": (verify / events, "ns"),
            "format.decode_ns_per_event": (decode / events, "ns"),
            "format.chain_ms": (med["chain"] / 1e6, "ms"),
            "timeline.ns_per_event": (med["timeline"] / events, "ns"),
            "detect.decoded_ns_per_event": (med["detect"] / events, "ns"),
            "detect.wire_ns_per_event": (med["wire_detect"] / events, "ns"),
            **{k: (v, "count") for k, v in self.detect_counts.items()},
            "ckpt.snapshot_ms": (med["ckpt_snapshot"] / 1e6, "ms"),
            "ckpt.write_ms": (med["ckpt_write"] / 1e6, "ms"),
            "ckpt.bytes": (med["ckpt_bytes"], "B"),
            "ckpt.writes_per_job": (_median(stats["writes"]), "count"),
            "engine.residual_ns_per_event": (residual / events, "ns"),
            "layers.residual_frac": (residual / wall_ns, "frac"),
            "shard.useful_frac": (events / _median(shard_events), "frac"),
            "shard.max_worker_frac": (_median(worker_max), "frac"),
            "shard.overhead_s": (_median([w for w, _ in self.shard_runs])
                                 - _median(self.walls), "s"),
            "serve.upload_ms": (_median(stats["upload"]), "ms"),
            "serve.admission_ms": (_median(spans_ms("serve.submit_file")),
                                   "ms"),
            "serve.analyze_ms": (_median(stats["analyze"]), "ms"),
            "serve.wait_ms": (_median(stats["wait"]), "ms"),
            "cache.get_ms": (_median(spans_ms("cache.get")), "ms"),
            "cache.put_ms": (_median(spans_ms("cache.put")), "ms"),
            "journal.append_ms": (_median(spans_ms("journal.append")), "ms"),
            "serve.cache_hit_frac": (stats["hits"] / max(stats["cached"], 1),
                                     "frac"),
            "serve.chunks_skipped_frac": (stats["skipped"]
                                          / max(stats["chunks"], 1), "frac"),
            "record.events_per_s": (self.record_events
                                    / (self.record_ns / 1e9), "1/s"),
            "trace.overhead_frac": (_median(stats["traced_cold"])
                                    / _median(stats["untraced_cold"]) - 1.0,
                                    "frac"),
        }
        layer_sum = {
            "untraced_wall_ms": wall_ns / 1e6,
            "verify_ms": verify / 1e6,
            "decode_ms": decode / 1e6,
            "timeline_ms": med["timeline"] / 1e6,
            "detect_ms": med["detect"] / 1e6,
            "residual_ms": residual / 1e6,
            "tolerance_frac": LAYER_SUM_TOLERANCE,
            "layer_passes": len(runs),
        }
        self_ms = {name: ns / 1e6
                   for name, ns in sorted(self.tracer.self_ns().items())}
        return metrics, {"layer_sum": layer_sum, "self_ms": self_ms}


def _detect_counts(res) -> dict:
    """Exact store counters of one default analysis (its obs snapshot)."""
    snap = res.obs or {}

    def pick(table, name):
        return [v for k, v in snap.get(table, {}).items()
                if k.split("{")[0] == name]

    fan = pick("histograms", "bst.query_fanout")
    queries = sum(h["n"] for h in fan)
    return {
        "detect.peak_nodes": max(s.peak_nodes for s in res.shard_stats),
        "detect.inserts": sum(pick("counters", "bst.inserts")),
        "detect.removals": sum(pick("counters", "bst.removals")),
        "detect.queries": sum(pick("counters", "bst.queries")),
        "detect.fanout_mean": (sum(h["total"] for h in fan) / queries
                               if queries else 0.0),
        "detect.races": res.races,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="tiny traces and few requests (smoke test)")
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: {SRC}/repro not found; run from the root of a "
              "checkout of the repository", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; have "
              f"{sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("perfbench: --seconds must be positive", file=sys.stderr)
        return 2

    prov = provenance()
    bench = Bench(args)
    try:
        bench.setup()
        bench.measure()
        bench.daemon.close()
        bench.daemon = None
        bench.check_served()
    finally:
        bench.close()
    if bench.traced:
        metrics, layer_notes = bench.per_layer()
        bench.tracer.dump(OUT / f"spans-{args.workload}-seed{args.seed}.json")
    else:
        metrics, layer_notes = bench.end_to_end(), {}
    notes = {**bench.notes(), **layer_notes}
    notes["raw"] = {name: v for name, (v, _) in metrics.items()}
    metrics = scaled(metrics, bench.time_scale())

    print("provenance: " + json.dumps(prov, sort_keys=True))
    print("notes: " + json.dumps(notes, sort_keys=True))
    for name, (value, unit) in metrics.items():
        print(f"{name:32s} {value!s:>24} {unit}")
    correct = not bench.failures and prov["comparable"]
    if not prov["comparable"]:
        print("NOT COMPARABLE: REPRO_* knobs set: "
              + ", ".join(prov["repro_env"]))
    missing = [n for n, (v, _) in metrics.items() if v is None]
    if missing:
        correct = False
        print("MISSING: " + ", ".join(missing))
    result = {
        "correct": correct,
        "attempted": bench.attempted,
        "failed": len(bench.failures),
        "metrics": {n: {"value": v, "unit": u}
                    for n, (v, u) in metrics.items() if v is not None},
    }
    with open(OUT / f"result-{args.workload}-seed{args.seed}"
                    f"-trace{args.trace}.json", "w") as fh:
        json.dump({**result, "provenance": prov, "notes": notes,
                   "failures": bench.failures}, fh, indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
