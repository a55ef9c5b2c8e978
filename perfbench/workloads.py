"""Seeded trace families and the benchmark's three workloads.

Every trace is recorded here, from an app config derived from the run's
``--seed``, through the same streaming path ``repro record`` uses
(``make_trace_writer`` + ``StreamingTraceLog`` + ``World.run``).  The
program under test only ever receives the resulting trace files.

Each workload names one app family and sizes two kinds of trace from it:

* the *analyze trace*, analyzed repeatedly by ``analyze_trace`` (serial
  default configuration, and sharded over two processes);
* the *serve traces*: distinct traces submitted once each to the daemon
  as cold requests, resubmitted unchanged as cached requests, and grown
  by 10% (``extend_trace``) as grown requests.
"""

from __future__ import annotations

import random
import shutil
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, List, Tuple

from repro.apps import (
    CfdConfig,
    CfdResult,
    HistogramConfig,
    HistogramResult,
    MiniViteConfig,
    MiniViteResult,
    cfd_program,
    default_graph,
    default_partitions,
    histogram_program,
    make_comm_plan,
    minivite_program,
)
from repro.faultinject import extend_trace
from repro.mpi import World
from repro.mpi.trace import StreamingTraceLog
from repro.pipeline.format import make_trace_writer

__all__ = ["NRANKS", "TINY", "WORKLOADS", "Workload", "grow", "record",
           "serve_schedule"]

NRANKS = 4

#: a program builder: (seed, index, size) -> (program, args)
Builder = Callable[[int, int, int], Tuple[Callable, tuple]]


def _cfd(seed: int, index: int, iterations: int):
    # CFD-Proxy has no RNG: the seed and the trace index pick the halo
    # width (cells_per_rank * halo_fraction), which sets the size and
    # offset of every halo put; indices below 48 give distinct traces
    halo = 16 + (seed * 37 + index) % 48
    config = CfdConfig(iterations=iterations, cells_per_rank=20 * halo)
    return cfd_program, (default_partitions(NRANKS, config), config,
                         CfdResult())


def _histogram(seed: int, index: int, samples: int):
    config = HistogramConfig(samples_per_rank=samples,
                             seed=seed * 1000 + index)
    return histogram_program, (config, HistogramResult())


def _minivite(seed: int, index: int, vertices: int):
    config = MiniViteConfig(nvertices=vertices, inject_put_race=True,
                            seed=seed * 1000 + index)
    graph = default_graph(config)
    return minivite_program, (graph, make_comm_plan(graph, NRANKS), config,
                              MiniViteResult())


@dataclass(frozen=True)
class Workload:
    name: str
    builder: Builder
    #: ground truth: does every trace of this family hold a race?
    racy: bool
    #: app size of the analyze trace and of each serve trace
    analyze_size: int
    serve_size: int
    #: distinct cold traces, and how many of them are also grown
    n_cold: int
    n_grown: int
    #: share of ``--seconds`` for the analyze, sharded and serve phases
    weights: Tuple[float, float, float]


#: why each workload was chosen is stated in BENCHMARK.json
WORKLOADS: Dict[str, Workload] = {w.name: w for w in (
    Workload("cfd-halo", _cfd, racy=False,
             analyze_size=100, serve_size=6, n_cold=40, n_grown=24,
             weights=(0.40, 0.30, 0.30)),
    Workload("histogram-accum", _histogram, racy=False,
             analyze_size=4096, serve_size=256, n_cold=40, n_grown=24,
             weights=(0.40, 0.30, 0.30)),
    Workload("serve-minivite", _minivite, racy=True,
             analyze_size=2048, serve_size=2048, n_cold=24, n_grown=12,
             weights=(0.20, 0.18, 0.62)),
)}

#: sizes for the benchmark's own smoke test (``--tiny``)
TINY = {"cfd-halo": (4, 2), "histogram-accum": (128, 64),
        "serve-minivite": (256, 256)}


def record(workload: Workload, seed: int, index: int, size: int,
           path: Path) -> int:
    """Record one trace of the workload's family; returns its event count."""
    program, args = workload.builder(seed, index, size)
    with make_trace_writer(path, nranks=NRANKS, format="binary") as writer:
        World(NRANKS, [], trace=StreamingTraceLog(writer.write)).run(
            program, *args)
    return writer.events_written


def grow(src: Path, dst: Path) -> dict:
    """Copy a trace and append 10% more events through the real append path."""
    shutil.copyfile(src, dst)
    return extend_trace(dst, fraction=0.1)


def serve_schedule(seed: int, n_cold: int, n_grown: int
                   ) -> List[Tuple[str, int]]:
    """The closed loop's request order: ``(kind, trace index)`` pairs.

    Every cold trace is later resubmitted twice unchanged (``cached``);
    ``n_grown`` of them, picked by the seed, are also resubmitted grown.
    A trace's follow-ups are shuffled in after the next cold request, so
    the cache and the prefix-ancestor index grow as the run goes on.
    """
    rng = random.Random(seed)
    grown = set(rng.sample(range(n_cold), min(n_grown, n_cold)))
    ops: List[Tuple[str, int]] = []
    pending: List[Tuple[str, int]] = []
    for i in range(n_cold):
        ops.append(("cold", i))
        rng.shuffle(pending)
        ops.extend(pending)
        pending = [("cached", i)] * 2 + (
            [("grown", i)] if i in grown else [])
    rng.shuffle(pending)
    ops.extend(pending)
    return ops
