"""Parity and metrics tests for the sharded analysis engine.

The load-bearing property: ``analyze_trace(..., jobs=4)`` must report
byte-identical verdicts to a single-threaded ``replay_trace`` over the
same trace, for every detector.
"""

import json

import pytest

from repro.mpi import load_trace, replay_trace
from repro.pipeline import DETECTOR_SPECS, analyze_trace, canonical_verdicts


def _serial_verdicts(trace_path, detector):
    det = replay_trace(load_trace(trace_path), DETECTOR_SPECS[detector]())
    return json.dumps(canonical_verdicts(det.reports), sort_keys=True)


def _pipeline_verdicts(result):
    return json.dumps(result.verdicts, sort_keys=True)


class TestVerdictParity:
    @pytest.mark.parametrize("detector", sorted(DETECTOR_SPECS))
    def test_minivite_jobs4_matches_serial(self, minivite_trace, detector):
        result = analyze_trace(minivite_trace, detector=detector, jobs=4)
        assert result.jobs == 4
        assert _pipeline_verdicts(result) == \
            _serial_verdicts(minivite_trace, detector)

    @pytest.mark.parametrize("detector", ["our", "rma"])
    def test_cfd_jobs4_matches_serial(self, cfd_trace, detector):
        result = analyze_trace(cfd_trace, detector=detector, jobs=4)
        assert _pipeline_verdicts(result) == \
            _serial_verdicts(cfd_trace, detector)

    def test_injected_race_is_found(self, minivite_trace):
        result = analyze_trace(minivite_trace, detector="our", jobs=4)
        assert result.races > 0

    def test_jobs1_equals_jobs4(self, minivite_trace):
        one = analyze_trace(minivite_trace, detector="our", jobs=1)
        four = analyze_trace(minivite_trace, detector="our", jobs=4)
        assert _pipeline_verdicts(one) == _pipeline_verdicts(four)

    def test_odd_job_counts(self, minivite_trace):
        baseline = _serial_verdicts(minivite_trace, "our")
        for jobs in (2, 3):
            result = analyze_trace(minivite_trace, detector="our", jobs=jobs)
            assert _pipeline_verdicts(result) == baseline, jobs


class TestMetrics:
    def test_shard_stats_cover_all_ranks(self, minivite_trace):
        result = analyze_trace(minivite_trace, detector="our", jobs=4)
        assert [s.shard for s in result.shard_stats] == [0, 1, 2, 3]
        assert all(s.events > 0 for s in result.shard_stats)
        assert all(s.peak_nodes > 0 for s in result.shard_stats)
        assert sum(s.races for s in result.shard_stats) >= result.races

    def test_throughput_metrics(self, minivite_trace):
        result = analyze_trace(minivite_trace, detector="our", jobs=2)
        assert result.wall_seconds > 0
        assert result.events_per_sec > 0
        assert result.events_total == len(load_trace(minivite_trace).log)

    def test_to_dict_is_json_serializable(self, minivite_trace):
        result = analyze_trace(minivite_trace, detector="our", jobs=2)
        d = json.loads(json.dumps(result.to_dict()))
        assert d["races"] == result.races
        assert d["jobs"] == 2
        assert d["dispatch"] == "file"
        assert "queue_peak" not in d
        assert len(d["shards"]) == 4


class TestInputHandling:
    def test_loaded_trace_source(self, minivite_trace):
        loaded = load_trace(minivite_trace)
        result = analyze_trace(loaded, detector="our", jobs=1)
        assert result.dispatch == "serial"
        assert _pipeline_verdicts(result) == \
            _serial_verdicts(minivite_trace, "our")

    def test_jobs_clamped_to_nranks(self, minivite_trace):
        result = analyze_trace(minivite_trace, detector="our", jobs=64)
        assert result.jobs == 4

    def test_unknown_detector_rejected(self, minivite_trace):
        with pytest.raises(ValueError, match="unknown detector"):
            analyze_trace(minivite_trace, detector="tsan")

    def test_unknown_dispatch_rejected(self, minivite_trace):
        for dispatch in ("sorted", "queue"):
            with pytest.raises(ValueError, match="queue dispatch was removed"):
                analyze_trace(minivite_trace, dispatch=dispatch)

    def test_file_dispatch_needs_path(self, minivite_trace):
        loaded = load_trace(minivite_trace)
        with pytest.raises(ValueError, match="path"):
            analyze_trace(loaded, jobs=2)
