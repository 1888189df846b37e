"""Perf-regression suite: gate logic and an end-to-end quick run."""

import json

import pytest

from repro.bench import check_gates, embed_throughput, run_perf_suite
from repro.cli import main as cli_main


def _payload(embed=None, tracegen=None):
    return {
        "embed": embed if embed is not None else [],
        "tracegen": tracegen if tracegen is not None else [],
        "serve": None,
    }


def _embed_point(k=8, speedup=2.0, diff=0.0):
    return {"k": k, "num_nodes": 100, "sequential_seconds": speedup,
            "batched_seconds": 1.0, "speedup": speedup,
            "max_abs_diff": diff}


def _obs_point(ratio=1.0, off_ms=2.0, identical=True):
    return {"requests": 32, "off_p50_ms": off_ms,
            "on_p50_ms": off_ms * ratio, "overhead_ratio": ratio,
            "predictions_identical": identical}


def _refit_point(promoted=True, deterministic=True, ratio=1.0,
                 off_ms=2.0, candidate_mae=0.01, incumbent_mae=5.0):
    return {
        "store_records": 24, "snapshot_digest": "a" * 20,
        "candidate_version": "v-" + "b" * 12, "promoted": promoted,
        "families": {"alexnet": {"family": "alexnet",
                                 "candidate_mae": candidate_mae,
                                 "incumbent_mae": incumbent_mae,
                                 "ernest_mae": 1.0, "gp_mae": 0.5,
                                 "rows": 6, "candidate_wins": True}},
        "deterministic": deterministic,
        "shadow_off_p50_ms": off_ms,
        "shadow_on_p50_ms": off_ms * ratio,
        "shadow_overhead_ratio": ratio,
    }


class TestCheckGates:
    def test_clean_payload_passes(self):
        payload = _payload(
            embed=[_embed_point(k=1, speedup=0.5), _embed_point(k=8)],
            tracegen=[{"workers": 4, "identical_to_serial": True}])
        assert check_gates(payload) == []

    def test_nonzero_diff_fails(self):
        payload = _payload(embed=[_embed_point(diff=1e-16)])
        failures = check_gates(payload)
        assert len(failures) == 1
        assert "differs from" in failures[0]

    def test_slow_batched_embed_fails_at_large_k(self):
        payload = _payload(embed=[_embed_point(k=8, speedup=0.8)])
        assert any("below gate" in f for f in check_gates(payload))

    def test_k1_is_exempt_from_the_speedup_gate(self):
        payload = _payload(embed=[_embed_point(k=1, speedup=0.5)])
        assert check_gates(payload) == []

    def test_min_speedup_is_configurable(self):
        payload = _payload(embed=[_embed_point(k=32, speedup=2.0)])
        assert check_gates(payload, min_speedup=1.5) == []
        assert check_gates(payload, min_speedup=3.0) != []

    def test_tracegen_mismatch_fails(self):
        payload = _payload(
            tracegen=[{"workers": 4, "identical_to_serial": False}])
        assert any("records differ" in f for f in check_gates(payload))

    def test_obs_within_budget_passes(self):
        payload = dict(_payload(), obs=_obs_point(ratio=1.03))
        assert check_gates(payload) == []

    def test_obs_overhead_beyond_budget_fails(self):
        payload = dict(_payload(), obs=_obs_point(ratio=1.50))
        assert any("observability on" in f
                   for f in check_gates(payload))

    def test_obs_slack_absorbs_jitter_at_tiny_p50(self):
        # 50% over budget but only 0.05ms absolute: scheduler noise,
        # not a regression.
        payload = dict(_payload(), obs=_obs_point(ratio=1.50,
                                                  off_ms=0.1))
        assert check_gates(payload) == []

    def test_obs_changed_predictions_always_fail(self):
        payload = dict(_payload(), obs=_obs_point(identical=False))
        failures = check_gates(payload)
        assert any("bitwise contract" in f for f in failures)

    def test_refit_clean_point_passes(self):
        payload = dict(_payload(), refit=_refit_point())
        assert check_gates(payload) == []

    def test_refit_not_promoted_fails(self):
        payload = dict(_payload(), refit=_refit_point(promoted=False))
        assert any("promotion gate" in f for f in check_gates(payload))

    def test_refit_family_mae_regression_fails(self):
        payload = dict(_payload(),
                       refit=_refit_point(candidate_mae=9.0,
                                          incumbent_mae=5.0))
        assert any("above incumbent" in f for f in check_gates(payload))

    def test_refit_nondeterminism_fails(self):
        payload = dict(_payload(),
                       refit=_refit_point(deterministic=False))
        assert any("diverged" in f for f in check_gates(payload))

    def test_refit_shadow_over_budget_fails(self):
        payload = dict(_payload(), refit=_refit_point(ratio=1.50))
        assert any("shadow mirroring" in f
                   for f in check_gates(payload))

    def test_refit_shadow_slack_absorbs_tiny_p50(self):
        # Over the ratio budget but only 0.05ms absolute: noise.
        payload = dict(_payload(), refit=_refit_point(ratio=1.50,
                                                      off_ms=0.1))
        assert check_gates(payload) == []

    def test_legacy_payload_without_refit_key_passes(self):
        assert check_gates(_payload()) == []


def _tracegen_point(workers, pps, identical=True):
    return {"workers": workers, "points": 36, "seconds": 36.0 / pps,
            "points_per_sec": pps, "identical_to_serial": identical}


class TestParallelThroughputGate:
    """Non-quick runs must show workers>1 actually beating serial."""

    def test_slow_parallel_fails_on_full_run(self):
        payload = dict(_payload(
            tracegen=[_tracegen_point(1, 400.0),
                      _tracegen_point(4, 300.0)]), quick=False, cpus=4)
        assert any("must beat serial" in f
                   for f in check_gates(payload))

    def test_fast_parallel_passes_on_full_run(self):
        payload = dict(_payload(
            tracegen=[_tracegen_point(1, 400.0),
                      _tracegen_point(4, 800.0)]), quick=False, cpus=4)
        assert check_gates(payload) == []

    def test_single_cpu_host_gets_the_overhead_bound(self):
        # workers=4 cannot beat serial on one CPU; the gate degrades
        # to a dispatch-overhead floor (default 0.65x) instead.
        tracegen = [_tracegen_point(1, 400.0),
                    _tracegen_point(4, 340.0)]
        near = dict(_payload(tracegen=tracegen), quick=False, cpus=1)
        assert check_gates(near) == []
        far = dict(_payload(
            tracegen=[_tracegen_point(1, 400.0),
                      _tracegen_point(4, 200.0)]), quick=False, cpus=1)
        assert any("dispatch overhead" in f for f in check_gates(far))

    def test_legacy_payload_without_cpus_key_is_strict(self):
        payload = dict(_payload(
            tracegen=[_tracegen_point(1, 400.0),
                      _tracegen_point(4, 300.0)]), quick=False)
        assert any("must beat serial" in f
                   for f in check_gates(payload))

    def test_quick_payload_skips_the_throughput_gate(self):
        # Quick sweeps are too small to amortize even a warm dispatch.
        payload = dict(_payload(
            tracegen=[_tracegen_point(1, 400.0),
                      _tracegen_point(4, 100.0)]), quick=True)
        assert check_gates(payload) == []

    def test_legacy_payload_without_quick_key_skips(self):
        payload = _payload(
            tracegen=[_tracegen_point(1, 400.0),
                      _tracegen_point(4, 100.0)])
        assert check_gates(payload) == []

    def test_min_parallel_ratio_is_configurable(self):
        payload = dict(_payload(
            tracegen=[_tracegen_point(1, 400.0),
                      _tracegen_point(4, 500.0)]), quick=False)
        assert check_gates(payload) == []
        assert check_gates(payload, min_parallel_ratio=2.0) != []

    def test_mismatch_still_fails_on_full_run(self):
        payload = dict(_payload(
            tracegen=[_tracegen_point(1, 400.0),
                      _tracegen_point(4, 800.0, identical=False)]),
            quick=False)
        assert any("records differ" in f for f in check_gates(payload))


@pytest.mark.slow
class TestPerfSuiteEndToEnd:
    def test_embed_throughput_reports_zero_diff(self):
        points = embed_throughput((1, 4), hidden_dim=8,
                                  models=["resnet18", "alexnet"])
        assert [p.k for p in points] == [1, 4]
        assert all(p.max_abs_diff == 0.0 for p in points)
        assert all(p.sequential_seconds > 0 for p in points)

    def test_quick_suite_passes_its_own_gates(self):
        payload = run_perf_suite(quick=True)
        assert payload["quick"] is True
        assert payload["serve"] is None
        assert check_gates(payload) == []
        json.dumps(payload)  # payload must be JSON-serializable

    def test_cli_bench_quick_writes_payload(self, tmp_path, capsys):
        out = tmp_path / "perf.json"
        code = cli_main(["bench", "--suite", "perf", "--quick",
                         "--out", str(out)])
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["gates"]["status"] == "pass"
        assert {p["k"] for p in payload["embed"]} == {1, 8}
        assert payload["obs"]["predictions_identical"] is True
        text = capsys.readouterr().out
        assert "perf suite (quick" in text
        assert "obs overhead" in text
