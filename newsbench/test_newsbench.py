"""Tests of the benchmark itself: generator, checker, tracer and a smoke run."""
from __future__ import annotations

import contextlib
import io
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from newsdiv import cli  # noqa: E402


def _files(directory: Path) -> dict[str, bytes]:
    return {str(p.relative_to(directory)): p.read_bytes() for p in sorted(directory.rglob("*")) if p.is_file()}


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_fixed_seed_generates_byte_identical_inputs(tmp_path, workload):
    first = workloads.build(workload, tmp_path / "a", 7)
    second = workloads.build(workload, tmp_path / "b", 7)
    assert _files(tmp_path / "a") == _files(tmp_path / "b")
    assert [[r.kind for r in c] for c in first] == [[r.kind for r in c] for c in second]
    workloads.build(workload, tmp_path / "c", 8)
    assert _files(tmp_path / "a") != _files(tmp_path / "c")


def _run_cli(argv: list[str]) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(argv) == 0
    return out.getvalue()


@pytest.fixture()
def swap_with_excludes(tmp_path):
    """A swap request whose rules exclude some documents, and its valid output."""
    inputs = workloads.Inputs(tmp_path, 3)
    request = inputs.rerank("t", "narrow", 60, "swap", 5, rules=8, contexts=("sports",))
    text = _run_cli(request.argv)
    assert request.verify(text) == []
    return request, json.loads(text)


def test_checker_rejects_perturbed_overall(swap_with_excludes):
    request, out = swap_with_excludes
    out["diversity"]["overall"] += 1e-6
    assert any("overall" in p for p in request.verify(json.dumps(out)))


def test_checker_rejects_duplicate_id(swap_with_excludes):
    request, out = swap_with_excludes
    out["selected"][1] = out["selected"][0]
    assert any("duplicate" in p for p in request.verify(json.dumps(out)))


def test_checker_rejects_excluded_document(swap_with_excludes):
    request, out = swap_with_excludes
    out["selected"][0] = next(t["doc"] for t in out["trace"] if t["kind"] == "exclude")
    assert any("excluded" in p for p in request.verify(json.dumps(out)))


def test_checker_rejects_low_oracle_count(tmp_path):
    request = workloads.Inputs(tmp_path, 4).oracle("o", "wide", 10, 3)
    out = json.loads(_run_cli(request.argv))
    assert request.verify(json.dumps(out)) == []
    out["evaluated"] -= 1
    assert request.verify(json.dumps(out))


def test_tail_is_always_p75():
    assert run.tail([float(i) for i in range(41)]) == 30.0
    assert run.tail([float(i) for i in range(5)]) == 3.0


@pytest.mark.parametrize("cycles, passes", [([9], 5), ([13, 13, 13], 2), ([9, 9], 3)])
def test_end_to_end_runs_whole_passes_with_enough_samples_however_slow(cycles, passes):
    variants = [[object()] * n for n in cycles]
    assert run.end_to_end_passes(variants) == passes
    sent = []

    def too_slow(key, request):
        sent.append(key)
        return 100.0  # one request alone overruns the whole run

    latencies, pass_busy = run.closed_loop(variants, 30.0, too_slow, passes)
    assert len(pass_busy) == passes
    assert len(latencies) == passes * sum(cycles) >= run.MIN_REQUESTS
    assert sent[: sum(cycles)] == sent[sum(cycles): 2 * sum(cycles)]  # every data set, in the same order


def test_faster_runs_add_whole_passes():
    variants = [[object()] * 13] * 3
    latencies, pass_busy = run.closed_loop(variants, 30.0, lambda key, request: 0.1, 2)
    assert len(pass_busy) == 7 and len(latencies) == 7 * 39  # the 8th pass would end past 30 s


def test_host_scaling_cancels_host_speed_and_one_disturbed_calibration():
    times = [0.1, 0.2, 0.3, 0.4]
    reference = [run.CALIBRATION_MS / 1e3] * 5
    assert run.host_scaled(times, reference) == pytest.approx(times)
    assert run.host_scaled([2 * t for t in times], [2 * c for c in reference]) == pytest.approx(times)
    disturbed = list(reference)
    disturbed[2] *= 3
    assert run.host_scaled(times, disturbed) == pytest.approx(times)
    assert run.calibration() > 0


def test_self_time_subtracts_direct_children_only():
    spans = [
        (0, -1, "cli", "main", 0.0, 10.0, ()),
        (0, 0, "diversify", "swap_diversify", 1.0, 9.0, ()),
        (0, 1, "metrics", "collection_diversity", 2.0, 5.0, ()),
        (0, 1, "metrics", "collection_diversity", 5.0, 6.0, ()),
    ]
    assert tracing.self_times(spans) == [2.0, 4.0, 3.0, 1.0]


def _bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "newsbench/run.py", *args], cwd=cwd, capture_output=True, text=True, timeout=170
    )


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_smoke_run_has_no_failures(workload):
    done = _bench("--workload", workload, "--seed", "5", "--seconds", "1", "--trace", "0")
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert set(result["metrics"]) == {
        "setup_s", "latency_p50_ms", "latency_tail_ms", "throughput_rps", "peak_rss_mb", "ok_ratio"
    }
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_traced_smoke_run_accounts_for_request_time():
    done = _bench("--workload", "cli_small", "--seed", "5", "--seconds", "1", "--trace", "1")
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    assert set(result["metrics"]) == {m["name"] for m in declared}
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    # Start-up and the in-process layer times, over the request process time.
    assert 0.75 < metrics["trace.accounted_share"] < 1.25
    for layer in tracing.LAYERS:
        assert metrics[f"{layer}.share"] > 0


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copytree(HERE, tmp_path / "newsbench", ignore=shutil.ignore_patterns("__pycache__"))
    done = _bench("--workload", "cli_small", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert done.returncode != 0
    assert done.stdout == ""
