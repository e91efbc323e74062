"""Benchmark runner for newsdiv: one workload, one seed, one JSON result line.

    python3 newsbench/run.py --workload rerank_pool --seed 1 --seconds 30 --trace 0

Run from the repository root (it needs `src/newsdiv`). The run generates its
inputs from the seed under `.bench_work/`, sets up (generate, import in a
fresh interpreter, one warm-up request; repeated and the median reported),
then sends the workload's requests in a closed loop, one at a time, in whole
passes over every seeded data set (see `closed_loop`). Every output is checked
against values recomputed without the package.

The end-to-end times are in reference units (see `host_scaled`): each request's
wall time is scaled by how fast the host ran a fixed calibration loop just
before and after it, because the speed of a shared machine changes by up to
1.5x within seconds. The run and its request processes stay on one CPU (see
`pin_to_one_cpu`). The raw wall times are printed on the lines for people.

`--trace 0` reports the end-to-end metrics. `--trace 1` replays the same
passes with each request run untraced and traced, taking turns which goes
first (see `tracing.py`), and reports per-layer times, work counts and
shares plus the tracing overhead.
The last line of stdout is the JSON result; the lines above it repeat the
figures for people, with the tail percentile, sample counts and environment.
"""
from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
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
sys.path.insert(0, str(HERE))

import tracing  # noqa: E402
import workloads  # noqa: E402

SETUP_REPEATS = 5
STARTUP_REPEATS = 5
# The tail is always p75, so runs and commits compare the same statistic: of
# p75, p90, p95 and p99 the highest with at least 10 samples beyond it in 40
# requests, and every end-to-end run sends at least that many.
TAIL_PERCENTILE = 75
MIN_REQUESTS = 40
SUBPROCESS_TIMEOUT_S = 60
# A host on which `calibration_loop` takes this long is the reference: times
# are reported as they would read there. The loop took 3.4-5.6 ms (medians
# of 30 s runs) on the 2-core shared virtual machine the baseline comes from.
CALIBRATION_MS = 5.0
# A request is scaled by the median of this many calibrations just before it
# and as many just after, so one disturbed calibration moves it little; the
# host's speed changes within seconds. Set-up steps are each a different kind
# of work (generation, a fresh interpreter, a request), so each is scaled by
# the two calibrations that bracket it only, which spread least in trials.
CALIBRATION_NEIGHBOURS = 3

_LABELS = [f"l{i}" for i in range(12)]
_TABLE = {(a, b): ((i * 7 + j * 3) % 11) / 10.0 for i, a in enumerate(_LABELS) for j, b in enumerate(_LABELS)}
_DOCS = [{"topic": _LABELS[i % 12], "region": _LABELS[i * 5 % 12], "source": _LABELS[i * 7 % 12]} for i in range(60)]

# Runs in a fresh interpreter: newsdiv's own peak memory on one request cycle.
RSS_PROBE = """
import contextlib, io, json, resource, sys
import newsdiv.cli
for argv in json.load(sys.stdin):
    with contextlib.redirect_stdout(io.StringIO()):
        if newsdiv.cli.main(argv) != 0:
            sys.exit(f"{argv[0]} failed")
print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
"""


def calibration_loop() -> float:
    """Fixed pure-Python work shaped like newsdiv's pair sums: dict lookups
    on label pairs, float arithmetic and short lists."""
    total = 0.0
    for _ in range(2):
        for d1 in _DOCS:
            total += sum([
                0.5 * _TABLE[d1["topic"], d2["topic"]]
                + 0.3 * _TABLE[d1["region"], d2["region"]]
                + 0.2 * _TABLE[d1["source"], d2["source"]]
                for d2 in _DOCS
            ])
    return total


def calibration() -> float:
    """Seconds `calibration_loop` takes now. The collector is off meanwhile,
    so objects the program under test leaves alive cannot slow it."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        calibration_loop()
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


def host_scaled(times: list[float], calibrations: list[float], neighbours: int = CALIBRATION_NEIGHBOURS) -> list[float]:
    """`times[i]` as it would read on the reference host. `calibrations[i]`
    ran just before `times[i]` was taken, and the last one after the last."""
    assert len(calibrations) == len(times) + 1
    scaled = []
    for i, t in enumerate(times):
        around = calibrations[max(0, i + 1 - neighbours): i + 1 + neighbours]
        scaled.append(t * CALIBRATION_MS / 1e3 / statistics.median(around))
    return scaled


def pin_to_one_cpu() -> None:
    """Keep this process, and the request processes it starts, on one CPU, so
    the calibrations time the CPU the requests run on: the CPUs of a shared
    machine change speed apart from each other."""
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def tail(values: list[float]) -> float:
    """The TAIL_PERCENTILE of `values`; needs at least two."""
    return statistics.quantiles(values, n=100, method="inclusive")[TAIL_PERCENTILE - 1]


class Client:
    """Sends requests to newsdiv and checks what comes back."""

    def __init__(self, workload: str):
        self.subprocess = workload == "cli_small"
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p)
        import newsdiv.cli  # here, once main() has put src/ on sys.path

        self.newsdiv = newsdiv
        self.digests: dict[tuple[int, int], str] = {}
        self.problems: list[str] = []

    def python(self, *args: str, stdin: str | None = None) -> subprocess.CompletedProcess:
        return subprocess.run(
            [sys.executable, *args], cwd=ROOT, env=self.env, capture_output=True,
            text=True, input=stdin, timeout=SUBPROCESS_TIMEOUT_S,
        )

    def in_process(self, argv: list[str], tracer=None, request: int = 0) -> tuple[int, str]:
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            try:
                if tracer is None:
                    code = self.newsdiv.cli.main(argv)
                else:
                    code = tracer.root(request, self.newsdiv.cli.main, argv)
            except SystemExit as exc:
                code = exc.code if isinstance(exc.code, int) else 2
            except Exception as exc:  # a traceback is a failed request, not a crashed benchmark
                self.problems.append(f"{argv[0]} raised {exc!r}")
                code = -1
        return code, out.getvalue()

    def send(self, argv: list[str]) -> tuple[int, str]:
        if not self.subprocess:
            return self.in_process(argv)
        try:
            done = self.python("-m", "newsdiv", *argv)
        except subprocess.TimeoutExpired:
            self.problems.append(f"{argv[0]} ran longer than {SUBPROCESS_TIMEOUT_S} s")
            return -1, ""
        return done.returncode, done.stdout

    def check(self, key: tuple[int, int], request: workloads.Request, code: int, out: str) -> bool:
        """True when the output passes; identical requests must repeat byte for byte."""
        if code != 0:
            self.problems.append(f"request {key} ({request.kind}) exited {code}")
            return False
        digest = hashlib.sha256(out.encode("utf-8")).hexdigest()
        if key in self.digests:
            if digest != self.digests[key]:
                self.problems.append(f"request {key} ({request.kind}) output changed on repeat")
                return False
        else:
            found = request.verify(out)
            if found:
                self.problems.extend(f"request {key} ({request.kind}): {p}" for p in found[:3])
                return False
            self.digests[key] = digest
        if request.save_as:
            Path(request.save_as).write_text(out, encoding="utf-8")
        return True

    def peak_rss_mb(self, cycle: list[workloads.Request]) -> float:
        """Peak RSS of newsdiv alone: the largest request process on cli_small,
        else a fresh interpreter running `cycle` through `cli.main`, so the
        benchmark's own inputs and check models do not count."""
        if self.subprocess:
            return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
        done = self.python("-c", RSS_PROBE, stdin=json.dumps([r.argv for r in cycle]))
        if done.returncode != 0:
            raise RuntimeError(f"memory probe failed: {done.stderr.strip()}")
        return int(done.stdout.split()[-1]) / 1024.0


def setup(client: Client, workload: str, seed: int, workdir: Path):
    """Generate, import in a fresh interpreter, warm up: the median of the
    repeats, host-scaled step by step. Returns it with the raw median."""
    steps, calibrations = [], []

    def step(fn, *args):
        calibrations.append(calibration())
        start = time.perf_counter()
        result = fn(*args)
        steps.append(time.perf_counter() - start)
        return result

    for _ in range(SETUP_REPEATS):
        variants = None  # let the previous build go before making the next
        variants = step(workloads.build, workload, workdir, seed)
        imported = step(client.python, "-c", "import newsdiv.cli")
        if imported.returncode != 0:
            raise RuntimeError(f"import newsdiv failed: {imported.stderr.strip()}")
        code, out = step(client.send, variants[0][0].argv)
        client.check((0, 0), variants[0][0], code, out)
    calibrations.append(calibration())
    per_repeat = len(steps) // SETUP_REPEATS

    def median_repeat(times):
        return statistics.median(sum(times[i: i + per_repeat]) for i in range(0, len(times), per_repeat))

    return variants, median_repeat(host_scaled(steps, calibrations, neighbours=1)), median_repeat(steps)


def closed_loop(variants, seconds: float, send_one, min_passes: int):
    """Whole passes, each running every data set's cycle once, until the next
    pass would overrun `seconds` of busy time, but never fewer than
    `min_passes`. A run's work is whole passes, so a faster or slower program
    measures the same inputs in the same proportions. Returns request
    latencies and the busy time of each pass."""
    latencies: list[float] = []
    pass_busy: list[float] = []
    while True:
        busy = 0.0
        for variant, cycle in enumerate(variants):
            for index, request in enumerate(cycle):
                elapsed = send_one((variant, index), request)
                latencies.append(elapsed)
                busy += elapsed
        pass_busy.append(busy)
        total = sum(pass_busy)
        if len(pass_busy) >= min_passes and total + total / len(pass_busy) > seconds:
            return latencies, pass_busy


def end_to_end_passes(variants) -> int:
    """At least two passes, so every request runs twice and must repeat its
    output byte for byte, and at least MIN_REQUESTS requests for the tail."""
    per_pass = sum(len(cycle) for cycle in variants)
    return max(2, -(-MIN_REQUESTS // per_pass))


def end_to_end(client: Client, variants, seconds: float, setup_s: float, setup_wall_s: float) -> tuple[dict, dict]:
    failed = 0
    calibrations = []

    def send_one(key, request):
        nonlocal failed
        calibrations.append(calibration())
        start = time.perf_counter()
        code, out = client.send(request.argv)
        elapsed = time.perf_counter() - start
        if not client.check(key, request, code, out):
            failed += 1
        return elapsed

    harness_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    wall, pass_busy = closed_loop(variants, seconds, send_one, end_to_end_passes(variants))
    calibrations.append(calibration())
    latencies = host_scaled(wall, calibrations)
    tail_v = tail(latencies)
    n = len(latencies)
    metrics = {
        "setup_s": (setup_s, "s"),
        "latency_p50_ms": (statistics.median(latencies) * 1e3, "ms"),
        "latency_tail_ms": (tail_v * 1e3, "ms"),
        "throughput_rps": (n / sum(latencies), "1/s"),
        "peak_rss_mb": (client.peak_rss_mb(variants[0]), "MB"),
        "ok_ratio": ((n - failed) / n, "ratio"),
    }
    info = {
        "requests": n, "failed": failed, "failed_ratio": failed / n, "passes": len(pass_busy),
        "busy_s": sum(pass_busy), "tail_percentile": TAIL_PERCENTILE,
        "samples_beyond_tail": sum(1 for v in latencies if v > tail_v),
        "calibration_ms_median": 1e3 * statistics.median(calibrations),
        "wall_setup_s": setup_wall_s, "wall_latency_p50_ms": 1e3 * statistics.median(wall),
        "wall_latency_tail_ms": 1e3 * tail(wall), "wall_throughput_rps": n / sum(wall),
        "harness_rss_mb_after_setup": harness_rss_mb,
    }
    return metrics, info


def per_layer(client: Client, variants, seconds: float, spans_path: Path) -> tuple[dict, dict]:
    """Each request untraced and traced (in turns first); layer metrics from
    the spans, overhead from the difference. On cli_small each request also
    runs as a process, next to a bare interpreter and a bare `import newsdiv`,
    so start-up and the in-process work add up to the process time."""
    tracer = tracing.Tracer()
    untraced, traced, processes, interpreters, imports = [], [], [], [], []
    failed = 0

    def send_one(key, request):
        nonlocal failed
        busy = 0.0
        if client.subprocess:
            start = time.perf_counter()
            code, out = client.send(request.argv)
            processes.append(time.perf_counter() - start)
            failed += not client.check(key, request, code, out)
            interpreters.append(_timed(client.python, "-c", "pass"))
            imports.append(_timed(client.python, "-c", "import newsdiv"))
            busy += processes[-1] + interpreters[-1] + imports[-1]
        # Alternate which run goes first: the second run of a pair is faster.
        for traced_run in ((False, True) if len(untraced) % 2 == 0 else (True, False)):
            uninstall = tracer.install(client.newsdiv) if traced_run else (lambda: None)
            try:
                start = time.perf_counter()
                code, out = client.in_process(request.argv, tracer if traced_run else None, len(traced))
                (traced if traced_run else untraced).append(time.perf_counter() - start)
            finally:
                uninstall()
            failed += not client.check(key, request, code, out)
        return busy + untraced[-1] + traced[-1]

    _, pass_busy = closed_loop(variants, seconds, send_one, min_passes=1)
    spans = tracer.spans
    spans_path.parent.mkdir(parents=True, exist_ok=True)
    with open(spans_path, "w", encoding="utf-8") as fh:
        for i, s in enumerate(spans):
            fh.write(json.dumps({"id": i, "request": s[0], "parent": s[1], "name": f"{s[2]}.{s[3]}",
                                 "start": s[4], "end": s[5], "work": list(s[6])}) + "\n")

    if not client.subprocess:
        for _ in range(STARTUP_REPEATS):
            interpreters.append(_timed(client.python, "-c", "pass"))
            imports.append(_timed(client.python, "-c", "import newsdiv"))
    metrics = layer_metrics(spans, len(traced), len(variants[0]))
    layer_self = metrics.pop("_layer_self_ms")
    untraced_ms = 1e3 * statistics.mean(untraced)
    if processes:  # a request is a whole process: interpreter, import, then cli.main
        request_ms = 1e3 * statistics.mean(processes)
        startup_ms = 1e3 * statistics.mean(imports)
    else:
        request_ms = 1e3 * sum(s[5] - s[4] for s in spans if s[1] < 0) / len(traced)
        startup_ms = 0.0
    for layer in tracing.LAYERS:
        metrics[f"{layer}.share"] = (layer_self[layer] / request_ms, "ratio")
    metrics["startup.share"] = (startup_ms / request_ms, "ratio")
    metrics["cli.interpreter_ms"] = (1e3 * statistics.median(interpreters), "ms")
    metrics["newsdiv.import_ms"] = (1e3 * (statistics.median(imports) - statistics.median(interpreters)), "ms")
    overhead_ms = 1e3 * statistics.mean(traced) - untraced_ms
    metrics["trace.overhead_ms"] = (overhead_ms, "ms")
    metrics["trace.overhead_share"] = (overhead_ms / untraced_ms, "ratio")
    # Traced layer self times (plus start-up on cli_small) over the untraced
    # request time: above 1 by the tracing's distortion, below 1 by time no
    # span covers (on cli_small, process exit and a cold first request).
    if processes:
        accounted = (startup_ms + sum(layer_self.values())) / request_ms
    else:
        accounted = sum(layer_self.values()) / untraced_ms
    metrics["trace.accounted_share"] = (accounted, "ratio")
    info = {"requests": len(untraced) + len(traced) + len(processes), "failed": failed,
            "passes": len(pass_busy), "spans": len(spans), "spans_file": str(spans_path.relative_to(ROOT))}
    return metrics, info


def _timed(fn, *args) -> float:
    start = time.perf_counter()
    done = fn(*args)
    if done.returncode != 0:
        raise RuntimeError(f"{args} failed: {done.stderr.strip()}")
    return time.perf_counter() - start


def layer_metrics(spans: list[tuple], n_requests: int, first_cycle: int) -> dict:
    """Per-function times (mean per request that calls it), work rates and counts.

    Counts come from the first cycle (requests below `first_cycle`), so they
    repeat exactly for a seed however many cycles fit the run."""
    own = tracing.self_times(spans)
    inclusive: dict[str, float] = {}
    callers: dict[str, set] = {}
    work: dict[str, list] = {}
    first: dict[str, list] = {}
    layer_self = dict.fromkeys(tracing.LAYERS, 0.0)
    for s, self_s in zip(spans, own):
        request, _, layer, name = s[:4]
        layer_self[layer] += self_s
        inclusive[name] = inclusive.get(name, 0.0) + (s[5] - s[4])
        callers.setdefault(name, set()).add(request)
        for totals in ((work, first) if request < first_cycle else (work,)) if s[6] else ():
            acc = totals.setdefault(name, [0] * len(s[6]))
            for i, v in enumerate(s[6]):
                acc[i] += v

    def ms(name):
        return 1e3 * inclusive.get(name, 0.0) / len(callers[name]) if name in callers else 0.0

    def rate(name, scale, units):
        return scale * inclusive.get(name, 0.0) / units if units else 0.0

    def w(name, i=0, totals=work):
        return totals.get(name, [0] * (i + 1))[i]

    aux = ("load_rules", "load_history", "load_interactions")
    aux_requests = set().union(*(callers.get(a, set()) for a in aux))
    modes = tracing.MODES
    mode_steps = sum(w(m) for m in modes)
    mode_time = sum(inclusive.get(m, 0.0) for m in modes)
    apply_units = sum(s[6][0] * s[6][2] for s in spans if s[3] == "apply_rules" and s[6])
    return {
        "cli.overhead_ms": (1e3 * layer_self["cli"] / n_requests, "ms"),
        "aspect_model.load_schema_ms": (ms("load_schema"), "ms"),
        "corpus_io.load_corpus_ms": (ms("load_corpus"), "ms"),
        "corpus_io.load_corpus_us_per_doc": (rate("load_corpus", 1e6, w("load_corpus")), "us/doc"),
        "corpus_io.load_aux_ms": (
            1e3 * sum(inclusive.get(a, 0.0) for a in aux) / len(aux_requests) if aux_requests else 0.0, "ms"),
        "corpus_io.write_report_ms": (ms("write_report"), "ms"),
        "corpus_io.write_report_us_per_kb": (rate("write_report", 1e6, w("write_report") / 1024), "us/KiB"),
        "rules.apply_rules_ms": (ms("apply_rules"), "ms"),
        "rules.ns_per_doc_rule": (rate("apply_rules", 1e9, apply_units), "ns"),
        "rules.check_requirements_ms": (ms("check_requirements"), "ms"),
        "rules.survivor_ratio": (
            w("apply_rules", 1, first) / w("apply_rules", 0, first) if w("apply_rules", 0, first) else 0.0, "ratio"),
        "metrics.collection_diversity_ms": (ms("collection_diversity"), "ms"),
        "metrics.ns_per_pair": (rate("collection_diversity", 1e9, w("collection_diversity")), "ns"),
        "diversify.swap_diversify_ms": (ms("swap_diversify"), "ms"),
        "diversify.rerank_combined_ms": (ms("rerank_combined"), "ms"),
        "diversify.select_summary_sources_ms": (ms("select_summary_sources"), "ms"),
        "diversify.next_in_sequence_ms": (ms("next_in_sequence"), "ms"),
        "diversify.suggest_interaction_ms": (ms("suggest_interaction"), "ms"),
        "diversify.us_per_candidate_step": (1e6 * mode_time / mode_steps if mode_steps else 0.0, "us"),
        "diversify.swaps_taken": (w("swap_diversify", 1, first), "count"),
        "oracle.max_diversity_oracle_ms": (ms("max_diversity_oracle"), "ms"),
        "oracle.subsets_evaluated": (w("max_diversity_oracle", 0, first), "count"),
        "oracle.ns_per_subset": (rate("max_diversity_oracle", 1e9, w("max_diversity_oracle")), "ns"),
        "_layer_self_ms": {k: 1e3 * v / n_requests for k, v in layer_self.items()},
    }


def environment() -> dict:
    try:
        from importlib.metadata import version
        networkx = version("networkx")
    except Exception:  # reported, not needed for the run
        networkx = "not installed"
    commit = "not a git checkout"
    if (ROOT / ".git").exists():
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
        commit = done.stdout.strip() or commit
    return {"nproc": os.cpu_count(), "python": platform.python_version(), "networkx": networkx, "commit": commit}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "newsdiv" / "__init__.py").is_file():
        print(f"error: no newsdiv package under {SRC}; run from a newsdiv checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    pin_to_one_cpu()

    workdir = ROOT / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        client = Client(args.workload)
        variants, setup_s, setup_wall_s = setup(client, args.workload, args.seed, workdir)
        # Keep the benchmark's own inputs and models out of the collector's
        # full passes, which would otherwise bill them to newsdiv's requests.
        gc.collect()
        gc.freeze()
        if args.trace:
            spans_path = ROOT / ".bench_trace" / f"{args.workload}-seed{args.seed}.jsonl"
            metrics, info = per_layer(client, variants, args.seconds, spans_path)
        else:
            metrics, info = end_to_end(client, variants, args.seconds, setup_s, setup_wall_s)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):  # other runs may still be using it
            workdir.parent.rmdir()

    print(f"# workload {args.workload} seed {args.seed} trace {args.trace}: {json.dumps(environment())}")
    print(f"# {json.dumps(info)}")
    for problem in client.problems[:10]:
        print(f"# problem: {problem}")
    for name, (value, unit) in metrics.items():
        print(f"# {name:40s} {value:14.6f} {unit}")
    result = {
        "correct": not client.problems,
        "attempted": info["requests"],
        "failed": info["failed"],
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
