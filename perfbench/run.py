#!/usr/bin/env python3
"""The repository benchmark: EcoFusion's gated perception path, end to end
and layer by layer.

    python3 perfbench/run.py --workload knowledge_stream --seed 1 \
        --seconds 10 --trace 0

builds the driver (perfbench/CMakeLists.txt, into .bench_build/ at the repo
root), runs one workload in one process and prints, as its last line, one
JSON object: {"correct", "attempted", "failed", "metrics"}. --trace 0 gives
the end-to-end metrics from untraced passes; --trace 1 gives the per-layer
ledger from a traced run. The line before it holds the run stamp and the
raw figures behind every metric.

    python3 perfbench/run.py --train-gate

retrains the Attention gate at its fixed seed and rewrites
perfbench/data/attention_gate.{bin,json}. Runs only ever load that file.
See perfbench/README.md for the workloads and metrics.
"""

import argparse
import collections
import json
import math
import os
import re
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD_DIR, "ecobench")
GATE_WEIGHTS = os.path.join(HERE, "data", "attention_gate.bin")
GATE_META = os.path.join(HERE, "data", "attention_gate.json")

WORKLOADS = ("knowledge_stream", "attention_budget_stream")
# Run by hand only: its one caller thread follows the host's speed drift in
# full, too far for the benchmark's bounds (README, Noise).
DIAGNOSTIC_WORKLOADS = ("frame_latency",)
MAX_WORKERS = 4
RUN_SECONDS_LIMIT = 175  # the whole command, once the driver is built
BUILD_SECONDS_LIMIT = 880  # the first run in a checkout also builds

NAME_RE = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}\Z")

END_TO_END = {
    "fps": "frames/s",
    "frame_p50_ms": "ms",
    "frame_p99_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "map": "mAP_IoU0.5",
    "energy_j": "px2_J/frame",
    "px2_latency_ms": "px2_ms/frame",
}

PER_LAYER = {
    "dataset.render_us": "us/frame",
    "stems.us": "us/frame",
    "stems.cache_hit_ratio": "ratio",
    "gating.us": "us/frame",
    "joint_opt.us": "us/frame",
    "joint_opt.candidates_mean": "count",
    "detect.scan_us": "us/frame",
    "detect.scans_per_frame": "count",
    "detect.scan_dedup_ratio": "ratio",
    "detect.merge_us": "us/frame",
    "fusion.us": "us/frame",
    "exec.us": "us/frame",
    "exec.mean_batch": "frames",
    "exec.zero_alloc_share": "share",
    "exec.arena_bytes_high_water": "bytes",
    "runtime.us": "us/frame",
    "runtime.ingest_wait_ms": "ms/pass",
    "runtime.queue_wait_ms": "ms/pass",
    "runtime.barrier_wait_ms": "ms/pass",
    "runtime.steals": "count/pass",
    "runtime.windows_pipelined": "count/pass",
    "runtime.residual_share": "share",
    "tensor.plan_cache_misses": "count",
    "trace.fps_ratio": "ratio",
    "cold_pass_s": "s",
}

# Ledger bucket of each obs::Stage span the library emits. A bucket's layer
# is its name up to the first dot; spans of an unknown stage stay
# unattributed, so they show up in runtime.residual_share.
STAGE_BUCKET = {
    "stream_pull": "runtime",
    "phase_a_select": "joint_opt",
    "stem_compute": "stems",
    "stem_cache_hit": "stems",
    "channel_scan": "detect.scan",
    "phase_b_batch": "exec",
    "nms_merge": "detect.merge",
    "finish_frame": "fusion",
    "window_update": "runtime",
    "shard_merge": "runtime",
    "scheduler_idle": "runtime.idle",
    "ingest_generate": "dataset",
    "ingest_wait": "runtime.ingest_wait",
}
LAYERS = frozenset(
    ("dataset", "stems", "gating", "joint_opt", "detect", "fusion", "exec",
     "runtime", "tensor"))
UNATTRIBUTED = "unattributed"

# Per-frame µs metrics and the ledger bucket each reads.
US_METRICS = {
    "stems.us": "stems",
    "gating.us": "gating",
    "joint_opt.us": "joint_opt",
    "detect.scan_us": "detect.scan",
    "detect.merge_us": "detect.merge",
    "fusion.us": "fusion",
    "exec.us": "exec",
    "runtime.us": "runtime",
}

# Tail percentiles in basis points (1/100 of a percent), highest first.
TAIL_BASIS_POINTS = (9999, 9990, 9900, 9000, 5000)
# Consecutive frames per percentile sample: p99 keeps ten frames beyond it.
CHUNK_FRAMES = 1024


class BenchError(Exception):
    """A run that cannot produce a result."""


# ---- statistics ------------------------------------------------------------

def rank(n, basis_points):
    """1-based nearest rank of a percentile over n samples."""
    return max(1, -(-basis_points * n // 10000))


def highest_percentile(n):
    """The highest tail percentile (in basis points) that has at least ten
    of n samples beyond it, or None when even the median has not."""
    for bp in TAIL_BASIS_POINTS:
        if n - rank(n, bp) >= 10:
            return bp
    return None


def percentile(values, basis_points):
    ordered = sorted(values)
    return ordered[rank(len(ordered), basis_points) - 1]


def median(values):
    return statistics.median(values)


# ---- traced-run ledger -------------------------------------------------------

def bucket_layer(bucket):
    return bucket.split(".", 1)[0]


def nest_self_times(spans, totals):
    """Adds the self time of each span of one thread to totals[bucket].
    spans: (start_ns, end_ns, bucket). A span's parent is the innermost
    span of the same thread that contains it; its self time is its
    duration minus what its children cover."""
    stack = []  # [end_ns, bucket, duration_ns, children_ns]

    def close(entry):
        totals[entry[1]] += entry[2] - entry[3]

    for start, end, bucket in sorted(spans, key=lambda s: (s[0], -s[1])):
        while stack and stack[-1][0] <= start:
            close(stack.pop())
        if stack:
            stack[-1][3] += min(end, stack[-1][0]) - start
        stack.append([end, bucket, end - start, 0])
    while stack:
        close(stack.pop())


def fold_trace(doc):
    """Folds one traced pass into per-bucket self time.

    Returns (totals, attributed_ns, capacity_ns). Worker lanes are every
    lane but the pipeline's driver (the one that pulls the stream); the
    capacity is the pass's wall time times the worker count, and the
    attributed time is the self time on worker lanes that a named layer
    claims."""
    lanes = collections.defaultdict(list)
    driver_lanes = set()
    for event in (doc.get("obs") or {}).get("traceEvents", []):
        if event.get("ph") != "X":
            continue
        start = round(event["ts"] * 1000)
        end = start + round(event["dur"] * 1000)
        lanes[event["tid"]].append(
            (start, end, STAGE_BUCKET.get(event["name"], UNATTRIBUTED)))
        if event["name"] == "stream_pull":
            driver_lanes.add(event["tid"])
    fields = doc["own_fields"]
    at = {name: i for i, name in enumerate(fields)}
    for record in doc["own"]:
        start = record[at["start_ns"]]
        lanes[record[at["lane"]]].append(
            (start, start + record[at["dur_ns"]], record[at["layer"]]))

    totals = collections.Counter()
    attributed = 0
    for lane, spans in lanes.items():
        lane_totals = collections.Counter()
        nest_self_times(spans, lane_totals)
        totals.update(lane_totals)
        if lane not in driver_lanes:
            attributed += sum(ns for bucket, ns in lane_totals.items()
                              if bucket_layer(bucket) in LAYERS)
    capacity = (doc["end_ns"] - doc["start_ns"]) * doc["workers"]
    return totals, attributed, capacity


def ledger(trace_docs):
    """Per-layer µs/frame and the residual share over traced passes."""
    totals = collections.Counter()
    attributed = capacity = frames = 0
    for doc in trace_docs:
        t, a, c = fold_trace(doc)
        totals.update(t)
        attributed += a
        capacity += c
        frames += doc["frames"]
    if frames == 0 or capacity <= 0:
        raise BenchError("traced run produced no traced frames")
    metrics = {name: totals[bucket] / frames / 1000.0
               for name, bucket in US_METRICS.items()}
    if totals["dataset"]:
        metrics["dataset.render_us"] = totals["dataset"] / frames / 1000.0
    metrics["runtime.residual_share"] = 1.0 - attributed / capacity
    return metrics, totals


# ---- metrics -----------------------------------------------------------------

def pass_fps(passes):
    return [p["frames"] / p["wall_s"] for p in passes]


def frame_chunks(passes):
    """Each pass's frames, in order, cut into chunks of CHUNK_FRAMES; a
    shorter remainder is dropped, and a pass shorter than one chunk is one
    chunk."""
    chunks = []
    for p in passes:
        frames = p["frame_ms"]
        whole = len(frames) // CHUNK_FRAMES
        if whole == 0:
            chunks.append(frames)
        for i in range(whole):
            chunks.append(frames[i * CHUNK_FRAMES:(i + 1) * CHUNK_FRAMES])
    return chunks


def frame_percentiles(passes):
    """Per-frame p50 and tail: each chunk's percentile, then the median over
    chunks, so a stall confined to a few chunks cannot move the run's value.
    The tail is p99 when every chunk has ten frames beyond it."""
    chunks = frame_chunks(passes)
    smallest = min(len(c) for c in chunks)
    tail = highest_percentile(smallest)
    if tail is None:
        raise BenchError("too few frames per chunk for a median")
    tail = min(tail, 9900)
    p50 = median([percentile(c, 5000) for c in chunks])
    p_tail = median([percentile(c, tail) for c in chunks])
    return p50, p_tail, {"frames_per_percentile": smallest,
                         "percentile_chunks": len(chunks),
                         "tail_percentile": tail / 100.0}


def end_to_end_metrics(raw):
    passes = [p for p in raw["passes"] if not p["traced"]]
    if not passes:
        raise BenchError("no untraced passes measured")
    p50, p_tail, detail = frame_percentiles(passes)
    return {
        "fps": median(pass_fps(passes)),
        "frame_p50_ms": p50,
        "frame_p99_ms": p_tail,
        "setup_s": median(raw["setup_s"]),
        "peak_rss_mb": raw["peak_rss_mb"],
        "map": raw["map"],
        "energy_j": raw["energy_j"],
        "px2_latency_ms": raw["px2_latency_ms"],
    }, detail


def per_layer_metrics(raw, trace_docs):
    metrics, totals = ledger(trace_docs)
    counters = raw["counters"]
    for name in ("stems.cache_hit_ratio", "joint_opt.candidates_mean",
                 "detect.scans_per_frame", "detect.scan_dedup_ratio",
                 "exec.mean_batch", "exec.zero_alloc_share",
                 "exec.arena_bytes_high_water", "tensor.plan_cache_misses"):
        metrics[name] = counters[name]
    metrics.setdefault("dataset.render_us", counters.get("dataset.render_us"))
    passes = raw["passes"]
    for name, field in (("runtime.ingest_wait_ms", "ingest_wait_ms"),
                        ("runtime.queue_wait_ms", "queue_wait_ms"),
                        ("runtime.barrier_wait_ms", "barrier_wait_ms"),
                        ("runtime.steals", "steals"),
                        ("runtime.windows_pipelined", "windows_pipelined")):
        metrics[name] = median([p[field] for p in passes])
    traced = [p for p in passes if p["traced"]]
    untraced = [p for p in passes if not p["traced"]]
    metrics["trace.fps_ratio"] = (median(pass_fps(traced)) /
                                  median(pass_fps(untraced)))
    metrics["cold_pass_s"] = raw["cold_pass_s"]
    detail = {
        "ledger_us_per_frame": {
            bucket: ns / sum(d["frames"] for d in trace_docs) / 1000.0
            for bucket, ns in sorted(totals.items())},
        "traced_passes_folded": len(trace_docs),
        "dropped_spans": sum(p["dropped_spans"] for p in traced),
    }
    return metrics, detail


def result_line(correct, attempted, failed, metrics, units):
    """The benchmark's last output line: strict JSON, every metric named
    and finite."""
    out = {}
    for name, unit in units.items():
        value = metrics.get(name)
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            raise BenchError(f"metric {name} has no finite value: {value!r}")
        if not NAME_RE.match(name):
            raise BenchError(f"bad metric name {name!r}")
        out[name] = {"value": value, "unit": unit}
    return json.dumps({"correct": bool(correct), "attempted": int(attempted),
                       "failed": int(failed), "metrics": out},
                      allow_nan=False, separators=(",", ":"))


# ---- build and run -------------------------------------------------------------

def log(message):
    print(f"[perfbench] {message}", file=sys.stderr, flush=True)


def cpu_count():
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def worker_count():
    """One core is left to the pipeline's driver thread, which pulls the
    stream and commits windows next to the workers; with a worker on every
    core it preempts them mid-frame and the frame-time tail measures the
    OS scheduler."""
    return max(1, min(MAX_WORKERS, cpu_count() - 1))


def build():
    """Configures (once) and builds the driver. Returns True when anything
    was compiled, which is when the run may take the long first-run time."""
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        raise BenchError("no library sources (CMakeLists.txt, src/) next to "
                         "perfbench/: nothing to benchmark")
    before = os.path.getmtime(BINARY) if os.path.exists(BINARY) else None
    # The compiler's scratch files stay inside the build directory too.
    scratch = os.path.join(BUILD_DIR, "tmp")
    os.makedirs(scratch, exist_ok=True)
    env = dict(os.environ, TMPDIR=scratch)
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", BUILD_DIR,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, check=True, env=env)
    subprocess.run(["cmake", "--build", BUILD_DIR, "--target", "ecobench",
                    "-j", str(cpu_count())], stdout=sys.stderr, check=True,
                   env=env)
    return before is None or os.path.getmtime(BINARY) != before


def run_driver(args, timeout):
    proc = subprocess.run([BINARY] + args, stdout=subprocess.PIPE,
                          timeout=timeout, text=True)
    if proc.returncode != 0:
        raise BenchError(f"driver exited with code {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise BenchError("driver printed nothing")
    return json.loads(lines[-1])


def cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as info:
            for line in info:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def stamp(raw, workers):
    return {
        "workload": raw["workload"], "seed": raw["seed"],
        "seconds": raw["seconds"], "trace": raw["trace"],
        "workers": workers, "nproc": cpu_count(),
        "hardware_concurrency": raw["hardware_concurrency"],
        "cpu_model": cpu_model(), "compiler": raw["compiler"],
        "build_type": raw["build_type"], "git_sha": raw["git_sha"],
        "frames_per_pass": raw["frames_per_pass"],
        "warmup_passes": raw["warmup_passes"],
        "timed_passes": len(raw["passes"]),
    }


def benchmark(workload, seed, seconds, trace):
    started = time.monotonic()
    built_now = build()
    if not os.path.isfile(GATE_WEIGHTS):
        raise BenchError(f"missing gate weights {GATE_WEIGHTS}; "
                         "run --train-gate once")
    limit = BUILD_SECONDS_LIMIT if built_now else RUN_SECONDS_LIMIT
    workers = worker_count()
    args = ["run", "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(int(trace)),
            "--workers", str(workers), "--gate", GATE_WEIGHTS]
    trace_dir = None
    try:
        if trace:
            trace_dir = tempfile.mkdtemp(prefix="trace-", dir=BUILD_DIR)
            args += ["--trace-dir", trace_dir]
        raw = run_driver(args, max(1.0, limit - (time.monotonic() - started)))
        trace_docs = []
        if trace:
            for p in raw["passes"]:
                if p["trace_file"]:
                    with open(p["trace_file"], encoding="utf-8") as f:
                        trace_docs.append(json.load(f))
    finally:
        if trace_dir:
            shutil.rmtree(trace_dir, ignore_errors=True)

    checks = raw["checks"]
    correct = (raw["failed"] == 0 and raw["attempted"] > 0
               and all(checks.values()))
    detail = {"stamp": stamp(raw, workers), "checks": checks,
              "counters": raw["counters"],
              "pass_wall_s": [p["wall_s"] for p in raw["passes"]],
              "setup_s": raw["setup_s"]}
    if trace:
        metrics, extra = per_layer_metrics(raw, trace_docs)
        units = PER_LAYER
    else:
        metrics, extra = end_to_end_metrics(raw)
        units = END_TO_END
    detail.update(extra)
    line = result_line(correct, raw["attempted"], raw["failed"], metrics,
                       units)
    print(json.dumps({"detail": detail}, allow_nan=False))
    print(line, flush=True)


def train_gate():
    build()
    started = time.monotonic()
    proc = subprocess.run([BINARY, "train", "--out", GATE_WEIGHTS,
                           "--meta", GATE_META])
    if proc.returncode != 0:
        raise BenchError("gate training failed")
    log(f"trained gate in {time.monotonic() - started:.1f} s -> "
        f"{os.path.relpath(GATE_WEIGHTS, ROOT)}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + DIAGNOSTIC_WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--train-gate", action="store_true",
                        help="retrain and save the Attention gate weights")
    args = parser.parse_args(argv)
    try:
        if args.train_gate:
            train_gate()
            return 0
        if args.workload is None:
            parser.error("--workload is required")
        if not 0 <= args.seed < 2**64 or args.seconds < 1:
            parser.error("--seed must be in [0, 2^64) and --seconds >= 1")
        benchmark(args.workload, args.seed, args.seconds, bool(args.trace))
        return 0
    except (BenchError, subprocess.SubprocessError, OSError,
            json.JSONDecodeError, KeyError) as error:
        log(f"error: {error}")
        return 1


if __name__ == "__main__":
    sys.exit(main())
