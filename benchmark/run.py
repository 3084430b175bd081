"""hermquad benchmark: one user running CLI jobs back to back.

    python3 benchmark/run.py --workload exact-sweep --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; hermquad is imported from
``src/`` there and from nowhere else.  The benchmark is a closed loop
with one client: a fresh worker interpreter calls ``hermquad.cli.main``
on one seeded job after another until ``--seconds`` have passed and a
block of jobs is complete.  Afterwards, outside the timed interval,
every job's output is checked against values computed independently
(checks.py).

With ``--trace 0`` the end-to-end metrics are reported; with
``--trace 1`` a traced worker runs the jobs with a span around each
layer's functions (tracer.py), then an untraced worker replays the same
jobs to measure the tracing overhead, and the per-layer metrics are
reported.  The last line of stdout is the result as JSON; the full
record (environment, job-list digest, failures) goes to
``benchmark/out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks
import jobs as joblib
import tracer

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = BENCH_DIR / "out"

#: Budget for the workers; a worker still running at its end is killed.
#: The checks after it take seconds, which keeps a run under 180 s.
RUN_BUDGET_S = 150.0

#: Fresh interpreters timed for setup_s (after one untimed warm-up).
SETUP_PROBES = 9

#: job_s_tail is the latency that exactly this many jobs exceed: the highest
#: percentile with at least ten samples beyond it.
TAIL_BEYOND = 10

SETUP_PROBE = (
    "import sys, time\n"
    "t = time.perf_counter()\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "import hermquad.cli\n"
    "hermquad.cli.build_parser()\n"
    "print(time.perf_counter() - t, hermquad.__file__)\n"
)

END_TO_END = (
    ("jobs_per_s", "1/s"),
    ("job_s_p50", "s"),
    ("job_s_tail", "s"),
    ("ok_frac", "ratio"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)


class BenchError(RuntimeError):
    pass


def _own_source(path: str) -> bool:
    return Path(path).resolve().is_relative_to(SRC.resolve())


def setup_times() -> list:
    """Seconds to import hermquad and build the CLI parser, in fresh interpreters."""
    times = []
    for probe in range(SETUP_PROBES + 1):
        done = subprocess.run([sys.executable, "-c", SETUP_PROBE, str(SRC)], cwd=ROOT,
                              capture_output=True, text=True, timeout=60)
        if done.returncode != 0:
            raise BenchError(f"importing hermquad failed: {done.stderr.strip()[-300:]}")
        seconds, where = done.stdout.split(maxsplit=1)
        if not _own_source(where.strip()):
            raise BenchError(f"hermquad was imported from {where.strip()}, not from {SRC}")
        if probe:
            times.append(float(seconds))
    return times


def run_worker(request: dict, deadline: float) -> dict:
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchError("no time left in the run budget")
    try:
        done = subprocess.run([sys.executable, str(BENCH_DIR / "worker.py")], cwd=ROOT,
                              input=json.dumps(request), capture_output=True, text=True,
                              timeout=remaining)
    except subprocess.TimeoutExpired:
        raise BenchError("the worker ran past the run budget") from None
    if done.returncode != 0:
        raise BenchError(f"worker failed: {done.stderr.strip()[-500:]}")
    summary = json.loads(done.stdout)
    if not _own_source(summary["hermquad_file"]):
        raise BenchError(f"worker imported hermquad from {summary['hermquad_file']}")
    with open(request["records"]) as fh:
        summary["records"] = [json.loads(line) for line in fh]
    return summary


def judge(job_list, records) -> list:
    """(job index, reason) for every failed job."""
    failures = []
    for i, rec in enumerate(records):
        job = job_list[i % len(job_list)]
        reason = checks.check(job, rec)
        if reason is not None:
            failures.append((i, reason))
    return failures


def latency_stats(records) -> dict:
    latencies = sorted(rec["elapsed"] for rec in records)
    count = len(latencies)
    if count <= TAIL_BEYOND:
        raise BenchError(f"only {count} jobs ran; the tail needs more than {TAIL_BEYOND}")
    return {
        "p50": statistics.median(latencies),
        "tail": latencies[count - TAIL_BEYOND - 1],
        "tail_percentile": 100.0 * (count - TAIL_BEYOND) / count,
        "tail_beyond": TAIL_BEYOND,
        "count": count,
    }


def environment() -> dict:
    cpu = None
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), None)
    except OSError:
        pass
    commit = None
    if (ROOT / ".git").exists():
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
        commit = done.stdout.strip() or None
    sources = hashlib.sha256()
    for path in sorted((SRC / "hermquad").glob("*.py")):
        sources.update(path.name.encode() + b"\0" + path.read_bytes())
    return {"python": platform.python_version(), "nproc": os.cpu_count(), "cpu_model": cpu,
            "hermquad_commit": commit, "hermquad_sources_sha256": sources.hexdigest()}


def end_to_end(summary, failures, setup) -> tuple:
    records = summary["records"]
    stats = latency_stats(records)
    attempted = len(records)
    ok = attempted - len(failures)
    values = {
        "jobs_per_s": ok / summary["wall_s"],
        "job_s_p50": stats["p50"],
        "job_s_tail": stats["tail"],
        "ok_frac": ok / attempted,
        "setup_s": statistics.median(setup),
        "peak_rss_mb": summary["peak_rss_mb"],
    }
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
    notes = {
        "jobs_per_s": f"{ok} correct jobs / {summary['wall_s']:.3f} s",
        "job_s_p50": f"median of {attempted} jobs",
        "job_s_tail": f"p{stats['tail_percentile']:.2f}, {TAIL_BEYOND} of {attempted} jobs beyond",
        "ok_frac": f"fail_frac = {len(failures)}/{attempted} = {len(failures) / attempted:.4f}",
        "setup_s": f"median of {len(setup)} fresh interpreters",
        "peak_rss_mb": "worker ru_maxrss at the end of the run",
    }
    return metrics, notes, stats


def per_layer(summary, span_summary, replay) -> dict:
    spans, counters = span_summary["spans"], span_summary["counters"]
    values = dict(counters)
    for layer in tracer.LAYERS:
        values[f"{layer}.self_s"] = sum(v["self_s"] for k, v in spans.items() if k.split(".")[0] == layer)
    for name, entry in spans.items():
        for key in ("calls", "s", "self_s"):
            values[f"{name}.{key}"] = entry[key]
    calls = spans["kernel.kernel_set"]["calls"]
    distinct = counters["kernel.kernel_set.distinct"]
    values["kernel.kernel_set.reuse"] = 1 - distinct / calls if calls else 0.0
    jobs_run = len(summary["records"])
    values["trace.jobs_per_s"] = jobs_run / summary["wall_s"]
    values["trace.untraced_jobs_per_s"] = jobs_run / replay["wall_s"]
    values["trace.overhead"] = summary["wall_s"] / replay["wall_s"]
    return {name: {"value": values[name], "unit": unit} for name, unit, _ in tracer.metric_specs()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(joblib.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + RUN_BUDGET_S
    if not (SRC / "hermquad" / "__init__.py").is_file():
        print(f"run.py: no hermquad sources at {SRC}", file=sys.stderr)
        return 2

    workload = joblib.WORKLOADS[args.workload]
    job_list = workload.jobs(args.seed)
    digest = joblib.digest(job_list)
    block = workload.block_size
    OUT.mkdir(exist_ok=True)
    stem = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    print(f"{args.workload} seed {args.seed}: {len(job_list)} jobs in blocks of {block}, "
          f"job list sha256 {digest}")

    try:
        setup = setup_times() if not args.trace else []
        request = {"src": str(SRC), "jobs": [job["argv"] for job in job_list], "block": block,
                   "job_limit_s": workload.job_limit_s, "seconds": args.seconds, "count": None,
                   "trace": bool(args.trace), "records": f"{stem}.records.jsonl",
                   "spans": f"{stem}.spans"}
        summary = run_worker(request, deadline)
        replay = None
        if args.trace:
            replay = run_worker(dict(request, trace=False, count=len(summary["records"]),
                                     records=f"{stem}.replay.jsonl"), deadline)
    except BenchError as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 1

    failures = judge(job_list, summary["records"])
    attempted = len(summary["records"])
    unexpected = [(i, r) for i, r in failures if "hard" not in job_list[i % len(job_list)]]
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "job_list_sha256": digest, "jobs_in_list": len(job_list),
              "environment": environment(), "attempted": attempted,
              "failed": len(failures), "wall_s": summary["wall_s"],
              "failures": [{"job": i, "argv": job_list[i % len(job_list)]["argv"], "reason": r}
                           for i, r in failures]}
    if args.trace:
        span_summary = tracer.summarize(str(stem) + ".spans")
        metrics = per_layer(summary, span_summary, replay)
        record["span_count"] = span_summary["span_count"]
        notes = {}
    else:
        metrics, notes, stats = end_to_end(summary, failures, setup)
        record["latency"] = stats
        record["setup_s_samples"] = setup
    record["metrics"] = metrics
    with open(f"{stem}.json", "w") as fh:
        json.dump(record, fh, indent=1)

    for name, entry in metrics.items():
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"  {name:<44} {entry['value']:>14.6g} {entry['unit']}{note}")
    for i, reason in failures:
        print(f"  failed job {i} {' '.join(job_list[i % len(job_list)]['argv'])[:90]}: {reason}")
    print(json.dumps({"correct": not unexpected, "attempted": attempted,
                      "failed": len(failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
