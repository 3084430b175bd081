"""Closed-loop job runner, one fresh interpreter per run.

Reads a request (JSON on stdin) from run.py, imports hermquad from the
given source directory, and calls ``hermquad.cli.main(argv)`` for one job
after another, each under a wall-clock limit, with stdout and stderr
captured.  It stops at the first block boundary after ``seconds`` (or
after ``count`` jobs), writes one JSON line per job to the records file,
and prints a summary (wall time, job count, peak RSS) as JSON on stdout.
With ``trace`` set it installs the spans of tracer.py first and writes
them out at the end.
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import signal
import sys
import time
import traceback


class JobTimeout(BaseException):
    """Raised by the alarm when a job runs past its wall-clock limit."""


class Alarm:
    """Per-job SIGALRM limit that only fires while a job is running."""

    def __init__(self):
        self.armed = False
        signal.signal(signal.SIGALRM, self._fire)

    def _fire(self, signum, frame):
        if self.armed:
            self.armed = False
            raise JobTimeout

    def arm(self, seconds):
        self.armed = True
        signal.setitimer(signal.ITIMER_REAL, seconds)

    def disarm(self):
        self.armed = False
        signal.setitimer(signal.ITIMER_REAL, 0)


def run_job(main, argv, limit, alarm):
    out, err = io.StringIO(), io.StringIO()
    rc = None
    timed_out = False
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            alarm.arm(limit)
            try:
                rc = main(argv)
            finally:
                alarm.disarm()
    except JobTimeout:
        timed_out = True
    except SystemExit as exc:
        rc = exc.code
    except Exception:
        rc = "exception"
        err.write(traceback.format_exc())
    elapsed = time.perf_counter() - start
    return {"rc": rc, "elapsed": elapsed, "timed_out": timed_out,
            "out": out.getvalue(), "err": err.getvalue()}


def main():
    req = json.load(sys.stdin)
    sys.path.insert(0, req["src"])
    import hermquad
    import hermquad.cli as cli

    recorder = None
    if req["trace"]:
        import tracer

        recorder = tracer.install()
    alarm = Alarm()
    jobs, block, limit = req["jobs"], req["block"], req["job_limit_s"]
    count, seconds = req["count"], req["seconds"]
    done = 0
    with open(req["records"], "w") as records:
        start = time.perf_counter()
        while True:
            if done % block == 0:
                if count is not None:
                    if done >= count:
                        break
                elif time.perf_counter() - start >= seconds:
                    break
            if recorder is not None:
                recorder.start_job(done)
            rec = run_job(cli.main, jobs[done % len(jobs)], limit, alarm)
            if recorder is not None and rec["timed_out"]:
                recorder.recover()
            records.write(json.dumps(rec) + "\n")
            done += 1
        wall = time.perf_counter() - start
    if recorder is not None:
        recorder.dump(req["spans"])
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    json.dump({"wall_s": wall, "jobs": done, "peak_rss_mb": peak_kib / 1024,
               "hermquad_file": hermquad.__file__}, sys.stdout)


if __name__ == "__main__":
    main()
