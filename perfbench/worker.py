"""Warm worker: runs a job list in-process through ``liecert.cli.run``.

Usage: ``python3 perfbench/worker.py CONFIG.json``.  The config names the
source directory, the jobs and a warm-up job.  The worker then reads one
command per line on standard input and answers each with one JSON line:

  job N         job N of the list, timed, then checked; the reference
                kernel is timed around it (see reference.py)
  pass          one pass over the job list, each job timed, then checked
  traced-pass   the same with spans recorded (see tracing.py)
  counted-pass  one pass under cProfile; exact call counts only
  finish        attempted jobs, failures, peak RSS and the span summary

One client, one job at a time, no threads: a closed loop.  Only the ``run``
call is timed; its output is checked afterwards.
"""

from __future__ import annotations

import cProfile
import gc
import io
import json
import os
import pstats
import resource
import sys
import time
import traceback

from checks import CheckFailed, Checker
from reference import EVERY_S, MAX_BURST, timed_kernel
from tracing import Tracer

# (file name, function name) -> counted-run key
COUNTED = {
    ("fractions.py", "__new__"): "exact.fraction_new",
    ("loopalg.py", "affine_bracket"): "loopalg.affine_bracket.calls",
}


class Runner:
    def __init__(self, run, checker: Checker, jobs: list[dict]):
        self.run = run
        self.checker = checker
        self.jobs = jobs
        self.failures: list[str] = []
        self.attempted = 0
        self.last_reference = time.perf_counter() - EVERY_S

    def run_job(self, job: dict, tracer: Tracer | None = None, profiler: cProfile.Profile | None = None) -> dict:
        """Run, time and check one job; ``reference_s`` lists the kernel times taken around it."""
        buf = io.StringIO()
        error = None
        # start each job from a collected heap, as a fresh CLI process
        # would, so no job pays for garbage an earlier one left behind
        gc.collect()
        # the host's speed: one kernel call just before the job
        before = timed_kernel()
        if tracer is not None:
            tracer.job = job["id"]
            tracer.active = True
            root = tracer.open("cli.run", "worker")
        if profiler is not None:
            profiler.enable()
        start = time.perf_counter()
        try:
            code = self.run(job["argv"], out=buf)
        except Exception:  # a crash is a failed job, not a failed run
            code, error = None, traceback.format_exc(limit=3)
        elapsed = time.perf_counter() - start
        if profiler is not None:
            profiler.disable()
        if tracer is not None:
            tracer.close(root)
            tracer.active = False
        # and, at an even rate, one kernel call for each EVERY_S that passed
        # since the last calls, so the first of them follows a long job
        due = min(int((time.perf_counter() - self.last_reference) / EVERY_S), MAX_BURST)
        after = [timed_kernel() for _ in range(due)]
        self.last_reference = time.perf_counter()
        self.attempted += 1
        text = buf.getvalue()
        reply = {
            "latency": elapsed,
            "reference_s": [before] + after,
            # the kernel time around the job: just before it, and just after it when a call was due
            "around_s": (before + after[0]) / 2 if after else before,
            "out_bytes": len(text.encode()),
            "general_path": None,
        }
        try:
            if error is not None:
                raise CheckFailed(error)
            doc = self.checker.check(job, code, text)
        except (CheckFailed, ValueError, KeyError, TypeError) as exc:
            self.failures.append(f"{job['id']}: {exc}")
            return reply
        if job["expect"]["command"] == "dij-witness":
            reply["general_path"] = bool(doc["verdicts"]["general_path_used"])
        return reply

    def run_pass(self, tracer: Tracer | None = None, profiler: cProfile.Profile | None = None) -> dict:
        replies = [self.run_job(job, tracer, profiler) for job in self.jobs]
        witnessed = [r["general_path"] for r in replies if r["general_path"] is not None]
        return {
            "wall_s": sum(r["latency"] for r in replies),
            "out_bytes": sum(r["out_bytes"] for r in replies),
            "general_path": [sum(witnessed), len(witnessed)],
        }


def counted_pass(runner: Runner) -> dict:
    profiler = cProfile.Profile()
    runner.run_pass(profiler=profiler)
    counts = {key: 0 for key in COUNTED.values()}
    for (filename, _, funcname), (_, ncalls, _, _, _) in pstats.Stats(profiler).stats.items():
        key = COUNTED.get((os.path.basename(filename), funcname))
        if key is not None:
            counts[key] += ncalls
    return counts


def main(config_path: str) -> int:
    with open(config_path, encoding="utf-8") as fh:
        cfg = json.load(fh)
    # replies go to the real standard output; anything the program prints
    # goes to standard error instead
    replies = sys.stdout
    sys.stdout = sys.stderr
    sys.path.insert(0, cfg["src"])
    from liecert.cli import run

    runner = Runner(run, Checker(), cfg["jobs"])
    # import-time and first-call work is finished before anything is timed
    Runner(run, runner.checker, [cfg["warmup"]]).run_pass()
    tracer = Tracer()
    while True:
        command = sys.stdin.readline().strip()
        if not command:  # the benchmark closed the pipe
            break
        if command.startswith("job "):
            reply = runner.run_job(runner.jobs[int(command[4:])])
        elif command == "pass":
            reply = runner.run_pass()
        elif command == "traced-pass":
            tracer.install()
            reply = runner.run_pass(tracer)
            tracer.uninstall()
        elif command == "counted-pass":
            reply = counted_pass(runner)
        elif command == "finish":
            reply = {
                "attempted": runner.attempted,
                "failures": runner.failures,
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                "layers": tracer.summary(),
            }
        else:
            raise ValueError(f"unknown command {command!r}")
        replies.write(json.dumps(reply) + "\n")
        replies.flush()
        if command == "finish":
            break
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
