"""liecert benchmark: three workloads driven through ``liecert.cli.run``.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-test

Run from the root of a source checkout (``src/liecert`` must exist).  With
``--trace 0`` the run interleaves warm jobs (one warm worker process, the
job list in a cycle), the workload's fixed job in a fresh CLI process, and
fresh runs of a trivial command for set-up time, each for its share of S
seconds; every job runs at least once.  Times are scaled by a reference
kernel timed throughout the run (see ``reference.py``) and the end-to-end
metrics are medians.  With ``--trace 1`` a round is one untraced and one
traced pass, repeated while at least half a round and the counted pass
still fit in S seconds; then one counted pass runs under cProfile.  The
per-layer metrics are per pass.  Every output is checked.  The last line of standard output is one
JSON object: ``correct``, ``attempted``, ``failed``, ``metrics``; the line
before it is a JSON report of the run.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time

from checks import CheckFailed, Checker
from reference import REFERENCE_S
from workloads import COLD_JOBS, OMITTED, WORKLOADS, make_jobs, roots_job, write_inputs

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
HERE = os.path.join(ROOT, "perfbench")
TMP_PARENT = os.path.join(ROOT, ".perfbench_tmp")
DEADLINE_S = 170  # a run must end within 180 s

# shares of the measuring time: warm jobs, the cold job in a fresh process,
# and fresh set-ups; each sampled often enough for a steady median
SHARES = {"warm": 0.6, "cold": 0.32, "setup": 0.08}
# a pass under cProfile takes about this many untraced passes
COUNTED_PASS_COST = 3
# self-test keeps the jobs of at most this rank
QUICK_MAX_RANK = {"enumerate": 3, "subalgebra": 4, "affine": 2}

END_TO_END_UNITS = {"wall_s": "s", "job_p50_s": "s", "cold_job_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}

# per-layer metric -> (unit, key in the traced summary, or None when computed below)
LAYER_METRICS = {
    "cli.self_s": ("s", "cli.run.self_s"),
    "cli.out_bytes": ("bytes", None),
    "rootsys.build_root_system.s": ("s", "rootsys.build_root_system.s"),
    "chevalley.build_semisimple.self_s": ("s", "chevalley.build_semisimple.self_s"),
    "chevalley.killing_form.s": ("s", "chevalley.killing_form.s"),
    "chevalley.ambient_dim.sum": ("count", "chevalley.build_semisimple.ambient_dim"),
    "chevalley.extract_subalgebra.s": ("s", "chevalley.extract_subalgebra.s"),
    "qgraded.enumerate_minimal.self_s": ("s", "qgraded.enumerate_minimal.self_s"),
    "qgraded.spans_q.calls": ("count", "qgraded.spans_q.calls"),
    "qgraded.spans_q.s": ("s", "qgraded.spans_q.s"),
    "qgraded.minimal_per_span_test": ("ratio", None),
    "qgraded.certify.s": ("s", "qgraded.certify.s"),
    "dercalc.derivation_space.s": ("s", "dercalc.derivation_space.s"),
    "dercalc.centroid_space.s": ("s", "dercalc.centroid_space.s"),
    "dercalc.verify_aid_eq_inn.self_s": ("s", "dercalc.verify_aid_eq_inn.self_s"),
    "dercalc.aid_membership.calls": ("count", "dercalc.aid_membership.calls"),
    "dercalc.kernel.unknowns": ("count", "dercalc.kernel_basis.site_cols"),
    "dercalc.kernel.rows": ("count", "dercalc.kernel_basis.site_rows"),
    "dercalc.rref.calls": ("count", "dercalc.rref.site_calls"),
    "loopalg.bracket_match.calls": ("count", "loopalg.bracket_match.calls"),
    "loopalg.bracket_match.self_s": ("s", "loopalg.bracket_match.self_s"),
    "loopalg.bracket_match.unknowns": ("count", "loopalg.solve_sparse.site_unknowns"),
    "loopalg.bracket_match.equations": ("count", "loopalg.solve_sparse.site_equations"),
    "loopalg.affine_bracket.calls": ("count", None),
    "loopalg.global_inner_match.self_s": ("s", "loopalg.global_inner_match.self_s"),
    "loopalg.toral_center_witness.self_s": ("s", "loopalg.toral_center_witness.self_s"),
    "loopalg.general_path_ratio": ("ratio", None),
    "loopalg.loop_context.s": ("s", "loopalg.loop_context.s"),
    "loopalg.aid_obstruction_check.s": ("s", "loopalg.aid_obstruction_check.s"),
    "exact.rref.calls": ("count", "exact.rref.calls"),
    "exact.rref.s": ("s", "exact.rref.s"),
    "exact.rref.cells": ("count", "exact.rref.cells"),
    "exact.kernel_basis.s": ("s", "exact.kernel_basis.s"),
    "exact.solve.calls": ("count", "exact.solve.calls"),
    "exact.solve.s": ("s", "exact.solve.s"),
    "exact.solve_sparse.calls": ("count", "exact.solve_sparse.calls"),
    "exact.solve_sparse.s": ("s", "exact.solve_sparse.s"),
    "exact.solve_sparse.nonzeros": ("count", "exact.solve_sparse.nonzeros"),
    "exact.smith_normal_form.calls": ("count", "exact.smith_normal_form.calls"),
    "exact.smith_normal_form.s": ("s", "exact.smith_normal_form.s"),
    "exact.fraction_new": ("count", None),
    "trace_overhead": ("ratio", None),
}


class BenchError(Exception):
    pass


def child_env() -> dict:
    """Pinned environment for every process the benchmark starts."""
    env = dict(os.environ)
    env.pop("LIECERT_SEED", None)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONPATH"] = SRC
    return env


def remaining(started: float) -> float:
    left = DEADLINE_S - (time.perf_counter() - started)
    if left <= 0:
        raise BenchError("out of time")
    return left


def fresh_cli(argv: list[str], started: float) -> tuple[float, int, str]:
    """Wall time of ``python -m liecert.cli ARGV`` in a new interpreter."""
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "liecert.cli"] + argv,
        cwd=ROOT, env=child_env(), capture_output=True, text=True, timeout=remaining(started),
    )
    return time.perf_counter() - t0, proc.returncode, proc.stdout


def timed_cli(job: dict, checker: Checker, started: float, tally: dict) -> float:
    """One checked fresh-process run of ``job``; returns its wall time."""
    elapsed, code, out = fresh_cli(job["argv"], started)
    tally["attempted"] += 1
    try:
        checker.check(job, code, out)
    except (CheckFailed, ValueError, KeyError) as exc:
        tally["failures"].append(f"{job['id']} (fresh process): {exc}")
    return elapsed


class Worker:
    """The warm worker process: one command line in, one JSON line out."""

    def __init__(self, jobs: list[dict], tmp: str, started: float):
        path = os.path.join(tmp, "worker.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"src": SRC, "jobs": jobs, "warmup": roots_job()}, fh)
        self.proc = subprocess.Popen(
            [sys.executable, os.path.join(HERE, "worker.py"), path],
            cwd=ROOT, env=child_env(), stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )
        # a hung pass is killed at the run's deadline, which ends the readline below
        self.watchdog = threading.Timer(remaining(started), self.proc.kill)
        self.watchdog.daemon = True
        self.watchdog.start()

    def call(self, command: str) -> dict:
        try:
            self.proc.stdin.write(command + "\n")
            self.proc.stdin.flush()
        except BrokenPipeError:
            line = ""
        else:
            line = self.proc.stdout.readline()
        if not line:
            raise BenchError(f"worker stopped (exit {self.proc.wait()}) during {command!r}")
        return json.loads(line)

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        self.watchdog.cancel()
        if exc_type is not None and self.proc.poll() is None:
            self.proc.kill()
        try:
            self.proc.stdin.close()  # after "finish" the worker has already left its loop
        except BrokenPipeError:
            pass
        self.proc.wait()
        self.proc.stdout.close()


def ambient_share(jobs: list[dict]) -> dict:
    """How many jobs rebuild an ambient algebra an earlier job already built."""
    keys = [(j["argv"][2], j["argv"][4]) for j in jobs if "--psi" in j["argv"]]
    distinct = len(set(keys))
    return {
        "jobs_building_ambient": len(keys),
        "distinct_ambients": distinct,
        "repeat_share": (len(keys) - distinct) / len(keys) if keys else 0.0,
    }


def end_to_end(workload: str, jobs: list[dict], seconds: float, tmp: str, started: float, tally: dict) -> dict:
    """Warm jobs, fresh-process cold jobs and fresh set-ups, interleaved so
    that each kind gets its share of the measuring time and samples all of it.
    Every warm job, the cold job and the set-up run at least once."""
    checker = Checker()
    setup = roots_job()
    cold = write_inputs([COLD_JOBS[workload]], tmp)[0]
    latencies = [[] for _ in jobs]
    adjacent = [[] for _ in jobs]  # scaled by the kernel calls around each run
    samples = {"cold": [], "setup": []}
    reference = []
    spent = dict.fromkeys(SHARES, 0.0)
    next_job = 0

    def pick():
        missing = [k for k in SHARES if not (samples[k] if k in samples else all(latencies))]
        if time.perf_counter() >= deadline:
            return missing[0] if missing else None
        return min(SHARES, key=lambda k: spent[k] / SHARES[k])

    with Worker(jobs, tmp, started) as worker:
        fresh_cli(setup["argv"], started)  # compiles the bytecode; not measured
        deadline = time.perf_counter() + seconds
        while (kind := pick()) is not None:
            began = time.perf_counter()
            if kind == "warm":
                reply = worker.call(f"job {next_job}")
                latencies[next_job].append(reply["latency"])
                adjacent[next_job].append(reply["latency"] * REFERENCE_S / reply["around_s"])
                reference += reply["reference_s"]
                next_job = (next_job + 1) % len(jobs)
            else:
                samples[kind].append(timed_cli(cold if kind == "cold" else setup, checker, started, tally))
            spent[kind] += time.perf_counter() - began
        final = worker.call("finish")
    tally["attempted"] += final["attempted"]
    tally["failures"] += final["failures"]
    # Each job at its median over its runs, so one slow run of one job moves
    # little.  The host's speed changes within seconds, so a time is scaled by
    # the reference kernel timed over the same stretch: the whole run for the
    # sums and the fresh processes, the kernel calls around the job for a
    # single warm job's latency (see reference.py).
    per_job = [statistics.median(ts) for ts in latencies]
    scale = REFERENCE_S / statistics.fmean(reference)
    measured = {
        "wall_s": sum(per_job),
        "job_p50_s": statistics.median(per_job),
        "cold_job_s": statistics.median(samples["cold"]),
        "setup_s": statistics.median(samples["setup"]),
    }
    tally["report"].update(
        job_samples=sum(map(len, latencies)),
        samples_per_job=[min(map(len, latencies)), max(map(len, latencies))],
        share_s=spent,
        cold_job=cold["id"],
        cold_job_samples_s=samples["cold"],
        setup_samples=len(samples["setup"]),
        measured_s=measured,
        reference_samples=len(reference),
        reference_mean_s=statistics.fmean(reference),
        scale=scale,
    )
    values = {name: value * scale for name, value in measured.items()}
    values["job_p50_s"] = statistics.median(statistics.median(ts) for ts in adjacent)
    values["peak_rss_mb"] = final["peak_rss_mb"]
    return values


def per_layer(jobs: list[dict], seconds: float, tmp: str, started: float, tally: dict) -> dict:
    """Rounds of one untraced and one traced pass, then one counted pass,
    all within about ``seconds``; there is always one round."""
    untraced, traced = [], []
    with Worker(jobs, tmp, started) as worker:
        deadline = time.perf_counter() + seconds
        while True:
            began = time.perf_counter()
            untraced.append(worker.call("pass"))
            traced.append(worker.call("traced-pass"))
            now = time.perf_counter()
            # another round needs at least half a round to fit, and the counted pass after it
            if now + (now - began) / 2 + COUNTED_PASS_COST * untraced[-1]["wall_s"] >= deadline:
                break
        counts = worker.call("counted-pass")
        final = worker.call("finish")
    tally["attempted"] += final["attempted"]
    tally["failures"] += final["failures"]
    n = len(traced)
    layers = final["layers"]
    values = {name: layers.get(key, 0) / n for name, (_, key) in LAYER_METRICS.items() if key is not None}
    spans_q = layers.get("qgraded.spans_q.calls", 0)
    found = layers.get("qgraded.enumerate_minimal.found", 0)
    general, witnessed = (sum(p["general_path"][k] for p in traced) for k in (0, 1))
    untraced_wall = statistics.median(p["wall_s"] for p in untraced)
    traced_wall = statistics.median(p["wall_s"] for p in traced)
    values.update(
        {
            "cli.out_bytes": sum(p["out_bytes"] for p in traced) / n,
            "qgraded.minimal_per_span_test": found / spans_q if spans_q else 0.0,
            "loopalg.general_path_ratio": general / witnessed if witnessed else 0.0,
            "loopalg.affine_bracket.calls": counts["loopalg.affine_bracket.calls"],
            "exact.fraction_new": counts["exact.fraction_new"],
            "trace_overhead": traced_wall / untraced_wall - 1,
        }
    )
    tally["report"].update(
        rounds=n,
        traced_wall_s=traced_wall,
        untraced_wall_s=untraced_wall,
        minimal_per_span_test_base={"minimal_found": found / n, "span_tests": spans_q / n},
        general_path_base={"general_path": general / n, "witnessed": witnessed / n},
    )
    return values


def measure(workload: str, jobs: list[dict], seconds: float, trace: bool, seed) -> tuple[dict, dict]:
    """Run one measurement; returns (result line, report)."""
    started = time.perf_counter()
    tally = {
        "attempted": 0,
        "failures": [],
        "report": {
            "workload": workload,
            "seed": seed,
            "trace": int(trace),
            "python": platform.python_version(),
            "cpu_count": os.cpu_count(),
            "loadavg_start": os.getloadavg(),
            "loop": "closed loop, one client, one job at a time in one warm worker process",
            "jobs_per_pass": len(jobs),
            "ambient": ambient_share(jobs),
            "hygiene": (
                "PYTHONHASHSEED=0, LIECERT_SEED unset, no --cache/--timings/--json, "
                "inputs in a temporary directory under .perfbench_tmp/ that is removed afterwards"
            ),
            "omitted": OMITTED,
        },
    }
    os.makedirs(TMP_PARENT, exist_ok=True)
    try:
        with tempfile.TemporaryDirectory(dir=TMP_PARENT) as tmp:
            jobs = write_inputs(jobs, tmp)
            if trace:
                values = per_layer(jobs, seconds, tmp, started, tally)
                units = {name: unit for name, (unit, _) in LAYER_METRICS.items()}
            else:
                values = end_to_end(workload, jobs, seconds, tmp, started, tally)
                units = END_TO_END_UNITS
    finally:
        try:
            os.rmdir(TMP_PARENT)
        except OSError:
            pass
    failed = len(tally["failures"])
    report = tally["report"]
    report.update(
        loadavg_end=os.getloadavg(),
        run_s=time.perf_counter() - started,
        fail_ratio=failed / tally["attempted"],
        failures=tally["failures"][:20],
    )
    line = {
        "correct": failed == 0,
        "attempted": tally["attempted"],
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }
    return line, report


# ---------------------------------------------------------------------------
# self-test
# ---------------------------------------------------------------------------


def quick_jobs(workload: str, seed: int) -> list[dict]:
    limit = QUICK_MAX_RANK[workload]
    return [j for j in make_jobs(workload, seed) if int(j["argv"][j["argv"].index("--rank") + 1]) <= limit]


def self_test() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    declared = {
        False: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        True: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    problems = []

    def expect(cond: bool, message: str) -> None:
        print(("ok   " if cond else "FAIL ") + message)
        if not cond:
            problems.append(message)

    for workload in WORKLOADS:
        counts = []
        for trace in (False, True, True):
            line, _ = measure(workload, quick_jobs(workload, 1), 0, trace, 1)
            got = {name: m["unit"] for name, m in line["metrics"].items()}
            expect(got == declared[trace], f"{workload} trace={int(trace)}: every declared metric with its unit")
            expect(line["correct"] and line["failed"] == 0, f"{workload} trace={int(trace)}: all outputs pass")
            if trace:
                counts.append({k: m["value"] for k, m in line["metrics"].items() if m["unit"] == "count"})
        expect(counts[0] == counts[1], f"{workload}: counts identical across two traced runs")

    # a wrong expectation is counted as a failure; the run still completes
    jobs = quick_jobs("enumerate", 1)
    jobs[0] = dict(jobs[0], expect=dict(jobs[0]["expect"], count=jobs[0]["expect"]["count"] + 1))
    line, report = measure("enumerate", jobs, 0, False, 1)
    expect(
        line["failed"] == 1 and not line["correct"] and report["fail_ratio"] > 0
        and set(line["metrics"]) == set(declared[False]),
        "enumerate: a wrong expectation raises fail_ratio without aborting",
    )
    print(f"self-test: {len(problems)} problem(s)")
    return 1 if problems else 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true", help="check metric names, failure counting and counts")
    args = parser.parse_args()
    # SIGTERM unwinds like an exception: the worker and any fresh process are
    # killed and waited for, and the temporary directory is removed
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not os.path.isfile(os.path.join(SRC, "liecert", "cli.py")):
        print(f"error: no liecert sources under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    if args.self_test:
        return self_test()
    if args.workload is None:
        parser.error("--workload is required")
    try:
        line, report = measure(args.workload, make_jobs(args.workload, args.seed), args.seconds, bool(args.trace), args.seed)
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for name, m in line["metrics"].items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
    if not args.trace:
        print(f"fail_ratio {report['fail_ratio']:.6g} ({line['failed']} of {line['attempted']})")
    print(json.dumps({"report": report}))
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
