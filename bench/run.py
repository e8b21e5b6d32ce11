"""framekit benchmark: run one workload for one seed and print its metrics.

Run from the repository root:

    python3 bench/run.py --workload small-cli --seed 1 --seconds 20 --trace 0

Workloads: ``small-cli`` (all six CLI subcommands on the fixtures and small
generated frames), ``chart-scale`` (CLI on frames up to n=20, N=600) and
``erasure-batch`` (library closed forms on N from 12 to 600).  See
bench/README.md for the metrics.

The program is framekit from ``src/`` of this checkout, used only through
``framekit.cli.main`` and the functions ``framekit`` exports.  Every job's
output is checked by bench/oracle.py.  With ``--trace 0`` the last stdout
line is a JSON object with the end-to-end metrics; with ``--trace 1`` it has
the per-layer metrics of a traced run.  A fuller record, with the
environment, goes to ``bench/results/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
DEADLINE_S = 170.0  # the whole run, set-up probes included
SETUP_REPEATS = 5  # fresh-interpreter set-ups timed per run, after one warm-up
BLAS_THREADS = 1  # BLAS / OpenMP threads in every process, at most nproc
SOLVED = ("ok", "confirmed")
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS")


def budget(text: str) -> tuple[int, int]:
    iters, _, restarts = text.partition("x")
    return int(iters), int(restarts)


def parse_args(argv=None):
    p = argparse.ArgumentParser(description="framekit benchmark")
    p.add_argument("--workload", required=True,
                   choices=("small-cli", "chart-scale", "erasure-batch"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True, help="job time to measure")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--search-budget", type=budget, default=(300, 2),
                   help="ITERSxRESTARTS passed to search and optimal-dual jobs")
    return p.parse_args(argv)


def nproc() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


class Runner:
    """Starts worker processes with a shared deadline and thread pins."""

    def __init__(self, workdir: str, threads: int):
        self.workdir = workdir
        self.t0 = time.perf_counter()
        self.env = dict(os.environ)
        self.env.pop("PYTHONPATH", None)
        for var in THREAD_VARS:
            self.env[var] = str(threads)

    def worker(self, *extra) -> float:
        """Run a worker to completion; return its wall time in seconds."""
        left = DEADLINE_S - (time.perf_counter() - self.t0)
        if left <= 0:
            raise RuntimeError("deadline passed before the worker started")
        cmd = [sys.executable, WORKER, "--root", ROOT, "--workdir", self.workdir, *extra]
        start = time.perf_counter()
        proc = subprocess.run(cmd, env=self.env, cwd=ROOT, timeout=left,
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
        wall = time.perf_counter() - start
        if proc.returncode != 0:
            raise RuntimeError(f"worker exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
        return wall

    def measure(self, seconds: float, trace: int, spans: str | None = None) -> dict:
        out = os.path.join(self.workdir, f"result-{trace}.json")
        extra = ["--seconds", str(seconds), "--trace", str(trace), "--out", out]
        if spans:
            extra += ["--spans", spans]
        self.worker(*extra)
        with open(out, encoding="utf-8") as fh:
            return json.load(fh)


def summarize(res: dict) -> dict:
    """Outcome counts and end-to-end metrics of one measured worker run.

    ``jobs_per_s`` is the median over passes of solved jobs per second of
    job time in that pass; the latency percentiles pool every sample.
    """
    import numpy as np

    lat_ms = np.array([j["latency_s"] for j in res["jobs"]]).T * 1e3  # passes x jobs
    solved = np.array([[o in SOLVED for o in j["outcome"]] for j in res["jobs"]]).T
    counts = Counter(o for j in res["jobs"] for o in j["outcome"])
    p90 = float(np.percentile(lat_ms, 90))
    rates = solved.sum(axis=1) / (lat_ms.sum(axis=1) / 1e3)
    return {
        "attempted": int(lat_ms.size),
        "counts": dict(counts),
        "solved": int(solved.sum()),
        "jobs_per_s": float(np.median(rates)),
        "pass_rates": rates.tolist(),
        "job_p50_ms": float(np.percentile(lat_ms, 50)),
        "job_p90_ms": p90,
        "beyond_p90": int(np.count_nonzero(lat_ms > p90)),
        "failed_frac": 1.0 - float(solved.mean()),
    }


def environment(threads: int) -> dict:
    import numpy as np

    sha = "unknown (not a git checkout)"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            sha = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
                                 text=True, timeout=10).stdout.strip() or sha
        except (OSError, subprocess.SubprocessError):
            pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError, AttributeError):
        blas = "unknown"
    return {"git_sha": sha, "python": platform.python_version(), "numpy": np.__version__,
            "nproc": nproc(), "blas": blas, "blas_threads": threads,
            "platform": platform.platform()}


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "framekit", "__init__.py")):
        print(f"framekit sources not found under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    threads = min(BLAS_THREADS, nproc())
    for var in THREAD_VARS:  # before numpy loads its BLAS in this process
        os.environ[var] = str(threads)
    sys.path.insert(0, HERE)
    import workloads

    workdir = os.path.join(HERE, ".work", f"{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(workdir)
    results_dir = os.path.join(HERE, "results")
    os.makedirs(results_dir, exist_ok=True)
    stem = os.path.join(results_dir, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    try:
        manifest = workloads.build(args.workload, args.seed, workdir, args.search_budget)
        with open(os.path.join(workdir, "manifest.json"), "w", encoding="utf-8") as fh:
            json.dump(manifest, fh)
        runner = Runner(workdir, threads)
        record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
                  "trace": args.trace, "search_budget": args.search_budget,
                  "jobs_per_pass": len(manifest["jobs"]), "env": environment(threads)}
        if args.trace:
            plain = summarize(runner.measure(args.seconds / 2, 0))
            traced_res = runner.measure(args.seconds / 2, 1, spans=stem + "-spans.jsonl")
            traced = summarize(traced_res)
            metrics = dict(traced_res["per_layer"])
            metrics["trace.overhead_frac"] = {
                "value": 1.0 - traced["jobs_per_s"] / plain["jobs_per_s"], "unit": "ratio"}
            summary = dict(traced, attempted=plain["attempted"] + traced["attempted"],
                           counts=dict(Counter(plain["counts"]) + Counter(traced["counts"])))
            record.update(untraced=plain, traced=traced, passes=traced_res["passes"],
                          self_times=traced_res["tracer"]["self_times"],
                          counters=traced_res["tracer"]["counts"])
            res = traced_res
        else:
            runner.worker("--setup-only")  # warm-up: byte-code caches, file cache
            setup = [runner.worker("--setup-only") for _ in range(SETUP_REPEATS)]
            res = runner.measure(args.seconds, 0)
            summary = summarize(res)
            metrics = {
                "setup_s": {"value": statistics.median(setup), "unit": "s"},
                "jobs_per_s": {"value": summary["jobs_per_s"], "unit": "1/s"},
                "job_p50_ms": {"value": summary["job_p50_ms"], "unit": "ms"},
                "job_p90_ms": {"value": summary["job_p90_ms"], "unit": "ms"},
                "peak_rss_mb": {"value": res["peak_rss_mb"], "unit": "MB"},
                "solved_frac": {"value": summary["solved"] / summary["attempted"], "unit": "ratio"},
            }
            record.update(setup_samples_s=setup, summary=summary, passes=res["passes"])
    except (RuntimeError, subprocess.TimeoutExpired, OSError, ValueError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    record["env"].update(res["env"])
    record["metrics"] = metrics
    record["jobs"] = [{"id": j["id"], "median_ms": statistics.median(j["latency_s"]) * 1e3,
                       "latency_ms": [x * 1e3 for x in j["latency_s"]],
                       "outcomes": dict(Counter(j["outcome"])), "reason": j["reason"]}
                      for j in res["jobs"]]
    with open(stem + ".json", "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)

    failed = summary["counts"].get("failed", 0)
    print(f"workload={args.workload} seed={args.seed} passes={res['passes']} "
          f"jobs/pass={len(manifest['jobs'])} samples={summary['attempted']} "
          f"(p90 has {summary['beyond_p90']} beyond) outcomes={summary['counts']} "
          f"failed_frac={summary['failed_frac']:.4f}")
    for j in record["jobs"]:
        if set(j["outcomes"]) - set(SOLVED):
            print(f"  not solved: {j['id']}: {j['outcomes']} {j['reason']}")
    print(json.dumps({"correct": failed == 0, "attempted": summary["attempted"],
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
