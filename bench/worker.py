"""Run one workload's job list in a fresh interpreter and report raw results.

Started by run.py; not meant to be run by hand.  It puts ``<root>/src`` first
on ``sys.path``, imports framekit from there (and refuses any other copy),
loads the manifest and inputs, and then either exits (``--setup-only``, used
to time set-up) or runs whole passes over the job list, at least two, until
the next pass would end past ``--seconds`` of job time.  Each job is timed
alone; its output is checked by the numpy oracle outside the timed region.
Results go to ``--out`` as JSON.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import sys
import time


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--root", required=True)
    p.add_argument("--workdir", required=True)
    p.add_argument("--seconds", type=float, default=0.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true")
    p.add_argument("--out")
    p.add_argument("--spans")
    return p.parse_args(argv)


def import_framekit(root):
    src = os.path.join(root, "src")
    sys.path.insert(0, src)
    import framekit
    import framekit.cli  # noqa: F401  (the CLI layer and its fixtures)

    where = os.path.realpath(framekit.__file__)
    if not where.startswith(os.path.realpath(src) + os.sep):
        raise SystemExit(f"framekit imported from {where}, not from {src}")
    return framekit


class Job:
    """One manifest entry: ``run()`` is timed, ``check(raw)`` is not."""

    def __init__(self, spec, run, check):
        self.id = spec["id"]
        self.run = run
        self.check = check


def cli_jobs(fk, manifest, workdir, oracle):
    jobs = []
    for spec in manifest["jobs"]:
        argv = [os.path.join(workdir, a) if a.endswith(".json") else a for a in spec["argv"]]
        path = os.path.join(workdir, f"{spec['input']}.json")

        def run(argv=argv):
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                try:
                    rc = fk.cli.main(argv)
                except SystemExit as exc:
                    rc = exc.code
                except Exception as exc:  # a crash is an outcome the oracle classifies
                    rc = exc
            return rc, out.getvalue(), err.getvalue()

        def check(raw, spec=spec, path=path):
            return oracle.check_cli(spec, path, *raw)

        jobs.append(Job(spec, run, check))
    return jobs


def lib_jobs(fk, manifest, workdir, oracle):
    import numpy as np

    with np.load(os.path.join(workdir, "systems.npz")) as data:
        arrays = {k: data[k] for k in data.files}
    names = sorted({k.split(".")[0] for k in arrays})
    systems = {}
    for name in names:
        K = arrays[f"{name}.K"]
        op = fk.build_operator(K)
        if f"{name}.F" in arrays:
            F, G = arrays[f"{name}.F"], arrays[f"{name}.G"]
        else:  # optimal self-dual pair, built by the library under test
            N = int(arrays[f"{name}.N"][0])
            F = G = np.array(fk.construct_optimal_self_dual(op, N).synthesis)
        frame, dual = fk.Frame(F), fk.Frame(G)
        systems[name] = {"F": F, "G": G, "K": K, "op": op, "frame": frame, "dual": dual,
                         "ds": fk.build_dual_system(frame, dual, op)}

    def call_args(func, s, kwargs):
        if func == "construct_optimal_self_dual":
            return (s["op"], kwargs["n_vectors"]), {}
        if func == "build_dual_system":
            return (s["frame"], s["dual"], s["op"]), {}
        if func == "two_uniform_spectral_optimality":
            return (s["frame"], s["dual"], s["op"]), {}
        if func == "pair_bounds":
            return (s["op"], s["frame"].n_vectors), {}
        if func == "build_report":
            return (s["ds"],), {"ms": tuple(kwargs["ms"])}
        return (s["ds"],), {}

    jobs = []
    for spec in manifest["jobs"]:
        s = systems[spec["input"]]
        calls = [(func, *call_args(func, s, kwargs)) for func, kwargs in spec["calls"]]

        def run(calls=calls):
            out = []
            for func, args, kwargs in calls:
                try:
                    out.append(getattr(fk, func)(*args, **kwargs))
                except Exception as exc:  # an exception is an outcome the oracle classifies
                    out.append(exc)
            return out

        def check(raw, spec=spec, s=s):
            for (func, kwargs), result in zip(spec["calls"], raw):
                outcome, reason = oracle.check_lib(func, kwargs, result, s["F"], s["G"], s["K"])
                if outcome != "ok":
                    return outcome, f"{func}: {reason}"
            return "ok", ""

        jobs.append(Job(spec, run, check))
    return jobs


def run_passes(jobs, seconds, tracer=None):
    """Whole passes, at least two, until the next would end past ``seconds``.

    ``seconds`` counts job time only.  Returns the pass count, the summed job
    time and, per job, its latency and oracle outcome in every pass plus the
    last non-empty reason.
    """
    record = {job.id: {"latency_s": [], "outcome": [], "reason": ""} for job in jobs}
    cache = {}
    job_time = 0.0
    passes = 0
    while True:
        for k, job in enumerate(jobs):
            if tracer is not None:
                tracer.begin_job(job.id)
            t0 = time.perf_counter()
            raw = job.run()
            dt = time.perf_counter() - t0
            if tracer is not None:
                tracer.end_job()
            job_time += dt
            # CLI output (exit code and text) that repeats exactly has the same verdict.
            key = (k, repr(raw)) if isinstance(raw, tuple) else None
            if key is not None and key in cache:
                outcome, reason = cache[key]
            else:
                outcome, reason = job.check(raw)
                if key is not None:
                    cache[key] = (outcome, reason)
            rec = record[job.id]
            rec["latency_s"].append(dt)
            rec["outcome"].append(outcome)
            rec["reason"] = reason or rec["reason"]
        passes += 1
        if passes >= 2 and job_time * (passes + 1) / passes > seconds:
            break
    return passes, job_time, record


def main(argv=None):
    args = parse_args(argv)
    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    fk = import_framekit(args.root)
    import oracle

    with open(os.path.join(args.workdir, "manifest.json"), encoding="utf-8") as fh:
        manifest = json.load(fh)
    build = lib_jobs if manifest["workload"] == "erasure-batch" else cli_jobs
    jobs = build(fk, manifest, args.workdir, oracle)
    if args.setup_only:
        return 0

    tracer = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
    wall0 = time.perf_counter()
    passes, job_time, record = run_passes(jobs, args.seconds, tracer)
    wall = time.perf_counter() - wall0
    maxrss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    import numpy as np
    import scipy

    result = {
        "passes": passes,
        "job_time_s": job_time,
        "wall_s": wall,
        "peak_rss_mb": maxrss_mb,
        "jobs": [{"id": job.id, **record[job.id]} for job in jobs],
        "env": {"numpy": np.__version__, "scipy": scipy.__version__,
                "framekit_file": os.path.relpath(fk.__file__, args.root)},
    }
    if tracer is not None:
        result["tracer"] = {"self_times": {k: list(v) for k, v in tracer.self_times().items()},
                            "counts": dict(tracer.counts), "spans": len(tracer.spans)}
        result["per_layer"] = tracer.metrics(passes)
        if args.spans:
            tracer.write_spans(args.spans)
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
