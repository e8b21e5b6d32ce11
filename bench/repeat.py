"""Repeat the benchmark over seeds and summarize each metric.

    python3 bench/repeat.py --workloads small-cli chart-scale erasure-batch \
        --seeds 1-10 --seconds 25 --out bench/baseline.json

For every workload and metric it records the values, their median and
quartiles (``statistics.quantiles(values, n=4)``), and the spread: the
distance between the quartiles as a share of the median.  Runs are
sequential; each is one ``run.py`` process with the arguments given in
BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def seed_list(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workloads", nargs="+", required=True)
    p.add_argument("--seeds", type=seed_list, required=True, help="e.g. 1-10")
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--out", required=True)
    args = p.parse_args(argv)

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        command = json.load(fh)["command"]
    summary = {"seconds": args.seconds, "trace": args.trace, "seeds": args.seeds,
               "command": command, "workloads": {}}
    for workload in args.workloads:
        values, correct, env = {}, [], None
        for seed in args.seeds:
            proc = subprocess.run(
                [sys.executable, *command[1:], "--workload", workload, "--seed", str(seed),
                 "--seconds", str(args.seconds), "--trace", str(args.trace)],
                cwd=ROOT, capture_output=True, text=True, timeout=600)
            if proc.returncode != 0:
                print(proc.stderr, file=sys.stderr)
                return 1
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            correct.append(result["correct"])
            for name, m in result["metrics"].items():
                values.setdefault(name, {"unit": m["unit"], "values": []})["values"].append(m["value"])
            record = os.path.join(HERE, "results", f"{workload}-seed{seed}-trace{args.trace}.json")
            with open(record, encoding="utf-8") as fh:
                env = json.load(fh)["env"]
            print(f"{workload} seed={seed} " + " ".join(
                f"{k}={m['value']:.4g}" for k, m in result["metrics"].items()), flush=True)
        for name, m in values.items():
            v = m["values"]
            q1, med, q3 = statistics.quantiles(v, n=4) if len(v) > 1 else (v[0],) * 3
            m.update(median=statistics.median(v), q1=q1, q3=q3,
                     spread=(q3 - q1) / statistics.median(v) if statistics.median(v) else 0.0)
            print(f"  {workload} {name}: median {m['median']:.4g} {m['unit']}, "
                  f"spread {m['spread']:.3f}", flush=True)
        summary["workloads"][workload] = {"all_correct": all(correct), "metrics": values,
                                          "env": env}
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(summary, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
