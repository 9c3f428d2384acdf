"""Benchmark entry point: one workload, one seed, one run.

    python3 bench/run.py --workload curves --seed 1 --seconds 12 --trace 0

Run from the root of a source checkout.  The run

1. draws the workload's requests from the seed (bench/workloads.py, in its
   own process, since it uses sympy);
2. serves the requests in a fresh process (bench/serve.py), a closed loop
   with one client, BLAS and OpenMP pinned to one thread;
3. times fresh interpreters importing ``finitude.cli`` (``setup_s``);
4. computes the metrics, and only then imports sympy and mpmath to check
   every distinct report (bench/checks.py);
5. prints one JSON line: ``correct``, ``attempted``, ``failed``, and the
   end-to-end metrics (``--trace 0``) or the per-layer ones (``--trace 1``).

A request fails when it raises, exits 64, or its report fails its check.
``correct`` is false when a request fails that is not one of the planted
requests for the two program faults named in bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

# Per workload: requests a run serves at least, and the latency percentile
# reported as latency_tail_s.  min_requests puts at least ten requests
# beyond that percentile.
WORKLOADS = {
    "curves": {"min_requests": 60, "tail": 75},
    "rational": {"min_requests": 60, "tail": 80},
    "fuchsian": {"min_requests": 50, "tail": 80},
    "short": {"min_requests": 500, "tail": 98},
}
SETUP_LAUNCHES = 5
SUBPROCESS_TIMEOUT = 150


def environment():
    env = dict(os.environ)
    env.update(PYTHONPATH=SRC, PYTHONHASHSEED="0", OPENBLAS_NUM_THREADS="1",
               OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    return env


def run_python(args, env, timeout=SUBPROCESS_TIMEOUT):
    subprocess.run([sys.executable, *args], env=env, cwd=ROOT, check=True,
                   timeout=timeout)


def setup_seconds(env):
    """Median wall time for a fresh interpreter to import finitude.cli.

    Runs after serving, so byte code is compiled already, as it is for a
    user who has run the program before.  Unlike request times these are
    not scaled by host speed: an import is mostly file and loader work,
    and scaling by the reference computation widened its spread (median
    of five launches 0.56-1.14 s scaled against 0.62-0.85 s unscaled, in
    eight trials)."""
    probe = ["-c", "import finitude.cli"]
    times = []
    for _ in range(SETUP_LAUNCHES):
        start = time.perf_counter()
        run_python(probe, env)
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def percentile(values, pct):
    """Nearest-rank percentile: the value with pct% of values at or below."""
    ordered = sorted(values)
    rank = max(1, math.ceil(pct / 100.0 * len(ordered)))
    return ordered[rank - 1]


def end_to_end(served, failed, workload, setup):
    """Request times are wall times scaled by the host speed around each
    request (bench/hostspeed.py); throughput is requests that passed per
    second of scaled serving time."""
    seconds = [record[2] * record[6] for record in served["records"]]
    attempted = len(seconds)
    return {
        "throughput_rps": ((attempted - failed) / math.fsum(seconds),
                           "1/s"),
        "latency_p50_s": (statistics.median(seconds), "s"),
        "latency_tail_s": (percentile(seconds,
                                      WORKLOADS[workload]["tail"]), "s"),
        "setup_s": (setup, "s"),
        "peak_rss_mb": (served["peak_rss_mb"], "MB"),
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "finitude", "cli.py")):
        print(f"no finitude sources under {SRC}", file=sys.stderr)
        return 2
    out_dir = os.path.join(HERE, "out", args.workload)
    shutil.rmtree(out_dir, ignore_errors=True)
    os.makedirs(out_dir)
    env = environment()
    requests_path = os.path.join(out_dir, "requests.json")
    served_path = os.path.join(out_dir, "served.json")

    run_python([os.path.join(HERE, "workloads.py"), "--workload",
                args.workload, "--seed", str(args.seed), "--out", out_dir],
               env)
    run_python([os.path.join(HERE, "serve.py"), "--requests", requests_path,
                "--seconds", str(args.seconds), "--min-requests",
                str(WORKLOADS[args.workload]["min_requests"]),
                "--trace", str(args.trace), "--out", served_path], env)
    setup = None if args.trace else setup_seconds(env)
    with open(served_path, encoding="utf-8") as handle:
        served = json.load(handle)
    with open(requests_path, encoding="utf-8") as handle:
        rounds = json.load(handle)

    # metrics are taken; only now may sympy and mpmath be imported
    import checks
    verdicts = checks.check_served(rounds, served)
    failed = sum(1 for round_, position, _s, _c, output, *_rest
                 in served["records"]
                 if verdicts[(round_, position, output)] is not None)
    unexpected = {key: why for key, why in verdicts.items()
                  if why is not None
                  and not rounds[key[0]][key[1]]["meta"].get("planted")}
    with open(os.path.join(out_dir, "failures.json"), "w",
              encoding="utf-8") as handle:
        json.dump([{"request": rounds[r][p]["argv"], "why": why}
                   for (r, p, _o), why in verdicts.items()
                   if why is not None], handle, indent=1)
    for (r, p, _o), why in unexpected.items():
        print(f"unexpected failure: {rounds[r][p]['argv']}: {why}",
              file=sys.stderr)

    if args.trace:
        metrics = served["per_layer"]
    else:
        metrics = end_to_end(served, failed, args.workload, setup)
    print(json.dumps({
        "correct": not unexpected,
        "attempted": len(served["records"]),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
