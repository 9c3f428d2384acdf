"""Serve one workload in this process: a closed loop with one client.

    python3 bench/serve.py --requests DIR/requests.json --seconds 12 \
        --min-requests 40 --trace 0 --out DIR/served.json

The client calls ``finitude.cli.main(["--json", ...])`` in-process, one
request after another.  One warm-up request is served first.  Rounds are
served whole until ``--seconds`` have passed and at least
``--min-requests`` requests were made.  The output file holds each
request's wall time, exit code and report, the host-speed factor around
it (bench/hostspeed.py), the loop's wall time and the process's peak
resident memory; with ``--trace 1`` it also holds the
per-layer metrics, and the spans go to ``trace.json`` beside it.

This process imports neither sympy nor mpmath: the checks run elsewhere.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import re
import resource
import time
import traceback
from contextlib import redirect_stderr, redirect_stdout

from hostspeed import Meter, measure

RECORD_FIELDS = ["round", "position", "seconds", "exit", "output", "error",
                 "speed"]
# seconds between host-speed calibrations (about 15 ms each)
CALIBRATION_INTERVAL = 0.4
_ELAPSED = re.compile(r'\n  "elapsed_seconds": [^,\n]*,')


def call(main, argv):
    """Serve one request; returns (seconds, exit code, stdout, error)."""
    out, err = io.StringIO(), io.StringIO()
    error = None
    start = time.perf_counter()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            code = main(["--json", *argv])
    except SystemExit as exc:
        code = exc.code
    except Exception:  # a request that raises is a failed request
        code = None
        error = traceback.format_exc(limit=4)
    elapsed = time.perf_counter() - start
    if error is None and code not in (0, 1, 2):
        error = err.getvalue()[-2000:]
    return elapsed, code, out.getvalue(), error


def serve(rounds, seconds, min_requests, tracer=None):
    from finitude.cli import main

    call(main, rounds[0][0]["argv"])  # warm-up, not measured
    if tracer is not None:
        tracer.install()
    records = []
    outputs = {}
    measure()  # warm-up of the reference, not kept
    meter = Meter(CALIBRATION_INTERVAL)
    meter.calibrate()
    start = time.perf_counter()
    round_index = 0
    while True:
        which = round_index % len(rounds)
        for position, request in enumerate(rounds[which]):
            if tracer is not None:
                tracer.begin_request(len(records), time.perf_counter())
            elapsed, code, text, error = call(main, request["argv"])
            if tracer is not None:
                tracer.end_request(time.perf_counter())
            # keep each distinct report once (reruns of a round repeat
            # them), so memory does not grow with the number served
            text = _ELAPSED.sub("", text)
            known = outputs.setdefault(f"{which}:{position}", [])
            if text not in known:
                known.append(text)
            records.append([which, position, elapsed, code,
                            known.index(text), error])
            meter.served()
        round_index += 1
        loop_seconds = time.perf_counter() - start
        if loop_seconds >= seconds and len(records) >= min_requests:
            break
    for record, speed in zip(records, meter.factors()):
        record.append(speed)
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {"record_fields": RECORD_FIELDS, "records": records,
            "outputs": outputs,
            "rounds_served": round_index, "loop_seconds": loop_seconds,
            "peak_rss_mb": peak_kb / 1024.0}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--requests", required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--min-requests", type=int, default=1)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    with open(args.requests, encoding="utf-8") as handle:
        rounds = json.load(handle)
    tracer = None
    if args.trace:
        from tracer import Tracer
        tracer = Tracer()
    served = serve(rounds, args.seconds, args.min_requests, tracer)
    if tracer is not None:
        served["per_layer"] = tracer.per_request()
        tracer.write(os.path.join(os.path.dirname(args.out), "trace.json"))
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(served, handle)


if __name__ == "__main__":
    main()
