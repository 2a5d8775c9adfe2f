"""The timed loop of the `classify` workload, in a process of its own.

run.py builds the signatures, pickles them and starts this script, so that
the peak RSS read here is that of classification alone, as the CLI
workloads read it from each command's process, and not that of the set-up.
The speed meter and, in a traced run, the tracer run here too:

    python3 perfbench/classify_loop.py JOB RESULT

JOB is a pickle of {"signatures", "seconds", "trace"}. RESULT receives, as
JSON, the ledger, the raw time of each pass, the meter's samples and the
layer metrics (null when not traced).
"""

from __future__ import annotations

import dataclasses
import json
import pickle
import resource
import sys

import run


def main(job_path: str, result_path: str) -> int:
    with open(job_path, "rb") as handle:
        job = pickle.load(handle)
    meter, ledger, tracer = run.SpeedMeter("numpy"), run.Ledger(), None
    if job["trace"]:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
    try:
        pass_raw = run.timed_loop(job["seconds"], ledger,
                                  lambda: run.classify_pass(job["signatures"], ledger, meter))
        meter.sample()
    finally:
        if tracer is not None:
            tracer.uninstall()
    ledger.peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    with open(result_path, "w", encoding="utf-8") as handle:
        json.dump({
            "ledger": dataclasses.asdict(ledger),
            "pass_raw": pass_raw,
            "mids": meter.mids,
            "durations": meter.durations,
            "layers": tracer.metrics() if tracer is not None else None,
            "spans": len(tracer.spans) if tracer is not None else 0,
        }, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:]))
