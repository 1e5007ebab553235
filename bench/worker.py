"""One measured process of the benchmark; bench/run.py starts it.

    python3 bench/worker.py SPAWNED_AT setup
    python3 bench/worker.py SPAWNED_AT pass WORKLOAD SEED TINY TRACE
    python3 bench/worker.py SPAWNED_AT suite NAME

SPAWNED_AT is the parent's time.monotonic() just before it started this
process, so `setup_s` covers interpreter start-up and `import sp2n`.  The
result is one JSON object on the last line of stdout.
"""

import sys
import time

import sp2n

SETUP_S = time.monotonic() - float(sys.argv[1])

import json  # noqa: E402  (imported after the set-up time is taken)
import os  # noqa: E402
import resource  # noqa: E402
from pathlib import Path  # noqa: E402

import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402

SPAN_DIR = Path(__file__).resolve().parent / "out"


def main(argv: list[str]) -> dict:
    mode = argv[2]
    result = {"setup_s": SETUP_S, "sp2n_file": sp2n.__file__}
    if mode == "setup":
        return result
    name = argv[3]  # a workload, or a suite in "suite" mode
    run = workloads.Run(Tracer() if mode == "pass" and argv[6] == "1" else None)
    started = time.perf_counter()
    if mode == "suite":
        workloads.cold_suite(run, name)
    else:
        seed = int(argv[4])
        if run.tracer is not None:
            run.tracer.install()
        try:
            workloads.WORKLOADS[name](run, seed, argv[5] == "1")
        finally:
            if run.tracer is not None:
                run.tracer.restore()
    wall_s = time.perf_counter() - started
    result.update(
        wall_s=wall_s,
        latencies=run.latencies if name in workloads.REQUEST_STREAMS else [wall_s],
        attempted=run.attempted,
        failed=run.failed,
        digest=run.digest,
        extra=run.extra,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    )
    if run.tracer is not None:
        result["layers"] = run.tracer.layer_metrics(wall_s)
        SPAN_DIR.mkdir(exist_ok=True)
        run.tracer.write_spans(SPAN_DIR / f"spans-{name}-seed{seed}.bin")
    return result


if __name__ == "__main__":
    print(json.dumps(main(sys.argv)), flush=True)
    # skip interpreter teardown: freeing the cached weight sets takes seconds
    # and belongs to no metric
    os._exit(0)
