"""The sp2n benchmark: one workload, measured in fresh processes.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout: the library is imported from ./src,
nothing is installed.  Workloads are listed in BENCHMARK.json and defined
in bench/workloads.py.

--trace 0 runs the workload in one fresh single-threaded process after
another (never two at once) until about S seconds have passed, and
reports the end-to-end metrics of BENCHMARK.json as medians over those
processes.  `setup_s` is measured in every process, plus SETUP_SAMPLES
processes that only import sp2n.

--trace 1 runs the workload once untraced and once traced, then every
suite alone in a fresh process, and reports the per-layer metrics of
BENCHMARK.json.  The traced pass must give the same outputs as the
untraced one.

A readable table goes to stdout first; the last line is one JSON object
with the keys correct, attempted, failed and metrics.  The exit code is 0
when every process ran, whether or not outputs were correct, and 2 when
the checkout has no sp2n source or a process failed.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORKER = BENCH / "worker.py"

SETUP_SAMPLES = 15
PROCESS_TIMEOUT_S = 170
TOTAL_BUDGET_S = 150


class BenchError(RuntimeError):
    """A measured process could not run to completion."""


def spawn(*args: str) -> dict:
    """Run one worker process to completion and return its result."""
    env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED="0")
    cmd = [sys.executable, str(WORKER), repr(time.monotonic()), *args]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, env=env, cwd=ROOT,
                              timeout=PROCESS_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker {args} timed out after {PROCESS_TIMEOUT_S} s") from exc
    if proc.returncode != 0:
        raise BenchError(f"worker {args} exited with {proc.returncode}:\n{proc.stderr[-2000:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not Path(result["sp2n_file"]).resolve().is_relative_to(SRC.resolve()):
        raise BenchError(f"sp2n was imported from {result['sp2n_file']}, not from {SRC}")
    return result


def percentile_ms(latencies: list[float], q: int) -> float:
    if len(latencies) == 1:
        return 1000 * latencies[0]
    return 1000 * statistics.quantiles(latencies, n=100, method="inclusive")[q - 1]


def end_to_end(workload: str, seed: int, seconds: float, tiny: bool) -> tuple[dict, dict, int, int]:
    passes = []
    started = time.monotonic()
    while True:
        t0 = time.monotonic()
        passes.append(spawn("pass", workload, str(seed), str(int(tiny)), "0"))
        last = time.monotonic() - t0
        elapsed = time.monotonic() - started
        # one more pass only if it is expected to end within the measuring time
        if elapsed + last > min(seconds, TOTAL_BUDGET_S):
            break
    setups = [p["setup_s"] for p in passes]
    setups += [spawn("setup")["setup_s"] for _ in range(SETUP_SAMPLES)]
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    med = statistics.median
    metrics = {
        "setup_s": med(setups),
        "wall_s": med(p["wall_s"] for p in passes),
        "peak_rss_mb": med(p["peak_rss_mb"] for p in passes),
        "ok_ratio": 1 - failed / attempted,
        "query_p50_ms": med(percentile_ms(p["latencies"], 50) for p in passes),
        "query_p99_ms": med(percentile_ms(p["latencies"], 99) for p in passes),
        "query_qps": med(len(p["latencies"]) / p["wall_s"] for p in passes),
    }
    info = {
        "passes": len(passes),
        "requests_per_pass": len(passes[0]["latencies"]),
        "setup_samples": len(setups),
        "fail_ratio": failed / attempted,
        "repeat_share": passes[0]["extra"].get("cli.repeat_share", 0.0),
    }
    return metrics, info, attempted, failed


def per_layer(workload: str, seed: int, tiny: bool) -> tuple[dict, dict, int, int, bool]:
    plain = spawn("pass", workload, str(seed), str(int(tiny)), "0")
    traced = spawn("pass", workload, str(seed), str(int(tiny)), "1")
    suites = json.loads((BENCH / "expected" / "suites.json").read_text())
    cold = {name: spawn("suite", name) for name in suites["tiny" if tiny else "order"]}
    metrics = dict(traced["layers"])
    metrics["cli.repeat_share"] = traced["extra"].get("cli.repeat_share", 0.0)
    for name in suites["order"]:
        metrics[f"harness.{name}.s"] = traced["extra"].get(f"harness.{name}.s", 0.0)
        metrics[f"harness.{name}.cold_s"] = cold[name]["wall_s"] if name in cold else 0.0
    metrics["trace_overhead_ratio"] = traced["wall_s"] / plain["wall_s"] - 1
    runs = [plain, traced, *cold.values()]
    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    same_outputs = traced["digest"] == plain["digest"]
    info = {"untraced_wall_s": plain["wall_s"], "traced_wall_s": traced["wall_s"],
            "traced_outputs_equal_untraced": same_outputs}
    return metrics, info, attempted, failed, same_outputs


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="tiny sizes, for the self-test")
    args = parser.parse_args(argv)

    if not (SRC / "sp2n" / "__init__.py").is_file():
        print(f"error: no sp2n source under {SRC}; run from the root of a checkout", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2

    try:
        if args.trace:
            values, info, attempted, failed, consistent = per_layer(args.workload, args.seed, args.tiny)
            wanted = spec["per_layer"]
        else:
            values, info, attempted, failed = end_to_end(args.workload, args.seed, args.seconds, args.tiny)
            consistent = True
            wanted = spec["end_to_end"]
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    for key, value in info.items():
        print(f"  {key:36} {value}")
    for name, m in metrics.items():
        print(f"  {name:36} {m['value']:.6g} {m['unit']}")
    print(json.dumps({
        "correct": failed == 0 and consistent,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
