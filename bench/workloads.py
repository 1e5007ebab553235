"""The three benchmark workloads and the checks on their outputs.

Each workload runs a list of operations (a suite report, an oracle case or
a CLI query), times each one, and compares its output with the output the
reference commit recorded under bench/expected/.  An operation fails when
it raises, when a fast path disagrees with its oracle, or when its output
differs from the recorded one.

Library functions are looked up on their module at call time
(`harness.run_suite`, not a name imported here), so that the tracer's
wrappers see every call the benchmark makes.
"""

import contextlib
import hashlib
import io
import json
import math
import random
import time
from itertools import product
from pathlib import Path

from sp2n import cli, criteria, harness, reps, tori
from sp2n.weights import Weight

EXPECTED_DIR = Path(__file__).resolve().parent / "expected"

MIN_QUERIES = 1000
TINY_QUERIES = 30
TINY_QUERY_CLASSES = ("unisingular", "torus-trivial", "branch")


def load_expected(name: str) -> dict:
    return json.loads((EXPECTED_DIR / f"{name}.json").read_text())


class Run:
    """Latencies, operation counts and an output digest for one pass."""

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.latencies: list[float] = []
        self.attempted = 0
        self.failed = 0
        self.extra: dict[str, float] = {}
        self._digest = hashlib.sha256()

    def timed(self, fn, *args):
        """Run one operation; returns None when it raises."""
        if self.tracer is not None:
            self.tracer.current_op = len(self.latencies)
        started = time.perf_counter()
        try:
            result = fn(*args)
        except Exception:  # a raising operation is a failed operation, not a crashed run
            result = None
        self.latencies.append(time.perf_counter() - started)
        return result

    def check(self, ok: bool, output, count: int = 1, failed: int | None = None) -> None:
        """Count `count` attempted operations, and `failed` (or all, if not ok) failures."""
        self.attempted += count
        self.failed += (0 if ok else count) if failed is None else failed
        self._digest.update(repr(output).encode())

    @property
    def digest(self) -> str:
        return self._digest.hexdigest()


# ------------------------------------------------------------ verify-default


def verify_default(run: Run, seed: int, tiny: bool = False, expected=None) -> None:
    """Every suite in SUITE_NAMES order at its default cap, in one process.

    The seed is not used: the suites enumerate their inputs exhaustively.
    """
    exp = expected or load_expected("suites")
    for name in exp["tiny"] if tiny else exp["order"]:
        rep = run.timed(harness.run_suite, name)
        out = rep.to_json() if rep is not None else None
        run.check(rep is not None and rep.passed and out == exp["reports"][name], out)
        if rep is not None:
            run.extra[f"harness.{name}.s"] = rep.wall_time


# ------------------------------------------------------------ sweeps-rank5


def sweep_weights(seed: int, pairs: list[list[str]]) -> list[str]:
    """One weight of each cost-matched pair, chosen by the seed."""
    rng = random.Random(seed)
    return [rng.choice(pair) for pair in pairs]


def _ee3_case(w: Weight, shapes) -> tuple[bool, bool]:
    fast = criteria.abelian_all(w).decision == criteria.YES
    ws = reps.weight_set(w)
    return fast, all(tori.trivial_constituent(ws, sh) for sh in shapes)


def sweeps_rank5(run: Run, seed: int, tiny: bool = False, expected=None) -> None:
    """Torus- and element-side oracles at rank 5, one above their default caps."""
    exp = expected or load_expected("sweeps")
    n = exp["rank"]

    # 1. closed-form per-element verdicts against direct evaluation
    element_rank = 3 if tiny else n
    want = exp["element_vs_direct"][str(element_rank)]
    got = run.timed(harness.check_element_vs_direct, element_rank)
    if got is None:
        run.check(False, got, count=want["cases"])
    else:
        # each disagreement fails one case; so does each case more or fewer than recorded
        cases, failures = got
        count = max(cases, want["cases"])
        run.check(True, got, count=count, failed=min(count, len(failures) + abs(cases - want["cases"])))

    # 2. ee3 at rank 5: abelian_all against trivial_constituent on every torus
    shapes = tori.enumerate_shapes(n)
    labels = [str(sh) for sh in shapes]
    run.check(labels == exp["shapes"], labels)
    for bits in product((0, 1), repeat=n):
        key = "".join(map(str, bits))
        got = run.timed(_ee3_case, Weight(bits), shapes)
        run.check(got is not None and got[0] == got[1] == exp["ee3"][key], got)

    # 3. unisingular_on_torus over every shape for the seed's weights
    keys = sweep_weights(seed, exp["pairs"])[:1] if tiny else sweep_weights(seed, exp["pairs"])
    for key in keys:
        w = Weight(tuple(int(c) for c in key))
        ws = reps.weight_set(w)
        results = [run.timed(tori.unisingular_on_torus, ws, sh) for sh in shapes]
        for got, want in zip(results, exp["unisingular"][key]):
            run.check(got == want, got)
        fast = criteria.unisingular(w).decision == criteria.YES
        run.check(fast == all(results), fast)


# ------------------------------------------------------------ queries-rank6-10


def query_stream(seed: int, pool_size: int) -> list[int]:
    """Pool indices in the order one client sends them.

    Every pool query appears the same number of times, enough for at
    least MIN_QUERIES queries, and the seed shuffles the order.  Draws
    with replacement would let the number of uncached slow queries, and
    with it the run's work, vary from seed to seed.
    """
    stream = list(range(pool_size)) * math.ceil(MIN_QUERIES / pool_size)
    random.Random(seed).shuffle(stream)
    return stream


def _query(argv: list[str]) -> tuple[int, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.cli_main(list(argv))
    return rc, out.getvalue()


def queries_rank6_10(run: Run, seed: int, tiny: bool = False, expected=None) -> None:
    """A closed loop with one client sending CLI queries at rank 6-10."""
    pool = (expected or load_expected("queries"))["pool"]
    stream = query_stream(seed, len(pool))
    if tiny:
        stream = [i for i in stream if pool[i]["class"] in TINY_QUERY_CLASSES][:TINY_QUERIES]
    for i in stream:
        q = pool[i]
        got = run.timed(_query, q["argv"])
        run.check(got == (q["rc"], q["stdout"]), got)
    run.extra["cli.repeat_share"] = 1 - len(set(stream)) / len(stream)


WORKLOADS = {
    "verify-default": verify_default,
    "sweeps-rank5": sweeps_rank5,
    "queries-rank6-10": queries_rank6_10,
}
# Workloads whose operations are separate user requests.  In the others a
# user's request is the whole pass (`sp2n verify --suite all`, one oracle
# sweep), so their request latency is the pass's wall time.
REQUEST_STREAMS = ("queries-rank6-10",)


def cold_suite(run: Run, name: str) -> None:
    """One suite alone in a fresh process: the cold-cache time."""
    reports = load_expected("suites")["reports"]
    rep = run.timed(harness.run_suite, name)
    out = rep.to_json() if rep is not None else None
    run.check(rep is not None and rep.passed and out == reports[name], out)
