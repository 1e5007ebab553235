"""Record the expected outputs that every benchmark run is checked against.

Run from the repository root, on the commit whose outputs are the
reference:

    PYTHONPATH=src python3 bench/record.py [suites] [sweeps] [queries]

It writes these files under bench/expected/ (all three by default):

- suites.json: the JSON report of every suite at its default cap, and
  the suites that take under 0.1 s (the self-test runs only those);
- sweeps.json: the rank-5 oracle results (element check case counts,
  the ee3-style verdict per restricted weight, the per-torus sweep result
  per restricted weight) and the cost-matched weight pairs the
  sweeps-rank5 workload draws from;
- queries.json: the query pool with each query's exit code and stdout,
  and the inputs left out of the pool.

The pool is drawn here, once, from a fixed generator seed; a run's
`--seed` only orders and repeats pool queries, so the recorded outputs
cover every seed.
"""

import contextlib
import io
import json
import random
import sys
import time
from itertools import product
from math import gcd, prod
from pathlib import Path

from sp2n import cli, harness, reps, tori
from sp2n.arith import mult_order
from sp2n.elements import enumerate_elements
from sp2n.weights import Weight

OUT = Path(__file__).resolve().parent / "expected"
POOL_SEED = 2004
SWEEP_RANK = 5
TINY_ELEMENT_RANK = 3

# Known non-terminating inputs, kept out of the query pool.
EXCLUDED = [
    {"argv": ["real", "--group", "sl", "--order", "1000000007", "--q", "2", "--json"],
     "reason": "mult_order is a linear scan; does not finish in 10 s"},
    {"argv": ["weights", "8", "1,1,1,1,1,1,1,0", "--json"],
     "reason": "materializes the weight set (n = 7 already has 12.4 million weights); "
               "does not finish in 10 s and memory grows without limit"},
]


def bits_key(bits) -> str:
    return "".join(str(b) for b in bits)


def record_suites() -> dict:
    """Reports in SUITE_NAMES order; suites under 0.1 s make up the self-test's tiny set."""
    order = [name for name in harness.SUITE_NAMES if name != "all"]
    reports = {name: harness.run_suite(name) for name in order}
    return {
        "order": order,
        "reports": {name: rep.to_json() for name, rep in reports.items()},
        "tiny": [name for name in order if reports[name].wall_time < 0.1],
    }


def record_sweeps() -> dict:
    element = {}
    for n in (TINY_ELEMENT_RANK, SWEEP_RANK):
        cases, failures = harness.check_element_vs_direct(n)
        element[str(n)] = {"cases": cases, "failures": failures}
    shapes = tori.enumerate_shapes(SWEEP_RANK)
    ee3, sweeps, cost = {}, {}, {}
    for bits in product((0, 1), repeat=SWEEP_RANK):
        w = Weight(bits)
        ws = reps.weight_set(w)
        ee3[bits_key(bits)] = all(tori.trivial_constituent(ws, sh) for sh in shapes)
        started = time.perf_counter()
        sweeps[bits_key(bits)] = [tori.unisingular_on_torus(ws, sh) for sh in shapes]
        cost[bits_key(bits)] = time.perf_counter() - started
    return {
        "rank": SWEEP_RANK,
        "element_vs_direct": element,
        "shapes": [str(sh) for sh in shapes],
        "ee3": ee3,
        "unisingular": sweeps,
        "pairs": cost_matched_pairs(cost),
        "sweep_cost_s": cost,
    }


def cost_matched_pairs(cost: dict, low=0.25, high=3.0, ratio=1.15) -> list[list[str]]:
    """Disjoint pairs of weights whose full sweeps cost within `ratio` of
    each other, inside [low, high] seconds.  A run sweeps one weight of
    each pair, chosen by its seed, so the seed changes the inputs but
    barely the amount of work."""
    ranked = sorted((c, k) for k, c in cost.items() if low <= c <= high)
    pairs, i = [], 0
    while i + 1 < len(ranked):
        (c1, k1), (c2, k2) = ranked[i], ranked[i + 1]
        if c2 <= ratio * c1:
            pairs.append([k1, k2])
            i += 2
        else:
            i += 1
    return pairs


def _restricted(rng, n) -> str:
    """A nonzero 2-restricted weight of rank n."""
    while True:
        bits = [rng.randint(0, 1) for _ in range(n)]
        if any(bits):
            return ",".join(map(str, bits))


def _fundamental(n, i) -> str:
    return ",".join("1" if j == i else "0" for j in range(1, n + 1))


def draw_pool(rng) -> list[dict]:
    """The query mix at rank 6-10; each entry is (class, argv)."""
    pool = []

    def add(cls, *argv):
        pool.append({"class": cls, "argv": [str(a) for a in argv] + ["--json"]})

    for _ in range(40):
        n = rng.randint(6, 10)
        add("unisingular", "unisingular", n, _restricted(rng, n))
    for i in range(40):
        n = rng.randint(6, 10)
        shape = rng.choice(tori.enumerate_shapes(n))
        # a quarter take the direct fallback: odd fundamental weights, small index
        omega = _fundamental(n, rng.choice((1, 3))) if i % 4 == 0 else _restricted(rng, n)
        add("torus-trivial", "torus-trivial", n, omega, f"--torus={shape}")
    for i in range(30):
        n = rng.randint(6, 8)
        candidates = [g for g in enumerate_elements(n) if _tuple_count(g) <= 64]
        g = rng.choice(candidates)
        # half take the direct fallback over every generator tuple
        omega = _fundamental(n, rng.choice(range(1, n, 2))) if i % 2 == 0 else _restricted(rng, n)
        add("element", "element", str(g), f"--omega={omega}")
    for n, i, kind in ((9, 1, "irr2"), (10, 1, "irr2"), (9, 2, "irr2"), (9, 3, "irr2"),
                       (10, 5, "irr2"), (9, 9, "irr2"), (9, 2, "weyl"), (9, 4, "irr2"),
                       (9, 5, "irr2"), (9, 7, "irr2")):
        add("weights", "weights", n, _fundamental(n, i), f"--kind={kind}")
    for n in (20, 31, 40, 55, 63, 70, 85, 100, 120, 150):
        add("si", "si", n)
    for i in range(30):
        group = "sl" if i % 2 == 0 else "su"
        q = rng.choice((2, 3))
        # one order near 10^7 with a scan of 1-2.5 million steps; the rest stay under 3 * 10^5
        if i == 0:
            order = _real_order(rng, q, 10**7, 1_000_000, 2_500_000)
        else:
            order = _real_order(rng, q, rng.choice((10**3, 10**4, 10**5, 10**6)), 0, 300_000)
        add("real", "real", f"--group={group}", f"--order={order}", f"--q={q}")
    for _ in range(40):
        N = rng.randint(2, 20)
        lam = [0] * (N - 1)
        for _ in range(rng.randint(1, 2)):
            lam[rng.randrange(N - 1)] = rng.choice((1, 1, 2, 4))
        add("branch", "branch", f"--N={N}", "--lambda=" + ",".join(map(str, lam)))
    return pool


def _tuple_count(g) -> int:
    """Number of generator tuples of g: the product of Euler phi over block orders."""
    return prod(sum(1 for u in range(1, o + 1) if gcd(u, o) == 1) for _, o, _ in g.blocks)


def _real_order(rng, q, top, min_scan, max_scan) -> int:
    """An order in [top/2, top], coprime to q, whose order-of-q scan takes
    between `min_scan` and `max_scan` steps."""
    while True:
        o = rng.randint(top // 2, top)
        if o % q and min_scan <= mult_order(q, o) <= max_scan:
            return o


def run_query(argv) -> tuple[int, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.cli_main(list(argv))
    return rc, out.getvalue()


def record_queries() -> dict:
    pool = draw_pool(random.Random(POOL_SEED))
    excluded = {tuple(e["argv"]) for e in EXCLUDED}
    for q in pool:
        if tuple(q["argv"]) in excluded:
            raise SystemExit(f"excluded input drawn into the pool: {q['argv']}")
        started = time.perf_counter()
        q["rc"], q["stdout"] = run_query(q["argv"])
        q["first_ms"] = round(1000 * (time.perf_counter() - started), 3)
        if q["rc"] != 0:
            raise SystemExit(f"pool query failed with exit {q['rc']}: {q['argv']}")
    return {"pool": pool, "excluded": EXCLUDED}


RECORDERS = {"suites": record_suites, "sweeps": record_sweeps, "queries": record_queries}


def main(names: list[str]) -> int:
    """Record the named files (all three by default)."""
    OUT.mkdir(exist_ok=True)
    for name in names or RECORDERS:
        fn = RECORDERS[name]
        started = time.perf_counter()
        data = fn()
        (OUT / f"{name}.json").write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")
        print(f"{name}: {time.perf_counter() - started:.1f} s", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
