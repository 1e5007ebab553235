"""Command line front end.

Exit codes: 0 success or suite pass, 1 verdict mismatch under --expect,
2 usage error (also an order that trial division up to arith.FACTOR_BOUND
cannot factor, or a field size that is not a prime power), 3 suite failure, 4 work limit exceeded: a count passed
to arith.charge is more than arith.WORK_LIMIT = 10^6, either the steps an
enumeration sized by the input would take (the torus classes `tori`
lists, counted as block multisets, partitions under the dominant-weight
bounds, which bound every weight set, the rank^3 steps of inverting the
Cartan matrix behind the dominance oracle, the block coefficients and
the form picks of the direct evaluation behind `element`, or the weight coefficients `branch --N` would print:
n for each exterior power's factor, about N^3/16 in all) or the running tally of the mask words held by the zero
kernel behind `torus-trivial` and `element`.
"""

import argparse
import json
import sys
from functools import lru_cache

from .arith import WorkLimitError, charge
from .branching import (
    GUARANTEED_ONE,
    POSSIBLE_EXCEPTION,
    LinearWeight,
    exterior_factors,
    real_by_order_sl,
    real_by_order_su,
    real_element_verdict,
    restrict_to_c,
)
from .criteria import element_has_one, p88_guarantee, torus_trivial, unisingular
from .elements import (
    gamma_graph,
    omega_n_eigenvalue_orders,
    parse_element,
    singer_height_fast,
)
from .harness import SUITE_NAMES, run_suite
from .reps import ModuleKind, has_zero_weight, weight_set
from .tori import enumerate_shapes, parse_torus_label, singer_index, torus_order
from .weights import Weight, from_eps, parse_weight

# what a command handler returns: its JSON payload, its text lines, and the
# decision that --expect is compared with
Answer = tuple[dict, list[str], str | bool | None]


def _weight_arg(text: str, rank: int) -> Weight:
    w = parse_weight(text)
    if not isinstance(w, Weight):
        w = from_eps(w)
    if w.rank != rank:
        raise ValueError(f"weight {text!r} has rank {w.rank}, expected {rank}")
    return w


def _cmd_si(args) -> Answer:
    value, witness = singer_height_fast(args.n)
    payload = {"n": str(args.n), "si": str(value), "witness": [str(p) for p in sorted(witness)]}
    return payload, [f"Si({args.n}) = {value}  witness parts: {sorted(witness)}"], None


def _cmd_tori(args) -> Answer:
    shapes = enumerate_shapes(args.n)
    payload = {
        "n": str(args.n),
        "tori": [
            {"label": str(sh), "order": str(torus_order(sh)), "singer_index": str(singer_index(sh))}
            for sh in shapes
        ],
    }
    return payload, [f"{str(sh):>16}  order={torus_order(sh)}  singer_index={singer_index(sh)}" for sh in shapes], None


def _cmd_weights(args) -> Answer:
    w = _weight_arg(args.omega, args.n)
    kind = ModuleKind.WEYL if args.kind == "weyl" else ModuleKind.IRREDUCIBLE_2
    ws = weight_set(w, kind)
    zero = has_zero_weight(w, kind)
    payload = {
        "n": str(args.n),
        "omega": str(w),
        "kind": args.kind,
        "cardinality": str(ws.size),
        "dominant_members": [str(m) for m in ws.reps],
        "has_zero_weight": zero,
    }
    lines = [
        f"weights: {payload['cardinality']}",
        "dominant members: " + "; ".join(payload["dominant_members"]),
        f"zero weight: {'yes' if zero else 'no'}",
    ]
    return payload, lines, None


def _cmd_unisingular(args) -> Answer:
    w = _weight_arg(args.omega, args.n)
    v = unisingular(w)
    return v.to_dict(), [f"unisingular: {v.decision}  citations: {', '.join(v.citations)}"], v.decision


def _cmd_torus_trivial(args) -> Answer:
    w = _weight_arg(args.omega, args.n)
    shape = parse_torus_label(args.torus)
    v = torus_trivial(w, shape)
    return v.to_dict(), [
        f"trivial constituent on {shape}: {v.decision}"
        f"  citations: {', '.join(v.citations)}  fallback: {v.fallback_used}"
    ], v.decision


def _cmd_element(args) -> Answer:
    g = parse_element(args.spec)
    graph = gamma_graph(g)
    w = _weight_arg(args.omega, g.rank)
    v = element_has_one(w, g)
    si, orders = len(graph.singular), sorted(omega_n_eigenvalue_orders(g))
    payload = {
        "element": str(g),
        "order": str(g.order),
        "gamma_edges": [[str(i), str(j)] for i, j in sorted(graph.edges)],
        "singular_vertices": [str(i) for i in graph.singular],
        "singer_index": str(si),
        "omega_n_eigenvalue_orders": [str(e) for e in orders],
        "p88_guarantee": p88_guarantee(g),
        "omega": str(w),
        "verdict": v.to_dict(),
    }
    lines = [
        f"element {g}  order {g.order}",
        f"graph edges: {sorted(graph.edges)}  singular vertices: {list(graph.singular)}  Si(g)={si}",
        f"top-fundamental eigenvalue orders: {orders}",
        f"prime-power guarantee via first+last fundamentals: {'yes' if payload['p88_guarantee'] else 'no'}",
        f"eigenvalue 1 on weight {w}: {v.decision}  citations: {', '.join(v.citations)}  fallback: {v.fallback_used}",
    ]
    return payload, lines, v.decision


def _cmd_branch(args) -> Answer:
    try:
        coeffs = tuple(int(p) for p in args.lam.split(","))
    except ValueError as exc:
        raise ValueError(f"cannot parse lambda {args.lam!r}") from exc
    lam = LinearWeight(coeffs)
    if lam.ambient != args.N:
        raise ValueError(f"lambda {args.lam!r} has ambient size {lam.ambient}, expected {args.N}")
    n = args.N // 2
    if args.N % 2 == 0:
        # exterior power k has (min(k, N - k) + 1) // 2 factors of n coefficients each
        charge(n * sum((min(k, args.N - k) + 1) // 2 for k in range(1, args.N)),
               f"exterior-factor coefficients for N = {args.N}")
    verdict = real_element_verdict(lam)
    restricted = restrict_to_c(lam) if args.N % 2 == 0 else None
    factors = {k: [str(w) for w in sorted(exterior_factors(k, n), key=lambda w: w.coeffs)]
               for k in range(1, args.N)} if args.N % 2 == 0 else {}
    payload = {
        "N": str(args.N),
        "lambda": str(lam),
        "restriction": str(restricted) if restricted is not None else None,
        "real_element_status": verdict.status,
        "citations": list(verdict.citations),
        "exterior_factors": {str(k): facs for k, facs in factors.items()},
    }
    lines = [f"real-element verdict: {verdict.status}  citations: {', '.join(verdict.citations)}"]
    if restricted is not None:
        lines.insert(0, f"restriction to the symplectic subgroup: {restricted}")
        lines += [f"exterior power {k}: factors " + "; ".join(facs) for k, facs in factors.items()]
    return payload, lines, verdict.status


def _cmd_real(args) -> Answer:
    fn = real_by_order_sl if args.group == "sl" else real_by_order_su
    result = fn(args.order, args.q)
    payload = {"group": args.group, "order": str(args.order), "q": str(args.q), "real": result}
    return payload, [f"real by order condition: {'yes' if result else 'no'}"], None


def _cmd_verify(args) -> Answer:
    report = run_suite(args.suite, args.max_n)
    return report.to_dict(), [], report.passed


_N, _OMEGA, _YES_NO = ("n", {"type": int}), ("omega", {}), ("yes", "no")

# the one command table: name -> (handler, help text, arguments, --expect choices)
_COMMANDS = {
    "si": (_cmd_si, "Singer height with witness", [_N], None),
    "tori": (_cmd_tori, "list torus classes with orders and Singer indices", [_N], None),
    "weights": (_cmd_weights, "weight set of a module",
                [_N, _OMEGA, ("--kind", {"choices": ("irr2", "weyl"), "default": "irr2"})], None),
    "unisingular": (_cmd_unisingular, "eigenvalue 1 for every group element?", [_N, _OMEGA], _YES_NO),
    "torus-trivial": (_cmd_torus_trivial, "trivial constituent on one torus class?",
                      [_N, _OMEGA, ("--torus", {"required": True,
                                                "help": "signed label, e.g. --torus=-2 or --torus=-1,1"})], _YES_NO),
    "element": (_cmd_element, "per-element verdicts from block data",
                [("spec", {"help": 'blocks "d:o:sign;..." e.g. "1:3:-;2:5:-"'}), ("--omega", {"required": True})],
                _YES_NO),
    "branch": (_cmd_branch, "restriction of a linear-group weight",
               [("--N", {"type": int, "required": True, "help": "ambient matrix size"}),
                ("--lambda", {"dest": "lam", "required": True, "help": "comma-separated coefficients"})],
               (GUARANTEED_ONE, POSSIBLE_EXCEPTION)),
    "real": (_cmd_real, "realness-by-order predicates",
             [("--group", {"choices": ("sl", "su"), "required": True}),
              ("--order", {"type": int, "required": True}), ("--q", {"type": int, "required": True})], None),
    "verify": (_cmd_verify, "run a verification suite",
               [("--suite", {"choices": SUITE_NAMES, "required": True}), ("--max-n", {"type": int, "default": None})],
               None),
}


def _fill(p: argparse.ArgumentParser, name: str) -> argparse.ArgumentParser:
    """Give p the arguments and defaults of command `name`."""
    fn, _, arguments, expect = _COMMANDS[name]
    for flag, options in arguments:
        p.add_argument(flag, **options)
    if name == "verify":  # a report, in JSON; a failed one exits 3
        p.set_defaults(fn=fn, json=True, expect=True, mismatch_exit=3)
        return p
    p.add_argument("--json", action="store_true")
    if expect:
        p.add_argument("--expect", choices=expect)
    p.set_defaults(fn=fn, expect=None, mismatch_exit=1)
    return p


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="sp2n", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_text, _, _) in _COMMANDS.items():
        _fill(sub.add_parser(name, help=help_text), name)
    return parser


@lru_cache(maxsize=1)
def _parser() -> argparse.ArgumentParser:
    """The full parser, built on the first call (not at import) and then
    reused; only help, argv that names no command and leftover tokens need it."""
    return build_parser()


@lru_cache(maxsize=len(_COMMANDS))
def _command_parser(name: str) -> argparse.ArgumentParser:
    """The parser of one command, as the full parser's subparser for it."""
    return _fill(argparse.ArgumentParser(prog=f"sp2n {name}"), name)


def _parse(argv: list[str]) -> argparse.Namespace:
    """argv parsed in one pass: by its command's parser when argv[0] names
    one, with leftover tokens refused in the full parser's words."""
    if not argv or argv[0] not in _COMMANDS:
        return _parser().parse_args(argv)
    args, extras = _command_parser(argv[0]).parse_known_args(argv[1:])
    if extras:
        _parser().error(f"unrecognized arguments: {' '.join(extras)}")
    return args


def cli_main(argv=None) -> int:
    try:
        args = _parse(sys.argv[1:] if argv is None else list(argv))
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        payload, lines, decision = args.fn(args)
    except (ValueError, KeyError, WorkLimitError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4 if isinstance(exc, WorkLimitError) else 2
    print(json.dumps(payload) if args.json else "\n".join(lines))
    return 0 if args.expect in (None, decision) else args.mismatch_exit


def main() -> None:
    sys.exit(cli_main())
