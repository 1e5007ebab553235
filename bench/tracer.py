"""Outside-in tracing of the sp2n layers.

The library is not edited.  `Tracer.install` replaces every public
function of each layer module with a wrapper, in every sp2n module that
bound the function by name (``weyl_orbit`` is bound in ``weights``,
``reps``, ``harness`` and the package namespace, for example), and
`Tracer.restore` puts the originals back.  A wrapper records one span per
call: function id, start, end, parent span and operation id, in flat
arrays kept in memory.  Self time is computed from the spans after the
run, as the span's duration minus the durations of its direct children.

Some wrappers also add a work count (weights materialized, tuples swept,
verdicts returned).  Counts depend only on the inputs, so two traced runs
with the same seed give the same counts.
"""

import importlib
import inspect
import json
import time
from array import array
from math import gcd

# bound before `install`, so the count hooks call the unwrapped functions
from sp2n.reps import ModuleKind
from sp2n.tori import torus_order

LAYERS = ("weights", "reps", "tori", "elements", "arith", "criteria", "branching", "harness", "cli")

# The package namespace re-exports most public functions, so it is patched
# too; the layer modules are patched wherever they bind a traced function.
BINDING_MODULES = ("sp2n",) + tuple(f"sp2n.{layer}" for layer in LAYERS)

# Functions whose call count and self time are reported one by one; all
# other public functions of a layer count towards the layer's self time.
REPORTED_FUNCTIONS = (
    "weights.weyl_orbit",
    "weights.dominant_below",
    "weights.dominates_oracle",
    "reps.weight_set",
    "reps.minkowski_sum",
    "reps.zero_in_weight_set",
    "tori.block_sums",
    "tori.unisingular_on_torus",
    "tori.trivial_constituent",
    "tori.eval_weight",
    "elements.to_torus_element",
    "elements.enumerate_elements",
    "elements.singer_height",
    "arith.mult_order",
)

VERDICT_FUNCTIONS = ("abelian_all", "unisingular", "torus_trivial", "element_has_one")


def _totient(m: int) -> int:
    return sum(1 for u in range(1, m + 1) if gcd(u, m) == 1)


def public_functions(module) -> dict:
    """Public callables defined in `module` itself (classes excluded)."""
    out = {}
    for name, obj in vars(module).items():
        if name.startswith("_") or inspect.isclass(obj) or not callable(obj):
            continue
        if getattr(obj, "__module__", None) == module.__name__:
            out[name] = obj
    return out


class Tracer:
    """Spans and work counts for one traced pass."""

    def __init__(self):
        self.names: list[str] = []
        self.fn_id = array("l")
        self.parent = array("l")
        self.op = array("l")
        self.start = array("d")
        self.end = array("d")
        self.counts: dict[str, int] = {}
        self.current_op = -1
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []
        self._seen_weight_sets: set = set()

    # ------------------------------------------------------------ wrapping

    def install(self) -> None:
        modules = {name: importlib.import_module(name) for name in BINDING_MODULES}
        wrappers = {}
        for layer in LAYERS:
            for fname, fn in public_functions(modules[f"sp2n.{layer}"]).items():
                wrappers[id(fn)] = (fn, self._wrap(fn, f"{layer}.{fname}"))
        for mod in modules.values():
            for attr, value in list(vars(mod).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    self._patched.append((mod, attr, value))
                    setattr(mod, attr, hit[1])

    def restore(self) -> None:
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()

    def _wrap(self, fn, qualname: str):
        fid = len(self.names)
        self.names.append(qualname)
        count = self._counter(qualname)
        stack, fn_ids, parents, ops = self._stack, self.fn_id, self.parent, self.op
        starts, ends, clock = self.start, self.end, time.perf_counter

        def traced(*args, **kwargs):
            idx = len(starts)
            fn_ids.append(fid)
            parents.append(stack[-1] if stack else -1)
            ops.append(self.current_op)
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if count is not None:
                count(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _add(self, key: str, value: int) -> None:
        self.counts[key] = self.counts.get(key, 0) + value

    def _counter(self, qualname: str):
        """A hook adding the work count of one call, or None."""
        layer, fname = qualname.split(".")
        if fname in ("weyl_orbit", "dominant_below", "enumerate_elements"):
            key = f"{qualname}.{'elements' if fname == 'enumerate_elements' else 'members'}"
            return lambda a, k, r: self._add(key, len(r))
        if qualname == "reps.weight_set":
            return self._count_weight_set
        if qualname == "reps.minkowski_sum":
            return lambda a, k, r: self._add("reps.minkowski_sum.pairs", len(a[0]) * len(a[1]))
        if qualname == "tori.unisingular_on_torus":
            return self._count_sweep
        if qualname == "elements.generator_tuples":
            return self._count_generator_tuples
        if layer == "criteria" and fname in VERDICT_FUNCTIONS:
            return self._count_verdict
        return None

    def _count_weight_set(self, args, kwargs, result) -> None:
        kind = args[1] if len(args) > 1 else kwargs.get("kind", ModuleKind.IRREDUCIBLE_2)
        key = (args[0].coeffs, kind)
        self._add("reps.weight_set.members", len(result))
        self._add("reps.weight_set.repeats", key in self._seen_weight_sets)
        self._seen_weight_sets.add(key)

    def _count_sweep(self, args, kwargs, result) -> None:
        # an upper bound: the sweep may stop at the first uncovered tuple
        self._add("tori.unisingular_on_torus.tuples", torus_order(args[1]))

    def _count_generator_tuples(self, args, kwargs, result) -> None:
        total = 1
        for _, o, _ in args[0].blocks:
            total *= _totient(o)
        self._add("elements.generator_tuples.tuples", total)

    def _count_verdict(self, args, kwargs, result) -> None:
        self._add("criteria.verdicts", 1)
        self._add("criteria.fallbacks", int(result.fallback_used))

    # ------------------------------------------------------------ analysis

    def self_times(self) -> tuple[list[int], list[float]]:
        """Per function id: call count and summed self time in seconds."""
        n_fn = len(self.names)
        calls = [0] * n_fn
        selfs = [0.0] * n_fn
        child = [0.0] * len(self.start)
        starts, ends, parents, fn_ids = self.start, self.end, self.parent, self.fn_id
        for i in range(len(starts)):
            dur = ends[i] - starts[i]
            p = parents[i]
            if p >= 0:
                child[p] += dur
        for i in range(len(starts)):
            f = fn_ids[i]
            calls[f] += 1
            selfs[f] += ends[i] - starts[i] - child[i]
        return calls, selfs

    def layer_metrics(self, wall_s: float) -> dict[str, float]:
        """Per-function and per-layer metrics for a traced pass of `wall_s` seconds."""
        calls, selfs = self.self_times()
        by_name = {name: (calls[i], selfs[i]) for i, name in enumerate(self.names)}
        out: dict[str, float] = {}
        for qualname in REPORTED_FUNCTIONS:
            c, s = by_name[qualname]
            out[f"{qualname}.calls"] = c
            out[f"{qualname}.self_s"] = s
        layer_self = {layer: 0.0 for layer in LAYERS}
        for name, (_, s) in by_name.items():
            layer_self[name.split(".")[0]] += s
        for layer in LAYERS:
            out[f"{layer}.self_s"] = layer_self[layer]
            out[f"{layer}.share"] = layer_self[layer] / wall_s
        counts = dict(self.counts)
        for key in ("weights.weyl_orbit.members", "weights.dominant_below.members",
                    "reps.weight_set.members", "reps.minkowski_sum.pairs",
                    "tori.unisingular_on_torus.tuples", "elements.generator_tuples.tuples",
                    "elements.enumerate_elements.elements", "criteria.verdicts"):
            out[key] = counts.get(key, 0)
        ws_calls = by_name["reps.weight_set"][0]
        out["reps.weight_set.repeat_ratio"] = counts.get("reps.weight_set.repeats", 0) / ws_calls if ws_calls else 0.0
        verdicts = counts.get("criteria.verdicts", 0)
        out["criteria.fallback_ratio"] = counts.get("criteria.fallbacks", 0) / verdicts if verdicts else 0.0
        out["cli.queries"] = by_name["cli.cli_main"][0]
        return out

    def write_spans(self, path) -> None:
        """One JSON header line, then the five span columns as raw arrays."""
        header = {
            "functions": self.names,
            "spans": len(self.start),
            "columns": [["fn_id", "l"], ["parent", "l"], ["op", "l"], ["start", "d"], ["end", "d"]],
        }
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            for col in (self.fn_id, self.parent, self.op, self.start, self.end):
                col.tofile(fh)
