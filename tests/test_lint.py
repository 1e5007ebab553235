"""Static checks on the package source: no unused imports, no import of
the heavy reflection modules (checked again at run time, after
`import sp2n`), no private helper that nothing calls, no module-level
container that a function changes (so every process-wide memo is a
bounded `lru_cache`), output printed from `cli.cli_main` alone, and
each input rule (a dominant or 2-restricted highest weight, a minimal
block) raised from one function, with the messages pinned through the
public functions."""

import ast
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

import sp2n
from sp2n.criteria import abelian_all, element_has_one, p49_classify, singer_cycle_has_one, th7_blocks, torus_trivial
from sp2n.elements import build_element, identity_element
from sp2n.reps import g_effective_weight_set, has_zero_weight, minkowski_sum, twist_decompose, weight_set
from sp2n.tori import TorusElement, TorusShape, block_sums, eval_weight, trivial_constituent, unisingular_on_torus
from sp2n.weights import EpsWeight, Weight, fundamental, orbits_below

SOURCES = {p.name: ast.parse(p.read_text(), str(p)) for p in sorted(Path(sp2n.__file__).parent.glob("*.py"))}


def _referenced(node: ast.AST) -> Counter:
    """Every name read under node, bare or as an attribute."""
    return Counter(
        n.id if isinstance(n, ast.Name) else n.attr
        for n in ast.walk(node)
        if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load) or isinstance(n, ast.Attribute)
    )


def test_every_import_is_read():
    for name, tree in SOURCES.items():
        if name == "__init__.py":
            continue  # the package namespace re-exports what it imports
        imported = {
            (alias.asname or alias.name).split(".")[0]
            for node in tree.body
            if isinstance(node, (ast.Import, ast.ImportFrom))
            for alias in node.names
        }
        read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        assert imported <= read, (name, sorted(imported - read))


# each costs milliseconds of start-up: dataclasses alone pulls in inspect, ast,
# dis and tokenize, and its generated methods were a fifth of `import sp2n`
HEAVY_MODULES = {"dataclasses", "inspect", "typing"}


def test_no_heavy_module_is_imported():
    for name, tree in SOURCES.items():
        imported = {
            alias.name.split(".")[0] if isinstance(node, ast.Import) else (node.module or "").split(".")[0]
            for node in ast.walk(tree)
            if isinstance(node, (ast.Import, ast.ImportFrom))
            for alias in node.names
        }
        assert not imported & HEAVY_MODULES, (name, sorted(imported & HEAVY_MODULES))


@pytest.mark.parametrize("module", ["sp2n", "sp2n.cli"])
def test_import_loads_no_reflection_module(module):
    # start-up guard: what the import adds to a fresh process, caught without
    # timing it (the interpreter's site hooks may have loaded either already)
    code = (f"import sys; before = set(sys.modules); import {module}; "
            "print(sorted({'dataclasses', 'inspect'} & (set(sys.modules) - before)))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True,
                         env={**os.environ, "PYTHONPATH": str(Path(sp2n.__file__).parents[1])})
    assert out.stdout.strip() == "[]", out.stdout


def test_every_private_function_is_referenced():
    everywhere = sum((_referenced(tree) for tree in SOURCES.values()), Counter())
    for name, tree in SOURCES.items():
        for node in tree.body:
            if isinstance(node, ast.FunctionDef) and node.name.startswith("_"):
                outside = everywhere[node.name] - _referenced(node)[node.name]
                assert outside > 0, (name, node.name)


def test_only_the_value_base_defines_equality_and_hash():
    # every value type compares and hashes by its field tuple through weights._Value
    names = ("__eq__", "__hash__")
    defined = sorted(
        (name, node.lineno, node.name)
        for name, tree in SOURCES.items()
        for node in ast.walk(tree)
        if isinstance(node, ast.FunctionDef) and node.name in names
    )
    base = next(node for node in SOURCES["weights.py"].body if isinstance(node, ast.ClassDef) and node.name == "_Value")
    in_base = sorted(("weights.py", node.lineno, node.name) for node in base.body
                     if isinstance(node, ast.FunctionDef) and node.name in names)
    assert len(in_base) == 2 and defined == in_base, defined


def _by_function(node: ast.AST, owner: str | None = None):
    """(function name, node) for each node under node, named by its
    innermost enclosing function (None at module level)."""
    for child in ast.iter_child_nodes(node):
        yield owner, child
        yield from _by_function(child, child.name if isinstance(child, ast.FunctionDef) else owner)


_CONTAINERS = (ast.Set, ast.Dict, ast.List, ast.SetComp, ast.DictComp, ast.ListComp)
_MUTATORS = {"add", "append", "clear", "discard", "extend", "insert", "pop", "popitem", "remove", "setdefault", "update"}


def _module_containers(tree: ast.Module) -> set[str]:
    """The module-level names bound to a set, dict or list, by display,
    comprehension or a call of set, dict or list."""
    return {
        target.id
        for node in tree.body
        if isinstance(node, (ast.Assign, ast.AnnAssign)) and (
            isinstance(node.value, _CONTAINERS)
            or isinstance(node.value, ast.Call) and isinstance(node.value.func, ast.Name)
            and node.value.func.id in ("set", "dict", "list"))
        for target in (node.targets if isinstance(node, ast.Assign) else [node.target])
        if isinstance(target, ast.Name)
    }


def _changed_in_functions(tree: ast.Module) -> set[str]:
    """The names a function changes in place, bare or as a module attribute:
    by a mutating method, a subscript store or delete, or an augmented
    assignment."""
    def name(node):
        return node.id if isinstance(node, ast.Name) else node.attr if isinstance(node, ast.Attribute) else None

    return {
        name(node.func.value) if isinstance(node, ast.Call)
        else name(node.value) if isinstance(node, ast.Subscript)
        else name(node.target)
        for owner, node in _by_function(tree)
        if owner is not None and (
            isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) and node.func.attr in _MUTATORS
            or isinstance(node, ast.Subscript) and isinstance(node.ctx, (ast.Store, ast.Del))
            or isinstance(node, ast.AugAssign))
    }


def test_no_function_changes_a_module_level_container():
    changed = set().union(*map(_changed_in_functions, SOURCES.values()))
    held = {name: _module_containers(tree) for name, tree in SOURCES.items()}
    assert {"_SUITES", "_LOWEST_CAP", "REFERENCE_SI"} <= held["harness.py"]  # the lint sees the tables
    for name, names in held.items():
        assert not names & changed, (name, sorted(names & changed))


def _memo_bounds(tree: ast.Module):
    """(function name, bounded) for each function decorated with
    functools.cache or lru_cache, bare or as an attribute; bounded unless
    it is `cache` or an lru_cache with maxsize None."""
    for node in ast.walk(tree):
        if not isinstance(node, ast.FunctionDef):
            continue
        for deco in node.decorator_list:
            func = deco.func if isinstance(deco, ast.Call) else deco
            label = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if label not in ("cache", "lru_cache"):
                continue
            sizes = [*deco.args[:1], *(k.value for k in deco.keywords if k.arg == "maxsize")] \
                if isinstance(deco, ast.Call) else []
            unbounded = any(isinstance(v, ast.Constant) and v.value is None for v in sizes)
            yield node.name, label == "lru_cache" and not unbounded


def test_every_memo_is_bounded():
    memos = {(name, fn): bounded for name, tree in SOURCES.items() for fn, bounded in _memo_bounds(tree)}
    assert {("cli.py", "_parser"), ("cli.py", "_command_parser"), ("elements.py", "gamma_graph"),
            ("tori.py", "_zero")} <= set(memos)
    assert all(memos.values()), sorted(memo for memo, bounded in memos.items() if not bounded)


def test_only_cli_main_prints():
    # command handlers return their answer; cli_main prints it and picks the exit code
    printers = {
        (name, owner)
        for name, tree in SOURCES.items()
        for owner, node in _by_function(tree)
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "print"
    }
    assert printers == {("cli.py", "cli_main")}, sorted(printers, key=str)


def _constants_by_function(tree: ast.Module):
    """(function name, string) for each string constant, docstrings aside,
    under its innermost enclosing function, f-string parts included."""
    docs = {
        id(node.body[0].value)
        for node in ast.walk(tree)
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef))
        and node.body and isinstance(node.body[0], ast.Expr) and isinstance(node.body[0].value, ast.Constant)
    }
    return (
        (owner, node.value)
        for owner, node in _by_function(tree)
        if isinstance(node, ast.Constant) and isinstance(node.value, str) and id(node) not in docs
    )


@pytest.mark.parametrize("phrase", [" is not dominant", " is not 2-restricted", " is not minimal"])
def test_each_input_rule_is_written_once(phrase):
    owners = {
        (name, owner)
        for name, tree in SOURCES.items()
        for owner, text in _constants_by_function(tree)
        if phrase in text
    }
    assert len(owners) == 1, sorted(owners, key=str)


BAD, WIDE, T3 = Weight((1, -1)), Weight((2, 0)), TorusShape(((3, -1),))


@pytest.mark.parametrize("call, message", [
    (lambda: abelian_all(BAD), "1,-1 is not dominant"),
    (lambda: weight_set(BAD), "1,-1 is not dominant"),
    (lambda: orbits_below(BAD), "1,-1 is not dominant"),
    (lambda: has_zero_weight(BAD), "1,-1 is not dominant"),
    (lambda: twist_decompose(BAD), "1,-1 is not dominant"),
    (lambda: g_effective_weight_set(BAD), "1,-1 is not dominant"),
    (lambda: singer_cycle_has_one(BAD), "1,-1 is not dominant"),
    (lambda: th7_blocks(BAD, [1]), "1,-1 is not dominant"),
    (lambda: p49_classify(BAD, identity_element(2)), "1,-1 is not dominant"),
    (lambda: abelian_all(WIDE), "2,0 is not 2-restricted"),
    (lambda: weight_set(WIDE), "2,0 is not 2-restricted"),
    (lambda: has_zero_weight(WIDE), "2,0 is not 2-restricted"),
    (lambda: torus_trivial(Weight((0, 1)), T3), "rank mismatch: 2 vs 3"),
    (lambda: element_has_one(Weight((0, 1)), identity_element(3)), "rank mismatch: 2 vs 3"),
    (lambda: p49_classify(Weight((0, 1)), identity_element(3)), "rank mismatch: 2 vs 3"),
    (lambda: minkowski_sum(weight_set(fundamental(2, 1)), weight_set(fundamental(3, 1))), "rank mismatch: 2 vs 3"),
    (lambda: block_sums(EpsWeight((1, 0)), T3), "rank mismatch: 2 vs 3"),
    (lambda: trivial_constituent(weight_set(fundamental(2, 1)), T3), "rank mismatch: 2 vs 3"),
    (lambda: unisingular_on_torus(weight_set(fundamental(2, 1)), T3), "rank mismatch: 2 vs 3"),
    (lambda: eval_weight(EpsWeight((1, 0)), TorusElement(T3, (1,))), "rank mismatch: 2 vs 3"),
    (lambda: build_element([(0, 1, 1)]), "block (0,1,1) has nonpositive fields"),
    (lambda: build_element([(1, 3, 2)]), "block sign must be +1 or -1, got 2"),
    (lambda: build_element([(2, 3, -1)]), "order 3 does not divide 2^2 + 1"),
    (lambda: build_element([(2, 1, 1)]), "an identity block must be (1, 1, +1)"),
    (lambda: build_element([(1, 3, -1), (3, 3, -1)]), "block (3,3,-1) is not minimal: order of 2 mod 3 is not 6"),
])
def test_input_rule_messages(call, message):
    with pytest.raises(ValueError) as caught:
        call()
    assert type(caught.value) is ValueError and str(caught.value) == message
