import contextlib
import io
import json
import os
import subprocess
import sys
import time
from math import comb
from pathlib import Path

import pytest

import sp2n.arith
import sp2n.cli
import sp2n.tori
from sp2n.cli import cli_main
from sp2n.harness import SuiteReport
from sp2n.reps import weight_set
from sp2n.weights import fundamental


def test_si(capsys):
    assert cli_main(["si", "7", "--json"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out == {"n": "7", "si": "3", "witness": ["1", "2", "4"]}


def test_tori(capsys):
    assert cli_main(["tori", "2", "--json"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert [t["label"] for t in out["tori"]] == ["-2", "2", "-1,-1", "-1,1", "1,1"]
    assert out["tori"][0]["order"] == "5"


def test_weights(capsys):
    assert cli_main(["weights", "2", "1,1", "--json"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["cardinality"] == "12"
    assert out["has_zero_weight"] is False
    assert cli_main(["weights", "2", "0,1", "--kind", "weyl", "--json"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["cardinality"] == "5"
    assert out["has_zero_weight"] is True


def test_weights_accepts_eps_input(capsys):
    assert cli_main(["weights", "2", "e:2,1", "--json"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["omega"] == "1,1"


def test_unisingular(capsys):
    assert cli_main(["unisingular", "3", "0,1,1", "--json"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out == {"decision": "yes", "citations": ["Thm-si1", "Thm-fr1"], "fallback_used": False}


def test_expect_flag(capsys):
    assert cli_main(["unisingular", "3", "0,1,1", "--expect", "yes"]) == 0
    assert cli_main(["unisingular", "2", "1,0", "--expect", "yes"]) == 1
    assert cli_main(["unisingular", "2", "1,0", "--expect", "no"]) == 0
    capsys.readouterr()


def test_torus_trivial(capsys):
    assert cli_main(["torus-trivial", "2", "0,1", "--torus=-2", "--json"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["decision"] == "no"
    assert out["citations"] == ["Thm-s10"]
    # a label like -1,1 goes with "=", as the help text shows: argparse reads
    # "--torus -1,1" as the option without its value
    assert cli_main(["torus-trivial", "2", "0,1", "--torus=-1,1", "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["decision"] == "no"
    assert cli_main(["torus-trivial", "2", "0,1", "--torus", "-1,1"]) == 2
    assert "expected one argument" in capsys.readouterr().err


def test_element(capsys):
    assert cli_main(["element", "1:3:-;2:5:-", "--omega", "0,1,1", "--json"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["singer_index"] == "2"
    assert out["omega_n_eigenvalue_orders"] == ["15"]
    assert out["verdict"]["decision"] == "yes"


def test_branch(capsys):
    assert cli_main(["branch", "--N", "6", "--lambda", "1,0,0,0,1", "--json"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["restriction"] == "2,0,0"
    assert out["real_element_status"] == "guaranteed-one"
    assert out["exterior_factors"]["3"] == ["0,0,1", "1,0,0"]


def test_real(capsys):
    assert cli_main(["real", "--group", "sl", "--order", "5", "--q", "2", "--json"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["real"] is True


def test_verify(capsys):
    assert cli_main(["verify", "--suite", "counterexamples"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["pass"] is True


def test_usage_errors(capsys):
    assert cli_main([]) == 2
    assert cli_main(["bogus"]) == 2
    assert cli_main(["weights", "2", "1,1,1"]) == 2  # rank mismatch
    assert cli_main(["element", "junk", "--omega", "1"]) == 2
    capsys.readouterr()
    assert cli_main(["element", "1:a:-", "--omega", "1"]) == 2
    assert capsys.readouterr().err == "error: cannot parse element block '1:a:-'\n"
    assert cli_main(["branch", "--N", "3", "--lambda", "1,x"]) == 2
    assert capsys.readouterr().err == "error: cannot parse lambda '1,x'\n"
    for group, o, q in (("sl", "9", "1"), ("su", "1", "0"), ("sl", "9", "-1"), ("su", "5", "6")):
        assert cli_main(["real", "--group", group, "--order", o, "--q", q]) == 2
        assert capsys.readouterr().err == f"error: field size {q} is not a prime power\n"


@pytest.mark.parametrize("suite, max_n", [("fr1", "0"), ("fr1", "-3"), ("all", "0")])
def test_verify_cap_below_one_exits_2(capsys, suite, max_n):
    assert cli_main(["verify", "--suite", suite, "--max-n", max_n]) == 2
    captured = capsys.readouterr()
    assert not captured.out
    assert captured.err == f"error: max_n must be at least 1, got {max_n}\n"


@pytest.mark.parametrize("suite", ["branching", "counterexamples", "all"])
def test_verify_cap_with_no_case_exits_2(capsys, suite):
    assert cli_main(["verify", "--suite", suite, "--max-n", "1"]) == 2
    captured = capsys.readouterr()
    assert not captured.out
    assert captured.err.startswith("error: max_n 1 leaves ") and "no case to check" in captured.err


_OMEGA_1_RANK_20 = ",".join(["1"] + ["0"] * 19)
_OMEGA_1_RANK_1000 = ",".join(["1"] + ["0"] * 999)


@pytest.mark.parametrize("argv, seconds", [
    # 986,880 units modulo the block order times its 20 coefficients
    (["element", "20:1048577:-", "--omega", _OMEGA_1_RANK_20], 2),
    # 5,259,030 picks of the 316 folded multisets of 13:8191:+ taken 3 at a time
    (["element", "13:8191:+;13:8191:+;13:8191:+", "--omega", ",".join(["1"] + ["0"] * 38)], 2),
    # 9,035,539 torus classes
    (["tori", "40"], 2),
    # 5,914,310 dominant weights with delta <= 66
    (["weights", "12", "1,1,1,1,1,1,1,1,1,1,1,0"], 2),
    # 4,655,293 dominant weights with delta <= 66, the candidates of the a_n = 1 rule
    (["weights", "11", "1,1,1,1,1,1,1,1,1,1,1"], 2),
    # zero-test mask words of the orbits below w_39 on a torus of order 1048575^2
    (["torus-trivial", "40", ",".join(["0"] * 38 + ["1", "0"]), "--torus", "20,20"], 2),
    # one mask of 2^40 - 1 bits, refused before it is allocated
    (["torus-trivial", "40", ",".join(["0"] * 38 + ["1", "0"]), "--torus", "40"], 2),
    # the 10^7 + 1 partitions into ones, charged before a list of 10^7 + 1 counts is made
    (["weights", "2", "10000000,0", "--kind", "weyl"], 0.1),
    # the 10^7 + 1 multisets of size-1 blocks, charged before a list of 10^7 + 1 counts is made
    (["tori", "10000000"], 0.1),
    # the partitions of sum <= 5999 into parts of size <= 2, refused after two of 6000 passes
    (["torus-trivial", "6000", ",".join(["0"] * 5998 + ["1", "0"]), "--torus=6000"], 0.1),
    # the zero kernel nests one call per torus block, 1000 deep at least, past the default
    # recursion limit of 1000 frames on every Python (3.13 still answers 400 blocks, 3.11 refuses 250)
    (["torus-trivial", "1000", _OMEGA_1_RANK_1000, "--torus=" + ",".join(["1"] * 1000)], 1),
    (["torus-trivial", "1000", _OMEGA_1_RANK_1000, "--torus=" + ",".join(["-1"] * 999 + ["1"])], 1),
], ids=["element", "element-picks", "tori", "weights", "weights-11", "zero-kernel", "zero-kernel-wide",
        "weights-delta-10000000", "tori-10000000", "partitions-rank-6000", "zero-kernel-deep", "zero-kernel-deep-minus"])
def test_work_limit_exceeded_exits_4(capsys, argv, seconds):
    started = time.perf_counter()
    assert cli_main(argv) == 4
    assert time.perf_counter() - started < seconds
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and "work limit" in captured.err
    assert "Traceback" not in captured.err and not captured.out


def test_zero_kernel_answers_200_blocks(capsys):
    # 200 nested forms from cold caches, within the recursion limit on every Python
    sp2n.tori._zero.cache_clear()
    omega_1 = ",".join(["1"] + ["0"] * 199)
    assert cli_main(["torus-trivial", "200", omega_1, "--torus=" + ",".join(["1"] * 200), "--json"]) == 0
    assert json.loads(capsys.readouterr().out) == {"decision": "yes", "citations": ["direct"], "fallback_used": True}


def test_element_top_fundamental_rank_20_answers(capsys):
    # a Thm-fr1 closed form; the p88 leg on the natural module reads the blocks
    started = time.perf_counter()
    assert cli_main(["element", "20:1048577:-", "--omega", ",".join(["0"] * 19 + ["1"]), "--json"]) == 0
    assert time.perf_counter() - started < 1
    out = json.loads(capsys.readouterr().out)
    assert out["p88_guarantee"] is False
    assert out["verdict"] == {"decision": "no", "citations": ["Thm-fr1"], "fallback_used": False}


def test_top_weights_rank_9_answer(capsys):
    # the a_n = 1 set once refused for its 2,771,968 Minkowski pairs
    started = time.perf_counter()
    assert cli_main(["weights", "9", "1,1,1,1,1,1,1,1,1", "--json"]) == 0
    assert time.perf_counter() - started < 2
    out = json.loads(capsys.readouterr().out)
    assert len(out["dominant_members"]) == 12979


def test_branch_output_bounded(capsys, monkeypatch):
    # N = 400 would print 4,020,000 weight coefficients
    lam = ",".join(["1"] + ["0"] * 398)
    started = time.perf_counter()
    assert cli_main(["branch", "--N=400", f"--lambda={lam}"]) == 4
    assert time.perf_counter() - started < 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and "work limit" in captured.err
    assert "Traceback" not in captured.err and not captured.out
    # the bound counts exactly the coefficients printed: 550 at N = 20
    argv = ["branch", "--N=20", "--lambda=" + ",".join(["1"] + ["0"] * 18), "--json"]
    monkeypatch.setattr(sp2n.arith, "WORK_LIMIT", 549)
    assert cli_main(argv) == 4
    capsys.readouterr()
    monkeypatch.setattr(sp2n.arith, "WORK_LIMIT", 550)
    assert cli_main(argv) == 0
    factors = json.loads(capsys.readouterr().out)["exterior_factors"]
    assert sum(len(w.split(",")) for ws in factors.values() for w in ws) == 550


def _run(argv):
    """Run one call with fresh stdout and stderr streams; return (code, out, err)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli_main(argv)
    return code, out.getvalue(), err.getvalue()


def _clear_parsers():
    sp2n.cli._parser.cache_clear()
    sp2n.cli._command_parser.cache_clear()


def test_parser_reused_across_calls():
    ok = ["unisingular", "8", "1,0,0,0,0,0,0,1", "--json"]
    bad = ["unisingular", "8", "--expect", "maybe"]
    fresh = []
    for argv in (ok, bad, ok):
        _clear_parsers()
        fresh.append(_run(argv))
    reused = [_run(argv) for argv in (ok, bad, ok)]  # the usage error goes to the stream set at call time
    assert reused == fresh
    assert reused[0][0] == 0 and reused[0] == reused[2]
    code, out, err = reused[1]
    assert code == 2 and not out and err.startswith("usage: sp2n unisingular")


def test_one_query_builds_only_its_command_parser():
    _clear_parsers()
    assert _run(["si", "7"])[0] == 0
    assert sp2n.cli._command_parser.cache_info().currsize == 1
    assert sp2n.cli._parser.cache_info().currsize == 0  # the full tree is not built
    assert _run(["tori", "2", "--json"])[0] == 0
    assert sp2n.cli._command_parser.cache_info().currsize == 2
    assert sp2n.cli._parser.cache_info().currsize == 0
    # one memo entry per command at most, and the full tree once
    assert sp2n.cli._command_parser.cache_info().maxsize == len(sp2n.cli._COMMANDS)
    assert sp2n.cli._parser.cache_info().maxsize == 1


_ROUTED = [
    [], ["bogus"], ["-h"], ["--help"], ["--json", "si", "7"], ["SI", "7"],
    *([name, "-h"] for name in sp2n.cli._COMMANDS),
    ["si"], ["weights", "2"], ["element", "1:3:-"], ["si", "x"],
    ["unisingular", "8", "--expect", "maybe"],
    ["torus-trivial", "2", "0,1", "--torus", "-1,1"],
    ["si", "7", "extra"], ["tori", "2", "--json", "extra", "--more"],
    ["real", "--group", "sl", "--order", "5", "--q", "2", "--bogus"],
    ["si", "7", "--js"], ["si", "--", "7"], ["weights", "--", "2", "1,1"],
    ["si", "7", "--json", "--json"], ["si", "7", "-h"],
    ["unisingular", "3", "0,1,1", "--expect", "yes"],
    ["branch", "--N=4", "--lambda=2,0,0", "--json"],
    ["verify", "--suite", "nope"], ["verify", "--suite", "counterexamples"],
]


@pytest.mark.parametrize("argv", _ROUTED, ids=[" ".join(argv) or "-" for argv in _ROUTED])
def test_routing_matches_the_full_parser(argv, monkeypatch):
    # exit code, stdout and stderr as the full tree and one parse_args call give them,
    # computed here so that each Python's own argparse texts are compared
    routed = _run(argv)
    monkeypatch.setattr(sp2n.cli, "_parse", lambda argv: sp2n.cli.build_parser().parse_args(argv))
    assert routed == _run(argv)


def test_module_entry_point():
    env = {**os.environ, "PYTHONPATH": str(Path(sp2n.cli.__file__).parents[1])}

    def sp2n_process(*argv):
        return subprocess.run([sys.executable, "-m", "sp2n", *argv], capture_output=True, text=True, env=env)

    done = sp2n_process("si", "7", "--json")
    assert (done.returncode, done.stdout) == (0, '{"n": "7", "si": "3", "witness": ["1", "2", "4"]}\n')
    assert sp2n_process("unisingular", "2", "1,0", "--expect", "yes").returncode == 1
    done = sp2n_process()
    assert done.returncode == 2 and not done.stdout and done.stderr.startswith("usage: sp2n")


def test_real_large_orders(capsys):
    # the order of 2 modulo the prime 10^9 + 7 is 500,000,003, which is odd
    started = time.perf_counter()
    assert cli_main(["real", "--group", "sl", "--order", "1000000007", "--q", "2", "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["real"] is False
    assert cli_main(["real", "--group", "su", "--order", "1000000007", "--q", "2", "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["real"] is True
    assert time.perf_counter() - started < 1
    # two prime factors above the factor bound
    assert cli_main(["real", "--group", "sl", "--order", str(1000003 * 1000033), "--q", "2"]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and "Traceback" not in captured.err


def test_weights_counted_per_orbit(capsys):
    # these sets hold 12.4 and 487 million weights; none is listed
    started = time.perf_counter()
    assert cli_main(["weights", "8", "1,1,1,1,1,1,1,0", "--json"]) == 0
    assert time.perf_counter() - started < 10
    out = json.loads(capsys.readouterr().out)
    assert out["cardinality"] == "487066705"
    assert len(out["dominant_members"]) == 1486
    assert cli_main(["weights", "7", "1,1,1,1,1,1,0", "--json"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["cardinality"] == "12402170"
    assert len(out["dominant_members"]) == 407
    # a Minkowski sum of 380,416 pairs, below the work limit: 1,486 orbits times the 256 weights of w_8
    assert cli_main(["weights", "8", "1,1,1,1,1,1,1,1", "--json"]) == 0
    assert len(json.loads(capsys.readouterr().out)["dominant_members"]) == 3584


def test_fallback_sized_by_weights_not_torus(capsys):
    # tori of order 65535^2 and 1048575^2: only the 64 and 80 weights are
    # evaluated, on residue masks of one block's order, 65,535 and 1,048,575 bits
    started = time.perf_counter()
    for n, label in ((32, "16,16"), (40, "20,20")):
        omega_1 = ",".join(["1"] + ["0"] * (n - 1))
        assert cli_main(["torus-trivial", str(n), omega_1, "--torus", label, "--json"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["decision"] == "no" and out["fallback_used"] is True
    assert time.perf_counter() - started < 1


@pytest.mark.parametrize("argv, key, value", [
    (["real", "--group", "sl", "--order", "1000000007", "--q", "2", "--json"], "real", False),
    (["weights", "8", "1,1,1,1,1,1,1,0", "--json"], "cardinality", "487066705"),
], ids=["real-sl-order-1000000007", "weights-8-487066705"])
def test_queries_once_left_out_of_the_pool_answer(capsys, argv, key, value):
    # both were too slow to answer when the recorded query pool was drawn
    started = time.perf_counter()
    assert cli_main(argv) == 0
    assert time.perf_counter() - started < 1
    assert json.loads(capsys.readouterr().out)[key] == value


def test_recorded_queries_answer_as_recorded():
    # every query of the recorded pool, all --json, keeps its exit code and stdout byte for byte
    recorded = json.loads((Path(__file__).resolve().parents[1] / "bench" / "expected" / "queries.json").read_text())
    for q in recorded["pool"]:
        assert _run(q["argv"])[:2] == (q["rc"], q["stdout"]), q["argv"]


@pytest.mark.parametrize("argv, code, out", [
    (["si", "7"], 0, "Si(7) = 3  witness parts: [1, 2, 4]\n"),
    (["tori", "2"], 0,
     "              -2  order=5  singer_index=1\n"
     "               2  order=3  singer_index=0\n"
     "           -1,-1  order=9  singer_index=2\n"
     "            -1,1  order=3  singer_index=1\n"
     "             1,1  order=1  singer_index=0\n"),
    (["weights", "2", "1,1"], 0, "weights: 12\ndominant members: 1,0; 1,1\nzero weight: no\n"),
    (["unisingular", "3", "0,1,1", "--expect", "no"], 1, "unisingular: yes  citations: Thm-si1, Thm-fr1\n"),
    (["torus-trivial", "2", "0,1", "--torus=-2", "--expect", "no"], 0,
     "trivial constituent on -2: no  citations: Thm-s10  fallback: False\n"),
    (["element", "1:3:-;2:5:-", "--omega", "0,1,1"], 0,
     "element 1:3:-;2:5:-  order 15\n"
     "graph edges: []  singular vertices: [0, 1]  Si(g)=2\n"
     "top-fundamental eigenvalue orders: [15]\n"
     "prime-power guarantee via first+last fundamentals: no\n"
     "eigenvalue 1 on weight 0,1,1: yes  citations: Thm-fr1  fallback: False\n"),
    (["branch", "--N", "4", "--lambda", "2,0,0", "--expect", "possible-exception"], 0,
     "restriction to the symplectic subgroup: 2,0\n"
     "real-element verdict: possible-exception  citations: Thm-th6, Thm-th5\n"
     "exterior power 1: factors 1,0\n"
     "exterior power 2: factors 0,1\n"
     "exterior power 3: factors 1,0\n"),
    (["branch", "--N", "3", "--lambda", "1,1", "--expect", "possible-exception"], 1,
     "real-element verdict: guaranteed-one  citations: Lem-hg5, Cor-rq2\n"),
    (["real", "--group", "su", "--order", "5", "--q", "2"], 0, "real by order condition: no\n"),
    (["verify", "--suite", "counterexamples"], 0,
     '{"suite": "counterexamples", "max_n": 6, "cases": 8, "failures": [], "pass": true, "notes": []}\n'),
], ids=["si", "tori", "weights", "unisingular", "torus-trivial", "element", "branch", "branch-odd", "real", "verify"])
def test_text_output_is_pinned(argv, code, out):
    assert _run(argv) == (code, out, "")


def test_verify_failed_report_exits_3(monkeypatch):
    failed = SuiteReport("si", 3, 1, [{"input": "n=3", "fast": "2", "oracle": "1"}])
    monkeypatch.setattr(sp2n.cli, "run_suite", lambda suite, max_n: failed)
    assert _run(["verify", "--suite", "si", "--max-n", "3"]) == (3, failed.to_json() + "\n", "")


@pytest.mark.parametrize("spec, err", [
    ("400000000:3:-", "error: order 3 does not divide 2^400000000 + 1\n"),
    # a minimal block (2 has order 2d modulo the prime 2d + 1) of a rank the weight does not have
    ("50000018:100000037:-", "error: weight '1' has rank 1, expected 50000018\n"),
], ids=["not-dividing", "minimal"])
def test_element_of_huge_rank_refused_fast(spec, err):
    # no power 2^d is built: the block rule reduces it modulo the order
    started = time.perf_counter()
    assert _run(["element", spec, "--omega", "1"]) == (2, "", err)
    assert time.perf_counter() - started < 0.1


def _signed_subsets(n, i):
    """The weights of w_i at rank n: the signed subsets of size j <= i with j = i mod 2."""
    return sum(comb(n, j) * 2**j for j in range(i % 2, i + 1, 2))


def test_weights_cardinality_above_sys_maxsize(capsys):
    for n, i in ((10, 5), (12, 4), (20, 9)):
        assert len(weight_set(fundamental(n, i))) == _signed_subsets(n, i)
    # above sys.maxsize, where len() raises OverflowError
    assert cli_main(["weights", "50", str(fundamental(50, 25)), "--json"]) == 0
    cardinality = json.loads(capsys.readouterr().out)["cardinality"]
    assert cardinality == str(_signed_subsets(50, 25)) == "5306473412441530102244"
