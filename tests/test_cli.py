"""CLI behavior: JSON shape, byte stability, exit codes, per-command flags."""

from __future__ import annotations

import json
import math
import os
import shlex
import subprocess
import sys
from fractions import Fraction

import pytest

import liemoments
from liemoments import characters, cli, expectations, matchings
from liemoments.cli import main
from liemoments.errors import ConsistencyError
from liemoments.groups import Family
from liemoments.partitions import Partition
from liemoments.szego import FourierData, twisted_asymptotic
from liemoments.tablecache import table_path


def run_cli(argv, capsys):
    code = main(argv)
    out, err = capsys.readouterr()
    return code, out, err


def run_json(argv, capsys):
    code, out, err = run_cli(argv, capsys)
    assert code == 0, err
    return json.loads(out)


def test_output_bytes_are_stable(capsys):
    argv = ["expect-trace", "--group", "sp", "--lambda", "2"]
    _, first, _ = run_cli(argv, capsys)
    _, second, _ = run_cli(argv, capsys)
    assert first == second
    assert first.endswith("\n")
    # compact separators, sorted keys
    assert ": " not in first and first.index('"exact"') < first.index('"metadata"')


def test_console_script_matches_in_process(capsys):
    argv = ["expect-trace", "--group", "sp", "--lambda", "2"]
    _, inproc, _ = run_cli(argv, capsys)
    # the child imports the same package as this process, installed or not
    src = os.path.dirname(os.path.dirname(liemoments.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "liemoments.cli", *argv],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == inproc


# Every exact command, with one refusal (exit 2), one verify below the stable
# range of a twisted label (exit 3) and two char-table runs that read the
# cache directory from the environment.
_EXACT_ARGVS = [
    ["expect-trace", "--group", "sp", "--lambda", "2,1,1"],
    ["expect-trace", "--group", "sp", "--rank", "1", "--lambda", "1,1,1,1"],
    ["expect-trace", "--group", "sp", "--rank", "1", "--lambda", "2,2"],
    ["expect-twisted", "--group", "so-odd", "--rank", "3", "--gamma", "1", "--lambda", "2,1", "--verify"],
    ["expect-twisted", "--group", "sp", "--rank", "2", "--gamma", "1,1,1", "--lambda", "1,1"],
    ["expect-twisted", "--group", "sp", "--rank", "1", "--gamma", "0", "--lambda", "1,1,1,1", "--verify"],
    ["expect-twisted", "--group", "sp", "--rank", "1", "--gamma", "1", "--lambda", "2,1", "--verify"],
    ["ratio", "--gamma", "2,1", "--coeffs", "c1=1/2,c2=1/3", "--verify"],
    ["ratio", "--gamma", "2", "--coeffs", "c1=0.3,c2=-0.1"],
    ["asymptotics", "--family", "so-even", "--gamma", "1", "--coeffs", "c1=0.3"],
    ["branch", "--family", "so", "--lambda", "2,2"],
    ["char-table", "--k", "5"],
    ["char-table", "--k", "4", "--pretty"],
    ["lr", "--lambda", "2,1", "--mu", "1", "--nu", "2"],
    ["g", "--lambda", "2,2", "--method", "closed"],
    ["g", "--lambda", "2,2,1,1", "--method", "brute"],
    ["g", "--lambda", "1,1,1,1", "--method", "rains:2"],
    ["selftest", "--pretty"],
]


def test_repeated_in_process_runs_match_fresh_interpreters(tmp_path, capsys, monkeypatch):
    """main() called again and again in one process prints what a fresh
    interpreter prints for each command.  The second pass changes the cache
    directory in the environment, and char-table must write to the new one."""
    src = os.path.dirname(os.path.dirname(liemoments.__file__))
    env = {**os.environ, "PYTHONPATH": src, "LIEMOMENTS_CACHE_DIR": str(tmp_path / "fresh")}
    fresh = []
    for argv in _EXACT_ARGVS:
        proc = subprocess.run(
            [sys.executable, "-m", "liemoments.cli", *argv], capture_output=True, text=True, env=env
        )
        fresh.append((proc.returncode, proc.stdout))
    assert [code for code, _ in fresh].count(0) == len(_EXACT_ARGVS) - 2

    for run in range(2):
        cache = tmp_path / f"run{run}"
        monkeypatch.setenv("LIEMOMENTS_CACHE_DIR", str(cache))
        characters._TABLE_MEMO.clear()
        for argv, want in zip(_EXACT_ARGVS, fresh):
            code, out, _ = run_cli(argv, capsys)
            assert (code, out) == want, argv
        assert table_path(5, cache).exists() and table_path(4, cache).exists()
    characters._TABLE_MEMO.clear()


def test_expect_trace_stable(capsys):
    doc = run_json(["expect-trace", "--group", "sp", "--lambda", "2"], capsys)
    assert doc["exact"] == {"numerator": "-1", "denominator": "1"}
    assert doc["float"] == -1.0
    assert doc["metadata"]["stable_range"] is True
    assert doc["query"]["rank"] == "stable"
    assert doc["metadata"]["versions"]["schema"] == 4


def test_expect_trace_below_range_involution_count(capsys):
    doc = run_json(
        ["expect-trace", "--group", "sp", "--rank", "1", "--lambda", "1,1,1,1"],
        capsys,
    )
    assert doc["exact"] == {"numerator": "2", "denominator": "1"}
    assert doc["metadata"]["stable_range"] is False


def test_expect_twisted(capsys):
    doc = run_json(
        ["expect-twisted", "--group", "sp", "--gamma", "1", "--lambda", "2,1"],
        capsys,
    )
    assert doc["exact"] == {"numerator": "-1", "denominator": "1"}
    doc = run_json(
        [
            "expect-twisted",
            "--group",
            "so-odd",
            "--gamma",
            "1",
            "--lambda",
            "2,1",
            "--verify",
        ],
        capsys,
    )
    assert doc["exact"] == {"numerator": "1", "denominator": "1"}
    assert doc["query"]["verified"] is True


def test_ratio_exact(capsys):
    doc = run_json(
        ["ratio", "--gamma", "2", "--coeffs", "c1=1/2,c2=1/3"], capsys
    )
    assert doc["exact"] == {"numerator": "11", "denominator": "24"}
    assert doc["float"] == pytest.approx(11 / 24)


def test_ratio_float_coeffs(capsys):
    doc = run_json(["ratio", "--gamma", "1", "--coeffs", "c1=0.25"], capsys)
    assert doc["exact"] == {"numerator": "1", "denominator": "4"}
    assert doc["float"] == 0.25


def test_ratio_coefficient_spelling_changes_nothing(capsys):
    docs = [
        run_json(["ratio", "--gamma", "1", "--coeffs", c], capsys)
        for c in ("c1=0.25", "c1=1/4", "c1=25e-2")
    ]
    assert len({(json.dumps(d["exact"]), d["float"]) for d in docs}) == 1
    argv = ["ratio", "--gamma", "3,1", "--coeffs", "c1=0.3,c2=0.17,c3=-0.05", "--verify"]
    doc = run_json(argv, capsys)
    assert doc["exact"] == {"numerator": "-463", "denominator": "80000"}
    assert doc["float"] == -0.0057875


def test_asymptotics_plain(capsys):
    for family, expected in [
        ("sp", math.exp(0.045)),
        ("so-odd", math.exp(0.045)),
        ("so-even", math.exp(0.045)),
        (" SO-Even ", math.exp(0.045)),
    ]:
        doc = run_json(
            ["asymptotics", "--family", family, "--coeffs", "c1=0.3"], capsys
        )
        assert doc["float"] == pytest.approx(expected)
        assert not any("reduced-symbol" in c for c in doc["metadata"]["conventions"])


def test_asymptotics_twisted(capsys):
    doc = run_json(
        ["asymptotics", "--family", "sp", "--coeffs", "c1=0.3", "--gamma", "1"],
        capsys,
    )
    want = twisted_asymptotic(Family.SP, Partition.parse("1"), FourierData({1: 0.3}))
    assert doc["float"] == pytest.approx(want)
    assert doc["query"]["gamma"] == "1"


def test_branch(capsys):
    doc = run_json(["branch", "--family", "sp", "--lambda", "2,1"], capsys)
    assert doc["expansion"] == [
        {"target": "1", "multiplicity": 1},
        {"target": "2,1", "multiplicity": 1},
    ]
    assert doc["exact"]["numerator"] == "2"
    doc = run_json(["branch", "--family", "so", "--lambda", "2"], capsys)
    targets = {term["target"] for term in doc["expansion"]}
    assert targets == {"0", "2"}


def test_char_table(capsys):
    doc = run_json(["char-table", "--k", "3"], capsys)
    table = doc["table"]
    assert table["labels"] == ["3", "2,1", "1,1,1"]
    assert table["classes"] == ["3", "2,1", "1,1,1"]
    row = table["values"][table["labels"].index("2,1")]
    assert row == ["-1", "0", "2"]
    assert doc["exact"]["numerator"] == "3"


def test_lr(capsys):
    doc = run_json(
        ["lr", "--lambda", "3,2,1", "--mu", "2,1", "--nu", "2,1"], capsys
    )
    assert doc["exact"] == {"numerator": "2", "denominator": "1"}


def test_g_methods(capsys):
    doc = run_json(["g", "--lambda", "2,2"], capsys)
    assert doc["exact"]["numerator"] == "3"
    doc = run_json(["g", "--lambda", "2,2", "--method", "brute"], capsys)
    assert doc["exact"]["numerator"] == "3"
    doc = run_json(["g", "--lambda", "1,1,1,1", "--method", "rains:2"], capsys)
    assert doc["exact"]["numerator"] == "2"
    assert doc["metadata"]["stable_range"] is False
    doc = run_json(["g", "--lambda", "1,1,1,1", "--method", "rains:4"], capsys)
    assert doc["exact"]["numerator"] == "3"
    assert doc["metadata"]["stable_range"] is True


def test_g_rains_answers_beyond_the_involution_scan(capsys):
    # the short-label sum has no scan bound: at N >= k it is (k - 1)!!, and
    # at N = 2 the Catalan number C_{k/2}
    doc = run_json(["g", "--lambda", ",".join(["1"] * 16), "--method", "rains:16"], capsys)
    assert doc["exact"] == {"numerator": "2027025", "denominator": "1"}
    assert doc["metadata"]["stable_range"] is True
    doc = run_json(["g", "--lambda", ",".join(["1"] * 16), "--method", "rains:2"], capsys)
    assert doc["exact"] == {"numerator": "1430", "denominator": "1"}


def test_mc_verify_references_cells_below_the_range(capsys):
    # SO(2) p_(1,1) is 2 there, not the stable 1
    doc = run_json(
        ["mc-verify", "--group", "so-even", "--n", "1", "--lambda", "1,1", "--samples", "2000", "--seed", "1"],
        capsys,
    )
    assert doc["exact"] == {"numerator": "2", "denominator": "1"}
    assert doc["metadata"]["stable_range"] is False
    assert doc["mc"]["agree"] is True


def test_stable_range_flags_agree_on_sp_all_ones(capsys):
    """expect-trace over Sp(2n) and g's rains:2n count the same involutions,
    and both flag the closed form's range the same way: odd weights average
    to zero at every rank, inside the range."""
    for n in range(1, 5):
        for k in range(1, 9):
            lam = ",".join(["1"] * k)
            trace = run_json(["expect-trace", "--group", "sp", "--rank", str(n), "--lambda", lam], capsys)
            rains = run_json(["g", "--lambda", lam, "--method", f"rains:{2 * n}"], capsys)
            assert trace["exact"] == rains["exact"], (n, k)
            flags = [doc["metadata"]["stable_range"] for doc in (trace, rains)]
            assert flags[0] == flags[1] == (2 * n >= k or k % 2 == 1), (n, k)


EXPECT_TWISTED_SP2_ONES = [
    "expect-twisted", "--group", "sp", "--rank", "1", "--gamma", "0", "--lambda", "1,1,1,1", "--verify",
]


def test_expect_twisted_answers_the_involution_count(capsys):
    doc = run_json(EXPECT_TWISTED_SP2_ONES, capsys)
    assert doc["exact"] == {"numerator": "2", "denominator": "1"}
    assert doc["metadata"]["stable_range"] is False
    assert doc["query"]["verified"] is True


def test_expect_twisted_verify_catches_a_wrong_involution_count(capsys, monkeypatch):
    short = expectations.rains_short_label_sum
    monkeypatch.setattr(expectations, "rains_short_label_sum", lambda *a: short(*a) + 1)
    code, out, err = run_cli(EXPECT_TWISTED_SP2_ONES, capsys)
    assert code == 4 and out == ""
    assert "short-label sum gives 3, King's rule 2" in err


def test_mc_verify_references_a_cell_below_the_old_rank_rule(capsys):
    # SO(5) is below rank >= |lam| for (2,1,1), inside the closed form's range
    doc = run_json(
        ["mc-verify", "--group", "so-odd", "--n", "2", "--lambda", "2,1,1", "--samples", "2000", "--seed", "1"],
        capsys,
    )
    assert doc["exact"] == {"numerator": "1", "denominator": "1"}
    assert doc["metadata"]["stable_range"] is True
    assert "z" in doc["mc"] and "agree" in doc["mc"]


MC_VERIFY_SP2 = [
    "mc-verify",
    "--group",
    "sp",
    "--n",
    "1",
    "--lambda",
    "1,1,1,1",
    "--samples",
    "4000",
    "--seed",
    "1",
]


def test_mc_verify_reports_z(capsys):
    doc = run_json(MC_VERIFY_SP2, capsys)
    assert doc["exact"] == {"numerator": "2", "denominator": "1"}
    mc = doc["mc"]
    assert mc["samples"] == 4000 and mc["seed"] == 1
    assert mc["stderr"] > 0
    assert abs(mc["z"]) < 6
    assert mc["agree"] is True
    assert set(mc["tolerances"]) == {"trace_imag", "pairing", "denominator_min"}


def test_mc_verify_disagrees_with_wrong_reference(capsys, monkeypatch):
    # the true value is 2; a reference of 3 sits about 20 stderr away
    monkeypatch.setattr(
        "liemoments.cli.expect_twisted", lambda G, gamma, lam: Fraction(3)
    )
    code, out, _ = run_cli(MC_VERIFY_SP2, capsys)
    assert code == 0
    mc = json.loads(out)["mc"]
    assert mc["z"] < -4
    assert mc["agree"] is False


def test_mc_verify_twisted_at_the_empty_label_has_a_reference(capsys):
    doc = run_json(MC_VERIFY_SP2 + ["--gamma", "0"], capsys)
    assert doc["exact"] == {"numerator": "2", "denominator": "1"}
    assert doc["metadata"]["stable_range"] is False
    assert abs(doc["mc"]["z"]) < 6 and doc["mc"]["agree"] is True


def test_mc_verify_phi_has_no_reference(capsys):
    doc = run_json(
        [
            "mc-verify",
            "--group",
            "so-even",
            "--n",
            "2",
            "--coeffs",
            "c1=0.1",
            "--samples",
            "500",
        ],
        capsys,
    )
    assert "exact" not in doc
    assert "z" not in doc["mc"]
    assert "agree" not in doc["mc"]
    assert doc["metadata"]["stable_range"] is False


def test_huge_brute_force_weight_exits_2_at_once(monkeypatch, capsys):
    # refused before the 4e8-point permutation is built
    def no_permutation(lam):
        raise AssertionError("built a permutation for a refused weight")

    monkeypatch.setattr(matchings, "canonical_permutation", no_permutation)
    code, out, err = run_cli(["g", "--lambda", "400000000", "--method", "brute"], capsys)
    assert code == 2 and out == ""
    assert "brute-force bound" in err


def test_exit_code_2_on_bad_input(capsys):
    cases = [
        ["expect-trace", "--group", "su", "--lambda", "2"],
        ["expect-trace", "--group", "symplectic", "--lambda", "2"],
        ["expect-trace", "--group", "so_even", "--lambda", "2"],
        ["asymptotics", "--family", "soodd", "--coeffs", "c1=0.3"],
        ["expect-trace", "--group", "sp", "--lambda", "spam"],
        ["expect-trace", "--group", "sp", "--rank", "0", "--lambda", "2"],
        ["mc-verify", "--group", "sp", "--n", "2"],
        ["g", "--lambda", "2,1", "--method", "rains:4"],
        ["g", "--lambda", "2", "--method", "sorcery"],
        ["ratio", "--gamma", "1", "--coeffs", "c1=zero"],
        ["mc-verify", "--group", "sp", "--n", "1", "--lambda", "1", "--threads", "0"],
        ["mc-verify", "--group", "sp", "--n", "1", "--lambda", "1", "--threads", "-3"],
        ["mc-verify", "--group", "sp", "--n", "2", "--lambda", "1", "--coeffs", "c1=0.1"],
        ["char-table", "--k", "-1"],
        ["g", "--lambda", "1,1", "--method", "rains:0"],
        # Sp(4) has no irreducible labeled by three rows
        ["expect-twisted", "--group", "sp", "--rank", "2", "--gamma", "1,1,1", "--lambda", "1,1"],
    ]
    for argv in cases:
        code, out, err = run_cli(argv, capsys)
        assert code == 2, argv
        assert out == "", argv
        assert err.startswith("error:"), argv


@pytest.mark.parametrize(
    "argv",
    [
        ["asymptotics", "--family", "sp", "--coeffs", "c1=1000"],
        ["mc-verify", "--group", "sp", "--n", "1", "--coeffs", "c1=1000", "--samples", "100"],
        ["mc-verify", "--group", "sp", "--n", "1", "--coeffs", "c1=200", "--samples", "100"],
    ],
    ids=["asymptotics", "mc-verify", "mc-verify-stderr"],
)
@pytest.mark.parametrize("pretty", [False, True], ids=["json", "pretty"])
def test_overflow_exits_2_with_empty_stdout(argv, pretty, capsys):
    # an overflowed or non-finite float is refused before anything is written;
    # mc-verify refuses before sampling, since at c1=1000 exp overflows and at
    # c1=200 the stderr's squares would
    code, out, err = run_cli(argv + ["--pretty"] * pretty, capsys)
    assert code == 2
    assert out == ""
    assert "error:" in err


@pytest.mark.parametrize(
    "argv, want, in_float_range",
    [
        # s_3 = c1^3/6 + c1 c2 and s_21 = c1^3/3 at p_i = i c_i
        (["ratio", "--gamma", "3", "--coeffs", "c1=1e200"], Fraction(10**600, 6), False),
        (["ratio", "--gamma", "3", "--coeffs", "c1=1e100,c2=1e250", "--verify"], Fraction(10**300, 6) + 10**350, False),
        (["ratio", "--gamma", "2,1", "--coeffs", "c1=1e100,c2=1e250", "--verify"], Fraction(10**300, 3), True),
    ],
    ids=["ratio", "ratio-verify-inf", "ratio-verify-nan"],
)
@pytest.mark.parametrize("pretty", [False, True], ids=["json", "pretty"])
def test_huge_coefficients_answer_ratio_exactly(argv, want, in_float_range, pretty, capsys):
    # the ratio is exact whatever the coefficients' size, so it is answered
    # with exit 0, and the float key is left out when the value has none
    code, out, err = run_cli(argv + ["--pretty"] * pretty, capsys)
    assert code == 0, err
    doc = json.loads(out)
    assert doc["exact"] == {"numerator": str(want.numerator), "denominator": str(want.denominator)}
    assert doc.get("float") == (float(want) if in_float_range else None)


@pytest.mark.parametrize("gamma", [[], ["--gamma", "1"]], ids=["phi", "twisted-phi"])
def test_mc_verify_range_refusal_is_tight(gamma, capsys):
    # on Sp(2) from 100 samples the bound admits 2*c1 <= 351.2 (351.9 untwisted):
    # c1 = 175 samples without a numpy warning (warnings are errors here) and
    # c1 = 176 is refused with empty stdout
    argv = ["mc-verify", "--group", "sp", "--n", "1", "--samples", "100", *gamma]
    doc = run_json(argv + ["--coeffs", "c1=175"], capsys)
    assert math.isfinite(doc["mc"]["mean"]) and math.isfinite(doc["mc"]["stderr"])
    code, out, err = run_cli(argv + ["--coeffs", "c1=176"], capsys)
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and "too large to estimate" in err


# Run in a fresh interpreter: imports the package and the CLI, runs every
# exact command once, and checks numpy is still unloaded; then runs the
# commands that need numpy.
_IMPORT_BOUNDARY = """
import contextlib, io, sys
import liemoments
import liemoments.cli as cli

def run(*argv):
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(list(argv)) == 0, argv

run("expect-trace", "--group", "sp", "--lambda", "2,1,1")
run("expect-trace", "--group", "sp", "--rank", "1", "--lambda", "1,1,1,1")
run("expect-twisted", "--group", "so-odd", "--gamma", "1", "--lambda", "2,1", "--verify")
run("ratio", "--gamma", "2", "--coeffs", "c1=1/2,c2=1/3", "--verify")
run("asymptotics", "--family", "sp", "--gamma", "1", "--coeffs", "c1=0.3")
run("branch", "--family", "sp", "--lambda", "2,2")
run("lr", "--lambda", "2,1", "--mu", "1", "--nu", "2")
run("g", "--lambda", "2,2", "--method", "closed")
run("g", "--lambda", "1,1,1,1", "--method", "rains:2")
run("char-table", "--k", "5", "--cache-dir", sys.argv[1])
run("selftest")
assert "numpy" not in sys.modules, "an exact command loaded numpy"

run("mc-verify", "--group", "sp", "--n", "1", "--lambda", "1,1", "--samples", "100")
run("g", "--lambda", "2,2", "--method", "brute")
G = liemoments.GroupSpec.sp(1)
est = liemoments.estimate(G, liemoments.TraceProductObservable(liemoments.Partition([1, 1])), 100, 1)
assert est.samples == 100
assert set(liemoments.__all__) <= set(dir(liemoments))
"""


def test_exact_commands_leave_numpy_unloaded(tmp_path):
    src = os.path.dirname(os.path.dirname(liemoments.__file__))
    proc = subprocess.run(
        [sys.executable, "-W", "error", "-c", _IMPORT_BOUNDARY, str(tmp_path)],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize(
    "argv",
    [
        ["ratio", "--gamma", "1"],
        ["asymptotics", "--family", "sp"],
        ["mc-verify", "--group", "sp", "--n", "2", "--samples", "100"],
    ],
    ids=["ratio", "asymptotics", "mc-verify"],
)
@pytest.mark.parametrize(
    "coeffs",
    ["c1=1/0", "c1=0.5,c2=1/0", "c1=1,c1=2"],
    ids=["zero-denominator", "zero-denominator-float", "duplicate-index"],
)
def test_bad_coeffs_exit_2_with_empty_stdout(argv, coeffs, capsys):
    code, out, err = run_cli(argv + ["--coeffs", coeffs], capsys)
    assert code == 2
    assert out == ""
    assert err.startswith("error:")


def test_exit_code_3_below_stable_range(capsys):
    # only --verify with a nonempty label below the range exits 3: King's
    # rule is the one exact route there; without --verify the cell answers
    argv = ["expect-twisted", "--group", "sp", "--rank", "1", "--gamma", "1", "--lambda", "2,1"]
    code, out, err = run_cli(argv + ["--verify"], capsys)
    assert code == 3 and out == ""
    assert "only exact route" in err and "mc-verify" in err
    assert run_json(argv, capsys)["exact"] == {"numerator": "0", "denominator": "1"}
    doc = run_json(["expect-trace", "--group", "sp", "--rank", "1", "--lambda", "2,2"], capsys)
    assert doc["exact"] == {"numerator": "2", "denominator": "1"}


def test_exit_code_4_on_consistency_fault(capsys, monkeypatch):
    def boom(*a, **kw):
        raise ConsistencyError("forced route mismatch")

    monkeypatch.setattr("liemoments.cli.expect_twisted", boom)
    code, _, err = run_cli(
        ["expect-twisted", "--group", "sp", "--gamma", "1", "--lambda", "1"],
        capsys,
    )
    assert code == 4
    assert "consistency" in err


def test_pretty_output(tmp_path, capsys, monkeypatch):
    """--pretty prints the compact document indented, and changes neither the
    exit code nor stderr."""
    monkeypatch.setenv("LIEMOMENTS_CACHE_DIR", str(tmp_path))
    mc = ["mc-verify", "--group", "sp", "--n", "2", "--lambda", "2,2", "--samples", "500", "--seed", "1"]
    for argv in _EXACT_ARGVS + [mc]:
        compact = [a for a in argv if a != "--pretty"]
        code, out, err = run_cli(compact, capsys)
        pretty_code, pretty, pretty_err = run_cli(compact + ["--pretty"], capsys)
        assert (pretty_code, pretty_err) == (code, err), argv
        if code == 0:
            assert json.loads(pretty) == json.loads(out), argv
            assert pretty == json.dumps(json.loads(out), sort_keys=True, indent=2) + "\n", argv
        else:
            assert pretty == out == "", argv
    characters._TABLE_MEMO.clear()


def test_readme_examples(capsys):
    """Every `$ liemoments ...` line of README.md exits 0 with JSON, and the
    values its comments name are the ones printed."""
    readme = os.path.join(os.path.dirname(os.path.dirname(__file__)), "README.md")
    with open(readme, encoding="utf-8") as fh:
        lines = [line.split("#")[0] for line in fh if line.startswith("$ liemoments ")]
    assert len(lines) == 5
    docs = {}
    for line in lines:
        argv = shlex.split(line)[2:]
        docs[argv[0]] = run_json(argv, capsys)
    assert docs["ratio"]["exact"] == {"numerator": "11", "denominator": "24"}
    assert docs["asymptotics"]["float"] == pytest.approx(math.exp(0.045))


def test_selftest_alias(capsys):
    doc = run_json(["selftest"], capsys)
    checks = doc["checks"]
    assert checks["matching-counts"] > 0
    assert checks["twisted-routes"] > 0
    assert checks["ratio-forms"] > 0


def test_version_flag(capsys):
    # twice, because the second call reuses the parser the first one built
    outs = []
    for _ in range(2):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        outs.append(capsys.readouterr())
    assert outs[0] == outs[1]
    assert outs[0].out == f"liemoments {liemoments.__version__}\n"


def test_cache_created_and_corruption_survived(tmp_path, capsys):
    argv = ["char-table", "--k", "4", "--cache-dir", str(tmp_path)]
    characters._TABLE_MEMO.clear()
    first = run_json(argv, capsys)
    path = table_path(4, tmp_path)
    assert path.exists()
    # a mangled cache file must be ignored and rewritten, not trusted
    path.write_text("{ not json")
    characters._TABLE_MEMO.clear()
    second = run_json(argv, capsys)
    assert second == first
    assert json.loads(path.read_text())["k"] == 4
    characters._TABLE_MEMO.clear()


def test_cache_file_for_negative_k_is_not_served(tmp_path, capsys):
    # a well-formed file can claim any k; only the labels of S_k are trusted
    doc = {"format": 1, "k": -1, "labels": [], "classes": [], "values": []}
    table_path(-1, tmp_path).write_text(json.dumps(doc))
    code, out, err = run_cli(["char-table", "--k", "-1", "--cache-dir", str(tmp_path)], capsys)
    assert code == 2
    assert out == ""
    assert err.startswith("error:")


@pytest.mark.parametrize(
    "argv",
    [
        ["expect-trace", "--group", "sp", "--lambda", "2", "--samples", "5"],
        ["g", "--lambda", "2,1", "--cache-dir", "d"],
        ["mc-verify", "--group", "sp", "--n", "1", "--lambda", "1", "--config", "f"],
        ["--selftest"],
    ],
    ids=["expect-trace-samples", "g-cache-dir", "mc-verify-config", "selftest-alias"],
)
def test_flag_of_another_command_is_refused(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert "error:" in err


def test_char_table_above_bound_refused(tmp_path, capsys):
    characters._TABLE_MEMO.clear()
    code, out, err = run_cli(["char-table", "--k", "21", "--cache-dir", str(tmp_path)], capsys)
    assert code == 2
    assert out == ""
    assert "bound 20" in err
    assert list(tmp_path.iterdir()) == []
    assert 21 not in characters._TABLE_MEMO


def test_env_cache_dir(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("LIEMOMENTS_CACHE_DIR", str(tmp_path))
    characters._TABLE_MEMO.clear()
    run_json(["char-table", "--k", "5"], capsys)
    assert table_path(5, tmp_path).exists()
    characters._TABLE_MEMO.clear()


# S_3's table is [[1, 1, 1], [-1, 0, 2], [1, -1, 1]]; the last two files each
# fail one check only: dimensions 1, 2, 1 still square-sum to 3!, and the
# trivial row is still all ones.
@pytest.mark.parametrize(
    "values",
    [[[9, 9, 9]] * 3, [[9, 9, 1], [-1, 0, 2], [1, -1, 1]], [[1, 1, 1], [9, 9, 9], [9, 9, 9]]],
    ids=["all-nines", "trivial-row", "dimensions"],
)
def test_cache_file_with_wrong_values_is_rebuilt(values, tmp_path, capsys):
    """A well-shaped file with impossible values is rebuilt and overwritten,
    never printed."""
    characters._TABLE_MEMO.clear()
    want = run_json(["char-table", "--k", "3"], capsys)
    labels = ["3", "2,1", "1,1,1"]
    values = [[str(v) for v in row] for row in values]
    doc = {"format": 1, "k": 3, "labels": labels, "classes": labels, "values": values}
    path = table_path(3, tmp_path)
    path.write_text(json.dumps(doc))
    characters._TABLE_MEMO.clear()
    assert run_json(["char-table", "--k", "3", "--cache-dir", str(tmp_path)], capsys) == want
    assert json.loads(path.read_text())["values"] == want["table"]["values"]
    characters._TABLE_MEMO.clear()


def _fresh_stdout(argv):
    src = os.path.dirname(os.path.dirname(liemoments.__file__))
    proc = subprocess.run(
        [sys.executable, "-m", "liemoments.cli", *argv],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": src},
    )
    return proc.returncode, proc.stdout


def test_handler_rebound_after_first_call_runs(capsys, monkeypatch):
    """The handler that runs is the one the module holds at call time, also
    after the parser was built: the benchmark wraps cli.cmd_* after import."""
    argv = ["expect-trace", "--group", "so-even", "--lambda", "2,2"]
    want = run_cli(argv, capsys)
    calls = []
    original = cli.cmd_expect_trace

    def wrapper(args):
        calls.append(args.lam)
        return original(args)

    monkeypatch.setattr(cli, "cmd_expect_trace", wrapper)
    assert run_cli(argv, capsys) == want
    assert calls == ["2,2"]


def test_parser_built_once_per_process(tmp_path, capsys, monkeypatch):
    builds = []
    original = cli.build_parser

    def counting():
        builds.append(1)
        return original()

    monkeypatch.setattr(cli, "_PARSER", None)
    monkeypatch.setattr(cli, "build_parser", counting)
    monkeypatch.setenv("LIEMOMENTS_CACHE_DIR", str(tmp_path))
    argvs = [argv for argv in _EXACT_ARGVS if argv[0] != "selftest"]
    argvs += [["--version"], ["g", "--lambda", "2,1", "--cache-dir", "d"]]
    argvs += [["mc-verify", "--group", "sp", "--n", "1", "--lambda", "1", "--samples", "64"]]
    argvs = (argvs * 2)[:20]
    for argv in argvs:
        try:
            main(argv)
        except SystemExit:
            pass
    capsys.readouterr()
    assert builds == [1]
    characters._TABLE_MEMO.clear()


def test_parse_error_leaves_no_state_behind(capsys):
    bad = ["expect-twisted", "--group", "sp", "--gamma", "1", "--lambda", "1", "--verify", "--samples", "5"]
    good = ["expect-twisted", "--group", "so-odd", "--gamma", "1", "--lambda", "1,1"]
    with pytest.raises(SystemExit) as exc:
        main(bad)
    assert exc.value.code == 2
    capsys.readouterr()
    assert run_cli(good, capsys)[:2] == _fresh_stdout(good)


def test_cache_dir_is_read_at_each_call(tmp_path, capsys, monkeypatch):
    """Neither a --cache-dir flag nor the environment at the time the parser
    was built decides where a later char-table writes."""
    dirs = {name: tmp_path / name for name in ("built", "flag", "env")}
    monkeypatch.setattr(cli, "_PARSER", None)
    monkeypatch.setenv("LIEMOMENTS_CACHE_DIR", str(dirs["built"]))
    characters._TABLE_MEMO.clear()
    run_json(["char-table", "--k", "4", "--cache-dir", str(dirs["flag"])], capsys)
    monkeypatch.setenv("LIEMOMENTS_CACHE_DIR", str(dirs["env"]))
    run_json(["char-table", "--k", "5"], capsys)
    assert table_path(4, dirs["flag"]).exists() and table_path(5, dirs["env"]).exists()
    assert not dirs["built"].exists() and not table_path(5, dirs["flag"]).exists()
    characters._TABLE_MEMO.clear()
