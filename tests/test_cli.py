"""CLI behavior: JSON shape, byte stability, exit codes, per-command flags."""

from __future__ import annotations

import contextlib
import json
import math
import os
import subprocess
import sys
from fractions import Fraction

import pytest

import liemoments
from liemoments import characters
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
    assert "exact" not in doc
    assert doc["float"] == pytest.approx(0.25)


def test_asymptotics_plain(capsys):
    for family, expected in [
        ("sp", math.exp(0.045)),
        ("so-odd", math.exp(0.045)),
        ("so-even", math.exp(0.045)),
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
        "liemoments.cli.expect_trace_product", lambda G, lam: Fraction(3)
    )
    code, out, _ = run_cli(MC_VERIFY_SP2, capsys)
    assert code == 0
    mc = json.loads(out)["mc"]
    assert mc["z"] < -4
    assert mc["agree"] is False


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


def test_exit_code_2_on_bad_input(capsys):
    cases = [
        ["expect-trace", "--group", "su", "--lambda", "2"],
        ["expect-trace", "--group", "sp", "--lambda", "spam"],
        ["expect-trace", "--group", "sp", "--rank", "0", "--lambda", "2"],
        ["mc-verify", "--group", "sp", "--n", "2"],
        ["g", "--lambda", "2,1", "--method", "rains:4"],
        ["g", "--lambda", "2", "--method", "sorcery"],
        ["ratio", "--gamma", "1", "--coeffs", "c1=zero"],
        ["mc-verify", "--group", "sp", "--n", "1", "--lambda", "1", "--threads", "0"],
        ["mc-verify", "--group", "sp", "--n", "1", "--lambda", "1", "--threads", "-3"],
        ["mc-verify", "--group", "sp", "--n", "2", "--lambda", "1", "--coeffs", "c1=0.1"],
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
        ["ratio", "--gamma", "3", "--coeffs", "c1=1e200"],
        ["mc-verify", "--group", "sp", "--n", "1", "--coeffs", "c1=1000", "--samples", "100"],
    ],
    ids=["asymptotics", "ratio", "mc-verify"],
)
@pytest.mark.parametrize("pretty", [False, True], ids=["json", "pretty"])
def test_overflow_exits_2_with_empty_stdout(argv, pretty, capsys):
    # an overflowed or non-finite float is refused before anything is written;
    # the sampled Phi overflows exp and its mean and stderr turn non-finite
    sampled = argv[0] == "mc-verify"
    with pytest.warns(RuntimeWarning) if sampled else contextlib.nullcontext():
        code, out, err = run_cli(argv + ["--pretty"] * pretty, capsys)
    assert code == 2
    assert out == ""
    assert "error:" in err


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
    code, _, err = run_cli(
        ["expect-trace", "--group", "sp", "--rank", "1", "--lambda", "2,2"],
        capsys,
    )
    assert code == 3
    assert "mc-verify" in err


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


def test_pretty_output(capsys):
    code, out, _ = run_cli(
        ["expect-trace", "--group", "sp", "--lambda", "2", "--pretty"], capsys
    )
    assert code == 0
    assert "exact: -1" in out
    assert "stable-range: true" in out
    code, out, _ = run_cli(["char-table", "--k", "3", "--pretty"], capsys)
    assert code == 0
    assert "2,1" in out


def test_selftest_alias(capsys):
    doc = run_json(["selftest"], capsys)
    checks = doc["checks"]
    assert checks["matching-counts"] > 0
    assert checks["twisted-routes"] > 0
    assert checks["ratio-forms"] > 0


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    out, _ = capsys.readouterr()
    assert "liemoments" in out


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
