"""Tests for the command-line interface: golden files, JSON mode, exit codes."""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

from crnkit.cli import main
from crnkit.concord import verify_witness

HERE = Path(__file__).parent
GOLDEN = HERE / "golden"

GOLDEN_RUNS = {
    "analyze_lee.txt": ("analyze", "fixture:lee"),
    "analyze_schmitz.txt": ("analyze", "fixture:schmitz"),
    "analyze_fal.txt": ("analyze", "fixture:fal"),
    "analyze_maclean.txt": ("analyze", "fixture:maclean"),
    "analyze_maclean.json": ("analyze", "fixture:maclean", "--json"),
    "fid_schmitz.txt": ("fid", "fixture:schmitz"),
    "fid_fal.txt": ("fid", "fixture:fal"),
    "fid_maclean.txt": ("fid", "fixture:maclean"),
    "csen_lee_fal.txt": ("compare", "csen", "fixture:lee", "fixture:fal"),
    "csen_schmitz_maclean.txt": ("compare", "csen", "fixture:schmitz", "fixture:maclean"),
    "csen_fal_maclean.txt": ("compare", "csen", "fixture:fal", "fixture:maclean"),
    "core_fal_maclean.txt": ("compare", "core", "fixture:fal", "fixture:maclean"),
    "core_schmitz-augmented_maclean.txt": (
        "compare", "core", "fixture:schmitz-augmented", "fixture:maclean",
    ),
    "m3cr_toys.txt": ("compare", "m3cr", "data/toy-a.crn", "data/toy-b.crn"),
    "concordance_lee.txt": ("concordance", "fixture:lee"),
    "concordance_schmitz.txt": ("concordance", "fixture:schmitz"),
    "concordance_fal.txt": ("concordance", "fixture:fal"),
    "equilibria_schmitz_s7.txt": ("equilibria", "schmitz", "--samples", "100", "--seed", "7"),
    "equilibria_fal_s7.txt": ("equilibria", "fal", "--samples", "100", "--seed", "7"),
    "equilibria_maclean_s7.txt": ("equilibria", "maclean", "--samples", "100", "--seed", "7"),
}


def run(capsys, *argv: str) -> tuple[int, str, str]:
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.mark.parametrize("name", sorted(GOLDEN_RUNS))
def test_output_matches_golden_file_byte_for_byte(name, capsys, monkeypatch):
    monkeypatch.chdir(HERE)
    code, out, err = run(capsys, *GOLDEN_RUNS[name])
    assert code == 0
    assert err == ""
    assert out == (GOLDEN / name).read_text(encoding="utf-8")


@pytest.mark.parametrize("name", sorted(n for n in GOLDEN_RUNS if n.endswith(".txt")))
def test_json_output_matches_golden_file_byte_for_byte(name, capsys, monkeypatch):
    # each text golden has a JSON twin from the same argv plus --json
    monkeypatch.chdir(HERE)
    argv = GOLDEN_RUNS[name]
    code, out, err = run(capsys, *argv, "--json")
    assert code == 0
    assert err == ""
    assert out == (GOLDEN / name.replace(".txt", ".json")).read_text(encoding="utf-8")
    report = json.loads(out)
    assert list(report) == ["command", "inputs", "payload"]
    assert report["command"] == argv[0]


def test_json_output_is_stable_across_runs(capsys):
    first = run(capsys, "equilibria", "fal", "--samples", "25", "--seed", "3", "--json")
    second = run(capsys, "equilibria", "fal", "--samples", "25", "--seed", "3", "--json")
    assert first == second


def test_analyze_json_reports_the_deficiency(capsys):
    code, out, _ = run(capsys, "analyze", "fixture:maclean", "--json")
    assert code == 0
    numbers = json.loads(out)["payload"]["networkNumbers"]
    assert numbers["deficiency"] == 4
    assert '"deficiency": 4' in out


def test_fid_json_lists_blocks_with_profiles(capsys):
    code, out, _ = run(capsys, "fid", "fixture:schmitz", "--json")
    payload = json.loads(out)["payload"]
    assert code == 0
    assert payload["independent"] is True
    assert payload["blockCount"] == 4
    assert payload["blocks"][1]["reactions"] == ["R8", "R9"]
    assert payload["blocks"][1]["numbers"]["deficiency"] == 0


@pytest.mark.parametrize("mode", [(), ("--json",)])
def test_fid_reports_an_unconfirmed_independence(mode, capsys, monkeypatch):
    monkeypatch.setattr("crnkit.cli.is_independent", lambda decomposition: False)
    code, out, _ = run(capsys, "fid", "fixture:schmitz", *mode)
    assert code == 0
    if mode:
        assert json.loads(out)["payload"]["independent"] is False
    else:
        assert "4 block(s), independence NOT CONFIRMED" in out.splitlines()


def test_concordance_json_carries_a_verified_witness(capsys):
    code, out, _ = run(capsys, "concordance", "fixture:schmitz", "--json")
    payload = json.loads(out)["payload"]
    assert code == 0
    assert payload["verdict"] == "Discordant"
    assert payload["witness"]["verified"] is True
    assert set(payload["witness"]["sigma"]) == {f"A{i}" for i in range(1, 12)}
    assert any(value != "0" for value in payload["witness"]["alpha"].values())


@pytest.mark.parametrize("mode", [(), ("--json",)])
def test_concordance_verifies_its_witness_once(mode, capsys, monkeypatch):
    calls = []

    def counting(net, witness):
        calls.append(witness)
        return verify_witness(net, witness)

    monkeypatch.setattr("crnkit.cli.verify_witness", counting)
    code, out, _ = run(capsys, "concordance", "fixture:schmitz", *mode)
    assert code == 0
    assert "Discordant" in out
    assert len(calls) == 1


def test_equilibria_json_summarizes_scan_and_residuals(capsys):
    code, out, _ = run(capsys, "equilibria", "fal", "--samples", "50", "--seed", "7", "--json")
    payload = json.loads(out)["payload"]
    assert code == 0
    assert payload["maxResidual"] < 1e-9
    assert payload["robustSpecies"] == ["A26"]
    assert payload["scan"]["A26"]["constant"] is True
    assert payload["scan"]["A4"]["constant"] is False


def test_unknown_verdict_exits_2(capsys):
    code, out, _ = run(capsys, "concordance", "fixture:lee", "--budget", "10")
    assert code == 2
    assert out == "network: fixture:lee\nverdict: Unknown\nnodes explored: 11 (budget 10)\n"
    code, out, _ = run(capsys, "concordance", "fixture:lee", "--budget", "10", "--json")
    assert code == 2
    payload = json.loads(out)["payload"]
    assert payload == {"verdict": "Unknown", "searchNodes": 11, "nodeBudget": 10, "witness": None}


def test_budget_env_var_applies_and_the_flag_wins(capsys, monkeypatch):
    monkeypatch.setenv("CRNKIT_BUDGET", "10")
    code, out, _ = run(capsys, "concordance", "fixture:lee")
    assert code == 2
    code, out, _ = run(capsys, "concordance", "fixture:lee", "--budget", "5000000")
    assert code == 0
    assert "Discordant" in out
    monkeypatch.setenv("CRNKIT_BUDGET", "not-a-number")
    code, _, err = run(capsys, "concordance", "fixture:lee")
    assert code == 1
    assert "CRNKIT_BUDGET must be a positive integer" in err


def test_input_errors_exit_1(capsys, tmp_path, monkeypatch):
    code, _, err = run(capsys, "analyze", str(tmp_path / "missing.crn"))
    assert code == 1
    assert "No such file" in err

    code, _, err = run(capsys, "analyze", "fixture:bogus")
    assert code == 1
    assert "unknown fixture" in err

    bad = tmp_path / "bad.crn"
    bad.write_text("X -> -> Y\n", encoding="utf-8")
    code, _, err = run(capsys, "analyze", str(bad))
    assert code == 1
    assert "line 1" in err

    code, _, err = run(capsys, "equilibria", "bogus")
    assert code == 1
    assert "no equilibrium parametrization" in err

    monkeypatch.chdir(HERE)
    code, _, err = run(capsys, "compare", "csen", "data/toy-a.crn", "fixture:lee")
    assert code == 1
    assert "share no species" in err


def test_discordant_mandatory_set_exits_1(capsys, tmp_path):
    # the common reactions alone feed an absorbing species, so no concordant
    # container can contain them
    first = tmp_path / "first.crn"
    first.write_text("0 -> A @R1\nA -> C @R3\n", encoding="utf-8")
    second = tmp_path / "second.crn"
    second.write_text("0 -> A @R1\nA -> C @R3\nC -> A @R4\n", encoding="utf-8")
    code, _, err = run(capsys, "compare", "m3cr", str(first), str(second))
    assert code == 1
    assert "discordant" in err


def test_usage_errors_exit_1():
    with pytest.raises(SystemExit) as excinfo:
        main(["frobnicate"])
    assert excinfo.value.code == 1
    with pytest.raises(SystemExit) as excinfo:
        main([])
    assert excinfo.value.code == 1
    with pytest.raises(SystemExit) as excinfo:
        main(["compare", "nonsense-mode", "fixture:lee", "fixture:fal"])
    assert excinfo.value.code == 1


def test_console_entry_point_runs_in_a_subprocess():
    result = subprocess.run(
        [sys.executable, "-m", "crnkit", "analyze", "fixture:lee"],
        capture_output=True,
        text=True,
        check=False,
    )
    assert result.returncode == 0
    assert "network numbers" in result.stdout
