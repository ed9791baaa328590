"""Tests for the command-line interface: golden files, JSON mode, exit codes."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import crnkit
from crnkit import fixtures
from crnkit.cli import main
from crnkit.concord import verify_witness
from crnkit.decomp import fid, is_independent
from crnkit.linalg import rank

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


# The two `compare m3cr` fixture reports, frozen before the search decided
# patterns by circuits. They stay out of GOLDEN_RUNS, whose commands the
# benchmark's cli-reports workload runs cold, since each takes 0.1-0.5 s.
M3CR_FIXTURE_RUNS = {
    "m3cr_fal_maclean.txt": ("compare", "m3cr", "fixture:fal", "fixture:maclean"),
    "m3cr_schmitz-augmented_maclean.txt": (
        "compare", "m3cr", "fixture:schmitz-augmented", "fixture:maclean",
    ),
}


@pytest.mark.parametrize("mode", [(), ("--json",)])
@pytest.mark.parametrize("name", sorted(M3CR_FIXTURE_RUNS))
def test_m3cr_fixture_reports_match_their_golden_files(name, mode, capsys):
    code, out, err = run(capsys, *M3CR_FIXTURE_RUNS[name], *mode)
    assert (code, err) == (0, "")
    golden = name.replace(".txt", ".json") if mode else name
    assert out == (GOLDEN / golden).read_text(encoding="utf-8")


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


@pytest.mark.parametrize("name", fixtures.NAMES)
def test_fid_independence_flag_is_the_library_check(name, capsys):
    code, out, _ = run(capsys, "fid", f"fixture:{name}", "--json")
    assert code == 0
    assert json.loads(out)["payload"]["independent"] is is_independent(fid(fixtures.load(name)))


@pytest.mark.parametrize("mode", [(), ("--json",)])
def test_fid_reports_an_unconfirmed_independence(mode, capsys, monkeypatch):
    # a parent rank above the block ranks' sum: the blocks do not span it.
    # is_independent reads decomp's binding of rank, and only the parent
    # has all of schmitz's reactions, so only the parent's rank sees the patch.
    parent = len(fixtures.load("schmitz").reactions)
    monkeypatch.setattr(
        "crnkit.decomp.rank", lambda vectors: rank(vectors) + (len(vectors) == parent)
    )
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

    monkeypatch.setattr("crnkit.concord.verify_witness", counting)
    code, out, _ = run(capsys, "concordance", "fixture:schmitz", *mode)
    assert code == 0
    assert "Discordant" in out
    assert len(calls) == 1


def test_equilibria_checks_each_rate_map_once(capsys, monkeypatch):
    # one check per residual draw, for its point and its residual, and one
    # for the robustness scan's map
    from crnkit import kinetics

    calls = []
    check = kinetics._rate_constants

    def counting(net, k):
        calls.append(None)
        return check(net, k)

    monkeypatch.setattr(kinetics, "_rate_constants", counting)
    code, _, _ = run(capsys, "equilibria", "schmitz", "--samples", "6", "--seed", "7")
    assert code == 0
    assert len(calls) == 6 + 1


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


@pytest.mark.parametrize(
    "argv",
    [
        ("concordance", "fixture:lee"),
        ("compare", "csen", "fixture:lee", "fixture:fal"),
        ("compare", "core", "fixture:fal", "fixture:maclean"),
        ("compare", "m3cr", "fixture:fal", "fixture:maclean"),
    ],
)
@pytest.mark.parametrize("budget", ["0", "-3"])
def test_budget_below_one_exits_1_on_every_command(argv, budget, capsys):
    try:
        code = main([*argv, "--budget", budget])
    except SystemExit as exc:  # argument errors leave through argparse
        code = exc.code
    assert code == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--budget" in captured.err and "must be a positive integer" in captured.err
    assert "Traceback" not in captured.err


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


def test_input_errors_name_the_input_that_failed(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "first.crn").write_text("0 -> X @R1\nX -> Y @R2\n", encoding="utf-8")
    (tmp_path / "second.crn").write_text("X -> Y @R1\n-> Y\n", encoding="utf-8")
    code, out, err = run(capsys, "compare", "csen", "first.crn", "second.crn")
    assert code == 1
    assert out == ""
    assert err.startswith("crnkit: error: second.crn: line 2: ")
    assert err.count("\n") == 1

    (tmp_path / "binary.crn").write_bytes(b"\xff\xfe X -> Y\n")
    code, out, err = run(capsys, "analyze", "binary.crn")
    assert code == 1
    assert err.startswith("crnkit: error: binary.crn: 'utf-8' codec can't decode")
    assert err.count("\n") == 1

    # a file with no reaction is an input error of that file too
    (tmp_path / "empty.crn").write_bytes(b"")
    (tmp_path / "comment.crn").write_text("# comment\n", encoding="utf-8")
    for name in ("empty.crn", "comment.crn"):
        code, out, err = run(capsys, "analyze", name)
        assert code == 1
        assert out == ""
        assert err == f"crnkit: error: {name}: a network needs at least one reaction\n"


def test_a_file_that_is_not_utf8_is_reported_by_line(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "bad.crn").write_bytes(b"X -> Y @R1\n\xff\xfe -> Z @R2\n")
    code, out, err = run(capsys, "analyze", "bad.crn")
    assert code == 1
    assert out == ""
    assert err == (
        "crnkit: error: bad.crn: 'utf-8' codec can't decode byte 0xff on line 2:"
        " invalid start byte\n"
    )


def test_a_byte_order_mark_is_read_as_no_text(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    text = "A -> B @R1\nB -> A @R2\n".encode("utf-8")
    (tmp_path / "plain.crn").write_bytes(text)
    (tmp_path / "bom.crn").write_bytes(b"\xef\xbb\xbf" + text)
    plain = run(capsys, "analyze", "plain.crn", "--json")
    marked = run(capsys, "analyze", "bom.crn", "--json")
    assert plain[0] == 0
    assert marked == (plain[0], plain[1].replace("plain.crn", "bom.crn"), plain[2])


@pytest.mark.parametrize("mode", [(), ("--json",)])
def test_equilibria_lists_the_models_it_can_run(mode, capsys):
    # lee is a bundled fixture with no equilibrium parametrization
    code, out, err = run(capsys, "equilibria", "lee", *mode)
    assert code == 1
    assert out == ""
    assert err == (
        "crnkit: error: no equilibrium parametrization for 'lee';"
        " choose one of schmitz, fal, maclean\n"
    )


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


def test_m3cr_exits_2_when_maximality_goes_unverified(capsys):
    # 30 nodes run out inside the container searches of both parents; the
    # report still prints, and each parent's total counts all its reactions
    argv = ("compare", "m3cr", "fixture:fal", "fixture:maclean", "--budget", "30")
    code, out, _ = run(capsys, *argv)
    assert code == 2
    assert "container inside fixture:fal: keeps 21 of 23 reactions (maximality verified: no," in out
    assert "container inside fixture:maclean: keeps 19 of 31 reactions (maximality verified: no," in out
    code, out, _ = run(capsys, *argv, "--json")
    assert code == 2
    payload = json.loads(out)["payload"]
    assert not payload["parent1"]["maximalityVerified"]
    assert not payload["parent2"]["maximalityVerified"]


@pytest.mark.parametrize("mode", [(), ("--json",)])
def test_m3cr_exits_2_when_the_mandatory_set_goes_unverified(mode, capsys):
    argv = ("compare", "m3cr", "fixture:fal", "fixture:maclean", "--budget", "1", *mode)
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err == "crnkit: error: could not verify mandatory-set concordance within the node budget\n"


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


def test_a_closed_stdout_is_left_quietly():
    # the reader is gone before the report is written, as after `| head`
    src = str(Path(crnkit.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.Popen(
        [sys.executable, "-m", "crnkit", "analyze", "fixture:maclean", "--json"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env={**os.environ, "PYTHONPATH": path},
    )
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait() == 1
    assert err == b""


def test_an_os_error_with_no_file_name_prints_none_of_it(capsys, monkeypatch):
    def failing(args):
        raise OSError(5, "Input/output error")

    monkeypatch.setattr("crnkit.cli.cmd_analyze", failing)
    code, out, err = run(capsys, "analyze", "fixture:lee")
    assert (code, out, err) == (1, "", "crnkit: error: Input/output error\n")


def test_help_exits_0_and_lists_the_parametrized_models(capsys):
    for argv in (["--help"], ["equilibria", "--help"]):
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 0
    out = capsys.readouterr().out
    equilibria_help = out[out.index("usage: crnkit equilibria") :]
    for name in ("schmitz", "fal", "maclean"):
        assert name in equilibria_help


LAZY_LAYERS = ("crnkit.concord", "crnkit.decomp", "crnkit.transform")


def lazy_layers_loaded(*argv: str) -> list[str]:
    """Which of LAZY_LAYERS a fresh interpreter holds after ``import
    crnkit.cli`` and, if ``argv`` is given, ``main(argv)``."""
    script = "\n".join(
        [
            "import json, sys",
            "from crnkit.cli import main",
            f"argv = {list(argv)!r}",
            "code = main(argv) if argv else 0",
            f"print(json.dumps([m for m in {LAZY_LAYERS!r} if m in sys.modules]))",
            "raise SystemExit(code)",
        ]
    )
    src = str(Path(crnkit.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
        check=False,
    )
    assert result.returncode == 0, result.stderr
    return json.loads(result.stdout.splitlines()[-1])


def test_commands_import_only_the_layers_they_run():
    # counts modules, times nothing: analyze must not pay for the
    # concordance, decomposition or transform layers at a cold start
    assert lazy_layers_loaded() == []
    assert lazy_layers_loaded("analyze", "fixture:lee") == []
    toys = [str(HERE / "data" / name) for name in ("toy-a.crn", "toy-b.crn")]
    assert "crnkit.concord" in lazy_layers_loaded("compare", "m3cr", *toys)
