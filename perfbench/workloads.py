"""The benchmark's workloads: inputs built from a seed, and output checks.

Each workload is a closed loop with one client: its operations run back to
back, one at a time, and every result is checked after the pass, outside
its timing. The seed fixes the order of operations in a pass and, for
``concordance-m3cr``, the random reaction subsets. The same seed always
gives the same inputs.
"""

from __future__ import annotations

import ast
import contextlib
import io
import os
import random
import resource
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

# A check returns None when the output is right, else the reason it is not.
Check = Callable[[object], "str | None"]

OP_TIMEOUT_S = 120


@dataclass
class Op:
    name: str
    run: Callable[[], object]
    check: Check


@dataclass
class Workload:
    """What one run executes.

    ``ops`` make up a timed pass, repeated until the run's time is up.
    ``reference_ops`` are too long to repeat; a traced run makes each once.
    ``sweep_ops`` are checked once per run, outside the passes.
    """

    name: str
    ops: list[Op]
    # ops whose library calls the tracer can see: the same as ``ops`` for the
    # in-process workloads, in-process ``cli.main`` calls for cli-reports
    traceable_ops: list[Op]
    # whose peak resident size is reported
    rusage_who: int
    notes: list[str]
    # run once, traced, in a traced run: their exact counts are reported
    reference_ops: list[Op] = field(default_factory=list)
    sweep_ops: list[Op] = field(default_factory=list)


def golden_runs(root: Path) -> dict[str, tuple[str, ...]]:
    """``GOLDEN_RUNS`` read from ``tests/test_cli.py`` without importing it."""
    tree = ast.parse((root / "tests" / "test_cli.py").read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "GOLDEN_RUNS" for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise LookupError("GOLDEN_RUNS not found in tests/test_cli.py")


def child_env(root: Path) -> dict[str, str]:
    env = {k: v for k, v in os.environ.items() if k != "CRNKIT_BUDGET"}
    src = str(root / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_child(argv: list[str], cwd: Path, env: dict[str, str]) -> subprocess.CompletedProcess:
    """One child at a time; ``subprocess.run`` waits for it to end."""
    return subprocess.run(
        argv, cwd=cwd, env=env, capture_output=True, timeout=OP_TIMEOUT_S, check=False
    )


# --- cli-reports ---------------------------------------------------------------


def setup_cli_reports(root: Path, seed: int) -> Workload:
    import crnkit.cli as cli

    tests = root / "tests"
    env = child_env(root)
    runs = {
        name: argv for name, argv in golden_runs(root).items() if argv[0] != "concordance"
    }
    order = sorted(runs)
    random.Random(seed).shuffle(order)
    # Start the CLI once so byte-compiled modules exist before timing.
    warm = run_child([sys.executable, "-m", "crnkit", "--help"], tests, env)
    if warm.returncode != 0:
        raise RuntimeError(f"python -m crnkit --help exited {warm.returncode}")

    ops, traceable = [], []
    for name in order:
        argv = runs[name]
        golden = (tests / "golden" / name).read_bytes()

        # Both kinds of op return (exit code, stdout bytes, stderr).
        def cold(argv=argv):
            proc = run_child([sys.executable, "-m", "crnkit", *argv], tests, env)
            return proc.returncode, proc.stdout, proc.stderr

        def in_process(argv=argv):
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), _cwd(tests):
                code = cli.main(list(argv))
            return code, out.getvalue().encode("utf-8"), err.getvalue()

        def check(result, golden=golden):
            code, out, err = result
            if code != 0:
                return f"exit code {code}"
            if err:
                return "stderr not empty"
            if out != golden:
                return "stdout differs from the golden file"
            return None

        ops.append(Op(name, cold, check))
        traceable.append(Op(name, in_process, check))
    notes = [
        "ops are cold `python -m crnkit` children, one at a time; "
        "peak_rss_mb is the largest child",
        "traced passes call cli.main in-process, so their overhead base is an "
        "untraced in-process pass, not the cold pass_s",
    ]
    return Workload("cli-reports", ops, traceable, resource.RUSAGE_CHILDREN, notes)


@contextlib.contextmanager
def _cwd(path: Path):
    before = os.getcwd()
    os.chdir(path)
    try:
        yield
    finally:
        os.chdir(before)


# --- concordance-m3cr -----------------------------------------------------------


def _concordance_check(net, expected: str | None) -> Check:
    from crnkit import concord

    def check(verdict):
        if verdict.status == "Unknown":
            return "Unknown verdict"
        if expected is not None and verdict.status != expected:
            return f"{verdict.status}, expected {expected}"
        if verdict.status == "Discordant":
            if not concord.verify_witness(net, verdict.witness):
                return "witness does not verify"
        elif verdict.witness is not None:
            return "Concordant verdict carries a witness"
        return None

    return check


def fixed_concordance_cases(fixtures) -> list[tuple[str, object, str]]:
    """The acceptance suite's cases with their frozen verdicts, plus the two
    schmitz variants with the verdicts they had at the seed commit."""
    from crnkit.core import Network, common_reactions, subnetwork_by_labels

    lee, fal, schmitz, maclean, augmented, reduced = (
        fixtures[n]
        for n in ("lee", "fal", "schmitz", "maclean", "schmitz-augmented", "schmitz-reduced")
    )

    def without(net, *drop):
        return subnetwork_by_labels(net, [r.label for r in net.reactions if r.label not in drop])

    return [
        ("lee", lee, "Discordant"),
        ("schmitz", schmitz, "Discordant"),
        ("fal", fal, "Discordant"),
        ("maclean", maclean, "Discordant"),
        ("augmented-maclean-shared", Network(common_reactions(augmented, maclean)), "Concordant"),
        ("schmitz-maclean-shared", Network(common_reactions(schmitz, maclean)), "Discordant"),
        ("fal-maclean-shared", Network(common_reactions(fal, maclean)), "Concordant"),
        ("fal-less-R51-R52", without(fal, "R51", "R52"), "Concordant"),
        ("augmented-less-R10-R11", without(augmented, "R10", "R11"), "Concordant"),
        ("maclean-less-R36-R37", without(maclean, "R36", "R37"), "Concordant"),
        ("schmitz-augmented", augmented, "Discordant"),
        ("schmitz-reduced", reduced, "Discordant"),
    ]


def random_subsets(fixtures, rng: random.Random) -> list[tuple[str, object]]:
    """One subset per fixture, dropping 1 to 3 reactions chosen by ``rng``.

    A subset costs from milliseconds to 10 s depending on which reactions
    go, so these are checked once per run, outside the timed passes: inside
    them they would move the timings between seeds by more than any bound.
    """
    from crnkit.core import subnetwork

    draws = []
    for name, net in fixtures.items():
        drop = set(rng.sample(range(len(net.reactions)), rng.randint(1, 3)))
        labels = [r.label for i, r in enumerate(net.reactions) if i in drop]
        keep = [i for i in range(len(net.reactions)) if i not in drop]
        draws.append((f"{name}-less-{'-'.join(labels)}", subnetwork(net, keep)))
    return draws


def load_fixtures(names) -> dict:
    from crnkit import fixtures

    return {name: fixtures.load(name) for name in names}


def _concordance_op(name: str, net, expected: str | None) -> Op:
    from crnkit import concord

    return Op(name, lambda: concord.check_concordance(net), _concordance_check(net, expected))


# --- m3cr -----------------------------------------------------------------------

# (op, parent, mandatory set: the reactions shared with this network or
# file, discordance set, order_dependent). augmented and fal are frozen in
# the acceptance suite, the toys in the m3cr golden file; lee and
# schmitz-reduced were recorded at the seed commit.
M3CR_CASES = (
    ("m3cr-toy-a-vs-toy-b", "toy-a", "toy-b", [], False),
    ("m3cr-toy-b-vs-toy-a", "toy-b", "toy-a", ["R3"], False),
    ("m3cr-reduced-vs-maclean", "schmitz-reduced", "maclean", ["R10", "R11"], False),
    ("m3cr-augmented-vs-maclean", "schmitz-augmented", "maclean", ["R10", "R11"], False),
    ("m3cr-lee-vs-fal", "lee", "fal", ["R41"], False),
    ("m3cr-fal-vs-maclean", "fal", "maclean", ["R55"], True),
)
# The timings are medians over the passes of a run. On a shared 2-vCPU Xeon
# VM the speed shifts by up to a third for seconds at a time, so a pass must
# be short enough to repeat many times in one run. It must also repeat well
# over 10 times: op_tail_s is the highest percentile with 10 samples beyond
# it, and with about 10 passes that percentile falls between the slowest op
# (one sample per pass) and the next, and jumps from one to the other from
# run to run. The pass is therefore kept near 2.7 s, and the longer calls
# are reference ops, which a traced run makes once and reports with exact
# counts: lee (0.9 s), fal-less-R51-R52 (0.9 s), maclean (2.3 s),
# maclean-less-R36-R37 (10 s; 869 nodes and 2,714 LP solves at the seed
# commit) and m3cr on augmented (1.9 s), lee (3.2 s) and fal (11 s; 1,715
# nodes).
REFERENCE = (
    "lee",
    "fal-less-R51-R52",
    "maclean",
    "maclean-less-R36-R37",
    "m3cr-augmented-vs-maclean",
    "m3cr-lee-vs-fal",
    "m3cr-fal-vs-maclean",
)


def _m3cr_op(networks, name, parent, other, discordance, order_dependent) -> Op:
    from crnkit import concord
    from crnkit.core import common_reactions

    net = networks[parent]
    shared = common_reactions(net, networks[other])

    def check(report):
        got = sorted(r.label for r in report.discordance_set)
        if got != sorted(discordance):
            return f"discordance set {got}, expected {sorted(discordance)}"
        if report.order_dependent != order_dependent:
            return f"order_dependent is {report.order_dependent}"
        if not report.maximality_verified:
            return "maximality not verified"
        kept = {r.label for r in report.container.reactions}
        if kept != {r.label for r in net.reactions} - set(discordance):
            return "container is not the parent minus the discordance set"
        return None

    return Op(name, lambda: concord.m3cr(net, shared), check)


def setup_concordance_m3cr(root: Path, seed: int) -> Workload:
    """check_concordance on the acceptance cases and the two schmitz
    variants, and m3cr on the toys and schmitz-reduced, in a seeded order;
    one seeded subset of each fixture is checked per run."""
    from crnkit import fixtures as bundled
    from crnkit.core import parse_network

    rng = random.Random(seed)
    networks = load_fixtures(bundled.NAMES)
    ops = [_concordance_op(*case) for case in fixed_concordance_cases(networks)]
    sweep = [_concordance_op(name, net, None) for name, net in random_subsets(networks, rng)]
    for toy in ("toy-a", "toy-b"):
        text = (root / "tests" / "data" / f"{toy}.crn").read_text(encoding="utf-8")
        networks[toy] = parse_network(text)
    ops += [_m3cr_op(networks, *case) for case in M3CR_CASES]
    rng.shuffle(ops)
    timed = [op for op in ops if op.name not in REFERENCE]
    return Workload(
        "concordance-m3cr",
        timed,
        timed,
        resource.RUSAGE_SELF,
        [f"seeded subsets: {', '.join(op.name for op in sweep)}"],
        reference_ops=[op for op in ops if op.name in REFERENCE],
        sweep_ops=sweep,
    )


SETUPS = {
    "cli-reports": setup_cli_reports,
    "concordance-m3cr": setup_concordance_m3cr,
}
