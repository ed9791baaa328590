"""Command-line reports over .crn files and the bundled model fixtures.

Output is deterministic: identical inputs and flags produce byte-identical
output, so the table renderings can be pinned by golden files.  JSON mode
wraps every result in the same envelope (command, inputs, payload).
"""

from __future__ import annotations

import argparse
import json
import os
import random
import statistics
import sys
from dataclasses import asdict
from pathlib import Path

from . import fixtures
from .concord import (
    DEFAULT_NODE_BUDGET,
    check_concordance,
    m3cr,
    verify_witness,
)
from .core import Network, common_reactions, parse_network
from .decomp import fid
from .kinetics import (
    acr_scan,
    equilibrium_residual,
    free_parameters,
    parametrization,
    parametrization_names,
)
from .structure import (
    _deficiency_zero_of,
    _flags_of,
    _kinetic_subspace_of,
    network_numbers,
)
from .transform import core as common_core
from .transform import csen

PROFILE_FIELDS = (
    "species, complexes, reactant complexes, reversible pairs, irreversible, "
    "reactions, linkage classes, strong classes, terminal classes, rank, "
    "reactant rank, deficiency, reactant deficiency"
)


class _Parser(argparse.ArgumentParser):
    """argparse, but usage errors exit 1 (2 is reserved for Unknown verdicts)."""

    def error(self, message: str) -> None:  # type: ignore[override]
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _load(source: str) -> Network:
    if source.startswith("fixture:"):
        return fixtures.load(source[len("fixture:") :])
    return parse_network(Path(source).read_text(encoding="utf-8"))


def _resolve_budget(args: argparse.Namespace) -> int:
    if args.budget is not None:
        if args.budget < 1:
            raise ValueError("--budget must be a positive integer")
        return args.budget
    env = os.environ.get("CRNKIT_BUDGET")
    if env is not None:
        try:
            budget = int(env)
        except ValueError:
            budget = 0  # reported like any other value below 1
        if budget < 1:
            raise ValueError("CRNKIT_BUDGET must be a positive integer")
        return budget
    return DEFAULT_NODE_BUDGET


def _emit(args: argparse.Namespace, payload: dict, table_lines: list[str]) -> None:
    if args.json:
        report = {"command": args.command, "inputs": args.inputs, "payload": payload}
        print(json.dumps(report, indent=2))
    else:
        print("\n".join(table_lines))


def _aligned(pairs: list[tuple[str, object]], indent: str = "  ") -> list[str]:
    width = max(len(key) for key, _ in pairs)
    return [f"{indent}{key:<{width}}  {value}" for key, value in pairs]


def _yesno(flag: bool) -> str:
    return "yes" if flag else "no"


def _labels(net: Network) -> list[str]:
    return [rxn.label if rxn.label is not None else str(rxn) for rxn in net.reactions]


# --- analyze -----------------------------------------------------------------


def cmd_analyze(args: argparse.Namespace) -> int:
    net = _load(args.network)
    numbers = network_numbers(net)
    flags = _flags_of(numbers)
    kinetic = _kinetic_subspace_of(numbers)
    dz = _deficiency_zero_of(numbers)

    payload = {
        "networkNumbers": asdict(numbers),
        "structuralFlags": asdict(flags),
        "kineticSubspaceCoincides": kinetic,
        "deficiencyZero": asdict(dz),
    }
    lines = [f"network: {args.network}", "", "network numbers"]
    lines += _aligned([(key.replace("_", " "), value) for key, value in asdict(numbers).items()])
    lines += ["", "structural flags"]
    lines += _aligned(
        [(key.replace("_", " "), _yesno(value)) for key, value in asdict(flags).items()]
    )
    lines += [
        "",
        f"kinetic subspace coincides with stoichiometric subspace: {kinetic}",
        f"deficiency-zero regime applies: {_yesno(dz.applies)}"
        f" (weakly reversible: {_yesno(dz.weakly_reversible)}, deficiency: {dz.deficiency})",
    ]
    _emit(args, payload, lines)
    return 0


# --- fid ---------------------------------------------------------------------


def cmd_fid(args: argparse.Namespace) -> int:
    net = _load(args.network)
    decomposition = fid(net)
    blocks = decomposition.block_networks()
    numbers = [network_numbers(block) for block in blocks]
    payload = {
        "blockCount": len(blocks),
        "independent": True,
        "profileOrder": PROFILE_FIELDS,
        "blocks": [
            {"reactions": _labels(block), "numbers": asdict(block_numbers)}
            for block, block_numbers in zip(blocks, numbers)
        ],
    }
    lines = [
        f"finest independent decomposition: {args.network}",
        f"{len(blocks)} block(s), independence confirmed",
        f"profile order: ({PROFILE_FIELDS})",
    ]
    for i, (block, block_numbers) in enumerate(zip(blocks, numbers), start=1):
        profile = block_numbers.as_tuple()
        lines += ["", f"block {i}  profile {profile}", f"  {', '.join(_labels(block))}"]
    _emit(args, payload, lines)
    return 0


# --- concordance ---------------------------------------------------------------


def _witness_payload(net: Network, witness, verified: bool) -> dict:
    return {
        "alpha": {label: str(a) for label, a in zip(_labels(net), witness.alpha)},
        "sigma": {name: str(s) for name, s in zip(net.species, witness.sigma)},
        "verified": verified,
    }


def _witness_lines(net: Network, witness, verified: bool) -> list[str]:
    alpha = [
        f"{label}={a}" for label, a in zip(_labels(net), witness.alpha) if a != 0
    ]
    sigma = [f"{name}={s}" for name, s in zip(net.species, witness.sigma) if s != 0]
    return [
        f"witness ({'verified' if verified else 'NOT VERIFIED'}; omitted entries are zero)",
        f"  alpha: {', '.join(alpha) if alpha else '(zero vector)'}",
        f"  sigma: {', '.join(sigma)}",
    ]


def cmd_concordance(args: argparse.Namespace) -> int:
    net = _load(args.network)
    budget = _resolve_budget(args)
    verdict = check_concordance(net, node_budget=budget)
    witness = verdict.witness
    payload = {
        "verdict": verdict.status,
        "searchNodes": verdict.search_nodes,
        "nodeBudget": budget,
        "witness": None,
    }
    lines = [
        f"network: {args.network}",
        f"verdict: {verdict.status}",
        f"nodes explored: {verdict.search_nodes} (budget {budget})",
    ]
    if witness is not None:
        verified = verify_witness(net, witness)
        payload["witness"] = _witness_payload(net, witness, verified)
        lines += _witness_lines(net, witness, verified)
    _emit(args, payload, lines)
    return 2 if verdict.status == "Unknown" else 0


# --- compare -------------------------------------------------------------------


def _reaction_list(reactions) -> list[str]:
    out = []
    for rxn in reactions:
        text = f"{rxn.reactant} -> {rxn.product}"
        out.append(f"{rxn.label}: {text}" if rxn.label is not None else text)
    return out


def cmd_compare(args: argparse.Namespace) -> int:
    net1, net2 = _load(args.network1), _load(args.network2)
    if args.mode == "csen":
        return _compare_csen(args, net1, net2)
    if args.mode == "core":
        return _compare_core(args, net1, net2)
    return _compare_m3cr(args, net1, net2)


def _compare_csen(args: argparse.Namespace, net1: Network, net2: Network) -> int:
    report = csen(net1, net2)
    payload = {
        "commonSpecies": list(report.common_species),
        "commonOriginal": _reaction_list(report.common_original),
        "embeddingDerived": _reaction_list(report.embedding_derived),
        "uniqueTo1": _reaction_list(report.unique1),
        "uniqueTo2": _reaction_list(report.unique2),
    }
    sections = [
        ("common reactions of the originals", report.common_original),
        ("common reactions derived by embedding", report.embedding_derived),
        (f"unique to {args.network1}", report.unique1),
        (f"unique to {args.network2}", report.unique2),
    ]
    lines = [
        f"common-species embedded networks: {args.network1} vs {args.network2}",
        f"common species ({len(report.common_species)}): "
        + ", ".join(report.common_species),
    ]
    for title, reactions in sections:
        lines += ["", f"{title} ({len(reactions)})"]
        if reactions:
            lines += [f"  {text}" for text in _reaction_list(reactions)]
        else:
            lines.append("  (none)")
    _emit(args, payload, lines)
    return 0


def _view_payload(view) -> dict:
    return {
        "containingBlocks": [sorted(block) for block in view.containing_blocks],
        "unionRank": view.union_rank,
        "coreRank": view.core_rank,
        "complementRank": view.complement_rank,
        "independentInsideUnion": view.independent_inside_union,
    }


def _view_lines(name: str, view) -> list[str]:
    blocks = "; ".join(", ".join(sorted(block)) for block in view.containing_blocks)
    return [
        f"inside {name}",
        f"  FID blocks meeting the core: {blocks}",
        f"  union rank {view.union_rank}, core rank {view.core_rank}, "
        f"complement rank {view.complement_rank}, "
        f"independent inside union: {_yesno(view.independent_inside_union)}",
    ]


def _compare_core(args: argparse.Namespace, net1: Network, net2: Network) -> int:
    report = common_core(net1, net2)
    payload = {
        "reactions": _reaction_list(report.core.reactions),
        "reversible": report.reversible,
        "deficiency": report.deficiency,
        "rank": report.rank,
        "parent1": _view_payload(report.parent1),
        "parent2": _view_payload(report.parent2),
    }
    lines = [
        f"common-reactions core: {args.network1} vs {args.network2}",
        f"core reactions ({len(report.core.reactions)})",
    ]
    lines += [f"  {text}" for text in _reaction_list(report.core.reactions)]
    lines += [
        f"reversible: {_yesno(report.reversible)}, deficiency: {report.deficiency}, "
        f"rank: {report.rank}",
    ]
    lines += _view_lines(args.network1, report.parent1)
    lines += _view_lines(args.network2, report.parent2)
    _emit(args, payload, lines)
    return 0


def _m3cr_payload(report) -> dict:
    return {
        "containerReactions": _labels(report.container),
        "discordanceSet": _reaction_list(report.discordance_set),
        "maximalityVerified": report.maximality_verified,
        "orderDependent": report.order_dependent,
        "searchNodes": report.search_nodes,
    }


def _m3cr_lines(name: str, parent: Network, report) -> list[str]:
    kept = len(report.container.reactions)
    lines = [
        f"container inside {name}: keeps {kept} of {len(parent.reactions)} reactions"
        f" (maximality verified: {_yesno(report.maximality_verified)},"
        f" order dependent: {_yesno(report.order_dependent)})",
    ]
    if report.discordance_set:
        lines.append("  discordance set")
        lines += [f"    {text}" for text in _reaction_list(report.discordance_set)]
    else:
        lines.append("  discordance set: (empty)")
    return lines


def _compare_m3cr(args: argparse.Namespace, net1: Network, net2: Network) -> int:
    shared = common_reactions(net1, net2)
    if not shared:
        raise ValueError("networks have no common reactions")
    budget = _resolve_budget(args)
    report1 = m3cr(net1, shared, node_budget=budget)
    report2 = m3cr(net2, shared, node_budget=budget)
    payload = {
        "commonReactions": _reaction_list(shared),
        "parent1": _m3cr_payload(report1),
        "parent2": _m3cr_payload(report2),
    }
    lines = [
        f"maximal concordant containers of the common reactions: "
        f"{args.network1} vs {args.network2}",
        f"common reactions ({len(shared)})",
    ]
    lines += [f"  {text}" for text in _reaction_list(shared)]
    lines += _m3cr_lines(args.network1, net1, report1)
    lines += _m3cr_lines(args.network2, net2, report2)
    _emit(args, payload, lines)
    return 0


# --- equilibria ----------------------------------------------------------------


def cmd_equilibria(args: argparse.Namespace) -> int:
    name = args.model
    if name not in parametrization_names():
        raise ValueError(
            f"no equilibrium parametrization for {name!r};"
            f" choose one of {', '.join(parametrization_names())}"
        )
    if args.samples < 2:
        raise ValueError("--samples must be at least 2")
    net = fixtures.load(name)
    rng = random.Random(args.seed)
    residuals = []
    for _ in range(args.samples):
        k = {rxn.label: 10.0 ** rng.uniform(-1.0, 1.0) for rxn in net.reactions}
        free = {p: 10.0 ** rng.uniform(-2.0, 2.0) for p in free_parameters(name)}
        residuals.append(equilibrium_residual(net, k, parametrization(name, k, free)))
    scan_rates = {rxn.label: 10.0 ** rng.uniform(-1.0, 1.0) for rxn in net.reactions}
    scan = acr_scan(name, scan_rates, sample_count=args.samples, seed=args.seed)

    payload = {
        "model": name,
        "samples": args.samples,
        "seed": args.seed,
        "maxResidual": max(residuals),
        "medianResidual": statistics.median(residuals),
        "robustSpecies": sorted(s for s, row in scan.items() if row.constant),
        "scan": {
            species: {
                "constant": row.constant,
                "spread": row.spread,
                "value": row.value,
            }
            for species, row in scan.items()
        },
    }
    lines = [
        f"model: {name}   samples: {args.samples}   seed: {args.seed}",
        f"max residual:    {max(residuals):.3e}",
        f"median residual: {statistics.median(residuals):.3e}",
        "robustness scan (constant iff relative spread < 1e-09)",
    ]
    for species, row in scan.items():
        if row.constant:
            lines.append(f"  {species:<4} constant  value {row.value:.12g}")
        else:
            lines.append(f"  {species:<4} varying   spread {row.spread:.3e}")
    robust = sorted(s for s, row in scan.items() if row.constant)
    lines.append(f"robust species: {', '.join(robust) if robust else 'none'}")
    _emit(args, payload, lines)
    return 0


# --- wiring ----------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="crnkit",
        description="Structural and kinetic reports for reaction networks"
        " (.crn files or fixture:<name>).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name: str, help_text: str, func) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--json", action="store_true", help="emit a JSON report")
        p.set_defaults(func=func)
        return p

    p = add("analyze", "network numbers, flags, and regime checks", cmd_analyze)
    p.add_argument("network", help=".crn file or fixture:<name>")

    p = add("fid", "finest independent decomposition", cmd_fid)
    p.add_argument("network", help=".crn file or fixture:<name>")

    p = add("concordance", "concordance verdict with witness", cmd_concordance)
    p.add_argument("network", help=".crn file or fixture:<name>")
    p.add_argument("--budget", type=int, default=None, help="search-node budget")

    p = add("compare", "two-network comparisons", cmd_compare)
    p.add_argument("mode", choices=("csen", "core", "m3cr"))
    p.add_argument("network1", help=".crn file or fixture:<name>")
    p.add_argument("network2", help=".crn file or fixture:<name>")
    p.add_argument("--budget", type=int, default=None, help="search-node budget (m3cr)")

    p = add("equilibria", "equilibrium residuals and robustness scan", cmd_equilibria)
    p.add_argument("model", help=f"one of: {', '.join(parametrization_names())}")
    p.add_argument("--samples", type=int, default=100, help="number of random draws")
    p.add_argument("--seed", type=int, default=0, help="random seed")

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if hasattr(args, "network"):
        args.inputs = [args.network]
    elif hasattr(args, "network1"):
        args.inputs = [args.network1, args.network2]
    else:
        args.inputs = [args.model]
    try:
        return args.func(args)
    except (ValueError, KeyError, OSError) as exc:
        if isinstance(exc, OSError) and exc.strerror:
            message = f"{exc.strerror}: {exc.filename}"
        elif isinstance(exc, KeyError) and exc.args:
            message = exc.args[0]
        else:
            message = str(exc)
        print(f"crnkit: error: {message}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
