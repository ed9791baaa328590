"""Command-line reports over .crn files and the bundled model fixtures.

Output is deterministic: identical inputs and flags produce byte-identical
output, so the table renderings can be pinned by golden files.  Each command
builds one payload.  JSON mode wraps it in the same envelope (command, inputs,
payload); the text report is rendered from that payload and the input names.
Each command imports the layers it runs on first use, not at module level,
because a cold start compiles everything it imports.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import asdict, fields
from pathlib import Path

from . import fixtures
from .core import Network, common_reactions, parse_network
from .kinetics import parametrization_names
from .structure import (
    NetworkNumbers,
    deficiency_zero_report,
    kinetic_subspace_coincides,
    network_numbers,
    structural_flags,
)

PROFILE_FIELDS = ", ".join(field.name.replace("_", " ") for field in fields(NetworkNumbers))


class _Parser(argparse.ArgumentParser):
    """argparse, but usage errors exit 1 (2 is reserved for Unknown verdicts)."""

    def error(self, message: str) -> None:  # type: ignore[override]
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _load(source: str) -> Network:
    if source.startswith("fixture:"):
        return fixtures.load(source[len("fixture:") :])
    try:
        # utf-8-sig drops a leading byte-order mark, which some editors write
        return parse_network(Path(source).read_text(encoding="utf-8-sig"))
    except UnicodeDecodeError as exc:  # a ValueError too, so it comes first
        # the line of the bad byte, as a parse error gives it, not its offset
        line = exc.object.count(b"\n", 0, exc.start) + 1
        raise ValueError(
            f"{source}: {exc.encoding!r} codec can't decode byte"
            f" 0x{exc.object[exc.start]:02x} on line {line}: {exc.reason}"
        ) from None
    except ValueError as exc:  # a parse error, or a file with no reaction
        raise ValueError(f"{source}: {exc}") from None


def _budget(text: str) -> int:
    """A search-node budget, from ``--budget`` or ``CRNKIT_BUDGET``: at least 1."""
    try:
        budget = int(text)
    except ValueError:
        budget = 0  # reported like any other value below 1
    if budget < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, not {text!r}")
    return budget


def _resolve_budget(args: argparse.Namespace) -> int:
    from .concord import DEFAULT_NODE_BUDGET

    if args.budget is not None:
        return args.budget
    env = os.environ.get("CRNKIT_BUDGET")
    if env is not None:
        try:
            return _budget(env)
        except argparse.ArgumentTypeError:
            raise ValueError("CRNKIT_BUDGET must be a positive integer") from None
    return DEFAULT_NODE_BUDGET


def _emit(args: argparse.Namespace, payload: dict, text) -> None:
    if args.json:
        import json

        report = {"command": args.command, "inputs": args.inputs, "payload": payload}
        print(json.dumps(report, indent=2))
    else:
        print("\n".join(text(args, payload)))


def _aligned(pairs: list[tuple[str, object]], indent: str = "  ") -> list[str]:
    width = max(len(key) for key, _ in pairs)
    return [f"{indent}{key:<{width}}  {value}" for key, value in pairs]


def _yesno(flag: bool) -> str:
    return "yes" if flag else "no"


def _listed(title: str, items: list[str]) -> list[str]:
    return [f"{title} ({len(items)})"] + [f"  {text}" for text in items]


def _labels(net: Network) -> list[str]:
    return [rxn.label if rxn.label is not None else str(rxn) for rxn in net.reactions]


# --- analyze -----------------------------------------------------------------


def cmd_analyze(args: argparse.Namespace) -> int:
    net = _load(args.network)
    numbers = network_numbers(net)
    payload = {
        "networkNumbers": asdict(numbers),
        "structuralFlags": asdict(structural_flags(numbers)),
        "kineticSubspaceCoincides": kinetic_subspace_coincides(numbers),
        "deficiencyZero": asdict(deficiency_zero_report(numbers)),
    }
    _emit(args, payload, _analyze_text)
    return 0


def _analyze_text(args: argparse.Namespace, payload: dict) -> list[str]:
    lines = [f"network: {args.network}"]
    sections = (
        ("network numbers", payload["networkNumbers"], str),
        ("structural flags", payload["structuralFlags"], _yesno),
    )
    for title, section, show in sections:
        lines += ["", title]
        lines += _aligned([(key.replace("_", " "), show(value)) for key, value in section.items()])
    dz = payload["deficiencyZero"]
    lines += [
        "",
        "kinetic subspace coincides with stoichiometric subspace: "
        f"{payload['kineticSubspaceCoincides']}",
        f"deficiency-zero regime applies: {_yesno(dz['applies'])}"
        f" (weakly reversible: {_yesno(dz['weakly_reversible'])},"
        f" deficiency: {dz['deficiency']})",
    ]
    return lines


# --- fid ---------------------------------------------------------------------


def cmd_fid(args: argparse.Namespace) -> int:
    from .decomp import fid, is_independent

    decomposition = fid(_load(args.network))
    blocks = [(block, network_numbers(block)) for block in decomposition.block_networks()]
    payload = {
        "blockCount": len(blocks),
        "independent": is_independent(decomposition),
        "profileOrder": PROFILE_FIELDS,
        "blocks": [
            {"reactions": _labels(block), "numbers": asdict(numbers)}
            for block, numbers in blocks
        ],
    }
    _emit(args, payload, _fid_text)
    return 0


def _fid_text(args: argparse.Namespace, payload: dict) -> list[str]:
    independence = "confirmed" if payload["independent"] else "NOT CONFIRMED"
    lines = [
        f"finest independent decomposition: {args.network}",
        f"{payload['blockCount']} block(s), independence {independence}",
        f"profile order: ({payload['profileOrder']})",
    ]
    for i, block in enumerate(payload["blocks"], start=1):
        profile = tuple(block["numbers"].values())
        lines += ["", f"block {i}  profile {profile}", f"  {', '.join(block['reactions'])}"]
    return lines


# --- concordance ---------------------------------------------------------------


def cmd_concordance(args: argparse.Namespace) -> int:
    from .concord import check_concordance, verify_witness

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
    if witness is not None:
        payload["witness"] = {
            "alpha": {label: str(a) for label, a in zip(_labels(net), witness.alpha)},
            "sigma": {name: str(s) for name, s in zip(net.species, witness.sigma)},
            "verified": verify_witness(net, witness),
        }
    _emit(args, payload, _concordance_text)
    return 2 if verdict.status == "Unknown" else 0


def _concordance_text(args: argparse.Namespace, payload: dict) -> list[str]:
    lines = [
        f"network: {args.network}",
        f"verdict: {payload['verdict']}",
        f"nodes explored: {payload['searchNodes']} (budget {payload['nodeBudget']})",
    ]
    witness = payload["witness"]
    if witness is not None:
        alpha = [f"{label}={a}" for label, a in witness["alpha"].items() if a != "0"]
        sigma = [f"{name}={s}" for name, s in witness["sigma"].items() if s != "0"]
        verified = "verified" if witness["verified"] else "NOT VERIFIED"
        lines += [
            f"witness ({verified}; omitted entries are zero)",
            f"  alpha: {', '.join(alpha) if alpha else '(zero vector)'}",
            f"  sigma: {', '.join(sigma)}",
        ]
    return lines


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
        _emit(args, _csen_payload(net1, net2), _csen_text)
    elif args.mode == "core":
        _emit(args, _core_payload(net1, net2), _core_text)
    else:
        from .concord import UnverifiedMandatorySet

        try:
            payload = _m3cr_payload(args, net1, net2)
        except UnverifiedMandatorySet as exc:  # an Unknown verdict, not bad input
            print(f"crnkit: error: {exc}", file=sys.stderr)
            return 2
        _emit(args, payload, _m3cr_text)
        # maximality goes unverified only when a search ran out of budget
        if not all(payload[parent]["maximalityVerified"] for parent in ("parent1", "parent2")):
            return 2
    return 0


def _csen_payload(net1: Network, net2: Network) -> dict:
    from .transform import csen

    report = csen(net1, net2)
    return {
        "commonSpecies": list(report.common_species),
        "commonOriginal": _reaction_list(report.common_original),
        "embeddingDerived": _reaction_list(report.embedding_derived),
        "uniqueTo1": _reaction_list(report.unique1),
        "uniqueTo2": _reaction_list(report.unique2),
    }


def _csen_text(args: argparse.Namespace, payload: dict) -> list[str]:
    sections = [
        ("common reactions of the originals", payload["commonOriginal"]),
        ("common reactions derived by embedding", payload["embeddingDerived"]),
        (f"unique to {args.network1}", payload["uniqueTo1"]),
        (f"unique to {args.network2}", payload["uniqueTo2"]),
    ]
    species = payload["commonSpecies"]
    lines = [
        f"common-species embedded networks: {args.network1} vs {args.network2}",
        f"common species ({len(species)}): " + ", ".join(species),
    ]
    for title, reactions in sections:
        lines += ["", *_listed(title, reactions)]
        if not reactions:
            lines.append("  (none)")
    return lines


def _view_payload(view) -> dict:
    return {
        "containingBlocks": [sorted(block) for block in view.containing_blocks],
        "unionRank": view.union_rank,
        "coreRank": view.core_rank,
        "complementRank": view.complement_rank,
        "independentInsideUnion": view.independent_inside_union,
    }


def _core_payload(net1: Network, net2: Network) -> dict:
    from .transform import core as common_core

    report = common_core(net1, net2)
    return {
        "reactions": _reaction_list(report.core.reactions),
        "reversible": report.reversible,
        "deficiency": report.deficiency,
        "rank": report.rank,
        "parent1": _view_payload(report.parent1),
        "parent2": _view_payload(report.parent2),
    }


def _core_text(args: argparse.Namespace, payload: dict) -> list[str]:
    lines = [f"common-reactions core: {args.network1} vs {args.network2}"]
    lines += _listed("core reactions", payload["reactions"])
    lines.append(
        f"reversible: {_yesno(payload['reversible'])}, deficiency: {payload['deficiency']}, "
        f"rank: {payload['rank']}"
    )
    for name, view in ((args.network1, payload["parent1"]), (args.network2, payload["parent2"])):
        blocks = "; ".join(", ".join(block) for block in view["containingBlocks"])
        lines += [
            f"inside {name}",
            f"  FID blocks meeting the core: {blocks}",
            f"  union rank {view['unionRank']}, core rank {view['coreRank']}, "
            f"complement rank {view['complementRank']}, "
            f"independent inside union: {_yesno(view['independentInsideUnion'])}",
        ]
    return lines


def _container_payload(report) -> dict:
    return {
        "containerReactions": _labels(report.container),
        "discordanceSet": _reaction_list(report.discordance_set),
        "maximalityVerified": report.maximality_verified,
        "orderDependent": report.order_dependent,
        "searchNodes": report.search_nodes,
    }


def _m3cr_payload(args: argparse.Namespace, net1: Network, net2: Network) -> dict:
    from .concord import m3cr

    shared = common_reactions(net1, net2)
    if not shared:
        raise ValueError("networks have no common reactions")
    budget = _resolve_budget(args)
    return {
        "commonReactions": _reaction_list(shared),
        "parent1": _container_payload(m3cr(net1, shared, node_budget=budget)),
        "parent2": _container_payload(m3cr(net2, shared, node_budget=budget)),
    }


def _m3cr_text(args: argparse.Namespace, payload: dict) -> list[str]:
    lines = [
        f"maximal concordant containers of the common reactions: "
        f"{args.network1} vs {args.network2}",
    ]
    lines += _listed("common reactions", payload["commonReactions"])
    parents = (args.network1, payload["parent1"]), (args.network2, payload["parent2"])
    for name, report in parents:
        kept = len(report["containerReactions"])
        # each reaction outside the container is in the discordance set
        size = kept + len(report["discordanceSet"])
        lines.append(
            f"container inside {name}: keeps {kept} of {size} reactions"
            f" (maximality verified: {_yesno(report['maximalityVerified'])},"
            f" order dependent: {_yesno(report['orderDependent'])})"
        )
        if report["discordanceSet"]:
            lines.append("  discordance set")
            lines += [f"    {text}" for text in report["discordanceSet"]]
        else:
            lines.append("  discordance set: (empty)")
    return lines


# --- equilibria ----------------------------------------------------------------


def cmd_equilibria(args: argparse.Namespace) -> int:
    import random
    import statistics

    from .kinetics import _equilibrium, _rate_constants, _residual, acr_scan, free_parameters

    name = args.model
    free_names = free_parameters(name)
    if args.samples < 2:
        raise ValueError("--samples must be at least 2")
    net = fixtures.load(name)
    rng = random.Random(args.seed)
    residuals = []
    for _ in range(args.samples):
        k = {rxn.label: 10.0 ** rng.uniform(-1.0, 1.0) for rxn in net.reactions}
        free = {p: 10.0 ** rng.uniform(-2.0, 2.0) for p in free_names}
        # each draw's rate constants are checked once, for both the point and its residual
        constants = _rate_constants(net, k)
        residuals.append(_residual(net, constants, _equilibrium(name, net, constants, free)))
    scan_rates = {rxn.label: 10.0 ** rng.uniform(-1.0, 1.0) for rxn in net.reactions}
    scan = acr_scan(name, scan_rates, sample_count=args.samples, seed=args.seed)

    payload = {
        "model": name,
        "samples": args.samples,
        "seed": args.seed,
        "maxResidual": max(residuals),
        "medianResidual": statistics.median(residuals),
        "robustSpecies": sorted(s for s, row in scan.items() if row.constant),
        "scan": {species: asdict(row) for species, row in scan.items()},
    }
    _emit(args, payload, _equilibria_text)
    return 0


def _equilibria_text(args: argparse.Namespace, payload: dict) -> list[str]:
    lines = [
        f"model: {payload['model']}   samples: {payload['samples']}   seed: {payload['seed']}",
        f"max residual:    {payload['maxResidual']:.3e}",
        f"median residual: {payload['medianResidual']:.3e}",
        "robustness scan (constant iff relative spread < 1e-09)",
    ]
    for species, row in payload["scan"].items():
        if row["constant"]:
            lines.append(f"  {species:<4} constant  value {row['value']:.12g}")
        else:
            lines.append(f"  {species:<4} varying   spread {row['spread']:.3e}")
    robust = payload["robustSpecies"]
    lines.append(f"robust species: {', '.join(robust) if robust else 'none'}")
    return lines


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
    p.add_argument("--budget", type=_budget, default=None, help="search-node budget")

    p = add("compare", "two-network comparisons", cmd_compare)
    p.add_argument("mode", choices=("csen", "core", "m3cr"))
    p.add_argument("network1", help=".crn file or fixture:<name>")
    p.add_argument("network2", help=".crn file or fixture:<name>")
    p.add_argument("--budget", type=_budget, default=None, help="search-node budget (m3cr)")

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
        code = args.func(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader closed stdout, as `| head` does: leave quietly, with
        # stdout sent to devnull so that the flush at exit cannot fail again
        # (the recipe of the Python `signal` docs)
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except (ValueError, KeyError, OSError) as exc:
        if isinstance(exc, OSError) and exc.strerror:
            message = exc.strerror if exc.filename is None else f"{exc.strerror}: {exc.filename}"
        elif isinstance(exc, KeyError) and exc.args:
            message = exc.args[0]
        else:
            message = str(exc)
        print(f"crnkit: error: {message}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
