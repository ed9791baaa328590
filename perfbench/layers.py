"""Which crnkit functions the traced run wraps, and the per-layer metrics
derived from their spans.

Span names are ``<module>.<function>``. Counts (calls, solves, nodes) repeat
exactly from run to run on the same inputs; the ``_s`` and ``_ms`` figures
are timings. The metrics' names and units are listed in ``BENCHMARK.json``.

A traced pass records each op under an ``op`` root span and each output
check under a ``check`` root span. Only spans under ``op`` roots count as
the program's work; ``concord.verify_witness_s`` is the one figure taken
from the checks, as crnkit's own code never verifies a witness outside the
``concordance`` command, which no workload runs.
"""

from __future__ import annotations

import importlib

from spans import Span, Tracer, outermost, roots, self_times


def _lp(span: Span, args, kwargs, result) -> None:
    a_eq = args[0]
    span.attrs["rows"] = len(a_eq)
    span.attrs["cols"] = len(a_eq[0]) if a_eq else 0
    span.attrs["infeasible"] = result is None


def _check(span: Span, args, kwargs, result) -> None:
    span.attrs["nodes"] = result.search_nodes
    span.attrs["reactions"] = frozenset(r.arrow for r in args[0].reactions)


# (module, function, annotator). Linear algebra helpers are wrapped too, so
# that the self time of a structure or search span excludes them.
TARGETS = (
    ("linalg", "lp_feasible", _lp),
    ("linalg", "rref", None),
    ("linalg", "rank", None),
    ("linalg", "nullspace_basis", None),
    ("core", "parse_network", None),
    ("core", "build_matrices", None),
    ("core", "subnetwork", None),
    ("concord", "check_concordance", _check),
    ("concord", "verify_witness", None),
    ("concord", "m3cr", None),
    ("structure", "network_numbers", None),
    ("structure", "structural_flags", None),
    ("structure", "kinetic_subspace_coincides", None),
    ("structure", "deficiency_zero_report", None),
    ("structure", "linkage_partitions", None),
    ("decomp", "fid", None),
    ("transform", "csen", None),
    ("transform", "core", None),
    ("kinetics", "equilibrium_residual", None),
    ("kinetics", "acr_scan", None),
    ("cli", "main", None),
)


def install(tracer: Tracer) -> None:
    for module_name, attr, annotate in TARGETS:
        module = importlib.import_module(f"crnkit.{module_name}")
        tracer.wrap(module, attr, f"{module_name}.{attr}", annotate)


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """Per-layer metrics of one traced pass (cli.import_s is measured apart)."""
    own = self_times(spans)
    root = roots(spans)
    work = [s for s in spans if root[s.id].name == "op"]
    checks = [s for s in spans if root[s.id].name == "check"]

    def named(name: str) -> list[Span]:
        return [s for s in work if s.name == name]

    def inclusive(name: str, among: list[Span] = work) -> float:
        return sum(s.duration for s in outermost(among, name))

    def self_of(name: str) -> float:
        return sum(own[s.id] for s in named(name))

    lp = named("linalg.lp_feasible")
    searches = named("concord.check_concordance")
    solves = len(lp)
    nodes = sum(s.attrs["nodes"] for s in searches)
    return {
        "linalg.lp.solves": solves,
        "linalg.lp.infeasible_share": (
            sum(s.attrs["infeasible"] for s in lp) / solves if solves else 0.0
        ),
        "linalg.lp.per_solve_ms": self_of("linalg.lp_feasible") / solves * 1e3 if solves else 0.0,
        "linalg.lp.self_s": self_of("linalg.lp_feasible"),
        "linalg.lp.mean_rows": sum(s.attrs["rows"] for s in lp) / solves if solves else 0.0,
        "linalg.lp.mean_cols": sum(s.attrs["cols"] for s in lp) / solves if solves else 0.0,
        "linalg.rref.calls": len(named("linalg.rref")),
        "linalg.rref.self_s": self_of("linalg.rref"),
        "concord.search.nodes": nodes,
        "concord.lp_per_node": solves / nodes if nodes else 0.0,
        "concord.check.calls": len(searches),
        "concord.check.distinct_share": (
            len({s.attrs["reactions"] for s in searches}) / len(searches) if searches else 0.0
        ),
        "concord.search.self_s": self_of("concord.check_concordance"),
        "concord.verify_witness_s": inclusive("concord.verify_witness", checks),
        "core.parse_s": inclusive("core.parse_network"),
        "core.build_matrices.calls": len(named("core.build_matrices")),
        "core.subnetwork.calls": len(named("core.subnetwork")),
        "structure.network_numbers.calls": len(named("structure.network_numbers")),
        "structure.self_s": sum(own[s.id] for s in work if s.name.startswith("structure.")),
        "decomp.fid_s": inclusive("decomp.fid"),
        "transform.csen_s": inclusive("transform.csen"),
        "transform.core_s": inclusive("transform.core"),
        "kinetics.residual_s": inclusive("kinetics.equilibrium_residual"),
        "kinetics.acr_scan_s": inclusive("kinetics.acr_scan"),
        "cli.render_s": self_of("cli.main"),
    }


def op_counts(spans: list[Span]) -> dict[str, dict[str, int]]:
    """Exact per-op counts: search nodes, LP solves (infeasible), check calls."""
    root = roots(spans)
    out: dict[str, dict[str, int]] = {}
    for span in spans:
        top = root[span.id]
        if top.name != "op" or top is span:
            continue
        row = out.setdefault(
            top.attrs["op"], {"nodes": 0, "lp_solves": 0, "lp_infeasible": 0, "checks": 0}
        )
        if span.name == "concord.check_concordance":
            row["nodes"] += span.attrs["nodes"]
            row["checks"] += 1
        elif span.name == "linalg.lp_feasible":
            row["lp_solves"] += 1
            row["lp_infeasible"] += span.attrs["infeasible"]
    return out
