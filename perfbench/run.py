"""crnkit benchmark: time to an exact verdict or report, and its correctness.

Run from the root of a checkout:

    python3 perfbench/run.py --workload cli-reports --seed 1 --seconds 30 --trace 0

Workloads (see workloads.py):
  cli-reports  the golden-file CLI commands other than `concordance`, each a
               cold `python -m crnkit` child whose stdout must match its
               golden file byte for byte
  concordance-m3cr
               check_concordance on the acceptance cases (frozen verdicts)
               and the two schmitz variants, m3cr on small parents, one
               seeded reaction subset of each fixture per run, and, in a
               traced run, the longest cases once as reference ops

With --trace 0 the run is untraced and reports the end-to-end metrics. With
--trace 1 it alternates untraced and traced passes and reports per-layer
metrics from the traced ones, plus trace_overhead against the untraced ones.
Every op's output is checked after its pass, outside the timing; a failed
check, an Unknown verdict or an exception counts in `failed`. A readable
report comes first; the last line of stdout is one JSON object. Full reports
and spans are written under .perfbench-out/ in the checkout.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import resource
import statistics
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import hostinfo
import layers
import spans
import summary
import workloads

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench-out"
SETUP_BURST_S = 0.2
IMPORT_REPEATS = 5


@dataclass
class Record:
    op: str
    seconds: float
    error: str | None


@dataclass
class Pass:
    wall: float
    records: list[Record]


def run_pass(ops, tracer=None) -> Pass:
    """Run ``ops`` back to back, then check every output.

    The pass's wall time and each op's time stop before the checks. In a
    traced pass each op runs under an ``op`` root span and each check under
    a ``check`` root span, so that checker work is not counted as the
    program's.
    """

    def root_span(kind: str, op):
        return tracer.span(kind, op=op.name) if tracer else contextlib.nullcontext()

    outcomes = []
    start = time.perf_counter()
    for op in ops:
        t0 = time.perf_counter()
        result, error = None, None
        try:
            with root_span("op", op):
                result = op.run()
        except Exception as exc:  # an op that raises is a failed op, not a crash
            error = f"{type(exc).__name__}: {exc}"
        outcomes.append((op, time.perf_counter() - t0, result, error))
    wall = time.perf_counter() - start

    records = []
    for op, seconds, result, error in outcomes:
        if error is None:
            try:
                with root_span("check", op):
                    error = op.check(result)
            except Exception as exc:
                error = f"check raised {type(exc).__name__}: {exc}"
        records.append(Record(op.name, seconds, error))
    return Pass(wall, records)


def repeat(seconds: float, one_round) -> list:
    """Call ``one_round`` until the next call would end more than half a
    round after ``seconds``; at least once. Returns the rounds' results,
    each of which has a ``wall`` time."""
    rounds = []
    started = time.perf_counter()
    while True:
        rounds.append(one_round())
        typical = statistics.median(r.wall for r in rounds)
        if time.perf_counter() - started + typical / 2 >= seconds:
            return rounds


def import_seconds(root: Path) -> float:
    """Interpreter start plus ``import crnkit.cli``, minus a bare interpreter."""
    env = workloads.child_env(root)
    bare, full = [], []
    for _ in range(IMPORT_REPEATS):
        for argv, into in (("pass", bare), ("import crnkit.cli", full)):
            t0 = time.perf_counter()
            proc = workloads.run_child([sys.executable, "-c", argv], root, env)
            into.append(time.perf_counter() - t0)
            if proc.returncode != 0:
                raise RuntimeError(f"python -c {argv!r} exited {proc.returncode}")
    return statistics.median(full) - statistics.median(bare)


def untraced(setup, seed: int, seconds: float, rusage_who: int) -> tuple[dict, list[Pass], list[str]]:
    setup_times = []

    def set_up():
        """Set up afresh until SETUP_BURST_S have passed, at least once, and
        return the last workload built. A burst before every pass samples
        set-up time across the whole run, as the passes sample pass time."""
        started = time.perf_counter()
        while True:
            t0 = time.perf_counter()
            workload = setup(ROOT, seed)
            done = time.perf_counter()
            setup_times.append(done - t0)
            if done - started >= SETUP_BURST_S:
                return workload

    passes = repeat(seconds, lambda: run_pass(set_up().ops))
    samples = op_samples(passes)
    label, tail_value, count = summary.tail([t for times in samples.values() for t in times])
    metrics = {
        "setup_s": statistics.median(setup_times),
        "pass_s": statistics.median(p.wall for p in passes),
        # Ops differ in cost by 100x, so the median of all samples would fall
        # in a gap between two ops and jump across it from run to run; the
        # median op, each at its median time, does not.
        "op_p50_s": statistics.median(statistics.median(t) for t in samples.values()),
        "op_tail_s": tail_value,
        "peak_rss_mb": resource.getrusage(rusage_who).ru_maxrss / 1024,
    }
    notes = [
        f"{len(passes)} passes of {len(passes[0].records)} ops; pass_s is the median pass",
        f"setup_s is the median of {len(setup_times)} set-ups, made in bursts of at least "
        f"{SETUP_BURST_S} s before each pass",
        f"op_tail_s is {label} of {count} op samples: "
        + ("the highest percentile with at least 10 samples beyond it"
           if label != "max" else "too few samples for a percentile with 10 beyond it"),
    ]
    return metrics, passes, notes


@dataclass
class TracedPair:
    base: Pass
    traced: Pass
    spans: list

    @property
    def wall(self) -> float:
        return self.base.wall + self.traced.wall


def traced_pass(ops) -> tuple[Pass, list]:
    tracer = spans.Tracer()
    layers.install(tracer)
    try:
        result = run_pass(ops, tracer)
    finally:
        tracer.uninstall()
    return result, tracer.spans


def traced(workload, seconds: float, root: Path) -> tuple[dict, list[Pass], list[str], list]:
    import_s = import_seconds(root)

    def pair() -> TracedPair:
        base = run_pass(workload.traceable_ops)
        return TracedPair(base, *traced_pass(workload.traceable_ops))

    pairs = repeat(seconds, pair)
    layer_runs = [layers.layer_metrics(p.spans) for p in pairs]
    # median_low picks an observed value, so counts stay whole numbers
    metrics = {name: statistics.median_low(run[name] for run in layer_runs)
               for name in layer_runs[0]}
    metrics["cli.import_s"] = import_s
    base = statistics.median(p.base.wall for p in pairs)
    metrics["trace_overhead"] = statistics.median(p.traced.wall for p in pairs) / base
    metrics["trace_base_pass_s"] = base

    notes = [
        f"{len(pairs)} untraced and {len(pairs)} traced passes, alternating; "
        "each per-layer figure is its median over the traced passes",
        "trace_overhead = median traced pass / median untraced pass; "
        f"base trace_base_pass_s = {base:.4f} s "
        f"({'in-process cli.main calls' if workload.name == 'cli-reports' else 'the same ops'})",
        "counts (.calls, .solves, .nodes, lp_per_node, shares, mean_rows, mean_cols) are "
        "exact and repeat bit for bit on the same inputs: they are counts, not timings",
        "a layer this workload does not exercise reads 0",
    ]
    notes += count_lines("exact counts per op (first traced pass)", pairs[0].spans)
    all_spans = [p.spans for p in pairs]
    passes = [q for p in pairs for q in (p.base, p.traced)]
    if workload.reference_ops:
        reference, reference_spans = traced_pass(workload.reference_ops)
        passes.append(reference)
        all_spans.append(reference_spans)
        notes += count_lines("reference ops, traced once (not in the figures above)", reference_spans)
        notes += [f"  {r.op:<26} {r.seconds:.3f} s traced" for r in reference.records]
    return metrics, passes, notes, all_spans


def op_samples(passes: list[Pass]) -> dict[str, list[float]]:
    samples: dict[str, list[float]] = {}
    for p in passes:
        for r in p.records:
            samples.setdefault(r.op, []).append(r.seconds)
    return samples


def count_lines(title: str, recorded: list) -> list[str]:
    rows = [
        f"  {op:<26} nodes {row['nodes']:>6}  lp_solves {row['lp_solves']:>6}  "
        f"infeasible {row['lp_infeasible']:>6}  checks {row['checks']:>4}"
        for op, row in sorted(layers.op_counts(recorded).items())
        if row["checks"] or row["lp_solves"]
    ]
    return [f"{title}:", *rows] if rows else []


def with_units(values: dict[str, float], kind: str) -> dict:
    """``values`` in the order of the ``kind`` list of BENCHMARK.json, each
    with the unit given there."""
    listed = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))[kind]
    if set(values) != {m["name"] for m in listed}:
        raise RuntimeError(f"measured {sorted(values)}, but BENCHMARK.json lists "
                           f"{sorted(m['name'] for m in listed)} as {kind}")
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in listed}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "crnkit" / "__init__.py").is_file():
        print(f"perfbench: no crnkit sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    os.environ.pop("CRNKIT_BUDGET", None)
    sys.path.insert(0, str(ROOT / "src"))
    import crnkit.cli  # noqa: F401  (every module the tracer wraps)

    if args.workload not in workloads.SETUPS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {', '.join(workloads.SETUPS)}", file=sys.stderr)
        return 2

    host = hostinfo.host_record(ROOT)
    noise_start = hostinfo.noise_sample()
    setup = workloads.SETUPS[args.workload]
    # The first set-up is not timed: it fills the byte-code cache that
    # every later `python -m crnkit` child reads.
    workload = setup(ROOT, args.seed)

    sweep = run_pass(workload.sweep_ops)
    if args.trace:
        metrics, passes, notes, all_spans = traced(workload, args.seconds, ROOT)
        kind = "per_layer"
    else:
        metrics, passes, notes = untraced(setup, args.seed, args.seconds, workload.rusage_who)
        kind = "end_to_end"
        all_spans = None
    if sweep.records:
        passes.append(sweep)
        notes.append(
            f"seeded subsets, checked once outside the passes in {sweep.wall:.3f} s: "
            + ", ".join(f"{r.op} {r.seconds:.3f} s" for r in sweep.records)
        )
    noise = hostinfo.noise_between(noise_start, hostinfo.noise_sample())

    records = [r for p in passes for r in p.records]
    failures = [r for r in records if r.error]
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "host": host,
        "host_noise": noise,
        "scope": "only crnkit's own processes are measured; nothing else is traced "
                 "and no cache is dropped",
        "pass_walls_s": [p.wall for p in passes],
        "op_samples_s": op_samples(passes),
        "metrics": with_units(metrics, kind),
        "failed_ops": {"value": len(failures) / len(records), "unit": "share"},
        "attempted": len(records),
        "failures": [{"op": r.op, "error": r.error} for r in failures[:20]],
        "notes": workload.notes + notes,
    }
    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT_DIR / f"{stem}.json").write_text(json.dumps(report, indent=1), encoding="utf-8")
    if all_spans is not None:
        with open(OUT_DIR / f"{stem}-spans.jsonl", "w", encoding="utf-8") as handle:
            for number, recorded in enumerate(all_spans):
                for s in recorded:
                    handle.write(json.dumps({
                        "pass": number, "id": s.id, "parent": s.parent, "name": s.name,
                        "start": s.start, "end": s.end,
                        "attrs": {k: v for k, v in s.attrs.items() if k != "reactions"},
                    }) + "\n")

    print_report(report)
    print(json.dumps({
        "correct": not failures,
        "attempted": len(records),
        "failed": len(failures),
        "metrics": report["metrics"],
    }))
    return 0


def print_report(report: dict) -> None:
    host = report["host"]
    print(f"workload {report['workload']}  seed {report['seed']}  "
          f"seconds {report['seconds']}  trace {report['trace']}")
    print(f"host: nproc {host['nproc']}, {host['cpu_model']}, Python {host['python']}, "
          f"git {host['git_sha']}, src {host['src_digest']}")
    print(f"host noise: {report['host_noise']}")
    print(f"scope: {report['scope']}")
    for name, metric in report["metrics"].items():
        print(f"  {name:<34} {metric['value']:>14.6g} {metric['unit']}")
    failed = report["failed_ops"]
    print(f"  {'failed_ops':<34} {failed['value']:>14.6g} {failed['unit']} "
          f"(of {report['attempted']} ops)")
    for failure in report["failures"]:
        print(f"  FAILED {failure['op']}: {failure['error']}")
    for note in report["notes"]:
        print(f"  note: {note}")


if __name__ == "__main__":
    raise SystemExit(main())
