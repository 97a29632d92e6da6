"""End-to-end benchmark of the repro system: six workloads, end-to-end
metrics with spread, and a traced per-layer breakdown.

Run from the repository root (the script finds ``src/`` itself)::

    python3 benchmarks/e2e/run.py                           # all workloads
    python3 benchmarks/e2e/run.py --workload campaign --seed 3
    python3 benchmarks/e2e/run.py --repeat 5 --out base.json
    python3 benchmarks/e2e/run.py --repeat 5 --compare base.json
    python3 benchmarks/e2e/run.py --trace --out traced.json
    python3 benchmarks/e2e/run.py --scale smoke --trace     # ~15 s check

Each workload run is several fresh child processes (``workloads.py``),
so process-global memos never carry over between runs; ``setup_s`` is
the median of the children's spawn-to-ready times.  ``--trace`` adds one
traced child per workload whose ``repro.obs`` spans, opened by the
benchmark around public calls, give each layer's share of the traced
wall.  Metric names, units, directions and regression bounds come from
``BENCHMARK.json`` at the repository root; README.md is the glossary.

The last stdout line is one JSON object ``{"correct", "attempted",
"failed", "metrics"}``: end-to-end metrics without ``--trace``, per-layer
metrics with it.  The exit status is 1 when any output check failed.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence

from shared import READY, percentile, quartiles

HERE = Path(__file__).resolve().parent
REPO = HERE.parent.parent
BENCHMARK = REPO / "BENCHMARK.json"
CHILD = HERE / "workloads.py"
CHILD_TIMEOUT_S = 150.0


class ChildFailed(RuntimeError):
    """A workload process crashed, timed out or printed no result."""


def children_per_run(workload: str, seconds: float, scale: str) -> int:
    if scale == "smoke":
        return 1
    if workload == "workload-mt":
        return max(3, round(seconds / 2))
    return 3


def _kill_group(proc: subprocess.Popen) -> None:
    """Stop the child's process group (the advise-hot server included);
    a group that has already exited is fine."""
    with contextlib.suppress(ProcessLookupError):
        os.killpg(proc.pid, signal.SIGKILL)


def spawn(workload: str, seed: int, seconds: float, scale: str,
          mode: str, index: int, children: int) -> Dict[str, Any]:
    """Run one workload process; its result plus ``setup_s``."""
    command = [
        sys.executable, str(CHILD), "--workload", workload,
        "--seed", str(seed), "--seconds", repr(seconds), "--scale", scale,
        "--mode", mode, "--index", str(index), "--children", str(children),
    ]
    started = time.perf_counter()
    proc = subprocess.Popen(command, cwd=REPO, stdout=subprocess.PIPE,
                            stdin=subprocess.DEVNULL, text=True,
                            start_new_session=True)
    watchdog = threading.Timer(CHILD_TIMEOUT_S, _kill_group, (proc,))
    watchdog.start()
    setup_s: Optional[float] = None
    last = ""
    try:
        for line in proc.stdout:
            if setup_s is None and line.strip() == READY:
                setup_s = time.perf_counter() - started
            elif line.strip():
                last = line
        code = proc.wait()
    finally:
        watchdog.cancel()
        proc.stdout.close()
        _kill_group(proc)
        proc.wait()
    if code != 0 or setup_s is None:
        raise ChildFailed(f"{workload} child {index} ({mode}) exited "
                          f"with {code}")
    try:
        result = json.loads(last)
    except ValueError:
        raise ChildFailed(f"{workload} child {index} printed no result: "
                          f"{last!r}") from None
    result.update(setup_s=setup_s, index=index)
    return result


# ----------------------------------------------------------------------
# metrics
# ----------------------------------------------------------------------
def end_to_end(workload: str, children: Sequence[Dict[str, Any]]
               ) -> Dict[str, Dict[str, float]]:
    """The gated end-to-end metrics of one run, with sample counts.

    Operation times are summarized by their 10th percentile: on a shared
    machine, other tenants' bursts inflate whole stretches of a run, so
    the median swings with how much of the run a burst covered while
    the faster operations keep measuring the program.
    """
    ops = [ms for c in children for ms in c["ops_ms"]]
    p10 = percentile(ops, 0.10)
    if workload == "advise-hot":
        ladder = children[-1]["ladder"]
        passed = [step for step in ladder if step["passed"]]
        if passed:
            rate = passed[-1]["completion_rate"]
        else:
            # the reference step's achieved rate (it met the limit, or
            # the latencies show by how much it did not)
            rate = percentile([c["reference"]["completion_rate"]
                               for c in children], 0.5)
        work = (rate, 1 + len(ladder))
    else:
        per_op = sum(c["work"] for c in children) / len(ops)
        work = (per_op / (p10 / 1e3), len(ops))
    return {
        "p10_ms": {"value": p10, "samples": len(ops)},
        "work_per_s": {"value": work[0], "samples": work[1]},
        "setup_s": {"value": percentile([c["setup_s"] for c in children],
                                        0.5),
                    "samples": len(children)},
        "peak_rss_mb": {"value": percentile([c["peak_rss_mb"]
                                             for c in children], 0.5),
                        "samples": len(children)},
    }


def distribution(children: Sequence[Dict[str, Any]]) -> Dict[str, Any]:
    """Ungated context: the operation-time distribution of the run."""
    ops = [ms for c in children for ms in c["ops_ms"]]
    return {"samples": len(ops), "p50_ms": percentile(ops, 0.50),
            "p90_ms": percentile(ops, 0.90), "p99_ms": percentile(ops, 0.99),
            "max_ms": max(ops)}


def layer_values(traced: Dict[str, Any],
                 twin: Dict[str, Any]) -> Dict[str, float]:
    """Per-layer metrics from the traced child and its untraced twin."""
    values = {f"{row}_pct": share
              for row, share in traced["shares_pct"].items()}
    values.update(traced["counts"])
    values.update(traced["rates"])
    values["unattributed_pct"] = traced["unattributed_pct"]
    values["traced_base_ms"] = traced["base_ms"]
    # advise-hot compares its in-process replays, the others their ops
    traced_ms = traced.get("replay_ms", traced["ops_ms"])
    twin_ms = twin.get("replay_ms", twin["ops_ms"])
    values["obs.overhead_pct"] = 100.0 * (
        percentile(traced_ms, 0.5) / percentile(twin_ms, 0.5) - 1.0)
    return values


def run_workload(workload: str, seed: int, seconds: float, scale: str,
                 trace: bool, spec: Dict[str, Any]) -> Dict[str, Any]:
    """One run: its children, merged metrics and (``trace``) layers."""
    count = children_per_run(workload, seconds, scale)
    started = time.perf_counter()
    # child 0 is the traced child's untraced twin: same inputs
    children = [
        spawn(workload, seed, seconds, scale,
              "reference" if trace and index == 0 else "measure",
              index, count)
        for index in range(count)
    ]
    run: Dict[str, Any] = {
        "workload": workload,
        "seed": seed,
        "metrics": with_units(end_to_end(workload, children),
                              spec["end_to_end"]),
        "distribution": distribution(children),
        "attempted": sum(c["attempted"] for c in children),
        "failed": sum(c["failed"] for c in children),
        "checks": [check for c in children for check in c["checks"]],
        "generator_late_ms": max((c.get("generator_late_ms", 0.0)
                                  for c in children), default=0.0),
        "children": [
            {key: c[key] for key in ("index", "setup_s", "wall_s",
                                     "peak_rss_mb", "ops_ms")}
            for c in children
        ],
    }
    if workload == "advise-hot":
        run["ladder"] = children[-1]["ladder"]
    if trace:
        traced = spawn(workload, seed, seconds, scale, "traced", 0, count)
        twin = children[0]
        same = set(traced["digests"]) <= set(twin["digests"])
        run["checks"] += traced["checks"] + [{
            "name": "traced run's outputs == untraced run's (by digest)",
            "ok": same, "detail": str(traced["digests"][:3]),
        }]
        run["attempted"] += traced["attempted"] + 1
        run["failed"] += traced["failed"] + (not same)
        values = layer_values(traced, twin)
        run["layers"] = with_units(
            {name: {"value": value, "samples": 1}
             for name, value in values.items()},
            spec["per_layer"], default=0.0)
        run["layer_ms_per_op"] = traced["rows_ms_per_op"]
    run["wall_s"] = time.perf_counter() - started
    return run


def with_units(values: Dict[str, Dict[str, float]],
               declared: Sequence[Dict[str, Any]],
               default: Optional[float] = None) -> Dict[str, Dict[str, Any]]:
    """The declared metrics, in declaration order, with their units.

    A per-layer metric a workload never touches (``default``) is 0: its
    layer did no work there.
    """
    out = {}
    for entry in declared:
        name = entry["name"]
        if name in values:
            out[name] = dict(values[name], unit=entry["unit"])
        elif default is not None:
            out[name] = {"value": default, "unit": entry["unit"],
                         "samples": 0}
        else:
            raise KeyError(f"metric {name} was not measured")
    return out


# ----------------------------------------------------------------------
# reporting
# ----------------------------------------------------------------------
def git_commit() -> str:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(REPO.parent))
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=REPO,
                             env=env, capture_output=True, text=True,
                             timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def provenance(args: argparse.Namespace, seeds: List[int]) -> Dict[str, Any]:
    return {
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "commit": git_commit(),
        "seeds": seeds,
        "scale": args.scale,
        "seconds": args.seconds,
    }


def summarize(runs: Sequence[Dict[str, Any]], key: str
              ) -> Dict[str, Dict[str, Dict[str, Any]]]:
    """Per (workload, metric): every run's value, quartiles, unit."""
    table: Dict[str, Dict[str, Dict[str, Any]]] = {}
    for run in runs:
        for name, metric in run.get(key, {}).items():
            entry = table.setdefault(run["workload"], {}).setdefault(
                name, {"unit": metric["unit"], "values": []})
            entry["values"].append(metric["value"])
    for metrics in table.values():
        for entry in metrics.values():
            q1, median, q3 = quartiles(entry["values"])
            entry.update(median=median, q1=q1, q3=q3)
    return table


def spread(entry: Dict[str, Any]) -> float:
    """IQR as a share of the median."""
    if entry["median"] == 0:
        return 0.0
    return (entry["q3"] - entry["q1"]) / abs(entry["median"])


def print_run(run: Dict[str, Any]) -> None:
    print(f"== {run['workload']}  seed={run['seed']}  "
          f"wall={run['wall_s']:.1f}s  attempted={run['attempted']}  "
          f"failed={run['failed']}")
    for name, metric in run["metrics"].items():
        print(f"   {name:<14s} {metric['value']:>12.4f} {metric['unit']:<5s}"
              f" (n={metric['samples']})")
    spread_of = run["distribution"]
    print(f"   (ungated) p50 {spread_of['p50_ms']:.4f} ms, p90 "
          f"{spread_of['p90_ms']:.4f} ms, p99 {spread_of['p99_ms']:.4f} ms, "
          f"max {spread_of['max_ms']:.4f} ms over {spread_of['samples']} ops")
    if "ladder" in run:
        steps = ", ".join(f"{step['rate']:g}/s p90 {step['p90_ms']:.1f}ms "
                          f"{'pass' if step['passed'] else 'FAIL'}"
                          for step in run["ladder"])
        print(f"   ladder: {steps or 'not run'}; generator late <= "
              f"{run['generator_late_ms']:.2f} ms")
    for check in run["checks"]:
        if not check["ok"]:
            print(f"   CHECK FAILED: {check['name']} {check['detail']}")
    if "layers" in run:
        print(f"   {'layer (traced)':<26s} {'ms/op':>10s} {'share':>8s}")
        per_op = run["layer_ms_per_op"]
        for name, metric in run["layers"].items():
            row = name[:-len("_pct")] if name.endswith("_pct") else None
            if row in per_op:
                print(f"   {row:<26s} {per_op[row]:>10.4f} "
                      f"{metric['value']:>7.2f}%")
        for name in ("unattributed_pct", "obs.overhead_pct",
                     "traced_base_ms"):
            metric = run["layers"][name]
            print(f"   {name:<26s} {metric['value']:>19.2f} "
                  f"{metric['unit']}")


def print_summary(table: Dict[str, Dict[str, Dict[str, Any]]]) -> None:
    print(f"{'workload':<18s} {'metric':<14s} {'median':>12s} "
          f"{'IQR %':>7s} {'n':>3s}")
    for workload, metrics in table.items():
        for name, entry in metrics.items():
            print(f"{workload:<18s} {name:<14s} {entry['median']:>12.4f} "
                  f"{100 * spread(entry):>7.2f} {len(entry['values']):>3d}"
                  f"  {entry['unit']}")


def verdict(old: Dict[str, Any], new: Dict[str, Any], better: str,
            bound: float) -> str:
    """better / worse / unchanged / unresolved under ``bound``.

    Worse or better means the median moved by more than the bound.
    Where either side's spread exceeds the bound the comparison is
    unresolved, unless every run of one side beats every run of the
    other.
    """
    sign = 1.0 if better == "lower" else -1.0
    worse_by = sign * (new["median"] - old["median"]) / abs(old["median"])
    new_wins = all(sign * (n - o) < 0 for n in new["values"]
                   for o in old["values"])
    old_wins = all(sign * (n - o) > 0 for n in new["values"]
                   for o in old["values"])
    separated = (new_wins or old_wins) and min(
        len(new["values"]), len(old["values"])) > 1
    if max(spread(old), spread(new)) > bound and not separated:
        return "unresolved"
    if worse_by > bound:
        return "worse"
    if worse_by < -bound:
        return "better"
    return "unchanged"


def compare(old_file: Path, report: Dict[str, Any],
            spec: Dict[str, Any]) -> None:
    """Print the comparison table against an earlier ``--out`` report."""
    old = json.loads(old_file.read_text())
    print(f"\ncompare against {old_file} "
          f"(commit {old['provenance']['commit'][:12]}):")
    print(f"{'workload':<18s} {'metric':<12s} {'old':>11s} {'IQR%':>6s} "
          f"{'new':>11s} {'IQR%':>6s} {'delta%':>8s} {'bound%':>6s} verdict")
    for workload, metrics in report["summary"].items():
        for entry in spec["end_to_end"]:
            name = entry["name"]
            before = old["summary"].get(workload, {}).get(name)
            after = metrics.get(name)
            if before is None or after is None:
                continue
            word = verdict(before, after, entry["better"], entry["bound"])
            delta = 100 * (after["median"] / before["median"] - 1)
            print(f"{workload:<18s} {name:<12s} {before['median']:>11.4f} "
                  f"{100 * spread(before):>6.2f} {after['median']:>11.4f} "
                  f"{100 * spread(after):>6.2f} {delta:>+8.2f} "
                  f"{100 * entry['bound']:>6.1f} {word}")
    old_layers = old.get("layers", {})
    for workload, layers in report.get("layers", {}).items():
        if workload not in old_layers:
            continue
        print(f"layer deltas, {workload} (old -> new):")
        for name, entry in layers.items():
            before = old_layers[workload].get(name)
            if before is None or before["median"] == entry["median"]:
                continue
            print(f"   {name:<26s} {before['median']:>12.4f} -> "
                  f"{entry['median']:>12.4f} {entry['unit']}")


def contract_line(runs: Sequence[Dict[str, Any]], trace: bool,
                  table: Dict[str, Any], correct: bool) -> Dict[str, Any]:
    """The last stdout line: one run's metrics, or per-workload medians
    (``<workload>.<metric>``) when several runs were made."""
    key = "layers" if trace else "metrics"
    if len(runs) == 1:
        metrics = {name: {"value": m["value"], "unit": m["unit"]}
                   for name, m in runs[0][key].items()}
    else:
        metrics = {f"{workload}.{name}": {"value": entry["median"],
                                          "unit": entry["unit"]}
                   for workload, entries in table.items()
                   for name, entry in entries.items()}
    return {
        "correct": correct,
        "attempted": sum(run["attempted"] for run in runs),
        "failed": sum(run["failed"] for run in runs),
        "metrics": metrics,
    }


def main(argv: Optional[List[str]] = None) -> int:
    if not (REPO / "src" / "repro" / "__init__.py").is_file() \
            or not BENCHMARK.is_file():
        print(f"error: {REPO} holds no repro checkout (src/repro and "
              "BENCHMARK.json are both needed)", file=sys.stderr)
        return 2
    sys.stdout.reconfigure(line_buffering=True)   # progress through pipes
    spec = json.loads(BENCHMARK.read_text())
    names = [entry["name"] for entry in spec["workloads"]]
    parser = argparse.ArgumentParser(
        description="End-to-end benchmark (see benchmarks/e2e/README.md).")
    parser.add_argument("--workload", choices=names + ["all"],
                        default="all")
    parser.add_argument("--seed", type=int, default=0,
                        help="workload seed; repeat r uses seed + r")
    parser.add_argument("--seconds", type=float, default=None,
                        help="measured seconds per workload run (default "
                             "BENCHMARK.json's run_seconds; 1 at smoke)")
    parser.add_argument("--scale", choices=("full", "smoke"),
                        default="full")
    parser.add_argument("--repeat", type=int, default=1)
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1),
                        help="also run one traced child per workload and "
                             "report per-layer metrics")
    parser.add_argument("--out", type=Path, help="write the full report")
    parser.add_argument("--compare", type=Path,
                        help="compare medians against an earlier --out")
    args = parser.parse_args(argv)
    if args.seconds is None:
        args.seconds = 1.0 if args.scale == "smoke" else spec["run_seconds"]
    if args.repeat < 1 or args.seconds <= 0:
        parser.error("--repeat and --seconds must be positive")
    workloads = names if args.workload == "all" else [args.workload]
    seeds = [args.seed + r for r in range(args.repeat)]

    runs: List[Dict[str, Any]] = []
    crashed = []
    for seed in seeds:
        for workload in workloads:
            try:
                run = run_workload(workload, seed, args.seconds, args.scale,
                                   bool(args.trace) and seed == seeds[0],
                                   spec)
            except ChildFailed as error:
                crashed.append(str(error))
                print(f"== {workload}  seed={seed}  FAILED: {error}")
                continue
            runs.append(run)
            print_run(run)

    report = {
        "provenance": provenance(args, seeds),
        "runs": runs,
        "summary": summarize(runs, "metrics"),
        "layers": summarize(runs, "layers"),
        "crashed": crashed,
    }
    print(f"\nprovenance: {json.dumps(report['provenance'])}")
    if len(runs) > 1:
        print()
        print_summary(report["summary"])
    correct = not crashed and bool(runs) and all(
        run["failed"] == 0 for run in runs)
    if args.out is not None:
        args.out.write_text(json.dumps(report, indent=1) + "\n")
        print(f"wrote {args.out}")
    if args.compare is not None:
        compare(args.compare, report, spec)
    if not runs:
        return 1
    table = report["layers"] if args.trace else report["summary"]
    print(json.dumps(contract_line(runs, bool(args.trace), table, correct)))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
