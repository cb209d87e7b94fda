#!/usr/bin/env python3
"""Benchmark the hermix command line on generated documents.

    python3 benchmarks/run.py --workload det-ladder --seed 1 --trace 0
    python3 benchmarks/run.py --seed 1            # every workload, one process each

Each workload is a closed loop: one client calls ``hermix.cli.main([command,
file], out=<buffer>)`` and starts the next call when the previous one returns.
The first output of every (document, command) is verified independently
between the timed calls, and every later call must print the same bytes. With
``--trace 0`` the run reports the end-to-end metrics; with ``--trace 1`` it
makes one pass in which every call runs both untraced and traced, and reports
the per-layer metrics. The last line of standard output is one JSON object with
the keys correct, attempted, failed and metrics; the metric names, their units
and the default ``--seconds`` come from BENCHMARK.json. Details per document go
to ``benchmarks/out/``. See README.md beside this file.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from collections import Counter
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
sys.path.insert(0, str(BENCH))

# One client, no threads: keep numpy's BLAS single-threaded as well.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
os.environ.setdefault("OMP_NUM_THREADS", "1")

from hbench import layers  # noqa: E402
from hbench.trace import KEEP_CALLS, Stats, Tracer  # noqa: E402
from hbench.verify import VERIFIERS, load_document  # noqa: E402
from hbench.workloads import WORKLOADS, materialize, plan  # noqa: E402

START = time.perf_counter()
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
UNITS = {m["name"]: m["unit"] for m in SPEC["end_to_end"] + SPEC["per_layer"]}
# Set-up is repeated until both limits are reached and reported as a median:
# three repeats of the heavy det-ladder set-up, about four of the others. All
# come before the timed calls, so none of them frees what the calls left.
SETUP_REPEATS = 3
SETUP_SECONDS = 1.0
MIN_CALLS = 100  # at least ten timed calls above the p90


def import_hermix():
    """Import the package afresh from this checkout's src/, timing the import.

    Every ``hermix`` module is dropped from ``sys.modules`` first, so each call
    runs the package's module-level code again; numpy stays loaded.
    """
    for name in [k for k in sys.modules if k == "hermix" or k.startswith("hermix.")]:
        del sys.modules[name]
    if str(ROOT / "src") not in sys.path:
        sys.path.insert(0, str(ROOT / "src"))
    t0 = time.perf_counter()
    import hermix
    import hermix.cli  # noqa: F401

    elapsed = time.perf_counter() - t0
    if not Path(hermix.__file__).resolve().is_relative_to(ROOT / "src"):
        raise ImportError(f"hermix imported from {hermix.__file__}, not from {ROOT / 'src'}")
    return hermix, elapsed


def set_up(specs, workdir):
    """One timed set-up: import hermix afresh (numpy is already loaded) and
    generate and write every document of the pass."""
    t0 = time.perf_counter()
    hermix, _ = import_hermix()
    paths, seeds = materialize(hermix, specs, workdir)
    return hermix, paths, seeds, time.perf_counter() - t0


def timed_call(hermix, command: str, path: str):
    """One CLI call through whatever ``hermix.cli.main`` is bound to now."""
    out, err = io.StringIO(), io.StringIO()
    t0 = time.perf_counter()
    try:
        rc = hermix.cli.main([command, path], out=out, err=err)
    except Exception as exc:  # a traceback is a failed call, not a crashed run
        rc = f"{type(exc).__name__}: {exc}"
    return time.perf_counter() - t0, rc, out.getvalue()


class Outcomes:
    """Outputs per (document, command), kept as sha256 digests. The first
    output of a key is verified when it arrives, outside the call's timing;
    every later call must exit 0 and print the same bytes. A key that breaks
    either rule, or whose first output fails verification, fails all of its
    calls."""

    def __init__(self, paths):
        self.paths = paths
        self.first: dict[tuple[int, str], str] = {}
        self.bad: dict[tuple[int, str], str] = {}
        self.calls: Counter = Counter()

    def record(self, key, rc, text) -> None:
        self.calls[key] += 1
        if rc != 0:
            self.bad.setdefault(key, f"exit {rc}")
            return
        digest = hashlib.sha256(text.encode()).hexdigest()
        if key not in self.first:
            self.first[key] = digest
            reason = VERIFIERS[key[1]](load_document(self.paths[key[0]]), text)
            if reason:
                self.bad.setdefault(key, reason)
        elif self.first[key] != digest:
            self.bad.setdefault(key, "output differs between calls")

    @property
    def attempted(self) -> int:
        return sum(self.calls.values())

    @property
    def failed(self) -> int:
        return sum(self.calls[key] for key in self.bad)

    def digest(self, calls) -> str:
        """sha256 over the stdout digests of one pass, in call order."""
        h = hashlib.sha256()
        for c in calls:
            h.update(f"{c.doc} {c.command} {self.first.get((c.doc, c.command), '')}\n".encode())
        return h.hexdigest()


def call_and_record(hermix, call, paths, outcomes, times=None) -> float:
    """One timed call; its output goes to ``outcomes`` and its time to ``times``."""
    key = (call.doc, call.command)
    dt, rc, text = timed_call(hermix, call.command, paths[call.doc])
    outcomes.record(key, rc, text)
    if times is not None:
        times.setdefault(key, []).append(dt)
    return dt


def closed_loop(hermix, calls, paths, outcomes, times, seconds) -> list[float]:
    """Cycle through the pass until one full pass, MIN_CALLS calls and
    ``seconds`` of summed call time are all reached; return the call times."""
    samples: list[float] = []
    elapsed = 0.0
    while len(samples) < max(len(calls), MIN_CALLS) or elapsed < seconds:
        dt = call_and_record(hermix, calls[len(samples) % len(calls)], paths, outcomes, times)
        samples.append(dt)
        elapsed += dt
    return samples


def traced_pass(hermix, calls, paths, specs, workdir, outcomes, times):
    """One pass in which every call runs twice in a row, untraced and with every
    probe wrapped, so that the overhead ratio compares calls made under the
    same machine conditions. Set-up is traced once as well."""
    stats, setup_stats = Stats(layers.INCLUSIVE_MS), Stats(layers.GENERATE_MS)
    facts, kept = {}, []
    plain_s = traced_s = 0.0
    tracer = Tracer()
    with tracer.installed():
        materialize(hermix, specs, workdir)
    setup_stats.add_spans(tracer.drain())
    for i, c in enumerate(calls):
        # Alternate which of the two goes first, so neither gets the warmer caches.
        if i % 2:
            plain_s += call_and_record(hermix, c, paths, outcomes, times)
        with tracer.installed():
            dt = call_and_record(hermix, c, paths, outcomes)
        if not i % 2:
            plain_s += call_and_record(hermix, c, paths, outcomes, times)
        traced_s += dt
        spans = tracer.drain()
        one = Stats(layers.INCLUSIVE_MS)
        one.add_spans(spans)
        stats.merge(one)
        facts[(c.doc, c.command)] = {
            "traced_ms": dt * 1e3,
            "elementary_subgraphs": one.get("spectral.enumerate_spanning_elementary")[3],
            "coaug_paths": one.get("matching.co_augmenting_paths")[3],
        }
        if i < KEEP_CALLS:
            kept.append({"call": i, "doc": c.doc, "command": c.command, "spans": spans})
    return layers.per_layer(stats, setup_stats, traced_s / plain_s), facts, kept


def document_rows(specs, seeds, outcomes, times, facts):
    rows = []
    for key, ts in sorted(times.items()):
        spec = specs[key[0]]
        row = {
            "doc": key[0],
            "command": key[1],
            "n": spec.n,
            "cyclic": spec.cyclic,
            "order": spec.order,
            "instance_seed": seeds[key[0]],
            "calls": len(ts),
            "median_ms": statistics.median(ts) * 1e3,
            "max_ms": max(ts) * 1e3,
            **facts.get(key, {}),
        }
        if key in outcomes.bad:
            row["failure"] = outcomes.bad[key]
        rows.append(row)
    return rows


def run_workload(args) -> int:
    try:
        hermix, cold_import_s = import_hermix()
    except ImportError as exc:
        print(f"error: cannot import hermix from this checkout: {exc}", file=sys.stderr)
        return 2

    wl = WORKLOADS[args.workload]
    specs, calls = plan(wl, args.seed)
    facts, kept = {}, []
    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"docs-{wl.name}-", dir=OUT))
    try:
        setup_times = []
        while not setup_times or not args.trace and (
            len(setup_times) < SETUP_REPEATS or sum(setup_times) < SETUP_SECONDS
        ):
            hermix, paths, seeds, setup_s = set_up(specs, workdir)
            setup_times.append(setup_s)
        outcomes, times = Outcomes(paths), {}
        rss_setup_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        timed_call(hermix, calls[0].command, paths[calls[0].doc])  # warm-up
        # Keep the harness's own heap out of the collector's work during calls.
        gc.collect()
        gc.freeze()
        phases = {"setup": time.perf_counter()}
        if args.trace:
            metrics, facts, kept = traced_pass(hermix, calls, paths, specs, workdir, outcomes, times)
        else:
            samples = closed_loop(hermix, calls, paths, outcomes, times, args.seconds)
            q = statistics.quantiles(samples, n=100, method="inclusive")
            metrics = {
                "latency_p50_ms": q[49] * 1e3,
                "latency_p90_ms": q[89] * 1e3,
                "docs_per_s": len(samples) / sum(samples),
                "setup_s": statistics.median(setup_times),
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            }
        phases["end"] = time.perf_counter()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    rows = document_rows(specs, seeds, outcomes, times, facts)
    digest = outcomes.digest(calls)
    stem = f"{wl.name}-seed{args.seed}-trace{args.trace}"
    (OUT / f"{stem}.json").write_text(json.dumps({
        "workload": wl.name,
        "seed": args.seed,
        "trace": args.trace,
        "stdout_sha256": digest,
        "pass_calls": len(calls),
        "cold_import_s": cold_import_s,
        "setup_times_s": setup_times,
        "rss_after_setup_mb": rss_setup_mb,
        "phase_end_s": {k: v - START for k, v in phases.items()},
        "metrics": metrics,
        "documents": rows,
    }, indent=1) + "\n")
    if kept:
        (OUT / f"{stem}-spans.json").write_text(json.dumps(kept) + "\n")

    print(f"workload {wl.name} seed {args.seed} trace {args.trace}: {outcomes.attempted} calls, "
          f"{len(specs)} documents, stdout sha256 {digest}")
    for name, value in metrics.items():
        note = f" ({len(samples)} samples)" if name.startswith("latency_") else ""
        print(f"  {name} = {value:.6g} {UNITS[name]}{note}")
    print(f"  failed_ratio = {outcomes.failed / outcomes.attempted:.6g} "
          f"({outcomes.failed} of {outcomes.attempted})")
    heavy = sorted(rows, key=lambda r: -r["median_ms"])[:3]
    print("  heaviest: " + "; ".join(
        f"doc {r['doc']} {r['command']} n={r['n']} {'unicyclic' if r['cyclic'] else 'tree'} "
        f"order={r['order']} seed={r['instance_seed']} {r['median_ms']:.1f} ms" for r in heavy))
    for key, reason in sorted(outcomes.bad.items()):
        print(f"  FAILED doc {key[0]} {key[1]}: {reason}")
    print(json.dumps({
        "correct": not outcomes.bad,
        "attempted": outcomes.attempted,
        "failed": outcomes.failed,
        "metrics": {k: {"value": v, "unit": UNITS[k]} for k, v in metrics.items()},
    }))
    return 0 if not outcomes.bad else 1


def run_all(args) -> int:
    """Each workload in its own process, one after another."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for name in WORKLOADS:
        cmd = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=900)
        lines = proc.stdout.splitlines()
        if proc.returncode not in (0, 1) or not lines:
            print(f"error: workload {name} exited {proc.returncode}", file=sys.stderr)
            return proc.returncode or 2
        print("\n".join(lines[:-1]), flush=True)
        part = json.loads(lines[-1])
        merged["correct"] &= part["correct"]
        merged["attempted"] += part["attempted"]
        merged["failed"] += part["failed"]
        merged["metrics"].update({f"{name}.{k}": v for k, v in part["metrics"].items()})
        status = max(status, proc.returncode)
    print(json.dumps(merged))
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"], default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=SPEC["run_seconds"],
                        help="summed call time to measure (default: run_seconds in BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
