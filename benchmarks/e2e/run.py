"""The end-to-end benchmark: one command, every metric.

One run (what ``BENCHMARK.json``'s command does)::

    python3 benchmarks/e2e/run.py --workload W --seed N --seconds S --trace 0|1

builds the workload's inputs from the seed, measures for ``S`` seconds,
checks the outputs against oracles and prints one JSON object as the last
line of standard output: the end-to-end metrics untraced (``--trace 0``),
the per-layer metrics traced (``--trace 1``).

The whole set (no ``--trace``)::

    python3 benchmarks/e2e/run.py [--seed N] [--workload W] [--out DIR]

runs each workload untraced and then traced, each in a process of its
own, prints every metric by name with its unit, the tracing overhead per
workload, and writes ``results.json`` and ``trace-<workload>.json``.

``--aa`` runs the untraced set twice with the same seed and exits
non-zero unless the two agree on every end-to-end metric within its
bound.  ``--smoke`` swaps in tiny, g++-free sizes (the tier-1 smoke test).
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import e2e_harness as harness
import e2e_spec as spec


def _workload_fn(name: str):
    # Imported late: these import repro, which must see the hermetic env.
    import e2e_serve
    import e2e_shard
    import e2e_train

    return {
        "train_lr": e2e_train.train_lr,
        "train_tree": e2e_train.train_tree,
        "train_cpp": e2e_train.train_cpp,
        "serve_read": e2e_serve.serve_read,
        "serve_ingest": e2e_serve.serve_ingest,
        "scan_sharded": e2e_shard.scan_sharded,
    }[name]


def run_once(args) -> int:
    """One (workload, seed, seconds, trace) run in this process."""
    harness.require_program()
    run_dir = harness.hermetic_env()
    try:
        harness.import_repro()
        run = harness.Run(args.workload, args.seed, args.seconds, bool(args.trace), args.smoke)
        with harness.layer_spans(run.tracer):
            _workload_fn(args.workload)(run)
        result = run.result()
        print(
            f"# {args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace} "
            f"nproc={os.cpu_count()} attempted={run.attempted} failed={run.failed} "
            f"ops={run.measured_ops} primary_samples={len(run.op_ms)} cold_samples={len(run.cold_ms)} "
            f"setups={len(run.setup_seconds)} tail=p{run.spec['tail']}"
            + (f" oracle_checked={run.notes['oracle_checked']}" if "oracle_checked" in run.notes else "")
        )
        for why in run.notes.get("failures", [])[:10]:
            print(f"# FAILED: {why}")
        for name, metric in result["metrics"].items():
            print(f"{name:52s} {metric['value']:16.6f} {metric['unit']}")
        if args.out and run.tracer.enabled:
            Path(args.out).mkdir(parents=True, exist_ok=True)
            run.tracer.dump(Path(args.out) / f"trace-{args.workload}.json", args.workload)
        print(json.dumps(result))
        return 0
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)


# -- the whole set: one child process per run --------------------------------------


def _child(workload: str, seed: int, seconds: float, trace: int, smoke: bool, out: str | None) -> dict:
    cmd = [
        sys.executable, str(Path(__file__).resolve()),
        "--workload", workload, "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
    ]
    if smoke:
        cmd.append("--smoke")
    if out:
        cmd += ["--out", out]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900, check=False)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} (trace={trace}) exited {proc.returncode}:\n{proc.stderr[-4000:]}")
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    result["header"] = lines[0]
    result["failures"] = [line for line in lines if line.startswith("# FAILED")]
    return result


def run_set(args, workloads) -> int:
    """Untraced then traced, every workload; prints every metric."""
    harness.require_program()
    out = args.out or str(harness.HERE / "out" / f"seed-{args.seed}")
    report = {"seed": args.seed, "seconds": args.seconds, "nproc": os.cpu_count(), "claim": spec.CLAIM, "workloads": {}}
    ok = True
    for workload in workloads:
        untraced = _child(workload, args.seed, args.seconds, 0, args.smoke, out)
        traced = _child(workload, args.seed, args.seconds, 1, args.smoke, out)
        base = untraced["metrics"]["ops_per_s"]["value"]
        overhead = 1.0 - traced["metrics"]["trace.ops_per_s"]["value"] / base if base else 0.0
        report["workloads"][workload] = {
            "untraced": untraced, "traced": traced, "trace_overhead_share": overhead,
        }
        print(f"\n== {workload}: {spec.WORKLOADS[workload]['why']}")
        for part in (untraced, traced):
            print(part["header"])
            for line in part["failures"]:
                print(line)
            ok &= part["correct"]
        print(f"-- end to end (untraced); trace_overhead_share = {overhead:.4f}")
        for name, metric in untraced["metrics"].items():
            print(f"{name:52s} {metric['value']:16.6f} {metric['unit']}")
        print("-- per layer (traced)")
        for name, metric in traced["metrics"].items():
            print(f"{name:52s} {metric['value']:16.6f} {metric['unit']}")
    Path(out).mkdir(parents=True, exist_ok=True)
    (Path(out) / "results.json").write_text(json.dumps(report, indent=1) + "\n")
    print(f"\nwrote {out}/results.json and trace-<workload>.json; all outputs correct: {ok}")
    return 0 if ok else 1


def run_aa(args, workloads) -> int:
    """Two sets of the same code and seed must agree within the bounds."""
    harness.require_program()
    sets: tuple[dict, dict] = ({}, {})
    for workload in workloads:
        for side in sets:  # interleaved, so drift hits both alike
            result = _child(workload, args.seed, args.seconds, 0, args.smoke, None)
            if not result["correct"]:
                raise SystemExit(f"{workload}: outputs incorrect: {result['failures']}")
            for name, metric in result["metrics"].items():
                side[workload, name] = metric["value"]
    bounds = {name: bound for name, _u, _b, bound, _m in spec.END_TO_END}
    outside = 0
    print(f"{'workload':14s} {'metric':16s} {'first':>14s} {'second':>14s} {'spread':>8s} {'bound':>6s}")
    for (workload, name), first in sets[0].items():
        second = sets[1][workload, name]
        spread = abs(second - first) / first if first else float("inf")
        verdict = "" if spread <= bounds[name] else "  <-- outside its bound"
        outside += bool(verdict)
        print(f"{workload:14s} {name:16s} {first:14.4f} {second:14.4f} {spread:8.4f} {bounds[name]:6.2f}{verdict}")
    print(f"{outside} metric(s) outside their bound")
    return 1 if outside else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=list(spec.WORKLOADS))
    parser.add_argument("--seed", type=int, default=spec.SEED_DEFAULT)
    parser.add_argument("--seconds", type=float, default=spec.RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1))
    parser.add_argument("--out", help="directory for results.json / trace-<workload>.json")
    parser.add_argument("--smoke", action="store_true", help="tiny g++-free sizes, one set-up")
    parser.add_argument("--aa", action="store_true", help="two identical sets must agree within the bounds")
    args = parser.parse_args(argv)
    if args.smoke and args.seconds == spec.RUN_SECONDS:
        args.seconds = 0.5
    workloads = [args.workload] if args.workload else list(spec.WORKLOADS)
    if args.aa:
        return run_aa(args, workloads)
    if args.trace is None:
        return run_set(args, workloads)
    if not args.workload:
        parser.error("--trace needs --workload")
    return run_once(args)


if __name__ == "__main__":
    raise SystemExit(main())
