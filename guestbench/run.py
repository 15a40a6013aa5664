"""End-to-end benchmark of the guest access path over loopback TCP.

Run from the root of a ghub checkout:

    python3 guestbench/run.py --workload warm-simple --seed 1 --seconds 20 --trace 0

It stands up every role in this process, sets the deployment up several times
(the median is `setup_s`), warms up untimed, then drives the workload from one
closed-loop client thread for `--seconds` and checks every outcome against its
own oracle. The last line of standard output is one JSON object:
`{"correct", "attempted", "failed", "metrics"}`. With `--trace 0` the metrics
are the end-to-end ones; with `--trace 1` the same run is traced and the
metrics are per layer.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import random
import resource
import statistics
import sys
import threading
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
SETUPS = 5  # timed set-ups, spread through the run; setup_s is their median
COLD_SETUP_S = 1.0  # untimed set-ups first, for at least this long, to warm a cold machine
WARMUP_MAX_S = 4.0  # untimed load before timing: as long as the timed phase, up to this
DUMPED_OPS = 40  # operations whose spans a traced run writes out


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def import_program(root: Path) -> None:
    """Import ghub from this checkout's src/, never from anywhere else."""
    src = root / "src"
    if not (src / "ghub" / "__init__.py").is_file():
        raise SystemExit(f"error: {src / 'ghub'} not found; run from the root of a ghub checkout")
    sys.path.insert(0, str(src))
    import ghub

    if Path(ghub.__file__).resolve().parent != (src / "ghub").resolve():
        raise SystemExit(f"error: imported ghub from {ghub.__file__}, not from {src}")


def pin_to_one_cpu() -> int:
    """Run every thread of the process on one CPU.

    On a small virtual machine, a hand-off between the client thread and a
    server thread on another vCPU waits for the host to wake that vCPU; that
    wait doubles the process's CPU time per operation and moves with the host's
    load. On one CPU the hand-offs are plain context switches, so the figures
    measure the program. The deployment is one process under one interpreter
    lock, so it gains little from a second CPU anyway.
    """
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def ops_each_second(windows, start: float) -> list[int]:
    """Operations finished in each second of the timed phase: a run's timeline."""
    counts: list[int] = []
    for _, _, t1 in windows:
        i = int(t1 - start)
        counts.extend([0] * (i + 1 - len(counts)))
        counts[i] += 1
    return counts


def set_up(spec, seed: int, workdir: Path):
    import deploy
    from workloads import Client, bystanders

    dep = deploy.Deployment(seed, workdir)
    try:
        client = Client(dep, seed)
        workload = spec()
        for guest in bystanders(client) + workload.populate(client):
            client.run(("grant", guest))
    except BaseException:
        dep.close()
        raise
    return dep, client, workload


def close_all(deployments) -> None:
    """Stop deployments side by side: each stop waits out a 0.5 s server poll."""
    stoppers = [threading.Thread(target=d.close) for d in deployments]
    for t in stoppers:
        t.start()
    for t in stoppers:
        t.join()


def measure(args, outdir: Path) -> tuple[dict, dict]:
    from workloads import OPS, WORKLOADS

    spec = WORKLOADS[args.workload]
    workdir = outdir / "tmp"
    workdir.mkdir(parents=True, exist_ok=True)
    setup_s: list[float] = []

    def timed_set_up():
        gc.collect()
        t0 = time.perf_counter()
        made = set_up(spec, args.seed, workdir)
        setup_s.append(time.perf_counter() - t0)
        return made

    deployments = []
    try:
        warm_until = time.perf_counter() + COLD_SETUP_S
        while time.perf_counter() < warm_until:
            deployments.append(set_up(spec, args.seed, workdir)[0])
        close_all(deployments)
        dep, client, workload = timed_set_up()
        deployments = [dep]

        gc.collect()
        gc.freeze()
        rng = random.Random(args.seed)
        for op in workload.prologue(client):
            client.run(op)
        warm_until = time.perf_counter() + min(WARMUP_MAX_S, args.seconds)
        while time.perf_counter() < warm_until:
            for op in workload.round(client, rng):
                client.run(op)

        gc.collect()
        gc.freeze()
        tracer = None
        if args.trace:
            from tracing import Tracer

            tracer = Tracer()
            tracer.install()
        chain_before = dep.chain_path.stat().st_size
        client.timed = True
        paused = paused_cpu = 0.0
        cpu0 = time.process_time()
        t0 = time.perf_counter()
        rounds = 0
        while True:
            for op in workload.round(client, rng):
                client.run(op)
            rounds += 1
            measured = time.perf_counter() - t0 - paused
            if measured >= args.seconds:
                break
            if measured >= len(setup_s) * args.seconds / SETUPS:
                # the other set-ups are spread through the timed phase, with
                # the clocks stopped, so setup_s samples the machine's speed
                # across the run as the other metrics do
                p0, c0 = time.perf_counter(), time.process_time()
                close_all([timed_set_up()[0]])
                paused += time.perf_counter() - p0
                paused_cpu += time.process_time() - c0
        elapsed = time.perf_counter() - t0 - paused
        cpu = time.process_time() - cpu0 - paused_cpu
        client.timed = False
        if tracer is not None:
            tracer.remove()
        chain_bytes = dep.chain_path.stat().st_size - chain_before
        client.final_checks()
    finally:
        close_all(deployments)

    ops = len(client.windows)
    s = {k: [1000.0 * x for x in v] for k, v in client.samples.items()}
    e2e = {
        "setup_s": (statistics.median(setup_s), "s"),
        "ops_per_s": (ops / elapsed, "1/s"),
        "access_p50_ms": (statistics.median(s["access"]), "ms"),
        "access_p90_ms": (percentile(s["access"], 0.90), "ms"),
        "auth_p50_ms": (statistics.median(s["auth"]), "ms"),
        "grant_p50_ms": (statistics.median(s["grant"]), "ms"),
        "revoke_p50_ms": (statistics.median(s["revoke"]), "ms"),
        "cpu_ms_per_op": (1000.0 * cpu / ops, "ms"),
        "rss_peak_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "rounds": rounds,
        "elapsed_s": elapsed,
        "setup_s_each": setup_s,
        "timed_ops": {k: len(v) for k, v in s.items()},
        "attempted": client.attempted,
        "failed": client.failed,
        "problems": client.problems,
        "end_to_end": {k: v[0] for k, v in e2e.items()},
        "ops_each_second": ops_each_second(client.windows, t0),
    }
    if tracer is not None:
        per_tx = chain_bytes / max(1, client.committed_in_timed)
        layers = tracer.layer_metrics(client.windows, per_tx)
        report["per_layer"] = {k: v[0] for k, v in layers.items()}
        report["spans"] = tracer.span_dump(client.windows, DUMPED_OPS)
        metrics = layers
    else:
        metrics = e2e
    result = {
        "correct": not client.problems,
        "attempted": sum(client.attempted.values()),
        "failed": sum(client.failed.values()),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    for op in OPS:
        print(f"{op}: attempted {client.attempted[op]}, failed {client.failed[op]}, timed {len(s[op])}")
    print(f"access samples {len(s['access'])} (p90 leaves {len(s['access']) - math.ceil(0.9 * len(s['access']))} above it)")
    if args.trace:
        figures = ", ".join(f"{k} {v[0]:.4g}" for k, v in e2e.items())
        print(f"traced end-to-end: {figures}")
    for problem in client.problems:
        print(f"problem: {problem}", file=sys.stderr)
    return result, report


def main(argv=None) -> int:
    args = parse_args(argv)
    import_program(Path.cwd())
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of {', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2
    cpu = pin_to_one_cpu()
    outdir = BENCH_DIR / "results"
    result, report = measure(args, outdir)
    report["cpu"] = cpu
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (outdir / name).write_text(json.dumps(report, indent=1) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
