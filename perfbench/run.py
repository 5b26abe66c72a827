#!/usr/bin/env python3
"""Benchmark of congestlist's K_p listing drivers.

    python3 perfbench/run.py --workload cc-dense --seed 7 --seconds 25 --trace 0
    python3 perfbench/run.py --seed 7      # every workload, each in a fresh process

One run sets up its workload (imports, graph generation, oracle), then runs
passes over the workload's call list for --seconds seconds and checks every
call against the oracle. Set-up is repeated between passes and timed each
time; the passes alone fill the --seconds window. Pass and set-up times are
CPU seconds rescaled to a reference host speed (see hostspeed.py), so the
drift of a shared host cancels. With --trace 0 it reports the end-to-end
metrics named in BENCHMARK.json; with --trace 1 it wraps each module's public
functions and reports the per-layer metrics instead, and writes the spans to
perfbench/out/. Each metric is printed on its own line with its unit; the
last line of standard output is the result as one JSON object.

congestlist is imported from the checkout's src/ directory; without it the
run stops with exit code 2 before measuring anything.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
# set-up is repeated at least this often and its median reported, so one
# slow repetition does not move setup_s
SETUP_REPEATS = 5
# times the imports of the harness in a fresh interpreter; argv[1:] go
# first on sys.path
IMPORT_PROBE = ("import sys, time; sys.path[:0] = sys.argv[1:]; t0 = time.process_time(); "
                "import harness, workloads; print(time.process_time() - t0)")


def pin_threads() -> int:
    """Pin BLAS/OpenMP to one thread, so eigh in the decomposition cannot
    oversubscribe the cores and the process's CPU time is the one caller's
    work, with no helper threads spinning. Must run before numpy is
    imported."""
    threads = 1
    for var in THREAD_VARS:
        os.environ[var] = str(threads)
    return threads


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="one workload; default: all, each in its own process")
    parser.add_argument("--seed", type=int, default=0, help="workload seed")
    parser.add_argument("--seconds", type=float, help="measured time per run "
                        "(default: run_seconds from BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: report per-layer metrics from a traced run")
    return parser.parse_args(argv)


def env_line(threads: int) -> str:
    import numpy
    import scipy
    return (f"env python={platform.python_version()} numpy={numpy.__version__} "
            f"scipy={scipy.__version__} nproc={os.cpu_count()} threads={threads} "
            + " ".join(f"{v}={os.environ[v]}" for v in THREAD_VARS))


def import_seconds() -> float:
    """CPU seconds that importing the harness (congestlist, numpy and scipy)
    takes in a fresh interpreter, with the thread settings of this one."""
    proc = subprocess.run([sys.executable, "-c", IMPORT_PROBE, str(ROOT / "src"),
                           str(BENCH_DIR)], capture_output=True, text=True, check=True,
                          timeout=120)
    return float(proc.stdout)


def measure(workload, seed: int, seconds: float, trace: bool):
    """Set up, run passes for `seconds`, and return (gate, values, lines)."""
    import harness
    import hostspeed
    import spans

    imports, generate, oracle, setups = [], [], [], []

    def set_up():
        """One set-up; records its import, generate and oracle seconds, and
        its CPU seconds at reference host speed."""
        probes = [hostspeed.probe()]
        imports.append(import_seconds())
        probes.append(hostspeed.probe())
        c0 = time.process_time()
        gs, cliques, generate_s, oracle_s = harness.set_up(workload, seed)
        cpu = time.process_time() - c0
        probes.append(hostspeed.probe())
        generate.append(generate_s)
        oracle.append(oracle_s)
        setups.append(hostspeed.rescale([imports[-1], cpu], probes))
        return gs, cliques

    for _ in range(3):      # warm up the kernel before its first sample
        hostspeed.kernel()
    prep = harness.prepare(workload, seed, *set_up())
    gate = harness.Gate(prep)
    plain: list = []        # PassTime of each untraced pass
    traced: list[float] = []
    tracers = []
    sim = None
    # seconds of each round of passes (with their probes); set-ups do not
    # count. A round starts only if one of median length still fits in the
    # window, so a run does not overshoot --seconds by most of a pass.
    rounds: list[float] = []
    while not plain or (trace and not traced) or (
            sum(rounds) + statistics.median(rounds) <= seconds):
        if plain:
            # set-up is repeated between passes, so setup_s samples the
            # host across the whole run, as the passes do
            set_up()
        start = time.perf_counter()
        timing, outcomes = harness.run_pass(prep, probe=hostspeed.probe)
        gate.check(outcomes)
        plain.append(timing)
        sim = sim or harness.simulated(outcomes)
        if trace:
            tracer = spans.Tracer()
            with spans.installed(tracer):
                timing, outcomes = harness.run_pass(prep, tracer)
            gate.check(outcomes)
            traced.append(timing.wall)
            tracers.append(tracer)
        rounds.append(time.perf_counter() - start)
    while len(setups) < SETUP_REPEATS:
        set_up()
    walls = [t.wall for t in plain]
    passes = [hostspeed.rescale(t.calls, t.probes) for t in plain]
    probes = [r for t in plain for r in t.probes]

    lines = [f"call {i} {call.driver} {workload.graphs[call.graph].label()} p={call.p}: {s}"
             for i, (call, s) in enumerate(zip(workload.calls, gate.summaries))]
    n = len(passes)
    pct = harness.supported_percentile(n)
    tail = (f"p{pct} {statistics.quantiles(passes, n=100)[pct - 1]:.4f} s" if pct else
            "no percentile above the median has ten passes beyond it")
    lines.append(f"passes={n} pass_cpu_s median {statistics.median(passes):.4f} s, {tail}; "
                 f"each: {' '.join(f'{p:.3f}' for p in passes)}")
    lines.append(f"as measured: wall median {statistics.median(walls):.4f} s, CPU median "
                 f"{statistics.median(t.cpu for t in plain):.4f} s; host-speed probe median "
                 f"{statistics.median(probes):.4f} s of {len(probes)} (REF_S {hostspeed.REF_S} s); "
                 f"each pass's CPU s: {' '.join(f'{t.cpu:.3f}' for t in plain)}")
    lines.append(f"setup median {statistics.median(setups):.4f} s of {len(setups)}; each: "
                 + " ".join(f"{s:.3f}" for s in setups)
                 + f"; import CPU s {' '.join(f'{s:.3f}' for s in imports)}")
    lines.append(f"failed_frac {gate.failed / gate.attempted:.4f} ratio "
                 f"({gate.failed} of {gate.attempted} calls; "
                 + ", ".join(f"{k} {v}" for k, v in gate.failures.items()) + ")")

    values = {
        "pass_cpu_s": statistics.median(passes),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        **sim,
    }
    if trace:
        per_pass = [t.values() for t in tracers]
        for k, first in per_pass[0].items():
            # counts repeat exactly from pass to pass; keep them whole numbers
            median = statistics.median_low if isinstance(first, int) else statistics.median
            values[k] = median(p[k] for p in per_pass)
        values["graphs.oracle.s"] = statistics.median(oracle)
        values["graphs.generate.s"] = statistics.median(generate)
        values["trace.wall_s"] = statistics.median(traced)
        values["trace.overhead_s"] = statistics.median(traced) - statistics.median(walls)
        out_dir = BENCH_DIR / "out"
        out_dir.mkdir(exist_ok=True)
        path = out_dir / f"trace-{workload.name}-seed{seed}.jsonl"
        spans.write_spans(path, tracers)
        lines.append(f"spans of {len(tracers)} traced passes written to "
                     f"{path.relative_to(ROOT)}")
    return gate, values, lines


def import_program() -> int:
    """Pin threads and import congestlist from the checkout's src/; returns
    the thread setting. Raises FileNotFoundError without the sources."""
    threads = pin_threads()
    src = ROOT / "src"
    if not (src / "congestlist" / "__init__.py").is_file():
        raise FileNotFoundError(f"congestlist sources not found under {src}")
    sys.path.insert(0, str(src))
    import harness  # noqa: F401  (imports congestlist, numpy and scipy)
    import workloads  # noqa: F401
    return threads


def run_one(spec: dict, args) -> int:
    try:
        threads = import_program()
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    print(f"workload={args.workload} seed={args.seed} seconds={seconds} trace={args.trace}")
    print(env_line(threads))
    gate, values, lines = measure(WORKLOADS[args.workload], args.seed, seconds,
                                  bool(args.trace))
    for line in lines:
        print(line)
    section = spec["per_layer" if args.trace else "end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in section}
    for name, m in metrics.items():
        print(f"{name:48s} {m['value']:>14.6g} {m['unit']}")
    print(json.dumps({"correct": gate.failed == 0, "attempted": gate.attempted,
                      "failed": gate.failed, "metrics": metrics}))
    return 0


def run_all(spec: dict, args) -> int:
    """Every workload in a fresh process, so peak_rss_mb is its own."""
    results = {}
    code = 0
    for w in spec["workloads"]:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", w["name"],
               "--seed", str(args.seed), "--trace", str(args.trace)]
        if args.seconds is not None:
            cmd += ["--seconds", str(args.seconds)]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.splitlines()
        for line in lines[:-1]:
            print(f"[{w['name']}] {line}")
        if proc.returncode != 0 or not lines:
            print(f"[{w['name']}] exited with code {proc.returncode}")
            code = code or proc.returncode or 1
            continue
        results[w["name"]] = json.loads(lines[-1])
        code = code or (0 if results[w["name"]]["correct"] else 1)
    print(json.dumps(results))
    return code


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        with open(ROOT / "BENCHMARK.json") as fh:
            spec = json.load(fh)
    except FileNotFoundError:
        print(f"error: {ROOT / 'BENCHMARK.json'} not found", file=sys.stderr)
        return 2
    return run_one(spec, args) if args.workload else run_all(spec, args)


if __name__ == "__main__":
    sys.exit(main())
