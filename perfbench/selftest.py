#!/usr/bin/env python3
"""Self-test of the benchmark.

    python3 perfbench/selftest.py

Checks that the correctness gate bites (a clique set with one clique dropped,
a raise, a recorded violation and a changed round charge each count as a
failure), that every workload prints every metric of BENCHMARK.json with its
unit, that the trace shows the predicted bypasses, and that the benchmark
refuses to run without the program's sources. It runs every workload once
untraced and once traced with the shortest window, which takes a few
minutes on two cores. Exit code 0 means every check passed.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import run

FAILURES: list[str] = []


def check(ok: bool, what: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'} {what}")
    if not ok:
        FAILURES.append(what)


def gate_bites() -> None:
    import harness
    from congestlist import pipeline, sparse_listing
    from workloads import Call, GraphSpec, Workload

    tiny = Workload("tiny", graphs=(GraphSpec("gnm", (24, 0.5)),),
                    calls=(Call("cc_list_kp", 0, 3), Call("congest_list_kp", 0, 4)))
    prep = harness.prepare(tiny, 3, *harness.set_up(tiny, 3)[:2])
    gate = harness.Gate(prep)
    gate.check(harness.run_pass(prep)[1])
    check(gate.failed == 0 and gate.attempted == 2, "gate passes the unmodified drivers")

    cc, congest = sparse_listing.cc_list_kp, pipeline.congest_list_kp

    def drop_one(g, p, seed, cfg):
        cliques, acc = cc(g, p, seed, cfg)
        return cliques - {min(cliques)}, acc

    def drop_one_congest(*args, **kwargs):
        report = congest(*args, **kwargs)
        report.cliques = report.cliques[1:]
        return report

    def violate(g, p, seed, cfg):
        cliques, acc = cc(g, p, seed, cfg)
        acc.record_violation(0, "edge-delivery", 1.0, 2.0, "receive-budget")
        return cliques, acc

    def recharge(g, p, seed, cfg):
        cliques, acc = cc(g, p, seed, cfg)
        acc.charge("edge-delivery", 1)
        return cliques, acc

    def explode(*args, **kwargs):
        raise RuntimeError("injected")

    cases = [
        ("cc_list_kp with one clique dropped", sparse_listing, "cc_list_kp", drop_one, "mismatch"),
        ("congest_list_kp with one clique dropped", pipeline, "congest_list_kp",
         drop_one_congest, "mismatch"),
        ("a recorded budget violation", sparse_listing, "cc_list_kp", violate, "violation"),
        ("one extra charged round", sparse_listing, "cc_list_kp", recharge, "nondeterministic"),
        ("a raising driver", pipeline, "congest_list_kp", explode, "raised"),
    ]
    for what, module, attr, fake, kind in cases:
        original = getattr(module, attr)
        setattr(module, attr, fake)
        try:
            before = dict(gate.failures)
            gate.check(harness.run_pass(prep)[1])
        finally:
            setattr(module, attr, original)
        added = {k: gate.failures[k] - before[k] for k in before}
        check(added[kind] == 1 and sum(added.values()) == 1,
              f"gate counts {what} as one '{kind}' failure")


def run_workload(name: str, trace: int) -> tuple[list[str], dict | None]:
    proc = subprocess.run(
        [sys.executable, str(run.BENCH_DIR / "run.py"), "--workload", name, "--seed", "0",
         "--seconds", "0", "--trace", str(trace)],
        capture_output=True, text=True, timeout=600, cwd=run.ROOT)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        print(proc.stderr[-2000:], file=sys.stderr)
        return lines, None
    return lines, json.loads(lines[-1])


def metrics_and_bypasses(spec: dict) -> None:
    for w in spec["workloads"]:
        name = w["name"]
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            lines, result = run_workload(name, trace)
            check(result is not None and result["correct"] and result["failed"] == 0,
                  f"{name} trace={trace}: exits 0 and every call matches the oracle")
            if result is None:
                continue
            expected = {m["name"]: m["unit"] for m in spec[section]}
            got = {k: m["unit"] for k, m in result["metrics"].items()}
            check(got == expected, f"{name} trace={trace}: reports exactly the "
                  f"{section} metrics of BENCHMARK.json, with their units")
            printed = all(any(line.split()[:1] == [k] and line.split()[-1] == u
                              for line in lines[:-1]) for k, u in expected.items())
            check(printed, f"{name} trace={trace}: prints every metric by name with its unit")
            if trace == 0:
                check(any(line.startswith("failed_frac 0.0000 ratio") for line in lines),
                      f"{name}: prints failed_frac 0 with its unit")
                continue
            values = {k: m["value"] for k, m in result["metrics"].items()}
            decomposition = {k: v for k, v in values.items() if k.startswith("decomposition.")}
            if name.startswith("cc-") or name == "congest-flood":
                check(not any(decomposition.values()), f"{name}: no decomposition work")
            if name == "congest-flood":
                pipeline_stage = {k: v for k, v in values.items()
                                  if k.startswith("cluster_pipeline.")}
                check(not any(pipeline_stage.values()) and
                      values["graphs.enumerate_cliques.calls"] == 0,
                      f"{name}: no cluster_pipeline work and no enumerate_cliques calls")
            if name == "congest-clusters":
                check(values["decomposition.expander_decompose.calls"] > 0 and
                      values["cluster_pipeline.cluster_list_kp.calls"] > 0,
                      f"{name}: the trace sees decomposition and the cluster pipeline")


def refuses_without_sources() -> None:
    out = run.BENCH_DIR / "out"
    out.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=out) as bare:
        shutil.copy(run.ROOT / "BENCHMARK.json", bare)
        shutil.copytree(run.BENCH_DIR, Path(bare) / "perfbench",
                        ignore=shutil.ignore_patterns("out", "__pycache__"))
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "cc-dense", "--seed", "0",
             "--seconds", "1", "--trace", "0"],
            capture_output=True, text=True, timeout=180, cwd=bare)
    check(proc.returncode != 0 and not proc.stdout.strip(),
          "without src/ the benchmark exits non-zero and prints no result")


def main() -> int:
    with open(run.ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    run.import_program()
    gate_bites()
    refuses_without_sources()
    metrics_and_bypasses(spec)
    print(f"{len(FAILURES)} check(s) failed" if FAILURES else "all checks passed")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
