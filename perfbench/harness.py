"""Set-up, timed passes and the correctness gate of the benchmark.

A pass runs a workload's call list once. Each call is the listing driver plus
serialising its report the way the CLI emits it. Set-up (graph generation
and the oracle reference) happens before the first timed pass; every call of
every pass is then checked against that oracle.
"""

from __future__ import annotations

import gc
import hashlib
import json
import sys
import time
import traceback
from contextlib import nullcontext
from dataclasses import dataclass, field

from congestlist import graphs, pipeline, sparse_listing
from congestlist.config import SimConfig
from congestlist.graphs import Graph

from workloads import Call, Workload, graph_seed


@dataclass
class Prepared:
    workload: Workload
    seed: int
    cfg: SimConfig
    graphs: list[Graph]
    oracle: dict[tuple[int, int], set]     # (graph index, p) -> cliques


@dataclass
class Outcome:
    """What one call produced; `error` is set when it raised."""
    cliques: object = ()
    rounds_by_phase: dict | None = None
    messages_by_phase: dict | None = None
    total_rounds: int = 0
    max_received: int = 0
    violations: int = 0
    error: str = ""


def set_up(workload: Workload, seed: int) -> tuple[list[Graph], dict, float, float]:
    """Generate the graphs and compute the oracle; returns both with the
    generate and oracle seconds."""
    t0 = time.perf_counter()
    gs = [spec.generate(graph_seed(seed, i)) for i, spec in enumerate(workload.graphs)]
    t1 = time.perf_counter()
    oracle = {}
    for call in workload.calls:
        key = (call.graph, call.p)
        if key not in oracle:
            oracle[key] = graphs.brute_force_list_kp(gs[call.graph], call.p)
    return gs, oracle, t1 - t0, time.perf_counter() - t1


def prepare(workload: Workload, seed: int, gs: list[Graph], oracle: dict) -> Prepared:
    """The passes' view of one set-up."""
    prep = Prepared(workload, seed, SimConfig().replace(**workload.config), gs, oracle)
    # the oracle sets are the benchmark's, not the program's: keep them out
    # of the collections the program triggers
    gc.collect()
    gc.freeze()
    return prep


def emit(build_doc, tracer) -> None:
    """Build a report's JSON document and serialise it as the CLI writes it;
    both steps fall in the cli.report span."""
    with tracer.span("cli.report") if tracer else nullcontext():
        text = json.dumps(build_doc(), indent=2, sort_keys=True)
    if tracer:
        tracer.counts["cli.report_bytes"] += len(text.encode())


def invoke(call: Call, g: Graph, prep: Prepared, tracer) -> Outcome:
    # drivers are looked up on their modules at call time, so a traced run
    # reaches the wrapped attributes
    if call.driver == "cc_list_kp":
        cliques, acc = sparse_listing.cc_list_kp(g, call.p, prep.seed, prep.cfg)
        emit(lambda: {"cliques": [list(c) for c in sorted(cliques)],
                      "accounting": acc.to_json()}, tracer)
        return Outcome(cliques, dict(acc.rounds_by_phase), dict(acc.messages_by_phase),
                       acc.total_rounds(), max(acc.received.values(), default=0),
                       len(acc.violations))
    kwargs = prep.workload.call_kwargs
    if call.driver == "congest_list_k4":
        report = pipeline.congest_list_k4(g, prep.seed, prep.cfg, **kwargs)
    else:
        report = pipeline.congest_list_kp(g, call.p, prep.seed, prep.cfg, **kwargs)
    emit(report.to_json, tracer)
    return Outcome(report.cliques, dict(report.rounds_by_phase),
                   dict(report.notes["messages_by_phase"]), report.total_rounds,
                   report.notes["max_received"], len(report.violations))


@dataclass
class PassTime:
    """Seconds of one pass: wall time summed over its calls, each call's CPU
    time, and the host-speed probes taken before, between and after them."""
    wall: float = 0.0
    calls: list[float] = field(default_factory=list)
    probes: list[float] = field(default_factory=list)

    @property
    def cpu(self) -> float:
        return sum(self.calls)


def run_pass(prep: Prepared, tracer=None, probe=None) -> tuple[PassTime, list[Outcome]]:
    """One pass over the call list; returns its timing and outcomes.

    Each call gets a fresh copy of its graph, so no pass reuses adjacency
    data that an earlier pass cached on the Graph object, and each pass
    starts with the garbage of the previous one collected. `probe`, if
    given, is run before each call and after the last one, outside the
    timed parts, and its results go to PassTime.probes.
    """
    timing = PassTime()
    outcomes = []
    gc.collect()
    for call in prep.workload.calls:
        if probe:
            timing.probes.append(probe())
        src = prep.graphs[call.graph]
        g = Graph(src.n, src.edges)
        t0, c0 = time.perf_counter(), time.process_time()
        try:
            outcome = invoke(call, g, prep, tracer)
        except Exception as exc:  # a failed call is counted, not fatal
            traceback.print_exc(file=sys.stderr)
            outcome = Outcome(error=f"{type(exc).__name__}: {exc}")
        timing.wall += time.perf_counter() - t0
        timing.calls.append(time.process_time() - c0)
        outcomes.append(outcome)
    if probe:
        timing.probes.append(probe())
    return timing, outcomes


def digest(outcome: Outcome) -> str:
    """Hash of the sorted cliques, rounds_by_phase and messages_by_phase."""
    doc = {"cliques": sorted(outcome.cliques),
           "rounds_by_phase": outcome.rounds_by_phase,
           "messages_by_phase": outcome.messages_by_phase}
    return hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()[:16]


class Gate:
    """Checks every call against the oracle and against the first pass.

    A call fails when it raised, recorded a budget violation, returned a
    clique set other than the oracle's, or charged other rounds or messages
    than the same call did in the first pass. Of the first pass it keeps only
    the charges and a one-line summary per call, so no clique set outlives
    its pass.
    """

    def __init__(self, prep: Prepared):
        self.prep = prep
        self.attempted = 0
        self.failures: dict[str, int] = {"raised": 0, "violation": 0, "mismatch": 0,
                                         "nondeterministic": 0}
        self.charges: list[tuple] | None = None
        self.summaries: list[str] = []

    @property
    def failed(self) -> int:
        return sum(self.failures.values())

    def verdict(self, index: int, outcome: Outcome) -> str | None:
        call = self.prep.workload.calls[index]
        if outcome.error:
            return "raised"
        if outcome.violations:
            return "violation"
        if set(outcome.cliques) != self.prep.oracle[(call.graph, call.p)]:
            return "mismatch"
        if (outcome.rounds_by_phase, outcome.messages_by_phase) != self.charges[index]:
            return "nondeterministic"
        return None

    def check(self, outcomes: list[Outcome]) -> None:
        if self.charges is None:
            self.charges = [(o.rounds_by_phase, o.messages_by_phase) for o in outcomes]
            self.summaries = [summary(o) for o in outcomes]
        for i, outcome in enumerate(outcomes):
            self.attempted += 1
            kind = self.verdict(i, outcome)
            if kind is not None:
                self.failures[kind] += 1


def summary(outcome: Outcome) -> str:
    if outcome.error:
        return f"raised {outcome.error}"
    return (f"cliques={len(outcome.cliques)} rounds={outcome.total_rounds} "
            f"messages={sum(outcome.messages_by_phase.values())} digest={digest(outcome)}")


def simulated(outcomes: list[Outcome]) -> dict[str, int]:
    """The paper's cost metrics of one pass; deterministic for a seed."""
    return {
        "sim_rounds": sum(o.total_rounds for o in outcomes),
        "sim_messages": sum(sum(o.messages_by_phase.values())
                            for o in outcomes if o.messages_by_phase),
        "max_node_load": max((o.max_received for o in outcomes), default=0),
    }


def supported_percentile(samples: int) -> int | None:
    """The highest whole percentile with at least ten samples beyond it."""
    if samples <= 10:
        return None
    return int(100 * (1 - 10 / samples))
