"""Spans around the public functions of each congestlist module, recorded
from the benchmark's own files.

A wrapper replaces the attribute that the *calling* module looks up, for
example ``congestlist.cluster_pipeline.enumerate_cliques`` or
``RoundEngine.phase_transfer_counts``, so nothing under ``src/`` changes.
Spans stay in memory (name, start, end, parent) and are written out when the
run ends. A layer's self time is its span time minus the time of its child
spans; calls are single-threaded, so children never overlap. What a wrapper
counts is computed inside a ``trace.count`` span, so that work is neither a
layer's time nor its caller's self time.
"""

from __future__ import annotations

import functools
import inspect
import json
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from dataclasses import dataclass

from congestlist import cluster_pipeline, decomposition, pipeline, sparse_listing
from congestlist.engine import Accounting, RoundEngine


@dataclass
class Span:
    name: str
    parent: int            # index of the enclosing span, -1 for a root
    start: float
    end: float = 0.0


class Tracer:
    """The spans and counters of one traced pass."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counts: Counter = Counter(dict.fromkeys(COUNTS, 0))
        self._stack: list[int] = []
        # distinct cliques listed by enumerate_cliques, per root span
        self._distinct: dict[int, set] = defaultdict(set)

    @contextmanager
    def span(self, name: str):
        index = len(self.spans)
        self.spans.append(Span(name, self._stack[-1] if self._stack else -1,
                               time.perf_counter()))
        self._stack.append(index)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[index].end = time.perf_counter()

    def wrap(self, name: str, fn, count=None):
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
            if count is not None:
                # the tracer's own bookkeeping is a child span of the caller,
                # so it is not charged to the caller's self time
                with self.span(COUNT_SPAN):
                    count(self, signature.bind(*args, **kwargs).arguments, result)
            return result
        return traced

    def note_listed(self, cliques) -> None:
        self.counts["graphs.enumerate_cliques.listed"] += len(cliques)
        self._distinct[self._stack[0] if self._stack else -1].update(cliques)

    def values(self) -> dict[str, float]:
        """Per-layer numbers of this pass, keyed by metric name."""
        child = [0.0] * len(self.spans)
        for s in self.spans:
            if s.parent >= 0:
                child[s.parent] += s.end - s.start
        calls: Counter = Counter()
        total: dict[str, float] = defaultdict(float)
        own: dict[str, float] = defaultdict(float)
        for i, s in enumerate(self.spans):
            calls[s.name] += 1
            total[s.name] += s.end - s.start
            own[s.name] += s.end - s.start - child[i]
        out: dict[str, float] = {}
        for name in SPAN_NAMES:
            out[f"{name}.calls"] = calls[name]
            out[f"{name}.s"] = total[name]
            out[f"{name}.self_s"] = own[name]
        out.update(self.counts)
        out["engine.violations"] = calls["engine.record_violation"]
        out["pipeline.self_s"] = sum(v for k, v in own.items() if k.startswith("pipeline."))
        distinct = sum(len(s) for s in self._distinct.values())
        out["graphs.enumerate_cliques.dup_ratio"] = (
            self.counts["graphs.enumerate_cliques.listed"] / distinct if distinct else 0.0)
        m_real = self.counts["sparse_listing.m_real"]
        out["sparse_listing.pad_ratio"] = (
            self.counts["sparse_listing.m_padded"] / m_real if m_real else 0.0)
        return out

    def records(self) -> list[dict]:
        return [{"name": s.name, "parent": s.parent, "start": s.start, "end": s.end}
                for s in self.spans]


# -- what each wrapper counts, from the bound arguments and the result -------

def _listed(tracer, args, result):
    tracer.note_listed(result)


def _transfer_messages(tracer, args, result):
    tracer.counts["engine.phase_transfer_counts.messages"] += sum(args["counts"].values())


def _routed_messages(tracer, args, result):
    tracer.counts["engine.cluster_route.messages"] += len(args["messages"])


def _partition(tracer, args, result):
    tracer.counts["decomposition.clusters"] += len(result.clusters)
    tracer.counts["decomposition.r_edges"] += len(result.r_edges)


def _heavy(tracer, args, result):
    tracer.counts["cluster_pipeline.heavy_nodes"] += len(result.heavy)


def _learned(tracer, args, result):
    tracer.counts["cluster_pipeline.learned_edges"] += sum(
        len(edges) for edges in result.by_node.values())


def _padding(tracer, args, result):
    notes = result[1].notes
    tracer.counts["sparse_listing.m_real"] += notes.get("m_real", 0)
    tracer.counts["sparse_listing.m_padded"] += notes.get("m_padded", 0)


def _terminal(tracer, args, result):
    # edge_counts ends with "final"; the stage before it is what the
    # terminal broadcast floods
    if "terminal_broadcast" in result.notes:
        tracer.counts["pipeline.terminal_edges"] += result.edge_counts[-2]["edges"]


# (owner whose attribute the caller looks up, attribute, span name, counter)
TARGETS = (
    (sparse_listing, "cc_list_kp", "sparse_listing.cc_list_kp", _padding),
    (pipeline, "congest_list_kp", "pipeline.congest_list_kp", _terminal),
    (pipeline, "congest_list_k4", "pipeline.congest_list_k4", _terminal),
    (pipeline, "list_round", "pipeline.list_round", None),
    (pipeline, "arb_list", "pipeline.arb_list", None),
    (sparse_listing, "enumerate_cliques", "graphs.enumerate_cliques", _listed),
    (cluster_pipeline, "enumerate_cliques", "graphs.enumerate_cliques", _listed),
    (pipeline, "cliques_with_node", "graphs.cliques_with_node", None),
    (cluster_pipeline, "cliques_with_node", "graphs.cliques_with_node", None),
    (pipeline, "degeneracy_orient", "graphs.degeneracy_orient", None),
    (RoundEngine, "phase_transfer", "engine.phase_transfer", None),
    (RoundEngine, "phase_transfer_counts", "engine.phase_transfer_counts",
     _transfer_messages),
    (cluster_pipeline, "cluster_route", "engine.cluster_route", _routed_messages),
    (pipeline, "assign_cluster_ids", "engine.assign_cluster_ids", None),
    (Accounting, "record_violation", "engine.record_violation", None),
    (pipeline, "expander_decompose", "decomposition.expander_decompose", _partition),
    (decomposition, "spectral_gap", "decomposition.spectral_gap", None),
    (sparse_listing, "build_fanout_table", "sparse_listing.build_fanout_table", None),
    (cluster_pipeline, "build_fanout_table", "sparse_listing.build_fanout_table", None),
    (sparse_listing, "sample_fake_edges", "sparse_listing.sample_fake_edges", None),
    (pipeline, "classify", "cluster_pipeline.classify", _heavy),
    (pipeline, "import_outside_edges", "cluster_pipeline.import_outside_edges", _learned),
    (pipeline, "reshuffle", "cluster_pipeline.reshuffle", None),
    (pipeline, "cluster_list_kp", "cluster_pipeline.cluster_list_kp", None),
    (pipeline, "k4_light_listing", "cluster_pipeline.k4_light_listing", None),
)

# counters the wrappers and the harness add to, reported even when zero
COUNTS = (
    "graphs.enumerate_cliques.listed", "engine.phase_transfer_counts.messages",
    "engine.cluster_route.messages", "decomposition.clusters", "decomposition.r_edges",
    "sparse_listing.m_real", "sparse_listing.m_padded", "cluster_pipeline.heavy_nodes",
    "cluster_pipeline.learned_edges", "pipeline.terminal_edges", "cli.report_bytes",
)

# the span around a wrapper's counting; it belongs to no layer
COUNT_SPAN = "trace.count"

# the serialisation span is opened by the harness itself
SPAN_NAMES = tuple(dict.fromkeys(t[2] for t in TARGETS)) + ("cli.report",)


@contextmanager
def installed(tracer: Tracer):
    """Replace every target attribute by its traced wrapper, and restore the
    originals on exit."""
    saved = []
    try:
        for owner, attr, name, count in TARGETS:
            original = getattr(owner, attr)
            saved.append((owner, attr, original))
            setattr(owner, attr, tracer.wrap(name, original, count))
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


def write_spans(path, tracers: list[Tracer]) -> None:
    """One JSON line per span; `pass` numbers the traced passes."""
    with open(path, "w") as fh:
        for k, tracer in enumerate(tracers):
            for record in tracer.records():
                fh.write(json.dumps({"pass": k, **record}) + "\n")
