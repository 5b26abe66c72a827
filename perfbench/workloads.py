"""The four listing workloads of the benchmark.

Each workload is a closed loop with one caller: a pass runs its call list
back to back, and the next pass starts only when the previous one ends.
Graph seeds derive from the workload seed, so the same seed gives the same
graphs, and the listing drivers receive the workload seed as their run seed.
BENCHMARK.json and the README say why each workload exists.

Random graphs are G(n, m) with m = round(q * n(n-1)/2) edges rather than
G(n, q): the edge count of G(n, q) moves the number of K_4 by about 7% from
seed to seed at n = 192, q = 0.3, which would swamp the benchmark's bounds.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from congestlist import graphs
from congestlist.graphs import Graph


@dataclass(frozen=True)
class GraphSpec:
    kind: str              # "gnm" or "planted"
    args: tuple            # gnm: (n, q); planted: (n, clique_size, count, q)

    def label(self) -> str:
        return f"{self.kind}({', '.join(str(a) for a in self.args)})"

    def generate(self, seed: int) -> Graph:
        if self.kind == "planted":
            return graphs.planted(*self.args, seed)
        return gnm(*self.args, seed)


def gnm(n: int, q: float, seed: int) -> Graph:
    """Uniform random graph with exactly round(q * n(n-1)/2) edges."""
    rng = np.random.default_rng(seed)
    iu, iv = np.triu_indices(n, k=1)
    pick = np.sort(rng.choice(iu.size, size=round(q * iu.size), replace=False))
    return Graph(n, frozenset(zip(iu[pick].tolist(), iv[pick].tolist())))


@dataclass(frozen=True)
class Call:
    driver: str            # "cc_list_kp", "congest_list_kp" or "congest_list_k4"
    graph: int             # index into Workload.graphs
    p: int


@dataclass(frozen=True)
class Workload:
    name: str
    graphs: tuple[GraphSpec, ...]
    calls: tuple[Call, ...]
    # SimConfig overrides and keyword arguments shared by every call
    config: dict = field(default_factory=dict)
    call_kwargs: dict = field(default_factory=dict)


FORCED = {"forced_depth": 2, "eps0_fraction": Fraction(1, 2)}

WORKLOADS: dict[str, Workload] = {w.name: w for w in (
    Workload(
        "cc-dense",
        graphs=(GraphSpec("gnm", (160, 0.3)), GraphSpec("gnm", (224, 0.3))),
        calls=(Call("cc_list_kp", 0, 4), Call("cc_list_kp", 1, 3)),
    ),
    Workload(
        "cc-sparse",
        graphs=(GraphSpec("gnm", (512, 0.03)), GraphSpec("gnm", (512, 0.02)),
                GraphSpec("gnm", (384, 0.05))),
        calls=(Call("cc_list_kp", 0, 4), Call("cc_list_kp", 1, 3),
               Call("cc_list_kp", 2, 4)),
    ),
    Workload(
        "congest-clusters",
        # kp and k4 get independent draws: a run's rounds are a maximum over
        # clusters, and independent graphs average that out
        graphs=(GraphSpec("planted", (256, 20, 8, 0.004)),
                GraphSpec("planted", (256, 20, 8, 0.004)),
                GraphSpec("planted", (256, 14, 12, 0.003)),
                GraphSpec("planted", (256, 16, 12, 0.004)),
                GraphSpec("planted", (256, 16, 12, 0.004))),
        calls=(Call("congest_list_kp", 0, 4), Call("congest_list_k4", 1, 4),
               Call("congest_list_kp", 2, 4), Call("congest_list_kp", 3, 4),
               Call("congest_list_kp", 4, 4)),
        config={"heavy_factor": 0.25},
        call_kwargs=FORCED,
    ),
    Workload(
        "congest-flood",
        graphs=(GraphSpec("gnm", (224, 0.3)),),
        calls=(Call("congest_list_kp", 0, 4), Call("congest_list_kp", 0, 5),
               Call("congest_list_k4", 0, 4)),
    ),
)}


def graph_seed(workload_seed: int, index: int) -> int:
    """A 32-bit generator seed for graph `index`, fixed by the workload seed."""
    return int(np.random.SeedSequence((workload_seed, index)).generate_state(1)[0])
