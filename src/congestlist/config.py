"""Tunable constants for the simulator and the listing pipelines.

Every threshold in the pipelines has the shape ``factor * n**exponent``.
The exponents are fixed by the algorithms; the factors live here so that
small test graphs (n <= 512) can exercise every branch. Factors can be
overridden per run via keyword overrides, a config file, or environment
variables prefixed with ``CONGESTLIST_`` (e.g. ``CONGESTLIST_LOAD_CAP_FACTOR``).
"""

from __future__ import annotations

import dataclasses
import math
import os
from dataclasses import dataclass

_ENV_PREFIX = "CONGESTLIST_"


def ceil_log2(n: int) -> int:
    """ceil(log2 n) for n >= 1; the per-field message budget in bits."""
    if n <= 1:
        return 1
    return (n - 1).bit_length()


def polylog(n: int) -> int:
    """The polylog(n) unit used for charged round costs: ceil(log2 n)^2."""
    return ceil_log2(n) ** 2


@dataclass(frozen=True)
class SimConfig:
    # --- engine ---
    # Bits per edge per direction per round, in units of ceil(log2 n).
    # Interpreted as ceil(bandwidth_factor / message_words) messages; the
    # default equals message_words, i.e. exactly one message per edge per
    # direction per round.
    bandwidth_factor: float = 3.0
    message_words: int = 3
    # Charged cost of routing L messages inside a cluster:
    # routing_polylog_factor * ceil(L / n^delta). None -> ceil(log2 n)^2.
    routing_polylog_factor: float | None = None
    # Per-node load cap inside a cluster: load_cap_factor * n^delta * polylog(n).
    load_cap_factor: float = 64.0

    # --- decomposition ---
    decomposition_factor: float = 1.0      # charged rounds: factor * n^(1-delta) * polylog(n)
    min_degree_factor: float = 0.5         # cluster min degree >= factor * n^delta
    phi_min: float | None = None           # conductance floor; None -> 1/(4*log2 n)
    dense_spectral_edge_limit: int = 2 ** 14
    exact_conductance_node_limit: int = 14

    # --- cluster pipeline ---
    heavy_factor: float = 1.0              # heavy iff g_vC > heavy_factor * n^(1/4)
    light_factor: float = 100.0            # bad iff u_light > light_factor * sqrt(n) * log2 n
    learn_factor: float = 8.0              # learn cap: factor * n^(d + 3/4)
    owner_cap_factor: float = 16.0         # owner cap: factor * n^d * ceil(n/k)

    # --- sparsity-aware listing ---
    fake_density_factor: float = 20.0      # pad until m / n^(1/p) = factor * n * log2 n
    receive_budget_factor: float = 16.0    # receive cap: factor * p^2 * m_padded / num_parts^2

    # --- schedules ---
    broadcast_cap: float = 4.0             # terminal broadcast rounds <= cap * n^d_k

    def resolved_phi_min(self, n: int) -> float:
        if self.phi_min is not None:
            return self.phi_min
        return 1.0 / (4.0 * max(1, ceil_log2(n)))

    def resolved_routing_factor(self, n: int) -> float:
        if self.routing_polylog_factor is not None:
            return self.routing_polylog_factor
        return float(polylog(n))

    def messages_per_edge_per_round(self) -> int:
        return max(1, math.ceil(self.bandwidth_factor / self.message_words))

    def replace(self, **overrides) -> "SimConfig":
        return dataclasses.replace(self, **overrides)


def _coerce(field: dataclasses.Field, raw: str):
    if raw.lower() in ("none", "null", ""):
        return None
    if field.type in ("int", int):
        return int(raw)
    return float(raw)


def config_from_env(base: SimConfig | None = None) -> SimConfig:
    """Apply CONGESTLIST_* environment overrides on top of ``base``."""
    cfg = base or SimConfig()
    overrides = {}
    for field in dataclasses.fields(SimConfig):
        raw = os.environ.get(_ENV_PREFIX + field.name.upper())
        if raw is not None:
            overrides[field.name] = _coerce(field, raw)
    return cfg.replace(**overrides) if overrides else cfg


def apply_factor_overrides(cfg: SimConfig, pairs: dict[str, float]) -> SimConfig:
    """Override config fields by name; unknown keys raise KeyError."""
    names = {f.name for f in dataclasses.fields(SimConfig)}
    bad = set(pairs) - names
    if bad:
        raise KeyError(f"unknown config keys: {sorted(bad)}")
    ints = {f.name for f in dataclasses.fields(SimConfig) if f.type in ("int", int)}
    coerced = {k: (int(v) if k in ints else v) for k, v in pairs.items()}
    return cfg.replace(**coerced)
