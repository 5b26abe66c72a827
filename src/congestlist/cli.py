"""Batch front-end: generate or load graphs, run a listing mode, verify
against the brute-force oracle, and emit machine-readable reports.

Exit codes: 0 success (and verification passed, when requested); 1 verify
mismatch or contract failure; 2 configuration error; 3 protocol budget
violation.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import statistics
import sys
from fractions import Fraction

from .config import SimConfig, apply_factor_overrides, config_from_env
from .decomposition import DecompositionError, expander_decompose, verify_decomposition
from .engine import BudgetViolation, ProtocolError
from .graphs import (
    Graph,
    brute_force_list_kp,
    clique_fields,
    gnp,
    parse_gen_spec,
    read_edge_list,
)
from .pipeline import REPORT_SCHEMA, _config_echo, congest_list_k4, congest_list_kp
from .sparse_listing import cc_list_kp

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_CONFIG_ERROR = 2
EXIT_BUDGET_VIOLATION = 3

MODES = ("cc", "congest", "congest-k4", "decompose", "verify", "bench")


class ConfigError(Exception):
    pass


class BenchInterrupted(Exception):
    """A bench instance broke a budget; `rows` were finished before it."""

    def __init__(self, rows: list[dict], message: str):
        super().__init__(message)
        self.rows = rows


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="congestlist",
        description="CONGEST / congested-clique K_p listing simulator")
    parser.add_argument("--mode", choices=MODES, help="what to run")
    parser.add_argument("--p", type=int, help="clique size (>= 3)")
    parser.add_argument("--gen", help="generator spec, e.g. gnp:80:0.3:17")
    parser.add_argument("--graph", help="edge-list file ('n m' header, 'u v [tail]' lines)")
    parser.add_argument("--seed", type=int, help="run seed (default 0)")
    parser.add_argument("--config", help="JSON or flat key=value config file")
    parser.add_argument("--verify", action="store_true",
                        help="check the output against the brute-force oracle")
    parser.add_argument("--emit", help="write the results JSON here")
    parser.add_argument("--emit-csv", help="write (phase, rounds, messages) rows here")
    parser.add_argument("--forced-depth", type=int,
                        help="run this many outer steps regardless of the stop rule")
    parser.add_argument("--eps0", help="schedule step override as a fraction, e.g. 1/2")
    parser.add_argument("--delta", type=float,
                        help="decomposition exponent for --mode decompose")
    parser.add_argument("--factor", action="append", default=[],
                        metavar="KEY=VAL", help="override a config factor")
    parser.add_argument("--sweep", help="bench sweep spec (JSON file) for --mode bench")
    return parser


def _parse_flat_config(text: str) -> dict:
    out = {}
    for line in text.splitlines():
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"bad config line: {line!r}")
        key, raw = (part.strip() for part in line.split("=", 1))
        raw = raw.strip("\"'")
        if raw.lower() in ("true", "false"):
            out[key] = raw.lower() == "true"
        else:
            try:
                out[key] = int(raw)
            except ValueError:
                try:
                    out[key] = float(raw)
                except ValueError:
                    out[key] = raw
    return out


def load_config_file(path: str) -> dict:
    with open(path) as fh:
        text = fh.read()
    if path.endswith(".json"):
        return json.loads(text)
    try:
        return json.loads(text)
    except json.JSONDecodeError:
        return _parse_flat_config(text)


RUN_KEYS = ("mode", "p", "gen", "graph", "seed", "verify", "emit", "emit_csv",
            "forced_depth", "eps0", "delta", "sweep")


def merge_settings(args: argparse.Namespace) -> tuple[dict, SimConfig]:
    """Defaults < config file < flags; returns (run settings, sim config)."""
    settings: dict = {"seed": 0, "verify": False, "delta": 2.0 / 3.0}
    factor_overrides: dict = {}
    if args.config:
        file_cfg = load_config_file(args.config)
        for key, value in file_cfg.items():
            norm = key.replace("-", "_")
            if norm in RUN_KEYS:
                settings[norm] = value
            else:
                factor_overrides[norm] = value
    for key in RUN_KEYS:
        flag = getattr(args, key, None)
        # 0 is a value (--forced-depth 0); only an unset flag is skipped, and
        # an unset store_true flag is the identical False
        if flag is not None and flag is not False and flag != []:
            settings[key] = flag
    for pair in args.factor:
        if "=" not in pair:
            raise ConfigError(f"--factor expects KEY=VAL, got {pair!r}")
        key, raw = pair.split("=", 1)
        try:
            factor_overrides[key.strip()] = float(raw)
        except ValueError as exc:
            raise ConfigError(f"--factor {pair!r}: {exc}") from exc
    cfg = config_from_env()
    if factor_overrides:
        try:
            cfg = apply_factor_overrides(cfg, factor_overrides)
        except (KeyError, ValueError, TypeError) as exc:
            raise ConfigError(str(exc)) from exc
    bad = [f.name for f in dataclasses.fields(SimConfig)
           if isinstance(getattr(cfg, f.name), (int, float))
           and getattr(cfg, f.name) <= 0]
    if bad:
        raise ConfigError(f"factors must be positive: {bad}")
    # out-of-range schedule settings would silently run another schedule
    depth, eps0 = settings.get("forced_depth"), settings.get("eps0")
    if depth is not None and int(depth) < 0:
        raise ConfigError(f"forced_depth must be >= 0, got {depth}")
    if eps0 is not None and not 0 < Fraction(eps0) < 1:
        raise ConfigError(f"eps0 must lie in (0, 1), got {eps0}")
    return settings, cfg


def resolve_graph(settings: dict) -> Graph:
    gen, path = settings.get("gen"), settings.get("graph")
    if bool(gen) == bool(path):
        raise ConfigError("exactly one graph source (--gen or --graph) required")
    if gen:
        return parse_gen_spec(gen)
    return read_edge_list(path)


# output destinations are not run parameters; echoing them would break
# byte-identical reports across repetitions
ECHO_KEYS = tuple(k for k in RUN_KEYS if k not in ("emit", "emit_csv"))


def run_mode(settings: dict, cfg: SimConfig) -> tuple[dict, int]:
    """Execute one run; returns (report dict, exit code)."""
    mode = settings.get("mode")
    if mode not in MODES:
        raise ConfigError(f"--mode must be one of {MODES}")
    if mode == "bench":
        raise ConfigError("bench mode is dispatched separately")
    g = resolve_graph(settings)
    seed = int(settings.get("seed", 0))
    p = settings.get("p")
    eps0 = Fraction(settings["eps0"]) if settings.get("eps0") else None
    forced_depth = settings.get("forced_depth")
    config = _config_echo(cfg, **{k: settings.get(k) for k in ECHO_KEYS})

    def failure(exc: Exception, code: int = EXIT_VERIFY_FAILED) -> tuple[dict, int]:
        return {"schema": REPORT_SCHEMA, "mode": mode, "error": str(exc),
                "config": config}, code

    if mode == "decompose":
        delta = float(settings.get("delta"))
        try:
            part = expander_decompose(g, delta, cfg)
        except DecompositionError as exc:
            return failure(exc)
        report = verify_decomposition(g, part, cfg)
        out = {
            "schema": REPORT_SCHEMA, "mode": mode, "n": g.n, "m": g.m,
            "partition": part.to_json(),
            "verification": report.to_json(),
            "config": config,
        }
        return out, EXIT_OK if report.ok else EXIT_VERIFY_FAILED

    if p is None and mode == "congest-k4":
        p = 4
    if p is None:
        raise ConfigError("--p is required for listing modes")
    p = int(p)
    if p < 3:
        raise ConfigError("--p must be >= 3")

    if mode == "verify":
        out = {
            "schema": REPORT_SCHEMA, "mode": mode, "n": g.n, "m": g.m, "p": p,
            **clique_fields(sorted(brute_force_list_kp(g, p))),
            "config": config,
        }
        return out, EXIT_OK

    if mode == "cc":
        try:
            cliques, acc = cc_list_kp(g, p, seed, cfg)
        except BudgetViolation as exc:
            return failure(exc, EXIT_BUDGET_VIOLATION)
        out = {
            "schema": REPORT_SCHEMA, "mode": mode, "n": g.n, "m": g.m, "p": p, "seed": seed,
            **clique_fields(sorted(cliques)),
            "accounting": acc.to_json(),
            "rounds_by_phase": dict(acc.rounds_by_phase),
            "total_rounds": acc.total_rounds(),
            "config": config,
        }
        result_set = set(cliques)
    else:
        if mode == "congest" and p < 4:
            raise ConfigError("congest mode needs --p >= 4 (use cc for K_3)")
        if mode == "congest-k4" and p != 4:
            raise ConfigError("congest-k4 mode fixes p = 4")
        try:
            if mode == "congest":
                report = congest_list_kp(g, p, seed, cfg, forced_depth=forced_depth,
                                         eps0_fraction=eps0)
            else:
                report = congest_list_k4(g, seed, cfg, forced_depth=forced_depth,
                                         eps0_fraction=eps0)
        except (DecompositionError, ProtocolError) as exc:
            return failure(exc)
        except BudgetViolation as exc:
            return failure(exc, EXIT_BUDGET_VIOLATION)
        out = {**report.to_json(), "config": config}
        result_set = report.clique_set()
        if report.violations:
            return out, EXIT_BUDGET_VIOLATION

    if settings.get("verify"):
        expected = brute_force_list_kp(g, p)
        out["verified"] = result_set == expected
        out["oracle_count"] = len(expected)
        if result_set != expected:
            return out, EXIT_VERIFY_FAILED
    return out, EXIT_OK


def emit_outputs(out: dict, settings: dict) -> None:
    if settings.get("emit"):
        text = json.dumps(out, indent=2, sort_keys=True)
        with open(settings["emit"], "w") as fh:
            fh.write(text + "\n")
    if settings.get("emit_csv"):
        rounds = out.get("rounds_by_phase") or out.get("accounting", {}).get(
            "rounds_by_phase", {})
        messages = (out.get("accounting", {}).get("messages_by_phase")
                    or out.get("notes", {}).get("messages_by_phase") or {})
        with open(settings["emit_csv"], "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["phase", "rounds", "messages"])
            for phase in sorted(rounds):
                writer.writerow([phase, rounds[phase], messages.get(phase, 0)])


# ---------------------------------------------------------------------------
# bench
# ---------------------------------------------------------------------------

def bench(sweep: dict, cfg: SimConfig) -> list[dict]:
    """Run a sweep and report median rounds/load per (n, mode, phase); a
    budget violation raises `BenchInterrupted` naming the (n, mode, rep)."""
    ns = sweep.get("n", [])
    density = float(sweep.get("density", 0.3))
    reps = int(sweep.get("reps", 1))
    modes = sweep.get("modes", [sweep.get("mode", "cc")])
    p = int(sweep.get("p", 3))
    base_seed = int(sweep.get("base_seed", 0))
    rows: list[dict] = []
    for n in ns:
        for mode in modes:
            per_phase: dict[str, list[tuple[int, int, int]]] = {}
            for rep in range(reps):
                seed = base_seed + rep
                g = gnp(int(n), density, seed)
                try:
                    if mode == "cc":
                        _, acc = cc_list_kp(g, p, seed, cfg)
                        phases = acc.rounds_by_phase
                        max_load = max(acc.received.values(), default=0)
                    else:
                        rep_out = (congest_list_kp(g, max(4, p), seed, cfg)
                                   if mode == "congest" else congest_list_k4(g, seed, cfg))
                        phases = rep_out.rounds_by_phase
                        max_load = rep_out.notes.get("max_received", 0)
                except BudgetViolation as exc:
                    raise BenchInterrupted(rows, f"n={n} mode={mode} rep={rep}: {exc}") from exc
                for phase, rounds in phases.items():
                    per_phase.setdefault(phase, []).append(
                        (g.m, rounds, max_load))
            for phase, samples in sorted(per_phase.items()):
                rows.append({
                    "n": int(n),
                    "m": int(statistics.median(s[0] for s in samples)),
                    "mode": mode,
                    "phase": phase,
                    "rounds": int(statistics.median(s[1] for s in samples)),
                    "max_load": int(statistics.median(s[2] for s in samples)),
                })
    return rows


def write_bench_csv(rows: list[dict], path: str) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["n", "m", "mode", "phase", "rounds", "max_load"])
        for row in rows:
            writer.writerow([row["n"], row["m"], row["mode"], row["phase"],
                             row["rounds"], row["max_load"]])


# ---------------------------------------------------------------------------
# entry points
# ---------------------------------------------------------------------------

def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        settings, cfg = merge_settings(args)
        if settings.get("mode") == "bench":
            if not settings.get("sweep"):
                raise ConfigError("bench mode needs --sweep FILE")
            with open(settings["sweep"]) as fh:
                sweep = json.load(fh)
            try:
                rows, code = bench(sweep, cfg), EXIT_OK
            except BenchInterrupted as exc:
                print(f"budget violation: {exc}", file=sys.stderr)
                rows, code = exc.rows, EXIT_BUDGET_VIOLATION
            if settings.get("emit_csv"):
                write_bench_csv(rows, settings["emit_csv"])
            else:
                for row in rows:
                    print(json.dumps(row, sort_keys=True))
            return code
        out, code = run_mode(settings, cfg)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG_ERROR
    except (ValueError, FileNotFoundError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG_ERROR
    except BudgetViolation as exc:
        print(f"budget violation: {exc}", file=sys.stderr)
        return EXIT_BUDGET_VIOLATION
    emit_outputs(out, settings)
    if not settings.get("emit"):
        summary = {k: out[k] for k in ("mode", "n", "p", "clique_count",
                                       "total_rounds", "error") if k in out}
        print(json.dumps(summary, sort_keys=True))
    return code


def cc_list_main(argv=None) -> int:
    """`cc-list`: the congested-clique mode as its own command."""
    argv = list(sys.argv[1:] if argv is None else argv)
    return main(["--mode", "cc"] + argv)


if __name__ == "__main__":
    sys.exit(main())
