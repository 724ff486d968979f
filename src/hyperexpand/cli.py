"""Command-line surface: generate, analyze, verify, rewire, train.

Every output file embeds the effective flag set under "config" plus the
tool version, so any artifact can be regenerated from its own header.
Exit codes: 0 success, 1 usage or input error, 2 retry budget exhausted,
3 numerical failure.

JSON payloads use fixed key order and 17-significant-digit floats for
golden-file stability.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import __version__
from .construct import GeneratorConfig, RetryBudgetExhausted, k_regular_bipartite, ramanujan_bipartite
from .graphs import GraphError
from .oracle import OracleDomainError, verify_bounds
from .rewire import augment
from .serialize import bipartite_to_dict, dumps_canonical, edgelist_dumps, load_graph_file
from .spectral import EigensolverError, NotRegularError, analyze
from .gnn import HyperedgeMode, TrainConfig, TrainingDiverged, train

TOOL_VERSION = __version__

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_BUDGET = 2
EXIT_NUMERIC = 3


class _CliParser(argparse.ArgumentParser):
    """argparse uses exit code 2 for usage errors; the contract wants 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _emit(payload: dict, out: str | None) -> None:
    text = dumps_canonical(payload) + "\n"
    if out is None:
        sys.stdout.write(text)
    else:
        Path(out).write_text(text)


def _emit_text(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        Path(out).write_text(text)


def _envelope(config: dict, result: dict) -> dict:
    return {"config": config, "tool_version": TOOL_VERSION, "result": result}


def _tri_state(value: str) -> bool | None:
    return {"auto": None, "yes": True, "no": False}[value]


def _cmd_generate(args) -> int:
    cfg = GeneratorConfig(
        n=args.n,
        k=args.k,
        seed=args.seed,
        max_matching_retries=args.max_matching_retries,
        max_ramanujan_attempts=args.max_ramanujan_attempts,
        require_connected=_tri_state(args.require_connected),
        tolerance=args.tolerance,
    )
    config = {
        "subcommand": "generate",
        "n": cfg.n,
        "k": cfg.k,
        "seed": cfg.seed,
        "ramanujan": bool(args.ramanujan),
        "require_connected": args.require_connected,
        "max_matching_retries": cfg.max_matching_retries,
        "max_ramanujan_attempts": cfg.max_ramanujan_attempts,
        "tolerance": cfg.tolerance,
        "format": args.format,
    }
    if args.ramanujan:
        expander, attempts, report = ramanujan_bipartite(cfg)
        result = {
            "expander": bipartite_to_dict(expander),
            "attempts": attempts,
            "report": report.to_dict(),
        }
    else:
        expander = k_regular_bipartite(cfg)
        result = {"expander": bipartite_to_dict(expander)}
    if args.format == "edgelist":
        header = (
            f"# config: {dumps_canonical(config)}\n# tool_version: {TOOL_VERSION}\n"
        )
        _emit_text(header + edgelist_dumps(expander.to_graph()), args.out)
    else:
        _emit(_envelope(config, result), args.out)
    return EXIT_OK


def _cmd_analyze(args) -> int:
    g = load_graph_file(args.input)
    report = analyze(g, tolerance=args.tolerance, method=args.method)
    config = {
        "subcommand": "analyze",
        "in": args.input,
        "tolerance": args.tolerance,
        "method": args.method,
    }
    _emit(_envelope(config, report.to_dict()), args.out)
    return EXIT_OK


def _cmd_verify(args) -> int:
    g = load_graph_file(args.input)
    report = verify_bounds(g, tolerance=args.tolerance)
    config = {"subcommand": "verify", "in": args.input, "tolerance": args.tolerance}
    _emit(_envelope(config, report.to_dict()), args.out)
    return EXIT_OK


def _cmd_rewire(args) -> int:
    g = load_graph_file(args.input)
    if g.n < 1:
        raise GraphError("cannot rewire the empty graph")
    cfg = GeneratorConfig(n=g.n, k=min(args.k, g.n), seed=args.seed, tolerance=args.tolerance)
    inst = augment(g, cfg, num_layers=args.layers, ramanujan=args.ramanujan)
    config = {
        "subcommand": "rewire",
        "in": args.input,
        "k": args.k,
        "seed": args.seed,
        "layers": args.layers,
        "ramanujan": bool(args.ramanujan),
        "tolerance": args.tolerance,
    }
    _emit(_envelope(config, inst.to_dict()), args.out)
    return EXIT_OK


def _parse_seeds(args) -> list[int]:
    if args.seeds:
        try:
            return [int(s) for s in args.seeds.split(",") if s.strip() != ""]
        except ValueError:
            raise ValueError(f"--seeds expects comma-separated integers, got {args.seeds!r}")
    return [args.seed]


def _csv_path(template: str, seed: int, multi: bool) -> str:
    if "{seed}" in template:
        return template.format(seed=seed)
    if multi:
        p = Path(template)
        return str(p.with_name(f"{p.stem}-seed{seed}{p.suffix}"))
    return template


def _cmd_train(args) -> int:
    seeds = _parse_seeds(args)
    if not seeds:
        raise ValueError("--seeds gave no seeds")
    mode = HyperedgeMode(args.mode)
    config = {
        "subcommand": "train",
        "depth": args.depth,
        "layers": args.layers,
        "hidden": args.hidden,
        "lr": args.lr,
        "epochs": args.epochs,
        "batch_size": args.batch_size,
        "dataset_size": args.dataset_size,
        "seeds": seeds,
        "rewire": bool(args.rewire),
        "k": args.k,
        "mode": args.mode,
        "optimizer": args.optimizer,
    }
    runs = []
    for seed in seeds:
        cfg = TrainConfig(
            depth=args.depth,
            num_layers=args.layers,
            hidden_dim=args.hidden,
            learning_rate=args.lr,
            epochs=args.epochs,
            batch_size=args.batch_size,
            seed=seed,
            rewire=args.rewire,
            expander_k=args.k,
            hyperedge_mode=mode,
            dataset_size=args.dataset_size,
            optimizer=args.optimizer,
        )
        result = train(cfg)
        first_perfect = next(
            (e + 1 for e, acc in enumerate(result.accuracies) if acc >= 1.0), None
        )
        runs.append(
            {
                "seed": seed,
                "final_loss": result.final_loss,
                "final_accuracy": result.final_accuracy,
                "first_perfect_epoch": first_perfect,
                "epochs": args.epochs,
            }
        )
        if args.csv:
            rows = ["epoch,loss,accuracy"]
            for e, (loss, acc) in enumerate(zip(result.losses, result.accuracies), start=1):
                rows.append(f"{e},{loss:.17g},{acc:.17g}")
            path = _csv_path(args.csv, seed, len(seeds) > 1)
            Path(path).write_text("\n".join(rows) + "\n")
    _emit(_envelope(config, {"runs": runs}), args.out)
    return EXIT_OK


def build_parser() -> _CliParser:
    parser = _CliParser(prog="hyperexpand", description=__doc__.splitlines()[0])
    parser.add_argument("--version", action="version", version=f"hyperexpand {TOOL_VERSION}")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("generate", help="sample a k-regular bipartite expander")
    p.add_argument("--n", type=int, required=True, help="side size")
    p.add_argument("--k", type=int, required=True, help="regularity (number of matchings)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--ramanujan", action="store_true", help="rejection-sample on lambda <= 2 sqrt(k-1)")
    p.add_argument("--require-connected", choices=["auto", "yes", "no"], default="auto")
    p.add_argument("--max-matching-retries", type=int, default=1000)
    p.add_argument("--max-ramanujan-attempts", type=int, default=200)
    p.add_argument("--tolerance", type=float, default=1e-8)
    p.add_argument("--format", choices=["json", "edgelist"], default="json")
    p.add_argument("--out", default=None, help="output path (default stdout)")
    p.set_defaults(func=_cmd_generate)

    p = sub.add_parser("analyze", help="spectral report for a regular graph")
    p.add_argument("--in", dest="input", required=True, help="graph file (json or edge list)")
    p.add_argument("--tolerance", type=float, default=1e-8)
    p.add_argument("--method", choices=["auto", "lapack", "jacobi"], default="auto")
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser("verify", help="check spectral bounds against brute force (n <= 24)")
    p.add_argument("--in", dest="input", required=True)
    p.add_argument("--tolerance", type=float, default=1e-8)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("rewire", help="augment a graph with a hyperedge-node expander overlay")
    p.add_argument("--in", dest="input", required=True)
    p.add_argument("--k", type=int, default=3)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--layers", type=int, default=6)
    p.add_argument("--ramanujan", action="store_true")
    p.add_argument("--tolerance", type=float, default=1e-8)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_rewire)

    p = sub.add_parser("train", help="train a GIN on Tree-NeighborsMatch")
    p.add_argument("--depth", type=int, default=2)
    p.add_argument("--layers", type=int, default=3)
    p.add_argument("--hidden", type=int, default=32)
    p.add_argument("--lr", type=float, default=0.01)
    p.add_argument("--epochs", type=int, default=500)
    p.add_argument("--batch-size", type=int, default=0, help="0 means full batch")
    p.add_argument("--dataset-size", type=int, default=1000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seeds", default=None, help="comma-separated list; overrides --seed")
    p.add_argument("--rewire", action="store_true")
    p.add_argument("--k", type=int, default=3, help="expander regularity when rewiring")
    p.add_argument("--mode", choices=["learned", "summation"], default="summation")
    p.add_argument("--optimizer", choices=["sgd", "adam"], default="sgd")
    p.add_argument("--csv", default=None, help="metrics CSV path; '{seed}' is substituted")
    p.add_argument("--out", default=None, help="summary JSON path (default stdout)")
    p.set_defaults(func=_cmd_train)
    return parser


def entry(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return EXIT_OK if e.code == 0 else EXIT_USAGE
    try:
        return args.func(args)
    except RetryBudgetExhausted as e:
        print(f"hyperexpand: budget exhausted: {e}", file=sys.stderr)
        return EXIT_BUDGET
    except (EigensolverError, TrainingDiverged, FloatingPointError) as e:
        print(f"hyperexpand: numerical failure: {e}", file=sys.stderr)
        return EXIT_NUMERIC
    except (
        GraphError,
        NotRegularError,
        OracleDomainError,
        ValueError,
        OSError,
        json.JSONDecodeError,
    ) as e:
        print(f"hyperexpand: error: {e}", file=sys.stderr)
        return EXIT_USAGE


def main() -> None:
    sys.exit(entry())
