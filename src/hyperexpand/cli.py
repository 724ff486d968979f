"""Command-line surface: generate, analyze, verify, rewire, train.

Every output file embeds the parsed flags under "config" (all but the
output paths, in the order the parser declares them; train's --seeds
list stands for --seed) plus the tool version, so any artifact can be
regenerated from its own header.
Exit codes: 0 success, 1 usage or input error, 2 retry budget exhausted,
3 numerical failure.

JSON payloads use fixed key order and 17-significant-digit floats for
golden-file stability.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from pathlib import Path

from . import __version__
from .construct import GeneratorConfig, RetryBudgetExhausted, k_regular_bipartite, ramanujan_bipartite
from .graphs import GraphError
from .oracle import OracleDomainError, verify_bounds
from .rewire import augment
from .serialize import bipartite_to_dict, dumps_canonical, edgelist_dumps, load_graph_file
from .spectral import DEFAULT_TOLERANCE, EigensolverError, NotRegularError, analyze
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
    _emit_text(dumps_canonical(payload) + "\n", out)


def _emit_text(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        Path(out).write_text(text)


def _envelope(config: dict, result: dict) -> dict:
    return {"config": config, "tool_version": TOOL_VERSION, "result": result}


def _config(args) -> dict:
    """The "config" echo: the subcommand, then each parsed flag in the
    parser's declaration order under its dest name, --in keyed "in",
    without the output paths (--out, --csv)."""
    return {
        "in" if key == "input" else key: value
        for key, value in vars(args).items()
        if key not in ("func", "out", "csv")
    }


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
    config = _config(args)
    if args.ramanujan:
        expander, attempts, report = ramanujan_bipartite(cfg)
    else:
        expander = k_regular_bipartite(cfg)
    if args.format == "edgelist":
        header = (
            f"# config: {dumps_canonical(config)}\n# tool_version: {TOOL_VERSION}\n"
        )
        _emit_text(header + edgelist_dumps(expander), args.out)
        return EXIT_OK
    result = {"expander": bipartite_to_dict(expander)}
    if args.ramanujan:
        result.update(attempts=attempts, report=report.to_dict())
    _emit(_envelope(config, result), args.out)
    return EXIT_OK


def _cmd_analyze(args) -> int:
    g = load_graph_file(args.input)
    report = analyze(g, tolerance=args.tolerance, method=args.method)
    _emit(_envelope(_config(args), report.to_dict()), args.out)
    return EXIT_OK


def _cmd_verify(args) -> int:
    g = load_graph_file(args.input)
    report = verify_bounds(g, tolerance=args.tolerance)
    _emit(_envelope(_config(args), report.to_dict()), args.out)
    return EXIT_OK


def _cmd_rewire(args) -> int:
    g = load_graph_file(args.input)
    if g.n < 1:
        raise GraphError("cannot rewire the empty graph")
    cfg = GeneratorConfig(n=g.n, k=min(args.k, g.n), seed=args.seed, tolerance=args.tolerance)
    inst = augment(g, cfg, num_layers=args.layers, ramanujan=args.ramanujan)
    _emit(_envelope(_config(args), inst.to_dict()), args.out)
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
        return template.replace("{seed}", str(seed))
    if multi:
        p = Path(template)
        return str(p.with_name(f"{p.stem}-seed{seed}{p.suffix}"))
    return template


def _check_out_path(flag: str, path: str) -> None:
    """Refuse an output path whose directory is missing or that is itself
    a directory, naming the flag and the path."""
    p = Path(path)
    if p.is_dir():
        raise ValueError(f"{flag} {path} is a directory")
    if not p.parent.is_dir():
        raise ValueError(f"{flag} {path}: directory {p.parent} does not exist")


def _cmd_train(args) -> int:
    seeds = _parse_seeds(args)
    if not seeds:
        raise ValueError("--seeds gave no seeds")
    mode = HyperedgeMode(args.mode)
    config = _config(args)
    del config["seed"]
    config["seeds"] = seeds  # the parsed list, in --seeds' place
    csv_paths = [_csv_path(args.csv, seed, len(seeds) > 1) if args.csv else None for seed in seeds]
    # checked before the first epoch, so a bad path costs no run
    for flag, path in [("--out", args.out), *(("--csv", path) for path in csv_paths)]:
        if path is not None:
            _check_out_path(flag, path)
    runs = []
    for seed, csv_path in zip(seeds, csv_paths):
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
        if csv_path is not None:
            rows = ["epoch,loss,accuracy"]
            for e, (loss, acc) in enumerate(zip(result.losses, result.accuracies), start=1):
                rows.append(f"{e},{loss:.17g},{acc:.17g}")
            Path(csv_path).write_text("\n".join(rows) + "\n")
    _emit(_envelope(config, {"runs": runs}), args.out)
    return EXIT_OK


@functools.cache
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
    p.add_argument("--max-matching-retries", type=int, default=GeneratorConfig.max_matching_retries)
    p.add_argument("--max-ramanujan-attempts", type=int, default=GeneratorConfig.max_ramanujan_attempts)
    p.add_argument("--tolerance", type=float, default=DEFAULT_TOLERANCE)
    p.add_argument("--format", choices=["json", "edgelist"], default="json")
    p.add_argument("--out", default=None, help="output path (default stdout)")
    p.set_defaults(func=_cmd_generate)

    p = sub.add_parser("analyze", help="spectral report for a regular graph")
    p.add_argument("--in", dest="input", required=True, help="graph file (json or edge list)")
    p.add_argument("--tolerance", type=float, default=DEFAULT_TOLERANCE)
    p.add_argument("--method", choices=["auto", "lapack", "jacobi"], default="auto")
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser("verify", help="check spectral bounds against brute force (n <= 24)")
    p.add_argument("--in", dest="input", required=True)
    p.add_argument("--tolerance", type=float, default=DEFAULT_TOLERANCE)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("rewire", help="augment a graph with a hyperedge-node expander overlay")
    p.add_argument("--in", dest="input", required=True)
    p.add_argument("--k", type=int, default=3)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--layers", type=int, default=6)
    p.add_argument("--ramanujan", action="store_true")
    p.add_argument("--tolerance", type=float, default=DEFAULT_TOLERANCE)
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
    p.add_argument("--csv", default=None, help="metrics CSV path; each '{seed}' is replaced by the seed")
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
