"""Command-line entry point for auditors.

Subcommands: fit (train and store a tree), audit (estimate statistical
parity through a curator), experiment (run the comparison grids),
curator-serve (host the wire protocol). Exit codes: 0 ok, 2 usage, 3 data
error, 4 curator refusal (its reason is printed), 5 protocol error.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
from pathlib import Path

from . import __version__
from .curator import Curator, CuratorServer, InProcessClient, WireClient
from .data import (
    DATASET_ENCODINGS,
    encode_sensitive,
    load_adult,
    load_compas,
    load_csv_with_schema,
    load_german,
    split_tables,
)
from .errors import (
    BudgetRefusal,
    DataError,
    DegenerateEstimateError,
    MetricError,
    ParameterError,
    ProtocolError,
    RoutingError,
)
from .estimator import InvalidPolicy, estimate_sp
from .experiments import config_from_manifest, preset_config, run_and_save
from .mechanisms import MECHANISMS
from .metrics import balanced_accuracy
from .tree import (
    LearnerConfig,
    fit,
    load_tree,
    predict_dataset,
    query_count_bounds,
    save_tree,
    to_text,
)

EXIT_OK = 0
EXIT_DATA = 3
EXIT_BUDGET = 4
EXIT_PROTOCOL = 5

OUT_DIR_ENV = "PRIVFAIR_OUT"


def _out_dir(value: str | None) -> Path:
    return Path(value or os.environ.get(OUT_DIR_ENV, "."))


def _add_dataset_args(parser: argparse.ArgumentParser):
    parser.add_argument(
        "--dataset", required=True,
        help="adult | compas | german | csv:<schema.json>",
    )
    parser.add_argument("--train", help="training-split file (adult, csv)")
    parser.add_argument("--test", help="test-split file (adult, csv)")
    parser.add_argument("--data", help="single data file (compas, german)")
    parser.add_argument("--split-seed", type=int, default=0, help="seed for 2:1 splits")


def _load_dataset(args):
    """Returns (family, (train_ds, train_sens), (test_ds, test_sens))."""
    name = args.dataset
    if name == "adult":
        if not args.train or not args.test:
            raise DataError("adult needs --train and --test")
        train, test = load_adult(args.train, args.test)
        return "adult", train, test
    if name == "compas":
        if not args.data:
            raise DataError("compas needs --data")
        train, test = load_compas(args.data, seed=args.split_seed)
        return "compas", train, test
    if name == "german":
        if not args.data:
            raise DataError("german needs --data")
        train, test = load_german(args.data, seed=args.split_seed)
        return "german", train, test
    if name.startswith("csv:"):
        schema_path = name[len("csv:"):]
        with open(schema_path, "r", encoding="utf-8") as fh:
            schema = json.load(fh)
        if not args.train:
            raise DataError("csv datasets need --train (and optionally --test)")
        train = load_csv_with_schema(args.train, schema)
        if args.test:
            test = load_csv_with_schema(args.test, schema)
        else:
            train, test = split_tables(*train, seed=args.split_seed)
        return "csv", train, test
    raise DataError(f"unknown dataset {name!r}")


def _definition(family: str, sensitive: str) -> str:
    """A family's named encoding (csv files use Adult's names), else the text itself."""
    named = DATASET_ENCODINGS.get("adult" if family == "csv" else family, {})
    return named.get(sensitive, sensitive)


def _parse_policy(text: str) -> InvalidPolicy:
    parts = [p.strip() for p in text.split(",")]
    if len(parts) != 2:
        raise ParameterError("--policy takes <negative-rule>,<too-large-rule>")
    return InvalidPolicy(parts[0], parts[1])


def _parse_curator_mode(text: str) -> tuple[str, str | None]:
    if text == "inproc":
        return "inproc", None
    for prefix in ("connect=", "serve="):
        if text.startswith(prefix):
            return prefix[:-1], text[len(prefix):]
    raise ParameterError(f"--curator must be inproc, connect=ADDR or serve=ADDR, got {text!r}")


def _parse_addr(addr: str) -> tuple[str, int]:
    host, _, port = addr.rpartition(":")
    if not host or not port.isdigit():
        raise ParameterError(f"address must be HOST:PORT, got {addr!r}")
    return host, int(port)


def cmd_fit(args) -> int:
    _, (train_ds, _), (test_ds, _) = _load_dataset(args)
    config = LearnerConfig(
        max_height=args.max_height,
        minleaf_fraction=args.minleaf,
        max_leaves=args.max_leaves,
        feature_subsample=args.features,
        criterion=args.criterion,
        seed=args.seed,
    )
    tree = fit(train_ds, config)
    out = Path(args.out) if args.out else _out_dir(None) / "tree.json"
    save_tree(tree, out)
    train_bacc = balanced_accuracy(train_ds.labels, predict_dataset(tree, train_ds))
    test_bacc = balanced_accuracy(test_ds.labels, predict_dataset(tree, test_ds))
    print(f"tree written to {out}")
    print(f"height={tree.height} leaves={tree.n_leaves}")
    print(f"balanced accuracy: train={train_bacc:.4f} test={test_bacc:.4f}")
    if args.show:
        print(to_text(tree), end="")
    return EXIT_OK


def cmd_audit(args) -> int:
    family, _, (test_ds, test_sens) = _load_dataset(args)
    tree = load_tree(args.tree)
    sens_table = encode_sensitive(test_sens, _definition(family, args.sensitive))
    policy = _parse_policy(args.policy)
    mode, addr = _parse_curator_mode(args.curator)

    if mode == "serve":
        raise ParameterError("audit uses --curator inproc or connect=ADDR")
    if mode == "inproc":
        curator = Curator(
            test_ds, sens_table,
            total_epsilon=args.epsilon if args.budget is None else args.budget,
            seed=args.seed,
        )
        client = InProcessClient(curator)
        closer = lambda: None  # noqa: E731
    else:
        host, port = _parse_addr(addr)
        client = WireClient(host, port)
        closer = client.close

    try:
        est = estimate_sp(
            tree, client, args.epsilon, population=test_ds.n,
            mechanism=args.mechanism, policy=policy, delta=args.delta,
        )
    finally:
        closer()

    height = max(tree.audit_plan.height, 1)
    lo, hi = query_count_bounds(height)
    verdict = est.sp >= 0.8
    report = {
        "sp_estimate": est.sp,
        "accept_rates": list(est.accept_rates),
        "query_count": est.query_count,
        "query_bound_height": height,
        "query_bound": [lo, hi],
        "invalid_cells": est.invalid_cells,
        "total_cells": est.total_cells,
        "invalid_ratio": est.invalid_ratio,
        "epsilon_spent": est.epsilon_spent,
        "eighty_percent_rule": bool(verdict),
        "mechanism": args.mechanism,
        "sensitive": _definition(family, args.sensitive),
        "seed": args.seed,
    }
    print(f"statistical parity estimate: {est.sp:.6f}")
    print(f"queries used: {est.query_count} (height-{height} bound: [{lo}, {hi}])")
    print(f"invalid answers: {est.invalid_cells}/{est.total_cells} ({est.invalid_ratio:.3f})")
    print(f"privacy budget spent: {est.epsilon_spent:g}")
    print(f"80%-rule on the estimate: {'PASS' if verdict else 'FAIL'}")
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(report, fh, sort_keys=True, indent=1)
            fh.write("\n")
        print(f"report written to {args.out}")
    return EXIT_OK


def cmd_curator_serve(args) -> int:
    family, _, (test_ds, test_sens) = _load_dataset(args)
    sens_table = encode_sensitive(test_sens, _definition(family, args.sensitive))
    mode, addr = _parse_curator_mode(args.curator)
    if mode != "serve":
        raise ParameterError("curator-serve needs --curator serve=ADDR")
    host, port = _parse_addr(addr)
    curator = Curator(test_ds, sens_table, total_epsilon=args.budget, seed=args.seed)
    if args.seed is not None:
        print(f"warning: --seed {args.seed} makes the noise reproducible; the privacy "
              "guarantee does not hold against anyone who knows the seed", file=sys.stderr)
    try:
        server = CuratorServer(curator, host, port)
    except OSError as exc:
        print(f"bind failed: {exc}", file=sys.stderr)
        return EXIT_PROTOCOL
    print(f"curator serving on {server.address[0]}:{server.address[1]}", file=sys.stderr)
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.shutdown()
        server.server_close()
    return EXIT_OK


def cmd_experiment(args) -> int:
    if args.manifest:
        with open(args.manifest, "r", encoding="utf-8") as fh:
            try:
                manifest = json.load(fh)
            except ValueError as exc:  # not JSON, or not UTF-8
                raise ParameterError(f"manifest {args.manifest}: {exc}") from None
        config = config_from_manifest(manifest)
        # the manifest picks the experiment; --which 2.1 adds the heatmap to experiment 2
        if manifest["experiment"] == "experiment1":
            which = "1"
        else:
            which = "2.1" if args.which == "2.1" else "2"
    else:
        which = args.which
        config = preset_config(which, args.paper_scale, args.seed or 0)
        if args.runs:
            config = dataclasses.replace(config, runs=args.runs)

    family, (train_ds, _), (test_ds, test_sens) = _load_dataset(args)
    sens_table = encode_sensitive(test_sens, _definition(family, args.sensitive))
    paths = run_and_save(which, train_ds, test_ds, sens_table, config, _out_dir(args.out),
                         progress=True)
    for kind, path in paths.items():
        print(f"{kind}: {path}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="privfair",
        description="Estimate decision-tree statistical parity through DP histogram queries.",
    )
    parser.add_argument("--version", action="version", version=f"privfair {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_fit = sub.add_parser("fit", help="train a decision tree and store it")
    _add_dataset_args(p_fit)
    p_fit.add_argument("--max-height", type=int, default=3)
    p_fit.add_argument("--max-leaves", type=int, default=None)
    p_fit.add_argument("--minleaf", type=float, default=0.01)
    p_fit.add_argument("--features", choices=("sqrt", "all", "log2"), default="all")
    p_fit.add_argument("--criterion", choices=("entropy", "gini"), default="entropy")
    p_fit.add_argument("--seed", type=int, default=0)
    p_fit.add_argument("--out", help="tree file path (default $PRIVFAIR_OUT/tree.json)")
    p_fit.add_argument("--show", action="store_true", help="print the tree in text form")
    p_fit.set_defaults(func=cmd_fit)

    p_audit = sub.add_parser("audit", help="estimate statistical parity of a stored tree")
    _add_dataset_args(p_audit)
    p_audit.add_argument("--tree", required=True, help="tree file from `fit`")
    p_audit.add_argument("--sensitive", required=True,
                         help="ethnicity | sex | sex-ethnicity | raw:<attr> | attr=value[&attr=value]")
    p_audit.add_argument("--epsilon", type=float, required=True)
    p_audit.add_argument("--delta", type=float, default=0.0)
    p_audit.add_argument("--mechanism", choices=MECHANISMS, default="laplace")
    p_audit.add_argument("--policy", default="uniform,uniform",
                         help="<negative-rule>,<too-large-rule>")
    p_audit.add_argument("--curator", default="inproc", help="inproc | connect=HOST:PORT")
    p_audit.add_argument("--budget", type=float, default=None,
                         help="positive curator budget for inproc mode (default: epsilon)")
    p_audit.add_argument("--seed", type=int, default=0)
    p_audit.add_argument("--out", help="machine-readable report path")
    p_audit.set_defaults(func=cmd_audit)

    p_serve = sub.add_parser("curator-serve", help="host the curator wire protocol")
    _add_dataset_args(p_serve)
    p_serve.add_argument("--sensitive", required=True)
    p_serve.add_argument("--budget", type=float, required=True)
    p_serve.add_argument("--seed", type=int, help="reproducible noise (default: OS entropy)")
    p_serve.add_argument("--curator", required=True, help="serve=HOST:PORT")
    p_serve.set_defaults(func=cmd_curator_serve)

    p_exp = sub.add_parser("experiment", help="run the comparison experiments")
    _add_dataset_args(p_exp)
    p_exp.add_argument("--which", choices=("1", "2", "2.1"), default="1")
    p_exp.add_argument("--sensitive", required=True)
    p_exp.add_argument("--seed", type=int, default=None, help="master seed (default 0)")
    p_exp.add_argument("--runs", type=int, default=None, help="override runs per cell")
    p_exp.add_argument("--paper-scale", action="store_true",
                       help="full grids and 50 runs per cell instead of desk scale")
    p_exp.add_argument("--manifest", help="rerun from a stored manifest")
    p_exp.add_argument("--out", help=f"output directory (default ${OUT_DIR_ENV} or .)")
    p_exp.set_defaults(func=cmd_experiment)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "manifest", None) and (
            args.runs is not None or args.seed is not None or args.paper_scale):
        parser.error("--manifest fixes runs, seed and scale; drop --runs, --seed, --paper-scale")
    try:
        return args.func(args)
    except BudgetRefusal as exc:
        print(f"refused ({exc.reason}): {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except (ProtocolError, ConnectionError) as exc:
        print(f"protocol error: {exc}", file=sys.stderr)
        return EXIT_PROTOCOL
    except (DataError, ParameterError, MetricError, DegenerateEstimateError, RoutingError,
            FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except KeyboardInterrupt:
        return 130


if __name__ == "__main__":
    sys.exit(main())
