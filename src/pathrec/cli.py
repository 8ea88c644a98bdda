"""Command line entry point.

Each pipeline stage is a subcommand over a shared JSON config, so a full
run is ``pathrec run -c config.json`` and any stage can be repeated in
isolation. ``--set a.b=v`` overrides single keys without editing the file.
"""

from __future__ import annotations

import argparse
import json
import logging
import sys

from . import pipeline
from .errors import InvalidSpec, PathRecError, StageError
from .pipeline import RunConfig


def _parse_int_list(text: str, option: str) -> list[int]:
    try:
        return [int(part) for part in text.split(",") if part.strip()]
    except ValueError:
        raise InvalidSpec(f"{option} expects comma separated ints, got {text!r}") from None


def _apply_override(raw: dict, assignment: str):
    key, sep, value = assignment.partition("=")
    if not sep or not key:
        raise InvalidSpec(f"--set expects key=value, got {assignment!r}")
    try:
        parsed = json.loads(value)
    except json.JSONDecodeError:
        parsed = value
    node = raw
    parts = key.split(".")
    for part in parts[:-1]:
        node = node.setdefault(part, {})
        if not isinstance(node, dict):
            raise InvalidSpec(f"--set path {key!r} crosses a non-object value")
    node[parts[-1]] = parsed


def load_config(args) -> RunConfig:
    raw = {}
    if args.config:
        try:
            with open(args.config) as fh:
                raw = json.load(fh)
        except (OSError, ValueError) as exc:
            raise InvalidSpec(f"config {args.config} is not readable JSON: {exc}") from exc
        if not isinstance(raw, dict):
            raise InvalidSpec(f"config {args.config} must hold a JSON object")
    if args.workdir:
        raw["workdir"] = args.workdir
    if args.seed is not None:
        raw["seed"] = args.seed
    for assignment in args.set or []:
        _apply_override(raw, assignment)
    return RunConfig.from_json(raw)


def _print_rows(rows, columns):
    for row in rows:
        print("  ".join(str(row[c]) for c in columns))


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("-c", "--config", help="JSON run config")
    common.add_argument("--workdir", help="run directory (overrides config)")
    common.add_argument("--seed", type=int, help="run seed (overrides config)")
    common.add_argument("--set", action="append", metavar="KEY=VALUE",
                        help="override one config key, e.g. --set agent.epochs=5")
    common.add_argument("-v", "--verbose", action="store_true")

    parser = argparse.ArgumentParser(prog="pathrec",
                                     description="path reasoning recommender over a product graph")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, desc in (
        ("synth", "generate or register the dataset"),
        ("split", "chronological split with cold user/item holdout"),
        ("train-embed", "train graph embeddings on the warm training graph"),
        ("train-agent", "train the path walking agent"),
        ("cold-integrate", "attach cold entities and derive their embeddings"),
        ("recommend", "beam search recommendations for the eval cohorts"),
        ("eval", "score recommendations and write the report"),
        ("run", "all stages in order (use --seeds for a multi seed run)"),
        ("sweep", "vary cold profile richness without retraining"),
        ("report", "aggregate per-seed reports into mean/std"),
    ):
        p = sub.add_parser(name, parents=[common], help=desc)
        if name in ("run", "report"):
            p.add_argument("--seeds", help="comma separated seeds, e.g. 1,2,3")
        if name == "sweep":
            p.add_argument("--axis", required=True,
                           choices=pipeline.SWEEP_AXES)
            p.add_argument("--values", required=True,
                           help="comma separated non-negative ints")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(level=logging.INFO if args.verbose else logging.WARNING,
                        format="%(levelname)s %(name)s: %(message)s")
    try:
        config = load_config(args)
        if args.command == "synth":
            pipeline.stage_synth(config)
            print(f"dataset ready under {config.workdir}/data")
        elif args.command == "split":
            split = pipeline.stage_split(config)
            print(f"train graph: {split.train_graph.entity_count} entities, "
                  f"{split.train_graph.triplet_count} triplets; "
                  f"{len(split.cold_val) + len(split.cold_test)} cold users, "
                  f"{len(split.cold_items)} cold items")
        elif args.command == "train-embed":
            table = pipeline.stage_train_embed(config)
            print(f"embeddings: {table.entity_count} entities, dim {table.dim}")
        elif args.command == "train-agent":
            pipeline.stage_train_agent(config)
            print(f"policy written under {config.workdir}/agent")
        elif args.command == "cold-integrate":
            _, ext, ids = pipeline.stage_cold_integrate(config)
            print(f"integrated {len(ids)} cold entities "
                  f"(table now {ext.entity_count} rows)")
        elif args.command == "recommend":
            records = pipeline.stage_recommend(config)
            served = sum(1 for r in records if r["served"])
            print(f"recommendations for {served}/{len(records)} users")
        elif args.command == "sweep":
            rows = pipeline.sweep(config, args.axis, _parse_int_list(args.values, "--values"))
            _print_rows(rows, ("axis", "value", "cohort", "metric", "result"))
        elif args.command == "eval" or (args.command == "run" and not args.seeds):
            run = pipeline.stage_eval if args.command == "eval" else pipeline.run_pipeline
            _print_rows(run(config)[0], ("model", "cohort", "metric", "value"))
        else:  # run --seeds, report
            if not args.seeds:
                raise InvalidSpec("report needs --seeds")
            run = pipeline.run_seeds if args.command == "run" else pipeline.write_aggregate
            _print_rows(run(config, _parse_int_list(args.seeds, "--seeds")),
                        ("model", "cohort", "metric", "mean", "std"))
    except PathRecError as exc:  # a StageError carries its "[stage] " tag
        print(str(exc) if isinstance(exc, StageError) else f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
