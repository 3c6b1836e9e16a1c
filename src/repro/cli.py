"""Command-line interface: ``repro run <experiment>`` / ``python -m repro``.

Examples
--------
Run one experiment at the default paper scale::

    repro run table3

Run everything quickly on a smaller world::

    repro run all --scale 2 --sentences 12000

List available experiments::

    repro list

Stream a corpus through a durable ingestion session::

    repro ingest corpus.jsonl --batch-size 500 --checkpoint-dir state/
    repro ingest corpus.jsonl --checkpoint-dir state/ --resume

Summarise an exported trace into self time per span name::

    repro trace summarize trace.jsonl
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path

from .corpus.corpus import Corpus
from .errors import ServiceError
from .experiments.pipeline import Pipeline, experiment_config
from .experiments.registry import experiment_names, run_experiment
from .runtime.tracing import read_trace, summarize_trace
from .service.policy import IngestPolicy
from .service.session import BatchReport
from .world.presets import paper_world

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    """The CLI argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Reproduction of 'Overcoming Semantic Drift in Information "
            "Extraction' (EDBT 2014)"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    runner = sub.add_parser("run", help="run one experiment (or 'all')")
    runner.add_argument(
        "experiment",
        choices=experiment_names() + ["all"],
        help="table/figure to regenerate",
    )
    runner.add_argument(
        "--scale", type=float, default=4.0,
        help="world size multiplier (default 4.0)",
    )
    runner.add_argument(
        "--sentences", type=int, default=24_000,
        help="corpus size (default 24000)",
    )
    runner.add_argument(
        "--seed", type=int, default=20140324, help="experiment seed",
    )
    runner.add_argument(
        "--output", type=str, default=None,
        help="directory to write <experiment>.json / <experiment>.txt into",
    )
    runner.add_argument(
        "--trace", type=str, default=None,
        help=(
            "JSONL file to export the run's span tree to (with 'all', one "
            "file per experiment, suffixed with the experiment name)"
        ),
    )
    sub.add_parser("list", help="list available experiments")
    ingest = sub.add_parser(
        "ingest",
        help="stream a corpus through a durable ingestion session",
    )
    ingest.add_argument(
        "corpus", nargs="?", default=None,
        help=(
            "JSONL corpus to ingest: one JSON sentence record per line, "
            "as Corpus.load_jsonl reads them; omit to generate a "
            "synthetic corpus from --scale/--sentences/--seed"
        ),
    )
    ingest.add_argument(
        "--batch-size", type=int, default=500,
        help="sentences per batch (default 500)",
    )
    ingest.add_argument(
        "--staleness", type=int, default=5000,
        help=(
            "clean after this many new sentences since the last pass "
            "(default 5000; -1 disables the scheduled trigger)"
        ),
    )
    ingest.add_argument(
        "--drift-threshold", type=float, default=0.05,
        help=(
            "clean when a batch's drift fraction reaches this value "
            "(default 0.05; -1 disables the drift trigger)"
        ),
    )
    ingest.add_argument(
        "--min-new-pairs", type=int, default=20,
        help="drift only counts on batches with this many new pairs",
    )
    ingest.add_argument(
        "--checkpoint-dir", type=str, default=None,
        help="journal + snapshot directory (omit for an ephemeral session)",
    )
    ingest.add_argument(
        "--checkpoint-every", type=int, default=1,
        help="snapshot cadence in batches (0 = journal only; default 1)",
    )
    ingest.add_argument(
        "--resume", action="store_true",
        help="resume from --checkpoint-dir and skip already-ingested batches",
    )
    ingest.add_argument(
        "--scale", type=float, default=4.0,
        help="world size multiplier (default 4.0)",
    )
    ingest.add_argument(
        "--sentences", type=int, default=24_000,
        help="synthetic corpus size when no corpus path is given",
    )
    ingest.add_argument(
        "--seed", type=int, default=20140324, help="pipeline seed",
    )
    ingest.add_argument(
        "--trace", type=str, default=None,
        help="JSONL file to export the session's span tree to",
    )
    trace = sub.add_parser("trace", help="inspect an exported trace")
    trace_sub = trace.add_subparsers(dest="trace_command", required=True)
    summarize = trace_sub.add_parser(
        "summarize",
        help="one row per span name, sorted by self time",
    )
    summarize.add_argument("trace", help="JSONL trace written by --trace")
    return parser


def _make_pipeline(args: argparse.Namespace) -> Pipeline:
    preset = paper_world(seed=args.seed, scale=args.scale)
    config = experiment_config(
        num_sentences=args.sentences,
        seed=args.seed,
        profiles=preset.profiles,
    )
    return Pipeline(preset=preset, config=config)


def _print_batch(report: BatchReport) -> None:
    line = (
        f"batch {report.index}: +{report.sentences_new} sentences, "
        f"+{report.new_pairs} pairs, drift {report.drift.fraction:.3f}"
    )
    if report.cleaning is not None:
        line += (
            f" -> cleaned ({report.cleaning.reason}): "
            f"-{report.cleaning.removed_pairs} pairs"
        )
    print(line)


def _run_ingest(args: argparse.Namespace) -> int:
    if args.resume and not args.checkpoint_dir:
        print("error: --resume requires --checkpoint-dir", file=sys.stderr)
        return 2
    if args.batch_size < 1:
        print("error: --batch-size must be >= 1", file=sys.stderr)
        return 2
    if args.checkpoint_every < 0:
        print("error: --checkpoint-every must be >= 0", file=sys.stderr)
        return 2
    pipeline = _make_pipeline(args)
    if args.trace:
        pipeline.context.ensure_tracer()
    corpus = (
        Corpus.load_jsonl(args.corpus) if args.corpus else pipeline.corpus()
    )
    policy = IngestPolicy(
        staleness_threshold=(
            None if args.staleness < 0 else args.staleness
        ),
        drift_threshold=(
            None if args.drift_threshold < 0 else args.drift_threshold
        ),
        min_new_pairs=args.min_new_pairs,
    )
    try:
        session = pipeline.session(
            policy=policy,
            checkpoint_dir=args.checkpoint_dir,
            checkpoint_every=args.checkpoint_every,
            resume=args.resume,
        )
    except ServiceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if session.batches_ingested:
        print(f"resumed: {session.batches_ingested} batches already ingested")
    # Skip by sentence, not by batch: the run being resumed may have used
    # another --batch-size.
    seen = sum(report.sentences_seen for report in session.reports)
    for batch in Corpus(corpus.sentences[seen:]).batches(args.batch_size):
        _print_batch(session.ingest(batch))
    if args.checkpoint_dir:
        session.checkpoint()
    if args.trace:
        pipeline.context.export_trace(args.trace)
    print(json.dumps(session.stats(), indent=2))
    return 0


def _summarize_trace(path: str) -> int:
    try:
        rows = summarize_trace(read_trace(path))
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    width = max([len("span")] + [len(row.name) for row in rows])
    print(
        f"{'span':<{width}}  {'count':>6}  {'total_ms':>10}  "
        f"{'self_ms':>10}  counters"
    )
    for row in rows:
        counters = " ".join(
            f"{name}={value}" for name, value in row.counters.items()
        )
        print(
            f"{row.name:<{width}}  {row.count:>6}  {row.total_ms:>10.1f}  "
            f"{row.self_ms:>10.1f}  {counters}".rstrip()
        )
    return 0


def main(argv: list[str] | None = None) -> int:
    """CLI entry point."""
    args = build_parser().parse_args(argv)
    try:
        status = _dispatch(args)
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader closed the pipe (``repro ... | head``).  Python
        # flushes stdout again at exit; aim that flush at devnull.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 1
    return status


def _dispatch(args: argparse.Namespace) -> int:
    if args.command == "list":
        for name in experiment_names():
            print(name)
        return 0
    if args.command == "ingest":
        return _run_ingest(args)
    if args.command == "trace":
        return _summarize_trace(args.trace)
    names = experiment_names() if args.experiment == "all" else [args.experiment]
    output_dir = Path(args.output) if args.output else None
    if output_dir is not None:
        output_dir.mkdir(parents=True, exist_ok=True)
    trace_path = Path(args.trace) if getattr(args, "trace", None) else None
    for name in names:
        pipeline = _make_pipeline(args)
        if trace_path is not None:
            pipeline.context.ensure_tracer()
        started = time.time()
        result = run_experiment(name, pipeline=pipeline)
        elapsed = time.time() - started
        if trace_path is not None:
            target = trace_path
            if len(names) > 1:
                target = trace_path.with_name(
                    f"{trace_path.stem}-{name}{trace_path.suffix}"
                )
            pipeline.context.export_trace(target)
        print(f"== {result.title} ==")
        print(result.text)
        print(f"[{name} finished in {elapsed:.1f}s]")
        print()
        if output_dir is not None:
            (output_dir / f"{name}.txt").write_text(
                f"{result.title}\n{result.text}\n", encoding="utf-8"
            )
            (output_dir / f"{name}.json").write_text(
                json.dumps(
                    {"name": result.name, "title": result.title,
                     "seconds": round(elapsed, 2), "data": result.data},
                    indent=2, default=str,
                ),
                encoding="utf-8",
            )
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
