"""Tests for the command-line interface."""

from __future__ import annotations

import errno
import json
import os
import re
import sys
from pathlib import Path

import pytest

from repro.cli import build_parser, main
from repro.runtime.tracing import read_trace, summarize_trace

from .corpus.helpers import dump_jsonl


class TestParser:
    def test_run_defaults(self):
        args = build_parser().parse_args(["run", "table1"])
        assert args.experiment == "table1"
        assert args.scale == 4.0
        assert args.sentences == 24_000

    def test_run_overrides(self):
        args = build_parser().parse_args(
            ["run", "figure4", "--scale", "2", "--sentences", "5000",
             "--seed", "7"]
        )
        assert args.scale == 2.0
        assert args.sentences == 5000
        assert args.seed == 7

    def test_unknown_experiment_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "table9"])

    def test_command_required(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])


class TestIngestParser:
    def test_defaults(self):
        args = build_parser().parse_args(["ingest"])
        assert args.corpus is None
        assert args.batch_size == 500
        assert args.staleness == 5000
        assert args.drift_threshold == 0.05
        assert args.checkpoint_dir is None
        assert args.checkpoint_every == 1
        assert not args.resume

    def test_overrides(self):
        args = build_parser().parse_args(
            ["ingest", "corpus.jsonl", "--batch-size", "200",
             "--staleness", "-1", "--drift-threshold", "0.2",
             "--checkpoint-dir", "state", "--checkpoint-every", "3",
             "--resume", "--scale", "0.5", "--sentences", "1000",
             "--seed", "9"]
        )
        assert args.corpus == "corpus.jsonl"
        assert args.batch_size == 200
        assert args.staleness == -1
        assert args.drift_threshold == 0.2
        assert args.checkpoint_dir == "state"
        assert args.checkpoint_every == 3
        assert args.resume
        assert args.scale == 0.5
        assert args.sentences == 1000
        assert args.seed == 9


class TestMain:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "table3" in out
        assert "figure5c" in out

    def test_run_small_experiment(self, capsys):
        code = main(
            ["run", "figure4", "--scale", "0.5", "--sentences", "2000"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "Fig. 4" in out
        assert "finished in" in out

    def test_ingest_resume_requires_checkpoint_dir(self, capsys):
        assert main(["ingest", "--resume"]) == 2
        assert "--checkpoint-dir" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flag, value",
        [("--batch-size", "0"), ("--checkpoint-every", "-3")],
        ids=["batch-size-0", "checkpoint-every-negative"],
    )
    def test_ingest_rejects_bad_counts_before_any_side_effect(
        self, capsys, tmp_path, flag, value
    ):
        ckpt = tmp_path / "state"
        argv = ["ingest", "--scale", "0.5", "--sentences", "600",
                "--checkpoint-dir", str(ckpt), flag, value]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith(f"error: {flag} must be")
        assert captured.out == ""
        assert not ckpt.exists()

    def test_ingest_resume_of_an_unreadable_checkpoint_is_an_error(
        self, capsys, tmp_path
    ):
        ckpt = tmp_path / "state"
        meta = ckpt / "snapshot-1" / "META.json"
        meta.parent.mkdir(parents=True)
        meta.write_text(json.dumps({"checkpoint_version": 3, "seq": 1}))
        (ckpt / "CURRENT").write_text("snapshot-1\n")
        argv = ["ingest", "--scale", "0.5", "--sentences", "600",
                "--checkpoint-dir", str(ckpt), "--resume"]
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: {meta} declares checkpoint "
                                       "format 3")
        assert "Traceback" not in captured.err

    def test_closed_stdout_pipe_exits_quietly(self, capsys, monkeypatch,
                                              tmp_path):
        # `repro ... | head`: the reader is gone before the output is.
        target = tmp_path / "stdout"
        fd = os.open(target, os.O_WRONLY | os.O_CREAT)
        monkeypatch.setattr(sys, "stdout", _ClosedPipe(fd))
        try:
            assert main(["list"]) == 1
            # Python's flush at exit now writes to devnull.
            assert os.path.samestat(os.fstat(fd), os.stat(os.devnull))
        finally:
            os.close(fd)
        monkeypatch.undo()
        assert capsys.readouterr().err == ""

    def test_ingest_synthetic_end_to_end(self, capsys, tmp_path):
        ckpt = tmp_path / "state"
        argv = ["ingest", "--scale", "0.5", "--sentences", "1200",
                "--batch-size", "400", "--staleness", "700",
                "--drift-threshold", "-1",
                "--checkpoint-dir", str(ckpt)]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "batch 0:" in out
        assert "cleaned (staleness)" in out
        assert (ckpt / "CURRENT").exists()
        # Resuming after completion skips every batch and converges.
        assert main(argv + ["--resume"]) == 0
        out = capsys.readouterr().out
        assert "resumed:" in out

    def test_ingest_progress_output_is_pinned(self, capsys, tmp_path):
        # Three batches: one uncleaned, one staleness and one drift clean;
        # then a --resume of the finished directory.  Every stdout line.
        # The drift pass runs one round and that round removed pairs, so
        # the summary reports the stream as not converged.
        argv = ["ingest", "--scale", "0.5", "--sentences", "1200",
                "--batch-size", "450", "--staleness", "800",
                "--drift-threshold", "0.25",
                "--checkpoint-dir", str(tmp_path / "state")]
        stats = [
            "{",
            '  "batches": 3,',
            '  "cleanings": 2,',
            '  "pairs": 1780,',
            '  "removed_pairs": 234,',
            '  "unresolved": 25,',
            '  "staleness": 0,',
            '  "converged": false,',
            '  "drift_history": [',
            "    0.08937960042060988,",
            "    0.19540229885057472,",
            "    0.3180722891566265",
            "  ]",
            "}",
        ]
        assert main(argv) == 0
        assert capsys.readouterr().out.splitlines() == [
            "batch 0: +450 sentences, +951 pairs, drift 0.089",
            "batch 1: +450 sentences, +696 pairs, drift 0.195"
            " -> cleaned (staleness): -151 pairs",
            "batch 2: +299 sentences, +415 pairs, drift 0.318"
            " -> cleaned (drift): -131 pairs",
            *stats,
        ]
        assert main(argv + ["--resume"]) == 0
        assert capsys.readouterr().out.splitlines() == [
            "resumed: 3 batches already ingested",
            *stats,
        ]

    def test_ingest_resume_with_another_batch_size_sees_every_sentence(
        self, capsys, tmp_path
    ):
        from repro.experiments.pipeline import Pipeline, experiment_config
        from repro.service import IngestPolicy
        from repro.world.presets import paper_world

        def make_pipeline():
            preset = paper_world(seed=7, scale=0.5)
            config = experiment_config(num_sentences=1500, seed=7,
                                       profiles=preset.profiles)
            return Pipeline(preset=preset, config=config)

        corpus = make_pipeline().corpus()
        total = len(corpus)
        path = tmp_path / "corpus.jsonl"
        dump_jsonl(corpus, path)
        ckpt = tmp_path / "state"
        session = make_pipeline().session(
            policy=IngestPolicy.never(), checkpoint_dir=ckpt,
            checkpoint_every=1,
        )
        for batch in list(corpus.batches(300))[:2]:
            session.ingest(batch)
        del session
        code = main(
            ["ingest", str(path), "--resume", "--batch-size", "600",
             "--checkpoint-dir", str(ckpt), "--staleness", "-1",
             "--drift-threshold", "-1", "--scale", "0.5",
             "--sentences", "1500", "--seed", "7"]
        )
        assert code == 0
        assert "resumed: 2 batches already ingested" in (
            capsys.readouterr().out
        )
        resumed = make_pipeline().session(
            policy=IngestPolicy.never(), checkpoint_dir=ckpt, resume=True
        )
        assert sum(r.sentences_seen for r in resumed.reports) == total

    def test_ingest_corpus_file(self, capsys, tmp_path):
        from repro.experiments.pipeline import Pipeline, experiment_config
        from repro.world.presets import paper_world

        preset = paper_world(seed=20140324, scale=0.5)
        config = experiment_config(num_sentences=800,
                                   profiles=preset.profiles)
        corpus = Pipeline(preset=preset, config=config).corpus()
        path = tmp_path / "corpus.jsonl"
        dump_jsonl(corpus, path)
        code = main(
            ["ingest", str(path), "--scale", "0.5", "--batch-size", "400",
             "--staleness", "-1", "--drift-threshold", "-1"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "batch 0: +400 sentences" in out
        assert '"cleanings": 0' in out

    def test_run_trace_exports_span_tree(self, capsys, tmp_path):
        from repro.runtime.tracing import read_trace

        trace = tmp_path / "trace.jsonl"
        code = main(
            ["run", "figure4", "--scale", "0.5", "--sentences", "2000",
             "--trace", str(trace)]
        )
        assert code == 0
        capsys.readouterr()
        records = read_trace(trace)
        assert records[0]["kind"] == "trace"
        names = {r["name"] for r in records if r["kind"] == "span"}
        assert {"corpus.generate", "extract", "extract.iteration"} <= names

    def test_ingest_trace_exports_span_tree(self, capsys, tmp_path):
        from repro.runtime.tracing import read_trace

        trace = tmp_path / "trace.jsonl"
        code = main(
            ["ingest", "--scale", "0.5", "--sentences", "800",
             "--batch-size", "400", "--staleness", "400",
             "--drift-threshold", "-1", "--trace", str(trace)]
        )
        assert code == 0
        capsys.readouterr()
        spans = [r for r in read_trace(trace) if r["kind"] == "span"]
        batches = [s for s in spans if s["name"] == "ingest.batch"]
        assert len(batches) >= 2
        for batch in batches:
            assert {
                "seq", "drift_fraction", "conflicted", "total_pairs",
                "iterations_run",
            } <= set(batch["attributes"])
        cleaned = [s for s in batches if "clean_reason" in s["attributes"]]
        assert cleaned
        for batch in cleaned:
            assert batch["attributes"]["clean_reason"] == "staleness"
            assert batch["attributes"]["staleness"] >= 400

    def test_output_files_written(self, capsys, tmp_path):
        import json

        code = main(
            ["run", "figure4", "--scale", "0.5", "--sentences", "2000",
             "--output", str(tmp_path / "results")]
        )
        assert code == 0
        text = (tmp_path / "results" / "figure4.txt").read_text()
        assert "Fig. 4" in text
        payload = json.loads(
            (tmp_path / "results" / "figure4.json").read_text()
        )
        assert payload["name"] == "figure4"
        assert "bands" in payload["data"]


_SUMMARY_ROW = re.compile(
    r"^(\S+) +(\d+) +(\d+\.\d) +(-?\d+\.\d)(?:  (\S.*))?$"
)


class _ClosedPipe:
    """A stdout whose reader has gone: every write raises EPIPE."""

    def __init__(self, fd: int) -> None:
        self._fd = fd

    def write(self, text: str) -> int:
        raise BrokenPipeError(errno.EPIPE, os.strerror(errno.EPIPE))

    def flush(self) -> None:
        pass

    def fileno(self) -> int:
        return self._fd


class TestTraceSummarize:
    """``repro trace summarize``: self time per span name of a trace."""

    @pytest.fixture(scope="class")
    def trace(self, tmp_path_factory) -> Path:
        trace = tmp_path_factory.mktemp("trace") / "trace.jsonl"
        code = main(
            ["ingest", "--scale", "0.5", "--sentences", "800",
             "--batch-size", "400", "--staleness", "400",
             "--drift-threshold", "-1", "--trace", str(trace)]
        )
        assert code == 0
        return trace

    def test_parser(self):
        args = build_parser().parse_args(["trace", "summarize", "t.jsonl"])
        assert args.command == "trace"
        assert args.trace_command == "summarize"
        assert args.trace == "t.jsonl"

    def test_output_shape(self, capsys, trace):
        capsys.readouterr()
        assert main(["trace", "summarize", str(trace)]) == 0
        header, *lines = capsys.readouterr().out.splitlines()
        assert header.split() == [
            "span", "count", "total_ms", "self_ms", "counters",
        ]
        rows = [_SUMMARY_ROW.match(line) for line in lines]
        assert all(rows), lines
        names = [row[1] for row in rows]
        spans = [r for r in read_trace(trace) if r["kind"] == "span"]
        assert sorted(names) == sorted({span["name"] for span in spans})
        assert sum(int(row[2]) for row in rows) == len(spans)
        self_ms = [float(row[4]) for row in rows]
        assert self_ms == sorted(self_ms, reverse=True)
        by_name = {row[1]: row for row in rows}
        assert int(by_name["ingest.batch"][2]) == sum(
            span["name"] == "ingest.batch" for span in spans
        )
        assert "sentences_new=800" in by_name["ingest.batch"][5].split()
        # Detection breaks down into the analysis stages it refits.
        assert {
            "analysis.exclusion", "analysis.matrices", "analysis.verified",
            "analysis.seeds",
        } <= set(names)
        assert float(by_name["analysis.refresh"][4]) < float(
            by_name["analysis.refresh"][3]
        )

    def test_self_times_sum_to_the_roots_wall_time(self, capsys, trace):
        spans = [r for r in read_trace(trace) if r["kind"] == "span"]
        roots_ms = sum(s["wall_ms"] for s in spans if s["parent"] is None)
        rows = summarize_trace(read_trace(trace))
        assert sum(row.self_ms for row in rows) == pytest.approx(
            roots_ms, abs=1e-6
        )
        capsys.readouterr()
        main(["trace", "summarize", str(trace)])
        _, *lines = capsys.readouterr().out.splitlines()
        printed = sum(float(_SUMMARY_ROW.match(line)[4]) for line in lines)
        # Each printed value is rounded to 0.1 ms.
        assert abs(printed - roots_ms) <= 0.05 * len(lines) + 1e-9

    def test_malformed_line_names_path_and_line(self, capsys, trace, tmp_path):
        lines = trace.read_text(encoding="utf-8").splitlines()
        lines[2] = lines[2][: len(lines[2]) // 2]
        broken = tmp_path / "broken.jsonl"
        broken.write_text("\n".join(lines) + "\n", encoding="utf-8")
        with pytest.raises(ValueError, match=re.escape(f"{broken}:3:")):
            read_trace(broken)
        assert main(["trace", "summarize", str(broken)]) == 1
        assert f"error: {broken}:3: malformed trace record" in (
            capsys.readouterr().err
        )
