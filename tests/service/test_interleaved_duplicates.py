"""Repeated sentences interleaved mid-stream are dropped, batch by batch.

The corpus generator appends every duplicate after the last original
sentence, so a stream of its batches only ever ends in all-repeat
batches.  Here the generator's duplicates (fresh sids, earlier surfaces)
are spread through the batches that follow their originals' batch, at
evenly spaced positions among new sentences.  A session fed those
batches must count, journal and keep exactly the first occurrences: its
KB bytes equal a session fed the same batches with the repeats removed,
and a resume from its journal reproduces them.
"""

from __future__ import annotations

import pytest

from repro.kb.serialize import save_kb
from repro.service import CheckpointStore, IngestPolicy
from repro.service.journal import Journal

from .conftest import make_pipeline

POLICY = IngestPolicy(
    staleness_threshold=600, drift_threshold=0.08, min_new_pairs=10
)
BATCH_SIZE = 300


def _kb_bytes(kb, path):
    save_kb(kb, path)
    return path.read_bytes()


@pytest.fixture(scope="module")
def streams(service_corpus):
    """(interleaved batches, the same batches without the repeats)."""
    first: dict[str, int] = {}
    survivors, repeats = [], []
    for sentence in service_corpus.sentences:
        if sentence.surface in first:
            repeats.append(sentence)
        else:
            first[sentence.surface] = len(survivors)
            survivors.append(sentence)
    clean = [
        survivors[start:start + BATCH_SIZE]
        for start in range(0, len(survivors), BATCH_SIZE)
    ]
    # Each repeat joins the batch after its original's (the last batch's
    # own repeats stay in it, behind their originals).
    placed: list[list] = [[] for _ in clean]
    for sentence in repeats:
        home = first[sentence.surface] // BATCH_SIZE
        placed[min(home + 1, len(clean) - 1)].append(sentence)
    interleaved = []
    for index, (batch, extra) in enumerate(zip(clean, placed)):
        if index == len(clean) - 1:
            interleaved.append(batch + extra)
            continue
        merged = list(batch)
        # Insert from the back so earlier positions stay valid.
        for k in reversed(range(len(extra))):
            merged.insert((k + 1) * len(batch) // (len(extra) + 1), extra[k])
        interleaved.append(merged)
    return interleaved, clean


@pytest.fixture(scope="module")
def runs(streams, tmp_path_factory):
    interleaved, clean = streams
    root = tmp_path_factory.mktemp("interleaved")
    session = make_pipeline().session(
        policy=POLICY, checkpoint_dir=root / "state", checkpoint_every=0
    )
    reports = [session.ingest(batch) for batch in interleaved]
    reference = make_pipeline().session(policy=POLICY)
    for batch in clean:
        reference.ingest(batch)
    resumed = make_pipeline().session(
        policy=POLICY, checkpoint_dir=root / "state", resume=True
    )
    return {
        "reports": reports,
        "directory": root / "state",
        "journal": list(Journal(root / "state" / "journal.jsonl").entries()),
        "session": _kb_bytes(session.kb, root / "session.jsonl"),
        "reference": _kb_bytes(reference.kb, root / "reference.jsonl"),
        "resumed": _kb_bytes(resumed.kb, root / "resumed.jsonl"),
        "cleanings": (session.cleanings, reference.cleanings),
    }


def test_repeats_sit_mid_stream(streams):
    interleaved, clean = streams
    assert len(clean) >= 4
    middle = interleaved[1:-1]
    assert all(len(i) > len(c) for i, c in zip(middle, clean[1:-1]))
    # Not trailing: each middle batch ends with a new sentence.
    assert all(i[-1] is c[-1] for i, c in zip(middle, clean[1:-1]))


def test_sentences_new_counts_only_the_survivors(streams, runs):
    interleaved, clean = streams
    assert [r.sentences_seen for r in runs["reports"]] == [
        len(batch) for batch in interleaved
    ]
    assert [r.sentences_new for r in runs["reports"]] == [
        len(batch) for batch in clean
    ]


def test_each_journal_entry_carries_only_the_survivors(streams, runs):
    _, clean = streams
    batches = [e for e in runs["journal"] if e["type"] == "batch"]
    store = CheckpointStore(runs["directory"])
    assert [store.read_batch(entry["sentences"]) for entry in batches] == clean


def test_kb_bytes_equal_the_stream_without_repeats(runs):
    assert runs["cleanings"][0] >= 1
    assert runs["cleanings"][0] == runs["cleanings"][1]
    assert runs["session"] == runs["reference"]


def test_resume_gives_identical_bytes(runs):
    assert runs["resumed"] == runs["session"]
