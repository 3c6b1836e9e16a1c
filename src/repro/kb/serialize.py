"""Knowledge-base persistence.

Stores the full provenance — every extraction record with its triggers,
activity and dead triggers — so a reloaded knowledge base supports
rollback, feature extraction and cleaning exactly like the original.  The format is
line-oriented JSON: one header line, then one line per record (active and
inactive alike, so removed-pair history survives the round trip).

The codec splits a knowledge base along what can change after a record
is committed.  :func:`record_row` is a record's immutable part (rid, sid,
concept, instances, triggers, iteration); :func:`kb_state` is everything
rollback mutates later (inactive rids, dead triggers, force-removed pairs,
re-extracted pairs) plus the record and pair counts that make truncation
loud.  Loading is
always *replay the rows in rid order, then* :func:`apply_state`.
``save_kb`` writes both parts into one file; the segmented checkpoints of
:mod:`repro.service.checkpoint` write rows append-only and the state on
its own.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from ..corpus.corpus import decode_strings
from ..errors import KnowledgeBaseError
from .pair import IsAPair
from .record import ExtractionRecord
from .store import KnowledgeBase

__all__ = [
    "save_kb",
    "load_kb",
    "record_row",
    "replay_row",
    "kb_state",
    "apply_state",
    "SCHEMA_VERSION",
]

_FORMAT = "repro-kb"
#: Version 2 added ``restarts``; version-1 files mis-load re-extracted pairs.
_VERSION = 2
#: Version of the *record-row* schema (field names and meanings).  Bumped
#: whenever a row field is added, removed or reinterpreted, independently
#: of the container ``version``; loaders refuse files stamped with a
#: different schema instead of silently misreading rows.
SCHEMA_VERSION = 1


def _pairs_json(pairs) -> list[list[str]]:
    return [[pair.concept, pair.instance] for pair in pairs]


def record_row(record: ExtractionRecord) -> dict:
    """The immutable fields of one record as a JSON-ready row."""
    return {
        "rid": record.rid,
        "sid": record.sid,
        "concept": record.concept,
        "instances": list(record.instances),
        "triggers": _pairs_json(record.triggers),
        "iteration": record.iteration,
    }


def _pairs(key: str, value: object) -> tuple[IsAPair, ...]:
    """Decode a list of ``[concept, instance]`` string pairs."""
    if type(value) is not list:
        raise ValueError(f"{key!r} must be a list, got {value!r}")
    pairs = []
    for item in value:
        if (
            type(item) is not list or len(item) != 2
            or type(item[0]) is not str or type(item[1]) is not str
        ):
            raise ValueError(
                f"{key!r} entries must be [concept, instance] strings, got "
                f"{item!r}"
            )
        pairs.append(IsAPair(item[0], item[1]))
    return tuple(pairs)


def replay_row(kb: KnowledgeBase, row: dict) -> ExtractionRecord:
    """Re-commit one :func:`record_row` row; rids must stay dense.

    A malformed row raises ``KeyError`` or ``ValueError`` (or a
    :class:`KnowledgeBaseError` the store raises); callers name the
    file and line.
    """
    if type(row) is not dict:
        raise ValueError(f"row must be a JSON object, got {row!r}")
    sid, concept, iteration = row["sid"], row["concept"], row["iteration"]
    if type(sid) is not int:
        raise ValueError(f"'sid' must be an integer, got {sid!r}")
    if type(concept) is not str:
        raise ValueError(f"'concept' must be a string, got {concept!r}")
    if type(iteration) is not int or iteration < 1:
        raise ValueError(
            f"'iteration' must be an integer >= 1, got {iteration!r}"
        )
    record = kb.add_extraction(
        sid=sid,
        concept=concept,
        instances=decode_strings("instances", row["instances"]),
        triggers=_pairs("triggers", row["triggers"]),
        iteration=iteration,
    )
    if record.rid != row["rid"]:
        raise KnowledgeBaseError(
            f"record ids are not dense (expected {record.rid}, the row "
            f"says {row['rid']})"
        )
    return record


def kb_state(kb: KnowledgeBase) -> dict:
    """The mutable part of a knowledge base, plus its integrity counts."""
    active = np.frombuffer(kb.record_active_flags(), dtype=bool)
    return {
        "records": kb.num_records,
        "pairs": len(kb),
        "inactive": np.flatnonzero(~active[:kb.num_records]).tolist(),
        "dead_triggers": [
            [rid, _pairs_json(killed)]
            for rid, killed in kb.dead_triggers().items()
        ],
        # Pairs force-removed (e.g. Accidental DPs) while their producing
        # records stayed active; replay must re-remove them.
        "removed_pairs": sorted(_pairs_json(kb.removed_pairs())),
        # Re-extracted pairs as [concept, instance, restart rid, count]:
        # replay alone would give them every producing record's history.
        "restarts": sorted(
            [pair.concept, pair.instance, rid, kb.count(pair)]
            for pair, rid in kb.restarted_pairs().items()
        ),
    }


def apply_state(kb: KnowledgeBase, state: dict, source: str | Path) -> None:
    """Apply a :func:`kb_state` to a KB whose rows were just replayed.

    Inactive records are deactivated in rid order, dead triggers killed,
    force-removed pairs re-removed and re-extracted pairs restarted, so
    pair counts and histories, removed-pair history, trigger liveness and
    pair order all match the original.  ``source`` names the file at
    fault in the errors.
    """
    # A truncated file parses row by row without complaint; the counts
    # are the integrity check that makes the loss loud.
    if kb.num_records != state.get("records"):
        raise KnowledgeBaseError(
            f"{source} is truncated or padded: it promises "
            f"{state.get('records')} records, replay holds {kb.num_records}"
        )
    for rid in state["inactive"]:
        kb.deactivate_record(rid)
    for rid, dead in state["dead_triggers"]:
        for concept, instance in dead:
            kb.kill_trigger(rid, IsAPair(concept, instance))
    for concept, instance in state["removed_pairs"]:
        pair = IsAPair(concept, instance)
        if pair in kb:
            kb.remove_pair(pair)
    try:
        kb.restore_restarts(
            (IsAPair(concept, instance), rid, count)
            for concept, instance, rid, count in state["restarts"]
        )
    except KnowledgeBaseError as exc:
        raise KnowledgeBaseError(f"{source} is inconsistent: {exc}") from exc
    if len(kb) != state.get("pairs"):
        raise KnowledgeBaseError(
            f"{source} is inconsistent: it promises {state.get('pairs')} "
            f"alive pairs, replay produced {len(kb)}"
        )


def save_kb(kb: KnowledgeBase, path: str | Path) -> None:
    """Write a knowledge base (with provenance) to a JSONL file."""
    state = kb_state(kb)
    dead = dict(state["dead_triggers"])
    header = {
        "format": _FORMAT,
        "version": _VERSION,
        "schema_version": SCHEMA_VERSION,
        "records": state["records"],
        "pairs": state["pairs"],
        "removed_pairs": state["removed_pairs"],
        "restarts": state["restarts"],
    }
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(json.dumps(header) + "\n")
        inactive = set(state["inactive"])
        for record in kb.records(include_inactive=True):
            row = record_row(record)
            row["active"] = record.rid not in inactive
            row["dead_triggers"] = dead.get(record.rid, [])
            handle.write(json.dumps(row) + "\n")


def load_kb(path: str | Path) -> KnowledgeBase:
    """Rebuild a knowledge base saved with :func:`save_kb`."""
    kb = KnowledgeBase()
    with open(path, encoding="utf-8") as handle:
        header_line = handle.readline()
        try:
            header = json.loads(header_line)
        except json.JSONDecodeError as exc:
            raise KnowledgeBaseError(f"bad KB header in {path}: {exc}") from exc
        if header.get("format") != _FORMAT:
            raise KnowledgeBaseError(
                f"{path} is not a {_FORMAT} file (format="
                f"{header.get('format')!r})"
            )
        if header.get("version") != _VERSION:
            raise KnowledgeBaseError(
                f"{path} declares KB format version {header.get('version')!r}"
                f"; this reader understands only version {_VERSION}"
            )
        schema = header.get("schema_version")
        if schema != SCHEMA_VERSION:
            raise KnowledgeBaseError(
                f"{path} declares record schema {schema!r}; this reader "
                f"understands schema {SCHEMA_VERSION} — refusing to guess "
                "at row fields"
            )
        state = {
            "records": header.get("records"),
            "pairs": header.get("pairs"),
            "inactive": [],
            "dead_triggers": [],
            "removed_pairs": header.get("removed_pairs", ()),
            "restarts": header.get("restarts", ()),
        }
        for line_number, line in enumerate(handle, start=2):
            line = line.strip()
            if not line:
                continue
            try:
                row = json.loads(line)
                record = replay_row(kb, row)
                active = row.get("active", True)
                if type(active) is not bool:
                    raise ValueError(
                        f"'active' must be true or false, got {active!r}"
                    )
                dead = _pairs("dead_triggers", row.get("dead_triggers", []))
                if not set(dead) <= set(record.triggers):
                    raise ValueError(
                        f"'dead_triggers' {row['dead_triggers']!r} are not "
                        f"all among the record's triggers"
                    )
            except (KeyError, TypeError, ValueError, KnowledgeBaseError) as exc:
                raise KnowledgeBaseError(
                    f"bad KB record at {path}:{line_number}: {exc}"
                ) from exc
            if not active:
                state["inactive"].append(record.rid)
            if dead:
                state["dead_triggers"].append(
                    [record.rid, row["dead_triggers"]]
                )
    apply_state(kb, state, path)
    return kb
