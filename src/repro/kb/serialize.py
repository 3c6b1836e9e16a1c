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
``save_kb`` writes both parts into one file.  The segmented checkpoints
of :mod:`repro.service.checkpoint` write the immutable part as typed
columns instead (:func:`record_columns`, replayed by
:func:`replay_columns`), one segment per snapshot generation, and the
state on its own.
"""

from __future__ import annotations

import json
from collections.abc import Sequence
from itertools import chain, count
from pathlib import Path

import numpy as np

from ..corpus.corpus import decode_strings
from ..errors import KnowledgeBaseError
from .pair import IsAPair, pairs_under
from .record import ExtractionRecord
from .store import KnowledgeBase

__all__ = [
    "save_kb",
    "load_kb",
    "record_row",
    "replay_row",
    "record_columns",
    "replay_columns",
    "RECORD_COLUMNS",
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


#: The int64 columns of a run of records, one row per record except the
#: offsets, which are CSR offsets (one more entry than records) into the
#: id column after them.  Names are ids into a string table.  Triggers
#: are stored as their instances: a trigger shares its record's concept.
RECORD_COLUMNS = (
    "sid", "concept", "iteration", "instance_offsets", "instances",
    "trigger_offsets", "triggers",
)


def record_columns(
    records: Sequence[ExtractionRecord], strings: dict[str, int]
) -> tuple[list[str], dict[str, np.ndarray]]:
    """The immutable fields of ``records`` as :data:`RECORD_COLUMNS`.

    ``strings`` maps each name already in the table to its id; the names
    it lacks are added to it, with ids that continue from its length, and
    returned in id order: the part of the table these columns add.
    """
    concepts = [record.concept for record in records]
    instances = [e for record in records for e in record.instances]
    triggers = [e for record in records for e in record.trigger_instances]
    added = [
        name for name in dict.fromkeys(chain(concepts, instances, triggers))
        if name not in strings
    ]
    strings.update(zip(added, count(len(strings))))
    ids = strings.__getitem__

    def offsets(lengths) -> np.ndarray:
        return np.cumsum([0, *lengths], dtype=np.int64)

    return added, {
        "sid": np.array([record.sid for record in records], np.int64),
        "concept": np.array(list(map(ids, concepts)), np.int64),
        "iteration": np.array(
            [record.iteration for record in records], np.int64
        ),
        "instance_offsets": offsets(len(r.instances) for r in records),
        "instances": np.array(list(map(ids, instances)), np.int64),
        "trigger_offsets": offsets(len(r.triggers) for r in records),
        "triggers": np.array(list(map(ids, triggers)), np.int64),
    }


def _check_columns(columns: dict[str, np.ndarray], strings: int) -> None:
    """Raise ``ValueError`` unless ``columns`` are well-formed columns of
    one run of records over a string table of ``strings`` names."""
    if sorted(columns) != sorted(RECORD_COLUMNS):
        raise ValueError(
            f"columns {sorted(columns)} are not {sorted(RECORD_COLUMNS)}"
        )
    for name in RECORD_COLUMNS:
        if columns[name].ndim != 1 or columns[name].dtype != np.int64:
            raise ValueError(
                f"column {name!r} is not one-dimensional int64: "
                f"{columns[name].dtype} of shape {columns[name].shape}"
            )
    rows = len(columns["sid"])
    for name in ("concept", "iteration"):
        if len(columns[name]) != rows:
            raise ValueError(
                f"column {name!r} holds {len(columns[name])} rows, "
                f"'sid' {rows}"
            )
    for name in ("instances", "triggers"):
        offsets = columns[f"{name[:-1]}_offsets"]
        if (
            len(offsets) != rows + 1 or offsets[0] != 0
            or offsets[-1] != len(columns[name])
            or (np.diff(offsets) < 0).any()
        ):
            raise ValueError(
                f"{name[:-1]}_offsets do not ascend from 0 to the "
                f"{len(columns[name])} entries of {name!r} over {rows} rows"
            )
    for name in ("concept", "instances", "triggers"):
        ids = columns[name]
        if len(ids) and (ids.min() < 0 or ids.max() >= strings):
            raise ValueError(
                f"column {name!r} holds string ids outside the "
                f"{strings}-name table"
            )


def replay_columns(
    kb: KnowledgeBase,
    strings: Sequence[str],
    columns: dict[str, np.ndarray],
) -> None:
    """Re-commit the records of one :func:`record_columns` run, in order,
    through :meth:`KnowledgeBase.add_extraction`.

    ``strings`` is the whole table the ids index.  Malformed columns raise
    ``ValueError``; a record that the store or the record itself refuses
    raises :class:`KnowledgeBaseError` naming its rid.
    """
    _check_columns(columns, len(strings))
    name = strings.__getitem__
    concepts = list(map(name, columns["concept"].tolist()))
    instances = list(map(name, columns["instances"].tolist()))
    triggers = list(map(name, columns["triggers"].tolist()))
    instance_ends = columns["instance_offsets"].tolist()
    trigger_ends = columns["trigger_offsets"].tolist()
    rows = zip(
        columns["sid"].tolist(), concepts, columns["iteration"].tolist(),
        instance_ends, instance_ends[1:], trigger_ends, trigger_ends[1:],
    )
    for sid, concept, iteration, i0, i1, t0, t1 in rows:
        try:
            kb.add_extraction(
                sid, concept, instances[i0:i1],
                pairs_under(concept, triggers[t0:t1]) if t1 > t0 else (),
                iteration,
            )
        except (KnowledgeBaseError, ValueError) as exc:
            raise KnowledgeBaseError(
                f"record {kb.num_records}: {exc}"
            ) from exc


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
    try:
        apply_state(kb, state, path)
    except (LookupError, TypeError, ValueError) as exc:
        raise KnowledgeBaseError(
            f"bad KB header in {path}: {exc!r}"
        ) from exc
    return kb
