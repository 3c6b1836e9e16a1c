"""The knowledge base: isA pairs with counts, iterations and provenance.

Design notes
------------
* Evidence counts are *record-based*: ``count(pair)`` is the number of
  distinct active sentence extractions producing the pair, matching the
  paper's "extracted from k different sentences".  ``core_count(pair)``
  is the iteration-1 part of it (the evidence Core(C) and the features
  read).  Both live on the pair's :class:`PairState` and the same writes
  keep them, so no read goes back to the records.
* Pairs die when their count reaches zero; the cascading logic lives in
  :mod:`repro.kb.rollback`, the store only exposes the primitive mutations.
* ``first_iteration`` of a pair never changes, even if later records add
  evidence, so ``E(C, i)`` (the paper's per-iteration snapshots) can always
  be reconstructed.
* Records are immutable (:class:`~repro.kb.record.ExtractionRecord`);
  what rollback changes about them — activity and dead triggers — lives
  in the store, so :meth:`KnowledgeBase.copy` shares record objects.
* The store is **mutation-versioned**: every write (``add_extraction``,
  ``remove_pair``, ``deactivate_record``) bumps a monotonic
  :attr:`version` and stamps the touched concept in
  :meth:`concept_version`.  Downstream caches — ranking scores, the sorted
  concept list, the per-concept :meth:`concept_state` arrays — compare
  versions instead of recomputing, so multi-round cleaning only re-derives
  state for the concepts a rollback actually changed.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from collections.abc import Collection, Iterable, Iterator, Mapping, Sequence
from operator import attrgetter
from typing import NamedTuple

import numpy as np

from ..errors import KnowledgeBaseError
from .pair import IsAPair
from .record import ExtractionRecord

_EMPTY_DICT: dict = {}

__all__ = ["ConceptState", "PairState", "KnowledgeBase"]


def _copy_values(mapping: dict) -> dict:
    """``mapping`` with a shallow copy of each value, in the same order."""
    return {key: value.copy() for key, value in mapping.items()}


class _GrowingArray:
    """A read-only NumPy copy of an append-only int list.

    Each read copies only what was appended since the last one, into a
    buffer that doubles when full and is replaced, never resized, so an
    array handed out earlier stays valid.
    """

    __slots__ = ("_buffer", "_size")

    def __init__(self) -> None:
        self._buffer = np.empty(0, dtype=np.int64)
        self._size = 0

    def of(self, items: list[int]) -> np.ndarray:
        """``items`` as an array (``items`` only ever grows)."""
        size = len(items)
        if size != self._size:
            if size > len(self._buffer):
                grown = np.empty(max(size, 2 * len(self._buffer)), np.int64)
                grown[: self._size] = self._buffer[: self._size]
                self._buffer = grown
            self._buffer[self._size : size] = items[self._size : size]
            self._size = size
        view = self._buffer[:size]
        view.flags.writeable = False
        return view


class ConceptState(NamedTuple):
    """A concept's alive pairs as arrays indexed by instance id.

    ``names`` are the alive instances in sorted order and ``ids`` their
    :meth:`KnowledgeBase.instance_id_map` ids.  The other arrays hold one
    entry per id the concept ever assigned: whether the pair is alive,
    its count, first iteration and core count (0 where it is not alive).
    Read-only.
    """

    names: tuple[str, ...]
    ids: np.ndarray
    alive: np.ndarray
    count: np.ndarray
    first_iteration: np.ndarray
    core_count: np.ndarray


@dataclass
class PairState:
    """Mutable bookkeeping for one pair.

    ``count`` and ``core_count`` are the active records, and the active
    iteration-1 records, among ``record_ids``.
    """

    count: int
    core_count: int
    first_iteration: int
    record_ids: list[int]
    #: re-extracted after dying or being removed (history restarts here)
    restarted: bool = False


class KnowledgeBase:
    """Store of isA pairs with full extraction provenance."""

    def __init__(self) -> None:
        self._pairs: dict[IsAPair, PairState] = {}
        # concept → {instance: state}; mirrors _pairs, keyed for the
        # per-concept reads the ranking substrate does in bulk.
        self._by_concept: dict[str, dict[str, PairState]] = {}
        self._instance_concepts: dict[str, set[str]] = {}
        # Indexed by rid (rids are dense, ``0..n-1``), with the sid of
        # each record alongside for the array readers.
        self._records: list[ExtractionRecord] = []
        self._record_sids: list[int] = []
        self._record_sid_array = _GrowingArray()
        # Trigger pair → the rids it triggered, ascending, each once.
        self._records_by_trigger: dict[IsAPair, list[int]] = {}
        # Trigger-edge substrate for the ranking graphs.  Instances get a
        # stable per-concept id on first extraction (never reassigned, even
        # across removal and re-extraction), and every trigger → instance
        # occurrence is appended as a flat code ``source_id << 32 |
        # target_id`` with its record id alongside.  The lists are
        # append-only: deactivated records are filtered out by rid at
        # graph-build time, so a rebuild is array work instead of a scan
        # of record objects.
        self._instance_ids: dict[str, dict[str, int]] = {}
        self._edge_codes: dict[str, list[int]] = {}
        self._edge_rids: dict[str, list[int]] = {}
        # The same lists as arrays that grow with them (per concept).
        self._edge_arrays: dict[str, tuple[_GrowingArray, _GrowingArray]] = {}
        # KB-wide instance numbers, so per-concept ids of one instance
        # can be joined across concepts: name → number, and per concept
        # id → number.
        self._instance_numbers: dict[str, int] = {}
        self._id_numbers: dict[str, list[int]] = {}
        self._id_number_arrays: dict[str, _GrowingArray] = {}
        # Record activity, one byte per rid (doubling growth by
        # replacement, never resized in place, so a NumPy view a bulk
        # reader took stays valid).  Per-rid checks index it directly;
        # bulk readers mask by rid through a view.
        self._active_flags = bytearray(1024)
        # rid → its triggers whose pairs died; an entry appears only when
        # the first one dies.
        self._dead_triggers: dict[int, set[IsAPair]] = {}
        self._removed_pairs: set[IsAPair] = set()
        # Mutation versioning (see module docstring).
        self._version = 0
        self._concept_version: dict[str, int] = {}
        self._concepts_cache: tuple[str, ...] | None = None
        # concept → (version, ConceptState) memo.
        self._state_cache: dict[str, tuple[int, ConceptState]] = {}

    # ------------------------------------------------------------------
    # Versioning
    # ------------------------------------------------------------------
    @property
    def version(self) -> int:
        """Monotonic counter bumped by every mutation."""
        return self._version

    def concept_version(self, concept: str) -> int:
        """Version at which ``concept`` was last mutated (0 = never)."""
        return self._concept_version.get(concept, 0)

    def dirty_concepts_since(self, version: int) -> frozenset[str]:
        """Concepts mutated after the given version."""
        return frozenset(
            concept
            for concept, touched in self._concept_version.items()
            if touched > version
        )

    def _touch(self, concept: str) -> None:
        self._version += 1
        self._concept_version[concept] = self._version
        self._concepts_cache = None

    def copy(self) -> KnowledgeBase:
        """An independent copy that reads and iterates exactly like this one.

        Pair states are new objects, every index is copied (activity and
        dead triggers included), and :attr:`version` and each
        :meth:`concept_version` carry over.  The memo caches start empty:
        they are pure functions of those versions.  Records, pairs and
        instance strings are immutable and shared.
        """
        clone = KnowledgeBase()
        clone._records = self._records.copy()
        clone._record_sids = self._record_sids.copy()
        fresh = {
            id(state): PairState(
                state.count, state.core_count, state.first_iteration,
                state.record_ids.copy(), state.restarted,
            )
            for state in self._pairs.values()
        }
        clone._pairs = {
            pair: fresh[id(state)] for pair, state in self._pairs.items()
        }
        clone._by_concept = {
            concept: {
                instance: fresh[id(state)]
                for instance, state in by_instance.items()
            }
            for concept, by_instance in self._by_concept.items()
        }
        clone._instance_concepts = _copy_values(self._instance_concepts)
        clone._records_by_trigger = _copy_values(self._records_by_trigger)
        clone._instance_ids = _copy_values(self._instance_ids)
        clone._edge_codes = _copy_values(self._edge_codes)
        clone._edge_rids = _copy_values(self._edge_rids)
        clone._instance_numbers = self._instance_numbers.copy()
        clone._id_numbers = _copy_values(self._id_numbers)
        clone._active_flags = self._active_flags.copy()
        clone._dead_triggers = _copy_values(self._dead_triggers)
        clone._removed_pairs = self._removed_pairs.copy()
        clone._version = self._version
        clone._concept_version = self._concept_version.copy()
        return clone

    # ------------------------------------------------------------------
    # Writing
    # ------------------------------------------------------------------
    def add_extraction(
        self,
        sid: int,
        concept: str,
        instances: Iterable[str],
        triggers: Iterable[IsAPair] = (),
        iteration: int = 1,
    ) -> ExtractionRecord:
        """Commit one sentence extraction and return its provenance record."""
        instances = tuple(instances)
        triggers = tuple(triggers)
        if not instances:
            raise KnowledgeBaseError("an extraction must produce instances")
        for trigger in triggers:
            if trigger not in self._pairs:
                raise KnowledgeBaseError(
                    f"trigger {trigger} is not in the knowledge base"
                )
        rid = len(self._records)
        record = ExtractionRecord(
            rid, sid, concept, instances, triggers, iteration
        )
        self._records.append(record)
        self._record_sids.append(sid)
        flags = self._active_flags
        if rid >= len(flags):
            flags = self._active_flags = flags + bytes(len(flags))
        flags[rid] = 1
        ids = self._instance_ids.setdefault(concept, {})
        core = int(iteration == 1)
        for pair in record.produced:
            instance = pair.instance
            if instance not in ids:
                ids[instance] = len(ids)
                numbers = self._instance_numbers
                self._id_numbers.setdefault(concept, []).append(
                    numbers.setdefault(instance, len(numbers))
                )
            state = self._pairs.get(pair)
            if state is None:
                state = PairState(
                    1, core, iteration, [rid], pair in self._removed_pairs
                )
                self._pairs[pair] = state
                self._by_concept.setdefault(concept, {})[instance] = state
                self._instance_concepts.setdefault(instance, set()).add(
                    concept
                )
                self._removed_pairs.discard(pair)
            else:
                state.count += 1
                state.core_count += core
                state.record_ids.append(rid)
        if triggers:
            # Every edge endpoint has an id by now: targets are either
            # produced above or trigger instances, and triggers are
            # existing pairs (hence produced by an earlier record).
            codes = self._edge_codes.setdefault(concept, [])
            rids = self._edge_rids.setdefault(concept, [])
            for trigger in record.trigger_instances:
                base = ids[trigger] << 32
                for e in instances:
                    if e != trigger:
                        codes.append(base | ids[e])
                        rids.append(rid)
            for trigger in dict.fromkeys(triggers):
                self._records_by_trigger.setdefault(trigger, []).append(rid)
        self._touch(concept)
        return record

    # ------------------------------------------------------------------
    # Reading: pairs
    # ------------------------------------------------------------------
    def __contains__(self, pair: IsAPair) -> bool:
        return pair in self._pairs

    def __len__(self) -> int:
        return len(self._pairs)

    def pairs(self) -> Iterator[IsAPair]:
        """Iterate over all alive pairs in first-insertion order.

        A pair joins the end when it is created and leaves when it dies
        or is removed; a pair that comes back joins the end again.  So
        the pairs an uninterrupted run of :meth:`add_extraction` created
        are exactly the tail past the length the KB had before it.
        """
        return iter(self._pairs)

    def count(self, pair: IsAPair) -> int:
        """Active-evidence count for a pair (0 when absent)."""
        state = self._pairs.get(pair)
        return state.count if state is not None else 0

    def first_iteration(self, pair: IsAPair) -> int:
        """Iteration a pair was first extracted in."""
        state = self._pairs.get(pair)
        if state is None:
            raise KnowledgeBaseError(f"pair not in knowledge base: {pair}")
        return state.first_iteration

    def concepts(self) -> list[str]:
        """All concepts with at least one alive instance (sorted).

        The sorted tuple is cached and invalidated by the version counter,
        so read-heavy phases (scoring, labelling) do not re-sort.
        """
        if self._concepts_cache is None:
            self._concepts_cache = tuple(
                sorted(c for c, known in self._by_concept.items() if known)
            )
        return list(self._concepts_cache)

    def instances_of(self, concept: str) -> frozenset[str]:
        """Alive instances under a concept."""
        return frozenset(self._by_concept.get(concept, ()))

    def has_instance(self, concept: str, instance: str) -> bool:
        """True iff ``(concept, instance)`` is alive."""
        return instance in self._by_concept.get(concept, ())

    def concepts_with_instance(self, instance: str) -> frozenset[str]:
        """All concepts an instance is currently (alive) extracted under."""
        return frozenset(self._instance_concepts.get(instance, ()))

    def iter_concepts_with_instance(self, instance: str) -> Collection[str]:
        """:meth:`concepts_with_instance` without the defensive copy.

        Returns the live index entry — read it immediately, never hold it
        across KB mutations.  It backs
        ``MutualExclusionIndex.exclusive_concepts_containing``, which the
        cleaner's Definition-4 guard and the session's drift telemetry
        call once per pair they test; a frozenset copy there is waste.
        """
        return self._instance_concepts.get(instance, ())

    def instance_view(self, concept: str) -> Collection[str]:
        """Live, set-operable view of a concept's alive instances.

        A dict keys view: supports ``&``/``in`` at C speed without the
        :meth:`instances_of` frozenset copy.  Read it immediately, never
        hold it across KB mutations.
        """
        return self._by_concept.get(concept, _EMPTY_DICT).keys()

    def core_instances(self, concept: str) -> frozenset[str]:
        """Instances first extracted in iteration 1 (the paper's Core(C))."""
        return frozenset(
            instance
            for instance, state in self._by_concept.get(
                concept, _EMPTY_DICT
            ).items()
            if state.first_iteration == 1
        )

    def core_count(self, pair: IsAPair) -> int:
        """Evidence for a pair coming from iteration-1 records only."""
        state = self._pairs.get(pair)
        return state.core_count if state is not None else 0

    def concept_state(self, concept: str) -> ConceptState:
        """A concept's alive pairs as id-indexed arrays (memoised).

        The bulk readers (trigger graphs, feature matrices, seed labels)
        read every alive pair of every analysed concept once per
        detection refit; the memo is invalidated by the version counter.
        """
        cached = self._state_cache.get(concept)
        current = self.concept_version(concept)
        if cached is None or cached[0] != current:
            names = tuple(sorted(self._by_concept.get(concept, ())))
            ids = self._instance_ids.get(concept, _EMPTY_DICT)
            order = np.fromiter(
                map(ids.__getitem__, names), np.int64, len(names)
            )
            by_instance = self._by_concept.get(concept, _EMPTY_DICT)
            states = list(map(by_instance.__getitem__, names))
            columns = np.zeros((3, len(ids)), dtype=np.int64)
            columns[:, order] = [
                list(map(attrgetter("count"), states)),
                list(map(attrgetter("first_iteration"), states)),
                list(map(attrgetter("core_count"), states)),
            ]
            alive = np.zeros(len(ids), dtype=bool)
            alive[order] = True
            for array in (order, alive, columns):
                array.flags.writeable = False
            cached = (
                current, ConceptState(names, order, alive, *columns)
            )
            self._state_cache[concept] = cached
        return cached[1]

    def removed_pairs(self) -> frozenset[IsAPair]:
        """Pairs that existed once but were rolled back to zero evidence."""
        return frozenset(self._removed_pairs)

    def restarted_pairs(self) -> dict[IsAPair, int]:
        """Alive re-extracted pairs → the rid their history restarts at."""
        return {
            pair: state.record_ids[0]
            for pair, state in self._pairs.items()
            if state.restarted
        }

    # ------------------------------------------------------------------
    # Reading: records / provenance
    # ------------------------------------------------------------------
    def record(self, rid: int) -> ExtractionRecord:
        """Look up a record by id."""
        if 0 <= rid < len(self._records):
            return self._records[rid]
        raise KnowledgeBaseError(f"no record with rid {rid}")

    @property
    def num_records(self) -> int:
        """Records ever committed, active or not (rids are ``0..n-1``)."""
        return len(self._records)

    def records(self, include_inactive: bool = False) -> Iterator[ExtractionRecord]:
        """Iterate over records in rid order (active only, by default)."""
        active = self._active_flags
        for record in self._records:
            if include_inactive or active[record.rid]:
                yield record

    def record_sids(self) -> np.ndarray:
        """The sid of every record, indexed by rid (read-only).

        The array grows with the KB, so a read converts only the records
        committed since the last one.
        """
        return self._record_sid_array.of(self._record_sids)

    def is_active(self, rid: int) -> bool:
        """True until record ``rid`` is rolled back."""
        if 0 <= rid < len(self._records):
            return self._active_flags[rid] == 1
        raise KnowledgeBaseError(f"no record with rid {rid}")

    def dead_triggers(self) -> dict[int, tuple[IsAPair, ...]]:
        """Rid → the record's triggers whose pairs were removed.

        Rids ascend and each tuple keeps trigger order; records whose
        triggers are all alive are absent.
        """
        records = self._records
        return {
            rid: tuple(t for t in records[rid].triggers if t in dead)
            for rid, dead in sorted(self._dead_triggers.items())
        }

    def instance_id_map(self, concept: str) -> dict[str, int]:
        """Stable per-concept instance ids (grow-only; treat as read-only).

        Ids are assigned at first extraction and survive removal, so
        edge codes recorded against them never need rewriting.
        """
        return self._instance_ids.get(concept, {})

    def edge_arrays(self, concept: str) -> tuple[np.ndarray, np.ndarray]:
        """Trigger-edge occurrences of a concept (read-only arrays).

        Returns ``(codes, rids)``: one entry per trigger → instance
        occurrence in the order they were extracted, where a code is
        ``source_id << 32 | target_id`` over :meth:`instance_id_map` ids
        and ``rids[i]`` is the record the occurrence came from.  Consumers
        filter by record activity themselves.  The arrays grow with the
        KB, so a read converts only the occurrences added since the last.
        """
        arrays = self._edge_arrays.get(concept)
        if arrays is None:
            arrays = self._edge_arrays[concept] = (
                _GrowingArray(), _GrowingArray()
            )
        return (
            arrays[0].of(self._edge_codes.get(concept, [])),
            arrays[1].of(self._edge_rids.get(concept, [])),
        )

    def active_edges(
        self, concepts: Iterable[str], offsets: Mapping[str, int]
    ) -> np.ndarray:
        """The active records' edge codes of many concepts in one id space.

        Each concept's ids are shifted by ``offsets[concept]`` (both halves
        of the code), so the codes of one source still sort by target id
        and the concepts' ids can be laid end to end.
        """
        active = np.frombuffer(self._active_flags, dtype=bool)
        both = (1 << 32) + 1
        shifted = [np.zeros(0, dtype=np.int64)]
        for concept in concepts:
            codes, rids = self.edge_arrays(concept)
            shifted.append(codes[active[rids]] + offsets[concept] * both)
        return np.concatenate(shifted)

    def instance_numbers(self, concept: str) -> np.ndarray:
        """KB-wide number of each of a concept's instance ids (read-only).

        Entry ``i`` numbers the instance with id ``i``; one instance has
        the same number under every concept, so per-concept ids join
        across concepts through it.
        """
        array = self._id_number_arrays.get(concept)
        if array is None:
            array = self._id_number_arrays[concept] = _GrowingArray()
        return array.of(self._id_numbers.get(concept, []))

    @property
    def num_instance_numbers(self) -> int:
        """Instances ever numbered (numbers are ``0..n-1``)."""
        return len(self._instance_numbers)

    def record_active_flags(self) -> bytearray:
        """Record activity by rid, 1 or 0 per byte (live; read-only).

        Read it immediately, never hold it across KB mutations.  Per-rid
        hot loops index it directly; bulk readers mask by rid through
        ``np.frombuffer(flags, dtype=bool)``, which does not copy.  May be
        longer than the number of records; indexing by any valid rid is
        always in bounds.
        """
        return self._active_flags

    def records_for_pair(self, pair: IsAPair) -> list[ExtractionRecord]:
        """Active records that produced a pair."""
        state = self._pairs.get(pair)
        if state is None:
            return []
        records = self._records
        active = self._active_flags
        return [records[rid] for rid in state.record_ids if active[rid]]

    def records_triggered_by(self, pair: IsAPair) -> list[ExtractionRecord]:
        """Active records that list ``pair`` among their triggers."""
        records = self._records
        active = self._active_flags
        return [
            records[rid]
            for rid in self._records_by_trigger.get(pair, ())
            if active[rid]
        ]

    def trigger_index(self) -> Mapping[IsAPair, Sequence[int]]:
        """Trigger pair → the rids it triggered, active or not (read-only).

        Pairs that never triggered anything are absent.  Rids ascend, each
        once, as in :meth:`records_triggered_by`, so bulk readers that
        filter activity themselves see the same sequence.
        """
        return self._records_by_trigger

    def sub_instance_counts(self, concept: str, instance: str) -> dict[str, int]:
        """Frequency of sub-instances triggered by ``(concept, instance)``.

        ``sub(e)`` in the paper: instances extracted from sentences whose
        resolution was triggered by ``e`` under the same concept, counted
        per active record.  Co-instances that were already known still
        count — Fig. 2 of the paper shows non-DP triggers re-extracting
        popular core instances, which is exactly what makes their
        sub-instance distribution resemble the class distribution.
        """
        counts: dict[str, int] = {}
        for record in self.records_triggered_by(IsAPair(concept, instance)):
            for other in record.instances:
                if other != instance:
                    counts[other] = counts.get(other, 0) + 1
        return counts

    def frequency_distribution(self, concept: str) -> dict[str, int]:
        """Evidence counts for every alive instance under a concept."""
        return {
            instance: state.count
            for instance, state in self._by_concept.get(concept, {}).items()
        }

    # ------------------------------------------------------------------
    # Primitive mutation (used by the rollback engine)
    # ------------------------------------------------------------------
    def remove_pair(self, pair: IsAPair) -> None:
        """Force-remove a pair regardless of remaining evidence.

        Producing records stay active (their sibling pairs are innocent);
        the caller must handle records *triggered by* the pair.
        """
        if pair not in self._pairs:
            raise KnowledgeBaseError(f"pair not in knowledge base: {pair}")
        del self._pairs[pair]
        self._drop_indexes(pair)
        self._removed_pairs.add(pair)
        self._touch(pair.concept)

    def _drop_indexes(self, pair: IsAPair) -> None:
        by_concept = self._by_concept.get(pair.concept)
        if by_concept is not None:
            by_concept.pop(pair.instance, None)
        concepts = self._instance_concepts.get(pair.instance)
        if concepts is not None:
            concepts.discard(pair.concept)
            if not concepts:
                del self._instance_concepts[pair.instance]

    def deactivate_record(self, rid: int) -> list[IsAPair]:
        """Deactivate a record; return pairs whose evidence dropped to zero.

        Dead pairs are removed from the store.  The caller (the rollback
        engine) is responsible for cascading into records triggered by the
        dead pairs.
        """
        if not self.is_active(rid):
            raise KnowledgeBaseError(f"record {rid} is already inactive")
        record = self._records[rid]
        self._active_flags[rid] = 0
        core = int(record.iteration == 1)
        died: list[IsAPair] = []
        for pair in record.produced:
            state = self._pairs.get(pair)
            # A pair re-extracted after this record produced it restarted
            # its history past this record, which no longer counts for it.
            if state is None or state.record_ids[0] > rid:
                continue
            state.count -= 1
            state.core_count -= core
            if state.count <= 0:
                del self._pairs[pair]
                self._drop_indexes(pair)
                self._removed_pairs.add(pair)
                died.append(pair)
        self._touch(record.concept)
        return died

    def kill_trigger(self, rid: int, pair: IsAPair) -> bool:
        """Mark ``pair`` dead among record ``rid``'s triggers.

        A pair the record was not triggered by is ignored.  Returns True
        when the record has triggers and none of them is alive any more.
        """
        triggers = self.record(rid).triggers
        if not triggers:
            return False
        dead = self._dead_triggers.get(rid)
        if pair in triggers:
            if dead is None:
                dead = self._dead_triggers[rid] = set()
            dead.add(pair)
        return dead is not None and all(t in dead for t in triggers)

    def restore_restarts(
        self, restarts: Iterable[tuple[IsAPair, int, int]]
    ) -> None:
        """Restart re-extracted pairs as they were live (loaders only).

        Replay gives a re-extracted pair every producing record's history
        (alive, its ``record_ids`` list every producer in rid order); each
        ``(pair, rid, count)`` restarts it at record ``rid``.  Its count and
        core count are recounted from the activity of its records from
        ``rid`` on, and a stored ``count`` that differs raises.  Pairs then
        take their creation order again.
        """
        records = self._records
        active = self._active_flags
        touched: dict[str, dict[str, PairState]] = {}
        for pair, rid, count in restarts:
            replayed = self._pairs.get(pair)
            rids = replayed.record_ids if replayed is not None else []
            rids = rids[bisect_left(rids, rid):]
            live = [r for r in rids if active[r]]
            state = PairState(
                len(live),
                sum(records[r].iteration == 1 for r in live),
                self.record(rid).iteration,
                rids,
                restarted=True,
            )
            if state.record_ids[:1] != [rid] or not live or count != len(live):
                raise KnowledgeBaseError(
                    f"record {rid} cannot restart {pair} with count {count}:"
                    f" {len(live)} of its records from there are active"
                )
            self._pairs[pair] = state
            self._instance_concepts.setdefault(pair.instance, set()).add(
                pair.concept
            )
            self._removed_pairs.discard(pair)
            self._touch(pair.concept)
            touched[pair.concept] = {}

        def created(item: tuple[IsAPair, PairState]) -> tuple[int, int]:
            first = item[1].record_ids[0]
            return first, self._records[first].produced.index(item[0])

        if touched:
            self._pairs = dict(sorted(self._pairs.items(), key=created))
            for pair, state in self._pairs.items():
                if pair.concept in touched:
                    touched[pair.concept][pair.instance] = state
            self._by_concept.update(touched)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"KnowledgeBase(pairs={len(self._pairs)}, "
            f"records={len(self._records)})"
        )
