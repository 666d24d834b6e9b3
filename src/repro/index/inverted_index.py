"""The inverted index over the valid documents.

This ties the substrate together (paper, Figure 1): a term dictionary maps
each term id to its impact-ordered :class:`InvertedList` and to the
associated :class:`ThresholdTree`; a :class:`DocumentStore` holds the full
document information.  Whole-document insertion and removal update every
per-term structure, returning the per-term impact entries so that the
engines can drive their per-query maintenance from them.

The index is shared by the ITA engine and by the baselines so that all
engines pay identical substrate costs and the measured differences are due
to the query-maintenance strategies alone (which is also how the paper's
evaluation is set up: both systems see the same stream and window).
"""

from __future__ import annotations

from typing import Container, Dict, Iterable, Iterator, List, Optional, Tuple, Union

from repro.documents.document import StreamedDocument
from repro.exceptions import UnknownDocumentError
from repro.index.backend import StorageBackend, storage_backend
from repro.index.document_store import DocumentStore
from repro.index.inverted_list import InvertedList
from repro.index.threshold_tree import ThresholdTree

__all__ = ["InvertedIndex"]

#: cold records below which the index never bothers to sweep
_COLD_SWEEP_MIN = 1024
#: a cold record looks at its head for expired ids only when an append
#: brings its length to a multiple of this (see :func:`record_cold`)
_COLD_HEAD_CHECK = 16


def record_cold(
    cold: Dict[int, List[int]], term_ids: Iterable[int], listed: Container[int], doc_id: int, valid: Container[int]
) -> None:
    """Record in ``cold`` that document ``doc_id`` brought each of ``term_ids``
    that ``listed`` does not hold.

    The one rule for appending to cold records, used by
    :meth:`InvertedIndex.insert_document` and the columnar kernel.  An
    append is all an arrival pays, except when it brings the record's
    length to a multiple of :data:`_COLD_HEAD_CHECK`: then the expired ids
    at its head (windows expire oldest first) are dropped, down to the
    first id in ``valid`` -- at the latest ``doc_id`` itself, which must be
    in ``valid`` already, so no record is ever left empty.  Checking at
    every append read the record's oldest element each time; checking at
    every 16th leaves up to 15 more stale ids in a record (readers skip
    them, and :meth:`InvertedIndex._sweep_cold` still drops records gone
    entirely stale).
    """
    get = cold.get
    for term_id in term_ids:
        if term_id in listed:
            continue
        record = get(term_id)
        if record is None:
            cold[term_id] = [doc_id]
        else:
            record.append(doc_id)
            if not len(record) % _COLD_HEAD_CHECK:
                while record[0] not in valid:
                    del record[0]


class InvertedIndex:
    """In-memory inverted file over the currently valid documents.

    The concrete container representation is supplied by a
    :class:`~repro.index.backend.StorageBackend` (default ``"bisect"``, the
    original object-per-posting containers); ``backend`` accepts either a
    registered backend name or a backend instance.

    A *watched* term (one with a threshold tree) always has a list, empty
    if need be, linked to its tree through
    :meth:`StorageBackend.attach_tree`.  A term is watched exactly while
    some registered query has it: :meth:`threshold_tree` starts a watch and
    :meth:`unwatch` ends it.  What an unwatched term has is the
    backend's choice (:attr:`StorageBackend.virtual_cold_lists`): a list
    like any other, or -- a *cold* term -- only a record of which documents
    brought it, from which its list is built when somebody first reads it.
    """

    def __init__(self, backend: Union[None, str, StorageBackend] = None) -> None:
        if backend is None:
            backend = storage_backend("bisect")
        elif isinstance(backend, str):
            backend = storage_backend(backend)
        self.backend = backend
        self._virtual = bool(backend.virtual_cold_lists)
        self._lists: Dict[int, InvertedList] = {}
        self._trees: Dict[int, ThresholdTree] = {}
        #: Cold terms (virtual backends only; empty otherwise): term id ->
        #: ids of the documents that brought the term, oldest first.  An
        #: arrival appends (:func:`record_cold`), an expiration does
        #: nothing, so a record may name documents the store no longer
        #: holds: every reader skips those, an append that brings a
        #: record's length to a multiple of 16 drops them from its head
        #: (windows expire oldest first) and :meth:`_sweep_cold` drops
        #: records gone entirely stale.  A term is never both cold and
        #: listed.
        self._cold: Dict[int, List[int]] = {}
        #: ``len(_cold)`` that triggers the next sweep (doubling: amortised O(1))
        self._cold_limit = _COLD_SWEEP_MIN
        self.documents = backend.make_document_store()

    # ------------------------------------------------------------------ #
    # cold terms
    # ------------------------------------------------------------------ #
    def _cold_postings(self, term_id: int) -> Dict[int, float]:
        """The valid postings ``{doc_id: weight}`` a cold record stands for.

        Costs in proportion to the record, i.e. to the term's own postings
        (at most as many stale ids again); the store is looked up by id,
        never scanned.  The map is in arrival order, oldest first, as
        :meth:`unwatch` expects of a list's ``_weights``: a reused id's last
        place in the record is its arrival.
        """
        postings: Dict[int, float] = {}
        # The store's own dict and each composition's raw dict, as in the
        # kernel: a restore promotes every term its queries watch.
        valid = self.documents._documents
        for doc_id in self._cold.get(term_id, ()):
            document = valid.get(doc_id)
            if document is not None:
                weight = document.document.composition._raw.get(term_id)
                if weight is not None:  # None: the id was reused by a document without the term
                    postings.pop(doc_id, None)
                    postings[doc_id] = weight
        return postings

    def _promote(self, term_id: int) -> Optional[InvertedList]:
        """Turn the cold record of ``term_id`` into an ordered list.

        Returns ``None`` (and installs nothing) when no valid document
        contains the term.  Otherwise every later update maintains the list
        incrementally until :meth:`unwatch` or its last expiry removes it.
        """
        postings = self._cold_postings(term_id)
        self._cold.pop(term_id, None)
        if not postings:
            return None
        inverted_list = self.backend.build_inverted_list(term_id, postings)
        self._lists[term_id] = inverted_list
        return inverted_list

    def _sweep_cold(self) -> None:
        """Forget the cold terms whose every document has expired."""
        # The store's own dict, as in the kernel: this runs on the ingest
        # path, once per doubling, over every record.
        valid = self.documents._documents
        cold = self._cold
        # Oldest first: a record whose newest document is gone is all stale.
        for term_id in [t for t, ids in cold.items() if ids[-1] not in valid]:
            del cold[term_id]
        self._cold_limit = max(_COLD_SWEEP_MIN, 2 * len(cold))

    # ------------------------------------------------------------------ #
    # dictionary access
    # ------------------------------------------------------------------ #
    def inverted_list(self, term_id: int) -> InvertedList:
        """The inverted list of ``term_id``, created on first use."""
        inverted_list = self.existing_list(term_id)
        if inverted_list is None:
            # A term without a list has no tree either: watching a term
            # creates its list, which stays until the watch ends.
            inverted_list = self.backend.make_inverted_list(term_id)
            self._lists[term_id] = inverted_list
        return inverted_list

    def existing_list(self, term_id: int) -> Optional[InvertedList]:
        """The inverted list of ``term_id`` or ``None`` if it has no postings.

        A cold term that does occur in valid documents is promoted on the
        fly, so callers see exactly the postings an eager backend keeps.
        """
        inverted_list = self._lists.get(term_id)
        if inverted_list is None and term_id in self._cold:
            return self._promote(term_id)
        return inverted_list

    def threshold_tree(self, term_id: int) -> ThresholdTree:
        """The threshold tree of ``term_id``, created on first use.

        Creating a tree marks the term as *watched*: its list is built
        right here (from the cold record if there is one; empty when no
        valid document contains the term) and handed to the backend
        together with the tree, so that probes, roll-ups and descents
        always find the two linked.
        """
        tree = self._trees.get(term_id)
        if tree is None:
            tree = self.backend.make_threshold_tree(term_id)
            self._trees[term_id] = tree
            self.backend.attach_tree(self.inverted_list(term_id), tree)
        return tree

    def unwatch(self, term_id: int) -> None:
        """Stop watching ``term_id``; its tree must have no query left.

        The inverse of :meth:`threshold_tree`: the tree goes, and the list
        becomes what an unwatched term has -- nothing when it is empty, and
        on a virtual backend a cold record of its documents (the list's
        ``_weights`` keys, kept in arrival order) otherwise, exactly as if
        the term had never been watched.
        """
        del self._trees[term_id]
        inverted_list = self._lists[term_id]
        if inverted_list and not self._virtual:
            return
        del self._lists[term_id]
        if inverted_list:
            self._cold[term_id] = list(inverted_list._weights)

    def existing_tree(self, term_id: int) -> Optional[ThresholdTree]:
        return self._trees.get(term_id)

    def terms(self) -> Iterator[int]:
        """Term ids that currently have postings or a watcher."""
        return iter([*self._lists, *(t for t in self._cold if self._cold_postings(t))])

    def __len__(self) -> int:
        """Number of valid documents."""
        return len(self.documents)

    def __contains__(self, doc_id: int) -> bool:
        return doc_id in self.documents

    # ------------------------------------------------------------------ #
    # whole-document updates
    # ------------------------------------------------------------------ #
    def insert_document(self, document: StreamedDocument) -> int:
        """Index an arriving document.

        Scans the composition list and inserts one impact entry per term
        (paper, Section III-B: "We first scan its composition list and
        insert impact entries into the corresponding inverted lists"); for
        a cold term the entry is only recorded, not placed in order.
        Returns the number of impact entries inserted.
        """
        documents = self.documents
        documents.add(document)
        doc_id = document.doc_id
        inserted = 0
        lists = self._lists
        virtual = self._virtual
        make_list = self.backend.make_inverted_list
        for term_id, weight in document.composition.items():
            inserted += 1
            inverted_list = lists.get(term_id)
            if inverted_list is None:
                if virtual:
                    continue  # cold: recorded below
                inverted_list = make_list(term_id)
                lists[term_id] = inverted_list
            inverted_list.insert(doc_id, weight)
        if virtual:
            record_cold(self._cold, document.composition.terms(), lists, doc_id, documents)
            if len(self._cold) > self._cold_limit:
                self._sweep_cold()
        return inserted

    def remove_document(self, doc_id: int) -> Tuple[StreamedDocument, int]:
        """Un-index an expiring document.

        Deletes its impact entry from every term's list and removes it from
        the document store.  Returns the document and the number of impact
        entries deleted.
        """
        document = self.documents.remove(doc_id)
        removed = 0
        lists = self._lists
        trees = self._trees
        virtual = self._virtual
        for term_id in document.composition.terms():
            removed += 1
            inverted_list = lists.get(term_id)
            if inverted_list is None:
                if virtual:
                    continue  # cold: the posting went with the store entry
                raise UnknownDocumentError(
                    f"document {doc_id} lists term {term_id} but the term has no inverted list"
                )
            inverted_list.delete(doc_id)
            if not inverted_list and term_id not in trees:
                # Reclaim empty unwatched lists; a watched one stays attached
                # to its tree until the last query leaves (unwatch).
                del lists[term_id]
        return document, removed

    # ------------------------------------------------------------------ #
    # statistics / diagnostics
    # ------------------------------------------------------------------ #
    def posting_count(self) -> int:
        """Total number of impact entries across all terms."""
        return sum(self.list_lengths().values())

    def list_lengths(self) -> Dict[int, int]:
        """``{term_id: postings}`` for every term with postings."""
        lengths = {term_id: len(lst) for term_id, lst in self._lists.items() if len(lst)}
        for term_id in self._cold:
            postings = len(self._cold_postings(term_id))
            if postings:
                lengths[term_id] = postings
        return lengths

    def watch_stats(self) -> Dict[str, int]:
        """``{"watched": threshold trees, "cold": cold records}``."""
        return {"watched": len(self._trees), "cold": len(self._cold)}

    def check_invariants(self) -> None:
        """Cross-check lists and cold records against the store (tests only)."""
        assert not (self._cold.keys() & self._lists.keys()), "term both cold and listed"
        assert self._virtual or not self._cold, "cold record on an eager backend"
        for term_id, inverted_list in self._lists.items():
            inverted_list.check_invariants()
            for entry in inverted_list:
                document = self.documents.find(entry.doc_id)
                assert document is not None, (
                    f"posting for absent document {entry.doc_id} in term {term_id}"
                )
                assert abs(document.composition.weight(term_id) - entry.weight) < 1e-12
        for document in self.documents:
            for term_id, weight in document.composition.items():
                inverted_list = self._lists.get(term_id)
                if inverted_list is None:
                    assert document.doc_id in self._cold.get(term_id, ()), (
                        f"posting of document {document.doc_id} for term {term_id} "
                        "is neither listed nor recorded"
                    )
                else:
                    assert inverted_list.weight_of(document.doc_id) == weight
        for term_id, tree in self._trees.items():
            tree.check_invariants()
            # Watched terms always have a list, or the fused kernel would
            # skip their probes; a list that mirrors its tree (columnar)
            # mirrors this one.
            inverted_list = self._lists.get(term_id)
            assert inverted_list is not None, f"watched term {term_id} has no list"
            assert getattr(inverted_list, "_tree", tree) is tree, (
                f"list/tree link out of sync for term {term_id}"
            )
