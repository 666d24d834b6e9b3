"""The storage-backend seam of the index layer.

The ITA engine's scoring state lives in three container families: the
impact-ordered inverted lists ``L_t``, the per-list threshold trees and the
FIFO document store.  Historically the concrete bisect-based classes
(:class:`~repro.index.inverted_list.InvertedList`,
:class:`~repro.index.threshold_tree.ThresholdTree`,
:class:`~repro.index.document_store.DocumentStore`) were hard-coded
throughout the engine; this module makes the choice explicit by extracting
their implicit contract into :class:`StorageBackend` and routing container
construction through a named registry.

A backend supplies

* a factory per container family (``make_inverted_list`` /
  ``make_threshold_tree`` / ``make_document_store``), and
* optionally two fused kernels -- a *batch kernel*
  ``kernel(engine, documents) -> per-event changes`` that
  :meth:`repro.core.engine.ITAEngine.process_batch_events` dispatches to,
  and a *descent kernel* that runs a query's initial top-k search.
  Backends without them fall back to the engine's generic paths, so
  third-party backends only need the three factories to be correct; the
  kernels are purely a speed contract.

Two backends ship with the repo:

* ``"bisect"`` -- the original object-per-posting containers, unchanged:
  the paper-faithful reference and the conformance oracle.
* ``"columnar"`` -- parallel ``array``-column storage with fused kernels
  (:mod:`repro.index.columnar`), imported lazily on first use.  It is what
  a service runs unless told otherwise (:data:`DEFAULT_STORAGE`).

Every container returned by a backend must be *semantically
interchangeable* with the bisect one: same ordering convention
(descending weight, ties by ascending document id), same exceptions, same
iteration results.  The differential conformance tapes and the
property-based determinism suite enforce this bit-for-bit.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from importlib import import_module
from typing import Callable, Dict, List, Optional

from repro.exceptions import ConfigurationError
from repro.index.document_store import DocumentStore
from repro.index.inverted_list import InvertedList
from repro.index.threshold_tree import ThresholdTree

__all__ = [
    "DEFAULT_STORAGE",
    "StorageBackend",
    "BisectStorageBackend",
    "register_storage_backend",
    "storage_backend",
    "storage_backends",
]

#: The backend of an :class:`~repro.service.spec.EngineSpec` that names
#: none.  (``ITAEngine`` and ``InvertedIndex`` constructed directly keep
#: the ``"bisect"`` reference as their own default.)
DEFAULT_STORAGE = "columnar"


class StorageBackend(ABC):
    """Factory bundle for one storage representation of the scoring state.

    Subclasses set :attr:`name` and implement the two abstract container
    factories.  ``make_document_store`` and the kernels have sensible
    defaults (the FIFO store is plain object storage and is shared by all
    backends; no kernel means the engine uses its generic path).
    """

    #: registry key; also recorded in snapshots and bench schema rows
    name: str = "abstract"

    #: When True, the index keeps inverted lists only for terms somebody
    #: is actually watching (a threshold tree exists, or an ordered read
    #: promoted the list).  For every other ("cold") term it merely records
    #: which documents brought the term -- one append per arrival, nothing
    #: per expiration -- and builds the list from those documents' own
    #: weights when the term is watched: one sort of that term's
    #: postings, no scan of the document store.  When the watch ends the
    #: list turns back into a record of its ``_weights`` keys, which the
    #: list must keep in insertion (arrival) order.  Only the lists of
    #: query terms are ever probed, rolled up or descended, so the
    #: postings no query reads are never sorted at all.
    virtual_cold_lists: bool = False

    @abstractmethod
    def make_inverted_list(self, term_id: int):
        """A fresh, empty inverted list ``L_t`` for ``term_id``."""

    @abstractmethod
    def make_threshold_tree(self, term_id: int):
        """A fresh, empty threshold tree for ``term_id``."""

    def build_inverted_list(self, term_id: int, postings):
        """An inverted list over the ``doc_id -> weight`` map ``postings``.

        Used when a cold term is promoted; the list may adopt the map.  The
        default inserts one posting at a time; backends with a bulk
        sorted-build path should override.
        """
        inverted_list = self.make_inverted_list(term_id)
        for doc_id, weight in postings.items():
            inverted_list.insert(doc_id, weight)
        return inverted_list

    def attach_tree(self, inverted_list, tree) -> None:
        """Let the list object reference its term's threshold tree.

        Called whenever the term becomes watched (its tree is created).
        The default is a no-op; backends whose kernel wants one-load
        access to the tree store it on the list here.
        """

    def make_document_store(self) -> DocumentStore:
        """The FIFO store of valid documents (shared default)."""
        return DocumentStore()

    def batch_kernel(self) -> Optional[Callable]:
        """A fused batch-processing function, or ``None`` for the generic path.

        The callable has the signature ``kernel(engine, documents)`` and
        must produce exactly the same engine state, counters and per-event
        change lists as calling ``engine.process`` once per document.
        """
        return None

    def descent_kernel(self) -> Optional[Callable]:
        """A fused threshold descent, or ``None`` for the generic one.

        The callable has the signature ``descent(state, start_thresholds)
        -> (thresholds, tau)`` and must read the same postings, score the
        same documents into ``state.results`` and add the same counts to
        ``state.counters`` as :func:`repro.core.descent.threshold_descent`
        in weighted probe order.  Every term of ``state.query`` is watched
        when it is called.
        """
        return None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}(name={self.name!r})"


class BisectStorageBackend(StorageBackend):
    """The original bisect containers, exposed through the seam unchanged."""

    name = "bisect"

    def make_inverted_list(self, term_id: int) -> InvertedList:
        return InvertedList(term_id)

    def make_threshold_tree(self, term_id: int) -> ThresholdTree:
        return ThresholdTree(term_id)


# --------------------------------------------------------------------- #
# registry
# --------------------------------------------------------------------- #
_FACTORIES: Dict[str, Callable[[], StorageBackend]] = {
    "bisect": BisectStorageBackend,
}
#: built-in backends whose module is imported on first use (so the bisect
#: fast path never pays for the columnar module, and vice versa)
_LAZY_MODULES: Dict[str, str] = {
    "columnar": "repro.index.columnar",
}
_INSTANCES: Dict[str, StorageBackend] = {}


def register_storage_backend(
    name: str,
    factory: Callable[[], StorageBackend],
    replace_existing: bool = False,
) -> None:
    """Install ``factory`` under ``name`` in the backend registry.

    ``factory`` is a zero-argument callable (typically the backend class)
    returning a :class:`StorageBackend`.  Registering an already-known name
    raises unless ``replace_existing`` is set; re-registering the *same*
    factory is a no-op so module re-imports stay safe.
    """
    existing = _FACTORIES.get(name)
    if existing is factory:
        return
    if existing is not None and not replace_existing:
        raise ConfigurationError(f"storage backend {name!r} is already registered")
    _FACTORIES[name] = factory
    _INSTANCES.pop(name, None)


def storage_backend(name: str) -> StorageBackend:
    """The (cached) backend instance registered under ``name``."""
    instance = _INSTANCES.get(name)
    if instance is not None:
        return instance
    factory = _FACTORIES.get(name)
    if factory is None:
        module = _LAZY_MODULES.get(name)
        if module is not None:
            import_module(module)  # registers itself on import
            factory = _FACTORIES.get(name)
    if factory is None:
        known = ", ".join(sorted(storage_backends()))
        raise ConfigurationError(
            f"unknown storage backend {name!r} (known backends: {known})"
        )
    instance = factory()
    _INSTANCES[name] = instance
    return instance


def storage_backends() -> List[str]:
    """All known backend names (registered plus lazy built-ins), sorted."""
    return sorted(set(_FACTORIES) | set(_LAZY_MODULES))
