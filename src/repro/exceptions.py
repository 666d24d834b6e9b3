"""Exception hierarchy for the :mod:`repro` library.

All exceptions raised by the library derive from :class:`ReproError`, so
callers can catch a single base class.  Subclasses are organised by
subsystem: text analysis, document/stream handling, indexing, query
management, and experiment execution.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for every error raised by the library."""


class ConfigurationError(ReproError):
    """An object was configured with inconsistent or invalid parameters."""


class AnalysisError(ReproError):
    """Text analysis (tokenisation, stemming, weighting) failed."""


class VocabularyError(ReproError):
    """A term or term identifier could not be resolved by a vocabulary."""


class DocumentError(ReproError):
    """A document is malformed (e.g. empty composition list, bad weights)."""


class StreamError(ReproError):
    """A document stream was used incorrectly (exhausted, out of order...)."""


class WindowError(ReproError):
    """A sliding-window operation violated the window discipline."""


class IndexError_(ReproError):
    """An inverted-index operation failed.

    Named with a trailing underscore to avoid shadowing the built-in
    :class:`IndexError`; exported as ``IndexCorruptionError`` too.
    """


IndexCorruptionError = IndexError_


class DuplicateDocumentError(IndexError_):
    """A document identifier was inserted twice into the same structure."""


class UnknownDocumentError(IndexError_):
    """A document identifier was not found where it was expected."""


class QueryError(ReproError):
    """A continuous query is malformed or was registered incorrectly."""


class DuplicateQueryError(QueryError):
    """A query identifier was registered twice with the same engine."""


class UnknownQueryError(QueryError):
    """A query identifier is not registered with the engine."""


class EngineError(ReproError):
    """The monitoring engine was driven incorrectly (e.g. time going backwards)."""


class ExperimentError(ReproError):
    """An experiment definition or run is invalid."""


class UnknownEngineError(ConfigurationError, ExperimentError):
    """An engine kind is not present in the engine-spec registry.

    Derives from both :class:`ConfigurationError` (it is a configuration
    problem) and :class:`ExperimentError` (the experiment harness
    historically raised that for unknown engine names), so both old and
    new callers catch it naturally.
    """


class ServiceError(ReproError):
    """The :class:`~repro.service.MonitoringService` façade was misused
    (e.g. ingesting after the service was closed)."""


class DurabilityError(ReproError):
    """A write-ahead-log or checkpoint operation failed (bad directory,
    malformed manifest, recovery impossible)."""


class WalCorruptionError(DurabilityError):
    """A write-ahead-log record failed its integrity check somewhere other
    than the torn tail (a truncated final record is expected after a crash
    and silently dropped; corruption *before* the tail is not)."""


class NetworkError(ReproError):
    """An operation of the :mod:`repro.net` framed-RPC layer failed."""


class RpcTransportError(NetworkError):
    """The connection to the peer broke mid-call (reset, EOF, bad frame).

    For calls into a shard worker this is its
    :class:`~repro.net.remote.RemoteShard` stub's cue to restart the
    worker and retry; callers of the serving tier see it when the server
    goes away."""


class RpcTimeoutError(NetworkError):
    """A call's deadline elapsed before the response frame arrived (or,
    for supervised worker calls, before a restarted worker could serve
    the retry)."""


class RpcRemoteError(NetworkError):
    """The peer executed the call and answered with an error the client
    could not map back onto a local exception type.

    Known ``repro`` exception types raised inside the peer are re-raised
    as themselves (an :class:`UnknownQueryError` on the server is an
    :class:`UnknownQueryError` at the client); everything else arrives as
    this class with the remote type name preserved."""

    def __init__(self, message: str, remote_type: str = "") -> None:
        super().__init__(message)
        #: the exception class name raised on the remote side
        self.remote_type = remote_type


class WorkerCrashError(NetworkError):
    """A shard worker process died and could not be brought back within
    the call's restart budget (``max_restarts`` exceeded or the deadline
    passed mid-recovery)."""
