"""Transport and supervision knobs of the out-of-process cluster.

:class:`ProcOptions` is the typed options object an
:class:`~repro.service.spec.EngineSpec` of kind ``"sharded-proc"`` carries
(its ``proc`` field).  Like :class:`~repro.documents.window.WindowSpec`,
the dictionary codec is *strict*: an unknown key raises
:class:`~repro.exceptions.ConfigurationError` naming the offending field,
so a typo in a serialised spec fails loudly at load time instead of
silently running with a default.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import Any, Dict, Mapping, Optional

from repro.exceptions import ConfigurationError

__all__ = ["ProcOptions"]

#: transports the coordinator can reach its workers over
_TRANSPORTS = ("unix", "tcp")

#: multiprocessing start methods the worker spawner accepts; ``"default"``
#: defers to the platform's :mod:`multiprocessing` default
_START_METHODS = ("default", "spawn", "fork", "forkserver")


@dataclass(frozen=True)
class ProcOptions:
    """How a ``"sharded-proc"`` engine spawns and talks to its workers.

    The defaults are production-lean: unix-domain sockets (falling back to
    TCP loopback on platforms without them), a 30-second per-call
    deadline, and two restart attempts with exponential backoff.  Workers
    keep no state on disk: the coordinator re-seeds a restarted one.
    """

    #: "unix" (unix-domain sockets, the default) or "tcp" (loopback)
    transport: str = "unix"
    #: directory holding the workers' unix sockets; ``None`` (default)
    #: uses a private temporary directory removed when the coordinator
    #: closes
    data_dir: Optional[str] = None
    #: per-call deadline: a worker RPC (including any restart + re-seed
    #: attempts) must complete within this budget
    request_timeout_ms: float = 30_000.0
    #: how long to wait for a freshly spawned worker to connect back
    connect_timeout_ms: float = 15_000.0
    #: restart attempts per failed call before giving up with
    #: :class:`~repro.exceptions.WorkerCrashError`
    max_restarts: int = 2
    #: initial retry backoff, doubled per attempt (capped by the deadline)
    backoff_ms: float = 50.0
    #: :mod:`multiprocessing` start method; "default" defers to the platform
    start_method: str = "default"

    # ------------------------------------------------------------------ #
    def validate(self) -> None:
        """Reject values no transport or supervisor could honour.

        Raises
        ------
        ConfigurationError
            Naming the offending field.
        """
        if self.transport not in _TRANSPORTS:
            raise ConfigurationError(
                f"unknown proc transport {self.transport!r}; "
                f"expected one of {list(_TRANSPORTS)}"
            )
        # NaN passes every comparison below, and socket.settimeout rejects
        # both it and infinity; neither is a deadline.
        for name in ("request_timeout_ms", "connect_timeout_ms", "backoff_ms"):
            if not math.isfinite(getattr(self, name)):
                raise ConfigurationError(f"proc {name} must be finite")
        if self.request_timeout_ms <= 0:
            raise ConfigurationError("proc request_timeout_ms must be positive")
        if self.connect_timeout_ms <= 0:
            raise ConfigurationError("proc connect_timeout_ms must be positive")
        if self.max_restarts < 0:
            raise ConfigurationError("proc max_restarts must be >= 0")
        if self.backoff_ms < 0:
            raise ConfigurationError("proc backoff_ms must be >= 0")
        if self.start_method not in _START_METHODS:
            raise ConfigurationError(
                f"unknown proc start_method {self.start_method!r}; "
                f"expected one of {list(_START_METHODS)}"
            )

    # ------------------------------------------------------------------ #
    def to_dict(self) -> Dict[str, Any]:
        """A plain JSON-compatible encoding; :meth:`from_dict` inverts it."""
        data: Dict[str, Any] = {
            "transport": self.transport,
            "request_timeout_ms": self.request_timeout_ms,
            "connect_timeout_ms": self.connect_timeout_ms,
            "max_restarts": self.max_restarts,
            "backoff_ms": self.backoff_ms,
            "start_method": self.start_method,
        }
        if self.data_dir is not None:
            data["data_dir"] = self.data_dir
        return data

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "ProcOptions":
        """Rebuild options from :meth:`to_dict` output.

        Missing keys fall back to the defaults (old serialised specs stay
        loadable), and the legacy ``checkpoint_every`` key -- the period
        of the per-worker checkpoints workers no longer write -- is
        accepted and ignored; any other *unknown* key is a hard error
        naming the field -- a misspelt transport or worker option must
        not silently become the default.

        Raises
        ------
        ConfigurationError
            If ``data`` carries a key no :class:`ProcOptions` field
            matches, or a known field fails validation.
        """
        known = {field.name for field in fields(cls)}
        unknown = sorted(set(data) - known - {"checkpoint_every"})
        if unknown:
            raise ConfigurationError(
                f"unknown proc option(s) {', '.join(repr(k) for k in unknown)}; "
                f"expected a subset of {sorted(known)}"
            )
        defaults = cls()
        data_dir = data.get("data_dir")
        options = cls(
            transport=str(data.get("transport", defaults.transport)),
            data_dir=str(data_dir) if data_dir is not None else None,
            request_timeout_ms=float(
                data.get("request_timeout_ms", defaults.request_timeout_ms)
            ),
            connect_timeout_ms=float(
                data.get("connect_timeout_ms", defaults.connect_timeout_ms)
            ),
            max_restarts=int(data.get("max_restarts", defaults.max_restarts)),
            backoff_ms=float(data.get("backoff_ms", defaults.backoff_ms)),
            start_method=str(data.get("start_method", defaults.start_method)),
        )
        options.validate()
        return options
