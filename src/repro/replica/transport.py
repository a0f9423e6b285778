"""Cross-process replication: pull a remote ``/replicate`` endpoint.

:class:`HttpReplicationSource` gives a :class:`~repro.replica.Follower`
the same two-method source surface an in-process
:class:`~repro.replica.Primary` provides — ``poll`` and
``bootstrap_bundle`` — backed by GETs against the ``/replicate``
endpoint a :class:`repro.net.SearchServer` exposes when constructed
with ``replication=Primary(...)``:

::

    GET /replicate?since_seq=N&max_records=M   → ShippedBatch.as_dict()
    GET /replicate?bootstrap=1                 → {"bundle": {...}}

The server signals snapshot-required with a typed 409
``bootstrap_required`` error, which this source re-raises as
:class:`~repro.utils.exceptions.BootstrapRequired` so the follower's
auto-resync path works identically in process and over the wire.
Transient 429/503 responses are retried by the underlying client when a
:class:`~repro.net.RetryPolicy` is configured; anything else
non-200 becomes a loud :class:`~repro.utils.exceptions.StorageError` —
replication must never silently skip a batch.
"""

from __future__ import annotations

from typing import Any, Dict, Optional

from ..net.client import request_json
from ..utils.exceptions import BootstrapRequired, StorageError
from .wire import ShippedBatch


class HttpReplicationSource:
    """Replication source reading a remote primary over HTTP."""

    def __init__(
        self,
        host: str,
        port: int,
        *,
        timeout: float = 60.0,
        default_max_records: int = 512,
    ) -> None:
        self.host = str(host)
        self.port = int(port)
        self.timeout = float(timeout)
        self.default_max_records = int(default_max_records)

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    @classmethod
    def from_url(cls, url: str, **kwargs) -> "HttpReplicationSource":
        from urllib.parse import urlsplit

        parts = urlsplit(url if "//" in url else f"//{url}")
        if not parts.hostname or not parts.port:
            raise StorageError(f"replication URL {url!r} needs host and port")
        return cls(parts.hostname, parts.port, **kwargs)

    # ------------------------------------------------------------------ #
    # the source surface
    # ------------------------------------------------------------------ #
    def poll(
        self, since_seq: int, *, max_records: Optional[int] = None
    ) -> ShippedBatch:
        limit = int(max_records) if max_records is not None else self.default_max_records
        status, parsed = request_json(
            f"{self.url}/replicate?since_seq={int(since_seq)}&max_records={limit}",
            timeout=self.timeout,
        )
        if status == 200:
            return ShippedBatch.from_dict(parsed)
        self._raise_for(status, parsed, "poll")
        raise AssertionError("unreachable")  # pragma: no cover

    def bootstrap_bundle(self) -> Dict[str, Any]:
        status, parsed = request_json(
            f"{self.url}/replicate?bootstrap=1", timeout=self.timeout
        )
        if status == 200:
            bundle = parsed.get("bundle") if isinstance(parsed, dict) else None
            if not isinstance(bundle, dict):
                raise StorageError(
                    f"{self.url}/replicate returned no bootstrap bundle"
                )
            return bundle
        self._raise_for(status, parsed, "bootstrap")
        raise AssertionError("unreachable")  # pragma: no cover

    def _raise_for(self, status: int, parsed: Any, what: str) -> None:
        error = parsed.get("error", {}) if isinstance(parsed, dict) else {}
        code = error.get("code", "")
        message = error.get("message", parsed)
        if code == "bootstrap_required":
            raise BootstrapRequired(str(message))
        raise StorageError(
            f"replication {what} against {self.url} failed: "
            f"HTTP {status} {code or '<no code>'}: {message}"
        )
