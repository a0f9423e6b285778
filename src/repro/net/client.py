"""HTTP clients for the serving layer — stdlib only.

Two client surfaces, matched to their callers:

* :class:`AsyncHttpClient` — an asyncio keep-alive connection used by
  the load harness (``benchmarks/bench_load.py``) and concurrency tests;
  hundreds can run in one event loop, which is what an open-loop
  generator needs.
* :func:`request_json` — a blocking one-call helper on
  :mod:`urllib.request` for examples, quickstarts, and simple scripts.

Both return the parsed JSON body *and* the status code rather than
raising on non-2xx: the serving layer's 429/503/504 responses are typed
data (admission control working as designed), not exceptions.
"""

from __future__ import annotations

import asyncio
import json
import random
import urllib.error
import urllib.request
from dataclasses import dataclass, field
from typing import Any, Dict, Mapping, Optional, Tuple

from ..obs.trace import TRACEPARENT_HEADER, current_traceparent
from ..utils.exceptions import ValidationError
from .http import MAX_HEADER_BYTES


@dataclass(frozen=True)
class RetryPolicy:
    """Opt-in retries for the typed 429/503 responses admission control emits.

    Those statuses are *data* — the server saying "not now" — so
    retrying them is a client policy, off by default.  The delay before
    attempt ``n`` is ``base_delay_seconds * 2**n``, capped at
    ``max_delay_seconds``, with ``±jitter`` fractional randomisation so
    a burst of shed clients does not come back as one synchronised
    thundering herd.  A server-sent ``Retry-After`` (header, or the
    ``retry_after_seconds`` field of the error body) overrides the
    computed backoff — the server's estimate of when a slot frees is
    better than any client-side guess — still capped and jittered.
    """

    max_retries: int = 3
    base_delay_seconds: float = 0.05
    max_delay_seconds: float = 5.0
    jitter: float = 0.25
    retry_statuses: Tuple[int, ...] = (429, 503)
    respect_retry_after: bool = True
    seed: Optional[int] = None
    _rng: random.Random = field(init=False, repr=False, compare=False, default=None)

    def __post_init__(self) -> None:
        if int(self.max_retries) < 0:
            raise ValidationError("max_retries must be >= 0")
        if float(self.base_delay_seconds) <= 0:
            raise ValidationError("base_delay_seconds must be positive")
        if float(self.max_delay_seconds) < float(self.base_delay_seconds):
            raise ValidationError("max_delay_seconds must be >= base_delay_seconds")
        if not 0.0 <= float(self.jitter) < 1.0:
            raise ValidationError("jitter must be in [0, 1)")
        object.__setattr__(self, "_rng", random.Random(self.seed))

    def should_retry(self, status: int, attempt: int) -> bool:
        return int(status) in self.retry_statuses and attempt < int(self.max_retries)

    def delay_seconds(
        self, attempt: int, *, retry_after: Optional[float] = None
    ) -> float:
        delay = float(self.base_delay_seconds) * (2.0 ** int(attempt))
        if (
            self.respect_retry_after
            and retry_after is not None
            and float(retry_after) >= 0
        ):
            delay = float(retry_after)
        delay = min(delay, float(self.max_delay_seconds))
        if self.jitter:
            delay *= 1.0 + self.jitter * (2.0 * self._rng.random() - 1.0)
        return max(delay, 0.0)


def retry_after_from(headers: Mapping[str, str], parsed: Any) -> Optional[float]:
    """The server's retry hint: ``Retry-After`` header, else the error body."""
    value = headers.get("retry-after")
    if value is not None:
        try:
            return max(0.0, float(value))
        except ValueError:
            pass
    if isinstance(parsed, dict):
        hint = parsed.get("error", {}).get("retry_after_seconds")
        if isinstance(hint, (int, float)):
            return max(0.0, float(hint))
    return None


class AsyncHttpClient:
    """One keep-alive HTTP/1.1 connection to a :class:`SearchServer`.

    Not safe for concurrent use from multiple tasks — a load generator
    opens one client per simulated connection, which also matches how
    real traffic multiplexes.  With ``retry`` set, responses matching
    the policy's statuses (429/503 by default) are retried with capped
    jittered backoff, honoring the server's ``Retry-After``; the final
    response is returned either way.
    """

    def __init__(
        self,
        host: str,
        port: int,
        *,
        timeout: float = 60.0,
        retry: Optional[RetryPolicy] = None,
    ) -> None:
        self.host = str(host)
        self.port = int(port)
        self.timeout = float(timeout)
        self.retry = retry
        self.retries_total = 0
        self._reader: Optional[asyncio.StreamReader] = None
        self._writer: Optional[asyncio.StreamWriter] = None

    async def _connect(self) -> None:
        self._reader, self._writer = await asyncio.open_connection(
            self.host, self.port, limit=MAX_HEADER_BYTES * 2
        )

    async def close(self) -> None:
        if self._writer is not None:
            self._writer.close()
            try:
                await self._writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):
                pass
            self._reader = self._writer = None

    async def __aenter__(self) -> "AsyncHttpClient":
        return self

    async def __aexit__(self, *exc_info) -> None:
        await self.close()

    async def request(
        self,
        method: str,
        path: str,
        *,
        body: Any = None,
        headers: Optional[Mapping[str, str]] = None,
        deadline_ms: Optional[float] = None,
    ) -> Tuple[int, Dict[str, str], Any]:
        """``(status, headers, parsed_body)`` for one request.

        ``deadline_ms`` sets the ``X-Deadline-Ms`` header.  The body is
        JSON-encoded when given; responses with a JSON content type are
        parsed, others come back as text.  A server-closed keep-alive
        connection is re-dialled once.  With a :class:`RetryPolicy`
        configured, matching statuses are retried with backoff.
        """
        payload = b"" if body is None else json.dumps(body).encode("utf-8")
        all_headers: Dict[str, str] = dict(headers or {})
        if deadline_ms is not None:
            all_headers["X-Deadline-Ms"] = f"{float(deadline_ms):g}"
        if TRACEPARENT_HEADER not in {key.lower() for key in all_headers}:
            # Forward the active trace so the server joins it instead of
            # starting its own; explicit headers always win.
            traceparent = current_traceparent()
            if traceparent is not None:
                all_headers[TRACEPARENT_HEADER] = traceparent
        attempt = 0
        while True:
            status, response_headers, parsed = await self._request_once(
                method, path, payload, all_headers
            )
            if self.retry is None or not self.retry.should_retry(status, attempt):
                return status, response_headers, parsed
            delay = self.retry.delay_seconds(
                attempt, retry_after=retry_after_from(response_headers, parsed)
            )
            self.retries_total += 1
            attempt += 1
            if delay:
                await asyncio.sleep(delay)

    async def _request_once(
        self, method: str, path: str, payload: bytes, all_headers: Dict[str, str]
    ) -> Tuple[int, Dict[str, str], Any]:
        for attempt in (0, 1):
            if self._writer is None:
                await self._connect()
            try:
                return await asyncio.wait_for(
                    self._roundtrip(method, path, payload, all_headers),
                    timeout=self.timeout,
                )
            except (
                ConnectionResetError,
                BrokenPipeError,
                asyncio.IncompleteReadError,
            ):
                # The server may close an idle keep-alive connection
                # between requests; retry exactly once on a fresh dial.
                await self.close()
                if attempt:
                    raise
        raise AssertionError("unreachable")  # pragma: no cover

    async def _roundtrip(
        self, method: str, path: str, payload: bytes, headers: Dict[str, str]
    ) -> Tuple[int, Dict[str, str], Any]:
        lines = [
            f"{method.upper()} {path} HTTP/1.1",
            f"Host: {self.host}:{self.port}",
            f"Content-Length: {len(payload)}",
            "Content-Type: application/json",
        ]
        for key, value in headers.items():
            lines.append(f"{key}: {value}")
        self._writer.write(("\r\n".join(lines) + "\r\n\r\n").encode("latin-1") + payload)
        await self._writer.drain()

        head = (await self._reader.readuntil(b"\r\n\r\n")).decode("latin-1")
        head_lines = head.split("\r\n")
        status_parts = head_lines[0].split(" ", 2)
        if len(status_parts) < 2 or not status_parts[1].isdigit():
            raise ValidationError(f"malformed status line {head_lines[0]!r}")
        status = int(status_parts[1])
        response_headers: Dict[str, str] = {}
        for line in head_lines[1:]:
            if not line:
                continue
            name, _, value = line.partition(":")
            response_headers[name.strip().lower()] = value.strip()
        length = int(response_headers.get("content-length", 0))
        raw = await self._reader.readexactly(length) if length else b""
        if response_headers.get("connection", "").lower() == "close":
            await self.close()
        content_type = response_headers.get("content-type", "")
        parsed: Any
        if "json" in content_type and raw:
            parsed = json.loads(raw.decode("utf-8"))
        else:
            parsed = raw.decode("utf-8", errors="replace")
        return status, response_headers, parsed

    async def post(self, path: str, body: Any, **kwargs) -> Tuple[int, Dict[str, str], Any]:
        return await self.request("POST", path, body=body, **kwargs)


def request_json(
    url: str,
    *,
    method: str = "GET",
    body: Any = None,
    deadline_ms: Optional[float] = None,
    timeout: float = 60.0,
    headers: Optional[Mapping[str, str]] = None,
) -> Tuple[int, Any]:
    """Blocking ``(status, parsed_body)`` helper for scripts and examples.

    ``headers`` adds/overrides request headers — e.g. ``X-Tenant`` to act
    as a tenant on a multi-tenant server.
    """
    data = None if body is None else json.dumps(body).encode("utf-8")
    request = urllib.request.Request(
        url, data=data, method=method.upper(),
        headers={"Content-Type": "application/json", **(headers or {})},
    )
    if deadline_ms is not None:
        request.add_header("X-Deadline-Ms", f"{float(deadline_ms):g}")
    if not request.has_header(TRACEPARENT_HEADER.capitalize()):
        traceparent = current_traceparent()
        if traceparent is not None:
            request.add_header(TRACEPARENT_HEADER, traceparent)
    try:
        with urllib.request.urlopen(request, timeout=timeout) as response:
            raw = response.read()
            status = response.status
            content_type = response.headers.get("Content-Type", "")
    except urllib.error.HTTPError as error:
        raw = error.read()
        status = error.code
        content_type = error.headers.get("Content-Type", "")
    if "json" in content_type and raw:
        return status, json.loads(raw.decode("utf-8"))
    return status, raw.decode("utf-8", errors="replace")
