"""Replica-aware serving: round-robin reads, session guarantees, one writer.

:class:`ReplicaGroup` presents a primary plus N followers as **one**
service: it subclasses the :class:`~repro.service.Service` protocol and
mirrors the rest of the :class:`~repro.service.SearchService` surface
(``add`` / ``remove`` / ``extend_attributes`` / ``capabilities`` /
``dim``), so :meth:`Router.add_service` can host it in the same table as
plain services and :class:`repro.net.SearchServer` can serve it
unchanged.

Dispatch rules:

* **reads** round-robin across the followers, falling back to the
  primary when there are none;
* **writes** always go to the primary's collection (journaled through
  its WAL; followers pick the records up on their next sync);
* **bounded staleness** — a read carrying a :class:`SessionToken` must
  be answered by a copy at or past the token's ``last_seen_seq``.  A
  behind follower gets up to ``staleness_budget_seconds`` of syncing to
  catch up; if it cannot, the read redirects to the primary, which is
  never stale.  Every read and acknowledged write advances the token, so
  one token gives a client monotonic reads and read-your-writes across
  the whole group.
"""

from __future__ import annotations

import time
from threading import Lock
from typing import Any, Dict, List, Mapping, Optional

from ..service.request import Service
from ..service.service import SearchService
from ..utils.exceptions import ValidationError
from .follower import Follower
from .primary import Primary


class SessionToken:
    """A client-held high-water mark for bounded-staleness reads.

    Carries the highest sequence number this client has observed — from
    its own acknowledged writes or from previous reads.  JSON-able via
    :meth:`as_dict` / :meth:`from_dict` so clients can hold it across
    HTTP requests.
    """

    __slots__ = ("last_seen_seq",)

    def __init__(self, last_seen_seq: int = 0) -> None:
        self.last_seen_seq = int(last_seen_seq)

    def observe(self, seq: int) -> "SessionToken":
        self.last_seen_seq = max(self.last_seen_seq, int(seq))
        return self

    def as_dict(self) -> Dict[str, int]:
        return {"last_seen_seq": self.last_seen_seq}

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "SessionToken":
        return cls(int(data.get("last_seen_seq", 0)))


class ReplicaGroup(Service):
    """One primary + N followers behind a single service-shaped front.

    :meth:`search_batch` routes a read; a single query
    (:meth:`~repro.service.Service.search`, ``session=`` included) is a
    one-row batch through it — one routing decision, one token advance.
    """

    def __init__(
        self,
        primary,
        followers=(),
        *,
        name: Optional[str] = None,
        staleness_budget_seconds: float = 0.25,
        poll_interval_seconds: float = 0.002,
        **service_kwargs,
    ) -> None:
        if float(staleness_budget_seconds) < 0:
            raise ValidationError("staleness_budget_seconds must be >= 0")
        if not isinstance(primary, Primary):
            primary = Primary(primary)
        self.primary = primary
        self.name = str(name) if name else primary.name
        self.staleness_budget_seconds = float(staleness_budget_seconds)
        self.poll_interval_seconds = float(poll_interval_seconds)
        self._primary_service = SearchService(
            primary.collection, name=self.name, **service_kwargs
        )
        self.followers: List[Follower] = []
        self._lock = Lock()
        self._round_robin = 0
        self.reads_primary = 0
        self.reads_follower = 0
        self.session_waits = 0
        self.session_redirects = 0
        self.writes = 0
        for follower in followers:
            self.add_follower(follower)

    # ------------------------------------------------------------------ #
    # membership
    # ------------------------------------------------------------------ #
    def add_follower(self, follower: Follower) -> Follower:
        if not isinstance(follower, Follower):
            raise ValidationError(
                f"ReplicaGroup followers must be Follower instances, got "
                f"{type(follower).__name__}"
            )
        with self._lock:
            self.followers.append(follower)
        return follower

    # ------------------------------------------------------------------ #
    # SearchService-shaped delegation
    # ------------------------------------------------------------------ #
    @property
    def collection(self):
        """The *primary's* collection (what mutations and drains act on)."""
        return self.primary.collection

    @property
    def capabilities(self):
        return self._primary_service.capabilities

    @property
    def dim(self) -> Optional[int]:
        return self._primary_service.dim

    @property
    def batch_size(self) -> int:
        return self._primary_service.batch_size

    def resolve_request(self, request=None, **overrides):
        """The primary service's resolution: its default request applies."""
        return self._primary_service.resolve_request(request, **overrides)

    # ------------------------------------------------------------------ #
    # read dispatch
    # ------------------------------------------------------------------ #
    def _route_read(self, session: Optional[SessionToken]) -> SearchService:
        """The service answering this read: a fresh-enough follower or primary."""
        need = int(session.last_seen_seq) if session is not None else 0
        with self._lock:
            followers = list(self.followers)
            start = self._round_robin
            self._round_robin += 1
        if not followers:
            with self._lock:
                self.reads_primary += 1
            return self._primary_service
        order = [followers[(start + i) % len(followers)] for i in range(len(followers))]
        for follower in order:
            if follower.last_applied_seq >= need:
                with self._lock:
                    self.reads_follower += 1
                return follower.service()
        # Every follower is behind the session token: give the round-robin
        # choice up to the staleness budget to catch up, then redirect.
        chosen = order[0]
        deadline = time.monotonic() + self.staleness_budget_seconds
        with self._lock:
            self.session_waits += 1
        while True:
            try:
                chosen.sync()
            except Exception:
                # An unreachable/broken source must not hang reads; the
                # primary answers instead.
                break
            if chosen.last_applied_seq >= need:
                with self._lock:
                    self.reads_follower += 1
                return chosen.service()
            if time.monotonic() >= deadline:
                break
            time.sleep(self.poll_interval_seconds)
        with self._lock:
            self.session_redirects += 1
            self.reads_primary += 1
        return self._primary_service

    def search_batch(
        self,
        queries,
        request=None,
        *,
        session: Optional[SessionToken] = None,
        ground_truth=None,
        **overrides,
    ):
        service = self._route_read(session)
        result = service.search_batch(
            queries, request, ground_truth=ground_truth, **overrides
        )
        if session is not None and service.collection is not None:
            session.observe(service.collection.last_seq)
        return result

    # ------------------------------------------------------------------ #
    # write dispatch (always the primary)
    # ------------------------------------------------------------------ #
    def add(self, vectors, attributes=None, *, session: Optional[SessionToken] = None):
        ids = self._primary_service.add(vectors, attributes=attributes)
        self._observe_write(session)
        return ids

    def remove(self, ids, *, session: Optional[SessionToken] = None) -> int:
        removed = self._primary_service.remove(ids)
        self._observe_write(session)
        return removed

    def extend_attributes(self, rows, *, session: Optional[SessionToken] = None) -> None:
        self._primary_service.extend_attributes(rows)
        self._observe_write(session)

    def _observe_write(self, session: Optional[SessionToken]) -> None:
        with self._lock:
            self.writes += 1
        if session is not None:
            session.observe(self.primary.last_seq)

    # ------------------------------------------------------------------ #
    # maintenance helpers
    # ------------------------------------------------------------------ #
    def sync_all(self, *, max_records: Optional[int] = None) -> int:
        """One sync on every follower; returns total records applied."""
        with self._lock:
            followers = list(self.followers)
        return sum(follower.sync(max_records=max_records) for follower in followers)

    def max_lag(self) -> int:
        with self._lock:
            followers = list(self.followers)
        return max((follower.lag for follower in followers), default=0)

    # ------------------------------------------------------------------ #
    # introspection
    # ------------------------------------------------------------------ #
    def stats(self) -> Dict[str, Any]:
        with self._lock:
            followers = list(self.followers)
            dispatch = {
                "reads_primary": self.reads_primary,
                "reads_follower": self.reads_follower,
                "session_waits": self.session_waits,
                "session_redirects": self.session_redirects,
                "writes": self.writes,
                "n_followers": len(followers),
            }
        stats = self._primary_service.stats()
        stats["role"] = "replica_group"
        stats["dispatch"] = dispatch
        stats["replication"] = {
            "primary": self.primary.stats(),
            "followers": [follower.stats() for follower in followers],
            "max_lag_seq": max((f.lag for f in followers), default=0),
        }
        return stats

    def service_config(self) -> Dict[str, Any]:
        return self._primary_service.service_config()
