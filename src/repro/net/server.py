"""The asyncio HTTP front-end: :class:`SearchServer`.

``SearchServer`` puts a socket in front of the serving stack — a
:class:`~repro.service.SearchService`, a whole
:class:`~repro.service.Router`, or a durable
:class:`~repro.store.Collection` — with the operational behaviours an
in-process call never needed:

* **admission control** — at most ``max_concurrency`` requests execute
  (on the server's own thread pool; NumPy releases the GIL inside the
  kernels) while up to ``queue_limit`` wait; anything beyond is shed
  with a typed 429 + ``Retry-After`` *response*, never a dropped socket.
  A cheap one-vector ``/query`` skips the pool and runs on the event
  loop when that cannot delay other work (see
  :meth:`SearchServer._runs_inline`);
* **deadlines** — ``X-Deadline-Ms`` (or the configured default) is
  carried into the executor: expiry while queued cancels the work before
  it starts, expiry mid-request stops it at the next micro-batch
  boundary — 504 either way, with the stage in the error body;
* **durable mutations** — ``/add`` / ``/remove`` / ``/extend_attributes``
  acknowledge only after the collection's WAL fsync, exactly like the
  in-process endpoints they wrap;
* **graceful drain** — ``shutdown()`` stops accepting work, completes
  everything already admitted, then stops the maintenance loop and
  (collection-backed) checkpoints, so a restart replays nothing;
* **observability** — ``/stats`` (JSON) and ``/metrics`` (Prometheus
  text) expose the HTTP-layer counters and the stack's own
  ``stats()`` gauges from one scrape; every request can carry a
  :mod:`repro.obs` trace — extracted from an inbound ``traceparent``
  header or head-sampled locally — whose span tree (parse → admission
  queue → tenant ACL/quota → service cache → shard scan → quant
  scan/re-rank → merge → serialize) lands in a ring buffer served from
  ``/debug/traces``, with slow/error requests tail-sampled even when
  head sampling said no.

Endpoints (JSON unless noted)::

    POST /query              {"vector": [...], "request": {...}}
    POST /batch_query        {"vectors": [[...]], "request": {...}}
    POST /add                {"vectors": [[...]], "attributes": {col: [...]}}
    POST /remove             {"ids": [...]}
    POST /extend_attributes  {"rows": {col: [...]}}
    GET  /stats              serving + admission counters
    GET  /metrics            Prometheus text format
    GET  /healthz            liveness: {"status": "ok" | "draining"}, always 200
    GET  /readyz             readiness: 503 while draining; replica role + lag
    GET  /debug/traces       recent traces (?format=jsonl for the raw ring)
    GET  /debug/traces/<id>  one trace's full span tree

Multi-service deployments address a service with ``?service=<name>``;
requests carrying a filter are implicitly routed to a filterable
service, exactly as :meth:`Router.search_batch` does in process.

Multi-tenant deployments (a :class:`repro.tenant.TenantRegistry` passed
as ``tenants=``) address a tenant with the
``X-Tenant`` header (or ``?tenant=<name>``): the request is served
through that tenant's gateway — ACL injected, quotas charged — and
quota violations come back as typed 429 ``quota_exceeded`` responses
whose ``Retry-After`` derives from the tenant's token-bucket refill,
distinct from admission control's ``overloaded`` sheds.  An unknown
tenant is a typed 404 ``unknown_tenant``; a tenant-only server refuses
untenanted work with 400 ``missing_tenant``.
"""

from __future__ import annotations

import asyncio
import contextvars
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Any, Dict, Optional

import numpy as np

from ..obs.trace import (
    TRACEPARENT_HEADER,
    Tracer,
    TracingConfig,
    activate,
    current_trace,
    deactivate,
    span,
)
from ..service.request import BatchResult, QueryRequest, Service
from ..service.router import Router
from ..service.service import SearchService
from ..utils.exceptions import ValidationError
from .admission import AdmissionController, Deadline
from .errors import (
    ApiError,
    BadRequest,
    Draining,
    MethodNotAllowed,
    NotFound,
    api_error_from,
)
from .http import (
    DEFAULT_MAX_BODY_BYTES,
    HttpRequest,
    HttpResponse,
    parse_float_header,
    read_request,
)
from .metrics import ServerMetrics

#: header carrying the per-request deadline (milliseconds)
DEADLINE_HEADER = "X-Deadline-Ms"

#: header naming the tenant a request acts as (multi-tenant deployments)
TENANT_HEADER = "X-Tenant"

#: response header carrying the id of the trace a request produced
TRACE_ID_HEADER = "X-Trace-Id"

#: endpoints that execute search-stack work (admission-controlled)
WORK_ENDPOINTS = ("query", "batch_query", "add", "remove", "extend_attributes")
#: endpoints that mutate durable state (refused first while draining)
MUTATION_ENDPOINTS = ("add", "remove", "extend_attributes")


@dataclass
class ServerConfig:
    """Tunables of one :class:`SearchServer`.

    ``max_concurrency`` is both the executor width and the number of
    admission slots; ``queue_limit`` bounds the waiting room beyond it.
    A cheap ``/query`` may execute on the event loop instead of the
    executor, but it still holds one of those slots while it runs.
    ``default_deadline_seconds`` applies when a request sends no
    ``X-Deadline-Ms`` header (``None`` = no implicit deadline); batch
    execution re-checks it every ``batch_size`` rows of the serving
    target.
    ``trace_sample_rate`` is the head-sampling probability for request
    traces (0 disables head sampling; slow/error requests are still
    tail-recorded past ``slow_trace_seconds``); ``trace_capacity`` and
    ``trace_slow_log`` size the trace ring buffer and worst-N log.
    """

    host: str = "127.0.0.1"
    port: int = 0
    max_concurrency: int = 4
    queue_limit: int = 64
    default_deadline_seconds: Optional[float] = 30.0
    max_body_bytes: int = DEFAULT_MAX_BODY_BYTES
    drain_grace_seconds: float = 30.0
    checkpoint_on_drain: bool = True
    trace_sample_rate: float = 1.0
    slow_trace_seconds: float = 0.25
    trace_capacity: int = 256
    trace_slow_log: int = 32

    def __post_init__(self) -> None:
        if int(self.max_concurrency) < 1:
            raise ValidationError("max_concurrency must be positive")
        if int(self.queue_limit) < 0:
            raise ValidationError("queue_limit must be >= 0")
        if (
            self.default_deadline_seconds is not None
            and float(self.default_deadline_seconds) <= 0
        ):
            raise ValidationError("default_deadline_seconds must be positive or None")
        if float(self.drain_grace_seconds) <= 0:
            raise ValidationError("drain_grace_seconds must be positive")
        if not 0.0 <= float(self.trace_sample_rate) <= 1.0:
            raise ValidationError("trace_sample_rate must be in [0, 1]")
        if float(self.slow_trace_seconds) <= 0:
            raise ValidationError("slow_trace_seconds must be positive")


class SearchServer:
    """Serve a search stack over HTTP/1.1 on asyncio.

    Parameters
    ----------
    target:
        What to serve: a :class:`SearchService`, a :class:`Router` of
        named services, a durable :class:`~repro.store.Collection`, or a
        built index (the latter two are wrapped in a service).
    config:
        A :class:`ServerConfig`; defaults are test/bench friendly.
    maintenance:
        An optional :class:`~repro.store.MaintenanceLoop`; started with
        the server and stop-coordinated with drain so a checkpoint never
        races the final shutdown checkpoint.
    replication:
        An optional replication role for this server.  A
        :class:`~repro.replica.Primary` turns on the ``GET /replicate``
        endpoint (WAL shipping + snapshot bootstrap for remote
        followers); a :class:`~repro.replica.Follower` is surfaced in
        ``/stats`` and ``/metrics`` (lag, applied seq) without exposing
        shipping.  Detected by duck typing — this module never imports
        :mod:`repro.replica` (which imports the HTTP client from here).
    tenants:
        An optional :class:`repro.tenant.TenantRegistry` (duck-typed,
        like replication — this module never imports :mod:`repro.tenant`).
        Requests carrying ``X-Tenant`` (or ``?tenant=``) are served
        through that tenant's gateway; the registry's per-tenant
        counters join ``/stats`` and ``/metrics``.  With no ``target``
        the server is tenant-only.
    """

    def __init__(
        self,
        target=None,
        *,
        config: Optional[ServerConfig] = None,
        maintenance=None,
        replication=None,
        tenants=None,
        tracer: Optional[Tracer] = None,
    ) -> None:
        self.config = config or ServerConfig()
        if target is None:
            if tenants is None:
                raise ValidationError(
                    "SearchServer needs a target (service/router/collection/"
                    "index) or a tenant registry"
                )
            self.router: Optional[Router] = None
            self.service: Optional[SearchService] = None
        elif isinstance(target, Router):
            self.router = target
            self.service = None
        elif isinstance(target, Service):
            # A SearchService, ReplicaGroup or TenantGateway.
            self.router = None
            self.service = target
        else:
            # Collection or bare built index: wrap in a service.
            self.router = None
            self.service = SearchService(target)
        self.tenants = tenants
        self.maintenance = maintenance
        self.replication = replication
        # A Primary ships WAL records; a Follower only reports status.
        self._ships_wal = replication is not None and hasattr(replication, "poll")
        self.admission = AdmissionController(
            self.config.max_concurrency, self.config.queue_limit
        )
        self.metrics = ServerMetrics()
        self.tracer = tracer or Tracer(
            TracingConfig(
                sample_rate=self.config.trace_sample_rate,
                slow_threshold_seconds=self.config.slow_trace_seconds,
                capacity=self.config.trace_capacity,
                slow_log_size=self.config.trace_slow_log,
            )
        )
        self.host = self.config.host
        self.port: Optional[int] = None
        self.drain_clean: Optional[bool] = None
        self._draining = False
        self._asyncio_server: Optional[asyncio.base_events.Server] = None
        self._executor = ThreadPoolExecutor(
            max_workers=self.config.max_concurrency, thread_name_prefix="net-exec"
        )
        self._connections: set = set()
        self._busy: set = set()
        # connections whose latest work request was a mutation
        self._writers: set = set()
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._thread: Optional[threading.Thread] = None
        self._thread_error: Optional[BaseException] = None

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #
    @property
    def url(self) -> str:
        if self.port is None:
            raise ValidationError("server is not started; call start()/start_in_thread()")
        return f"http://{self.host}:{self.port}"

    @property
    def draining(self) -> bool:
        return self._draining

    async def start(self) -> "SearchServer":
        """Bind the listener (port 0 picks a free port)."""
        self._loop = asyncio.get_running_loop()
        self._asyncio_server = await asyncio.start_server(
            self._handle_connection, host=self.config.host, port=self.config.port
        )
        self.port = self._asyncio_server.sockets[0].getsockname()[1]
        if self.maintenance is not None:
            self.maintenance.start()
        return self

    async def shutdown(self) -> bool:
        """Drain-then-stop; returns True when everything completed cleanly.

        Sequence: refuse new work (503) → close the listener → wait for
        every admitted request to finish (bounded by
        ``drain_grace_seconds``) → stop the maintenance loop → final
        checkpoint of collection-backed services → release the executor.
        In-flight and already-queued requests complete normally; only
        *new* arrivals are refused.
        """
        self._draining = True
        clean = await self.admission.drain(timeout=self.config.drain_grace_seconds)
        if self._asyncio_server is not None:
            self._asyncio_server.close()
            await self._asyncio_server.wait_closed()
        # Idle keep-alive connections (no request in flight) are parked in
        # read_request(); close them now instead of waiting out the grace
        # period.  Busy ones finish writing their response first.
        for task in set(self._connections) - self._busy:
            task.cancel()
        if self._connections:
            done, pending = await asyncio.wait(
                set(self._connections), timeout=self.config.drain_grace_seconds
            )
            for task in pending:
                clean = False
                task.cancel()
        loop = asyncio.get_running_loop()
        if self.maintenance is not None:
            await loop.run_in_executor(None, self.maintenance.stop)
        if self.config.checkpoint_on_drain:
            targets = list(self._all_services().values())
            if self.tenants is not None:
                targets.extend(
                    self.tenants.namespace(name) for name in self.tenants.namespaces()
                )
            for service in targets:
                if service.collection is not None:
                    try:
                        await loop.run_in_executor(None, service.collection.checkpoint)
                    except Exception:
                        # A closed/failed collection must not block drain;
                        # its durable state is already consistent.
                        clean = False
        await loop.run_in_executor(None, lambda: self._executor.shutdown(wait=True))
        self.drain_clean = clean
        return clean

    # ------------------------------------------------------------------ #
    # background-thread hosting (sync callers: tests, benches, examples)
    # ------------------------------------------------------------------ #
    def start_in_thread(self, *, timeout: float = 30.0) -> "SearchServer":
        """Run the event loop on a daemon thread; returns once bound."""
        if self._thread is not None:
            raise ValidationError("server is already running in a thread")
        started = threading.Event()
        loop = asyncio.new_event_loop()

        def run() -> None:
            asyncio.set_event_loop(loop)
            try:
                loop.run_until_complete(self.start())
            except BaseException as exc:  # noqa: BLE001 - reported to starter
                self._thread_error = exc
                started.set()
                return
            started.set()
            loop.run_forever()
            loop.run_until_complete(loop.shutdown_asyncgens())
            loop.close()

        self._thread = threading.Thread(target=run, name="repro-net", daemon=True)
        self._thread.start()
        if not started.wait(timeout):
            raise ValidationError("server did not start within the timeout")
        if self._thread_error is not None:
            error, self._thread_error = self._thread_error, None
            self._thread = None
            raise error
        return self

    def stop(self, *, timeout: float = 60.0) -> bool:
        """Thread-safe drain-then-stop for ``start_in_thread`` servers."""
        if self._thread is None or self._loop is None:
            return True
        future = asyncio.run_coroutine_threadsafe(self.shutdown(), self._loop)
        clean = bool(future.result(timeout=timeout))
        self._loop.call_soon_threadsafe(self._loop.stop)
        self._thread.join(timeout=timeout)
        self._thread = None
        return clean

    def __enter__(self) -> "SearchServer":
        return self.start_in_thread()

    def __exit__(self, *exc_info) -> None:
        self.stop()

    # ------------------------------------------------------------------ #
    # connection handling
    # ------------------------------------------------------------------ #
    async def _handle_connection(self, reader, writer) -> None:
        task = asyncio.current_task()
        self._connections.add(task)
        try:
            while True:
                read_started = time.perf_counter()
                try:
                    request = await read_request(
                        reader, max_body_bytes=self.config.max_body_bytes
                    )
                except ApiError as exc:
                    response = HttpResponse.from_error(exc)
                    response.keep_alive = False
                    self.metrics.observe_request("_framing", response.status)
                    writer.write(response.encode())
                    await writer.drain()
                    break
                if request is None:
                    break
                read_done = time.perf_counter()
                started = time.monotonic()
                # busy until the response is flushed: shutdown() cancels
                # only idle connections, never one mid-request
                self._busy.add(task)
                endpoint_name = request.path.strip("/") or "_root"
                if endpoint_name.startswith("debug/traces/"):
                    # collapse trace ids so the endpoint label (and the
                    # stage histogram it feeds) stays bounded-cardinality
                    endpoint_name = "debug/traces/:id"
                if endpoint_name in MUTATION_ENDPOINTS:
                    self._writers.add(task)
                elif endpoint_name in WORK_ENDPOINTS:
                    self._writers.discard(task)
                trace = self.tracer.begin(
                    f"http.{endpoint_name}",
                    traceparent=request.headers.get(TRACEPARENT_HEADER),
                    start=read_started,
                    attributes={"method": request.method},
                )
                token = None
                if trace is not None:
                    trace.record("http.parse", read_started, read_done)
                    token = activate(trace)
                try:
                    response = await self._dispatch(request)
                    elapsed = time.monotonic() - started
                    response.keep_alive = (
                        response.keep_alive and request.keep_alive and not self._draining
                    )
                    if trace is not None:
                        response.headers.setdefault(TRACE_ID_HEADER, trace.trace_id)
                        self.tracer.finish(trace, status=response.status)
                        trace = None
                    elif self.tracer.should_tail_sample(elapsed, response.status):
                        self.tracer.tail_record(
                            f"http.{endpoint_name}",
                            elapsed,
                            status=response.status,
                            attributes={"method": request.method},
                        )
                    self.metrics.observe_request(
                        endpoint_name,
                        response.status,
                        seconds=elapsed,
                    )
                    writer.write(response.encode())
                    await writer.drain()
                finally:
                    if token is not None:
                        deactivate(token)
                    if trace is not None:
                        # connection failed mid-request: the partial span
                        # tree is still evidence — export it as aborted
                        self.tracer.finish(trace, status="aborted")
                    self._busy.discard(task)
                if not response.keep_alive:
                    break
        except (ConnectionResetError, BrokenPipeError, asyncio.CancelledError):
            pass
        finally:
            self._connections.discard(task)
            self._writers.discard(task)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):
                pass

    async def _dispatch(self, request: HttpRequest) -> HttpResponse:
        endpoint = request.path.strip("/")
        try:
            if endpoint in WORK_ENDPOINTS:
                if request.method != "POST":
                    raise MethodNotAllowed(f"/{endpoint} takes POST")
                return await self._handle_work(endpoint, request)
            if endpoint == "stats":
                if request.method != "GET":
                    raise MethodNotAllowed("/stats takes GET")
                return HttpResponse.json(self._stats_payload())
            if endpoint == "metrics":
                if request.method != "GET":
                    raise MethodNotAllowed("/metrics takes GET")
                return HttpResponse.text(self._render_metrics())
            if endpoint == "healthz":
                # Liveness only: answers 200 while the process can answer
                # at all (even mid-drain).  Readiness lives at /readyz.
                if request.method != "GET":
                    raise MethodNotAllowed("/healthz takes GET")
                return HttpResponse.json(
                    {"status": "draining" if self._draining else "ok"}
                )
            if endpoint == "readyz":
                if request.method != "GET":
                    raise MethodNotAllowed("/readyz takes GET")
                return self._handle_readyz()
            if endpoint == "debug/traces" or endpoint.startswith("debug/traces/"):
                if request.method != "GET":
                    raise MethodNotAllowed("/debug/traces takes GET")
                return self._handle_debug_traces(endpoint, request)
            if endpoint == "replicate" and self._ships_wal:
                if request.method != "GET":
                    raise MethodNotAllowed("/replicate takes GET")
                return await self._handle_replicate(request)
            extra = ("replicate",) if self._ships_wal else ()
            raise NotFound(
                f"unknown endpoint /{endpoint}; serving: "
                + ", ".join(
                    f"/{name}"
                    for name in (
                        *WORK_ENDPOINTS,
                        "stats",
                        "metrics",
                        "healthz",
                        "readyz",
                        "debug/traces",
                        *extra,
                    )
                )
            )
        except asyncio.CancelledError:
            raise
        except BaseException as exc:  # noqa: BLE001 - every failure becomes typed JSON
            error = api_error_from(exc)
            if error.code == "draining":
                self.metrics.observe_draining_refusal()
            elif error.code == "deadline_exceeded":
                self.metrics.observe_deadline(getattr(error, "stage", "unknown"))
            return HttpResponse.from_error(error)

    # ------------------------------------------------------------------ #
    # the admission-controlled work path
    # ------------------------------------------------------------------ #
    def _deadline_for(self, request: HttpRequest) -> Deadline:
        present, value = parse_float_header(request.headers, DEADLINE_HEADER)
        if present:
            if value is None or value <= 0:
                raise BadRequest(f"{DEADLINE_HEADER} must be a positive number")
            return Deadline(value / 1000.0)
        return Deadline(self.config.default_deadline_seconds)

    async def _handle_work(self, endpoint: str, request: HttpRequest) -> HttpResponse:
        if self._draining:
            # Mutations (and all other new work) are refused during
            # drain; in-flight requests admitted earlier still complete.
            raise Draining(
                f"server is draining; /{endpoint} is not accepting new requests",
                retry_after=self.admission.retry_after_estimate(endpoint),
            )
        deadline = self._deadline_for(request)
        body = request.json()
        if not isinstance(body, dict):
            raise BadRequest(f"/{endpoint} body must be a JSON object")
        service = self._service_for(request, body)
        job = self._build_job(endpoint, service, body, deadline)
        depth_at_admission = self.admission.depth
        waited_from = time.monotonic()
        with span("admission.queue", depth=depth_at_admission):
            await self.admission.admit(deadline, endpoint)
        queue_seconds = time.monotonic() - waited_from
        self.metrics.observe_admission(queue_seconds, depth_at_admission)
        executing_from = time.monotonic()
        try:
            inline = self._runs_inline(endpoint)
            if endpoint == "query":
                self.metrics.observe_query_path("inline" if inline else "executor")
            loop = asyncio.get_running_loop()
            if inline:
                # No hop: the loop task already runs in the request's
                # context, so the job's spans land under this one.
                with span("execute", endpoint=endpoint):
                    payload = job()
            elif current_trace() is not None:
                # Carry the trace into the worker thread: the copied
                # context makes spans opened by the job (service, shard,
                # quant layers) children of this request's trace.
                with span("execute", endpoint=endpoint):
                    context = contextvars.copy_context()
                    payload = await loop.run_in_executor(
                        self._executor, context.run, job
                    )
            else:
                payload = await loop.run_in_executor(self._executor, job)
        finally:
            self.admission.release(
                endpoint, exec_seconds=time.monotonic() - executing_from
            )
        with span("serialize"):
            return HttpResponse.json(payload)

    def _runs_inline(self, endpoint: str) -> bool:
        """Whether an admitted job may run on the event loop itself.

        Only a ``/query`` whose recent execution time is below one GIL
        switch interval: it holds the loop no longer than a GIL-holding
        executor job already could.  It must also delay nothing the
        executor path would not:

        * no open connection's latest work request is a mutation.  That
          covers every mutation waiting or executing, and also a writer
          between two requests: a durable write spends its job in fsync,
          which reads should overlap, and a busy loop would not even read
          the writer's next request;
        * every open connection could hold a slot, so running inline
          never stands in for queueing or a 429.
        """
        admission = self.admission
        return (
            endpoint == "query"
            and admission.exec_seconds(endpoint) < sys.getswitchinterval()
            and len(self._connections) <= admission.max_concurrency
            and not self._writers
        )

    def _all_services(self) -> Dict[str, Service]:
        if self.router is not None:
            return {name: self.router.service(name) for name in self.router.names()}
        if self.service is not None:
            return {self.service.name: self.service}
        return {}

    def _service_for(self, request: HttpRequest, body: Dict[str, Any]) -> SearchService:
        tenant = request.headers.get(TENANT_HEADER.lower()) or request.query.get(
            "tenant"
        )
        if tenant is not None:
            if self.tenants is None:
                raise NotFound(
                    f"this server hosts no tenants; cannot act as {tenant!r}",
                    code="unknown_tenant",
                )
            return self.tenants.gateway(tenant)
        if self.router is None and self.service is None:
            # Tenant-only server: anonymous work has no namespace to land
            # in, and silently picking one would bypass every quota/ACL.
            raise BadRequest(
                f"this server serves tenants; send the {TENANT_HEADER} "
                "header (or ?tenant=) naming one of "
                f"{self.tenants.tenants()}",
                code="missing_tenant",
            )
        name = request.query.get("service")
        if self.router is None:
            if name is not None and name != self.service.name:
                raise NotFound(
                    f"no service named {name!r}; this server serves "
                    f"{self.service.name!r}",
                    code="unknown_service",
                )
            return self.service
        if name is not None:
            return self.router.service(name)
        has_filter = isinstance(body.get("request"), dict) and (
            body["request"].get("filter") is not None
        )
        return self.router.route(filterable=True if has_filter else None)

    def _request_from(self, body: Dict[str, Any]) -> QueryRequest:
        data = body.get("request")
        if data is None:
            data = {
                key: body[key]
                for key in (
                    "k",
                    "probes",
                    "candidate_budget",
                    "filter",
                    "metadata",
                    "extra",
                )
                if key in body
            }
        if not isinstance(data, dict):
            raise BadRequest("'request' must be a JSON object (QueryRequest.as_dict form)")
        return QueryRequest.from_dict(data)

    def _build_job(
        self,
        endpoint: str,
        service: SearchService,
        body: Dict[str, Any],
        deadline: Deadline,
    ):
        """A zero-argument callable executed on the thread pool (or, for a
        cheap ``/query``, on the event loop: see :meth:`_runs_inline`).

        Everything request-shaped is validated *before* admission, so a
        malformed request never occupies a queue slot; the returned job
        only runs index/collection work, re-checking the deadline at
        every micro-batch boundary.
        """
        if endpoint == "query":
            vector = _required_array(body, "vector", ndim=1)
            query_request = self._request_from(body)

            def job() -> Dict[str, Any]:
                deadline.check("execution")
                result = service.search(vector, query_request)
                deadline.check("execution")
                return result.as_dict()

            return job
        if endpoint == "batch_query":
            vectors = _required_array(body, "vectors", ndim=2)
            query_request = self._request_from(body)
            chunk_rows = int(service.batch_size)

            def job() -> Dict[str, Any]:
                deadline.check("execution")
                if vectors.shape[0] == 0:
                    return service.search_batch(vectors, query_request).as_dict()
                parts = []
                for start in range(0, vectors.shape[0], chunk_rows):
                    deadline.check("execution")
                    parts.append(
                        service.search_batch(
                            vectors[start : start + chunk_rows], query_request
                        )
                    )
                deadline.check("execution")
                return _merge_batches(parts, query_request).as_dict()

            return job
        if endpoint == "add":
            vectors = _required_array(body, "vectors", ndim=2)
            attributes = body.get("attributes")

            def job() -> Dict[str, Any]:
                deadline.check("execution")
                ids = service.add(vectors, attributes=attributes)
                return {"ids": np.asarray(ids).tolist(), "count": int(np.asarray(ids).size)}

            return job
        if endpoint == "remove":
            ids = body.get("ids")
            if ids is None:
                raise BadRequest("missing field 'ids'")

            def job() -> Dict[str, Any]:
                deadline.check("execution")
                return {"removed": int(service.remove(ids))}

            return job
        if endpoint == "extend_attributes":
            rows = body.get("rows")
            if not isinstance(rows, dict):
                raise BadRequest("missing field 'rows' (column -> values mapping)")

            def job() -> Dict[str, Any]:
                deadline.check("execution")
                service.extend_attributes(rows)
                return {"ok": True}

            return job
        raise NotFound(f"unknown work endpoint {endpoint!r}")  # pragma: no cover

    # ------------------------------------------------------------------ #
    # replication shipping (primary side)
    # ------------------------------------------------------------------ #
    async def _handle_replicate(self, request: HttpRequest) -> HttpResponse:
        """Serve one follower pull; cheap reads, outside admission control.

        Shipping never competes with query traffic for admission slots —
        a saturated queue must not stall replication (that is exactly
        when followers are most valuable) — but the WAL read still runs
        on the executor so the event loop stays responsive.
        """
        loop = asyncio.get_running_loop()
        if request.query.get("bootstrap"):
            bundle = await loop.run_in_executor(
                self._executor, self.replication.bootstrap_bundle
            )
            return HttpResponse.json({"bundle": bundle})
        try:
            since_seq = int(request.query.get("since_seq", "0"))
        except ValueError:
            raise BadRequest("since_seq must be an integer") from None
        max_records: Optional[int] = None
        if "max_records" in request.query:
            try:
                max_records = int(request.query["max_records"])
            except ValueError:
                raise BadRequest("max_records must be an integer") from None
        batch = await loop.run_in_executor(
            self._executor,
            lambda: self.replication.poll(since_seq, max_records=max_records),
        )
        return HttpResponse.json(batch.as_dict())

    # ------------------------------------------------------------------ #
    # observability endpoints
    # ------------------------------------------------------------------ #
    def _handle_readyz(self) -> HttpResponse:
        """Readiness: should a load balancer send traffic here *now*?

        Distinct from ``/healthz`` liveness (the process is up, don't
        restart it): readiness is 503 while draining so routers stop
        sending work, and reports the replica role and replication lag
        (``last_applied_seq`` vs the primary) so a consistency-sensitive
        router can prefer fresher replicas.
        """
        payload: Dict[str, Any] = {
            "status": "draining" if self._draining else "ready",
            "draining": self._draining,
        }
        if self.replication is not None:
            stats = self.replication.stats()
            last_applied = stats.get("last_applied_seq")
            if last_applied is None:
                # A primary's own log is, definitionally, fully applied.
                last_applied = stats.get("last_seq")
            payload["replication"] = {
                "role": stats.get("role"),
                "name": stats.get("name"),
                "last_applied_seq": last_applied,
                "primary_last_seq": stats.get(
                    "primary_last_seq", stats.get("last_seq")
                ),
                "lag_seq": stats.get("lag_seq", 0),
            }
        return HttpResponse.json(payload, status=503 if self._draining else 200)

    def _handle_debug_traces(
        self, endpoint: str, request: HttpRequest
    ) -> HttpResponse:
        trace_id = endpoint[len("debug/traces"):].strip("/")
        if trace_id:
            matches = self.tracer.store.get(trace_id)
            if not matches:
                raise NotFound(
                    f"no stored trace {trace_id!r} (evicted or never sampled)",
                    code="unknown_trace",
                )
            return HttpResponse.json({"trace_id": trace_id, "traces": matches})
        if request.query.get("format") == "jsonl":
            return HttpResponse.text(self.tracer.store.to_jsonl())
        try:
            limit = int(request.query.get("limit", "50"))
        except ValueError:
            raise BadRequest("limit must be an integer") from None
        return HttpResponse.json(
            {
                "tracing": self.tracer.stats(),
                "traces": self.tracer.store.list(limit=limit),
                "slow": self.tracer.slow_log.worst(),
            }
        )

    def _stats_payload(self) -> Dict[str, Any]:
        services = {
            name: service.stats() for name, service in self._all_services().items()
        }
        payload = {
            "server": {
                "draining": self._draining,
                "max_concurrency": self.admission.max_concurrency,
                "queue_limit": self.admission.queue_limit,
                "queue_depth": self.admission.depth,
                "queue_waiting": self.admission.waiting,
                "active": self.admission.active,
                "admitted_total": self.admission.admitted_total,
                "shed_total": self.admission.shed_total,
                **self.metrics.snapshot(),
            },
            "services": services,
            "tracing": self.tracer.stats(),
        }
        if self.replication is not None:
            payload["replication"] = self.replication.stats()
        if self.tenants is not None:
            payload["tenants"] = self.tenants.stats()
        return payload

    def _render_metrics(self) -> str:
        services = {
            name: service.stats() for name, service in self._all_services().items()
        }
        return self.metrics.render(
            shed_total=self.admission.shed_total,
            queue_depth=self.admission.depth,
            queue_waiting=self.admission.waiting,
            draining=self._draining,
            service_stats=services,
            replication=(
                None if self.replication is None else self.replication.stats()
            ),
            tenant_stats=(
                None if self.tenants is None else self.tenants.stats()["tenants"]
            ),
            stage_seconds=self.tracer.stage_histograms(),
        )


def _required_array(body: Dict[str, Any], field: str, *, ndim: int) -> np.ndarray:
    value = body.get(field)
    if value is None:
        raise BadRequest(f"missing field {field!r}")
    try:
        array = np.asarray(value, dtype=np.float64)
    except (TypeError, ValueError) as exc:
        raise BadRequest(f"field {field!r} is not numeric: {exc}") from None
    if array.ndim != ndim:
        raise BadRequest(
            f"field {field!r} must be {ndim}-dimensional, got shape {array.shape}"
        )
    if array.size and not np.isfinite(array).all():
        raise BadRequest(f"field {field!r} contains non-finite values")
    return array


def _merge_batches(parts, request: QueryRequest) -> BatchResult:
    """Stitch per-chunk :class:`BatchResult` parts back into one."""
    if len(parts) == 1:
        return parts[0]
    return BatchResult(
        ids=np.vstack([part.ids for part in parts]),
        distances=np.vstack([part.distances for part in parts]),
        request=request,
        elapsed_seconds=float(sum(part.elapsed_seconds for part in parts)),
        cache_hits=int(sum(part.cache_hits for part in parts)),
    )
