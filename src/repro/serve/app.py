"""The model-serving HTTP application: router, server, error mapping.

Stdlib-only (``http.server``): a :class:`ThreadingHTTPServer` whose handler
dispatches on ``(method, path-regex)`` route tables contributed by the
per-resource modules under :mod:`repro.serve.routes` — one module per
resource, Hynous-style, each exporting a ``ROUTES`` list.

Every response body is a JSON document stamped with ``schema_version`` and
the package ``version``.  Failures map onto the stable error payload of
:func:`repro.errors.error_payload` (shared with the CLI's ``--json``
failure output):

* :class:`~repro.errors.MiraError` and subclasses → **400** (the request —
  source, config, bindings — was the problem; ``error.type`` carries the
  concrete class name),
* unknown resources/routes → **404**, wrong method → **405**, oversized
  bodies and sweep grids over ``MAX_SWEEP_POINTS`` points → **413**
  (``PayloadTooLarge``, ``GridTooLarge``), malformed JSON bodies → **400**,
* anything else → **500** (``error.type: "InternalError"``).

Requests whose framing is broken never reach a route.  The handler reads
the request head itself (:meth:`parse_request`, through
:func:`~repro.serve.framing.read_headers`) and answers with the stdlib's
error page and ``Connection: close``:

* a malformed request line, a header line without a colon or with
  whitespace before it, a folded header line, and a bad or conflicting
  ``Content-Length`` → **400**,
* more than 100 header fields, or a header line over 65536 bytes →
  **431**,
* a request with ``Transfer-Encoding`` (chunked bodies are not read) →
  **501**, like an unknown method,
* HTTP/2 or later → **505**.

Each of these replies starts with an ``HTTP/1.1`` status line, also when
the request line's own version could not be read.

Typical embedding (tests, benchmarks)::

    from repro.serve import MiraServer, MiraClient

    with MiraServer(port=0) as server:          # port 0 = ephemeral
        client = MiraClient(server.url)
        handle = client.submit(open("kernel.c").read())
        client.evaluate(handle["id"], "main")
"""

from __future__ import annotations

import json
import re
import threading
import time
from dataclasses import dataclass, field
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from urllib.parse import parse_qsl, urlsplit

from .._version import __version__
from ..core.config import AnalysisConfig
from ..core.result import RESULT_SCHEMA_VERSION
from ..errors import MiraError, ServeError, error_payload
from .framing import FramingError, read_headers
from .registry import DEFAULT_CAPACITY, ModelRegistry

__all__ = ["HTTPError", "MiraServer", "Request", "Response",
           "ServerContext", "match_route", "route_table"]


class HTTPError(Exception):
    """A failure with an explicit HTTP status and stable ``error.type``."""

    def __init__(self, status: int, message: str,
                 error_type: str = "BadRequest") -> None:
        super().__init__(message)
        self.status = status
        self.error_type = error_type

    @staticmethod
    def not_found(message: str) -> "HTTPError":
        return HTTPError(404, message, "NotFound")


@dataclass
class Request:
    """One parsed HTTP request, as route handlers see it."""

    method: str
    path: str
    params: dict = field(default_factory=dict)   # named route-regex groups
    query: dict = field(default_factory=dict)
    headers: dict = field(default_factory=dict)  # lower-cased keys
    body: dict | None = None                     # parsed JSON, if any

    def require(self, key: str):
        """A required body field, or a 400 naming what is missing."""
        doc = self.body if isinstance(self.body, dict) else {}
        if key not in doc:
            raise HTTPError(400, f"request body is missing the "
                                 f"required field {key!r}")
        return doc[key]

    def get(self, key: str, default=None):
        doc = self.body if isinstance(self.body, dict) else {}
        return doc.get(key, default)

    def if_none_match(self) -> str | None:
        return self.headers.get("if-none-match")


@dataclass
class Response:
    """What a route handler returns; ``doc`` is None for bodyless replies
    (304)."""

    status: int = 200
    doc: dict | None = None
    headers: dict = field(default_factory=dict)

    @staticmethod
    def not_modified(etag: str) -> "Response":
        return Response(304, None, {"ETag": etag})


class ServerContext:
    """Shared serving state: the registry, base config, run metadata."""

    def __init__(self, registry: ModelRegistry, quiet: bool = True) -> None:
        self.registry = registry
        self.config = registry.config
        self.quiet = quiet
        self.started_at = time.time()
        self.requests = 0
        self.connections = 0
        self._lock = threading.Lock()

    def count_request(self) -> int:
        with self._lock:
            self.requests += 1
            return self.requests

    def count_connection(self) -> None:
        with self._lock:
            self.connections += 1

    def uptime(self) -> float:
        return time.time() - self.started_at


def route_table() -> list:
    """All routes: ``(method, compiled path regex, handler)`` triples."""
    from .routes import analyses, corpora, health

    table = []
    for module in (health, analyses, corpora):
        for method, pattern, handler in module.ROUTES:
            table.append((method, re.compile(pattern), handler))
    return table


def match_route(table, method: str, path: str):
    """Resolve ``(handler, params)``; raises 404/405 :class:`HTTPError`.

    A path that matches some route but not with this method reports the
    allowed methods (405) instead of pretending the path does not exist.
    """
    allowed = []
    for m, regex, handler in table:
        match = regex.fullmatch(path)
        if match is None:
            continue
        if m == method:
            return handler, match.groupdict()
        allowed.append(m)
    if allowed:
        raise HTTPError(405, f"{method} not allowed on {path} "
                             f"(allowed: {', '.join(sorted(set(allowed)))})",
                        "MethodNotAllowed")
    raise HTTPError.not_found(f"no route for {method} {path}")


#: Request bodies beyond this are rejected with 413 before being read into
#: memory (sources are text; 8 MiB is far past any sane submission).
MAX_BODY_BYTES = 8 << 20


def _version_number(version: str) -> tuple[int, int] | None:
    """``(major, minor)`` of an ``HTTP/x.y`` token, or None if malformed."""
    if not version.startswith("HTTP/"):
        return None
    parts = version[5:].split(".")
    if len(parts) != 2 or not all(p.isascii() and p.isdigit()
                                  and len(p) <= 10 for p in parts):
        return None
    return int(parts[0]), int(parts[1])


def _make_handler(ctx: ServerContext):
    table = route_table()

    class Handler(BaseHTTPRequestHandler):
        protocol_version = "HTTP/1.1"        # keep-alive: one connection,
        server_version = f"mira-serve/{__version__}"   # many requests
        # Fully buffer the response and disable Nagle: the stdlib default
        # (unbuffered wfile) emits each header line as its own TCP segment,
        # and the Nagle/delayed-ACK interaction then stalls every reply by
        # ~40ms — two orders of magnitude over a warm registry hit.
        wbufsize = -1
        disable_nagle_algorithm = True

        # -- plumbing ---------------------------------------------------------
        def log_message(self, fmt, *args):   # noqa: N802 (stdlib name)
            if not ctx.quiet:
                BaseHTTPRequestHandler.log_message(self, fmt, *args)

        def setup(self):
            BaseHTTPRequestHandler.setup(self)
            ctx.count_connection()

        def parse_request(self):
            """The stdlib's request-line rules, then the head through
            :func:`read_headers` into ``self.headers`` (a dict with
            lower-cased names).  ``http.client.parse_headers`` builds an
            ``email`` message instead, the largest cost of a warm request.
            """
            self.command = None
            self.request_version = self.default_request_version
            self.close_connection = True
            line = str(self.raw_requestline, "iso-8859-1").rstrip("\r\n")
            self.requestline = line
            words = line.split()
            if not words:
                return False
            if len(words) >= 3:
                version = words[-1]
                number = _version_number(version)
                if number is None:
                    return self._refuse(400, f"Bad request version "
                                             f"({version!r})")
                if number >= (2, 0):
                    return self._refuse(505, f"Invalid HTTP version "
                                             f"({version[5:]})")
                self.close_connection = number < (1, 1)
                self.request_version = version
            if not 2 <= len(words) <= 3:
                return self._refuse(400, f"Bad request syntax ({line!r})")
            self.command, self.path = words[:2]
            if len(words) == 2:
                self.close_connection = True
                if self.command != "GET":
                    return self._refuse(400, f"Bad HTTP/0.9 request type "
                                             f"({self.command!r})")
            if self.path.startswith("//"):   # urlsplit reads //x as a host
                self.path = "/" + self.path.lstrip("/")
            try:
                self.headers = headers = read_headers(self.rfile)
            except FramingError as exc:
                self.send_error(exc.status, str(exc))
                return False
            except ConnectionError:        # the peer left mid-head
                return False
            if "transfer-encoding" in headers:
                self.send_error(501, "Transfer-Encoding is not supported; "
                                     "send Content-Length")
                return False
            conntype = headers.get("connection", "").lower()
            if conntype == "close":
                self.close_connection = True
            elif conntype == "keep-alive":
                self.close_connection = False
            if (headers.get("expect", "").lower() == "100-continue"
                    and self.request_version >= "HTTP/1.1"):
                return self.handle_expect_100()
            return True

        def _refuse(self, status: int, message: str) -> bool:
            """Refuse a request line whose version could not be read, or a
            two-word (HTTP/0.9) line whose method is not GET.  The stdlib
            would answer in HTTP/0.9, a bare error page without a status
            line; this reply has one, in the server's version, and says
            ``Connection: close`` (``close_connection`` is already set)."""
            self.request_version = self.protocol_version
            self.send_error(status, message)
            return False

        def handle_expect_100(self):
            # wfile is buffered (wbufsize): the interim reply must go out
            # now, or a client waiting for it before sending its body
            # stalls until its own timeout.
            BaseHTTPRequestHandler.handle_expect_100(self)
            self.wfile.flush()
            return True

        def _send(self, response: Response) -> None:
            self.send_response(response.status)
            for k, v in response.headers.items():
                self.send_header(k, v)
            if self.close_connection:
                self.send_header("Connection", "close")
            if response.doc is None:
                # Bodyless statuses (304): headers only; http.client peers
                # know these carry no entity.
                self.send_header("Content-Length", "0")
                self.end_headers()
                return
            doc = dict(response.doc)
            doc.setdefault("schema_version", RESULT_SCHEMA_VERSION)
            doc.setdefault("version", __version__)
            body = json.dumps(doc, separators=(",", ":")).encode("utf-8")
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(body)))
            self.end_headers()
            self.wfile.write(body)

        def _fail(self, status: int, error_type: str, message: str) -> None:
            doc = error_payload(MiraError(message))
            doc["error"]["type"] = error_type
            self._send(Response(status, doc))

        def _read_body(self) -> dict | None:
            length = int(self.headers.get("content-length") or 0)
            if length == 0:
                return None
            if length > MAX_BODY_BYTES:
                self.close_connection = True     # the body is never read
                raise HTTPError(413, f"request body of {length} bytes "
                                     f"exceeds the {MAX_BODY_BYTES}-byte "
                                     f"limit", "PayloadTooLarge")
            raw = self.rfile.read(length)
            try:
                return json.loads(raw.decode("utf-8"))
            except (UnicodeDecodeError, ValueError) as exc:
                raise HTTPError(400, f"request body is not valid JSON: "
                                     f"{exc}") from None

        # -- dispatch ---------------------------------------------------------
        def _dispatch(self, method: str) -> None:
            ctx.count_request()
            split = urlsplit(self.path)
            path = split.path.rstrip("/") or "/"
            try:
                handler, params = match_route(table, method, path)
                request = Request(
                    method=method, path=path, params=params,
                    query=dict(parse_qsl(split.query)),
                    headers=self.headers,
                    body=self._read_body())
                self._send(handler(ctx, request))
            except HTTPError as exc:
                self._fail(exc.status, exc.error_type, str(exc))
            except MiraError as exc:
                # The submitted source/config/bindings were the problem:
                # a client error, typed by the concrete Mira exception.
                doc = error_payload(exc)
                self._send(Response(400, doc))
            except Exception as exc:   # noqa: BLE001 - the server must live
                self._fail(500, "InternalError",
                           f"{type(exc).__name__}: {exc}")

        def do_GET(self):     # noqa: N802
            self._dispatch("GET")

        def do_POST(self):    # noqa: N802
            self._dispatch("POST")

        def do_DELETE(self):  # noqa: N802
            self._dispatch("DELETE")

    return Handler


class MiraServer:
    """The long-running analysis server.

    :param host: bind address (default loopback).
    :param port: TCP port; ``0`` binds an ephemeral port (tests, benches).
    :param config: base :class:`AnalysisConfig`; per-request config fields
        overlay it, but the cache policy (``cache_dir``/``use_cache``) is
        the server's alone.
    :param capacity: warm registry bound (LRU beyond it).
    :param quiet: suppress per-request access logging.
    """

    def __init__(self, host: str = "127.0.0.1", port: int = 0, *,
                 config: AnalysisConfig | None = None,
                 capacity: int = DEFAULT_CAPACITY,
                 registry: ModelRegistry | None = None,
                 quiet: bool = True) -> None:
        if registry is None:
            registry = ModelRegistry(config, capacity=capacity)
        elif config is not None:
            raise ServeError("pass either a registry or a config, not both")
        self.registry = registry
        self.context = ServerContext(registry, quiet=quiet)
        try:
            self._httpd = ThreadingHTTPServer((host, port),
                                              _make_handler(self.context))
        except OSError as exc:
            raise ServeError(f"cannot bind {host}:{port}: {exc}") from exc
        self._httpd.daemon_threads = True
        self.host, self.port = self._httpd.server_address[:2]
        self._thread: threading.Thread | None = None

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    # -- lifecycle ---------------------------------------------------------------
    def serve_forever(self) -> None:
        """Block serving requests until :meth:`shutdown` (or Ctrl-C)."""
        self._httpd.serve_forever()

    def start(self) -> "MiraServer":
        """Serve on a daemon thread; returns self (the embedding API)."""
        if self._thread is None:
            self._thread = threading.Thread(target=self.serve_forever,
                                            name="mira-serve", daemon=True)
            self._thread.start()
        return self

    def shutdown(self) -> None:
        self._httpd.shutdown()
        if self._thread is not None:
            self._thread.join(timeout=5)
            self._thread = None

    def close(self) -> None:
        self.shutdown()
        self._httpd.server_close()

    def __enter__(self) -> "MiraServer":
        return self.start()

    def __exit__(self, *exc) -> bool:
        self.close()
        return False
