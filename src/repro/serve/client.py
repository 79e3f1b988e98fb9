"""MiraClient: the typed HTTP client for the model-serving API.

Stdlib-only (``socket``), following the Hynous ``NousClient`` idiom —
every method is ``self._request(...)`` → ``resp.raise_for_status()`` →
``resp.json()`` — so call sites read as data access, with transport
failures surfacing as the :class:`~repro.errors.MiraError` subclasses
:class:`ClientConnectionError` / :class:`HTTPStatusError`.

The client keeps one persistent (keep-alive) socket.  A request goes out
in one ``sendall`` (request line, headers and body together), and the
reply is read as a status line, a head of lower-cased headers
(:func:`~repro.serve.framing.read_headers`) and exactly ``Content-Length``
body bytes.  On a transport failure (refused, reset, timed out, closed
early) the client reconnects once and retries, then raises
:class:`ClientConnectionError`; a reply that breaks framing (a garbled
status line, a head over the limits, no ``Content-Length``, a chunked
body) is a :class:`~repro.errors.ServeError` at once.  It is not
thread-safe — use one client per thread (cheap: a client is a host/port
pair).

Typical use::

    from repro.serve import MiraClient

    client = MiraClient("http://127.0.0.1:8321")
    handle = client.submit(open("kernel.c").read(), filename="kernel.c")
    counts = client.evaluate(handle["id"], "main", {"n": 1024})
"""

from __future__ import annotations

import json
import re
import socket
from dataclasses import dataclass, field
from urllib.parse import urlsplit

from ..core.sweep import sweep_rows
from ..errors import ServeError
from .framing import MAX_LINE, read_headers

__all__ = ["ClientConnectionError", "HTTPStatusError", "MiraClient",
           "ServeResponse", "DEFAULT_URL"]

DEFAULT_URL = "http://127.0.0.1:8321"

#: Characters that would break a request line or header out of its line.
_UNSAFE = re.compile(r"[\x00-\x1f\x7f]")
#: The largest single read of a reply body.
_READ_CHUNK = 1 << 20


class ClientConnectionError(ServeError):
    """The server could not be reached (refused, reset, timed out)."""


class HTTPStatusError(ServeError):
    """A 4xx/5xx response; carries the parsed error payload."""

    def __init__(self, status: int, reason: str, method: str, path: str,
                 payload: dict | None) -> None:
        err = (payload or {}).get("error") or {}
        detail = err.get("message") or reason
        super().__init__(f"{method} {path} -> {status}: {detail}")
        self.status = status
        self.payload = payload
        self.error_type = err.get("type", "HTTPError")


@dataclass
class ServeResponse:
    """One HTTP exchange: status, headers, raw body, JSON accessors."""

    status: int
    reason: str
    method: str
    path: str
    headers: dict = field(default_factory=dict)  # lower-cased keys
    body: bytes = b""

    def json(self) -> dict | None:
        """The parsed body (None for bodyless replies like 304)."""
        if not self.body:
            return None
        try:
            return json.loads(self.body.decode("utf-8"))
        except (UnicodeDecodeError, ValueError) as exc:
            raise ServeError(f"{self.method} {self.path}: server returned "
                             f"a non-JSON body: {exc}") from None

    @property
    def etag(self) -> str | None:
        return self.headers.get("etag")

    def raise_for_status(self) -> "ServeResponse":
        if self.status >= 400:
            try:
                payload = self.json()
            except ServeError:
                payload = None
            raise HTTPStatusError(self.status, self.reason, self.method,
                                  self.path, payload)
        return self


def _status_line(line: bytes) -> tuple[int, str]:
    """``(status, reason)`` of a reply's first line."""
    words = line.decode("iso-8859-1").rstrip("\r\n").split(None, 2)
    if (len(line) > MAX_LINE or len(words) < 2
            or not words[0].startswith("HTTP/")
            or len(words[1]) != 3 or not words[1].isdigit()
            or not words[1].isascii()):
        raise ServeError(f"malformed status line {line[:80]!r}")
    return int(words[1]), (words[2] if len(words) > 2 else "")


class MiraClient:
    """Typed access to a running :class:`~repro.serve.app.MiraServer`."""

    def __init__(self, base_url: str = DEFAULT_URL, *,
                 timeout: float = 60.0) -> None:
        if "//" not in base_url:
            base_url = "http://" + base_url
        split = urlsplit(base_url)
        if split.scheme != "http":
            raise ServeError(f"unsupported URL scheme {split.scheme!r} "
                             f"(the serving API is plain http)")
        if not split.hostname:
            raise ServeError(f"cannot parse a host out of {base_url!r}")
        self.host = split.hostname
        self.port = split.port or 80
        self.timeout = timeout
        host = f"[{self.host}]" if ":" in self.host else self.host
        self._host_header = host if self.port == 80 else f"{host}:{self.port}"
        self._sock: socket.socket | None = None
        self._rfile = None

    # -- transport ---------------------------------------------------------------
    def _message(self, method: str, path: str, body: bytes | None,
                 headers: dict | None) -> bytes:
        """The whole request, head and body, as one buffer."""
        send = {"Host": self._host_header, "Accept": "application/json"}
        if body is not None:
            send["Content-Type"] = "application/json"
        send.update(headers or {})
        if body is not None:
            send["Content-Length"] = str(len(body))
        lines = [f"{method} {path} HTTP/1.1"]
        lines += [f"{k}: {v}" for k, v in send.items()]
        if (" " in method or " " in path or not path.isascii()
                or any(map(_UNSAFE.search, lines))):
            raise ServeError(f"cannot send {method} {path!r}: a space, a "
                             f"control character or non-ASCII in the "
                             f"request line, or a control character in "
                             f"a header")
        try:
            head = "\r\n".join(lines).encode("iso-8859-1")
        except UnicodeEncodeError as exc:
            raise ServeError(f"cannot send {method} {path!r}: header "
                             f"text is not Latin-1: {exc}") from None
        return head + b"\r\n\r\n" + (body or b"")

    def _read_response(self, method: str, path: str) -> ServeResponse:
        rfile = self._rfile
        while True:
            line = rfile.readline(MAX_LINE + 1)
            if not line:
                raise ConnectionError("server closed the connection "
                                      "before replying")
            status, reason = _status_line(line)
            headers = read_headers(rfile)
            if not 100 <= status < 200:
                break                   # 1xx is interim: the reply follows
        if "transfer-encoding" in headers:
            raise ServeError(f"{method} {path}: reply has Transfer-Encoding "
                             f"{headers['transfer-encoding']!r}; mira serve "
                             f"always sends Content-Length")
        length = headers.get("content-length")
        if length is None:
            raise ServeError(f"{method} {path}: reply has no Content-Length")
        # In bounded reads, so a huge Content-Length is a short body, not
        # an allocation of that size.
        chunks, left = [], int(length)
        while left:
            chunk = rfile.read(min(left, _READ_CHUNK))
            if not chunk:
                raise ConnectionError(f"server closed the connection with "
                                      f"{left} of {length} body bytes "
                                      f"unread")
            chunks.append(chunk)
            left -= len(chunk)
        body = b"".join(chunks)
        if headers.get("connection", "").lower() == "close":
            self.close()
        return ServeResponse(status=status, reason=reason, method=method,
                             path=path, headers=headers, body=body)

    def request(self, method: str, path: str, doc: dict | None = None,
                headers: dict | None = None) -> ServeResponse:
        """One raw exchange (no status check).  ``doc`` is sent as JSON."""
        body = (json.dumps(doc).encode("utf-8")
                if doc is not None else None)
        message = self._message(method, path, body, headers)
        for attempt in (0, 1):
            try:
                if self._sock is None:
                    self._sock = socket.create_connection(
                        (self.host, self.port), self.timeout)
                    self._rfile = self._sock.makefile("rb")
                    self._sock.setsockopt(socket.IPPROTO_TCP,
                                          socket.TCP_NODELAY, 1)
                self._sock.sendall(message)
                return self._read_response(method, path)
            except OSError as exc:
                # A dropped keep-alive connection is normal (server
                # restart, idle timeout): reconnect once, then give up.
                self.close()
                if attempt:
                    raise ClientConnectionError(
                        f"{method} http://{self.host}:{self.port}{path} "
                        f"failed: {exc}") from exc
            except ServeError:
                self.close()            # the stream is out of step
                raise
        raise AssertionError("unreachable")

    def _json(self, method: str, path: str, doc: dict | None = None,
              headers: dict | None = None) -> dict | None:
        # The Hynous idiom: request -> raise_for_status -> json.
        resp = self.request(method, path, doc=doc, headers=headers)
        resp.raise_for_status()
        return resp.json()

    def close(self) -> None:
        opened = (self._rfile, self._sock)
        self._sock = self._rfile = None
        for f in opened:
            if f is not None:
                f.close()

    def __enter__(self) -> "MiraClient":
        return self

    def __exit__(self, *exc) -> bool:
        self.close()
        return False

    # -- the API -----------------------------------------------------------------
    def health(self) -> dict:
        return self._json("GET", "/v1/health")

    def submit(self, source: str, *, filename: str = "<input>",
               config: dict | None = None,
               etag: str | None = None) -> dict | None:
        """Submit C source for analysis; returns the handle document.

        With ``etag`` the submission is conditional (``If-None-Match``):
        when the server still holds that model, the reply is 304 and this
        returns None — the caller's handle is still current.
        """
        doc = {"source": source, "filename": filename}
        if config is not None:
            doc["config"] = config
        headers = {"If-None-Match": etag} if etag else None
        return self._json("POST", "/v1/analyses", doc, headers=headers)

    def analyses(self) -> dict:
        return self._json("GET", "/v1/analyses")

    def analysis(self, analysis_id: str) -> dict:
        """The stored model: the schema-versioned AnalysisResult JSON."""
        return self._json("GET", f"/v1/analyses/{analysis_id}")

    def delete(self, analysis_id: str) -> dict:
        return self._json("DELETE", f"/v1/analyses/{analysis_id}")

    def evaluate(self, analysis_id: str, function: str,
                 params: dict | None = None, *,
                 engine: str = "auto") -> dict:
        return self._json("POST", f"/v1/analyses/{analysis_id}/evaluate",
                          {"function": function, "params": params or {},
                           "engine": engine})

    def sweep(self, analysis_id: str, function: str, grid, *,
              base: dict | None = None, engine: str = "auto") -> dict:
        """Grid evaluation: the columnar ``SweepResult`` document, with
        its per-point rows expanded into ``points`` (:func:`sweep_rows`).
        """
        doc = {"function": function, "grid": grid, "engine": engine,
               "layout": "columns"}
        if base:
            doc["base"] = base
        out = self._json("POST", f"/v1/analyses/{analysis_id}/sweep", doc)
        out["points"] = sweep_rows(out)
        return out

    def diff(self, analysis_id: str, other_id: str) -> dict:
        return self._json("POST", f"/v1/analyses/{analysis_id}/diff",
                          {"other": other_id})

    def workloads(self) -> dict:
        return self._json("GET", "/v1/corpora")

    def submit_corpus(self, sources: dict | None = None, *,
                      corpus=None, jobs: int = 1,
                      config: dict | None = None) -> dict:
        doc: dict = {"jobs": jobs}
        if sources is not None:
            doc["sources"] = sources
        if corpus is not None:
            doc["corpus"] = corpus
        if config is not None:
            doc["config"] = config
        return self._json("POST", "/v1/corpora", doc)
