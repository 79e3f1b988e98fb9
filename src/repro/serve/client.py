"""MiraClient: the typed HTTP client for the model-serving API.

Stdlib-only (``http.client``), following the Hynous ``NousClient`` idiom —
every method is ``self._request(...)`` → ``resp.raise_for_status()`` →
``resp.json()`` — so call sites read as data access, with transport
failures surfacing as the :class:`~repro.errors.MiraError` subclasses
:class:`ClientConnectionError` / :class:`HTTPStatusError`.

The client keeps one persistent (keep-alive) connection and transparently
reconnects once when the server has dropped it; it is not thread-safe —
use one client per thread (cheap: a client is a host/port pair).

Typical use::

    from repro.serve import MiraClient

    client = MiraClient("http://127.0.0.1:8321")
    handle = client.submit(open("kernel.c").read(), filename="kernel.c")
    counts = client.evaluate(handle["id"], "main", {"n": 1024})
"""

from __future__ import annotations

import http.client
import json
from dataclasses import dataclass, field
from urllib.parse import urlsplit

from ..core.sweep import sweep_rows
from ..errors import ServeError

__all__ = ["ClientConnectionError", "HTTPStatusError", "MiraClient",
           "ServeResponse", "DEFAULT_URL"]

DEFAULT_URL = "http://127.0.0.1:8321"


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
        self._conn: http.client.HTTPConnection | None = None

    # -- transport ---------------------------------------------------------------
    def _connection(self) -> http.client.HTTPConnection:
        if self._conn is None:
            self._conn = http.client.HTTPConnection(
                self.host, self.port, timeout=self.timeout)
        return self._conn

    def request(self, method: str, path: str, doc: dict | None = None,
                headers: dict | None = None) -> ServeResponse:
        """One raw exchange (no status check).  ``doc`` is sent as JSON."""
        body = (json.dumps(doc).encode("utf-8")
                if doc is not None else None)
        send_headers = {"Accept": "application/json"}
        if body is not None:
            send_headers["Content-Type"] = "application/json"
        send_headers.update(headers or {})
        for attempt in (0, 1):
            conn = self._connection()
            try:
                conn.request(method, path, body=body, headers=send_headers)
                resp = conn.getresponse()
                return ServeResponse(
                    status=resp.status, reason=resp.reason or "",
                    method=method, path=path,
                    headers={k.lower(): v for k, v in resp.getheaders()},
                    body=resp.read())
            except (http.client.HTTPException, ConnectionError,
                    OSError) as exc:
                # A dropped keep-alive connection is normal (server
                # restart, idle timeout): reconnect once, then give up.
                self.close()
                if attempt:
                    raise ClientConnectionError(
                        f"{method} http://{self.host}:{self.port}{path} "
                        f"failed: {exc}") from exc
        raise AssertionError("unreachable")

    def _json(self, method: str, path: str, doc: dict | None = None,
              headers: dict | None = None) -> dict | None:
        # The Hynous idiom: request -> raise_for_status -> json.
        resp = self.request(method, path, doc=doc, headers=headers)
        resp.raise_for_status()
        return resp.json()

    def close(self) -> None:
        if self._conn is not None:
            try:
                self._conn.close()
            finally:
                self._conn = None

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
