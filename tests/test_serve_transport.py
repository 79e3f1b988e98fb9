"""The HTTP transport of ``MiraClient`` and ``mira serve``, byte by byte.

Both ends frame messages themselves (``repro.serve.framing``): the client
sends each request in one write and reads exactly ``Content-Length`` body
bytes; the server reads the request head into a dict.  These tests pin the
framing contract from the outside:

- [x] 200 mixed requests from one client use one connection
- [x] an idle keep-alive connection the server closed is reconnected once;
      a server that is gone is a ClientConnectionError; so is a read that
      times out
- [x] a reply with ``Connection: close`` makes the client close its socket
- [x] a garbled status line, 101 headers, a 70000-byte header line, a
      short body, no Content-Length and a chunked body are each a typed
      ServeError, never a raw exception
- [x] raw requests to MiraServer: over-limit heads are 431, malformed
      header lines and Content-Length values 400, Transfer-Encoding 501,
      HTTP/2 505 (with a status line, also for an unreadable version),
      each followed by EOF; HTTP/1.0 and ``Connection: close``
      end the connection after the reply; pipelined requests are answered
      in order; ``Expect: 100-continue`` is answered before the body is
      sent; after every one of
      them a new connection still gets 200 from /v1/health
- [x] a submit reply carries ETag, Location, Content-Type, Content-Length,
      Server and Date
"""

import json
import socket
import threading
import time
from contextlib import contextmanager

import pytest

from repro.core import AnalysisConfig
from repro.errors import MiraError, ServeError
from repro.serve import MiraClient, MiraServer
from repro.serve.client import ClientConnectionError

SRC = """\
double kernel(int n) {
    double s = 0.0;
    for (int i = 0; i < n; i++) s += i * 2.0;
    return s;
}
"""


@pytest.fixture(scope="module")
def server(tmp_path_factory):
    config = AnalysisConfig(
        cache_dir=str(tmp_path_factory.mktemp("transport-cache")))
    with MiraServer(port=0, config=config) as srv:
        yield srv


# -- raw-socket helpers -----------------------------------------------------------

def read_reply(rfile) -> tuple[int, dict, bytes]:
    """One HTTP reply, parsed naively: ``(status, headers, body)``."""
    line = rfile.readline()
    assert line.startswith(b"HTTP/1."), line
    status = int(line.split()[1])
    headers = {}
    while True:
        h = rfile.readline()
        if h in (b"\r\n", b""):
            break
        k, _, v = h.decode("iso-8859-1").partition(":")
        headers[k.strip().lower()] = v.strip()
    body = rfile.read(int(headers.get("content-length", 0)))
    return status, headers, body


def at_eof(sock, wait: float = 2.0) -> bool:
    """Whether the peer closes the connection within ``wait`` seconds."""
    sock.settimeout(wait)
    try:
        return sock.recv(1) == b""
    except ConnectionResetError:
        return True
    except TimeoutError:
        return False


@contextmanager
def raw(server):
    with socket.create_connection((server.host, server.port),
                                  timeout=10) as sock, \
            sock.makefile("rb") as rfile:
        yield sock, rfile


def exchange(server, data: bytes, replies: int = 1):
    """Send ``data`` in one write; the replies and whether EOF followed."""
    with raw(server) as (sock, rfile):
        sock.sendall(data)
        got = [read_reply(rfile) for _ in range(replies)]
        return got, at_eof(sock, wait=0.5)


def assert_healthy(server) -> None:
    (reply,), _eof = exchange(
        server, b"GET /v1/health HTTP/1.1\r\nHost: x\r\n"
                b"Connection: close\r\n\r\n")
    assert reply[0] == 200
    assert json.loads(reply[2])["status"] == "ok"


def request(method: str, path: str, headers=(), body: bytes = b"",
            version: str = "HTTP/1.1") -> bytes:
    lines = [f"{method} {path} {version}", "Host: x", *headers]
    if body:
        lines.append(f"Content-Length: {len(body)}")
    return ("\r\n".join(lines) + "\r\n\r\n").encode("iso-8859-1") + body


# -- a fake server for the client's side ------------------------------------------

def read_request(rfile) -> bytes | None:
    """Consume one request; its head, or None at EOF."""
    head = b""
    while True:
        line = rfile.readline()
        if not line:
            return None
        head += line
        if line in (b"\r\n", b"\n"):
            break
    for h in head.split(b"\r\n"):
        if h.lower().startswith(b"content-length:"):
            rfile.read(int(h.split(b":")[1]))
    return head


@contextmanager
def fake_server(handle):
    """A raw-socket server: ``handle(sock, rfile, n)`` serves the n-th
    accepted connection (1-based) and returns to close it."""
    lsock = socket.create_server(("127.0.0.1", 0))
    lsock.settimeout(0.1)
    accepted = []
    stop = threading.Event()

    def loop():
        while not stop.is_set():
            try:
                sock, _ = lsock.accept()
            except TimeoutError:
                continue
            except OSError:
                return
            accepted.append(sock)
            sock.settimeout(10)
            with sock, sock.makefile("rb") as rfile:
                try:
                    handle(sock, rfile, len(accepted))
                except OSError:
                    pass

    thread = threading.Thread(target=loop, daemon=True)
    thread.start()
    try:
        yield f"http://127.0.0.1:{lsock.getsockname()[1]}", accepted
    finally:
        stop.set()
        thread.join(5)
        lsock.close()


OK_REPLY = b"HTTP/1.1 200 OK\r\nContent-Length: 11\r\n\r\n{\"ok\":true}"


# -- the client -------------------------------------------------------------------

def test_many_requests_share_one_connection():
    with MiraServer(port=0, config=AnalysisConfig(use_cache=False)) as srv, \
            MiraClient(srv.url) as client:
        handle = client.submit(SRC, filename="k.c")
        before = client.health()
        for i in range(200):
            kind = i % 5
            if kind == 0:
                assert client.submit(SRC, filename="k.c")["origin"] == \
                    "registry"
            elif kind == 1:
                assert client.evaluate(handle["id"], "kernel",
                                       {"n": i})["total"] > 0
            elif kind == 2:
                assert len(client.sweep(handle["id"], "kernel",
                                        {"n": [1, 2, i]})["points"]) == 3
            elif kind == 3:
                assert client.request("GET", "/v1/nope").status == 404
            else:
                assert client.analysis(handle["id"])["id"] == handle["id"]
        after = client.health()
    assert after["connections"] == before["connections"] == 1
    assert after["requests"] - before["requests"] == 201


def test_idle_connection_closed_by_the_server_is_reconnected():
    def handle(sock, rfile, n):
        read_request(rfile)
        sock.sendall(OK_REPLY)          # keep-alive reply, then hang up

    with fake_server(handle) as (url, accepted):
        client = MiraClient(url, timeout=5)
        assert client.request("GET", "/a").json() == {"ok": True}
        time.sleep(0.05)
        assert client.request("POST", "/b", {"x": 1}).json() == {"ok": True}
        assert len(accepted) == 2
        client.close()


def test_a_server_that_is_gone_is_a_connection_error():
    def handle(sock, rfile, n):
        read_request(rfile)
        sock.sendall(OK_REPLY)

    with fake_server(handle) as (url, _accepted):
        client = MiraClient(url, timeout=5)
        assert client.request("GET", "/a").status == 200
    with pytest.raises(ClientConnectionError):
        client.request("GET", "/a")


def test_timeout_covers_every_read():
    def handle(sock, rfile, n):
        read_request(rfile)
        sock.recv(1)                    # no reply: wait for the client to go

    with fake_server(handle) as (url, accepted):
        client = MiraClient(url, timeout=0.2)
        start = time.monotonic()
        with pytest.raises(ClientConnectionError):
            client.health()
        assert time.monotonic() - start < 1.5
        assert len(accepted) == 2       # one retry


def test_connection_close_reply_closes_the_socket():
    closed = []

    def handle(sock, rfile, n):
        read_request(rfile)
        sock.sendall(b"HTTP/1.1 200 OK\r\nConnection: close\r\n"
                     b"Content-Length: 11\r\n\r\n{\"ok\":true}")
        closed.append(sock.recv(1) == b"")   # the client hung up first

    with fake_server(handle) as (url, accepted):
        client = MiraClient(url, timeout=5)
        assert client.request("GET", "/a").status == 200
        assert client.request("GET", "/b").status == 200
        client.close()
        time.sleep(0.05)
    assert closed[:1] == [True]
    assert len(accepted) == 2


def test_interim_100_reply_is_skipped():
    def handle(sock, rfile, n):
        read_request(rfile)
        sock.sendall(b"HTTP/1.1 100 Continue\r\n\r\n" + OK_REPLY)

    with fake_server(handle) as (url, _accepted):
        with MiraClient(url, timeout=5) as client:
            assert client.request("GET", "/a").json() == {"ok": True}


BAD_REPLIES = {
    "garbled-status": b"SPDY/9 nonsense\r\n\r\n",
    "101-headers": (b"HTTP/1.1 200 OK\r\n"
                    + b"".join(b"X-H%d: v\r\n" % i for i in range(101))
                    + b"Content-Length: 0\r\n\r\n"),
    "long-header-line": (b"HTTP/1.1 200 OK\r\nX-Big: " + b"a" * 70000
                         + b"\r\nContent-Length: 0\r\n\r\n"),
    "short-body": b"HTTP/1.1 200 OK\r\nContent-Length: 100\r\n\r\n{}",
    "no-content-length": b"HTTP/1.1 200 OK\r\n\r\n{}",
    "chunked": (b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n"
                b"2\r\n{}\r\n0\r\n\r\n"),
    "huge-content-length": (b"HTTP/1.1 200 OK\r\n"
                            b"Content-Length: 99999999999999999999999\r\n"
                            b"\r\n{}"),
    "header-without-colon": b"HTTP/1.1 200 OK\r\nnocolon\r\n\r\n",
}


@pytest.mark.parametrize("name", sorted(BAD_REPLIES))
def test_bad_reply_is_a_typed_error(name):
    def handle(sock, rfile, n):
        read_request(rfile)
        sock.sendall(BAD_REPLIES[name])

    with fake_server(handle) as (url, _accepted):
        client = MiraClient(url, timeout=5)
        with pytest.raises(ServeError) as exc:
            client.health()
        assert isinstance(exc.value, MiraError)
        if name in ("short-body", "huge-content-length"):
            # The connection died mid-reply: retried once, then given up.
            assert isinstance(exc.value, ClientConnectionError)
        client.close()


@pytest.mark.parametrize("path,headers", [
    ("/v1/a b", None),
    ("/v1/health\r\nX: 1", None),
    ("/v1/é", None),
    ("/v1/health", {"If-None-Match": "x\r\nInjected: 1"}),
])
def test_unsendable_request_is_a_serve_error(path, headers):
    client = MiraClient("http://127.0.0.1:9")   # never contacted
    with pytest.raises(ServeError):
        client.request("GET", path, headers=headers)


# -- the server -------------------------------------------------------------------

def test_keep_alive_requests_on_one_socket(server):
    with raw(server) as (sock, rfile):
        for _ in range(3):
            sock.sendall(request("GET", "/v1/health"))
            status, headers, body = read_reply(rfile)
            assert status == 200 and json.loads(body)["status"] == "ok"
            assert headers.get("connection") != "close"
        assert not at_eof(sock, wait=0.2)


def test_pipelined_requests_are_answered_in_order(server):
    replies, _eof = exchange(server, request("GET", "/v1/nope")
                             + request("GET", "/v1/health"), replies=2)
    assert [r[0] for r in replies] == [404, 200]
    assert_healthy(server)


HEADS = {
    "100-headers": ([f"X-H{i}: v" for i in range(99)], 200),
    "101-headers": ([f"X-H{i}: v" for i in range(100)], 431),
    "long-header-line": (["X-Big: " + "a" * 70000], 431),
    "no-colon": (["nocolon"], 400),
    "space-before-colon": (["X-H : v"], 400),
    "folded-line": (["X-H: v", " continued"], 400),
    "conflicting-content-length": (
        ["Content-Length: 2", "Content-Length: 3"], 400),
    "non-numeric-content-length": (["Content-Length: -1"], 400),
    "chunked": (["Transfer-Encoding: chunked"], 501),
}


@pytest.mark.parametrize("name", sorted(HEADS))
def test_request_head_limits(server, name):
    lines, want = HEADS[name]
    (reply,), eof = exchange(server, request("GET", "/v1/health", lines))
    assert reply[0] == want
    assert eof == (want != 200)
    assert_healthy(server)


@pytest.mark.parametrize("line,want", [
    (b"GET /v1/health HTTP/2.0", 505),
    (b"GET /v1/health HTTP/1.x", 400),
    (b"this is not a request line", 400),
    (b"POST /v1/health", 400),
    (b"BREW /v1/health HTTP/1.1", 501),
    (b"GET /" + b"a" * 70000 + b" HTTP/1.1", 414),
])
def test_bad_request_lines_keep_the_stdlib_status(server, line, want):
    # The stdlib's status, with a status line in the server's version even
    # when the request's version cannot be read, then EOF.
    with raw(server) as (sock, rfile):
        sock.sendall(line + b"\r\nHost: x\r\n\r\n")
        reply = rfile.read()
    assert b"Error code: %d" % want in reply
    assert reply.startswith(b"HTTP/1.1 %d " % want), reply[:80]
    head = reply.partition(b"\r\n\r\n")[0].lower()
    assert b"\r\nconnection: close\r\n" in head + b"\r\n"
    assert_healthy(server)


@pytest.mark.parametrize("version,headers,closes", [
    ("HTTP/1.0", [], True),
    ("HTTP/1.0", ["Connection: keep-alive"], False),
    ("HTTP/1.1", ["Connection: close"], True),
    ("HTTP/1.1", [], False),
])
def test_connection_directives(server, version, headers, closes):
    (reply,), eof = exchange(
        server, request("GET", "/v1/health", headers, version=version))
    assert reply[0] == 200
    assert eof == closes
    assert (reply[1].get("connection") == "close") == closes
    assert_healthy(server)


def test_expect_100_continue(server):
    body = json.dumps({"source": SRC, "filename": "k.c"}).encode()
    head, _, body = request("POST", "/v1/analyses", ["Expect: 100-continue"],
                            body).partition(b"\r\n\r\n")
    with raw(server) as (sock, rfile):
        sock.sendall(head + b"\r\n\r\n")
        assert read_reply(rfile)[0] == 100     # before the body is sent
        sock.sendall(body)
        status, _headers, reply = read_reply(rfile)
    assert status in (200, 201) and json.loads(reply)["kind"] == \
        "AnalysisHandle"
    assert_healthy(server)


def test_oversized_body_closes_the_connection(server):
    with raw(server) as (sock, rfile):
        sock.sendall(request("POST", "/v1/analyses",
                             [f"Content-Length: {9 << 20}"]))
        status, headers, body = read_reply(rfile)
        assert status == 413 and headers["connection"] == "close"
        assert json.loads(body)["error"]["type"] == "PayloadTooLarge"
        assert at_eof(sock)
    assert_healthy(server)


def test_submit_reply_headers(server):
    with MiraClient(server.url) as client:
        resp = client.request("POST", "/v1/analyses",
                              {"source": SRC, "filename": "k.c"})
    assert resp.status in (200, 201)
    doc = resp.json()
    assert resp.headers["etag"] == f'"{doc["id"]}"'
    assert resp.headers["location"] == f"/v1/analyses/{doc['id']}"
    assert resp.headers["content-type"] == "application/json"
    assert int(resp.headers["content-length"]) == len(resp.body)
    assert resp.headers["server"].startswith("mira-serve/")
    assert resp.headers["date"].endswith("GMT")
