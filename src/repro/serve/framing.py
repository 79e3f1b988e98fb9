"""HTTP/1.1 header framing shared by :class:`MiraClient` and ``mira serve``.

Both ends read a message head the same way: lines from a buffered socket
reader up to the blank line, into one dict with lower-cased names.  The
limits are the stdlib's (``http.client``): a line of at most 65536 bytes
and at most 100 header fields.  Nothing here goes through
``email.parser``, which is what ``http.client`` and ``http.server`` spend
most of a warm request on.
"""

from __future__ import annotations

from ..errors import ServeError

__all__ = ["FramingError", "MAX_HEADERS", "MAX_LINE", "read_headers"]

#: The longest header or status line accepted, in bytes.
MAX_LINE = 65536
#: The most header fields one message may carry.
MAX_HEADERS = 100


class FramingError(ServeError):
    """A message head that breaks HTTP/1.1 framing.

    ``status`` is the reply a server gives it: 431 for a head over the
    limits, 400 for a malformed line.
    """

    def __init__(self, status: int, message: str) -> None:
        super().__init__(message)
        self.status = status


def read_headers(rfile) -> dict:
    """Read header lines up to the blank line into ``{lower name: value}``.

    A repeated field keeps its last value, except ``Content-Length``: two
    different values are a 400, and so is one that is not a decimal
    number.  A line without a colon, whitespace before the colon, and an
    obsolete folded continuation line are 400s too.  End of stream inside
    the head is a :class:`ConnectionError`: the peer went away, which is
    no framing fault of the message.
    """
    headers = {}
    for _ in range(MAX_HEADERS + 1):
        line = rfile.readline(MAX_LINE + 1)
        if len(line) > MAX_LINE:
            raise FramingError(431, f"header line longer than {MAX_LINE} "
                                    f"bytes")
        if line == b"\r\n" or line == b"\n":
            return headers
        if not line:
            raise ConnectionError("connection closed inside a message head")
        if line[:1] in (b" ", b"\t"):
            raise FramingError(400, "folded header line")
        name, sep, value = line.decode("iso-8859-1").partition(":")
        if not sep or not name or name[-1] in " \t":
            raise FramingError(400, f"malformed header line {line[:80]!r}")
        name = name.lower()
        value = value.strip()
        if name == "content-length":
            if not (value.isascii() and value.isdigit()):
                raise FramingError(400, f"bad Content-Length {value!r}")
            if headers.get(name, value) != value:
                raise FramingError(400, "conflicting Content-Length values")
        headers[name] = value
    raise FramingError(431, f"more than {MAX_HEADERS} header fields")
