"""``/v1/health``: liveness, version, and serving counters."""

from __future__ import annotations

from ..._version import __version__
from ..app import Request, Response, ServerContext

__all__ = ["ROUTES", "get_health"]


def get_health(ctx: ServerContext, req: Request) -> Response:
    cache = ctx.registry.cache
    return Response(200, {
        "kind": "Health",
        "status": "ok",
        "version": __version__,
        "uptime_seconds": round(ctx.uptime(), 3),
        "requests": ctx.requests,
        "connections": ctx.connections,
        "registry": ctx.registry.stats(),
        "cache": (cache.stats() if cache is not None else None),
    })


ROUTES = [
    ("GET", r"/v1/health", get_health),
]
