"""Model serving: the long-running analysis server and its typed client.

The paper's economics — analyze once, evaluate cheaply forever — turned
into a service: :class:`MiraServer` is a stdlib-only threaded HTTP server
exposing REST CRUD over analyses and corpora, :class:`ModelRegistry` serves
fingerprint-keyed warm models from a :class:`~repro.core.store.ModelStore`
(memory LRU → on-disk cache → pipeline), and :class:`MiraClient` is the
``request → raise_for_status → json`` client the ``mira client`` CLI
drives.

Route map (all JSON, all stamped with ``schema_version`` + ``version``)::

    GET    /v1/health                      liveness, version, counters
    POST   /v1/analyses                    submit source -> model handle
    GET    /v1/analyses                    list warm models
    GET    /v1/analyses/{id}               the AnalysisResult wire format
    DELETE /v1/analyses/{id}               evict from the warm registry
    POST   /v1/analyses/{id}/evaluate      one-point compiled evaluation
    POST   /v1/analyses/{id}/sweep         grid eval (layout rows|columns)
    POST   /v1/analyses/{id}/diff          symbolic diff vs another model
    GET    /v1/corpora                     bundled workload catalog
    POST   /v1/corpora                     batch submission (BatchAnalyzer)
"""

from .app import HTTPError, MiraServer, Request, Response, ServerContext
from .client import (DEFAULT_URL, ClientConnectionError, HTTPStatusError,
                     MiraClient, ServeResponse)
from .registry import DEFAULT_CAPACITY, ModelRegistry, RegistryEntry

__all__ = [
    "DEFAULT_CAPACITY", "DEFAULT_URL", "ClientConnectionError",
    "HTTPError", "HTTPStatusError", "MiraClient", "MiraServer",
    "ModelRegistry", "RegistryEntry", "Request", "Response",
    "ServeResponse", "ServerContext",
]
