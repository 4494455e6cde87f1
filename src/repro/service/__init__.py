"""Network service layer: framed ingestion gateway + REST over StreamHub.

This package turns the in-process streaming engine into a deployable
network service, without changing a single computed number — every
request routes through the same
:func:`repro.lomb.welch.analyze_spans_quality` choke point as the
library entry points, and the newline-JSON wire format round-trips
IEEE-754 doubles exactly, so results served over the network are
**bit-identical** to :meth:`repro.engine.Engine.analyze`.

The pieces:

* :class:`~repro.service.config.ServiceConfig` /
  :class:`~repro.service.config.TenantSpec` — immutable, fully
  JSON-round-trippable deployment description: listen address, static
  tenant tokens, one isolated :class:`~repro.engine.config.EngineConfig`
  per tenant.
* :class:`~repro.service.server.GatewayServer` — the asyncio gateway:
  one port, two protocols (framed streams and REST), per-tenant hubs
  with lazy creation and reference counting, end-to-end backpressure,
  graceful drain on shutdown.  :class:`~repro.service.server.GatewayThread`
  runs it on a background thread for synchronous callers.
* :class:`~repro.service.client.ServiceClient` — synchronous framed
  client (plus :func:`~repro.service.client.rest_analyze` /
  :func:`~repro.service.client.rest_stats` /
  :func:`~repro.service.client.rest_windows` REST helpers).
* :mod:`repro.service.wire` — the frame codec and result
  serialisation both sides share.

Quick start::

    config = ServiceConfig(listen="127.0.0.1:0")      # ephemeral port
    with GatewayThread(config) as gateway:
        client = ServiceClient(gateway.address)
        client.open("subject-1")
        client.feed(times, rr_values)
        result = client.finalize()

Or as a foreground process::

    python -m repro serve --listen 0.0.0.0:8737 --config service.json
"""

from .client import ServiceClient, rest_analyze, rest_stats, rest_windows
from .config import ServiceConfig, TenantSpec
from .server import GatewayServer, GatewayThread
from .wire import result_to_dict

__all__ = [
    "ServiceConfig",
    "TenantSpec",
    "GatewayServer",
    "GatewayThread",
    "ServiceClient",
    "rest_analyze",
    "rest_stats",
    "rest_windows",
    "result_to_dict",
]
