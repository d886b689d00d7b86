"""A zero-dependency ops endpoint over ``http.server``.

:class:`OpsServer` wraps a :class:`repro.obs.monitor.Monitor` (and through
it any ``RoutingService`` or ``ClusterRoutingService``) in a tiny threaded
HTTP daemon:

==============  ==============================================================
``/healthz``    live health verdict; **200** only when ``ok``, **503** when
                degraded/failing (load balancers need the status code, not
                the body)
``/metrics``    live ``stats()`` in Prometheus text format (PR-6 exporter,
                with counter/histogram typing)
``/slo``        per-spec burn rates and firing state
``/alerts``     active alerts + the bounded fire/resolve event journal
``/traces``     trace-journal counters + the retained slowest exemplars
``/stats``      the raw ``stats()`` snapshot as JSON
==============  ==============================================================

Everything is served from the live objects — no files, no sockets beyond
the listener, no dependencies beyond the standard library.  Runnable
standalone against any checkpoint::

    python -m repro.obs.httpd --checkpoint ckpt/ --port 8321
    python -m repro.obs.httpd --cluster-checkpoint cluster/ --port 8321
    curl -s localhost:8321/healthz | python -m json.tool
"""

from __future__ import annotations

import argparse
import json
import sys
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

from repro.obs.export import to_prometheus
from repro.obs.monitor import Monitor


class OpsServer:
    """The ops HTTP daemon for one monitor; bind with port 0 for ephemeral."""

    def __init__(self, monitor: Monitor, host: str = "127.0.0.1",
                 port: int = 0, prefix: str = "repro") -> None:
        self.monitor = monitor
        handler = _make_handler(monitor, prefix)
        self._server = ThreadingHTTPServer((host, port), handler)
        self._server.daemon_threads = True
        self._thread: threading.Thread | None = None

    @property
    def host(self) -> str:
        return self._server.server_address[0]

    @property
    def port(self) -> int:
        return self._server.server_address[1]

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    def start(self) -> "OpsServer":
        if self._thread is None or not self._thread.is_alive():
            self._thread = threading.Thread(target=self._server.serve_forever,
                                            name="repro-obs-httpd", daemon=True)
            self._thread.start()
        return self

    def close(self) -> None:
        """Stop accepting, close the listener, and join the serve thread."""
        self._server.shutdown()
        self._server.server_close()
        thread, self._thread = self._thread, None
        if thread is not None:
            thread.join(timeout=10.0)

    def __enter__(self) -> "OpsServer":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


def _make_handler(monitor: Monitor, prefix: str):
    class OpsHandler(BaseHTTPRequestHandler):
        #: Our close() joins threads; hanging on a slow peer would wedge it.
        timeout = 30

        def log_message(self, format: str, *args) -> None:  # noqa: A002
            pass  # an ops endpoint polled every few seconds must stay quiet

        def _send(self, code: int, body: bytes, content_type: str) -> None:
            self.send_response(code)
            self.send_header("Content-Type", content_type)
            self.send_header("Content-Length", str(len(body)))
            self.end_headers()
            self.wfile.write(body)

        def _send_json(self, code: int, payload) -> None:
            body = json.dumps(payload, indent=2, sort_keys=True,
                              default=str).encode("utf-8")
            self._send(code, body, "application/json")

        def do_GET(self) -> None:  # noqa: N802 - http.server's casing
            path = self.path.split("?", 1)[0].rstrip("/") or "/"
            try:
                if path == "/healthz":
                    report = monitor.check_now()
                    self._send_json(200 if report.is_ok else 503,
                                    report.to_dict())
                elif path == "/metrics":
                    text = to_prometheus(monitor.service_stats(), prefix=prefix)
                    self._send(200, text.encode("utf-8"),
                               "text/plain; version=0.0.4")
                elif path == "/slo":
                    self._send_json(200, {"specs": monitor.engine.status(),
                                          "monitor": monitor.summary()})
                elif path == "/alerts":
                    self._send_json(200, {"active": monitor.journal.active(),
                                          "events": monitor.journal.events(),
                                          "stats": monitor.journal.stats()})
                elif path == "/traces":
                    journal = monitor.service.tracer.journal
                    self._send_json(200, {"stats": journal.stats(),
                                          "slowest": journal.slowest()})
                elif path == "/stats":
                    self._send_json(200, monitor.service_stats())
                elif path == "/":
                    self._send_json(200, {"endpoints": [
                        "/healthz", "/metrics", "/slo", "/alerts",
                        "/traces", "/stats"]})
                else:
                    self._send_json(404, {"error": f"no such endpoint: {path}"})
            except BrokenPipeError:  # peer went away mid-reply; nothing to do
                pass
            except Exception as error:
                # The probe path must degrade to a 500, never kill the server.
                try:
                    self._send_json(500, {"error": f"{type(error).__name__}: "
                                                   f"{error}"})
                except OSError:
                    pass

    return OpsHandler


# -- CLI -----------------------------------------------------------------------
def _load_specs(path: str | None):
    """SLO specs from a JSON file (a list of SloSpec-kwarg dicts), or the
    defaults."""
    from repro.obs.slo import SloSpec, default_slo_specs

    if path is None:
        return default_slo_specs()
    with open(path, "r", encoding="utf-8") as handle:
        return [SloSpec(**entry) for entry in json.load(handle)]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.obs.httpd",
        description="Serve /healthz, /metrics, /slo, /alerts, /traces, and "
                    "/stats for a checkpointed routing service.")
    source = parser.add_mutually_exclusive_group(required=True)
    source.add_argument("--checkpoint", metavar="DIR",
                        help="boot a RoutingService from this router checkpoint")
    source.add_argument("--cluster-checkpoint", metavar="DIR",
                        help="boot a ClusterRoutingService from this cluster "
                             "checkpoint")
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=8321)
    parser.add_argument("--interval", type=float, default=5.0,
                        help="monitor tick interval in seconds (default 5)")
    parser.add_argument("--slo", metavar="PATH", default=None,
                        help="JSON file with a list of SloSpec fields "
                             "(default: built-in latency/error-rate specs)")
    parser.add_argument("--prefix", default="repro",
                        help="metric-name prefix for /metrics (default: repro)")
    args = parser.parse_args(argv)

    if args.checkpoint is not None:
        from repro.serving import RoutingService

        service = RoutingService.from_checkpoint(args.checkpoint)
    else:
        from repro.cluster import load_cluster

        service = load_cluster(args.cluster_checkpoint)
    monitor = Monitor(service, specs=_load_specs(args.slo),
                      interval_seconds=args.interval)
    server = OpsServer(monitor, host=args.host, port=args.port,
                       prefix=args.prefix)
    monitor.start()
    server.start()
    print(f"ops endpoint listening on {server.url} "
          f"(/healthz /metrics /slo /alerts /traces /stats)", file=sys.stderr,
          flush=True)
    try:
        threading.Event().wait()  # serve until interrupted
    except KeyboardInterrupt:
        pass
    finally:
        server.close()
        monitor.close()
        service.close()
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via subprocess
    sys.exit(main())
