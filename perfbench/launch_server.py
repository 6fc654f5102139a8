"""``python -m repro serve`` with the speed probe or the layer wrappers.

Usage (from the repository root, ``src`` on ``PYTHONPATH``)::

    python perfbench/launch_server.py probe PROBE.json serve TRIPLES [flags]
    python perfbench/launch_server.py spans SUMMARY.json serve TRIPLES [flags]

Runs the CLI exactly as ``python -m repro`` would, and writes its file
once, when the server has drained and exited (SIGTERM):

* ``probe`` runs the speed probe of ``speed.py`` in the server's main
  thread from start-up until the server begins to shut down, and writes
  the probe samples, so the client can scale the server's share of each
  request to the nominal speed;
* ``spans`` installs the layer wrappers of ``spans.py`` and writes the
  span totals and each tenant session's cache statistics.
"""

from __future__ import annotations

import json
import sys

import spans
from speed import Probe


def serve_probed(path: str, cli_args) -> int:
    probe = Probe().start()
    from repro.__main__ import main as repro_main
    from repro.service.server import ServiceServer

    original = ServiceServer.shutdown_async

    async def shutdown_async(self, *args, **kwargs):
        # The event loop closes its signal wake-up pipe when it closes,
        # before it drops its signal handlers; a SIGALRM in between
        # would write to the closed pipe.
        probe.stop()
        return await original(self, *args, **kwargs)

    ServiceServer.shutdown_async = shutdown_async
    try:
        code = repro_main(cli_args)
    finally:
        probe.stop()
        ServiceServer.shutdown_async = original
    probe.dump(path)
    return code


def serve_traced(summary: str, cli_args) -> int:
    from repro.__main__ import main as repro_main
    from repro.service.server import ServiceServer

    servers = []
    original_init = ServiceServer.__init__

    def capture(self, *args, **kwargs):
        original_init(self, *args, **kwargs)
        servers.append(self)

    ServiceServer.__init__ = capture
    recorder = spans.install()
    try:
        code = repro_main(cli_args)
    finally:
        recorder.restore()
        ServiceServer.__init__ = original_init
    stats = []
    for server in servers:
        for session in server.sessions.values():
            full = session.stats()
            stats.append({key: full[key] for key in
                          ("result_cache", "parse_cache", "plan_cache")})
    with open(summary, "w") as handle:
        json.dump({"raw": spans.aggregate(recorder.spans), "stats": stats}, handle)
    return code


def main(argv) -> int:
    mode, path, cli_args = argv[0], argv[1], argv[2:]
    return (serve_probed if mode == "probe" else serve_traced)(path, cli_args)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
