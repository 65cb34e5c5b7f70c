"""Traced service process: install the layer wrappers, then serve.

Usage (from the checkout root)::

    python perfbench/service_boot.py --trace-out SPANS.json [service args]

It is the traced counterpart of ``python -m repro.service``: the same
single server process, with every layer wrapped and each request's
``dispatch`` recorded as a ``service`` span named after its op.  The
spans are written to ``--trace-out`` when the service shuts down.
"""

from __future__ import annotations

import argparse
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import harness  # noqa: E402


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(prog="service_boot.py")
    parser.add_argument("--trace-out", required=True)
    args, service_argv = parser.parse_known_args(argv)
    harness.import_repro()
    import repro.service as service
    import tracing

    tracer = tracing.install(tracing.Tracer(f"service-{os.getpid()}"))
    original = service.JeddService.dispatch

    async def dispatch(self, request):
        with tracer.span("service", f"dispatch:{request.get('op')}"):
            return await original(self, request)

    service.JeddService.dispatch = dispatch
    try:
        service.main(service_argv)
    finally:
        service.JeddService.dispatch = original
        tracer.uninstall()
        tracer.write(args.trace_out)


if __name__ == "__main__":
    main()
