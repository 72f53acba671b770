"""Launch the experiment daemon for the ``service-warm`` workload.

Usage::

    python perfbench/serve.py --trace 0|1 -- <repro.harness.service args>

Runs ``repro.harness.service`` in this process until it drains (SIGTERM).
With ``--trace 1`` the layer functions are wrapped before the daemon
starts, and SIGUSR1 clears the spans recorded so far.  On exit the last
line of standard output is a JSON object with the daemon's peak RSS and,
when traced, its span aggregates.
"""

from __future__ import annotations

import argparse
import json
import signal
import sys

import tracer as tracing


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args, service_args = parser.parse_known_args(argv)
    if service_args[:1] == ["--"]:
        service_args = service_args[1:]

    from repro.harness.service.__main__ import main as serve_main

    tracer = None
    if args.trace:
        tracing.import_all()
        tracer = tracing.Tracer()
        tracer.install()

        def reset(*_) -> None:
            tracer.reset()
            print("[spans reset]", flush=True)

        signal.signal(signal.SIGUSR1, reset)
    else:
        tracing.assert_unwrapped()
    code = serve_main(service_args)
    spans = None
    if tracer is not None:
        spans = tracer.snapshot()
        tracer.uninstall()
    tracing.assert_unwrapped()
    print(json.dumps({"exit": code, "peak_rss_mb": tracing.peak_rss_mb(),
                      "spans": spans}), flush=True)
    return code


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
