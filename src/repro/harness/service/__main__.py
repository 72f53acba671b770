"""Daemon entry point: ``python -m repro.harness.service``.

The same front door as ``repro-experiments serve``: flags, backend
selection, cache directory, executor lifetime and graceful drain all come
from :func:`repro.harness.cli.main`.
"""

from __future__ import annotations

import sys

from ..cli import main as _cli_main

__all__ = ["main"]


def main(argv: list[str] | None = None) -> int:
    return _cli_main(["serve", *(sys.argv[1:] if argv is None else argv)])


if __name__ == "__main__":
    raise SystemExit(main())
