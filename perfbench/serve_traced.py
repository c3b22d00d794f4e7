"""Run ``repro`` with the benchmark's span wrappers installed.

Usage: ``python3 perfbench/serve_traced.py SPANS.json ROLE -- <repro CLI args>``

Installs the wrappers for ROLE (see ``layers.py``), runs
``repro.cli.main`` with the remaining arguments, and writes the recorded
spans to SPANS.json when the CLI returns (``repro serve`` returns after a
SIGTERM-triggered clean shutdown).
"""

from __future__ import annotations

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import layers  # noqa: E402


def main(argv) -> int:
    spans_path, role, separator, *cli_args = argv
    if separator != "--":
        raise SystemExit("usage: serve_traced.py SPANS.json ROLE -- ARGS...")
    tracer = layers.install(role)
    from repro.cli import main as repro_main

    tracer.enabled = True
    try:
        return repro_main(cli_args)
    finally:
        tracer.enabled = False
        tracer.dump(spans_path)


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
