"""Run ``vortexmoduli <command> ...`` with the layer tracer installed.

    python3 perfbench/traced_cli.py SPANS_PATH report demos/models/x.json

Behaves like the CLI (same stdout, same exit code) and writes the spans
of the run, with the pi-enclosure digits reached, to SPANS_PATH.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import tracer  # noqa: E402
from vortexmoduli import cli, scalars  # noqa: E402


def main() -> int:
    spans_path, argv = sys.argv[1], sys.argv[2:]
    recorder = tracer.Tracer()
    recorder.install()
    try:
        code = cli.main(argv)
    finally:
        recorder.uninstall()
    recorder.write(spans_path, pi_max_digits=scalars._enclosure_cache[0])
    return code


if __name__ == "__main__":
    sys.exit(main())
