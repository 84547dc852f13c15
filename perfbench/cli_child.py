"""Traced CLI child: ``python cli_child.py SPANS_JSON ARGS...``.

Imports the program (timed as the ``cli.import`` span), wraps its public
functions, runs ``fanospin.cli.main(ARGS)``, writes the spans to
SPANS_JSON and exits with main's code.  ``fanospin`` must be importable
(PYTHONPATH=src).
"""

import json
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:] = [str(ROOT)] + [p for p in sys.path
                             if Path(p or ".").resolve() != ROOT / "perfbench"]

from perfbench.tracing import Tracer  # noqa: E402


def main() -> int:
    spans_path, argv = sys.argv[1], sys.argv[2:]
    t0 = time.perf_counter()
    import fanospin.cli
    t1 = time.perf_counter()
    tracer = Tracer()
    tracer.add_span("cli.import", t0, t1)
    tracer.install()
    tracer.active = True
    try:
        return fanospin.cli.main(argv)
    finally:
        tracer.active = False
        with open(spans_path, "w", encoding="utf-8") as fh:
            json.dump(tracer.to_json(), fh)


if __name__ == "__main__":
    sys.exit(main())
