"""Traced stand-in for ``python -m diqkd_bounds.cli``.

Usage: python bench/child.py TRACE_FILE CLI_ARGS...

Times ``import diqkd_bounds.cli`` in this fresh interpreter, installs the
benchmark's span wrappers, runs ``cli.main(CLI_ARGS)`` and writes the span
totals and the import time to TRACE_FILE, also when ``cli.main`` raises,
whose traceback and exit status then match the real entry point's.
"""

import json
import sys
import time

t0 = time.perf_counter()
from diqkd_bounds import cli  # noqa: E402

import_ms = (time.perf_counter() - t0) * 1e3

from spans import Tracer  # noqa: E402


def main(trace_file: str, argv: list[str]) -> int:
    tracer = Tracer()
    tracer.install()
    try:
        return cli.main(argv)
    finally:
        tracer.restore()
        with open(trace_file, "w") as fh:
            json.dump({"import_ms": import_ms, "totals": tracer.totals(),
                       "spans": tracer.spans}, fh)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], sys.argv[2:]))
