"""Run one traced ``qtetra`` command in-process and write its spans.

    python3 perfbench/cli_child.py SPANS_PATH COMMAND [ARGS...]

Installs the span wrappers, calls ``qtetra.cli.main(argv)`` with tracing on,
writes the spans as one JSON list to SPANS_PATH and exits with main's code.
"""

import json
import sys

import tracing


def main() -> int:
    spans_path, argv = sys.argv[1], sys.argv[2:]
    import qtetra.cli

    tracer = tracing.Tracer()
    tracing.install(tracer)
    tracer.enabled = True
    try:
        code = qtetra.cli.main(argv)
    finally:
        tracer.enabled = False
        with open(spans_path, "w", encoding="utf-8") as handle:
            json.dump(tracer.spans, handle)
    return code


if __name__ == "__main__":
    sys.exit(main())
