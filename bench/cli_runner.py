"""Traced stand-in for the ``kmjm`` command.

    python3 bench/cli_runner.py SPANS_FILE ARGS...

Imports kmjm's CLI (timing the import), installs the tracing wrappers, calls
``kmjm.cli.main(ARGS)`` and writes the spans to SPANS_FILE when it returns.
Standard output, standard error and the exit code are the CLI's own.
"""

import sys
import time


def main() -> int:
    spans_file, args = sys.argv[1], sys.argv[2:]
    t0 = time.perf_counter()
    import kmjm.cli

    import_s = time.perf_counter() - t0
    from tracer import Tracer, install

    tracer = Tracer()
    tracer.import_s = import_s
    install(tracer)
    try:
        return kmjm.cli.main(args)
    finally:
        tracer.write(spans_file)


if __name__ == "__main__":
    sys.exit(main())
