"""Run ``reg-cluster serve`` with the benchmark's span wrappers installed.

Usage: ``python launcher.py SPANS_OUT serve [serve options...]``

The wrappers (:data:`spans.TARGETS`) are installed before the daemon
starts serving.  Spans stay in memory and are written to ``SPANS_OUT``
when the daemon shuts down (SIGINT).  Forked pool workers stop
recording: their spans could not reach the parent anyway.
"""

from __future__ import annotations

import os
import sys

from spans import SpanRecorder, dump, install


def main(argv: list) -> int:
    out, serve_argv = argv[0], argv[1:]
    recorder = SpanRecorder()
    missing = install(recorder)

    def stop_recording() -> None:
        recorder.enabled = False

    os.register_at_fork(after_in_child=stop_recording)
    from repro.cli import main as cli_main

    try:
        return cli_main(serve_argv)
    finally:
        dump(recorder, missing, out)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
