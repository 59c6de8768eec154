"""Run one `fracflow` CLI command under the tracer; used by traced cli runs.

    python perfbench/cli_child.py AGG_OUT.json <fracflow arguments>

Behaves like `python -m fracflow.cli <arguments>` (same stdout, stderr, files
and exit code) and also writes the tracer's aggregate for the command, plus
the count of UserWarnings it emitted, to AGG_OUT.json.  fracflow must be
importable (the runner puts the checkout's src/ on PYTHONPATH).
"""

import json
import sys
import warnings

import fracflow.cli

from spans import Tracer


def main() -> int:
    out, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    emitted = []
    show = warnings.showwarning

    def count_and_show(message, category, *rest):
        if issubclass(category, UserWarning):
            emitted.append(category)
        show(message, category, *rest)

    warnings.showwarning = count_and_show
    since = tracer.mark()
    tracer.install()
    try:
        code = fracflow.cli.main(argv)
    finally:
        tracer.uninstall()
    agg = tracer.aggregate(since)
    agg["counters"]["flux.multi_root_warnings"] = len(emitted)
    with open(out, "w", encoding="utf-8") as fh:
        json.dump(agg, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
