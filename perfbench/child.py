"""Run one mswecg CLI command as a benchmark operation.

    python3 perfbench/child.py --record OUT.json [--trace] --run-id ID -- <mswecg args>

The command runs through ``mswecg.cli.main`` in this fresh process, with
mswecg imported from ``PYTHONPATH``.  Untraced, the only wrappers stamp the
first forward pass (the end of set-up) and note how many records each
``evaluate`` call saw.  With ``--trace``, every hook in ``tracer.py`` records
spans.  The record written at exit carries the timestamps (the
``time.monotonic`` clock, shared with the parent), the exit code, the peak
RSS, counters and spans.  The exit code is the command's.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time

import tracer


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--record", required=True)
    parser.add_argument("--run-id", required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("command", nargs=argparse.REMAINDER)
    args = parser.parse_args()
    argv = args.command[1:] if args.command[:1] == ["--"] else args.command

    import mswecg.cli as cli  # imports every module the CLI uses

    tr = tracer.Tracer(args.run_id, record_spans=args.trace)
    tracer.install(tr, tracer.TRACED_HOOKS if args.trace else tracer.UNTRACED_HOOKS)
    rc = 1
    try:
        rc = cli.main(argv)
    finally:
        usage = resource.getrusage(resource.RUSAGE_SELF)
        record = {
            "rc": rc,
            "first_forward": tr.first_forward,
            "main_end": time.monotonic(),
            "maxrss_mb": usage.ru_maxrss / 1024,
            "cpu_s": usage.ru_utime + usage.ru_stime,
            "evaluate_records": tr.evaluate_records,
            "counters": tr.counters,
            "absent": tr.absent,
            "spans": tr.spans,
        }
        with open(args.record, "w") as fh:
            json.dump(record, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main())
