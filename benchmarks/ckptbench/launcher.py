"""The benchmark's server launcher: ``serve(...)`` in a process of its own.

The load generator must not share an interpreter lock with the server,
so each live workload starts this file as a subprocess.  It calls
:func:`repro.live.server.serve` exactly as ``repro serve`` does, with
two differences the CLI does not offer: ``spans=False`` (the host's own
span recorder is not part of any measurement) and, with
``--trace-out``, the layer wrappers of :mod:`tracing` installed before
the host is built and the spans written once ``serve`` returns.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
REPO_ROOT = HERE.parent.parent

#: the flush policy of every live workload, stated once
FLUSH_INTERVAL = 0.005
FSYNC = True


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--data-dir", required=True)
    parser.add_argument("--scale", type=int, required=True)
    parser.add_argument("--checkpoint-interval", type=float, default=None)
    parser.add_argument("--trace-out", default=None)
    parser.add_argument("--spawned-at", type=float, default=None,
                        help="parent's time.monotonic() at spawn")
    args = parser.parse_args(argv)

    sys.path.insert(0, str(REPO_ROOT / "src"))
    sys.path.insert(0, str(HERE))
    from repro.live.server import serve

    tracer = None
    if args.trace_out:
        from tracing import Tracer, now, trace_live_layers
        tracer = Tracer()
        if args.spawned_at is not None:
            # interpreter start + imports: restart time nobody's code spends
            tracer.spans.append({"id": 0, "name": "proc.boot",
                                 "start": args.spawned_at, "end": now(),
                                 "parent": None, "request": None})
        trace_live_layers(tracer)
    try:
        return serve(args.data_dir, 0, scale=args.scale,
                     checkpoint_interval=args.checkpoint_interval,
                     flush_interval=FLUSH_INTERVAL, fsync=FSYNC, spans=False)
    finally:
        if tracer is not None:
            tracer.unwrap_all()
            tracer.write(args.trace_out)


if __name__ == "__main__":
    raise SystemExit(main())
