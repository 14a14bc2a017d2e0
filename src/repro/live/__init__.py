"""The live host: the same kernel on the wall clock, with real durability.

Everything in :mod:`repro.sim` models time; everything here *spends* it.
The package provides the second implementation of the host-adapter ports
declared in :mod:`repro.sim.ports`:

* :class:`~repro.live.clock.WallClock` -- ``ClockPort`` over
  ``time.monotonic()``;
* :class:`~repro.live.scheduler.LiveScheduler` -- ``SchedulerPort`` as a
  single dispatcher thread, preserving the event engine's one-callback-
  at-a-time execution model so kernel components need no locks; its
  ``select`` loop also serves the server's sockets;
* :class:`~repro.live.files.Files` -- the one door to the filesystem:
  every file operation of the package, and so its sync-before-ack and
  atomic-replace disciplines, is written there once;
* :class:`~repro.live.wal.DurableLog` -- the simulator's
  :class:`~repro.wal.log.LogManager` with a real append-only file behind
  ``flush()`` (group-commit fsync) and atomic truncation;
* :class:`~repro.live.store.ImageStore` -- checkpoint images installed
  by :meth:`Files.replace <repro.live.files.Files.replace>`;
* :class:`~repro.live.host.LiveHost` -- the assembled service: database,
  durable WAL, checkpoint scheduler, spans, a check against its files;
* :class:`~repro.live.server.serve` -- a get/put socket server over the
  host, with no thread of its own (``repro serve``), and :func:`~repro.live.server.check`, the
  restart + crash-consistency verdict (``repro serve --check``).

Load, latency and restart time are measured from outside the package by
``benchmarks/ckptbench``; the SIGKILL-mid-checkpoint loop is
``pytest -m livesmoke``.

The layering rule runs the other way from the usual one: ``repro.live``
may import the kernel, but no ``repro.sim`` engine module may import
``time``, ``threading``, or anything from this package
(``scripts/check_layering.py`` enforces both directions, and that no
module here but ``files`` touches the filesystem).
"""

from .clock import WallClock
from .scheduler import LiveScheduler

__all__ = ["LiveScheduler", "WallClock"]
