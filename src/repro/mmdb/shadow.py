"""Shadow-copy update buffers (paper Section 2.6).

Transactions never update the database in place while running.  Updates
accumulate in a transaction-local :class:`ShadowBuffer`; at commit they are
installed by overwriting the old record versions.  Because old versions
are not overwritten until a positive commit decision, REDO-only logging
suffices -- there is nothing to undo after a crash.
"""

from __future__ import annotations

from struct import pack
from typing import Dict, Iterator, Optional, Tuple

from ..errors import InvalidStateError


class ShadowBuffer:
    """Transaction-local staging area for record updates."""

    def __init__(self) -> None:
        self._updates: Dict[int, int] = {}
        self._installed = False

    def stage(self, record_id: int, value: int) -> None:
        """Buffer an update to ``record_id`` (later writes win)."""
        if self._installed:
            raise InvalidStateError("shadow buffer already installed")
        self._updates[record_id] = value

    def staged_value(self, record_id: int) -> int | None:
        """The buffered value for ``record_id``, or None if unbuffered.

        Transactions read their own writes: the transaction manager
        consults the shadow buffer before the database proper.
        """
        return self._updates.get(record_id)

    @property
    def record_ids(self) -> Tuple[int, ...]:
        """Updated record ids, in insertion order."""
        return tuple(self._updates)

    def __len__(self) -> int:
        return len(self._updates)

    def __iter__(self) -> Iterator[Tuple[int, int]]:
        return iter(self._updates.items())

    def columns(self, n: Optional[int] = None) -> Tuple[bytes, bytes]:
        """The first ``n`` buffered updates (all by default), in insertion
        order, as two little-endian int64 columns: record ids, values --
        what :meth:`~repro.wal.log.LogManager.append_update_run` logs."""
        record_ids = list(self._updates)[:n]
        values = list(self._updates.values())[:n]
        layout = f"<{len(record_ids)}q"
        return pack(layout, *record_ids), pack(layout, *values)

    def mark_installed(self) -> None:
        """Seal the buffer once its contents hit the database at commit."""
        if self._installed:
            raise InvalidStateError("shadow buffer already installed")
        self._installed = True

    @property
    def installed(self) -> bool:
        return self._installed
