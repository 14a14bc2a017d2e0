"""System and load model parameters (paper Section 2, Tables 2a-2d).

The paper characterises the whole system with a small set of parameters:

* **Table 2a** -- basic CPU operation costs, in instructions:
  ``C_lock`` (lock/unlock), ``C_alloc`` (buffer (de)allocation), ``C_io``
  (initiating one disk I/O), ``C_lsn`` (checking or maintaining a log
  sequence number).  Data movement additionally costs one instruction per
  word moved.
* **Table 2b** -- disk model: a disk transfers ``d`` words in
  ``T_seek + T_trans * d`` seconds, and ``N_bdisks`` disks serve the backup
  (and log) traffic with linearly scaling aggregate bandwidth.
* **Table 2c** -- database: ``S_db`` words, grouped into records of
  ``S_rec`` words; records are grouped into segments of ``S_seg`` words,
  the unit of transfer to the backup disks.
* **Table 2d** -- load: ``lam`` transactions/second arrive, each updating
  ``N_ru`` distinct records chosen uniformly, and each costing ``C_trans``
  instructions exclusive of recovery costs.

:class:`SystemParameters` holds all of them (with the paper's defaults),
validates consistency, and exposes the derived quantities that the
analytic model and the simulator share (segment count, per-segment update
rate, segment I/O time, aggregate bandwidth, ...).

A few *extension* parameters have no counterpart in the paper's tables but
are needed to make the model fully explicit; each is documented where it
is declared and its default is chosen so the paper's qualitative results
are insensitive to it (``python -m repro ablations`` varies them).
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

from .errors import ConfigurationError
from .units import MEGAWORD

#: Instructions charged per word moved within primary memory (Section 2.1).
INSTRUCTIONS_PER_WORD_MOVED = 1.0


@dataclass(frozen=True)
class SystemParameters:
    """All model parameters, with the paper's default values.

    Instances are immutable; use :meth:`replace` to derive variants, as the
    experiment sweeps do.  All derived quantities are exposed as
    properties so a variant automatically recomputes them.
    """

    # --- Table 2a: basic operation costs (instructions) ------------------
    c_lock: float = 20.0
    """(Un)locking overhead, instructions per lock or unlock operation."""

    c_alloc: float = 100.0
    """Buffer (de)allocation overhead, instructions per operation."""

    c_io: float = 1000.0
    """Processor cost of initiating one disk I/O (DMA: size-independent)."""

    c_lsn: float = 20.0
    """Cost of maintaining or checking one log sequence number."""

    # --- Table 2b: disk model --------------------------------------------
    t_seek: float = 0.03
    """I/O delay (seek + rotational) time per request, seconds."""

    t_trans: float = 3e-6
    """Transfer time, seconds per word."""

    n_bdisks: int = 20
    """Number of backup disks; aggregate bandwidth scales linearly."""

    # --- Table 2c: database ----------------------------------------------
    s_db: int = 256 * MEGAWORD
    """Database size in words (default 256 Mwords = 1 GB at 4 B/word)."""

    s_rec: int = 32
    """Record size in words (the granule of the transaction interface)."""

    s_seg: int = 8192
    """Segment size in words (the granule of transfer to the backup disks)."""

    # --- Table 2d: transactions ------------------------------------------
    lam: float = 1000.0
    """Transaction arrival rate, transactions per second."""

    n_ru: int = 5
    """Distinct records updated per transaction (uniformly distributed)."""

    c_trans: float = 25000.0
    """Processor cost of one transaction, exclusive of recovery costs."""

    # --- extension parameters (not in the paper's tables) ----------------
    c_dirty_check: float = 5.0
    """Instructions to test one segment's dirty bit during a partial
    checkpoint sweep.  The paper notes the overhead ("checking the dirty
    bit of every database segment") without pricing it; any few-instruction
    value leaves the results unchanged."""

    s_log_header: int = 4
    """Log-record header size in words (type, LSN, transaction id, record
    address).  A REDO record for one record update therefore occupies
    ``s_rec + s_log_header`` words."""

    s_log_commit: int = 8
    """Words occupied by a transaction's begin+commit bookkeeping records."""

    stable_log_tail: bool = False
    """Whether stable RAM holds the in-memory log tail (Section 4, Fig 4e).
    When true, LSN synchronisation between checkpointer and log is not
    needed and the straightforward FASTFUZZY algorithm becomes safe."""

    log_bulk_restart_fraction: float = 1.0
    """Fraction of a transaction's log bulk that an aborted (two-color) run
    still contributes to the log.  The paper states aborted transactions add
    log bulk; 1.0 charges a full transaction's worth per rerun."""

    def __post_init__(self) -> None:
        self._validate()

    # ------------------------------------------------------------------
    # validation
    # ------------------------------------------------------------------
    def _validate(self) -> None:
        positive = {
            "c_lock": self.c_lock,
            "c_alloc": self.c_alloc,
            "c_io": self.c_io,
            "c_lsn": self.c_lsn,
            "t_seek": self.t_seek,
            "t_trans": self.t_trans,
            "n_bdisks": self.n_bdisks,
            "s_db": self.s_db,
            "s_rec": self.s_rec,
            "s_seg": self.s_seg,
            "lam": self.lam,
            "n_ru": self.n_ru,
            "c_trans": self.c_trans,
        }
        for name, value in positive.items():
            if value <= 0:
                raise ConfigurationError(f"{name} must be positive, got {value!r}")
        non_negative = {
            "c_dirty_check": self.c_dirty_check,
            "s_log_header": self.s_log_header,
            "s_log_commit": self.s_log_commit,
            "log_bulk_restart_fraction": self.log_bulk_restart_fraction,
        }
        for name, value in non_negative.items():
            if value < 0:
                raise ConfigurationError(f"{name} must be >= 0, got {value!r}")
        if self.s_seg % self.s_rec != 0:
            raise ConfigurationError(
                f"segment size ({self.s_seg}) must be a multiple of record "
                f"size ({self.s_rec}); Section 2.4 requires it"
            )
        if self.s_db % self.s_seg != 0:
            raise ConfigurationError(
                f"database size ({self.s_db}) must be a multiple of segment "
                f"size ({self.s_seg}) so segments tile the database"
            )
        if self.n_ru > self.n_records:
            raise ConfigurationError(
                "a transaction cannot update more distinct records "
                f"({self.n_ru}) than the database holds ({self.n_records})"
            )

    # ------------------------------------------------------------------
    # derived quantities
    # ------------------------------------------------------------------
    @property
    def n_segments(self) -> int:
        """Number of segments in the database (``S_db / S_seg``)."""
        return self.s_db // self.s_seg

    @property
    def n_records(self) -> int:
        """Number of records in the database (``S_db / S_rec``)."""
        return self.s_db // self.s_rec

    @property
    def records_per_segment(self) -> int:
        """Records per segment (``S_seg / S_rec``)."""
        return self.s_seg // self.s_rec

    @property
    def record_update_rate(self) -> float:
        """Record updates per second across the database (``lam * N_ru``)."""
        return self.lam * self.n_ru

    @property
    def segment_update_rate(self) -> float:
        """Update arrival rate *per segment*, updates/second.

        With uniform record selection every segment receives
        ``lam * N_ru / n_segments`` updates per second.  This is the ``u``
        appearing in the dirtying and copy-on-update formulas.
        """
        return self.record_update_rate / self.n_segments

    @property
    def segment_io_time(self) -> float:
        """Seconds for one disk to write or read one segment."""
        return self.t_seek + self.t_trans * self.s_seg

    @property
    def segment_io_rate(self) -> float:
        """Aggregate segment transfers per second across all backup disks."""
        return self.n_bdisks / self.segment_io_time

    @property
    def log_words_per_txn(self) -> float:
        """Log volume per committed transaction, in words (REDO-only).

        One REDO record (new value + header) per updated record, plus the
        begin/commit bookkeeping records.
        """
        return self.n_ru * (self.s_rec + self.s_log_header) + self.s_log_commit

    @property
    def log_write_rate(self) -> float:
        """Log words generated per second by committed transactions."""
        return self.lam * self.log_words_per_txn

    @property
    def full_checkpoint_time(self) -> float:
        """Seconds to flush every segment once through the disk array.

        This is the minimum duration of a *full* checkpoint, and the upper
        bound for partial ones.
        """
        return self.n_segments * self.segment_io_time / self.n_bdisks

    @property
    def backup_read_time(self) -> float:
        """Seconds to read one complete backup image into primary memory.

        Uses the same per-segment seek+transfer model as checkpoint writes;
        recovery reads are at least as sequential, so this is conservative.
        """
        return self.full_checkpoint_time

    def expected_dirty_segments(self, interval: float) -> float:
        """Expected number of distinct segments dirtied in ``interval`` seconds.

        Each of the ``lam * N_ru * interval`` record updates independently
        lands in a uniformly chosen segment, so a given segment stays clean
        with probability ``exp(-u * interval)`` (Poisson arrivals at the
        per-segment rate ``u``).
        """
        if interval < 0:
            raise ConfigurationError(f"interval must be >= 0, got {interval!r}")
        u = self.segment_update_rate
        return self.n_segments * -math.expm1(-u * interval)

    # ------------------------------------------------------------------
    # convenience constructors
    # ------------------------------------------------------------------
    def replace(self, **changes: object) -> "SystemParameters":
        """Return a copy with ``changes`` applied (re-validated)."""
        return dataclasses.replace(self, **changes)

    @classmethod
    def paper_defaults(cls) -> "SystemParameters":
        """The exact defaults of Tables 2a-2d."""
        return cls()

    @classmethod
    def scaled_down(
        cls,
        scale: int = 256,
        *,
        lam: float | None = None,
        **overrides: object,
    ) -> "SystemParameters":
        """Defaults shrunk by ``scale`` for simulation runs.

        The 256 Mword database of Table 2c is impractical to materialise in
        a Python process; dividing ``S_db`` by ``scale`` while keeping
        record and segment sizes preserves every *ratio* the model depends
        on (records per segment, per-segment update rate if ``lam`` is
        scaled in proportion, checkpoint duration, ...).  By default the
        arrival rate is scaled by the same factor so the per-segment update
        rate matches the paper's configuration.
        """
        if scale < 1:
            raise ConfigurationError(f"scale must be >= 1, got {scale!r}")
        base = cls()
        if base.s_db % (scale * base.s_seg) != 0:
            raise ConfigurationError(
                f"scale {scale} does not divide the database into whole segments"
            )
        scaled_lam = base.lam / scale if lam is None else lam
        return base.replace(s_db=base.s_db // scale, lam=scaled_lam, **overrides)


#: Module-level singleton with the paper's defaults, for convenience.
PAPER_DEFAULTS = SystemParameters()
