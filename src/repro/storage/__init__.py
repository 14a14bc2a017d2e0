"""Secondary storage: disks, the striped backup array, ping-pong images.

Disks follow the paper's Table 2b model: a request for ``d`` words takes
``T_seek + T_trans * d`` seconds, and aggregate bandwidth scales linearly
with the number of disks (Section 2.2 explicitly assumes no bus
contention).  The backup store keeps **two** complete database images and
alternates checkpoints between them (the ping-pong scheme of Section 2.6),
so a crash in the middle of a checkpoint always leaves one complete,
uncorrupted image to recover from.
"""

from .archive import ArchivedCheckpoint, ArchiveManager, TapeDevice
from .array import DiskArray, SimulatedImageWriter
from .backup import BackupImage, BackupStore
from .disk import Disk

__all__ = [
    "ArchivedCheckpoint",
    "ArchiveManager",
    "BackupImage",
    "BackupStore",
    "Disk",
    "DiskArray",
    "SimulatedImageWriter",
    "TapeDevice",
]
