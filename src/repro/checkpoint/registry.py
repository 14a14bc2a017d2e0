"""The table of checkpoint algorithms, keyed by their paper names.

The six algorithms of the paper come first, in its Section 3 order;
five extensions follow:

* ``ACFLUSH`` / ``ACCOPY`` -- the action-consistent middle ground the
  paper describes but does not evaluate (Section 3.2);
* ``NAIVELOCK`` -- the lock-everything strawman of Section 3.2.1,
  implemented so its "unacceptably frequent and long lock delays" can be
  measured instead of assumed (simulation only; not in the analytic
  model);
* ``ZIGZAG`` / ``PINGPONG`` -- post-1989 dual-copy consistent-snapshot
  algorithms (Cao et al.'s comparative study), included so the paper's
  cost model extends past its own algorithm set (simulation only).

The set is closed: a new algorithm is a class in this package and a row
in :data:`ALGORITHMS`.  To run a variant without naming it here,
override :meth:`repro.sim.builder.SystemBuilder.build_checkpointer`.
"""

from __future__ import annotations

from typing import Dict, Type

from ..errors import ConfigurationError
from .action_consistent import (
    ActionConsistentCopyCheckpointer,
    ActionConsistentFlushCheckpointer,
)
from .base import BaseCheckpointer
from .consistent_snapshot import PingPongCheckpointer, ZigzagCheckpointer
from .copy_on_update import COUCopyCheckpointer, COUFlushCheckpointer
from .fuzzy import FastFuzzyCheckpointer, FuzzyCopyCheckpointer
from .naive import NaiveLockCheckpointer
from .two_color import TwoColorCopyCheckpointer, TwoColorFlushCheckpointer

_PAPER = (
    FuzzyCopyCheckpointer,
    FastFuzzyCheckpointer,
    TwoColorFlushCheckpointer,
    TwoColorCopyCheckpointer,
    COUFlushCheckpointer,
    COUCopyCheckpointer,
)
_EXTENSIONS = (
    ActionConsistentFlushCheckpointer,
    ActionConsistentCopyCheckpointer,
    NaiveLockCheckpointer,
    ZigzagCheckpointer,
    PingPongCheckpointer,
)

#: Every algorithm class by name: the paper's first, then the extensions.
ALGORITHMS: Dict[str, Type[BaseCheckpointer]] = {
    cls.name: cls for cls in _PAPER + _EXTENSIONS}

#: The paper's algorithms, in its presentation order.
ALGORITHM_NAMES = tuple(cls.name for cls in _PAPER)

#: Extensions implemented by this reproduction.
EXTENSION_NAMES = tuple(cls.name for cls in _EXTENSIONS)

#: Every algorithm, in table order.
ALL_ALGORITHM_NAMES = ALGORITHM_NAMES + EXTENSION_NAMES


def resolve_algorithm(name: str) -> Type[BaseCheckpointer]:
    """Look up a checkpointer class by name (case-insensitive)."""
    cls = ALGORITHMS.get(name.upper())
    if cls is None:
        known = ", ".join(ALL_ALGORITHM_NAMES)
        raise ConfigurationError(f"unknown algorithm {name!r}; known: {known}")
    return cls


def create_checkpointer(name: str, *args: object,
                        **kwargs: object) -> BaseCheckpointer:
    """Instantiate the named algorithm with the given substrate pieces."""
    return resolve_algorithm(name)(*args, **kwargs)


__all__ = [
    "ALGORITHMS",
    "ALGORITHM_NAMES",
    "ALL_ALGORITHM_NAMES",
    "BaseCheckpointer",
    "EXTENSION_NAMES",
    "create_checkpointer",
    "resolve_algorithm",
]
