"""What load a simulation run sees.

* :mod:`repro.workload.spec` -- the declarative
  :class:`~repro.workload.spec.WorkloadSpec` (record-selection skew,
  transaction-size mixture, arrival discipline), strictly dict/JSON
  round-trippable;
* :mod:`repro.workload.replay` -- the engine-free replay of a seeded
  arrival stream, the reference the arrivals golden pins.

The generator that turns a spec into transactions is
:class:`repro.txn.workload.WorkloadGenerator`.
"""

from __future__ import annotations

from .spec import AccessDistribution, WorkloadSpec

__all__ = ["AccessDistribution", "WorkloadSpec"]
