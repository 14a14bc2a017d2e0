"""Parallel parameter sweeps with deterministic seeding and caching.

The experiment drivers (``repro.experiments``) and the CLI describe
their ``(algorithm x interval x lambda x seed)`` grids as a
:class:`SweepSpec` and execute them through a :class:`SweepRunner`:

    from repro.sweep import SweepRunner, SweepSpec

    spec = SweepSpec.from_grid(
        my_point_fn,                      # module-level, picklable
        axes={"algorithm": ["COUCOPY", "2CCOPY"], "lam": [100.0, 200.0]},
        replicates=3, seed_arg="seed")
    result = SweepRunner(workers=4, cache_dir="~/.cache/repro").run(spec)

Guarantees (see ``docs/SWEEPS.md`` for details):

* parallel results are **bit-identical** to serial ones -- seeds derive
  from point identity, and cells assemble in grid order;
* with a cache directory, an unchanged point is **never recomputed** --
  keys hash the configuration *and* a fingerprint of the package source;
* a failing point is retried once, then reported as a failed
  :class:`SweepCell` -- one bad cell never kills a sweep.
"""

from .cache import (
    MISS,
    ResultCache,
    canonical,
    code_fingerprint,
    default_cache_dir,
    digest,
    point_key,
)
from .runner import SweepCell, SweepResult, SweepRunner, resolve_runner
from .spec import SweepPoint, SweepSpec, derive_seed

__all__ = [
    "MISS",
    "ResultCache",
    "SweepCell",
    "SweepPoint",
    "SweepResult",
    "SweepRunner",
    "SweepSpec",
    "canonical",
    "code_fingerprint",
    "default_cache_dir",
    "derive_seed",
    "digest",
    "point_key",
    "resolve_runner",
]
