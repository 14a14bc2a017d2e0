"""The sweep runner's two guarantees: determinism and failure isolation.

The guarantees under test (docs/SWEEPS.md):

* a parallel run produces cells equal to a serial run of the same spec
  -- seeds derive from point identity, never from execution order;
* a point that raises is reported as a failed cell, without tearing
  down the rest of the sweep.
"""

from __future__ import annotations

import pytest

from repro.errors import SweepError
from repro.experiments import validation
from repro.sweep import SweepRunner, SweepSpec, canonical, derive_seed
from repro.params import PAPER_DEFAULTS


# ----------------------------------------------------------------------
# module-level point functions (must be picklable for the process pool)
# ----------------------------------------------------------------------

def add(x, y):
    return x + y


def seeded(label, seed):
    return (label, seed)


def fail_on(x, bad):
    if x == bad:
        raise ValueError(f"poisoned point {x}")
    return x * 10


class TestSeedDerivation:
    def test_deterministic(self):
        a = derive_seed(42, (("algorithm", "COUCOPY"),), 3)
        b = derive_seed(42, (("algorithm", "COUCOPY"),), 3)
        assert a == b

    def test_sensitive_to_every_input(self):
        base = derive_seed(42, (("algorithm", "COUCOPY"),), 3)
        assert derive_seed(43, (("algorithm", "COUCOPY"),), 3) != base
        assert derive_seed(42, (("algorithm", "2CCOPY"),), 3) != base
        assert derive_seed(42, (("algorithm", "COUCOPY"),), 4) != base

    def test_fits_in_63_bits(self):
        for rep in range(20):
            seed = derive_seed(0, (("x", rep),), rep)
            assert 0 <= seed < 2 ** 63


class TestCanonical:
    def test_distinguishes_types(self):
        assert canonical(1) != canonical(1.0)
        assert canonical("1") != canonical(1)
        assert canonical(True) != canonical(1)

    def test_mapping_order_irrelevant(self):
        assert canonical({"a": 1, "b": 2}) == canonical({"b": 2, "a": 1})

    def test_dataclass_stable(self):
        assert canonical(PAPER_DEFAULTS) == canonical(PAPER_DEFAULTS)
        changed = PAPER_DEFAULTS.replace(lam=999.0)
        assert canonical(changed) != canonical(PAPER_DEFAULTS)


class TestSweepSpec:
    def test_grid_enumeration(self):
        spec = SweepSpec.from_grid(add, {"x": [1, 2], "y": [10, 20]})
        assert len(spec) == 4
        kwargs = [pt.call_kwargs() for pt in spec.points()]
        assert {"x": 1, "y": 10} in kwargs and {"x": 2, "y": 20} in kwargs

    def test_replicates_require_seed_arg(self):
        with pytest.raises(Exception):
            SweepSpec.from_grid(add, {"x": [1]}, replicates=3)

    def test_replicate_seeds_distinct(self):
        spec = SweepSpec.from_points(
            seeded, [{"label": "a"}], replicates=4, seed_arg="seed")
        seeds = [pt.seed for pt in spec.points()]
        assert len(set(seeds)) == 4


class TestDeterminism:
    """Acceptance: workers=4 byte-identical to workers=1."""

    def test_parallel_identical_to_serial(self):
        spec = SweepSpec.from_grid(
            seeded, {"label": ["a", "b", "c"]},
            replicates=2, seed_arg="seed")
        serial = SweepRunner(workers=1).run(spec)
        parallel = SweepRunner(workers=4).run(spec)
        assert serial.cells == parallel.cells
        assert repr(serial.cells) == repr(parallel.cells)

    def test_validation_grid_parallel_identical(self):
        kwargs = dict(duration=0.6, warmup=0.3,
                      algorithms=("FUZZYCOPY", "COUCOPY"))
        serial = validation.run_validation_suite(workers=1, **kwargs)
        parallel = validation.run_validation_suite(workers=4, **kwargs)
        assert serial == parallel

    def test_cells_in_spec_order_not_completion_order(self):
        spec = SweepSpec.from_grid(add, {"x": [3, 1, 2]}, fixed={"y": 0})
        result = SweepRunner(workers=4).run(spec)
        assert result.values() == [3, 1, 2]


class TestRobustness:
    def test_failed_point_reported_not_fatal(self):
        spec = SweepSpec.from_grid(fail_on, {"x": [1, 2, 3]},
                                   fixed={"bad": 2})
        result = SweepRunner(workers=4).run(spec)
        ok = [cell for cell in result.cells if cell.ok]
        bad = result.failures()
        assert [cell.value for cell in ok] == [10, 30]
        assert len(bad) == 1
        assert "poisoned point 2" in bad[0].error
        with pytest.raises(SweepError):
            result.raise_failures()


class TestAggregation:
    def test_select(self):
        spec = SweepSpec.from_grid(add, {"x": [1, 2], "y": [5]})
        result = SweepRunner(workers=1).run(spec)
        assert [c.value for c in result.select(x=2)] == [7]
