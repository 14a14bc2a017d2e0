"""Parameter sweeps: a grid of points run over worker processes.

The experiment drivers (``repro.experiments``) and ``faults --matrix``
describe their ``(algorithm x parameter x seed)`` grids as a
:class:`SweepSpec` and execute them through a :class:`SweepRunner`:

    from repro.sweep import SweepRunner, SweepSpec

    spec = SweepSpec.from_grid(
        my_point_fn,                      # module-level, picklable
        axes={"algorithm": ["COUCOPY", "2CCOPY"], "lam": [100.0, 200.0]},
        replicates=3, seed_arg="seed")
    result = SweepRunner(workers=4).run(spec)

Guarantees (see ``docs/SWEEPS.md``):

* **determinism** -- a parallel run is bit-identical to a serial one:
  seeds derive from point identity, and cells assemble in spec order;
* **failure isolation** -- a point whose worker raised (or died) runs
  once more in this process; if it fails again its cell keeps the
  formatted error, and the rest of the sweep completes.
"""

from __future__ import annotations

import dataclasses
import enum
import hashlib
import itertools
import traceback
from concurrent.futures import ProcessPoolExecutor, as_completed
from dataclasses import dataclass, field
from typing import (
    Any,
    Callable,
    Dict,
    Iterable,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

from .errors import ConfigurationError, SweepError

KwargsItems = Tuple[Tuple[str, Any], ...]


def canonical(obj: Any) -> str:
    """Render ``obj`` as a deterministic, content-addressed string.

    Dataclasses are rendered field by field (by declared order), enums
    by class and member name, mappings with sorted keys, and floats via
    ``repr`` (exact round-trip in Python 3).  Unknown types fall back to
    ``repr``, which is correct for any type whose repr is stable and
    value-determined.
    """
    if obj is None or isinstance(obj, (bool, int, float)):
        return repr(obj)
    if isinstance(obj, str):
        return "s" + repr(obj)
    if isinstance(obj, bytes):
        return "b" + repr(obj)
    if isinstance(obj, enum.Enum):
        return f"E({type(obj).__qualname__}.{obj.name})"
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        fields = ",".join(
            f"{f.name}={canonical(getattr(obj, f.name))}"
            for f in dataclasses.fields(obj))
        return f"D({type(obj).__qualname__}:{fields})"
    if isinstance(obj, (tuple, list)):
        return "T(" + ",".join(canonical(item) for item in obj) + ")"
    if isinstance(obj, (set, frozenset)):
        return "S(" + ",".join(sorted(canonical(item) for item in obj)) + ")"
    if isinstance(obj, dict):
        items = sorted(
            (canonical(key), canonical(value)) for key, value in obj.items())
        return "M(" + ",".join(f"{k}:{v}" for k, v in items) + ")"
    if callable(obj):
        return (f"F({getattr(obj, '__module__', '?')}"
                f".{getattr(obj, '__qualname__', repr(obj))})")
    return f"R({type(obj).__qualname__}:{obj!r})"


def derive_seed(base_seed: int, key: Any, replicate: int = 0) -> int:
    """A deterministic 63-bit seed for one (point, replicate) pair.

    SHA-256 over the canonical rendering of the inputs, so the same
    point always draws the same seed in any process, on any platform,
    under any execution order -- and distinct points or replicates draw
    (effectively) independent seeds.
    """
    payload = canonical((base_seed, key, replicate)).encode()
    raw = hashlib.sha256(payload).digest()
    return int.from_bytes(raw[:8], "big") & (2**63 - 1)


@dataclass(frozen=True)
class SweepPoint:
    """One unit of sweep work: a kwargs combination at one replicate."""

    index: int
    kwargs: KwargsItems
    replicate: int = 0
    seed: Optional[int] = None
    seed_arg: Optional[str] = None

    def call_kwargs(self) -> Dict[str, Any]:
        """The keyword arguments the point function is invoked with."""
        out = dict(self.kwargs)
        if self.seed_arg is not None:
            out[self.seed_arg] = self.seed
        return out


@dataclass(frozen=True)
class SweepSpec:
    """A grid of keyword-argument points for one picklable function.

    Attributes:
        fn: the point function.  Must be importable (module-level) for
            multi-process execution.
        grid: the parameter combinations, each a sorted tuple of
            ``(name, value)`` pairs.
        replicates: how many seeded repetitions of every combination.
        base_seed: root of the deterministic seed derivation.
        seed_arg: name of the keyword argument that receives the derived
            seed (``None`` = the function is unseeded / deterministic,
            and ``replicates`` must be 1).
    """

    fn: Callable[..., Any]
    grid: Tuple[KwargsItems, ...]
    replicates: int = 1
    base_seed: int = 0
    seed_arg: Optional[str] = None

    def __post_init__(self) -> None:
        if self.replicates < 1:
            raise ConfigurationError(
                f"replicates must be >= 1, got {self.replicates!r}")
        if self.replicates > 1 and self.seed_arg is None:
            raise ConfigurationError(
                "replicates > 1 requires seed_arg: an unseeded function "
                "would compute the identical value several times")
        if not callable(self.fn):
            raise ConfigurationError(f"fn must be callable, got {self.fn!r}")

    @classmethod
    def from_points(
        cls,
        fn: Callable[..., Any],
        points: Iterable[Mapping[str, Any]],
        *,
        fixed: Optional[Mapping[str, Any]] = None,
        replicates: int = 1,
        base_seed: int = 0,
        seed_arg: Optional[str] = None,
    ) -> "SweepSpec":
        """A spec from an explicit list of kwargs dicts.

        ``fixed`` supplies arguments shared by every point (a point may
        override them).  Argument order within a point is canonicalised
        by sorting, so two dicts with the same content are the same
        point regardless of insertion order.
        """
        grid = tuple(
            tuple(sorted({**(fixed or {}), **point}.items()))
            for point in points)
        return cls(fn=fn, grid=grid, replicates=replicates,
                   base_seed=base_seed, seed_arg=seed_arg)

    @classmethod
    def from_grid(
        cls,
        fn: Callable[..., Any],
        axes: Mapping[str, Sequence[Any]],
        *,
        fixed: Optional[Mapping[str, Any]] = None,
        replicates: int = 1,
        base_seed: int = 0,
        seed_arg: Optional[str] = None,
    ) -> "SweepSpec":
        """A spec from the cartesian product of named axes.

        ``axes={"algorithm": [...], "lam": [...]}`` produces every
        (algorithm, lam) combination, in the row-major order of the
        mapping's iteration.
        """
        if not axes:
            raise ConfigurationError("a grid needs at least one axis")
        names = list(axes)
        points = (
            dict(zip(names, combo))
            for combo in itertools.product(*(axes[name] for name in names)))
        return cls.from_points(fn, points, fixed=fixed, replicates=replicates,
                               base_seed=base_seed, seed_arg=seed_arg)

    def points(self) -> List[SweepPoint]:
        """Every (combination, replicate) pair, in deterministic order."""
        out: List[SweepPoint] = []
        for kwargs in self.grid:
            for replicate in range(self.replicates):
                seed = (derive_seed(self.base_seed, kwargs, replicate)
                        if self.seed_arg is not None else None)
                out.append(SweepPoint(
                    index=len(out), kwargs=kwargs, replicate=replicate,
                    seed=seed, seed_arg=self.seed_arg))
        return out

    def __len__(self) -> int:
        return len(self.grid) * self.replicates


@dataclass
class SweepCell:
    """The outcome of one sweep point."""

    kwargs: Dict[str, Any]
    replicate: int = 0
    seed: Optional[int] = None
    value: Any = None
    error: Optional[str] = None

    @property
    def ok(self) -> bool:
        return self.error is None


@dataclass
class SweepResult:
    """All cells of a completed sweep, in point (grid x replicate) order."""

    cells: List[SweepCell] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.cells)

    def __iter__(self):
        return iter(self.cells)

    def values(self) -> List[Any]:
        """Values of the successful cells, in point order."""
        return [cell.value for cell in self.cells if cell.ok]

    def failures(self) -> List[SweepCell]:
        return [cell for cell in self.cells if not cell.ok]

    def raise_failures(self) -> "SweepResult":
        """Raise :class:`~repro.errors.SweepError` if any cell failed."""
        failed = self.failures()
        if failed:
            first = failed[0]
            raise SweepError(
                f"{len(failed)} of {len(self.cells)} sweep point(s) failed; "
                f"first: {first.kwargs!r} -> {first.error}")
        return self

    def select(self, **criteria: Any) -> List[SweepCell]:
        """Cells whose kwargs match every ``name=value`` criterion."""
        return [cell for cell in self.cells
                if all(cell.kwargs.get(name) == value
                       for name, value in criteria.items())]

    def groups(self) -> List[Tuple[Dict[str, Any], List[SweepCell]]]:
        """Cells grouped by parameter combination (replicates together),
        in first-appearance order."""
        keyed: Dict[Tuple[Tuple[str, Any], ...], List[SweepCell]] = {}
        for cell in self.cells:
            keyed.setdefault(tuple(sorted(cell.kwargs.items(),
                                          key=lambda item: item[0])),
                             []).append(cell)
        return [(dict(key), cells) for key, cells in keyed.items()]


class SweepRunner:
    """Runs sweep specs over ``workers`` processes (1 = in this process)."""

    def __init__(self, workers: int = 1) -> None:
        if workers < 1:
            raise ConfigurationError(f"workers must be >= 1, got {workers!r}")
        self.workers = workers

    def run(self, spec: SweepSpec) -> SweepResult:
        """Execute every point of ``spec``; never raises for point errors."""
        points = spec.points()
        cells = [SweepCell(kwargs=dict(pt.kwargs), replicate=pt.replicate,
                           seed=pt.seed) for pt in points]
        if self.workers == 1 or len(points) < 2:
            for pt in points:
                _run_here(spec.fn, pt, cells[pt.index])
            return SweepResult(cells)
        with ProcessPoolExecutor(
                max_workers=min(self.workers, len(points))) as pool:
            futures = {pool.submit(spec.fn, **pt.call_kwargs()): pt
                       for pt in points}
            for future in as_completed(futures):
                pt = futures[future]
                if future.exception() is None:
                    cells[pt.index].value = future.result()
                else:
                    # A raising point, or a dead worker (BrokenProcessPool
                    # fails every outstanding future): once more, here.
                    _run_here(spec.fn, pt, cells[pt.index])
        return SweepResult(cells)

    def map(self, fn: Callable[..., Any],
            points: Sequence[Dict[str, Any]], **spec_kwargs: Any) -> SweepResult:
        """Build a :class:`SweepSpec` from ``points`` and run it."""
        return self.run(SweepSpec.from_points(fn, points, **spec_kwargs))


def _run_here(fn: Callable[..., Any], pt: SweepPoint, cell: SweepCell) -> None:
    """Run one point in this process; a raise becomes the cell's error."""
    try:
        cell.value = fn(**pt.call_kwargs())
    except Exception as exc:  # noqa: BLE001 - isolation by design
        cell.error = "".join(
            traceback.format_exception_only(type(exc), exc)).strip()


__all__ = [
    "SweepCell",
    "SweepPoint",
    "SweepResult",
    "SweepRunner",
    "SweepSpec",
    "canonical",
    "derive_seed",
]
