"""The declarative workload specification.

:class:`WorkloadSpec` is the single description of *what load a run
sees*: record-selection skew (paper Section 2.5 plus Zipf/hotspot
extensions), transaction-size mixture and arrival discipline.  The
arrival rate is always the paper's fixed ``params.lam`` (the regression
goldens in ``tests/data/workload_golden.json`` hold the stream to
``repr``-level float equality).

Like :class:`~repro.faults.plan.FaultPlan`, specs are strictly
dict/JSON round-trippable (:meth:`to_dict` / :meth:`from_dict` reject
unknown keys), so they travel through sweep seeds, JSONL exports,
and the CLI.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Any, Dict, Mapping, Optional, Tuple

from ..errors import ConfigurationError


class AccessDistribution(enum.Enum):
    UNIFORM = "uniform"
    ZIPF = "zipf"
    HOTSPOT = "hotspot"


@dataclass(frozen=True)
class WorkloadSpec:
    """How transactions pick their records and when they arrive.

    Attributes:
        distribution: record-selection skew (the paper uses UNIFORM).
        zipf_theta: Zipf exponent when ``distribution`` is ZIPF (>1).
        hot_fraction: fraction of records forming the hot set (HOTSPOT).
        hot_probability: probability an access lands in the hot set.
        poisson_arrivals: exponential inter-arrival times when True,
            a regular ``1/lam`` spacing when False.
        update_count_mix: optional ``((n_ru, weight), ...)`` mixture of
            transaction sizes.  The paper assumes all transactions
            identical "for simplicity"; a mixture exposes size-dependent
            effects -- notably that wide transactions dominate two-color
            aborts (the heterogeneity behind
            ``repro.model.restarts.expected_reruns_heterogeneous``).
            None keeps every transaction at ``params.n_ru`` updates.
    """

    distribution: AccessDistribution = AccessDistribution.UNIFORM
    zipf_theta: float = 1.2
    hot_fraction: float = 0.1
    hot_probability: float = 0.8
    poisson_arrivals: bool = True
    update_count_mix: Optional[Tuple[Tuple[int, float], ...]] = None

    def __post_init__(self) -> None:
        if self.distribution is AccessDistribution.ZIPF and self.zipf_theta <= 1:
            raise ConfigurationError(
                f"zipf_theta must exceed 1, got {self.zipf_theta!r}"
            )
        if not 0 < self.hot_fraction < 1:
            raise ConfigurationError(
                f"hot_fraction must be in (0, 1), got {self.hot_fraction!r}"
            )
        if not 0 <= self.hot_probability <= 1:
            raise ConfigurationError(
                f"hot_probability must be in [0, 1], got {self.hot_probability!r}"
            )
        if self.update_count_mix is not None:
            if not self.update_count_mix:
                raise ConfigurationError("update_count_mix cannot be empty")
            for n_ru, weight in self.update_count_mix:
                if n_ru < 1:
                    raise ConfigurationError(
                        f"mixture sizes must be >= 1, got {n_ru!r}")
                if weight <= 0:
                    raise ConfigurationError(
                        f"mixture weights must be positive, got {weight!r}")

    @property
    def mean_update_count(self) -> Optional[float]:
        """The mixture's mean transaction size (None without a mixture)."""
        if self.update_count_mix is None:
            return None
        total = sum(weight for _, weight in self.update_count_mix)
        return sum(n * weight for n, weight in self.update_count_mix) / total

    # ------------------------------------------------------------------
    # serialisation (sweepable / CLI friendly)
    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        """A plain-JSON rendering; :meth:`from_dict` round-trips it."""
        out: Dict[str, Any] = {
            "distribution": self.distribution.value,
            "zipf_theta": self.zipf_theta,
            "hot_fraction": self.hot_fraction,
            "hot_probability": self.hot_probability,
            "poisson_arrivals": self.poisson_arrivals,
        }
        if self.update_count_mix is not None:
            out["update_count_mix"] = [[n, w]
                                       for n, w in self.update_count_mix]
        return out

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "WorkloadSpec":
        """Rebuild a spec from :meth:`to_dict` output (strict keys).

        An unknown key is refused, not ignored: a spec file asking for a
        time-varying ``schedule`` would otherwise run silently at the
        fixed rate.
        """
        known = {"distribution", "zipf_theta", "hot_fraction",
                 "hot_probability", "poisson_arrivals", "update_count_mix"}
        unknown = set(data) - known
        if unknown:
            raise ConfigurationError(
                f"unknown WorkloadSpec keys: {sorted(unknown)!r}")
        kwargs: Dict[str, Any] = {}
        if "distribution" in data:
            raw = data["distribution"]
            try:
                kwargs["distribution"] = (
                    raw if isinstance(raw, AccessDistribution)
                    else AccessDistribution(str(raw).lower()))
            except ValueError:
                choices = [d.value for d in AccessDistribution]
                raise ConfigurationError(
                    f"distribution must be one of {choices}, got {raw!r}")
        for field_name in ("zipf_theta", "hot_fraction", "hot_probability"):
            if field_name in data:
                kwargs[field_name] = float(data[field_name])
        if "poisson_arrivals" in data:
            kwargs["poisson_arrivals"] = bool(data["poisson_arrivals"])
        mix = data.get("update_count_mix")
        if mix is not None:
            try:
                kwargs["update_count_mix"] = tuple(
                    (int(n), float(w)) for n, w in mix)
            except (TypeError, ValueError):
                raise ConfigurationError(
                    f"update_count_mix must be [[n, weight], ...], "
                    f"got {mix!r}")
        return cls(**kwargs)

    def describe(self) -> str:
        """One human line, for ``repro simulate --workload`` reports."""
        parts = []
        if self.distribution is AccessDistribution.ZIPF:
            parts.append(f"zipf(theta={self.zipf_theta:g})")
        elif self.distribution is AccessDistribution.HOTSPOT:
            parts.append(f"hotspot({self.hot_fraction:g}"
                         f"@{self.hot_probability:g})")
        else:
            parts.append("uniform")
        if self.update_count_mix is not None:
            mix = ",".join(f"{n}x{w:g}" for n, w in self.update_count_mix)
            parts.append(f"mix[{mix}]")
        if not self.poisson_arrivals:
            parts.append("paced")
        parts.append("rate=params.lam")
        return " ".join(parts)
