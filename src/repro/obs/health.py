"""Derived fleet health scores per shard and machine.

A health score folds the three operational signals the fleet already
tracks into one number in ``[0, 1]``:

* **availability** — 0 for a quarantined shard, else 1 (for an aggregate,
  the fraction of members still serving);
* **latency** — p95 chunk/round latency against a budget
  (``ResiliencePolicy.task_deadline`` or an explicit budget); at or under
  budget scores 1, over budget decays as ``budget / p95``.  With no
  budget or no samples the component is neutral (1.0) — health never
  penalises what it cannot measure;
* **staleness** — deferred deep-level backlog, decaying as
  ``0.5 ** (stale_snapshots / tolerance)`` so a freshly-refreshed shard
  scores 1 and one a full tolerance behind scores 0.5.

The product of the three maps to a status via fixed thresholds
(``healthy`` ≥ 0.8 > ``degraded`` ≥ 0.4 > ``critical``).  Scoring is pure
arithmetic over numbers the monitors already hold — no clocks, no I/O —
so the monitors can afford it every chunk, and the resulting
:class:`HealthScore` objects ride on ``FleetSnapshot``/
``FederatedSnapshot`` as comparison-exempt fields (wall-clock latency
must never break bit-for-bit snapshot parity).

Model numerics ride along unscored: ``svd_fallbacks`` counts the deep-level
DMD windows whose Gram-route conditioning guard sent them to the SVD
(``core.numerics.svd_fallbacks``).  A fallback gives the right answer at a
higher cost, so it informs the operator without lowering the score.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = [
    "HealthScore",
    "score_shard",
    "aggregate",
    "percentile",
    "STATUS_HEALTHY",
    "STATUS_DEGRADED",
    "STATUS_CRITICAL",
]

STATUS_HEALTHY = "healthy"
STATUS_DEGRADED = "degraded"
STATUS_CRITICAL = "critical"

#: score >= this is healthy.
HEALTHY_THRESHOLD = 0.8
#: score >= this (but < healthy) is degraded; below is critical.
DEGRADED_THRESHOLD = 0.4

#: Deep-level staleness (in snapshots) that halves the staleness component.
DEFAULT_STALENESS_TOLERANCE = 100.0


def _status(score: float) -> str:
    if score >= HEALTHY_THRESHOLD:
        return STATUS_HEALTHY
    if score >= DEGRADED_THRESHOLD:
        return STATUS_DEGRADED
    return STATUS_CRITICAL


@dataclass(frozen=True)
class HealthScore:
    """One scored entity (shard, machine, or whole-fleet aggregate)."""

    score: float
    status: str
    availability: float
    latency: float
    staleness: float
    svd_fallbacks: int = 0

    def to_dict(self) -> dict:
        return {
            "score": self.score,
            "status": self.status,
            "availability": self.availability,
            "latency": self.latency,
            "staleness": self.staleness,
            "svd_fallbacks": self.svd_fallbacks,
        }


def percentile(samples, q: float) -> float | None:
    """Nearest-rank percentile of a sample list; ``None`` when empty."""
    values = sorted(samples)
    if not values:
        return None
    rank = max(0, min(len(values) - 1, int(q * len(values) + 0.5) - 1))
    return values[rank]


def component_latency(
    p95_seconds: float | None, budget_seconds: float | None
) -> float:
    """1.0 at/under budget, ``budget / p95`` beyond it, neutral unmeasured."""
    if p95_seconds is None or budget_seconds is None or budget_seconds <= 0:
        return 1.0
    if p95_seconds <= budget_seconds:
        return 1.0
    return max(0.0, budget_seconds / p95_seconds)


def component_staleness(
    stale_snapshots: float,
    tolerance: float = DEFAULT_STALENESS_TOLERANCE,
) -> float:
    """Exponential decay: fresh → 1.0, one tolerance behind → 0.5."""
    if stale_snapshots <= 0 or tolerance <= 0:
        return 1.0
    return 0.5 ** (float(stale_snapshots) / float(tolerance))


def score_shard(
    *,
    quarantined: bool = False,
    p95_seconds: float | None = None,
    budget_seconds: float | None = None,
    deep_stale_snapshots: float = 0.0,
    staleness_tolerance: float = DEFAULT_STALENESS_TOLERANCE,
    svd_fallbacks: int = 0,
) -> HealthScore:
    """Score one shard (or one machine treated as a unit); the shard's
    ``svd_fallbacks`` are carried, not scored."""
    availability = 0.0 if quarantined else 1.0
    latency = component_latency(p95_seconds, budget_seconds)
    staleness = component_staleness(deep_stale_snapshots, staleness_tolerance)
    score = availability * latency * staleness
    return HealthScore(
        score=score,
        status=_status(score),
        availability=availability,
        latency=latency,
        staleness=staleness,
        svd_fallbacks=int(svd_fallbacks),
    )


def aggregate(scores) -> HealthScore:
    """Roll member scores up into one aggregate.

    The aggregate score is the mean member score (an operator cares how
    much of the fleet is serving well), with each component averaged the
    same way and the SVD fallbacks summed; an empty roster scores a
    neutral 1.0.
    """
    members = list(scores)
    if not members:
        return HealthScore(1.0, STATUS_HEALTHY, 1.0, 1.0, 1.0)
    n = float(len(members))
    score = sum(m.score for m in members) / n
    return HealthScore(
        score=score,
        status=_status(score),
        availability=sum(m.availability for m in members) / n,
        latency=sum(m.latency for m in members) / n,
        staleness=sum(m.staleness for m in members) / n,
        svd_fallbacks=sum(m.svd_fallbacks for m in members),
    )
