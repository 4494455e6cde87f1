"""Quality-adaptive load shedding: the runtime SLO controller.

The source paper's contribution is a quality/energy *dial* — pruning
modes that trade spectral fidelity for compute.  The repo models that
dial statically (:mod:`repro.analysis.tradeoff`,
:mod:`repro.platform.energy`); this module turns it into a server
overload story: a saturated :class:`~repro.engine.hub.StreamHub` sheds
load by stepping subjects *down the paper's mode ladder* instead of
falling behind or dropping data, and steps them back up when load
recedes.

Two pieces:

* :class:`SLOSpec` — the immutable, JSON-round-trippable service-level
  objective attached via ``EngineConfig(slo=SLOSpec(...))``: target
  flush-latency p95, maximum pending-window backlog, step-down and
  recovery hysteresis windows, the shedding policy (per-subject or
  uniform), floor/ceiling quality levels and per-tier floor overrides.
* :class:`QualityController` — attached to the hub at construction when
  the engine config carries an :class:`SLOSpec`.  On every
  :meth:`StreamHub.flush` it observes the flush latency (the same
  per-call quantity the ``hub_flush`` profiler stage times, kept in a
  rolling :class:`~repro.perf.LatencyWindow`) and the backlog the flush
  drained, and moves subjects along the *degradation ladder*: the base
  config's quality (level 0) followed by every
  :data:`~repro.analysis.tradeoff.PAPER_MODE_LADDER` mode strictly
  deeper than it.  Step-downs need ``step_down_after`` consecutive
  breaching flushes, recovery needs ``recover_after`` consecutive
  flushes below ``recovery_margin`` of the target — observations in
  the band between the two thresholds reset both streaks, which is
  what prevents mode flapping under oscillating load.

Degradation changes *which analyzer* computes a window, never how:
windows of a subject at level L are analysed by the exact engine a
homogeneous level-L config would build, so every emission stays
bit-identical (spectrum and op counts) to that homogeneous run — the
hub runs its whole pending set as one span batch through the usual
choke point, with each span's FFT stage on its level's analyzer (see
:meth:`StreamHub._analyze_pending`).
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, replace

from ..analysis.tradeoff import degradation_steps
from ..errors import ConfigurationError
from ..ffts.pruning import PruningSpec
from ..perf.profiler import LatencyWindow

__all__ = [
    "QualityController",
    "QualityLevel",
    "SLOSpec",
    "degradation_ladder",
]

#: Shedding policies: ``"per-subject"`` degrades the busiest subjects
#: first (half of the eligible set per step event, so convergence takes
#: O(log n) events); ``"uniform"`` moves every unpinned subject together.
POLICIES = ("per-subject", "uniform")

#: Decision-log entries kept by a controller (cumulative counters are
#: unbounded; the log itself is a ring so a week-long hub cannot grow it).
_MAX_DECISIONS = 256


@dataclass(frozen=True)
class QualityLevel:
    """One rung of a hub's degradation ladder.

    Attributes
    ----------
    level:
        Ladder index; 0 is the configured (full) quality.
    label:
        Human-readable mode name (``"full"`` or the
        :data:`~repro.analysis.tradeoff.PAPER_MODE_LADDER` label).
    system:
        PSA system kind this level runs (degraded levels always run the
        quality-scalable system — they *are* the paper's pruned modes).
    pruning:
        The level's :class:`~repro.ffts.pruning.PruningSpec`.
    """

    level: int
    label: str
    system: str
    pruning: PruningSpec


def degradation_ladder(config) -> tuple[QualityLevel, ...]:
    """The quality ladder one engine config's hub can shed along.

    Level 0 is the config itself; deeper levels are the paper modes
    :func:`~repro.analysis.tradeoff.degradation_steps` selects —
    strictly more pruned than the base, so stepping "down" can only
    reduce compute.  A config already at the deepest paper mode gets a
    one-rung ladder (nothing to shed to).
    """
    ladder = [
        QualityLevel(
            level=0, label="full", system=config.system, pruning=config.pruning
        )
    ]
    for label, spec in degradation_steps(config.system, config.pruning):
        ladder.append(
            QualityLevel(
                level=len(ladder),
                label=label,
                system="quality-scalable",
                pruning=spec,
            )
        )
    return tuple(ladder)


@dataclass(frozen=True)
class SLOSpec:
    """Immutable, serializable service-level objective for a hub.

    Attributes
    ----------
    target_p95_ms:
        Flush-latency p95 the controller defends (milliseconds).
    max_backlog:
        Pending windows a flush may drain before the hub counts as
        overloaded regardless of latency; ``None`` disables the
        backlog rule.
    window:
        Flush observations in the rolling p95 window.
    step_down_after:
        Consecutive breaching flushes before one step-down event.
    recover_after:
        Consecutive healthy flushes (p95 at or below
        ``recovery_margin * target_p95_ms`` *and* backlog within
        bounds) before one step-up event.
    recovery_margin:
        Fraction of the target below which a flush counts as healthy;
        the (margin, 1.0] band between healthy and breaching resets
        both hysteresis streaks, preventing flapping at the boundary.
    policy:
        ``"per-subject"`` (busiest subjects shed first) or
        ``"uniform"`` (all subjects move together).
    floor:
        Deepest ladder level the controller may shed to; ``None``
        means the bottom of the ladder.
    ceiling:
        Shallowest level recovery returns subjects to (0 = full
        quality).
    tier_floors:
        Per-tier floor overrides as ``{tier: floor_level}`` —
        subjects assigned a tier (:meth:`StreamHub.set_tier`) shed no
        deeper than their tier's floor, so a high-priority tier can be
        exempted (floor 0) while the rest of the ward absorbs the
        overload.  Stored canonically as a sorted tuple of pairs so
        the spec stays hashable.
    """

    target_p95_ms: float = 50.0
    max_backlog: int | None = None
    window: int = 16
    step_down_after: int = 2
    recover_after: int = 4
    recovery_margin: float = 0.7
    policy: str = "per-subject"
    floor: int | None = None
    ceiling: int = 0
    tier_floors: tuple[tuple[str, int], ...] = ()

    def __post_init__(self):
        if not float(self.target_p95_ms) > 0:
            raise ConfigurationError(
                f"target_p95_ms must be > 0, got {self.target_p95_ms}"
            )
        object.__setattr__(self, "target_p95_ms", float(self.target_p95_ms))
        if self.max_backlog is not None:
            if int(self.max_backlog) < 1:
                raise ConfigurationError(
                    f"max_backlog must be >= 1 (or None), got {self.max_backlog}"
                )
            object.__setattr__(self, "max_backlog", int(self.max_backlog))
        for name in ("window", "step_down_after", "recover_after"):
            value = getattr(self, name)
            if int(value) < 1:
                raise ConfigurationError(
                    f"{name} must be >= 1, got {value}"
                )
            object.__setattr__(self, name, int(value))
        margin = float(self.recovery_margin)
        if not (0.0 < margin <= 1.0):
            raise ConfigurationError(
                f"recovery_margin must be in (0, 1], got {self.recovery_margin}"
            )
        object.__setattr__(self, "recovery_margin", margin)
        if self.policy not in POLICIES:
            raise ConfigurationError(
                f"policy must be one of {POLICIES}, got {self.policy!r}"
            )
        if self.floor is not None:
            if int(self.floor) < 0:
                raise ConfigurationError(
                    f"floor must be >= 0 (or None), got {self.floor}"
                )
            object.__setattr__(self, "floor", int(self.floor))
        if int(self.ceiling) < 0:
            raise ConfigurationError(
                f"ceiling must be >= 0, got {self.ceiling}"
            )
        object.__setattr__(self, "ceiling", int(self.ceiling))
        if self.floor is not None and self.ceiling > self.floor:
            raise ConfigurationError(
                f"ceiling ({self.ceiling}) must not exceed floor ({self.floor})"
            )
        if isinstance(self.tier_floors, dict):
            tiers = self.tier_floors.items()
        else:
            tiers = tuple(self.tier_floors)
        canonical = []
        for tier, floor in sorted(tiers):
            if not isinstance(tier, str) or not tier:
                raise ConfigurationError(
                    "tier_floors keys must be non-empty strings"
                )
            if int(floor) < 0:
                raise ConfigurationError(
                    f"tier_floors[{tier!r}] must be >= 0, got {floor}"
                )
            canonical.append((tier, int(floor)))
        object.__setattr__(self, "tier_floors", tuple(canonical))

    def replace(self, **changes) -> "SLOSpec":
        """Copy with the given fields changed (dataclass ``replace``)."""
        return replace(self, **changes)

    def tier_floor(self, tier: str | None) -> int | None:
        """The floor override for *tier*, or ``None`` when it has none."""
        if tier is None:
            return None
        for name, floor in self.tier_floors:
            if name == tier:
                return floor
        return None

    # -- serialization -------------------------------------------------

    def to_dict(self) -> dict:
        """Plain-data (JSON-ready) representation of this spec."""
        return {
            "target_p95_ms": self.target_p95_ms,
            "max_backlog": self.max_backlog,
            "window": self.window,
            "step_down_after": self.step_down_after,
            "recover_after": self.recover_after,
            "recovery_margin": self.recovery_margin,
            "policy": self.policy,
            "floor": self.floor,
            "ceiling": self.ceiling,
            "tier_floors": {tier: floor for tier, floor in self.tier_floors},
        }

    @classmethod
    def from_dict(cls, data: dict) -> "SLOSpec":
        """Reconstruct a spec from :meth:`to_dict` output.

        Missing keys take their defaults; unknown keys are a
        :class:`~repro.errors.ConfigurationError` (a typo like
        ``"max_backlogg"`` silently ignored would mis-run the SLO).
        """
        if not isinstance(data, dict):
            raise ConfigurationError(
                f"slo spec must be a mapping, got {type(data).__name__}"
            )
        known = {
            "target_p95_ms", "max_backlog", "window", "step_down_after",
            "recover_after", "recovery_margin", "policy", "floor",
            "ceiling", "tier_floors",
        }
        unknown = set(data) - known
        if unknown:
            raise ConfigurationError(
                f"unknown slo spec keys: {sorted(unknown)}; "
                f"known keys: {sorted(known)}"
            )
        try:
            return cls(**data)
        except TypeError as exc:
            raise ConfigurationError(f"invalid slo spec: {exc}") from None

    def to_json(self, indent: int | None = 2) -> str:
        """JSON text of :meth:`to_dict` (round-trips losslessly)."""
        return json.dumps(self.to_dict(), indent=indent)

    @classmethod
    def from_json(cls, text: str) -> "SLOSpec":
        """Reconstruct a spec from :meth:`to_json` output."""
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigurationError(
                f"slo spec is not valid JSON: {exc}"
            ) from None
        return cls.from_dict(data)


class QualityController:
    """SLO-driven degradation controller attached to one hub.

    Built by :class:`~repro.engine.hub.StreamHub` when the owning
    engine's config carries an :class:`SLOSpec`; not constructed
    directly by users.  The hub calls :meth:`observe` after every
    flush; the controller decides, the hub's per-session quality levels
    change, and the *next* flush analyses each subject's windows at its
    new level (levels are read at analysis time, so a decision never
    reinterprets windows already analysed).

    Parameters
    ----------
    hub:
        The owning :class:`~repro.engine.hub.StreamHub`.
    spec:
        The service-level objective to defend.
    clock:
        Monotonic clock used for nothing but the decision log's
        timestamps; injectable so the fault harness
        (:mod:`repro.testing.faults`) can skew it deterministically.
    """

    def __init__(self, hub, spec: SLOSpec, clock=time.perf_counter):
        self._hub = hub
        self.spec = spec
        self._clock = clock
        self._latency = LatencyWindow(size=spec.window)
        self._breach_streak = 0
        self._healthy_streak = 0
        self._flushes = 0
        self._steps_down = 0
        self._steps_up = 0
        self._windows_by_level: dict[int, int] = {}
        self._decisions: list[dict] = []
        ladder = hub.ladder
        bottom = len(ladder) - 1
        self._floor = bottom if spec.floor is None else min(spec.floor, bottom)
        self._ceiling = min(spec.ceiling, self._floor)

    # -- introspection -------------------------------------------------

    @property
    def ladder(self) -> tuple[QualityLevel, ...]:
        """The hub's degradation ladder this controller moves along."""
        return self._hub.ladder

    def p95_ms(self) -> float | None:
        """Rolling flush-latency p95 (ms), ``None`` before any flush."""
        seconds = self._latency.percentile(95.0)
        return None if seconds is None else seconds * 1e3

    def stats(self) -> dict:
        """Decision log plus current levels and cumulative counters.

        The hub re-exposes this as :meth:`StreamHub.controller_stats`.
        """
        ladder = self.ladder
        return {
            "slo": self.spec.to_dict(),
            "ladder": [entry.label for entry in ladder],
            "levels": {
                subject: session._quality_level
                for subject, session in self._hub._sessions.items()
            },
            "pinned": sorted(
                subject
                for subject, session in self._hub._sessions.items()
                if session._quality_pinned
            ),
            "flushes": self._flushes,
            "p95_ms": self.p95_ms(),
            "steps_down": self._steps_down,
            "steps_up": self._steps_up,
            "windows_by_level": dict(sorted(self._windows_by_level.items())),
            "decisions": list(self._decisions),
        }

    # -- subject floors ------------------------------------------------

    def _floor_for(self, session) -> int:
        tier_floor = self.spec.tier_floor(getattr(session, "tier", None))
        if tier_floor is None:
            return self._floor
        return min(tier_floor, len(self.ladder) - 1)

    def _movable(self):
        """Sessions the controller may move, in first-seen order."""
        return [
            session
            for session in self._hub._sessions.values()
            if not session._quality_pinned
        ]

    # -- the control loop ----------------------------------------------

    def observe(self, flush_seconds: float, backlog: int, emitted: dict) -> None:
        """Digest one flush: update the window, maybe step the ladder.

        ``flush_seconds`` is the flush's wall latency (plus any
        harness-injected latency), ``backlog`` the pending windows the
        flush drained, ``emitted`` the flush's
        ``{subject: [WindowEmission, ...]}`` result (used to rank
        subjects by busyness and to account shed windows per level).
        """
        self._flushes += 1
        self._latency.observe(flush_seconds)
        windows_by_subject: dict = {}
        for subject, emissions in emitted.items():
            windows_by_subject[subject] = len(emissions)
            for emission in emissions:
                level = emission.quality
                self._windows_by_level[level] = (
                    self._windows_by_level.get(level, 0) + 1
                )
        spec = self.spec
        p95_ms = self.p95_ms()
        backlog_breach = (
            spec.max_backlog is not None and backlog > spec.max_backlog
        )
        latency_breach = p95_ms is not None and p95_ms > spec.target_p95_ms
        healthy = (
            p95_ms is not None
            and p95_ms <= spec.recovery_margin * spec.target_p95_ms
            and not backlog_breach
        )
        if latency_breach or backlog_breach:
            self._healthy_streak = 0
            self._breach_streak += 1
            if self._breach_streak >= spec.step_down_after:
                self._breach_streak = 0
                reason = "backlog" if backlog_breach else "latency"
                self._step_down(reason, p95_ms, backlog, windows_by_subject)
        elif healthy:
            self._breach_streak = 0
            self._healthy_streak += 1
            if self._healthy_streak >= spec.recover_after:
                self._healthy_streak = 0
                self._step_up(p95_ms, backlog)
        else:
            # The hysteresis band between healthy and breaching: neither
            # streak may accumulate here, or load oscillating around the
            # target would flap subjects between modes.
            self._breach_streak = 0
            self._healthy_streak = 0

    def _step_down(
        self, reason: str, p95_ms, backlog: int, windows_by_subject: dict
    ) -> None:
        movable = [
            session
            for session in self._movable()
            if session._quality_level < self._floor_for(session)
        ]
        if not movable:
            return
        if self.spec.policy == "per-subject":
            # Busiest first: the subjects that put the most windows into
            # the observed flush buy the most latency back per step.
            # Half the eligible set per event converges in O(log n)
            # events without slamming the whole ward to the floor at
            # the first breach.
            movable.sort(
                key=lambda s: windows_by_subject.get(s.subject_id, 0),
                reverse=True,
            )
            movable = movable[: max(1, (len(movable) + 1) // 2)]
        moves = {}
        for session in movable:
            new = session._quality_level + 1
            moves[session.subject_id] = (session._quality_level, new)
            session._quality_level = new
        self._steps_down += 1
        self._log("step_down", reason, moves, p95_ms, backlog)

    def _step_up(self, p95_ms, backlog: int) -> None:
        moves = {}
        for session in self._movable():
            level = session._quality_level
            if level > self._ceiling:
                moves[session.subject_id] = (level, level - 1)
                session._quality_level = level - 1
        if not moves:
            return
        self._steps_up += 1
        self._log("step_up", "recovered", moves, p95_ms, backlog)

    def _log(
        self, action: str, reason: str, moves: dict, p95_ms, backlog: int
    ) -> None:
        self._decisions.append(
            {
                "flush": self._flushes,
                "time": float(self._clock()),
                "action": action,
                "reason": reason,
                "moves": moves,
                "p95_ms": p95_ms,
                "backlog": int(backlog),
            }
        )
        if len(self._decisions) > _MAX_DECISIONS:
            del self._decisions[: len(self._decisions) - _MAX_DECISIONS]
