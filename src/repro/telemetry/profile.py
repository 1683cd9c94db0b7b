"""RunProfile: the aggregated output of one profiled execution.

A :class:`RunProfile` is what :class:`~repro.telemetry.TelemetryObserver`
reduces its per-round samples to — bounded-size aggregates (sums,
extremes, a power-of-two latency histogram, top-k slowest rounds, a
per-phase breakdown) rather than the sample stream itself, so profiling
a 10^6-round run costs O(1) memory.  Percentiles are derived from the
histogram (the reported value is the bucket's upper bound), which is the
price of never materializing the samples; mean/min/max are exact.

Profiles serialize to JSON (schema ``repro-run-profile/1``), merge
across run segments (composition-pipeline stages, self-healing
episodes), and render as table rows for the CLI (``--profile``) and as
``prof_*`` sweep columns (``repro sweep --profile``).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

#: Schema tag stamped into every exported profile.
PROFILE_SCHEMA = "repro-run-profile/1"

#: The wake causes the bulk backend accounts per round (DESIGN.md,
#: "Phase kernels & bulk backend"): a received message, a neighbor
#: re-binding its public record, an adjacency change at the node, a
#: barrier, or an external perturbation.
WAKE_CAUSES = ("message", "rebind", "adjacency", "barrier", "perturbation")


def percentile_from_hist(histogram: dict, quantile: float) -> float:
    """The upper bound of the histogram bucket holding the quantile.

    ``histogram`` maps stringified power-of-two upper bounds (in µs) to
    counts.  Returns 0.0 for an empty histogram.
    """
    total = sum(histogram.values())
    if total == 0:
        return 0.0
    target = quantile * total
    seen = 0
    for upper in sorted(histogram, key=int):
        seen += histogram[upper]
        if seen >= target:
            return float(upper)
    return float(max((int(u) for u in histogram), default=0))


@dataclass
class RunProfile:
    """Bounded-size aggregate of one profiled run (or merged segments)."""

    backend: str | None = None
    n: int | None = None
    rounds: int = 0
    #: Total wall time spent inside sampled rounds, in seconds.
    wall_s: float = 0.0
    #: Per-round wall time stats in µs: mean/min/max exact, p50/p90 are
    #: histogram bucket upper bounds.
    round_us: dict = field(default_factory=dict)
    #: Power-of-two latency histogram: str(upper_bound_us) -> count.
    histogram_us: dict = field(default_factory=dict)
    #: Top-k slowest rounds as ``[round_no, us]`` pairs, slowest first.
    slowest: list = field(default_factory=list)
    #: Rounds per dispatch path: pernode / sparse / kernel / assist /
    #: centralized.
    dispatch: dict = field(default_factory=dict)
    #: Live-set occupancy stats ({min, mean, max}) or None (centralized
    #: runs, which have no live set of node programs).
    live: dict | None = None
    #: Wake-set (due-filter) occupancy stats, bulk sparse path only.
    due: dict | None = None
    #: Wake-condition hit counts per cause (bulk backend only).
    wake_hits: dict = field(default_factory=dict)
    activations: int = 0
    deactivations: int = 0
    perturbations: int = 0
    #: Periodic ``getrusage`` peak-RSS readings: {samples, peak_kb}.
    rss: dict | None = None
    #: Cyclic-collector activity while the run was bound:
    #: {collections: [gen0, gen1, gen2], pause_s}, or None (a profile
    #: loaded from a payload that predates the field).
    gc: dict | None = None
    #: Per-phase breakdown rows keyed off ``PhaseKernel.phase_of`` (one
    #: "all" row when the program family declares no phase structure).
    phases: list = field(default_factory=list)
    #: Reproducibility stamp: git sha, python/numpy versions, platform.
    provenance: dict = field(default_factory=dict)
    #: How many run segments (pipeline stages / episodes) were merged.
    segments: int = 1
    schema: str = PROFILE_SCHEMA

    # -- serialization -------------------------------------------------

    def as_dict(self) -> dict:
        return {
            "schema": self.schema,
            "backend": self.backend,
            "n": self.n,
            "rounds": self.rounds,
            "wall_s": self.wall_s,
            "round_us": self.round_us,
            "histogram_us": self.histogram_us,
            "slowest": [list(pair) for pair in self.slowest],
            "dispatch": self.dispatch,
            "live": self.live,
            "due": self.due,
            "wake_hits": self.wake_hits,
            "activations": self.activations,
            "deactivations": self.deactivations,
            "perturbations": self.perturbations,
            "rss": self.rss,
            "gc": self.gc,
            "phases": self.phases,
            "provenance": self.provenance,
            "segments": self.segments,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "RunProfile":
        if payload.get("schema") != PROFILE_SCHEMA:
            raise ValueError(
                f"not a {PROFILE_SCHEMA} payload: schema={payload.get('schema')!r}"
            )
        data = dict(payload)
        data["slowest"] = [list(pair) for pair in data.get("slowest", [])]
        known = {f for f in cls.__dataclass_fields__}
        return cls(**{k: v for k, v in data.items() if k in known})

    def to_json(self, path=None) -> str:
        """Deterministic JSON (sorted keys); optionally written to ``path``."""
        payload = json.dumps(self.as_dict(), indent=2, sort_keys=True)
        if path is not None:
            with open(path, "w") as fh:
                fh.write(payload + "\n")
        return payload

    # -- merging (multi-segment results) -------------------------------

    @classmethod
    def merge(cls, profiles: list) -> "RunProfile":
        """Exact merge of per-segment profiles (percentiles recomputed
        from the merged histogram, like any single segment's)."""
        if not profiles:
            return cls(round_us=_round_stats(0, 0.0, 0.0, 0.0, {}))
        if len(profiles) == 1:
            return profiles[0]
        first = profiles[0]
        rounds = sum(p.rounds for p in profiles)
        wall = sum(p.wall_s for p in profiles)
        hist: dict = {}
        dispatch: dict = {}
        wake: dict = {}
        slowest: list = []
        acts = deacts = perts = 0
        phases: dict = {}
        live = _merge_occupancy([p.live for p in profiles])
        due = _merge_occupancy([p.due for p in profiles])
        lo = min((p.round_us.get("min", 0.0) for p in profiles if p.rounds), default=0.0)
        hi = max((p.round_us.get("max", 0.0) for p in profiles if p.rounds), default=0.0)
        rss_peak = 0
        rss_samples = 0
        gc_stats = _merge_gc([p.gc for p in profiles])
        for p in profiles:
            for k, v in p.histogram_us.items():
                hist[k] = hist.get(k, 0) + v
            for k, v in p.dispatch.items():
                dispatch[k] = dispatch.get(k, 0) + v
            for k, v in p.wake_hits.items():
                wake[k] = wake.get(k, 0) + v
            slowest.extend(p.slowest)
            acts += p.activations
            deacts += p.deactivations
            perts += p.perturbations
            if p.rss is not None:
                rss_peak = max(rss_peak, p.rss.get("peak_kb", 0))
                rss_samples += p.rss.get("samples", 0)
            for row in p.phases:
                agg = phases.setdefault(
                    row["phase"], {"phase": row["phase"], "rounds": 0,
                                   "wall_ms": 0.0, "activations": 0},
                )
                agg["rounds"] += row["rounds"]
                agg["wall_ms"] += row["wall_ms"]
                agg["activations"] += row["activations"]
        slowest.sort(key=lambda pair: -pair[1])
        k = max(len(first.slowest), 1)
        total_ms = sum(row["wall_ms"] for row in phases.values()) or 1.0
        merged_phases = []
        for label in sorted(phases):
            row = phases[label]
            row["wall_ms"] = round(row["wall_ms"], 3)
            row["share"] = round(row["wall_ms"] / total_ms, 3)
            row["mean_us"] = round(row["wall_ms"] * 1e3 / max(row["rounds"], 1), 1)
            merged_phases.append(row)
        return cls(
            backend=first.backend,
            n=first.n,
            rounds=rounds,
            wall_s=wall,
            round_us=_round_stats(rounds, wall, lo, hi, hist),
            histogram_us=hist,
            slowest=slowest[:k],
            dispatch=dispatch,
            live=live,
            due=due,
            wake_hits=wake,
            activations=acts,
            deactivations=deacts,
            perturbations=perts,
            rss={"samples": rss_samples, "peak_kb": rss_peak} if rss_samples else first.rss,
            gc=gc_stats,
            phases=merged_phases,
            provenance=first.provenance,
            segments=sum(p.segments for p in profiles),
        )

    # -- presentation --------------------------------------------------

    def summary_row(self) -> dict:
        """One flat dict for the CLI's profile table."""
        row = {
            "backend": self.backend or "-",
            "rounds": self.rounds,
            "wall_ms": round(self.wall_s * 1e3, 1),
            "round_mean_us": round(self.round_us.get("mean", 0.0), 1),
            "round_p90_us": round(self.round_us.get("p90", 0.0), 1),
            "round_max_us": round(self.round_us.get("max", 0.0), 1),
            "dispatch": _dispatch_label(self.dispatch),
            "activations": self.activations,
            "perturbations": self.perturbations,
        }
        if self.live is not None:
            row["live_mean"] = round(self.live["mean"], 1)
        if self.due is not None:
            row["due_mean"] = round(self.due["mean"], 1)
        if self.wake_hits:
            row["wake_hits"] = _dispatch_label(self.wake_hits)
        if self.rss is not None:
            row["rss_peak_kb"] = self.rss["peak_kb"]
        if self.gc is not None:
            row["gc_ms"] = round(self.gc["pause_s"] * 1e3, 1)
        return row

    def breakdown_table(self) -> list:
        """Per-phase rows for ``print_table`` (already in phase order)."""
        return [dict(row) for row in self.phases]


def _round_stats(rounds: int, wall_s: float, lo: float, hi: float, hist: dict) -> dict:
    if rounds == 0:
        return {"mean": 0.0, "min": 0.0, "max": 0.0, "p50": 0.0, "p90": 0.0}
    return {
        "mean": wall_s * 1e6 / rounds,
        "min": lo,
        "max": hi,
        "p50": percentile_from_hist(hist, 0.50),
        "p90": percentile_from_hist(hist, 0.90),
    }


def _merge_occupancy(stats: list) -> dict | None:
    present = [s for s in stats if s is not None]
    if not present:
        return None
    count = sum(s.get("count", 0) for s in present)
    if count == 0:
        return None
    return {
        "min": min(s["min"] for s in present),
        "max": max(s["max"] for s in present),
        "mean": sum(s["mean"] * s.get("count", 0) for s in present) / count,
        "count": count,
    }


def _merge_gc(stats: list) -> dict | None:
    present = [s for s in stats if s is not None]
    if not present:
        return None
    return {
        "collections": [sum(gens) for gens in zip(*(s["collections"] for s in present))],
        "pause_s": sum(s["pause_s"] for s in present),
    }


def _dispatch_label(counts: dict) -> str:
    return "+".join(f"{k}:{v}" for k, v in sorted(counts.items()) if v)


def profile_columns(profile: RunProfile) -> dict:
    """Flat ``prof_*`` sweep-row columns (``repro sweep --profile``),
    living alongside the ``inv_*`` verdict columns."""
    cols = {
        "prof_wall_ms": round(profile.wall_s * 1e3, 2),
        "prof_round_mean_us": round(profile.round_us.get("mean", 0.0), 1),
        "prof_round_max_us": round(profile.round_us.get("max", 0.0), 1),
        "prof_dispatch": _dispatch_label(profile.dispatch),
    }
    if profile.live is not None:
        cols["prof_live_mean"] = round(profile.live["mean"], 1)
    if profile.due is not None:
        cols["prof_due_mean"] = round(profile.due["mean"], 1)
    if profile.rss is not None:
        cols["prof_rss_peak_kb"] = profile.rss["peak_kb"]
    return cols
