"""TelemetryObserver: low-overhead per-round instrumentation.

The observer rides the existing :class:`~repro.engine.observers.RoundObserver`
stream for everything the record stream already carries (round
boundaries, activations, perturbations, segment starts) and adds two
hot-path probes the stream cannot see:

* ``bind_runner(runner, limit=)`` — called once per run by the runner
  before ``on_run_start``; captures backend, population size, the round
  limit (the heartbeat's progress bound), and the program family's
  optional ``PhaseKernel.phase_of`` for per-phase accounting, and hooks
  ``gc.callbacks`` to count the cyclic collector's collections and
  pauses until ``unbind_runner()``, which the runner calls once the
  round loop ends, whether it returns or raises.
* ``probe_round(round_no, live=, due=, dispatch=, acts=, ...)`` — called
  at the very end of each executed round by every executor (both
  backends and the centralized one) with the round's activation counts
  plus the occupancy the observer cannot reconstruct: live-set size,
  the bulk backend's due-filter (wake-set) size and per-cause
  wake-condition hit counts, and which dispatch path ran (pernode /
  sparse / kernel / assist / centralized).

The runner discovers the probe by the ``telemetry_probe`` class marker;
with no telemetry attached every probe site is one ``is None`` test per
round — the same compiled-out idiom as the adversary hook — so the
disabled path is byte-identical to an unobserved run (gated by
``benchmarks/test_p7_telemetry.py``).

Probes are also *removed* from the per-round record stream: the runner
routes only non-probe observers through ``on_round_start``/``on_round``,
so a profile-only run never pays ``RoundRecord`` construction (the
frozenset copies dominate telemetry's own cost on the bulk backend's
microsecond-scale rounds).  Everything a sample needs arrives through
``probe_round`` itself, which also does its own timing: round ``k``'s
wall time is end-of-round ``k-1`` → end-of-round ``k`` (round 1 from
``on_run_start``), so each round is charged its full body including
post-record bookkeeping — public-record commits, wake propagation,
barrier sweeps — while boundary work between rounds (adversary
application, loop control) lands on the round it precedes.

Aggregation is O(1) per round (see :mod:`repro.telemetry.profile`);
``keep_samples=True`` additionally records the raw per-round sample
stream for tests.
"""

from __future__ import annotations

import gc
import heapq
import resource
import sys
from time import perf_counter

from ..engine.observers import RoundObserver
from .heartbeat import format_heartbeat
from .profile import WAKE_CAUSES, RunProfile, _round_stats
from .provenance import build_provenance


def _phase_of_for(runner):
    """The population's ``phase_of`` mapping, when one kernel declares it.

    Populations are uniform on the kernel paths that matter; the
    runner's program class speaks for the fleet (a mixed population
    simply falls back to the single "all" phase row).  Reading the
    class, not a program, keeps a kernel run's fleet unbuilt.
    """
    cls = getattr(runner, "program_class", None)
    kernel = getattr(cls, "phase_kernel", None)
    if kernel is None:
        return None
    return getattr(kernel, "phase_of", None)


def peak_rss_kb() -> int:
    """Peak resident set size of this process so far, in KiB.

    ``getrusage().ru_maxrss`` is kilobytes on Linux but *bytes* on
    macOS/BSD, so the raw reading would overreport 1024x off-Linux;
    normalize here so ``RunProfile.peak_rss`` and the ``prof_*`` sweep
    columns are comparable across platforms.
    """
    raw = int(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
    if sys.platform == "darwin":
        return raw // 1024
    return raw


def _gc_hook(stats: dict):
    """A ``gc.callbacks`` hook adding each collection's generation and
    pause into ``stats``.  It holds no reference to the observer."""
    start = 0.0

    def hook(phase: str, info: dict) -> None:
        nonlocal start
        if phase == "start":
            start = perf_counter()
        else:
            stats["collections"][info["generation"]] += 1
            stats["pause_s"] += perf_counter() - start

    return hook


class TelemetryObserver(RoundObserver):
    """Collects per-round samples into per-segment :class:`RunProfile`\\ s.

    One instance follows a multi-segment result (pipeline stages,
    self-healing episodes) exactly like every other observer: each
    ``on_run_start`` opens a new segment, each ``on_run_end`` finalizes
    it into :attr:`segments`; :meth:`profile` merges them.

    Parameters
    ----------
    heartbeat_every:
        Emit a progress heartbeat at most once per this many rounds
        (0 disables).  Combined with ``heartbeat_min_interval_s`` the
        effective cadence is "check every N rounds, print at most every
        T seconds".
    heartbeat_min_interval_s:
        Minimum seconds between heartbeat lines.
    heartbeat_min_rounds:
        Minimum rounds between heartbeat lines (0 disables).  Emitting
        requires *both* gates: enough wall time *and* enough rounds
        since the previous line.  Microsecond-round cells at n = 10⁶
        would otherwise re-test the wall clock every round and flood
        stderr whenever the wall throttle is loose or disabled.
    heartbeat_stream:
        File-like the heartbeat writes to (default: current stderr,
        resolved at emit time).
    heartbeat_label:
        The ``[label]`` prefix of heartbeat lines.
    rss_every:
        Sample ``getrusage`` peak RSS every this many rounds (0 keeps
        only the end-of-segment reading).
    slowest_k:
        How many slowest rounds to keep per segment.
    keep_samples:
        Record the raw per-round sample stream (tests only; production
        profiling stays O(1) memory).
    """

    #: Runner-side discovery marker (see module docstring).
    telemetry_probe = True

    def __init__(
        self,
        *,
        heartbeat_every: int = 0,
        heartbeat_min_interval_s: float = 0.0,
        heartbeat_min_rounds: int = 0,
        heartbeat_stream=None,
        heartbeat_label: str = "telemetry",
        rss_every: int = 64,
        slowest_k: int = 5,
        keep_samples: bool = False,
    ) -> None:
        self.heartbeat_every = int(heartbeat_every)
        self.heartbeat_min_interval_s = float(heartbeat_min_interval_s)
        self.heartbeat_min_rounds = int(heartbeat_min_rounds)
        self.heartbeat_stream = heartbeat_stream
        self.heartbeat_label = heartbeat_label
        self.rss_every = int(rss_every)
        self.slowest_k = int(slowest_k)
        self.keep_samples = keep_samples
        #: Finalized per-segment profiles, in execution order.
        self.segments: list = []
        #: Raw per-segment sample lists (``keep_samples=True`` only);
        #: one ``(round, dt_s, live, due, dispatch, acts, deacts)``
        #: tuple per executed round.
        self.samples: list = []
        self._next_info: dict | None = None
        self._gc_hook = None
        self._open = False
        self._hb_last = 0.0
        self._hb_last_round = 0

    # -- probe protocol (called by the runners, not the record stream) --

    def bind_runner(self, runner, limit: int | None = None) -> None:
        """Pre-run probe: capture runner-side facts for the next segment."""
        self._next_info = {
            "backend": getattr(runner, "backend", None),
            "n": runner.network.n,
            "limit": limit,
            "phase_of": _phase_of_for(runner),
            "gc": {"collections": [0] * len(gc.get_count()), "pause_s": 0.0},
        }
        self.unbind_runner()
        self._gc_hook = _gc_hook(self._next_info["gc"])
        gc.callbacks.append(self._gc_hook)

    def unbind_runner(self) -> None:
        """Post-run probe: stop counting the collector's work."""
        hook, self._gc_hook = self._gc_hook, None
        if hook in gc.callbacks:
            gc.callbacks.remove(hook)

    def probe_round(
        self,
        round_no: int,
        *,
        live: int | None = None,
        due: int | None = None,
        dispatch: str = "pernode",
        acts: int = 0,
        deacts: int = 0,
        msg_wakes: int = 0,
        rebind_wakes: int = 0,
        adj_wakes: int = 0,
        barrier_wakes: int = 0,
    ) -> None:
        """End-of-round probe: timing, occupancy and dispatch of ``round_no``."""
        now = perf_counter()
        if msg_wakes:
            self._wake["message"] += msg_wakes
        if rebind_wakes:
            self._wake["rebind"] += rebind_wakes
        if adj_wakes:
            self._wake["adjacency"] += adj_wakes
        if barrier_wakes:
            self._wake["barrier"] += barrier_wakes
        self._record(round_no, now, live, due, dispatch, acts, deacts)

    def probe_wake(self, cause: str, count: int) -> None:
        """Out-of-round wake accounting (bulk perturbation sweep)."""
        self._wake[cause] += count

    # -- observer hooks -------------------------------------------------

    def on_run_start(self, network) -> None:
        if self._open:
            # Defensive: a segment that never saw on_run_end (the run
            # raised) still finalizes rather than leaking into the next.
            self._finalize_segment()
        info = self._next_info or {}
        self._next_info = None
        self._seg_gc = info.get("gc")
        self._backend = info.get("backend")
        self._n = info.get("n", getattr(network, "n", None))
        self._limit = info.get("limit")
        self._phase_of = info.get("phase_of")
        self._open = True
        # Round numbers restart at 1 for each segment; the round gate
        # must restart with them (the wall gate deliberately does not:
        # rapid segment turnover should not print per segment).
        self._hb_last_round = 0
        self._rounds = 0
        self._time_sum = 0.0
        self._min_us = float("inf")
        self._max_us = 0.0
        self._hist: dict = {}
        self._slowest: list = []
        self._dispatch: dict = {}
        self._wake = dict.fromkeys(WAKE_CAUSES, 0)
        self._acts = 0
        self._deacts = 0
        self._live_sum = 0
        self._live_min = None
        self._live_max = 0
        self._live_n = 0
        self._due_sum = 0
        self._due_min = None
        self._due_max = 0
        self._due_n = 0
        self._perts = 0
        self._rss_peak = 0
        self._rss_n = 0
        self._phases: dict = {}
        self._last_live: int | None = None
        if self.keep_samples:
            self._seg_samples: list = []
            self.samples.append(self._seg_samples)
        self._t_prev = perf_counter()

    def on_perturbation(self, record) -> None:
        self._perts += 1

    def on_run_end(self, metrics) -> None:
        self._finalize_segment()

    # -- sample lifecycle -----------------------------------------------

    def _record(
        self,
        round_no: int,
        now: float,
        live: int | None,
        due: int | None,
        dispatch: str,
        acts: int,
        deacts: int,
    ) -> None:
        dt = now - self._t_prev
        self._t_prev = now
        us = dt * 1e6
        self._rounds += 1
        self._time_sum += dt
        if us < self._min_us:
            self._min_us = us
        if us > self._max_us:
            self._max_us = us
        bucket = int(us).bit_length()
        self._hist[bucket] = self._hist.get(bucket, 0) + 1
        slowest = self._slowest
        if len(slowest) < self.slowest_k:
            heapq.heappush(slowest, (us, round_no))
        elif us > slowest[0][0]:
            heapq.heapreplace(slowest, (us, round_no))
        self._acts += acts
        self._deacts += deacts
        if live is not None:
            self._live_sum += live
            self._live_n += 1
            if self._live_min is None or live < self._live_min:
                self._live_min = live
            if live > self._live_max:
                self._live_max = live
            self._last_live = live
        if due is not None:
            self._due_sum += due
            self._due_n += 1
            if self._due_min is None or due < self._due_min:
                self._due_min = due
            if due > self._due_max:
                self._due_max = due
        self._dispatch[dispatch] = self._dispatch.get(dispatch, 0) + 1
        phase_of = self._phase_of
        pos = phase_of(round_no)[1] if phase_of is not None else -1
        entry = self._phases.get(pos)
        if entry is None:
            entry = self._phases[pos] = [0, 0.0, 0]
        entry[0] += 1
        entry[1] += dt
        entry[2] += acts
        rss_every = self.rss_every
        if rss_every and self._rounds % rss_every == 0:
            rss = peak_rss_kb()
            self._rss_n += 1
            if rss > self._rss_peak:
                self._rss_peak = rss
        if self.keep_samples:
            self._seg_samples.append(
                (round_no, dt, live, due, dispatch, acts, deacts)
            )
        every = self.heartbeat_every
        if (
            every
            and round_no % every == 0
            and round_no - self._hb_last_round >= self.heartbeat_min_rounds
            and now - self._hb_last >= self.heartbeat_min_interval_s
        ):
            self._hb_last = now
            self._hb_last_round = round_no
            self._emit_heartbeat(round_no)

    def _finalize_segment(self) -> None:
        self._open = False
        rss = peak_rss_kb()
        self._rss_n += 1
        if rss > self._rss_peak:
            self._rss_peak = rss
        rounds = self._rounds
        hist = {str(1 << b if b else 1): c for b, c in sorted(self._hist.items())}
        phases = []
        total_ms = self._time_sum * 1e3 or 1.0
        for pos in sorted(self._phases):
            cnt, secs, acts = self._phases[pos]
            wall_ms = secs * 1e3
            phases.append({
                "phase": "all" if pos < 0 else f"r{pos}",
                "rounds": cnt,
                "wall_ms": round(wall_ms, 3),
                "share": round(wall_ms / total_ms, 3),
                "mean_us": round(secs * 1e6 / max(cnt, 1), 1),
                "activations": acts,
            })
        profile = RunProfile(
            backend=self._backend,
            n=self._n,
            rounds=rounds,
            wall_s=self._time_sum,
            round_us=_round_stats(
                rounds, self._time_sum,
                0.0 if self._min_us == float("inf") else self._min_us,
                self._max_us, hist,
            ),
            histogram_us=hist,
            slowest=[
                [r, round(us, 1)]
                for us, r in sorted(self._slowest, key=lambda p: -p[0])
            ],
            dispatch=self._dispatch,
            live=(
                {
                    "min": self._live_min,
                    "mean": self._live_sum / self._live_n,
                    "max": self._live_max,
                    "count": self._live_n,
                }
                if self._live_n
                else None
            ),
            due=(
                {
                    "min": self._due_min,
                    "mean": self._due_sum / self._due_n,
                    "max": self._due_max,
                    "count": self._due_n,
                }
                if self._due_n
                else None
            ),
            wake_hits={k: v for k, v in self._wake.items() if v},
            activations=self._acts,
            deactivations=self._deacts,
            perturbations=self._perts,
            rss={"samples": self._rss_n, "peak_kb": self._rss_peak},
            gc=self._seg_gc,
            phases=phases,
            provenance=build_provenance(self._backend),
            segments=1,
        )
        self.segments.append(profile)

    # -- results ---------------------------------------------------------

    def profile(self) -> RunProfile:
        """The merged profile of every finished segment."""
        if self._open:
            # A still-open segment (caller asked mid-run, or the run
            # raised): snapshot what we have.
            self._finalize_segment()
        return RunProfile.merge(self.segments)

    def samples_by_segment(self) -> list:
        """Raw per-segment sample streams (``keep_samples=True`` only)."""
        return self.samples

    # -- heartbeat --------------------------------------------------------

    def _emit_heartbeat(self, round_no: int) -> None:
        stream = self.heartbeat_stream
        if stream is None:
            stream = sys.stderr
        extra = f"live={self._last_live}" if self._last_live is not None else ""
        print(
            format_heartbeat(
                self.heartbeat_label,
                round_no,
                self._limit,
                elapsed_s=self._time_sum,
                unit="rounds",
                extra=extra,
            ),
            file=stream,
        )
