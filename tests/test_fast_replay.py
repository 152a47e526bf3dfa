"""The section-memoized fast path: equivalence, eligibility, caches.

The contract under test is strong: :class:`repro.sim.fast.FastReplaySimulator`
must be *bit-identical* to the reference :class:`IntermittentSimulator` on
every eligible run — same cycle buckets, same ``checkpoints_by_cause``,
same power-cycle and output counts — and :func:`simulate_fast` must fall
back to the reference (transparently and exactly) whenever a run is not
eligible.  The optional C chain-scan kernel (:mod:`repro.core.cext`) must
in turn be branch-identical to the pure-Python generator it ports.
"""

import pytest

from repro.common.errors import SimulationError
from repro.core import cext
from repro.core.config import ClankConfig, PolicyOptimizations
from repro.core.detector import IdempotencyDetector, chain_scan_engine
from repro.eval.runner import pi_words_for
from repro.obs.metrics import COUNTERS
from repro.obs.recorder import MemoryRecorder, NullRecorder
from repro.power.schedules import ExponentialPower, ReplayPower
from repro.sim.fast import (
    FastPathIneligible,
    FastReplaySimulator,
    dispatch_stats,
    fast_path_enabled,
    last_kernel,
    simulate_fast,
)
from repro.sim.sections import (
    SectionMap,
    cache_stats,
    clear_cache,
    get_section_map,
)
from repro.sim.simulator import IntermittentSimulator
from repro.trace.access import READ, WRITE
from repro.workloads import get_trace

from tests.conftest import DATA_WORD, make_trace

CONFIGS = [(1, 0, 0, 0), (8, 4, 0, 0), (8, 4, 2, 0), (16, 8, 4, 4)]

OPT_COMBOS = [
    PolicyOptimizations.none(),
    PolicyOptimizations.all(),
    PolicyOptimizations(ignore_false_writes=True),
    PolicyOptimizations(latest_checkpoint=True),
    PolicyOptimizations(no_wf_overflow=True, ignore_false_writes=True),
]


def _pair(trace, config, schedule_args, **kw):
    """(reference, fast) result dicts for one run; both verify=False."""
    ref = IntermittentSimulator(
        trace, config, ExponentialPower(*schedule_args), verify=False, **kw
    ).run()
    fast = simulate_fast(
        trace, config, ExponentialPower(*schedule_args), verify=False, **kw
    )
    return (
        ref.to_dict(include_derived=False),
        fast.to_dict(include_derived=False),
    )


class TestEquivalence:
    """Fast path vs. reference, across the shapes the evaluation sweeps."""

    @pytest.mark.parametrize("name", ["crc", "fft", "rc4", "qsort"])
    def test_buffer_grid(self, name):
        trace = get_trace(name, "small")
        for spec in CONFIGS:
            config = ClankConfig.from_tuple(spec)
            for seed in (1, 2):
                for on in (800, 2000):
                    a, b = _pair(
                        trace, config, (on, seed),
                        perf_watchdog="auto", progress_watchdog="auto",
                    )
                    assert a == b, (name, spec, seed, on)

    def test_optimization_combos(self):
        trace = get_trace("crc", "small")
        for opts in OPT_COMBOS:
            config = ClankConfig(8, 4, 2, 4, optimizations=opts)
            for seed in (3, 4):
                a, b = _pair(
                    trace, config, (1200, seed),
                    perf_watchdog="auto", progress_watchdog="auto",
                )
                assert a == b, opts

    def test_untracked_wbb_owned_writes(self):
        """Small-RF configs with a WBB under latest-checkpoint: sections
        enter the untracked tail with live WBB entries, and writes to the
        captured addresses must pass in place (never a latest_write
        boundary) in the reference simulator and the chain scan alike."""
        trace = get_trace("rc4", "small")
        for spec in ((1, 0, 1, 0), (2, 1, 1, 0), (2, 2, 2, 0)):
            config = ClankConfig.from_tuple(spec)
            for seed in (1, 4):
                a, b = _pair(
                    trace, config, (600, seed),
                    perf_watchdog="auto", progress_watchdog="auto",
                )
                assert a == b, (spec, seed)
                assert a["checkpoints_by_cause"].get("latest_write", 0) == \
                    b["checkpoints_by_cause"].get("latest_write", 0)

    def test_no_watchdogs_and_perf_only(self):
        trace = get_trace("fft", "small")
        config = ClankConfig.from_tuple((8, 4, 2, 0))
        for kw in (
            dict(perf_watchdog=0, progress_watchdog=0),
            dict(perf_watchdog="auto", progress_watchdog=0),
            dict(perf_watchdog=0, progress_watchdog="auto"),
        ):
            a, b = _pair(trace, config, (900, 7), **kw)
            assert a == b, kw

    def test_pi_marking(self):
        trace = get_trace("rc4", "small")
        piw = pi_words_for(trace)
        config = ClankConfig(8, 4, 2, 0,
                             optimizations=PolicyOptimizations.all())
        for seed in (5, 6):
            a, b = _pair(
                trace, config, (1000, seed),
                pi_words=piw, perf_watchdog="auto", progress_watchdog="auto",
            )
            assert a == b, seed

    def test_forced_checkpoints(self):
        trace = get_trace("qsort", "small")
        n = len(trace.accesses)
        forced = frozenset({0, n // 3, n // 2, n})
        config = ClankConfig.from_tuple((8, 4, 0, 0))
        for seed in (8, 9):
            a, b = _pair(
                trace, config, (700, seed),
                forced_checkpoints=forced,
                perf_watchdog="auto", progress_watchdog="auto",
            )
            assert a == b, seed

    def test_tiny_buffers_heavy_watchdog_cuts(self):
        # rf=1 under ignore-false-writes is the shape that exercises
        # watchdog_cut_safe hardest (long sections, frequent cuts).
        trace = get_trace("crc", "small")
        config = ClankConfig(
            1, 0, 0, 0,
            optimizations=PolicyOptimizations(ignore_false_writes=True),
        )
        for seed in (1, 2, 3):
            a, b = _pair(
                trace, config, (800, seed),
                perf_watchdog=0, progress_watchdog="auto",
            )
            assert a == b, seed


@pytest.fixture
def c_lib():
    lib = cext.chain_scan_lib()
    if lib is None:
        pytest.skip(f"C kernel unavailable: {cext.cext_status()}")
    return lib


def _walkers(lib, trace, config, schedule_args, **kw):
    """(C walk, Python walker) outcomes of one run, each engine driven
    directly: the result dict with its ``checkpoints_by_cause`` key
    order, the typed ineligibility, ``"stalled"``, or ``None`` (the C
    walk handed the run back to the Python walker)."""
    def outcome(run):
        try:
            res = run()
        except FastPathIneligible as exc:
            return ("ineligible", exc.reason)
        except SimulationError:
            return "stalled"
        if res is None:
            return None
        d = res.to_dict(include_derived=False)
        return d, list(d["checkpoints_by_cause"])

    def sim():
        return FastReplaySimulator(
            trace, config, ExponentialPower(*schedule_args), verify=False,
            **kw,
        )

    return outcome(lambda: sim().run_c(lib)), outcome(lambda: sim().run())


class TestCWalk:
    """The C section walk vs. the Python walker it ports (the oracle)."""

    def test_grid(self, c_lib):
        # Configs x policy opts x PI marking x forced (epoch) checkpoints.
        for name in ("crc", "qsort"):
            trace = get_trace(name, "small")
            n = len(trace.accesses)
            markings = (
                {},
                {"pi_words": pi_words_for(trace)},
                {"forced_checkpoints": frozenset({0, n // 3, n // 2, n})},
            )
            for spec in CONFIGS:
                for opts in OPT_COMBOS:
                    config = ClankConfig(*spec, optimizations=opts)
                    for marking in markings:
                        c, py = _walkers(
                            c_lib, trace, config, (900, 3),
                            perf_watchdog="auto", progress_watchdog="auto",
                            **marking,
                        )
                        assert c == py, (name, spec, opts, marking)

    def test_watchdog_cuts_on_tiny_buffers(self, c_lib, monkeypatch):
        # Both watchdogs on one-entry buffers under ignore-false-writes:
        # off-chain resume keys, cut-safety round trips (safe and
        # unsafe) all occur, and every outcome must match.
        verdicts = []
        safe = SectionMap.watchdog_cut_safe

        def spy(self, *args):
            verdict = safe(self, *args)
            verdicts.append(verdict)
            return verdict

        monkeypatch.setattr(SectionMap, "watchdog_cut_safe", spy)
        opts = PolicyOptimizations(ignore_false_writes=True)
        overlay = 0
        for name in ("crc", "rc4"):
            trace = get_trace(name, "small")
            for spec in ((1, 0, 0, 0), (2, 1, 1, 0)):
                config = ClankConfig(*spec, optimizations=opts)
                for seed in range(1, 7):
                    for kw in (
                        dict(perf_watchdog=0, progress_watchdog="auto"),
                        dict(perf_watchdog="auto", progress_watchdog=150),
                    ):
                        c, py = _walkers(c_lib, trace, config, (700, seed),
                                         **kw)
                        assert c == py, (name, spec, seed, kw)
                ov = get_section_map(trace, config)._ov
                overlay += len(ov[0]) if ov is not None else 0
        assert overlay, "no off-chain section was resolved"
        assert True in verdicts and False in verdicts, verdicts

    def test_power_cycle_abort_reruns_python(self, c_lib):
        # The C walk hands a max_power_cycles abort back; the Python
        # walker then raises the reference's exact error.
        trace = get_trace("fft", "small")
        config = ClankConfig.from_tuple((8, 4, 2, 0))
        kw = dict(max_power_cycles=3)
        c, py = _walkers(c_lib, trace, config, (300, 1), **kw)
        assert c is None and py == "stalled"
        with pytest.raises(SimulationError):
            simulate_fast(trace, config, ExponentialPower(300, seed=1),
                          verify=False, **kw)

    def test_lazy_map_outside_plan(self, c_lib):
        # A map no sweep plan family-built gets its flat canonical chain
        # from a one-member pass, which the family counters skip.
        clear_cache()
        COUNTERS.reset()
        trace = get_trace("rc4", "small")
        config = ClankConfig.from_tuple((16, 8, 4, 4))
        smap = get_section_map(trace, config)
        assert smap._flat is None
        c, py = _walkers(c_lib, trace, config, (1100, 5),
                         perf_watchdog="auto", progress_watchdog="auto")
        assert c == py
        assert smap._flat is not None
        assert cache_stats()["family_passes"] == 0

    def test_dispatch_reports_the_walker(self, c_lib):
        COUNTERS.reset()
        trace = get_trace("crc", "small")
        config = ClankConfig.from_tuple((8, 4, 2, 0))
        kw = dict(perf_watchdog="auto", progress_watchdog="auto")
        simulate_fast(trace, config, ExponentialPower(900, seed=1),
                      verify=False, **kw)
        assert last_kernel() == "c"
        assert dispatch_stats()["c_walk"] == 1
        simulate_fast(trace, config, ExponentialPower(900, seed=1),
                      verify=True, **kw)
        assert last_kernel() is None
        assert dispatch_stats()["c_walk"] == 1


class TestEligibility:
    """Runs the section walk cannot carry must raise, and simulate_fast
    must transparently (and exactly) rerun them on the reference."""

    def _sim(self, **kw):
        trace = get_trace("crc", "small")
        config = ClankConfig.from_tuple((8, 4, 2, 0))
        defaults = dict(verify=False, perf_watchdog="auto",
                        progress_watchdog="auto")
        defaults.update(kw)
        return FastReplaySimulator(
            trace, config, ExponentialPower(900, seed=1), **defaults
        )

    def test_verify_ineligible(self):
        with pytest.raises(FastPathIneligible):
            self._sim(verify=True).run()

    def test_live_recorder_ineligible(self):
        with pytest.raises(FastPathIneligible):
            self._sim(recorder=MemoryRecorder()).run()

    def test_null_recorder_eligible(self):
        # NullRecorder normalizes to "no recorder": stays on the fast path.
        assert self._sim(recorder=NullRecorder()).run().completed

    def test_volatile_ranges_ineligible(self):
        trace = get_trace("crc", "small")
        vol = (trace.memory_map.word_range("stack"),)
        with pytest.raises(FastPathIneligible):
            self._sim(volatile_ranges=vol).run()

    def test_pi_hazard_ineligible(self):
        # An access-marked PI write aliasing a tracked write of the same
        # word, under ignore-false-writes: the static hazard trips.
        trace = make_trace(
            [(WRITE, 0, 5), (READ, 1), (WRITE, 0, 5), (WRITE, 2, 1)]
        )
        config = ClankConfig(
            4, 2, 1, 0,
            optimizations=PolicyOptimizations(ignore_false_writes=True),
        )
        smap = SectionMap(trace, config, pi_access_indices=frozenset({2}))
        assert smap.pi_hazard
        sim = FastReplaySimulator(
            trace, config, ExponentialPower(500, seed=1),
            pi_access_indices=frozenset({2}), verify=False,
        )
        with pytest.raises(FastPathIneligible):
            sim.run()

    def test_fallback_is_exact(self):
        # verify=True is ineligible; simulate_fast must return the
        # reference's own result for the identical schedule.
        trace = get_trace("fft", "small")
        config = ClankConfig.from_tuple((8, 4, 2, 0))
        ref = IntermittentSimulator(
            trace, config, ExponentialPower(900, seed=2), verify=True
        ).run()
        COUNTERS.reset()
        via = simulate_fast(
            trace, config, ExponentialPower(900, seed=2), verify=True
        )
        assert dispatch_stats()["fast"] == 0
        assert dispatch_stats()["fallback"] == 1
        assert via.to_dict() == ref.to_dict()

    def test_repro_fast_env_disables(self, monkeypatch):
        monkeypatch.setenv("REPRO_FAST", "0")
        assert not fast_path_enabled()
        COUNTERS.reset()
        trace = get_trace("crc", "small")
        config = ClankConfig.from_tuple((8, 4, 0, 0))
        simulate_fast(
            trace, config, ExponentialPower(900, seed=1), verify=False,
            perf_watchdog="auto", progress_watchdog="auto",
        )
        assert dispatch_stats()["fast"] == 0
        assert dispatch_stats()["fallback"] == 1
        monkeypatch.setenv("REPRO_FAST", "1")
        assert fast_path_enabled()


class TestCExtension:
    """The C chain-scan kernel vs. the pure-Python reference generator."""

    def _chain(self, det, ct, forced, pw, pi_idx):
        scratch = det.chain_scratch(ct)
        return list(
            (s, v, end, cause, steps)
            for s, v, end, cause, steps, _ in det.straightline_chain(
                ct, 0, False, -1, forced, pw, pi_idx, scratch
            )
        )

    def test_engine_matches_python_generator(self):
        lib = cext.chain_scan_lib()
        if lib is None:
            pytest.skip(f"C kernel unavailable: {cext.cext_status()}")
        names = cext.CAUSE_NAMES
        trace = get_trace("crc", "small")
        ct = trace.compiled()
        forced = [0, ct.n // 2]
        piw = pi_words_for(trace)
        for spec in CONFIGS:
            for opts in OPT_COMBOS:
                config = ClankConfig(*spec, optimizations=opts)
                det = IdempotencyDetector(
                    config, trace.memory_map.text_word_range
                )
                eng = chain_scan_engine(config, ct, forced, piw, frozenset())
                assert eng is not None
                nsec = eng.scan(0, 0, -1)
                from_c = [
                    (
                        eng.out_start[k], eng.out_variant[k], eng.out_end[k],
                        names[eng.out_cause[k]],
                        tuple(
                            eng.out_steps[eng.out_steps_off[k]:
                                          eng.out_steps_off[k + 1]]
                        ),
                    )
                    for k in range(nsec)
                ]
                assert from_c == self._chain(det, ct, forced, piw,
                                             frozenset())

    def test_first_dw_matches_python_collect_dw(self):
        lib = cext.chain_scan_lib()
        if lib is None:
            pytest.skip(f"C kernel unavailable: {cext.cext_status()}")
        trace = get_trace("fft", "small")
        ct = trace.compiled()
        opts = PolicyOptimizations(ignore_false_writes=True,
                                   no_wf_overflow=True)
        config = ClankConfig(4, 2, 1, 0, optimizations=opts)
        det = IdempotencyDetector(config, trace.memory_map.text_word_range)
        eng = chain_scan_engine(config, ct, [], frozenset(), frozenset())
        scratch = det.chain_scratch(ct)
        starts = [
            (s, v) for s, v, *_ in det.straightline_chain(
                ct, 0, False, -1, [], frozenset(), frozenset(), scratch
            )
        ][:8]
        for s, v in starts:
            chain = det.straightline_chain(
                ct, s, v == 2, s if v == 1 else -1, [],
                frozenset(), frozenset(), scratch, collect_dw=True,
            )
            py_dw = next(chain)[5]
            chain.close()
            c_dw = eng.scan_first_dw(s, 1 if v == 2 else 0,
                                     s if v == 1 else -1)
            assert list(c_dw) == list(py_dw)

    def test_repro_cext_gate(self, monkeypatch):
        monkeypatch.setenv("REPRO_CEXT", "0")
        cext.reset_for_tests()
        try:
            assert cext.chain_scan_lib() is None
            assert "disabled" in cext.cext_status()
            # With the kernel gated off the SectionMap silently uses the
            # Python generator — and must produce the same sections.
            trace = get_trace("crc", "small")
            config = ClankConfig.from_tuple((8, 4, 2, 0))
            py_map = SectionMap(trace, config)
            py_map.section(0, 0)
            monkeypatch.setenv("REPRO_CEXT", "1")
            cext.reset_for_tests()
            c_map = SectionMap(trace, config)
            # The Python path materializes the whole chain eagerly; the C
            # path indexes it and materializes per query — every section
            # the reference enumerated must come back identical (the C
            # path keeps WBB steps as array slices).
            assert py_map._sections
            for key, sec in py_map._sections.items():
                end, cause, kind, steps = c_map.section(key >> 2, key & 3)
                assert (end, cause, kind, tuple(steps)) == sec
        finally:
            cext.reset_for_tests()


class TestWatchdogCutSafe:
    def test_trivial_cases(self):
        trace = get_trace("crc", "small")
        config = ClankConfig(
            1, 0, 0, 0,
            optimizations=PolicyOptimizations(ignore_false_writes=True),
        )
        smap = SectionMap(trace, config)
        end, _, _, _ = smap.section(0, 0)
        # No failed cycle survived past the cut: nothing can be stale.
        assert smap.watchdog_cut_safe(0, 0, 1, max(2, end), [])
        # Reaches at or below the cut are re-committed by the committing
        # cycle itself.
        assert smap.watchdog_cut_safe(0, 0, 2, max(3, end), [(2, 0), (1, 0)])

    def test_direct_writes_memoized(self):
        trace = get_trace("crc", "small")
        config = ClankConfig(
            1, 0, 0, 0,
            optimizations=PolicyOptimizations(ignore_false_writes=True),
        )
        smap = SectionMap(trace, config)
        dw = smap._direct_writes(0, 0)
        assert list(dw) == sorted(dw)
        assert smap._direct_writes(0, 0) is dw  # cached


class TestCaches:
    def test_section_map_cache_hits(self):
        clear_cache()
        COUNTERS.reset()
        trace = get_trace("crc", "small")
        config = ClankConfig.from_tuple((8, 4, 0, 0))
        m1 = get_section_map(trace, config)
        m2 = get_section_map(trace, config)
        assert m1 is m2
        stats = cache_stats()
        assert stats["hits"] == 1
        assert stats["misses"] == 1
        assert stats["cached"] == 1
        assert stats["evictions"] == 0
        # A different config is a different key.
        get_section_map(trace, ClankConfig.from_tuple((1, 0, 0, 0)))
        assert cache_stats()["misses"] == 2

    def test_fast_stats_counts(self):
        COUNTERS.reset()
        trace = get_trace("crc", "small")
        config = ClankConfig.from_tuple((8, 4, 0, 0))
        kw = dict(perf_watchdog="auto", progress_watchdog="auto")
        simulate_fast(trace, config, ExponentialPower(900, seed=1),
                      verify=False, **kw)
        simulate_fast(trace, config, ExponentialPower(900, seed=1),
                      verify=True, **kw)
        stats = dispatch_stats()
        assert stats["fast"] == 1 and stats["fallback"] == 1

    def test_compiled_trace_staleness(self):
        trace = make_trace([(WRITE, 0, 1), (READ, 0), (WRITE, 1, 2)])
        ct = trace.compiled()
        assert trace.compiled() is ct  # cached
        # Boundary-element identity is the safety net...
        trace.accesses.append(trace.accesses.pop())  # same objects: cached
        assert trace.compiled() is ct
        from repro.trace.access import Access
        trace.accesses.append(Access(READ, DATA_WORD, 1, 4))
        assert trace.compiled() is not ct  # length changed: rebuilt
        # ...and invalidate() is the explicit contract for interior edits.
        ct2 = trace.compiled()
        trace.invalidate()
        assert trace.compiled() is not ct2


class TestVolDirtyRollback:
    def test_rolled_back_volatile_words_not_billed(self):
        """Words dirtied by a rolled-back section must not inflate the next
        checkpoint's incremental-save cost (regression: ``vol_dirty`` was
        not cleared on power loss)."""
        vol_word = DATA_WORD + 4
        trace = make_trace(
            [
                (WRITE, 0, 11),
                (WRITE, 1, 12),
                (WRITE, 2, 13),
                (WRITE, 3, 14),
                (WRITE, 4, 15),  # the volatile word
                (WRITE, 5, 16),
            ]
        )
        config = ClankConfig.from_tuple((8, 8, 2, 0))
        # Cycle 1 (65): dies mid access 5, after dirtying the volatile
        # word.  Cycle 2 (106): progress watchdog fires after access 2;
        # its checkpoint precedes the volatile write, so with the rollback
        # clearing vol_dirty it must bill zero volatile words; it then
        # re-dirties the word and dies at access 5.  Cycle 3 (200): runs
        # from the cut to the final checkpoint, which bills one.
        result = IntermittentSimulator(
            trace,
            config,
            ReplayPower([65, 106, 200]),
            progress_watchdog=9,
            progress_watchdog_adaptive=False,
            volatile_ranges=((vol_word, vol_word + 1),),
            verify=True,
        ).run()
        assert result.verified
        assert result.checkpoints_by_cause == {"progress_wdt": 1, "final": 1}
        base = IntermittentSimulator(
            trace, config, ReplayPower([10 ** 6]), verify=True
        ).cost_model
        assert result.checkpoint_cycles == (
            base.checkpoint_cycles(0, 0) + base.checkpoint_cycles(0, 1)
        )
