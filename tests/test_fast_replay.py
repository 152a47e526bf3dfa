"""The section-memoized fast path: equivalence, eligibility, caches.

The contract under test is strong: the C section walk behind
:func:`repro.sim.fast.simulate_fast` must be *bit-identical* to the
reference :class:`IntermittentSimulator` on every eligible run — same
cycle buckets, same ``checkpoints_by_cause`` (key order included), same
power-cycle and output counts, the same no-forward-progress error — and
:func:`simulate_fast` must fall back to the reference (transparently and
exactly) whenever a run is not eligible.  The C chain-scan kernel
(:mod:`repro.core.cext`) must in turn be branch-identical to the
pure-Python generator it ports.
"""

import pytest

from repro.common.errors import SimulationError
from repro.core import cext
from repro.core.config import ClankConfig, PolicyOptimizations
from repro.core.detector import kernel_params, scan_section
from repro.eval.runner import pi_words_for
from repro.obs.metrics import COUNTERS
from repro.obs.recorder import MemoryRecorder, NullRecorder
from repro.power.schedules import ExponentialPower, ReplayPower
from repro.sim.fast import dispatch_stats, last_dispatch, simulate_fast
from repro.sim.sections import (
    SectionMap,
    build_family,
    cache_stats,
    clear_cache,
    get_section_map,
)
from repro.sim.simulator import IntermittentSimulator
from repro.trace.access import READ, WRITE
from repro.workloads import get_trace

from tests.chain_oracle import oracle_chain
from tests.conftest import DATA_WORD, make_trace
from tests.cut_oracle import c_decision, direct_writes, watchdog_cut_safe

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


def _outcome(run):
    """A run's result dict with its ``checkpoints_by_cause`` key order,
    or the text of the stall it raised."""
    try:
        res = run()
    except SimulationError as exc:
        return ("stalled", str(exc))
    d = res.to_dict(include_derived=False)
    return d, list(d["checkpoints_by_cause"])


def _walk_vs_reference(trace, config, schedule_args, **kw):
    """(C walk outcome, its dispatch stamp, reference outcome) of one
    run: the walk through :func:`simulate_fast`, the reference run
    directly on the identical schedule."""
    walked = _outcome(lambda: simulate_fast(
        trace, config, ExponentialPower(*schedule_args), verify=False, **kw
    ))
    stamp = last_dispatch()
    ref = _outcome(lambda: IntermittentSimulator(
        trace, config, ExponentialPower(*schedule_args), verify=False, **kw
    ).run())
    return walked, stamp, ref


class TestCWalk:
    """The C section walk vs. the reference simulator (the oracle)."""

    def test_grid(self, c_lib):
        # Configs x policy opts x PI marking x forced (epoch) checkpoints.
        stamps = set()
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
                        walked, stamp, ref = _walk_vs_reference(
                            trace, config, (900, 3),
                            perf_watchdog="auto", progress_watchdog="auto",
                            **marking,
                        )
                        assert walked == ref, (name, spec, opts, marking)
                        stamps.add(stamp)
        assert ("fast", None, "c") in stamps

    def test_watchdog_cuts_on_tiny_buffers(self, c_lib):
        # Both watchdogs on one-entry buffers under ignore-false-writes:
        # off-chain resume keys and cut decisions (safe and unsafe) all
        # occur, and every outcome must match.
        COUNTERS.reset()
        opts = PolicyOptimizations(ignore_false_writes=True)
        overlay = 0
        reasons = set()
        for name in ("crc", "rc4"):
            trace = get_trace(name, "small")
            for spec in ((1, 0, 0, 0), (2, 1, 1, 0)):
                config = ClankConfig(*spec, optimizations=opts)
                for seed in range(1, 7):
                    for kw in (
                        dict(perf_watchdog=0, progress_watchdog="auto"),
                        dict(perf_watchdog="auto", progress_watchdog=150),
                    ):
                        walked, stamp, ref = _walk_vs_reference(
                            trace, config, (700, seed), **kw)
                        assert walked == ref, (name, spec, seed, kw)
                        reasons.add(stamp[1])
                ov = get_section_map(trace, config)._ov
                overlay += len(ov[0]) if ov is not None else 0
        assert overlay, "no off-chain section was resolved"
        assert COUNTERS.snapshot().get("walk.safe_cuts"), "no safe cut"
        assert reasons == {None, "watchdog_cut"}

    def test_power_cycle_stall_stops_in_the_walk(self, c_lib, monkeypatch):
        # A max_power_cycles abort ends in the walk itself, with the
        # reference's exact error at both of its sites (a power loss
        # mid-trace, and a boot loop whose restarts never fit).
        trace = get_trace("fft", "small")
        config = ClankConfig.from_tuple((8, 4, 2, 0))
        cases = [((300, 1), dict(max_power_cycles=n)) for n in (2, 3, 5)]
        cases.append(((300, 1), dict(max_power_cycles=20)))
        expected = [_walk_vs_reference(trace, config, args, **kw)[2]
                    for args, kw in cases]
        texts = [ref[1] for ref in expected]
        assert any("exceeded" in t for t in texts)
        assert any("no forward progress" in t for t in texts)

        def no_rerun(self):
            raise AssertionError("the stall was rerun on the reference")

        monkeypatch.setattr(IntermittentSimulator, "run", no_rerun)
        for (args, kw), ref in zip(cases, expected):
            assert ref[0] == "stalled"
            walked = _outcome(lambda: simulate_fast(
                trace, config, ExponentialPower(*args), verify=False, **kw
            ))
            assert walked == ref, kw

    def test_lazy_map_outside_plan(self, c_lib):
        # A one-row run over a cold map family-builds it alone: a
        # one-member pass, which the family counters skip.
        clear_cache()
        COUNTERS.reset()
        trace = get_trace("rc4", "small")
        config = ClankConfig.from_tuple((16, 8, 4, 4))
        smap = get_section_map(trace, config)
        assert smap._flat is None
        walked, stamp, ref = _walk_vs_reference(
            trace, config, (1100, 5),
            perf_watchdog="auto", progress_watchdog="auto")
        assert walked == ref and stamp == ("fast", None, "c")
        assert smap._flat is not None
        assert cache_stats()["family_passes"] == 0

    def test_dispatch_reports_the_walker(self, c_lib):
        COUNTERS.reset()
        trace = get_trace("crc", "small")
        config = ClankConfig.from_tuple((8, 4, 2, 0))
        kw = dict(perf_watchdog="auto", progress_watchdog="auto")
        simulate_fast(trace, config, ExponentialPower(900, seed=1),
                      verify=False, **kw)
        assert last_dispatch() == ("fast", None, "c")
        assert dispatch_stats()["fast"] == 1
        simulate_fast(trace, config, ExponentialPower(900, seed=1),
                      verify=True, **kw)
        assert last_dispatch() == ("reference", "verify", None)
        assert dispatch_stats()["fast"] == 1


class TestEligibility:
    """Runs the section walk cannot carry must go to the reference with
    their typed reason, transparently and exactly."""

    def _run(self, trace=None, config=None, **kw):
        trace = trace or get_trace("crc", "small")
        config = config or ClankConfig.from_tuple((8, 4, 2, 0))
        defaults = dict(verify=False, perf_watchdog="auto",
                        progress_watchdog="auto")
        defaults.update(kw)
        result = simulate_fast(
            trace, config, ExponentialPower(900, seed=1), **defaults
        )
        ref = IntermittentSimulator(
            trace, config, ExponentialPower(900, seed=1), **defaults
        ).run()
        assert result.to_dict() == ref.to_dict()
        return last_dispatch()

    def test_verify_ineligible(self, c_lib):
        assert self._run(verify=True) == ("reference", "verify", None)

    def test_live_recorder_ineligible(self, c_lib):
        assert self._run(recorder=MemoryRecorder()) == (
            "reference", "live_recorder", None)

    def test_null_recorder_eligible(self, c_lib):
        # NullRecorder normalizes to "no recorder": stays on the walk.
        assert self._run(recorder=NullRecorder()) == ("fast", None, "c")

    def test_volatile_ranges_ineligible(self, c_lib):
        trace = get_trace("crc", "small")
        vol = (trace.memory_map.word_range("stack"),)
        assert self._run(volatile_ranges=vol) == (
            "reference", "volatile_ranges", None)

    def test_pi_hazard_ineligible(self, c_lib):
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
        assert self._run(trace, config, pi_access_indices=frozenset({2}),
                         perf_watchdog=0, progress_watchdog=0) == (
            "reference", "pi_hazard", None)

    def test_no_kernel_runs_the_reference(self, monkeypatch):
        monkeypatch.setenv("REPRO_CEXT", "0")
        cext.reset_for_tests()
        try:
            assert self._run() == ("reference", "no_cext", None)
        finally:
            cext.reset_for_tests()

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


class TestCExtension:
    """The C chain-scan kernel vs. the Python chain oracle."""

    @staticmethod
    def _chain(trace, config, forced, pw):
        """The Python canonical chain: ``(start, variant, end, cause,
        wbb_steps)`` per section."""
        m = SectionMap(trace, config, pi_words=pw,
                       forced_checkpoints=frozenset(forced))
        return [
            (key >> 2, key & 3, end, cext.CAUSE_NAMES[cid], steps)
            for key, end, cid, steps, _ in oracle_chain(m)
        ]

    @staticmethod
    def _engine(lib, config, ct, forced, piw):
        """A one-member engine for ``config`` over ``ct``."""
        return cext.ChainScanEngine(
            lib, ct, config.prefix_low_bits, forced, piw, frozenset(),
            [kernel_params(config)],
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
                eng = self._engine(lib, config, ct, forced, piw)
                keys, ends, causes, soff, steps, _ = eng.scan()
                from_c = [
                    (keys[k] >> 2, keys[k] & 3, ends[k], names[causes[k]],
                     tuple(steps[soff[k]:soff[k + 1]]))
                    for k in range(eng.nev[0])
                ]
                assert from_c == self._chain(trace, config, forced, piw)

    def test_first_dw_matches_python_scan(self):
        lib = cext.chain_scan_lib()
        if lib is None:
            pytest.skip(f"C kernel unavailable: {cext.cext_status()}")
        trace = get_trace("fft", "small")
        ct = trace.compiled()
        opts = PolicyOptimizations(ignore_false_writes=True,
                                   no_wf_overflow=True)
        config = ClankConfig(4, 2, 1, 0, optimizations=opts)
        eng = self._engine(lib, config, ct, [], frozenset())
        starts = [
            (s, v) for s, v, *_ in self._chain(trace, config, [], None)
        ][:8]
        for s, v in starts:
            py_dw = scan_section(
                ct, kernel_params(config), config.prefix_low_bits, (),
                frozenset(), frozenset(), s, v,
            )[3]
            steps = eng.scan(s, v, xflags=cext.F_FIRST_DW)[4]
            assert eng.nev[0] == 1
            assert list(steps[:eng.nst[0]]) == py_dw

    def test_repro_cext_gate(self, monkeypatch):
        monkeypatch.setenv("REPRO_CEXT", "0")
        cext.reset_for_tests()
        try:
            assert cext.chain_scan_lib() is None
            assert "disabled" in cext.cext_status()
        finally:
            cext.reset_for_tests()


class TestWatchdogCutSafe:
    @staticmethod
    def _map():
        config = ClankConfig(
            1, 0, 0, 0,
            optimizations=PolicyOptimizations(ignore_false_writes=True),
        )
        clear_cache()
        return build_family(get_trace("crc", "small"), [config])[0]

    def test_trivial_cases(self, c_lib):
        smap = self._map()
        end = smap.scan_chain(0, 0)[0][1]
        for p, f, reaches in (
            # No failed cycle survived past the cut: nothing can be stale.
            (1, max(2, end), []),
            # Reaches at or below the cut are re-committed by the
            # committing cycle itself.
            (2, max(3, end), [(2, 0), (1, 0)]),
        ):
            assert watchdog_cut_safe(smap, 0, 0, p, f, reaches)
            assert c_decision(smap, 0, 0, p, f, reaches)
        # Neither asked for the section's direct writes.
        assert smap._dw is None

    def test_direct_writes_memoized(self, c_lib):
        smap = self._map()
        end = smap.scan_chain(0, 0)[0][1]
        for _ in range(2):
            c_decision(smap, 0, 0, 1, max(2, end), [(max(2, end), 0)])
        keys, off, cnt, idx = smap._dw
        assert list(keys) == [0]  # loaded once
        dw = direct_writes(smap, 0, 0)
        assert list(idx[off[0]:off[0] + cnt[0]]) == list(dw)
        assert list(dw) == sorted(dw)


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
        # A different config is a different key.
        get_section_map(trace, ClankConfig.from_tuple((1, 0, 0, 0)))
        assert cache_stats()["misses"] == 2

    def test_map_cache_keeps_every_map_built(self):
        """Maps built outside any sweep are kept too: a second
        pass over 1,100 distinct configs returns the very same maps."""
        clear_cache()
        COUNTERS.reset()
        trace = get_trace("crc", "small")
        configs = [ClankConfig.from_tuple((r, w, wb, 0))
                   for r in range(1, 12) for w in range(10)
                   for wb in range(10)]
        first = [get_section_map(trace, c) for c in configs]
        assert cache_stats()["misses"] == len(configs) == 1100
        assert cache_stats()["hits"] == 0
        second = [get_section_map(trace, c) for c in configs]
        assert sum(a is b for a, b in zip(first, second)) == 1100
        stats = cache_stats()
        assert stats["misses"] == 1100 and stats["hits"] == 1100
        assert stats["cached"] == 1100
        clear_cache()

    def test_fast_stats_counts(self, c_lib):
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
