"""Idempotency detection and buffer-management logic (Sections 3.1-3.2).

The detector observes every (non-ignored) memory access and decides whether
it may proceed, must be absorbed by the Write-back Buffer, or requires a
checkpoint first.  A write to a read-dominated address is an idempotency
violation; a full tracking buffer is treated the same way (Section 3.1.1).

Decisions returned to the caller (the intermittent simulator or the live
ISS attachment):

* ``PROCEED`` — the access goes through; writes commit directly to
  non-volatile memory (the address is write-dominated, untracked-but-safe,
  or a value-preserving "false write").
* ``PROCEED_WBB`` — the write was captured by the volatile Write-back
  Buffer; non-volatile memory keeps the original value.
* ``CHECKPOINT`` — a checkpoint must be taken *before* this access; after
  the buffers reset, re-issue the access (it will then proceed).
* ``CHECKPOINT_THEN_WRITE`` — text-segment write under ignore-TEXT: take a
  checkpoint, then commit the write directly without re-consulting the
  detector (re-issuing would checkpoint forever).
"""

from bisect import bisect_left
from typing import Dict, Optional, Tuple

from repro.core import cext
from repro.core.buffers import (
    AddressPrefixBuffer,
    ReadFirstBuffer,
    WriteBackBuffer,
    WriteFirstBuffer,
)
from repro.core.config import ClankConfig
from repro.obs.events import BufferOverflow

PROCEED = 0
PROCEED_WBB = 1
CHECKPOINT = 2
CHECKPOINT_THEN_WRITE = 3

#: Detector/replay policy revision, folded into every content-addressed
#: artifact key whose value depends on checkpoint-policy *semantics*
#: (section enumerations, cached simulation results).  Bump it whenever a policy fix changes what any of those
#: artifacts would contain for the same inputs, so warm caches from
#: older builds can never serve stale pre-fix data.  Rev 2: WBB-owned
#: writes update in place during latest-checkpoint untracked mode
#: instead of consulting the false-write test or checkpointing.
POLICY_REV = 2

#: A detector decision: (action, checkpoint cause or None).
Decision = Tuple[int, Optional[str]]

_PROCEED: Decision = (PROCEED, None)
_PROCEED_WBB: Decision = (PROCEED_WBB, None)


def kernel_params(config: ClankConfig) -> Tuple[int, int, int, int, int]:
    """A configuration's slice of the C chain-scan kernels' inputs.

    ``(rf_cap, wf_cap, wbb_cap, apb_cap, flags)`` — the policy flag bits
    are exactly the detector's optimization switches (``F_HAS_PI`` is
    added by the engines, not here).  The scalar chain engine
    (:func:`chain_scan_engine`) and the family pass share this one
    assembly; family members may differ only in these five values.
    """
    opts = config.optimizations
    flags = 0
    for on, bit in (
        (config.apb_entries > 0, cext.F_APB_ON),
        (opts.ignore_text, cext.F_IGNORE_TEXT),
        (opts.ignore_false_writes, cext.F_IGNORE_FALSE_WRITES),
        (opts.remove_duplicates, cext.F_REMOVE_DUPLICATES),
        (opts.no_wf_overflow, cext.F_NO_WF_OVERFLOW),
        (opts.latest_checkpoint, cext.F_LATEST_CHECKPOINT),
    ):
        if on:
            flags |= bit
    return (config.rf_entries, config.wf_entries, config.wbb_entries,
            config.apb_entries, flags)


def chain_scan_engine(config: ClankConfig, ct, forced_sorted, pi_words,
                      pi_indices):
    """A compiled-kernel engine for ``config``'s chain scans over ``ct``.

    Returns a :class:`repro.core.cext.ChainScanEngine` bound to the
    configuration and the given trace/marking, or ``None`` when the
    optional C kernel is unavailable (no compiler, ``REPRO_CEXT=0``, or
    any build/load failure) — callers then use
    :meth:`IdempotencyDetector.straightline_chain`, the pure-Python
    reference.
    """
    lib = cext.chain_scan_lib()
    if lib is None:
        return None
    params = kernel_params(config) + ct.text_range + (config.prefix_low_bits,)
    return cext.ChainScanEngine(
        lib, ct, params, forced_sorted, pi_words, pi_indices
    )


class ChainScratch:
    """Flat membership arrays for the straight-line section scan.

    One slot per dense word (or prefix) id; a slot is a member of the
    current section's buffer iff it holds the current generation stamp.
    Bumping the stamp empties all four buffers in O(1), so the scan never
    pays a clear proportional to the footprint.
    """

    __slots__ = ("gen", "rf", "wf", "wbb", "apb")

    def __init__(self, n_words: int, n_prefixes: int):
        self.gen = 0
        self.rf = [0] * n_words
        self.wf = [0] * n_words
        self.wbb = [0] * n_words
        self.apb = [0] * n_prefixes


class IdempotencyDetector:
    """Clank's detector + management logic over the four buffers.

    Args:
        config: Buffer composition and policy-optimization setting.
        text_word_range: Half-open word-address range of the text segment;
            required only when ``ignore_text`` is enabled.
        recorder: Optional :class:`repro.obs.recorder.Recorder` receiving a
            :class:`~repro.obs.events.BufferOverflow` event whenever a
            buffer hits a full condition (even tolerated ones under
            no-WF-overflow).  ``None`` keeps the decision paths free of any
            recording work beyond one attribute check on the (rare)
            full-condition branches.
    """

    def __init__(
        self,
        config: ClankConfig,
        text_word_range: Optional[Tuple[int, int]] = None,
        recorder=None,
    ):
        self.config = config
        self.opts = config.optimizations
        self.rf = ReadFirstBuffer(config.rf_entries)
        self.wf = WriteFirstBuffer(config.wf_entries)
        self.wbb = WriteBackBuffer(config.wbb_entries)
        self.apb = AddressPrefixBuffer(config.apb_entries, config.prefix_low_bits)
        if self.opts.ignore_text and text_word_range is None:
            text_word_range = (0, 0)
        self._text_lo, self._text_hi = text_word_range or (0, 0)
        # The policy flags are consulted on every access of every replay;
        # flatten them out of the nested dataclass so the decision paths do
        # a single attribute fetch.
        self._ignore_text = self.opts.ignore_text
        self._ignore_false_writes = self.opts.ignore_false_writes
        self._remove_duplicates = self.opts.remove_duplicates
        self._no_wf_overflow = self.opts.no_wf_overflow
        self._latest_checkpoint = self.opts.latest_checkpoint
        # Direct references to the buffers' backing containers: membership
        # tests run once or twice per replayed access, and a set/dict probe
        # is several times cheaper than a __contains__ method call.  All
        # buffer operations (insert/discard/clear/drain/restore) mutate
        # these containers in place, so the references never go stale.
        self._rf_set = self.rf._addrs
        self._wf_set = self.wf._addrs
        self._wbb_map = self.wbb._entries
        self._rf_capacity = self.rf.capacity
        self._wf_capacity = self.wf.capacity
        self._apb_enabled = self.apb.capacity > 0
        self.recorder = recorder
        #: Latest-checkpoint mode: tracking stopped after a read-side fill;
        #: reads pass untracked, the next write checkpoints (Section 3.2.5).
        self.untracked = False

    # ------------------------------------------------------------------ #
    # Access handling.
    # ------------------------------------------------------------------ #

    def on_read(self, waddr: int) -> Decision:
        """Decide a read of word ``waddr``."""
        if self.untracked:
            return _PROCEED
        if self._ignore_text and self._text_lo <= waddr < self._text_hi:
            return _PROCEED
        rf_set = self._rf_set
        if waddr in rf_set or waddr in self._wbb_map or waddr in self._wf_set:
            return _PROCEED
        # A fresh read-dominated address must enter the Read-first Buffer.
        if len(rf_set) >= self._rf_capacity:
            return self._read_side_full("rf_full", waddr)
        if self._apb_enabled and not self.apb.admit(waddr):
            return self._read_side_full("apb_full", waddr)
        rf_set.add(waddr)
        return _PROCEED

    def on_write(self, waddr: int, new_value: int, cur_value: int) -> Decision:
        """Decide a write of word value ``new_value`` to ``waddr``.

        Args:
            waddr: Target word address.
            new_value: Word value the write produces.
            cur_value: Word value the program currently observes there (the
                Write-back Buffer overlay over non-volatile memory) — used by
                the ignore-false-writes optimization.
        """
        wbb_map = self._wbb_map
        if waddr in wbb_map:
            # Address owned by the Write-back Buffer; update in place.
            # Checked before the untracked escape: the WBB's address
            # comparators match every store, and a buffered write reaches
            # non-volatile memory only at the next checkpoint flush, so
            # the in-place update is always safe.  Routing an owned write
            # through the untracked false-write test instead would compare
            # against the buffered (not-yet-durable) value and could pass
            # a value that differs from NV straight through to NV with no
            # covering checkpoint — breaking rollback.  (Text addresses
            # never enter the WBB under ignore-text, so this cannot
            # shadow the text-write checkpoint below.)
            wbb_map[waddr] = new_value
            return _PROCEED_WBB
        if self.untracked:
            if self._ignore_false_writes and new_value == cur_value:
                return _PROCEED
            return (CHECKPOINT, "latest_write")
        if self._ignore_text and self._text_lo <= waddr < self._text_hi:
            # Every text write checkpoints (self-modifying code, 3.2.4);
            # the write then commits directly: after the checkpoint it is
            # the first access to the address, hence write-dominated.
            return (CHECKPOINT_THEN_WRITE, "text_write")
        wf_set = self._wf_set
        if waddr in wf_set:
            return _PROCEED
        if waddr in self._rf_set:
            # Idempotency violation: write to a read-dominated address.
            if self._ignore_false_writes and new_value == cur_value:
                return _PROCEED
            if self.wbb.capacity == 0:
                return (CHECKPOINT, "violation")
            # The address is in the RF buffer, so its prefix is already
            # resident in the APB; only WBB capacity can fail here.
            if not self.wbb.put(waddr, new_value):
                if self.recorder is not None:
                    self.recorder.emit(
                        BufferOverflow(buffer="wbb", waddr=waddr, op="write")
                    )
                return (CHECKPOINT, "wbb_full")
            if self._remove_duplicates:
                self._rf_set.discard(waddr)
            return _PROCEED_WBB
        # Fresh address: write-dominated.
        if self._wf_capacity == 0:
            # No Write-first Buffer configured: the write is untracked.
            # Safe but pessimistic — a later read then write of this address
            # will look like a violation.
            return _PROCEED
        if len(wf_set) >= self._wf_capacity:
            if self.recorder is not None:
                self.recorder.emit(
                    BufferOverflow(buffer="wf", waddr=waddr, op="write")
                )
            if self._no_wf_overflow:
                return _PROCEED
            return (CHECKPOINT, "wf_full")
        if self._apb_enabled and not self.apb.admit(waddr):
            if self.recorder is not None:
                self.recorder.emit(
                    BufferOverflow(buffer="apb", waddr=waddr, op="write")
                )
            if self._no_wf_overflow:
                return _PROCEED
            return (CHECKPOINT, "apb_full")
        wf_set.add(waddr)
        return _PROCEED

    def _read_side_full(self, cause: str, waddr: int) -> Decision:
        """A read could not be tracked: either defer via latest-checkpoint
        (stop tracking, checkpoint before the next write) or checkpoint
        now."""
        if self.recorder is not None:
            self.recorder.emit(
                BufferOverflow(
                    buffer="rf" if cause == "rf_full" else "apb",
                    waddr=waddr,
                    op="read",
                )
            )
        if self._latest_checkpoint:
            self.untracked = True
            return _PROCEED
        return (CHECKPOINT, cause)

    # ------------------------------------------------------------------ #
    # Straight-line section enumeration (the fast-path entry point).
    # ------------------------------------------------------------------ #

    def chain_scratch(self, ct) -> "ChainScratch":
        """A reusable membership scratch for :meth:`straightline_chain`.

        One scratch per ``(detector, trace)`` pair; reusing it across calls
        avoids re-zeroing the flat membership arrays (the generation stamp
        makes old entries stale for free).
        """
        nwords = ct.scan_arrays(self._text_lo, self._text_hi)[2]
        nprefixes = (
            ct.prefix_ids(self.apb.prefix_low_bits)[1]
            if self._apb_enabled else 0
        )
        return ChainScratch(nwords, nprefixes)

    def straightline_chain(
        self,
        ct,
        start: int,
        direct: bool,
        forced_done: int,
        forced_sorted,
        pi_words,
        pi_indices,
        scratch: "Optional[ChainScratch]" = None,
        collect_dw: bool = False,
    ):
        """Yield every section reachable failure-free from ``start``.

        From a committed checkpoint the buffers are empty, so each next
        section boundary is a pure function of the trace, this detector's
        configuration, and the compiler marking — independent of the power
        schedule.  This generator replays exactly the decision sequence of
        :meth:`on_read`/:meth:`on_write` (inlined over the precomputed
        per-trace arrays of :meth:`~repro.trace.trace.CompiledTrace.scan_arrays`
        and generation-stamped flat membership, no per-access method calls
        or hash probes) and follows each boundary into the next
        section until the final checkpoint, yielding
        ``(start, variant, end, cause, wbb_steps)``:

        * ``variant`` — ``0`` normal entry; ``1`` the compiler checkpoint
          at ``start`` already committed (the simulator's ``forced_done``
          latch), so it must not fire again; ``2`` the access at ``start``
          is a committed direct text write the detector never observes.
          :mod:`repro.sim.sections` mirrors these as ``VARIANT_*``.
        * ``end`` — the boundary access (``ct.n`` for the final
          checkpoint); the section executes exactly ``[start, end)``.
        * ``cause`` — the checkpoint cause charged at the boundary.
        * ``wbb_steps`` — ascending trace indices at which the Write-back
          Buffer grew; ``bisect`` against a cut point inside the section
          yields that prefix's flush size, keeping the enumeration
          cost-model independent.
        * ``dw_idx`` — ascending trace indices of the section's
          write-first-path writes: the writes that commit *directly* to
          non-volatile memory with a value a later rollback does not
          restore.  Collected only under ``collect_dw`` (the fast path's
          stale-view safety check,
          :meth:`repro.sim.sections.SectionMap.watchdog_cut_safe`, derives
          them lazily for the rare sections a watchdog checkpoint actually
          cuts); otherwise always ``()``, keeping the hot scan free of
          per-write bookkeeping.

        Enumerating the whole chain in one call amortizes the constant
        per-section cost (buffer reset, locals binding, call overhead)
        that dominates for small-buffer configurations whose sections
        span only a few accesses.  A caller that already knows a suffix
        of the chain stops consuming at the first ``(start, variant)`` it
        has seen — the boundary sequence from any shared entry onward is
        identical.

        Args:
            ct: :class:`repro.trace.trace.CompiledTrace` to scan.
            start: Starting access index of the first section.
            direct: The access at ``start`` is a committed direct text
                write (variant ``2`` entry): scanning starts one access
                later, since re-consulting the detector would checkpoint
                forever.
            forced_done: Index of the most recently committed compiler
                checkpoint (``-1`` if none) — at its own index the
                checkpoint must not fire again.
            forced_sorted: Ascending compiler-checkpoint indices
                ``< ct.n``.
            pi_words: Word addresses marked Program Idempotent (or falsy).
            pi_indices: Trace indices marked Program Idempotent (or
                falsy).
            scratch: A :class:`ChainScratch` from :meth:`chain_scratch`
                (for the same trace) to reuse across calls; ``None``
                allocates a fresh one.
            collect_dw: Record each section's direct-commit write indices
                in the yielded ``dw_idx`` (off by default; see above).

        The write-value comparisons of ignore-false-writes use the
        precomputed ``ct.false_writes`` oracle view; see
        :mod:`repro.sim.sections` for the exact conditions under which
        the run-time view can diverge from the oracle (and the fast path
        falls back to the reference simulator).
        """
        n = ct.n
        waddrs = ct.waddrs
        rf_cap = self._rf_capacity
        wf_cap = self._wf_capacity
        wbb_cap = self.wbb.capacity
        apb_cap = self.apb.capacity
        apb_on = self._apb_enabled
        ignore_text = self._ignore_text
        ig_fw = self._ignore_false_writes
        rm_dup = self._remove_duplicates
        no_wf_ovf = self._no_wf_overflow
        latest = self._latest_checkpoint
        pi_words = pi_words or ()
        pi_indices = pi_indices or ()
        has_pi = bool(pi_words) or bool(pi_indices)

        ops, wids, _ = ct.scan_arrays(self._text_lo, self._text_hi)
        if apb_on:
            pids, _ = ct.prefix_ids(self.apb.prefix_low_bits)
        else:
            pids = ()
        if scratch is None:
            scratch = self.chain_scratch(ct)
        rf_g = scratch.rf
        wf_g = scratch.wf
        wbb_g = scratch.wbb
        apb_g = scratch.apb

        fs = forced_sorted
        nfs = len(fs)
        fidx = 0
        while True:
            # -- section entry: resolve the variant ---------------------- #
            while fidx < nfs and fs[fidx] < start:
                fidx += 1
            at_forced = fidx < nfs and fs[fidx] == start
            if direct:
                variant = 2
                scan_from = start + 1
            elif at_forced and forced_done != start:
                # Zero-length section: the compiler checkpoint fires
                # before the access at ``start`` is even classified.
                yield start, 0, start, "compiler", (), ()
                forced_done = start
                continue
            else:
                variant = 1 if at_forced else 0
                scan_from = start
            # The next *active* compiler checkpoint: a forced index at the
            # start itself either fired (zero-length section above), was
            # just committed (``forced_done`` latch), or lies behind the
            # direct write.
            nf_idx = fidx + 1 if at_forced else fidx
            next_forced = fs[nf_idx] if nf_idx < nfs else n + 1

            # -- straight-line scan to the next boundary ----------------- #
            g = scratch.gen + 1
            scratch.gen = g  # stamp bump == clear all four buffers
            rf_len = 0
            wf_len = 0
            wbb_len = 0
            apb_len = 0
            steps = []
            dw_i = []
            untracked = False
            end = n
            cause = "final"
            i = scan_from
            while i < n:
                if i == next_forced:
                    end = i
                    cause = "compiler"
                    break
                op = ops[i]
                if op & 1:
                    # Write.
                    if op & 4:
                        end = i
                        cause = "output"
                        break
                    if has_pi and (waddrs[i] in pi_words or i in pi_indices):
                        i += 1
                        continue
                    if ignore_text and op & 2:
                        end = i
                        cause = "text_write"
                        break
                    v = wids[i]
                    if wbb_g[v] == g:
                        i += 1  # in-place update; no growth
                        continue
                    if wf_g[v] == g:
                        if collect_dw:
                            dw_i.append(i)
                        i += 1
                        continue
                    if rf_g[v] == g:
                        # Idempotency violation.
                        if ig_fw and op & 8:
                            i += 1
                            continue
                        if wbb_cap == 0:
                            end = i
                            cause = "violation"
                            break
                        if wbb_len >= wbb_cap:
                            end = i
                            cause = "wbb_full"
                            break
                        wbb_g[v] = g
                        wbb_len += 1
                        steps.append(i)
                        if rm_dup:
                            rf_g[v] = 0
                            rf_len -= 1
                        i += 1
                        continue
                    # Fresh address: write-dominated.
                    if wf_cap == 0:
                        if collect_dw:
                            dw_i.append(i)
                        i += 1
                        continue
                    if wf_len >= wf_cap:
                        if no_wf_ovf:
                            if collect_dw:
                                dw_i.append(i)
                            i += 1
                            continue
                        end = i
                        cause = "wf_full"
                        break
                    if apb_on:
                        p = pids[i]
                        if apb_g[p] != g:
                            if apb_len >= apb_cap:
                                if no_wf_ovf:
                                    if collect_dw:
                                        dw_i.append(i)
                                    i += 1
                                    continue
                                end = i
                                cause = "apb_full"
                                break
                            apb_g[p] = g
                            apb_len += 1
                    wf_g[v] = g
                    wf_len += 1
                    if collect_dw:
                        dw_i.append(i)
                    i += 1
                    continue
                # Read.
                if has_pi and (waddrs[i] in pi_words or i in pi_indices):
                    i += 1
                    continue
                if ignore_text and op & 2:
                    i += 1
                    continue
                v = wids[i]
                if rf_g[v] == g or wbb_g[v] == g or wf_g[v] == g:
                    i += 1
                    continue
                if rf_len >= rf_cap:
                    if not latest:
                        end = i
                        cause = "rf_full"
                        break
                    untracked = True
                    i += 1
                    break  # drop into the untracked tail loop
                if apb_on:
                    p = pids[i]
                    if apb_g[p] != g:
                        if apb_len >= apb_cap:
                            if not latest:
                                end = i
                                cause = "apb_full"
                                break
                            untracked = True
                            i += 1
                            break
                        apb_g[p] = g
                        apb_len += 1
                rf_g[v] = g
                rf_len += 1
                i += 1
            if untracked:
                # Untracked tail (latest-checkpoint mode after a read-side
                # fill): reads always pass, so only writes need
                # classifying.
                while i < n:
                    if i == next_forced:
                        end = i
                        cause = "compiler"
                        break
                    op = ops[i]
                    if op & 1:
                        if op & 4:
                            end = i
                            cause = "output"
                            break
                        if has_pi and (waddrs[i] in pi_words or i in pi_indices):
                            pass
                        elif wbb_g[wids[i]] == g:
                            # WBB-owned write: in-place update (the WBB's
                            # comparators match every store), never a
                            # boundary — mirrors on_write.
                            pass
                        elif ig_fw and op & 8:
                            pass
                        else:
                            end = i
                            cause = "latest_write"
                            break
                    i += 1
            yield start, variant, end, cause, tuple(steps), tuple(dw_i)

            # -- follow the boundary into the next section --------------- #
            if cause == "final":
                return
            if cause == "compiler":
                forced_done = end
                direct = False
                start = end
            elif cause == "text_write":
                direct = True
                start = end
            elif cause == "output":
                direct = False
                start = end + 1
            else:
                direct = False
                start = end

    def section_arch_scan(
        self,
        ct,
        start: int,
        variant: int,
        forced_sorted,
        pi_words,
        pi_indices,
        scratch: "Optional[ChainScratch]" = None,
    ) -> Tuple[Tuple[int, ...], Tuple[int, ...], Tuple[int, ...], int]:
        """Growth-step indices of one section's tracking buffers.

        Replays exactly the decision walk of :meth:`straightline_chain`
        for the single section entered at ``(start, variant)`` (variants
        as in :mod:`repro.sim.sections`: ``0`` normal, ``1`` compiler
        checkpoint at ``start`` already committed, ``2`` direct text
        write at ``start``) and records *where* each buffer grew,
        returning ``(rf_steps, wf_steps, apb_steps, rf_peak)``:

        * ``rf_steps`` / ``wf_steps`` / ``apb_steps`` — ascending trace
          indices at which the Read-First, Write-First, and
          Address-Prefix buffers admitted a new entry.  Together with
          the section's ``wbb_steps`` (already memoized on the
          :class:`~repro.sim.sections.Section` record) they give the
          exact occupancy at any cut point ``p`` by bisection:
          WF/WBB/APB net occupancy is ``bisect_left(steps, p)``; RF net
          occupancy is ``bisect_left(rf_steps, p)`` minus
          ``bisect_left(wbb_steps, p)`` under remove-duplicates (every
          WBB capture evicts its word from the RF).
        * ``rf_peak`` — the RF's exact high-water mark over the section.
          Remove-duplicates can shrink the RF mid-section, so unlike the
          other three (monotone; peak = ``len(steps)``) the RF's
          at-commit count is not its maximum.

        Like the ``wbb_steps`` prefix sums, these are schedule-independent
        — computed once per section and reused by every schedule that
        commits it — which is what lets the introspection layer
        (:mod:`repro.obs.analyze`) ride the fast path without per-access
        work.  This scan runs only when introspection is enabled; it is
        never part of the hot enumeration.
        """
        n = ct.n
        waddrs = ct.waddrs
        rf_cap = self._rf_capacity
        wf_cap = self._wf_capacity
        wbb_cap = self.wbb.capacity
        apb_cap = self.apb.capacity
        apb_on = self._apb_enabled
        ignore_text = self._ignore_text
        ig_fw = self._ignore_false_writes
        rm_dup = self._remove_duplicates
        no_wf_ovf = self._no_wf_overflow
        latest = self._latest_checkpoint
        pi_words = pi_words or ()
        pi_indices = pi_indices or ()
        has_pi = bool(pi_words) or bool(pi_indices)

        ops, wids, _ = ct.scan_arrays(self._text_lo, self._text_hi)
        if apb_on:
            pids, _ = ct.prefix_ids(self.apb.prefix_low_bits)
        else:
            pids = ()
        if scratch is None:
            scratch = self.chain_scratch(ct)
        rf_g = scratch.rf
        wf_g = scratch.wf
        wbb_g = scratch.wbb
        apb_g = scratch.apb

        fs = forced_sorted
        j = bisect_left(fs, start)
        at_forced = j < len(fs) and fs[j] == start
        if variant == 0 and at_forced:
            # Zero-length compiler section: nothing is classified.
            return (), (), (), 0
        nf_idx = j + 1 if at_forced else j
        next_forced = fs[nf_idx] if nf_idx < len(fs) else n + 1
        scan_from = start + 1 if variant == 2 else start

        g = scratch.gen + 1
        scratch.gen = g
        rf_len = 0
        rf_peak = 0
        wf_len = 0
        wbb_len = 0
        apb_len = 0
        rf_i = []
        wf_i = []
        apb_i = []
        i = scan_from
        while i < n:
            if i == next_forced:
                break
            op = ops[i]
            if op & 1:
                if op & 4:
                    break
                if has_pi and (waddrs[i] in pi_words or i in pi_indices):
                    i += 1
                    continue
                if ignore_text and op & 2:
                    break
                v = wids[i]
                if wbb_g[v] == g or wf_g[v] == g:
                    i += 1
                    continue
                if rf_g[v] == g:
                    if ig_fw and op & 8:
                        i += 1
                        continue
                    if wbb_cap == 0 or wbb_len >= wbb_cap:
                        break
                    wbb_g[v] = g
                    wbb_len += 1
                    if rm_dup:
                        rf_g[v] = 0
                        rf_len -= 1
                    i += 1
                    continue
                if wf_cap == 0:
                    i += 1
                    continue
                if wf_len >= wf_cap:
                    if no_wf_ovf:
                        i += 1
                        continue
                    break
                if apb_on:
                    p = pids[i]
                    if apb_g[p] != g:
                        if apb_len >= apb_cap:
                            if no_wf_ovf:
                                i += 1
                                continue
                            break
                        apb_g[p] = g
                        apb_len += 1
                        apb_i.append(i)
                wf_g[v] = g
                wf_len += 1
                wf_i.append(i)
                i += 1
                continue
            # Read.
            if has_pi and (waddrs[i] in pi_words or i in pi_indices):
                i += 1
                continue
            if ignore_text and op & 2:
                i += 1
                continue
            v = wids[i]
            if rf_g[v] == g or wbb_g[v] == g or wf_g[v] == g:
                i += 1
                continue
            if rf_len >= rf_cap:
                # Read-side fill: checkpoint boundary, or (latest mode)
                # the untracked tail — which admits nothing either way.
                break
            if apb_on:
                p = pids[i]
                if apb_g[p] != g:
                    if apb_len >= apb_cap:
                        break
                    apb_g[p] = g
                    apb_len += 1
                    apb_i.append(i)
            rf_g[v] = g
            rf_len += 1
            if rf_len > rf_peak:
                rf_peak = rf_len
            rf_i.append(i)
            i += 1
        return tuple(rf_i), tuple(wf_i), tuple(apb_i), rf_peak

    # ------------------------------------------------------------------ #
    # View and lifecycle.
    # ------------------------------------------------------------------ #

    def wbb_value(self, waddr: int) -> Optional[int]:
        """Buffered (newest) value for ``waddr``, or None if not buffered.

        The program's view of memory is the WBB overlaid on non-volatile
        memory.
        """
        return self.wbb.get(waddr)

    def reset_section(self) -> Dict[int, int]:
        """Checkpoint phase 2: reset all buffers for the next idempotent
        section, returning the Write-back Buffer contents that the
        checkpoint routine must flush to non-volatile memory."""
        flushed = self.wbb.drain()
        self.rf.clear()
        self.wf.clear()
        self.apb.clear()
        self.untracked = False
        return flushed

    def power_fail(self) -> None:
        """Power loss: all buffers are volatile and simply vanish; buffered
        idempotency-violating writes roll back for free (Section 3.1.2)."""
        self.rf.clear()
        self.wf.clear()
        self.wbb.clear()
        self.apb.clear()
        self.untracked = False

    def snapshot(self) -> Tuple:
        """Copy of the complete volatile detector state.

        Used by the bounded model checker to fork execution at every
        possible power-failure point while driving this real implementation
        (not a re-implementation of its logic).
        """
        return (
            frozenset(self.rf),
            frozenset(self.wf),
            tuple(sorted(self.wbb.items())),
            frozenset(self.apb._prefixes),
            self.untracked,
        )

    def restore(self, state: Tuple) -> None:
        """Restore a state captured by :meth:`snapshot`."""
        rf, wf, wbb_items, prefixes, untracked = state
        # Mutate the backing containers in place: the decision paths hold
        # direct references to them (see __init__).
        self.rf._addrs.clear()
        self.rf._addrs.update(rf)
        self.wf._addrs.clear()
        self.wf._addrs.update(wf)
        self.wbb._entries.clear()
        self.wbb._entries.update(wbb_items)
        self.apb._prefixes.clear()
        self.apb._prefixes.update(prefixes)
        self.untracked = untracked

    def occupancy(self) -> Dict[str, int]:
        """Current entry counts, for diagnostics and tests."""
        return {
            "rf": len(self.rf),
            "wf": len(self.wf),
            "wbb": len(self.wbb),
            "apb": len(self.apb),
        }

