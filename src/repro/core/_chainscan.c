/* Straight-line idempotent-section chain scan and section walk.
 *
 * ``chain_scan`` is a C port of ``repro.core.detector.scan_section``,
 * the Python scan of one section, followed from each boundary into the
 * next section — the one O(n-accesses) pass the section-memoized fast
 * path cannot avoid.  The Python scan remains the reference
 * implementation (the test oracle of this kernel, through
 * ``tests/chain_oracle.py``); this kernel must replay its decision
 * sequence branch-for-branch.  Inputs are the same precomputed per-trace arrays
 * (``CompiledTrace.scan_arrays`` / ``prefix_ids``) and the same
 * generation-stamped flat membership scratch, so the two
 * implementations share every data-structure invariant.  Every scan
 * runs here: a sweep family's canonical chains (K members, one call)
 * and a map's off-chain and direct-write scans (one member).
 *
 * ``group_walk`` (below) replays power schedules over the scanned
 * section tables.
 *
 * Compiled on demand by ``repro.core.cext`` via the system C compiler;
 * no Python.h dependency, plain int32 buffers across the ctypes
 * boundary.
 */

#include <stdint.h>
#include <time.h>

/* Checkpoint-cause codes; repro.core.cext.CAUSE_NAMES mirrors them. */
#define CAUSE_FINAL 0
#define CAUSE_COMPILER 1
#define CAUSE_OUTPUT 2
#define CAUSE_TEXT_WRITE 3
#define CAUSE_VIOLATION 4
#define CAUSE_WBB_FULL 5
#define CAUSE_WF_FULL 6
#define CAUSE_APB_FULL 7
#define CAUSE_RF_FULL 8
#define CAUSE_LATEST_WRITE 9
/* Not a checkpoint: a chain_scan section cut short where its
 * Performance Watchdog fires. */
#define CAUSE_OPEN 15

/* Flag bits; repro.core.cext builds them from the detector state. */
#define F_APB_ON 1
#define F_IGNORE_TEXT 2
#define F_IGNORE_FALSE_WRITES 4
#define F_REMOVE_DUPLICATES 8
#define F_NO_WF_OVERFLOW 16
#define F_LATEST_CHECKPOINT 32
#define F_HAS_PI 64
/* Scan only the first section and emit its direct-commit (write-first
 * path) trace indices in place of its WBB growth steps — what the
 * section walk's watchdog-cut decision (sw_cut_safe) reads. */
#define F_FIRST_DW 128

/* ops[i] bits (CompiledTrace.scan_arrays): 1 write, 2 text, 4 output
 * write, 8 false write. */

/* Whether ``key`` is in the sorted ``keys[0..nk)``. */
static int cs_member(const int64_t *keys, int64_t nk, int64_t key)
{
    int64_t lo = 0, hi = nk;
    while (lo < hi) {
        int64_t mid = (lo + hi) >> 1;
        if (keys[mid] < key) lo = mid + 1; else hi = mid;
    }
    return lo < nk && keys[lo] == key;
}

/* Append trace index ``i`` to the member's steps segment. */
#define CS_STEP()                                                       \
    do {                                                                \
        if (nst >= seg)                                                 \
            goto overflow;                                              \
        st_c[nst++] = i;                                                \
    } while (0)

/* chain_scan's parameters and arguments (see its comment). */
#define CS_PARAMS                                                            \
    const uint8_t *ops,       /* [n] per-access op bits */                   \
    const int32_t *wids,      /* [n] dense word ids */                       \
    const int32_t *pids,      /* [n] dense prefix ids or NULL */             \
    const uint8_t *pi,        /* [n] PI membership mask or NULL */           \
    const int32_t *fs,        /* [nfs] ascending forced indices */           \
    int32_t nfs,                                                             \
    int32_t n,                                                               \
    int32_t n_words,          /* scratch block stride per member */          \
    int32_t n_prefixes,       /* APB scratch block stride per member */      \
    int32_t nk,               /* members */                                  \
    const int32_t *caps,      /* [4*nk] rf, wf, wbb, apb per member */       \
    const int32_t *cflags,    /* [nk] per-member F_* bits */                 \
    int32_t *rf_g,            /* [nk*n_words] stamp scratch, member-major */ \
    int32_t *wf_g,            /* [nk*n_words] */                             \
    int32_t *wbb_g,           /* [nk*n_words] */                             \
    int32_t *apb_g,           /* [nk*n_prefixes] */                          \
    int32_t *gen_io,          /* [1] generation counter, persists */         \
    const int64_t *gcum,      /* [n+1] cycle prefix sums (perf_load > 0) */  \
    int32_t *out_nev,         /* [nk] out: sections per member */            \
    int32_t *out_nst,         /* [nk] out: steps per member */               \
    int32_t start0,           /* the entry section's start ... */            \
    int32_t variant0,         /* ... and variant (VARIANT_* in sections) */  \
    const int64_t *stop_keys, /* sorted keys already enumerated, or NULL */  \
    int64_t n_stop,                                                          \
    int64_t perf_load,        /* Performance Watchdog load, or 0 */          \
    int32_t xflags,           /* OR'd into every member's flags */           \
    int64_t seg,              /* per-member output segment size */           \
    int64_t *ev_key,          /* [nk*seg] outputs, member-major */           \
    int32_t *ev_end,                                                         \
    uint8_t *ev_cause,                                                       \
    int64_t *ev_soff,         /* [nk*(seg+1)] steps offsets */               \
    int32_t *steps_out        /* [nk*seg] steps */
#define CS_ARGS                                                              \
    ops, wids, pids, pi, fs, nfs, n, n_words, n_prefixes, nk, caps,          \
    cflags, rf_g, wf_g, wbb_g, apb_g, gen_io, gcum, out_nev, out_nst,        \
    start0, variant0, stop_keys, n_stop, perf_load, xflags, seg, ev_key,     \
    ev_end, ev_cause, ev_soff, steps_out

/* chain_scan's body.  ``extras`` is 0 for a plain pass — no stop
 * keys, watchdog limit or direct-write output, as every family pass
 * is — whose inlined copy then carries none of those features'
 * branches (with them a 32-member pass measured about 7% slower). */
static inline __attribute__((always_inline)) int64_t cs_scan(
    CS_PARAMS, const int extras)
{
    int32_t g = *gen_io;

    for (int32_t c = 0; c < nk; c++) {
        const int32_t rf_cap = caps[4 * c];
        const int32_t wf_cap = caps[4 * c + 1];
        const int32_t wbb_cap = caps[4 * c + 2];
        const int32_t apb_cap = caps[4 * c + 3];
        const int32_t flags = cflags[c] | xflags;
        const int apb_on = flags & F_APB_ON;
        const int ignore_text = flags & F_IGNORE_TEXT;
        const int ig_fw = flags & F_IGNORE_FALSE_WRITES;
        const int rm_dup = flags & F_REMOVE_DUPLICATES;
        const int no_wf_ovf = flags & F_NO_WF_OVERFLOW;
        const int latest = flags & F_LATEST_CHECKPOINT;
        const int has_pi = flags & F_HAS_PI;
        const int first_dw = extras && (flags & F_FIRST_DW);
        int32_t *rf_c = rf_g + (int64_t)c * n_words;
        int32_t *wf_c = wf_g + (int64_t)c * n_words;
        int32_t *wbb_c = wbb_g + (int64_t)c * n_words;
        int32_t *apb_c = apb_g + (int64_t)c * n_prefixes;
        int64_t *key_c = ev_key + (int64_t)c * seg;
        int32_t *end_c = ev_end + (int64_t)c * seg;
        uint8_t *cz_c = ev_cause + (int64_t)c * seg;
        int64_t *so_c = ev_soff + (int64_t)c * (seg + 1);
        int32_t *st_c = steps_out + (int64_t)c * seg;
        int32_t nev = 0, nst = 0;
        int32_t start = start0;
        int32_t direct = variant0 == 2;
        int32_t forced_done = variant0 == 1 ? start0 : -1;
        int32_t fidx = 0;

        so_c[0] = 0;
        for (;;) {
            /* -- section entry: resolve the variant -- */
            while (fidx < nfs && fs[fidx] < start)
                fidx++;
            int at_forced = (fidx < nfs && fs[fidx] == start);
            int32_t variant, scan_from;
            if (extras && nev > 0 && n_stop > 0) {
                /* The rest of the chain is already enumerated from here. */
                int64_t key = (int64_t)start << 2;
                if (direct)
                    key |= 2;
                else if (at_forced && forced_done == start)
                    key |= 1;
                if (cs_member(stop_keys, n_stop, key))
                    break;
            }
            if (direct) {
                variant = 2;
                scan_from = start + 1;
            } else if (at_forced && forced_done != start) {
                /* Zero-length section: the compiler checkpoint fires
                 * before the access at ``start`` is classified. */
                if (nev >= seg)
                    goto overflow;
                key_c[nev] = (int64_t)start << 2;
                end_c[nev] = start;
                cz_c[nev] = CAUSE_COMPILER;
                so_c[nev + 1] = nst;
                nev++;
                if (first_dw)
                    break;
                forced_done = start;
                continue;
            } else {
                variant = at_forced ? 1 : 0;
                scan_from = start;
            }
            int32_t nf_idx = at_forced ? fidx + 1 : fidx;
            int32_t next_forced = (nf_idx < nfs) ? fs[nf_idx] : n + 1;

            /* -- straight-line scan to the next boundary -- */
            g += 1; /* stamp bump == clear all four buffers */
            int32_t rf_len = 0, wf_len = 0, wbb_len = 0, apb_len = 0;
            int untracked = 0;
            int32_t lim = n;
            if (extras && perf_load > 0) {
                int32_t lo = start + 1, hi = n;
                const int64_t target = gcum[start] + perf_load;
                while (lo < hi) {
                    int32_t mid = (int32_t)(((int64_t)lo + hi) >> 1);
                    if (gcum[mid] < target) lo = mid + 1; else hi = mid;
                }
                lim = lo;
            }
            int32_t end = lim;
            uint8_t cause = lim < n ? CAUSE_OPEN : CAUSE_FINAL;
            int32_t i = scan_from;
            while (i < lim) {
                if (i == next_forced) {
                    end = i;
                    cause = CAUSE_COMPILER;
                    break;
                }
                uint8_t op = ops[i];
                if (op & 1) {
                    /* Write. */
                    if (op & 4) {
                        end = i;
                        cause = CAUSE_OUTPUT;
                        break;
                    }
                    if (has_pi && pi[i]) {
                        i++;
                        continue;
                    }
                    if (ignore_text && (op & 2)) {
                        end = i;
                        cause = CAUSE_TEXT_WRITE;
                        break;
                    }
                    int32_t v = wids[i];
                    if (wbb_c[v] == g) {
                        i++; /* in-place update; no growth */
                        continue;
                    }
                    if (wf_c[v] == g) {
                        if (first_dw)
                            CS_STEP();
                        i++;
                        continue;
                    }
                    if (rf_c[v] == g) {
                        /* Idempotency violation. */
                        if (ig_fw && (op & 8)) {
                            i++;
                            continue;
                        }
                        if (wbb_cap == 0) {
                            end = i;
                            cause = CAUSE_VIOLATION;
                            break;
                        }
                        if (wbb_len >= wbb_cap) {
                            end = i;
                            cause = CAUSE_WBB_FULL;
                            break;
                        }
                        wbb_c[v] = g;
                        wbb_len++;
                        if (!first_dw)
                            CS_STEP();
                        if (rm_dup) {
                            rf_c[v] = 0;
                            rf_len--;
                        }
                        i++;
                        continue;
                    }
                    /* Fresh address: write-dominated. */
                    if (wf_cap == 0) {
                        if (first_dw)
                            CS_STEP();
                        i++;
                        continue;
                    }
                    if (wf_len >= wf_cap) {
                        if (no_wf_ovf) {
                            if (first_dw)
                                CS_STEP();
                            i++;
                            continue;
                        }
                        end = i;
                        cause = CAUSE_WF_FULL;
                        break;
                    }
                    if (apb_on) {
                        int32_t p = pids[i];
                        if (apb_c[p] != g) {
                            if (apb_len >= apb_cap) {
                                if (no_wf_ovf) {
                                    if (first_dw)
                                        CS_STEP();
                                    i++;
                                    continue;
                                }
                                end = i;
                                cause = CAUSE_APB_FULL;
                                break;
                            }
                            apb_c[p] = g;
                            apb_len++;
                        }
                    }
                    wf_c[v] = g;
                    wf_len++;
                    if (first_dw)
                        CS_STEP();
                    i++;
                    continue;
                }
                /* Read. */
                if (has_pi && pi[i]) {
                    i++;
                    continue;
                }
                if (ignore_text && (op & 2)) {
                    i++;
                    continue;
                }
                int32_t v = wids[i];
                if (rf_c[v] == g || wbb_c[v] == g || wf_c[v] == g) {
                    i++;
                    continue;
                }
                if (rf_len >= rf_cap) {
                    if (!latest) {
                        end = i;
                        cause = CAUSE_RF_FULL;
                        break;
                    }
                    untracked = 1;
                    i++;
                    break; /* drop into the untracked tail loop */
                }
                if (apb_on) {
                    int32_t p = pids[i];
                    if (apb_c[p] != g) {
                        if (apb_len >= apb_cap) {
                            if (!latest) {
                                end = i;
                                cause = CAUSE_APB_FULL;
                                break;
                            }
                            untracked = 1;
                            i++;
                            break;
                        }
                        apb_c[p] = g;
                        apb_len++;
                    }
                }
                rf_c[v] = g;
                rf_len++;
                i++;
            }
            if (untracked) {
                /* Untracked tail (latest-checkpoint mode after a
                 * read-side fill): reads always pass, so only writes
                 * need classifying. */
                while (i < lim) {
                    if (i == next_forced) {
                        end = i;
                        cause = CAUSE_COMPILER;
                        break;
                    }
                    uint8_t op = ops[i];
                    if (op & 1) {
                        if (op & 4) {
                            end = i;
                            cause = CAUSE_OUTPUT;
                            break;
                        }
                        if (has_pi && pi[i]) {
                            /* PI write: passes. */
                        } else if (wbb_c[wids[i]] == g) {
                            /* WBB-owned write: in-place update, never
                             * a boundary — mirrors on_write. */
                        } else if (ig_fw && (op & 8)) {
                            /* False write: passes. */
                        } else {
                            end = i;
                            cause = CAUSE_LATEST_WRITE;
                            break;
                        }
                    }
                    i++;
                }
            }
            if (nev >= seg)
                goto overflow;
            key_c[nev] = ((int64_t)start << 2) | variant;
            end_c[nev] = end;
            cz_c[nev] = cause;
            so_c[nev + 1] = nst;
            nev++;

            /* -- follow the boundary into the next section -- */
            if (cause == CAUSE_FINAL || first_dw)
                break;
            if (cause == CAUSE_COMPILER) {
                forced_done = end;
                direct = 0;
                start = end;
            } else if (cause == CAUSE_TEXT_WRITE) {
                direct = 1;
                start = end;
            } else if (cause == CAUSE_OUTPUT) {
                direct = 0;
                start = end + 1;
            } else {
                direct = 0;
                start = end;
            }
        }
        out_nev[c] = nev;
        out_nst[c] = nst;
    }
    *gen_io = g;
    return 0;

overflow:
    /* Persist the generation counter even on overflow: the retry's
     * per-section pre-increment then starts above every stamp already
     * in scratch. */
    *gen_io = g;
    return -1;
}

/* The chain scans of ``nk`` members that share the trace, the PI
 * marking and the forced-checkpoint set, and differ only in buffer
 * capacities and policy flags.  Each member follows the failure-free
 * chain from the entry section ``(start0, variant0)`` — variant 1: the
 * compiler checkpoint at ``start0`` already committed; 2: the access
 * at ``start0`` is a committed direct text write — to the final
 * checkpoint, or to the first later section whose key is in
 * ``stop_keys`` (the chain is already enumerated from there).  With a
 * Performance Watchdog load ``perf_load`` > 0 no attempt gets past the
 * access that fires the watchdog, so a section whose boundary lies
 * further is emitted open (end at the cut, CAUSE_OPEN) and the chain
 * goes on from the cut.  ``xflags`` is OR'd into every member's flags.
 *
 * The members run sequentially, each with its state in registers.
 * Membership scratch is member-major (member c owns the contiguous block
 * rf_g[c*n_words .. (c+1)*n_words)); the shared generation counter
 * persists across calls, so the scratch is never re-zeroed.  Sections
 * are emitted member-major into pre-segmented outputs: member c owns
 * section slots [c*seg, (c+1)*seg), steps-offset slots
 * [c*(seg+1), ...) and steps [c*seg, ...); a section's WBB growth steps
 * are written into the member's steps segment as they are found, and
 * its end offset into that segment follows it.  Each member's output is
 * ready to install as slice copies.
 *
 * Returns 0, or -1 when any member's section or steps segment would
 * overflow (the caller doubles ``seg`` and retries; the generation
 * write-back keeps the partially-stamped scratch valid). */
int64_t chain_scan(CS_PARAMS)
{
    if (n_stop > 0 || perf_load > 0 || xflags)
        return cs_scan(CS_ARGS, 1);
    return cs_scan(CS_ARGS, 0);
}

/* ------------------------------------------------------------------ *
 * Section walk: power schedules replayed over SectionMaps.
 *
 * The one section walk: ``group_walk`` walks every row of a
 * ``repro.sim.batch.simulate_batch`` group, scalar runs
 * (``simulate_fast``) being groups of one, and is pinned against the
 * reference ``repro.sim.simulator.IntermittentSimulator``.
 * Within one section attempt the only schedule-dependent questions are
 * which access the remaining on-time cannot complete and which access a
 * watchdog fires after, both a bisection over the trace's cycle prefix
 * sums; the checkpoint's WBB flush size is a bisection over the
 * section's growth steps.  It reads the map's flat canonical-chain
 * arrays in place — sorted ``keys``, ``ends``, ``causes``, ``soff`` and
 * ``steps``, exactly as chain_scan emits them — finding a section
 * by searching ``keys`` and deriving its kind from its cause id.  A small
 * sorted overlay table holds the off-chain sections (watchdog cuts,
 * direct re-entries) Python has resolved so far.  Checkpoints are
 * counted per fixed cause id, with the ids' first-appearance order, so
 * the caller rebuilds ``checkpoints_by_cause`` in the reference's key
 * order.
 *
 * The group's rows sit in one int64 buffer (R_* slots: map table, walk
 * parameters, on-time array, end code, wall time, run state), walked one
 * after another from a cursor.  A watchdog cut below the furthest
 * executed index under ignore-false-writes is decided here
 * (sw_cut_safe).  One call walks until every row has ended or a row
 * needs Python — a section neither table holds, more schedule on-times,
 * a section's direct writes for a cut decision, or (under P_ARCH) the
 * record of a commit — and is then re-entered with the same buffer once
 * Python has supplied what was missing.  Resumability is by
 * construction: every return to Python happens either before any state
 * mutation of the current section attempt (SW_NEED_SECTION, SW_NEED_DW
 * — the re-entered walk re-derives the identical decision point), with
 * the attempt fully accounted and only the restart sequence pending
 * (SW_NEED_ONTIMES, marked by PH_RESTART, where each restart iteration
 * is itself atomic around its single schedule draw), or right after a
 * commit (SW_COMMIT, resuming at the next section, the output's GO phase
 * (PH_GO) or the finished run (PH_DONE)).  A row ends with its end code
 * in R_END: SW_DONE, SW_STALL where the reference raises its
 * no-forward-progress error, or SW_CUT_UNSAFE and SW_REACH_FULL (a cut
 * the walk cannot carry, failed-cycle reaches that overflow their
 * buffer) for the reference to rerun.
 */

/* Stop codes. */
#define SW_DONE 0
#define SW_NEED_SECTION 1   /* st[ST_OUT] = (start<<2)|variant */
#define SW_NEED_ONTIMES 2
#define SW_NEED_DW 3        /* st[ST_OUT] = key of a section to cut */
#define SW_REACH_FULL 4
#define SW_STALL 5          /* st[ST_OUT] = trace position, -1 at restart */
#define SW_COMMIT 6         /* st[ST_COMMIT..+6] describe the commit */
#define SW_CUT_UNSAFE 7

/* Watchdog cause ids follow the section causes. */
#define CAUSE_PROGRESS_WDT 10
#define CAUSE_PERF_WDT 11
#define SW_NCAUSES 12

/* Per-map table: int64 slots, buffer addresses as integers. */
#define T_GCUM 0        /* [n+1] int64 trace cycle prefix sums */
#define T_ACC 1         /* [n] int64 per-access cycles */
#define T_N 2
#define T_FORCED 3      /* [n+1] uint8 forced-checkpoint membership */
#define T_KEYS 4        /* flat canonical chain: sorted int64 keys */
#define T_NKEYS 5
#define T_ENDS 6        /* int32 */
#define T_CAUSES 7      /* uint8 cause ids */
#define T_SOFF 8        /* [nkeys+1] int64 offsets into T_STEPS */
#define T_STEPS 9       /* int32 wbb growth steps */
#define T_OV_KEYS 10    /* overlay: sorted int64 keys */
#define T_OV_N 11
#define T_OV_ENDS 12    /* int32 */
#define T_OV_CAUSES 13  /* uint8 */
#define T_OV_SOFF 14    /* int64 offset into T_OV_STEPS */
#define T_OV_NST 15     /* int32 step count */
#define T_OV_STEPS 16   /* int32 */
/* The cut decision's buffers, filled with the first direct writes. */
#define T_DW_KEYS 17    /* sorted int64 keys of sections with direct writes */
#define T_DW_N 18
#define T_DW_OFF 19     /* int64 offset into T_DW_IDX */
#define T_DW_CNT 20     /* int32 */
#define T_DW_IDX 21     /* int32 ascending direct-write indices */
#define T_WIDS 22       /* [n] int32 dense word ids */
#define T_WOFF 23       /* [n_words+1] int32: word v's writes at */
#define T_WIDX 24       /*   int32 T_WIDX[T_WOFF[v]..T_WOFF[v+1]) */
#define T_VALUES 25     /* [n] uint32 */
#define T_FALSE_W 26    /* [n] uint8 false-write flags */
#define T_OUT_W 27      /* [n] uint8 output-write flags */
#define T_PI_ACC 28     /* [n] uint8 access-marked PI mask, or 0 */
#define T_SEEN 29       /* [1+n_words] int32 stamps after the generation */

/* Per-run parameters. */
#define P_BASE_CK 0
#define P_FLUSH_BASE 1
#define P_PER_ENTRY 2
#define P_RCOST 3
#define P_PERF_LOAD 4
#define P_PROG_DEFAULT 5
#define P_PROG_ADAPTIVE 6
#define P_IG_FW 7
#define P_MAX_PC 8
#define P_REACH_CAP 9
#define P_ARCH 10           /* 1: stop with SW_COMMIT after each commit */

/* Persistent run state (int64 slots). */
#define ST_I 0
#define ST_FURTHEST 1
#define ST_ONLEFT 2
#define ST_FORCED_DONE 3
#define ST_POS 4            /* next schedule column */
#define ST_PROG_NV 5
#define ST_PROG_REM 6
#define ST_USEFUL 7
#define ST_REEXEC 8
#define ST_WASTED 9
#define ST_CKPT 10
#define ST_RESTART 11
#define ST_PC 12
#define ST_WASTED_PC 13
#define ST_OUTPUTS 14
#define ST_DUP 15
#define ST_WBB 16
#define ST_NREACH 17
#define ST_PHASE 18
#define ST_DIRECT 19
#define ST_PROGRESS 20
#define ST_PROG_NO_CKPT 21
#define ST_PROG_EN 22
#define ST_HINT 23          /* flat row of the last section found */
#define ST_OUT 24           /* [4] stop-code details */
#define ST_NORDER 28
#define ST_COUNTS 29        /* [SW_NCAUSES] checkpoints per cause id */
#define ST_ORDER 41         /* [SW_NCAUSES] cause ids, first appearance */
#define ST_COMMIT 53        /* [7] the last commit, under P_ARCH: */
#define CM_HOW 0            /*   CM_CUT, CM_WHOLE or CM_POST */
#define CM_CAUSE 1
#define CM_START 2
#define CM_VARIANT 3
#define CM_AT 4             /*   the cut, or the section's end */
#define CM_NWBB 5           /*   WBB entries flushed */
#define CM_CYCLES 6         /*   checkpoint cycles */
#define CM_CUT 0            /* a watchdog checkpoint inside the section */
#define CM_WHOLE 1          /* the checkpoint at the section's boundary */
#define CM_POST 2           /* an output's GO-phase post-checkpoint */
#define ST_LEN 60

/* One row of a group (int64 slots). */
#define R_TAB 0             /* the row's map table (T_* slots) */
#define R_PRM 1             /* its walk parameters (P_* slots) */
#define R_ON 2              /* its on-time array: a slot of the on-time table */
#define R_END 3             /* -1 while walking, then the end code */
#define R_NS 4              /* -(start ns) while walking, then its wall ns */
#define R_ST 5              /* [ST_LEN] run state */
#define R_LEN (R_ST + ST_LEN)

#define PH_WALK 0
#define PH_RESTART 1        /* mid power-loss: resume the boot loop */
#define PH_GO 2             /* an output's pre-checkpoint committed */
#define PH_DONE 3           /* the final checkpoint committed */

/* Section kinds / entry variants; repro.sim.sections mirrors them. */
#define BSEC_DETECTOR 0
#define BSEC_TEXT 1
#define BSEC_FORCED 2
#define BSEC_OUTPUT 3
#define BSEC_FINAL 4
#define BSEC_OPEN 5         /* cut short: boundary past the scanned end */
#define BVAR_FORCED_DONE 1
#define BVAR_DIRECT 2

#define SW_PTR(type, slot) ((type *)(intptr_t)tab[slot])

static int32_t sw_bisect_left64(const int64_t *a, int64_t x,
                                int32_t lo, int32_t hi)
{
    while (lo < hi) {
        int32_t mid = (int32_t)(((int64_t)lo + hi) >> 1);
        if (a[mid] < x) lo = mid + 1; else hi = mid;
    }
    return lo;
}

static int32_t sw_bisect_right64(const int64_t *a, int64_t x,
                                 int32_t lo, int32_t hi)
{
    while (lo < hi) {
        int32_t mid = (int32_t)(((int64_t)lo + hi) >> 1);
        if (a[mid] <= x) lo = mid + 1; else hi = mid;
    }
    return lo;
}

static int32_t sw_bisect_left32(const int32_t *a, int32_t x,
                                int32_t lo, int32_t hi)
{
    while (lo < hi) {
        int32_t mid = (int32_t)(((int64_t)lo + hi) >> 1);
        if (a[mid] < x) lo = mid + 1; else hi = mid;
    }
    return lo;
}

/* Row of ``key`` in a sorted key array, or -1. */
static int64_t sw_search(const int64_t *keys, int64_t nk, int64_t key)
{
    int64_t lo = 0, hi = nk;
    while (lo < hi) {
        int64_t mid = (lo + hi) >> 1;
        if (keys[mid] < key) lo = mid + 1; else hi = mid;
    }
    return (lo < nk && keys[lo] == key) ? lo : -1;
}

/* The boundary behaviour of a section, from its cause id (mirrors
 * repro.sim.sections._KIND_BY_CAUSE). */
static int32_t sw_kind(int32_t cause)
{
    switch (cause) {
    case CAUSE_COMPILER: return BSEC_FORCED;
    case CAUSE_OUTPUT: return BSEC_OUTPUT;
    case CAUSE_TEXT_WRITE: return BSEC_TEXT;
    case CAUSE_FINAL: return BSEC_FINAL;
    case CAUSE_OPEN: return BSEC_OPEN;
    default: return BSEC_DETECTOR;
    }
}

typedef struct {
    int32_t end, cause, nsteps;
    const int32_t *steps;
} sw_section;

/* Find ``key``: the flat chain first (the walk advances through it in
 * key order, so the last row and its successor are tried before a
 * search), then the overlay.  Returns 0, or -1 when neither holds it. */
static int sw_lookup(const int64_t *tab, int64_t key, int64_t *st,
                     sw_section *sec)
{
    const int64_t *keys = SW_PTR(const int64_t, T_KEYS);
    const int64_t nk = tab[T_NKEYS];
    int64_t j = st[ST_HINT];
    if (!(j < nk && keys[j] == key)) {
        if (j + 1 < nk && keys[j + 1] == key)
            j++;
        else
            j = sw_search(keys, nk, key);
    }
    if (j >= 0) {
        const int64_t *soff = SW_PTR(const int64_t, T_SOFF);
        st[ST_HINT] = j;
        sec->end = SW_PTR(const int32_t, T_ENDS)[j];
        sec->cause = SW_PTR(const uint8_t, T_CAUSES)[j];
        sec->steps = SW_PTR(const int32_t, T_STEPS) + soff[j];
        sec->nsteps = (int32_t)(soff[j + 1] - soff[j]);
        return 0;
    }
    j = sw_search(SW_PTR(const int64_t, T_OV_KEYS), tab[T_OV_N], key);
    if (j < 0)
        return -1;
    sec->end = SW_PTR(const int32_t, T_OV_ENDS)[j];
    sec->cause = SW_PTR(const uint8_t, T_OV_CAUSES)[j];
    sec->steps = SW_PTR(const int32_t, T_OV_STEPS)
        + SW_PTR(const int64_t, T_OV_SOFF)[j];
    sec->nsteps = SW_PTR(const int32_t, T_OV_NST)[j];
    return 0;
}

/* Whether a watchdog cut at ``p``, inside the section ``key`` of a run
 * whose furthest executed index is ``f`` (> p), keeps the walk exact under
 * ignore-false-writes: 1, 0 for a cut the reference must rerun, or -1
 * until the section's direct writes are loaded (SW_NEED_DW).  Failed
 * cycles of this section that reached past ``p`` may have left their
 * direct commits at [p, f) in non-volatile memory.  For each such word,
 * the stale value is the last direct write below the latest such reach
 * past the word's first stale write; the cut is unsafe iff it flips the
 * false-write class of the word's first non-output write at or above
 * ``p`` (no write of the word in [start, p), not an access-marked PI
 * write).  The test oracle (tests/cut_oracle.py) carries the proof. */
static int sw_cut_safe(const int64_t *tab, int64_t key, int64_t p, int64_t f,
                       const int64_t *reach, int64_t nreach)
{
    const int64_t s = key >> 2;
    const int32_t *dw, *wids, *woff, *widx;
    const uint32_t *values;
    const uint8_t *false_w, *out_w, *pi_acc;
    int32_t *seen;
    int32_t m, lo, hi, k, g;
    int64_t j, t;
    for (t = 0; t < nreach; t++)
        if (reach[2 * t] > p && reach[2 * t + 1] == s) break;
    if (t == nreach) return 1;
    j = sw_search(SW_PTR(const int64_t, T_DW_KEYS), tab[T_DW_N], key);
    if (j < 0) return -1;
    dw = SW_PTR(const int32_t, T_DW_IDX) + SW_PTR(const int64_t, T_DW_OFF)[j];
    m = SW_PTR(const int32_t, T_DW_CNT)[j];
    lo = sw_bisect_left32(dw, (int32_t)p, 0, m);
    hi = sw_bisect_left32(dw, (int32_t)f, lo, m);
    if (lo >= hi) return 1;
    wids = SW_PTR(const int32_t, T_WIDS);
    woff = SW_PTR(const int32_t, T_WOFF);
    widx = SW_PTR(const int32_t, T_WIDX);
    values = SW_PTR(const uint32_t, T_VALUES);
    false_w = SW_PTR(const uint8_t, T_FALSE_W);
    out_w = SW_PTR(const uint8_t, T_OUT_W);
    pi_acc = SW_PTR(const uint8_t, T_PI_ACC);
    seen = SW_PTR(int32_t, T_SEEN);
    g = ++seen[0];
    for (k = lo; k < hi; k++) {
        const int32_t d0 = dw[k], v = wids[d0];
        int64_t r = -1;
        int32_t a, b, q, jj;
        if (seen[1 + v] == g) continue;  /* judged at its first stale write */
        seen[1 + v] = g;
        for (t = nreach - 1; t >= 0; t--) {
            if (reach[2 * t + 1] == s && reach[2 * t] > d0) {
                r = reach[2 * t];
                break;
            }
        }
        if (r < 0) continue;  /* no failed cycle executed d0 */
        a = woff[v];
        b = woff[v + 1];
        q = sw_bisect_left32(widx, (int32_t)p, a, b);
        if (q > a && widx[q - 1] >= s) continue;  /* re-committed below p */
        while (q < b && out_w[widx[q]]) q++;
        if (q == b) continue;  /* never consulted again */
        q = widx[q];
        if (pi_acc && pi_acc[q]) continue;  /* re-commits directly */
        jj = sw_bisect_left32(dw, (int32_t)r, k, m) - 1;
        while (wids[dw[jj]] != v) jj--;
        if ((values[q] == values[dw[jj]]) != false_w[q]) return 0;
    }
    return 1;
}

/* One committed checkpoint of cause ``cid``. */
static void sw_count(int64_t *st, int32_t cid)
{
    if (st[ST_COUNTS + cid]++ == 0)
        st[ST_ORDER + st[ST_NORDER]++] = cid;
}

/* Commit bookkeeping shared by every checkpoint: the Progress Watchdog's
 * non-volatile state resets and the power cycle made progress. */
static void sw_committed(int64_t *st, int64_t prog_default)
{
    if (prog_default > 0) {
        st[ST_PROG_EN] = 0;
        st[ST_PROG_NV] = 0;
        st[ST_PROG_NO_CKPT] = 0;
    }
    st[ST_PROGRESS] = 1;
}

/* The boot loop of ``restart_sequence``: draw on-times until one affords
 * the restart routine.  Atomic per iteration around its draw, so a
 * SW_NEED_ONTIMES return re-enters cleanly at the loop top. */
static int sw_restart(const int64_t *ontimes, int64_t n_ontimes,
                      const int64_t *prm, int64_t *st)
{
    const int64_t rcost = prm[P_RCOST];
    const int64_t prog_default = prm[P_PROG_DEFAULT];
    for (;;) {
        int64_t on;
        if (st[ST_POS] >= n_ontimes) return SW_NEED_ONTIMES;
        on = ontimes[st[ST_POS]++];
        st[ST_PROGRESS] = 0;
        st[ST_PROG_EN] = 0;
        if (prog_default > 0) {
            if (!st[ST_PROG_NO_CKPT]) {
                st[ST_PROG_NO_CKPT] = 1;
            } else {
                if (st[ST_PROG_NV] > 0 && prm[P_PROG_ADAPTIVE]) {
                    st[ST_PROG_NV] >>= 1;
                    if (st[ST_PROG_NV] < 1) st[ST_PROG_NV] = 1;
                } else if (st[ST_PROG_NV] == 0) {
                    st[ST_PROG_NV] = prog_default;
                }
                st[ST_PROG_EN] = 1;
                st[ST_PROG_REM] = st[ST_PROG_NV];
            }
        }
        if (on >= rcost) {
            st[ST_RESTART] += rcost;
            st[ST_ONLEFT] = on - rcost;
            st[ST_PHASE] = PH_WALK;
            return 0;
        }
        st[ST_RESTART] += on;
        st[ST_PC] += 1;
        st[ST_WASTED_PC] += 1;
        if (st[ST_PC] > prm[P_MAX_PC]) {
            st[ST_OUT] = -1;
            return SW_STALL;
        }
    }
}

/* ``power_loss(at_i)`` + the restart: record the failed cycle's reach,
 * tick the power-cycle counters, then boot.  Enters PH_RESTART before
 * the boot loop so a SW_NEED_ONTIMES resume skips straight back in. */
static int sw_power_loss(int64_t at_i,
                         const int64_t *ontimes, int64_t n_ontimes,
                         const int64_t *prm, int64_t *reach, int64_t *st)
{
    int64_t i = st[ST_I];
    if (prm[P_IG_FW] && at_i > i) {
        int64_t nr = st[ST_NREACH];
        while (nr > 0 && reach[2 * (nr - 1) + 1] == i
               && reach[2 * (nr - 1)] <= at_i)
            nr--;
        if (nr >= prm[P_REACH_CAP]) return SW_REACH_FULL;
        reach[2 * nr] = at_i;
        reach[2 * nr + 1] = i;
        nr++;
        if (nr > 64) {
            int64_t w = 0, k;
            for (k = 0; k < nr; k++) {
                if (reach[2 * k] > i) {
                    reach[2 * w] = reach[2 * k];
                    reach[2 * w + 1] = reach[2 * k + 1];
                    w++;
                }
            }
            nr = w;
        }
        st[ST_NREACH] = nr;
    }
    if (!st[ST_PROGRESS]) st[ST_WASTED_PC] += 1;
    st[ST_PC] += 1;
    if (st[ST_PC] > prm[P_MAX_PC]) {
        st[ST_OUT] = at_i;
        return SW_STALL;
    }
    st[ST_PHASE] = PH_RESTART;
    return sw_restart(ontimes, n_ontimes, prm, st);
}

/* The useful/re-executed split of an executed span [st[ST_I], m). */
static void sw_account(int64_t m, const int64_t *gcum, int64_t *st)
{
    int64_t s = st[ST_I], fu = st[ST_FURTHEST];
    if (m <= fu) {
        st[ST_REEXEC] += gcum[m] - gcum[s];
    } else if (s >= fu) {
        st[ST_USEFUL] += gcum[m] - gcum[s];
        st[ST_FURTHEST] = m;
        st[ST_PROGRESS] = 1;
    } else {
        st[ST_REEXEC] += gcum[fu] - gcum[s];
        st[ST_USEFUL] += gcum[m] - gcum[fu];
        st[ST_FURTHEST] = m;
        st[ST_PROGRESS] = 1;
    }
}

/* Under P_ARCH, describe the commit just made in st[ST_COMMIT..] and
 * stop with SW_COMMIT; otherwise go on (0). */
static int sw_report(const int64_t *prm, int64_t *st, int64_t how,
                     int64_t cause, int64_t start, int64_t variant,
                     int64_t at, int64_t nwbb, int64_t c)
{
    int64_t *cm = st + ST_COMMIT;
    if (!prm[P_ARCH]) return 0;
    cm[CM_HOW] = how;
    cm[CM_CAUSE] = cause;
    cm[CM_START] = start;
    cm[CM_VARIANT] = variant;
    cm[CM_AT] = at;
    cm[CM_NWBB] = nwbb;
    cm[CM_CYCLES] = c;
    return SW_COMMIT;
}

/* The GO phase of the output at st[ST_I], whose pre-checkpoint just
 * committed: the output executes between its two checkpoints and never
 * ticks the watchdogs; any power loss forgets the pre-checkpoint
 * (output_ready is volatile), so a retry re-runs the whole protocol from
 * the committed start. */
static int sw_go(const int64_t *acc, const int64_t *ontimes,
                 int64_t n_ontimes, const int64_t *prm, int64_t *reach,
                 int64_t *st)
{
    const int64_t end = st[ST_I];
    const int64_t ce = acc[end];
    const int64_t base_ck = prm[P_BASE_CK];
    int64_t on_left = st[ST_ONLEFT];
    if (on_left < ce) {
        st[ST_WASTED] += on_left;
        st[ST_FORCED_DONE] = -1;
        return sw_power_loss(end, ontimes, n_ontimes, prm, reach, st);
    }
    st[ST_ONLEFT] = on_left = on_left - ce;
    st[ST_OUTPUTS] += 1;
    if (end < st[ST_FURTHEST]) {
        st[ST_DUP] += 1;
        st[ST_REEXEC] += ce;
    } else {
        st[ST_USEFUL] += ce;
        st[ST_FURTHEST] = end + 1;
        st[ST_PROGRESS] = 1;
    }
    if (on_left < base_ck) {
        st[ST_WASTED] += on_left;
        return sw_power_loss(end + 1, ontimes, n_ontimes, prm, reach, st);
    }
    st[ST_ONLEFT] -= base_ck;
    st[ST_CKPT] += base_ck;
    sw_count(st, CAUSE_OUTPUT);
    sw_committed(st, prm[P_PROG_DEFAULT]);
    st[ST_I] = end + 1;
    return sw_report(prm, st, CM_POST, CAUSE_OUTPUT, end, 0, end + 1, 0,
                     base_ck);
}

/* Power fails at ``at``: the attempt is accounted, so lose power, boot,
 * and resume the walk (or hand the stop code to Python). */
#define SW_LOSE(at)                                                     \
    do {                                                                \
        int rc_ = sw_power_loss((at), ontimes, n_ontimes, prm, reach,   \
                                st);                                    \
        if (rc_) return rc_;                                            \
    } while (0)

/* A commit is made: stop if it must be reported. */
#define SW_REPORT(how, cause, at, nwbb, c)                              \
    do {                                                                \
        int rc_ = sw_report(prm, st, (how), (cause), s, variant, (at),  \
                            (nwbb), (c));                               \
        if (rc_) return rc_;                                            \
    } while (0)

/* Walk one row: until it ends (SW_DONE, SW_STALL, SW_CUT_UNSAFE,
 * SW_REACH_FULL) or needs Python. */
static int64_t sw_walk(
    const int64_t *tab,        /* per-map table (T_* slots) */
    const int64_t *prm,        /* per-run parameters (P_* slots) */
    const int64_t *ontimes,    /* this run's schedule on-times so far */
    int64_t n_ontimes,
    int64_t *st,               /* persistent run state (ST_* slots) */
    int64_t *reach,            /* [2*reach_cap] (reach, start) pairs */
    int64_t *safe_cuts)        /* counts the cuts sw_cut_safe passes */
{
    const int64_t *gcum = SW_PTR(const int64_t, T_GCUM);
    const int64_t *acc = SW_PTR(const int64_t, T_ACC);
    const uint8_t *forced_mask = SW_PTR(const uint8_t, T_FORCED);
    const int32_t n = (int32_t)tab[T_N];
    const int64_t base_ck = prm[P_BASE_CK];
    const int64_t flush_base = prm[P_FLUSH_BASE];
    const int64_t per_entry = prm[P_PER_ENTRY];
    const int64_t perf_load = prm[P_PERF_LOAD];
    const int64_t prog_default = prm[P_PROG_DEFAULT];
    const int64_t ig_fw = prm[P_IG_FW];

    switch (st[ST_PHASE]) {
    case PH_RESTART: {
        int rc = sw_restart(ontimes, n_ontimes, prm, st);
        if (rc) return rc;
        break;
    }
    case PH_GO: {
        int rc;
        st[ST_PHASE] = PH_WALK;
        rc = sw_go(acc, ontimes, n_ontimes, prm, reach, st);
        if (rc) return rc;
        break;
    }
    case PH_DONE:
        return SW_DONE;
    }
    for (;;) {
        int64_t s = st[ST_I];
        int64_t variant = 0;
        int64_t key, base, on_left;
        int32_t end, kind;
        int32_t fire_m = -1, fire_prog = 0, u;
        sw_section sec;
        if (st[ST_DIRECT]) {
            variant = BVAR_DIRECT;
        } else if (st[ST_FORCED_DONE] == s && forced_mask[s]) {
            variant = BVAR_FORCED_DONE;
        }
        key = (s << 2) | variant;
        if (sw_lookup(tab, key, st, &sec)) {
            st[ST_OUT] = key;
            return SW_NEED_SECTION;
        }
        end = sec.end;
        kind = sw_kind(sec.cause);
        base = gcum[s];
        on_left = st[ST_ONLEFT];

        if (st[ST_PROG_EN]) {
            int32_t j = sw_bisect_left64(gcum, base + st[ST_PROG_REM],
                                         (int32_t)s + 1, end + 1);
            if (j <= end) {
                fire_m = j - 1;
                fire_prog = 1;
            }
        }
        if (perf_load > 0) {
            int32_t j = sw_bisect_left64(gcum, base + perf_load,
                                         (int32_t)s + 1, end + 1);
            if (j <= end && (fire_m < 0 || j - 1 < fire_m)) {
                fire_m = j - 1;
                fire_prog = 0;
            }
        }

        u = sw_bisect_right64(gcum, base + on_left, (int32_t)s + 1, end + 1);
        if (kind == BSEC_OPEN && u > end && fire_m < 0) {
            /* This attempt runs past an open section's scanned end:
             * Python scans the whole section. */
            st[ST_OUT] = key;
            return SW_NEED_SECTION;
        }
        if (u <= end && (fire_m < 0 || u - 1 <= fire_m)) {
            /* Power fails mid-span. */
            int64_t mf = u - 1;
            int64_t was_direct = st[ST_DIRECT];
            sw_account(mf, gcum, st);
            st[ST_WASTED] += on_left - (gcum[mf] - base);
            if (!(was_direct && mf == s)) st[ST_FORCED_DONE] = -1;
            st[ST_DIRECT] = 0;
            SW_LOSE(mf);
            continue;
        }

        if (fire_m >= 0) {
            /* A watchdog fires after access fire_m. */
            int64_t m1 = fire_m + 1;
            int64_t span = gcum[m1] - base;
            int32_t nwbb = sw_bisect_left32(sec.steps, (int32_t)m1, 0,
                                            sec.nsteps);
            int64_t c = base_ck
                + (nwbb ? flush_base + nwbb * per_entry : 0);
            if (on_left - span >= c && ig_fw && st[ST_FURTHEST] > m1) {
                /* Decided before any mutation, so a resume after
                 * SW_NEED_DW re-derives the same cut. */
                int safe = sw_cut_safe(tab, key, m1, st[ST_FURTHEST], reach,
                                       st[ST_NREACH]);
                if (safe < 0) {
                    st[ST_OUT] = key;
                    return SW_NEED_DW;
                }
                if (!safe) return SW_CUT_UNSAFE;
                *safe_cuts += 1;
            }
            sw_account(m1, gcum, st);
            st[ST_ONLEFT] = on_left = on_left - span;
            if (on_left < c) {
                st[ST_WASTED] += on_left;
                st[ST_DIRECT] = 0;
                SW_LOSE(m1);
                continue;
            }
            st[ST_ONLEFT] -= c;
            st[ST_CKPT] += c;
            st[ST_WBB] += nwbb;
            sw_count(st, fire_prog ? CAUSE_PROGRESS_WDT : CAUSE_PERF_WDT);
            sw_committed(st, prog_default);
            st[ST_I] = m1;
            st[ST_DIRECT] = 0;
            SW_REPORT(CM_CUT, fire_prog ? CAUSE_PROGRESS_WDT : CAUSE_PERF_WDT,
                      m1, nwbb, c);
            continue;
        }

        /* The whole span executes; handle the boundary. */
        sw_account(end, gcum, st);
        st[ST_ONLEFT] = on_left = on_left - (gcum[end] - base);

        if (kind == BSEC_DETECTOR || kind == BSEC_TEXT
            || kind == BSEC_OUTPUT) {
            /* The boundary access is fetched first: power can fail on
             * it before the checkpoint is attempted. */
            int64_t ce = acc[end];
            int32_t nwbb = sec.nsteps;
            int64_t c = base_ck + (nwbb ? flush_base + nwbb * per_entry : 0);
            if (on_left < ce) {
                st[ST_WASTED] += on_left;
                st[ST_FORCED_DONE] = -1;
                st[ST_DIRECT] = 0;
                SW_LOSE(end);
                continue;
            }
            if (on_left < c) {
                st[ST_WASTED] += on_left;
                st[ST_DIRECT] = 0;
                SW_LOSE(end);
                continue;
            }
            st[ST_ONLEFT] = on_left - c;
            st[ST_CKPT] += c;
            st[ST_WBB] += nwbb;
            sw_count(st, sec.cause);
            sw_committed(st, prog_default);
            st[ST_I] = end;
            /* A text write commits directly as the first access of the
             * next section (VARIANT_DIRECT). */
            st[ST_DIRECT] = kind == BSEC_TEXT;
            if (kind == BSEC_OUTPUT) {
                int rc;
                if (prm[P_ARCH]) {
                    st[ST_PHASE] = PH_GO;
                    SW_REPORT(CM_WHOLE, sec.cause, end, nwbb, c);
                }
                rc = sw_go(acc, ontimes, n_ontimes, prm, reach, st);
                if (rc) return rc;
                continue;
            }
            SW_REPORT(CM_WHOLE, sec.cause, end, nwbb, c);
            continue;
        }

        {
            /* BSEC_FORCED and BSEC_FINAL: a checkpoint at the boundary. */
            int32_t nwbb = sec.nsteps;
            int64_t c = base_ck + (nwbb ? flush_base + nwbb * per_entry : 0);
            if (on_left < c) {
                st[ST_WASTED] += on_left;
                if (kind == BSEC_FORCED) st[ST_FORCED_DONE] = -1;
                st[ST_DIRECT] = 0;
                SW_LOSE(kind == BSEC_FORCED ? end : n);
                continue;
            }
            st[ST_ONLEFT] -= c;
            st[ST_CKPT] += c;
            st[ST_WBB] += nwbb;
            sw_count(st, sec.cause);
            sw_committed(st, prog_default);
            if (kind == BSEC_FINAL) {
                st[ST_PHASE] = PH_DONE;
                SW_REPORT(CM_WHOLE, sec.cause, n, nwbb, c);
                return SW_DONE;
            }
            st[ST_FORCED_DONE] = end;
            st[ST_I] = end;
            st[ST_DIRECT] = 0;
            SW_REPORT(CM_WHOLE, sec.cause, end, nwbb, c);
        }
    }
}

static int64_t sw_now_ns(void)
{
    struct timespec ts;
    clock_gettime(CLOCK_MONOTONIC, &ts);
    return (int64_t)ts.tv_sec * 1000000000 + ts.tv_nsec;
}

/* Walk the group's rows from row ``hdr[0]`` on, each to its end code in
 * R_END, counting safe cuts in ``hdr[1]``; returns SW_DONE once every row
 * has ended, else the stop code of the row at ``hdr[0]`` that needs
 * Python.  A row's R_NS ends as the wall-clock nanoseconds from its
 * first step to its end, the Python stops it needed included.  Rows that
 * share a schedule seed share an on-time array: ``ons[0]`` is the
 * on-times each array holds, and ``ons[1 + k]`` the address of array
 * ``k``. */
int64_t group_walk(int64_t *rows, int64_t nrows, int64_t *hdr,
                   int64_t *reach, const int64_t *ons)
{
    for (; hdr[0] < nrows; hdr[0]++) {
        int64_t *row = rows + hdr[0] * R_LEN;
        if (row[R_NS] == 0)
            row[R_NS] = -sw_now_ns();
        int64_t rc = sw_walk((const int64_t *)(intptr_t)row[R_TAB],
                             (const int64_t *)(intptr_t)row[R_PRM],
                             (const int64_t *)(intptr_t)ons[1 + row[R_ON]],
                             ons[0], row + R_ST, reach, hdr + 1);
        if (rc == SW_NEED_SECTION || rc == SW_NEED_ONTIMES
            || rc == SW_NEED_DW || rc == SW_COMMIT)
            return rc;
        row[R_END] = rc;
        row[R_NS] += sw_now_ns();
    }
    return SW_DONE;
}

/* sw_cut_safe over ``nreach`` (reach, start) pairs, for the tests. */
int64_t walk_cut_safe(const int64_t *tab, int64_t key, int64_t p, int64_t f,
                      const int64_t *reach, int64_t nreach)
{
    return sw_cut_safe(tab, key, p, f, reach, nreach);
}
