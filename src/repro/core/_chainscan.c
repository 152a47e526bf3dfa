/* Straight-line idempotent-section chain scan.
 *
 * A C port of the inner loop of
 * ``repro.core.detector.IdempotencyDetector.straightline_chain`` — the
 * one O(n-accesses) pass the section-memoized fast path cannot avoid.
 * The Python generator remains the reference implementation (and the
 * fallback when no C compiler is available); this kernel must replay its
 * decision sequence branch-for-branch.  Inputs are the same precomputed
 * per-trace arrays (``CompiledTrace.scan_arrays`` / ``prefix_ids``) and
 * the same generation-stamped flat membership scratch, so the two
 * implementations share every data-structure invariant.
 *
 * Compiled on demand by ``repro.core.cext`` via the system C compiler;
 * no Python.h dependency, plain int32 buffers across the ctypes
 * boundary.
 */

#include <stdint.h>

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
/* Scan only the first section, recording its direct-commit (write-first
 * path) trace indices into dw_out — the lazy derivation behind
 * SectionMap.watchdog_cut_safe. */
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

int64_t chain_scan(
    const uint8_t *ops,      /* [n] per-access op bits */
    const int32_t *wids,     /* [n] dense word ids */
    const int32_t *pids,     /* [n] dense prefix ids (APB) or NULL */
    const uint8_t *pi,       /* [n] PI membership mask or NULL */
    const int32_t *fs,       /* [nfs] ascending forced-checkpoint indices */
    int32_t nfs,
    int32_t n,
    int32_t start,
    int32_t direct,          /* entry is a committed direct text write */
    int32_t forced_done,     /* committed compiler checkpoint index or -1 */
    int32_t rf_cap,
    int32_t wf_cap,
    int32_t wbb_cap,
    int32_t apb_cap,
    int32_t flags,
    int32_t *rf_g,           /* [n_words] generation-stamp scratch */
    int32_t *wf_g,           /* [n_words] */
    int32_t *wbb_g,          /* [n_words] */
    int32_t *apb_g,          /* [n_prefixes] */
    int32_t *gen_io,         /* [1] generation counter, persists */
    int32_t *sec_start,      /* [max_sections] outputs ... */
    uint8_t *sec_variant,
    int32_t *sec_end,
    uint8_t *sec_cause,
    int32_t *steps_off,      /* [max_sections + 1] */
    int32_t *steps_flat,     /* [n + 1] WBB-growth indices, flattened */
    int32_t *dw_out,         /* [n + 1] F_FIRST_DW: count, then indices */
    const int64_t *stop_keys,/* sorted keys already enumerated, or NULL */
    int64_t n_stop,          /* the chain stops before reaching one */
    const int64_t *gcum,     /* [n+1] cycle prefix sums (perf_load > 0) */
    int64_t perf_load)       /* Performance Watchdog load, or 0 */
{
    const int apb_on = flags & F_APB_ON;
    const int ignore_text = flags & F_IGNORE_TEXT;
    const int ig_fw = flags & F_IGNORE_FALSE_WRITES;
    const int rm_dup = flags & F_REMOVE_DUPLICATES;
    const int no_wf_ovf = flags & F_NO_WF_OVERFLOW;
    const int latest = flags & F_LATEST_CHECKPOINT;
    const int has_pi = flags & F_HAS_PI;
    const int first_dw = flags & F_FIRST_DW;
    int32_t dw_n = 0;
    int32_t g = *gen_io;
    int64_t nsec = 0;
    int32_t nsteps = 0;
    int32_t fidx = 0;

    steps_off[0] = 0;
    for (;;) {
        /* -- section entry: resolve the variant -- */
        while (fidx < nfs && fs[fidx] < start)
            fidx++;
        int at_forced = (fidx < nfs && fs[fidx] == start);
        int32_t variant, scan_from;
        if (nsec > 0 && n_stop > 0) {
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
            /* Zero-length section: the compiler checkpoint fires before
             * the access at ``start`` is even classified. */
            sec_start[nsec] = start;
            sec_variant[nsec] = 0;
            sec_end[nsec] = start;
            sec_cause[nsec] = CAUSE_COMPILER;
            steps_off[nsec + 1] = nsteps;
            nsec++;
            if (first_dw) {
                dw_out[0] = dw_n;
                *gen_io = g;
                return nsec;
            }
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
        /* With a Performance Watchdog no attempt from ``start`` gets
         * past the access that fires it, so the scan stops there; a
         * section whose boundary lies further stays open, and the chain
         * goes on from the cut, where the watchdog commits. */
        int32_t lim = n;
        if (perf_load > 0) {
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
                if (wbb_g[v] == g) {
                    i++; /* in-place update; no growth */
                    continue;
                }
                if (wf_g[v] == g) {
                    if (first_dw)
                        dw_out[++dw_n] = i;
                    i++;
                    continue;
                }
                if (rf_g[v] == g) {
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
                    wbb_g[v] = g;
                    wbb_len++;
                    steps_flat[nsteps++] = i;
                    if (rm_dup) {
                        rf_g[v] = 0;
                        rf_len--;
                    }
                    i++;
                    continue;
                }
                /* Fresh address: write-dominated. */
                if (wf_cap == 0) {
                    if (first_dw)
                        dw_out[++dw_n] = i;
                    i++;
                    continue;
                }
                if (wf_len >= wf_cap) {
                    if (no_wf_ovf) {
                        if (first_dw)
                            dw_out[++dw_n] = i;
                        i++;
                        continue;
                    }
                    end = i;
                    cause = CAUSE_WF_FULL;
                    break;
                }
                if (apb_on) {
                    int32_t p = pids[i];
                    if (apb_g[p] != g) {
                        if (apb_len >= apb_cap) {
                            if (no_wf_ovf) {
                                if (first_dw)
                                    dw_out[++dw_n] = i;
                                i++;
                                continue;
                            }
                            end = i;
                            cause = CAUSE_APB_FULL;
                            break;
                        }
                        apb_g[p] = g;
                        apb_len++;
                    }
                }
                wf_g[v] = g;
                wf_len++;
                if (first_dw)
                    dw_out[++dw_n] = i;
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
            if (rf_g[v] == g || wbb_g[v] == g || wf_g[v] == g) {
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
                if (apb_g[p] != g) {
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
                    apb_g[p] = g;
                    apb_len++;
                }
            }
            rf_g[v] = g;
            rf_len++;
            i++;
        }
        if (untracked) {
            /* Untracked tail (latest-checkpoint mode after a read-side
             * fill): reads always pass, so only writes need
             * classifying. */
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
                    } else if (wbb_g[wids[i]] == g) {
                        /* WBB-owned write: in-place update, never a
                         * boundary — mirrors on_write. */
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
        sec_start[nsec] = start;
        sec_variant[nsec] = (uint8_t)variant;
        sec_end[nsec] = end;
        sec_cause[nsec] = cause;
        steps_off[nsec + 1] = nsteps;
        nsec++;
        if (first_dw) {
            dw_out[0] = dw_n;
            *gen_io = g;
            return nsec;
        }

        /* -- follow the boundary into the next section -- */
        if (cause == CAUSE_FINAL)
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
    *gen_io = g;
    return nsec;
}

/* ------------------------------------------------------------------ *
 * Section walk: one power schedule replayed over a SectionMap.
 *
 * A C port of the section walk in ``repro.sim.fast.FastReplaySimulator``
 * that serves scalar runs (``simulate_fast``) and batched schedule rows
 * (``repro.sim.batch``) alike.  It reads the map's flat canonical-chain
 * arrays in place — sorted ``keys``, ``ends``, ``causes``, ``soff`` and
 * ``steps``, exactly as the family kernel emits them — finding a section
 * by searching ``keys`` and deriving its kind from its cause id.  A small
 * sorted overlay table holds the off-chain sections (watchdog cuts,
 * direct re-entries) Python has resolved so far.  Checkpoints are
 * counted per fixed cause id, with the ids' first-appearance order, so
 * the caller rebuilds ``checkpoints_by_cause`` in the Python walker's
 * key order.
 *
 * One call replays until the run finishes or needs Python — a section
 * neither table holds, more schedule on-times, a ``watchdog_cut_safe``
 * verdict — and is then re-entered with the same state array once Python
 * has supplied what was missing.  Resumability is by construction: every
 * return to Python happens either before any state mutation of the
 * current section attempt (SW_NEED_SECTION, SW_NEED_CUT — the re-entered
 * walk re-derives the identical decision point) or with the attempt
 * fully accounted and only the restart sequence pending
 * (SW_NEED_ONTIMES, marked by PH_RESTART, where each restart iteration is
 * itself atomic around its single schedule draw).  SW_FALLBACK runs
 * (power-cycle budget exhausted, reach-buffer overflow) are rerun whole
 * by the Python walker — schedules re-seed, so the rerun is exact.
 */

/* Stop codes. */
#define SW_DONE 0
#define SW_NEED_SECTION 1   /* st[ST_OUT] = (start<<2)|variant */
#define SW_NEED_ONTIMES 2
#define SW_NEED_CUT 3       /* st[ST_OUT..+3] = start, variant, cut, furthest */
#define SW_FALLBACK 4

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

#define PH_WALK 0
#define PH_RESTART 1        /* mid power-loss: resume the boot loop */

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
            return 0;
        }
        st[ST_RESTART] += on;
        st[ST_PC] += 1;
        st[ST_WASTED_PC] += 1;
        if (st[ST_PC] > prm[P_MAX_PC]) return SW_FALLBACK;
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
        if (nr >= prm[P_REACH_CAP]) return SW_FALLBACK;
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
    if (st[ST_PC] > prm[P_MAX_PC]) return SW_FALLBACK;
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

/* Power fails at ``at``: the attempt is accounted, so lose power, boot,
 * and resume the walk (or hand the stop code to Python). */
#define SW_LOSE(at)                                                     \
    do {                                                                \
        int rc_ = sw_power_loss((at), ontimes, n_ontimes, prm, reach,   \
                                st);                                    \
        if (rc_) return rc_;                                            \
        st[ST_PHASE] = PH_WALK;                                         \
    } while (0)

int64_t section_walk(
    const int64_t *tab,        /* per-map table (T_* slots) */
    const int64_t *prm,        /* per-run parameters (P_* slots) */
    const int64_t *ontimes,    /* this run's schedule on-times so far */
    int64_t n_ontimes,
    int32_t cut_ok,            /* 1: first cut check this call is safe */
    int64_t *st,               /* persistent run state (ST_* slots) */
    int64_t *reach)            /* [2*reach_cap] (reach, start) pairs */
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

    if (st[ST_PHASE] == PH_RESTART) {
        int rc = sw_restart(ontimes, n_ontimes, prm, st);
        if (rc) return rc;
        st[ST_PHASE] = PH_WALK;
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
                /* The cut needs watchdog_cut_safe — decided in Python,
                 * before any mutation so the resume re-derives it. */
                if (cut_ok != 1) {
                    st[ST_OUT] = s;
                    st[ST_OUT + 1] = variant;
                    st[ST_OUT + 2] = m1;
                    st[ST_OUT + 3] = st[ST_FURTHEST];
                    return SW_NEED_CUT;
                }
                cut_ok = -1;
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
            st[ST_ONLEFT] = on_left = on_left - c;
            st[ST_CKPT] += c;
            st[ST_WBB] += nwbb;
            sw_count(st, sec.cause);
            sw_committed(st, prog_default);
            st[ST_I] = end;

            if (kind == BSEC_DETECTOR) {
                st[ST_DIRECT] = 0;
                continue;
            }
            if (kind == BSEC_TEXT) {
                st[ST_DIRECT] = 1;
                continue;
            }

            /* BSEC_OUTPUT: the GO phase. */
            st[ST_DIRECT] = 0;
            if (on_left < ce) {
                st[ST_WASTED] += on_left;
                st[ST_FORCED_DONE] = -1;
                SW_LOSE(end);
                continue;
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
                SW_LOSE(end + 1);
                continue;
            }
            st[ST_ONLEFT] -= base_ck;
            st[ST_CKPT] += base_ck;
            sw_count(st, CAUSE_OUTPUT);
            sw_committed(st, prog_default);
            st[ST_I] = end + 1;
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
            if (kind == BSEC_FINAL)
                return SW_DONE;
            st[ST_FORCED_DONE] = end;
            st[ST_I] = end;
            st[ST_DIRECT] = 0;
        }
    }
}

/* ------------------------------------------------------------------ *
 * Config-family chain scan: one kernel call, K configurations.
 *
 * A sweep family's members differ only in buffer capacities and policy
 * flags, never in the trace, the PI marking, or the forced-checkpoint
 * set — so their chain scans read the same ops/wids/pids/pi arrays.
 * This kernel runs the members *sequentially*, each as a verbatim copy
 * of chain_scan's loop with its state held in registers, so every
 * member's section table is bit-identical to an independent scalar
 * scan by construction.  The win over K separate chain_scan calls is
 * structural, not microarchitectural: one foreign-function invocation,
 * one engine setup, and member-major flat emission that the caller
 * installs with contiguous slice copies instead of a per-section
 * Python ingest loop.  (An earlier variant advanced all K state
 * machines per access; it saved the shared ops/wids loads but paid
 * more per member-access in strided state traffic than the scalar
 * loop pays in total, so sequential is strictly faster.)
 *
 * Membership scratch is member-major (member c owns the contiguous
 * block rf_g[c*n_words .. (c+1)*n_words)), matching the scalar
 * kernel's access locality; the shared generation counter persists
 * across calls (like chain_scan's), so the scratch is never re-zeroed.
 * Sections are emitted member-major into pre-segmented output arrays
 * (member c owns slots [c*ev_percap, (c+1)*ev_percap), steps-offset
 * slots [c*(ev_percap+1), ...) and steps [c*st_percap, ...));
 * per-section WBB growth steps are written directly into the member's
 * steps segment as they are discovered, and each section's end offset
 * into that segment follows it — sequential emission needs no staging,
 * and every per-member output is ready to install as a slice copy.
 *
 * Returns 0, -1 when any member's event or steps segment would
 * overflow (the caller doubles the segment sizes and retries; the
 * generation write-back keeps the partially-stamped scratch valid),
 * or -2 for a non-positive nk.
 * ------------------------------------------------------------------ */

int64_t family_chain_scan(
    const uint8_t *ops,       /* [n] per-access op bits */
    const int32_t *wids,      /* [n] dense word ids */
    const int32_t *pids,      /* [n] dense prefix ids or NULL */
    const uint8_t *pi,        /* [n] PI membership mask or NULL */
    const int32_t *fs,        /* [nfs] ascending forced indices */
    int32_t nfs,
    int32_t n,
    int32_t n_words,          /* scratch block stride per member */
    int32_t n_prefixes,       /* APB scratch block stride per member */
    int32_t start0,           /* chain entry (canonical: 0) */
    int32_t nk,               /* members in the family */
    const int32_t *caps,      /* [4*nk] rf, wf, wbb, apb per member */
    const int32_t *cflags,    /* [nk] per-member F_* bits */
    int32_t *rf_g,            /* [nk*n_words] stamp scratch, member-major */
    int32_t *wf_g,            /* [nk*n_words] */
    int32_t *wbb_g,           /* [nk*n_words] */
    int32_t *apb_g,           /* [nk*n_prefixes] */
    int32_t *gen_io,          /* [1] generation counter, persists */
    int64_t *ev_key,          /* [nk*ev_percap] outputs, member-major */
    int32_t *ev_end,
    uint8_t *ev_cause,
    int64_t *ev_soff,         /* [nk*(ev_percap+1)] steps offsets */
    int32_t *steps_out,       /* [nk*st_percap] member-major wbb steps */
    int64_t ev_percap,
    int64_t st_percap,
    int32_t *out_nev,         /* [nk] out: events per member */
    int32_t *out_nst)         /* [nk] out: steps per member */
{
    int32_t g = *gen_io;

    if (nk <= 0)
        return -2;
    for (int32_t c = 0; c < nk; c++) {
        const int32_t rf_cap = caps[4 * c];
        const int32_t wf_cap = caps[4 * c + 1];
        const int32_t wbb_cap = caps[4 * c + 2];
        const int32_t apb_cap = caps[4 * c + 3];
        const int32_t flags = cflags[c];
        const int apb_on = flags & F_APB_ON;
        const int ignore_text = flags & F_IGNORE_TEXT;
        const int ig_fw = flags & F_IGNORE_FALSE_WRITES;
        const int rm_dup = flags & F_REMOVE_DUPLICATES;
        const int no_wf_ovf = flags & F_NO_WF_OVERFLOW;
        const int latest = flags & F_LATEST_CHECKPOINT;
        const int has_pi = flags & F_HAS_PI;
        int32_t *rf_c = rf_g + (int64_t)c * n_words;
        int32_t *wf_c = wf_g + (int64_t)c * n_words;
        int32_t *wbb_c = wbb_g + (int64_t)c * n_words;
        int32_t *apb_c = apb_g + (int64_t)c * n_prefixes;
        int64_t *key_c = ev_key + (int64_t)c * ev_percap;
        int32_t *end_c = ev_end + (int64_t)c * ev_percap;
        uint8_t *cz_c = ev_cause + (int64_t)c * ev_percap;
        int64_t *so_c = ev_soff + (int64_t)c * (ev_percap + 1);
        int32_t *st_c = steps_out + (int64_t)c * st_percap;
        int32_t nev = 0, nst = 0;
        int32_t start = start0;
        int32_t direct = 0, forced_done = -1;
        int32_t fidx = 0;

        so_c[0] = 0;
        for (;;) {
            /* -- section entry: resolve the variant -- */
            while (fidx < nfs && fs[fidx] < start)
                fidx++;
            int at_forced = (fidx < nfs && fs[fidx] == start);
            int32_t variant, scan_from;
            if (direct) {
                variant = 2;
                scan_from = start + 1;
            } else if (at_forced && forced_done != start) {
                /* Zero-length section: the compiler checkpoint fires
                 * before the access at ``start`` is classified. */
                if (nev >= ev_percap)
                    goto overflow;
                key_c[nev] = (int64_t)start << 2;
                end_c[nev] = start;
                cz_c[nev] = CAUSE_COMPILER;
                so_c[nev + 1] = nst;
                nev++;
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
            int32_t end = n;
            uint8_t cause = CAUSE_FINAL;
            int32_t i = scan_from;
            while (i < n) {
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
                        if (nst >= st_percap)
                            goto overflow;
                        st_c[nst++] = i;
                        if (rm_dup) {
                            rf_c[v] = 0;
                            rf_len--;
                        }
                        i++;
                        continue;
                    }
                    /* Fresh address: write-dominated. */
                    if (wf_cap == 0) {
                        i++;
                        continue;
                    }
                    if (wf_len >= wf_cap) {
                        if (no_wf_ovf) {
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
                while (i < n) {
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
            if (nev >= ev_percap)
                goto overflow;
            key_c[nev] = ((int64_t)start << 2) | variant;
            end_c[nev] = end;
            cz_c[nev] = cause;
            so_c[nev + 1] = nst;
            nev++;

            /* -- follow the boundary into the next section -- */
            if (cause == CAUSE_FINAL)
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
