"""The watchdog-cut predicate in Python: the test oracle of the C walk's
cut decision (``sw_cut_safe`` in ``_chainscan.c``), as
:func:`repro.core.detector.scan_section` (followed section by section
in ``tests/chain_oracle.py``) is the oracle of the chain scan.

:func:`watchdog_cut_safe` carries the argument for why the decision is
exact; ``tests/test_cut_decision.py`` checks the C port against it on
generated inputs.
"""

from array import array
from bisect import bisect_left
from typing import Dict, List

#: Ascending write indices per word address, per trace digest.
_WINDEX: Dict[str, Dict[int, List[int]]] = {}


def write_index(ct) -> Dict[int, List[int]]:
    """Ascending write indices (outputs included) per word address."""
    windex = _WINDEX.get(ct.digest)
    if windex is None:
        windex = _WINDEX[ct.digest] = {}
        for j, (kind, waddr) in enumerate(zip(ct.kinds, ct.waddrs)):
            if kind:
                windex.setdefault(waddr, []).append(j)
    return windex


def direct_writes(smap, start: int, variant: int):
    """The section's direct-commit write indices (ascending), from the C
    chain scan of just this section."""
    return smap.direct_writes(start, variant)


def watchdog_cut_safe(smap, start: int, variant: int, p: int, f: int,
                      reaches) -> bool:
    """Whether the section walk stays exact after a watchdog cut at ``p``.

    A watchdog checkpoint that commits at ``p`` below the
    furthest-executed index ``f`` leaves the write-first-path commits
    of earlier, further-reaching power cycles at ``[p, f)`` ahead of
    the new position: non-volatile memory holds their (future) values,
    while the enumeration's ignore-false-writes comparisons used the
    continuous oracle view.  Given the walker's record of those failed
    cycles — ``reaches``, the time-ordered ``(reach, section_start)``
    of every power loss that got past its cycle's committed start —
    the stale value of each word is known exactly, and the cut is safe
    iff the word's next classification agrees with the oracle:

    * staleness needs a direct-commit write of the word at an index in
      ``[p, f)`` (:func:`direct_writes`); everything below ``p`` is
      re-executed and re-committed, in trace order, by the cycle
      committing this very checkpoint, so a word the section writes
      anywhere in ``[start, p)`` is back in sync the moment the
      checkpoint lands (a false-write pass leaves the identical value
      by definition);
    * otherwise the word's stale value comes from the *latest* cycle
      that reached past its first stale write ``d0``: within one
      section every attempt replays the same prefix, so a later cycle
      re-commits everything an earlier one did below its own reach,
      and the survivor is ``values[last direct write < r]`` for the
      most recent ``r > d0``;
    * a surviving reach from an *earlier* section (its tag differs
      from ``start``) is ignored: a reach can outlive a commit only
      when that commit was itself a below-furthest watchdog cut —
      every other commit lands at or above every reach — so the cut
      that created it already verified, with that section's own
      direct-write list, that each of its stale words' first future
      consult agrees with the oracle; a word this section's failed
      cycles also wrote is re-committed by them later in time and is
      judged against their (current-classification) value below;
    * reads never consult the stored value, output writes touch no
      program word, and an access-marked PI write re-commits directly,
      so the first consult that can diverge is the word's first
      ordinary write ``q`` at or above ``p``.  There the runtime
      false-write comparison sees the stale value; the cut is unsafe
      iff ``(values[q] == stale) != false_writes[q]``.  Whatever
      happens at a matching ``q`` (direct commit, WBB capture, or a
      false pass — whose stale value then equals ``values[q]``), the
      program's view of the word is ``values[q]`` afterwards — back in
      sync, so later consults cannot diverge.

    Intra-section rollback *without* a commit always re-executes from
    the same start with the same values, so this cut is the only place
    the stale-view question arises (the walk decides it under
    ``ignore_false_writes`` only; without that optimization no
    classification ever reads a stored value).

    Args:
        smap: The run's :class:`~repro.sim.sections.SectionMap`.
        start: The current section's start index.
        variant: Its entry variant (``VARIANT_*``).
        p: The watchdog checkpoint's cut index (the new section start).
        f: The furthest-executed index (``> p``).
        reaches: Time-ordered ``(reach, section_start)`` pairs of the
            failed power cycles whose effects may still be live.

    Returns:
        True when every stale word re-classifies identically; False
        when the walker must hand the run to the reference simulator.
    """
    dw_idx = direct_writes(smap, start, variant)
    lo = bisect_left(dw_idx, p)
    hi = bisect_left(dw_idx, f)
    if lo >= hi:
        return True
    rs = [r for r, tag in reaches if r > p and tag == start]
    if not rs:
        return True
    ct = smap.ct
    values = ct.values
    waddrs = ct.waddrs
    false_writes = ct.false_writes
    out_writes = ct.out_writes
    windex = write_index(ct)
    groups: Dict[int, List[int]] = {}
    for j in dw_idx:
        groups.setdefault(waddrs[j], []).append(j)
    pi_idx = smap.pi_indices
    seen = set()
    for k in range(lo, hi):
        d0 = dw_idx[k]
        v = waddrs[d0]
        if v in seen:
            continue
        seen.add(v)
        r = 0
        for rr in reversed(rs):
            if rr > d0:
                r = rr
                break
        if not r:
            continue  # no failed cycle executed the word's stale write
        wlist = windex[v]
        qi = bisect_left(wlist, p)
        if qi > 0 and wlist[qi - 1] >= start:
            continue  # re-committed below p by the committing cycle
        nw = len(wlist)
        while qi < nw and out_writes[wlist[qi]]:
            qi += 1
        if qi == nw:
            continue  # the stale value is never consulted again
        q = wlist[qi]
        if q in pi_idx:
            continue  # PI write: value-independent, re-commits directly
        dwv = groups[v]
        stale = values[dwv[bisect_left(dwv, r) - 1]]
        if (values[q] == stale) != false_writes[q]:
            return False
    return True


def c_decision(smap, start: int, variant: int, p: int, f: int,
               reaches) -> bool:
    """The C walk's decision on the same cut (``walk_cut_safe``), with
    the section's direct writes loaded on request as
    :func:`repro.sim.fast.walk_group` loads them.  ``smap`` must hold
    its flat tables."""
    from repro.core.cext import _addr, chain_scan_lib
    from repro.sim import fast

    cut = chain_scan_lib().walk_cut_safe
    tab = fast._walk_table(smap)
    key = (start << 2) | variant
    flat = array("q", [x for pair in reaches for x in pair] or [0])
    verdict = cut(_addr(tab), key, p, f, _addr(flat), len(reaches))
    if verdict < 0:
        fast._load_dw(smap, key)
        verdict = cut(_addr(tab), key, p, f, _addr(flat), len(reaches))
    return bool(verdict)
