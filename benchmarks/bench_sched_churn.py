"""Scheduler churn stream — incremental fast path vs frozen reference.

Replays one seeded arrival/completion/metric-update stream through both
the incremental :class:`~repro.core.scheduler.HarmonyScheduler` and the
recompute-everything :class:`~repro.core.reference.ReferenceScheduler`
and compares total scheduling time.  The win must come from skipped
work, not changed decisions: every full-schedule event's plan score is
asserted bitwise-equal across the two replays.
"""

from repro.experiments import sched_churn


def test_scheduler_churn_fast_path(once, benchmark):
    comparison = once(sched_churn.run)
    print()
    print(sched_churn.report(comparison))
    benchmark.extra_info["speedup"] = round(comparison.speedup, 2)
    benchmark.extra_info["fast_seconds"] = round(
        comparison.fast.scheduling_seconds, 3)
    benchmark.extra_info["reference_seconds"] = round(
        comparison.reference.scheduling_seconds, 3)

    fast, reference = comparison.fast, comparison.reference

    # The incremental machinery actually engaged.  Warm-started
    # grouping orders are not part of it here: this stream's pools
    # (60-220 jobs) stay under _WARM_ORDER_MIN_JOBS, where a fresh
    # argsort is cheaper than the merge, so they must stay off.
    assert fast.cache_hits > 0
    assert fast.warm_start_reuses == 0
    assert fast.n_patched > 0
    assert reference.cache_hits == 0
    assert reference.warm_start_reuses == 0

    # Same decisions: both replays see the identical pool at every
    # event, so their score streams are position-aligned.  Full
    # schedules must score bitwise-equal.  Patched events diverge from
    # the reference stream by design (the splice keeps the previous
    # grouping) but must stay within striking distance of the full
    # reschedule the reference ran instead.
    assert len(fast.scores) == len(reference.scores)
    for (kind, score), (_, ref_score) in zip(fast.scores,
                                             reference.scores, strict=True):
        if kind == "patched":
            assert score >= ref_score * 0.90
        else:
            # harmony: allow[DET006] bitwise-identical plan scoring is the property under test
            assert score == ref_score  # bitwise-identical plan scoring

    # The §IV-B performance claim: the incremental path beats the
    # reference by a wide margin on a churn stream (measured ~5-6x; the
    # floor leaves headroom for CI jitter).
    assert comparison.speedup >= 4.0
