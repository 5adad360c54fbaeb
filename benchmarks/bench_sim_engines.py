"""Simulator fast path vs per-event reference engine (§IV-A kernel).

Times the same long single-job group under both ``SimConfig.engine``
settings.  The batched engine must win on wall clock without changing
a single simulated number — equality of outcomes is asserted here at
run granularity and bitwise per-event in ``tests/test_sim_fastpath.py``.
"""

from repro.experiments import sim_engines


def test_sim_engine_fast_path(once, benchmark):
    comparison = once(sim_engines.run)
    print()
    print(sim_engines.report(comparison))
    benchmark.extra_info["speedup"] = round(comparison.speedup, 2)
    benchmark.extra_info["fast_seconds"] = round(
        comparison.fast.wall_seconds, 3)
    benchmark.extra_info["reference_seconds"] = round(
        comparison.reference.wall_seconds, 3)

    # Same simulation, bit for bit — the speedup comes from skipped
    # event-loop machinery, never from changed arithmetic.
    assert comparison.outcomes_equal

    # The fast path's headline claim (measured ~4.5-5x on the
    # deterministic config; the floor leaves headroom for CI jitter).
    assert comparison.speedup >= 3.0

