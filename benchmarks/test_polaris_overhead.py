"""Section 5: SetProcessorFreq overhead vs queue length.

The prototype measures ~10 us per invocation at high load, one to two
orders of magnitude below mean transaction times.  Absolute cost here
depends on the host; the claims checked are the *scaling* (linear in
queue length: the walk adds one stamped estimate per queued request)
and that realistic queue depths stay well under mean TPC-C execution
times.
"""

from repro.harness import figures


def test_polaris_overhead(benchmark, archive):
    result = benchmark.pedantic(
        figures.polaris_overhead,
        kwargs=dict(queue_lengths=(0, 1, 4, 16, 64, 256), repeats=300),
        iterations=1, rounds=1)
    archive("polaris_overhead", result.render())

    micros = result.micros
    # Monotone growth with queue depth.
    assert micros[1] <= micros[16] <= micros[256]
    # Roughly linear: 16x the queue costs no more than ~40x (generous
    # slop for fixed costs and timer noise), at least 4x.
    assert 4 < micros[256] / micros[16] < 40
    # Realistic queue depths (<= 16 waiting transactions) cost far less
    # than the 1.2 ms mean TPC-C transaction: the scheduler's overhead
    # cannot eat its own power savings.
    assert micros[16] < 300.0
