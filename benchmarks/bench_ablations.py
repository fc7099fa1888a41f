"""Ablations of the DataStates-LLM design principles (§5.1).

Not a paper figure, but the design decisions §5.1 of the paper calls out:
each run disables one principle of the simulated DataStates engine (a
constructor keyword, passed through ``engine_kwargs``) and measures what it
costs on the 7B workload (checkpoint every iteration, 10 iterations).
"""

from repro.analysis import format_table
from repro.config import CheckpointPolicy
from repro.training import simulate_run

HOST_BUFFER = 64 * 10**9


def _run(label, host_buffer_size=HOST_BUFFER, **switches):
    policy = CheckpointPolicy(host_buffer_size=host_buffer_size)
    result = simulate_run("7B", "datastates", iterations=10, checkpoint_interval=1,
                          policy=policy, engine_kwargs=switches)
    return {
        "variant": label,
        "ckpt_throughput_gbps": round(result.checkpoint_throughput_gb_per_second, 1),
        "iter_time_s": round(result.avg_iteration_seconds_with_checkpoint, 2),
        "end_to_end_s": round(result.end_to_end_seconds, 1),
    }


def _all_variants():
    return [
        _run("full DataStates-LLM"),
        _run("no lazy overlap (eager snapshot)", lazy_snapshot=False),
        _run("no pre-allocated pinned buffer", preallocated_pinned_buffer=False),
        _run("no streamlined flush (staged)", streamlined_flush=False),
        _run("small host buffer (12 GB/rank)", host_buffer_size=12 * 10**9),
    ]


def test_design_principle_ablations(benchmark, emit):
    rows = benchmark.pedantic(_all_variants, rounds=1, iterations=1)
    text = format_table(rows, title="Ablations of the DataStates-LLM design principles (7B)")
    emit("ablations_design_principles", text)

    by_variant = {row["variant"]: row for row in rows}
    full = by_variant["full DataStates-LLM"]
    # Each removed principle must cost something on at least one metric.
    assert by_variant["no lazy overlap (eager snapshot)"]["iter_time_s"] > full["iter_time_s"]
    assert (by_variant["no pre-allocated pinned buffer"]["iter_time_s"]
            > full["iter_time_s"])
    assert (by_variant["no streamlined flush (staged)"]["end_to_end_s"]
            >= full["end_to_end_s"])
    assert (by_variant["small host buffer (12 GB/rank)"]["ckpt_throughput_gbps"]
            < full["ckpt_throughput_gbps"])
