"""dsbench — the repository's benchmark suite (see ``benchmarks/suite/README.md``).

``metrics`` is the one table of metric names, units, directions and bounds;
``workloads`` holds the four checkpoint-lifecycle workloads and the segment
runner; ``state`` builds the seeded model states; ``probes`` holds the
reference kernel and the host ceilings; ``tracing`` the span recorder and the
store/engine/loader proxies; ``drills`` the timed direct calls into single
layers; ``child`` is the per-workload child process's entry point.
"""
