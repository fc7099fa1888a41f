"""Reference values digitised from the paper's figures.

These are the numbers published in the HPDC'24 paper (read off Figures 3, 4,
7-12).  They are **not** used by the simulator in any way — they exist so the
benchmark harness can put "paper" and "measured" columns
side by side and check that the *shape* of every result (ordering of the
engines, approximate speedup factors, where trends bend) is reproduced.

Engine key order everywhere: ``deepspeed``, ``async``, ``torchsnapshot``,
``datastates``.
"""

from __future__ import annotations

from typing import Dict, List

ENGINES: List[str] = ["deepspeed", "async", "torchsnapshot", "datastates"]

#: Figure 3 — aggregate checkpoint size (GB) and GPUs used, per model size.
FIGURE3_CHECKPOINT_SIZES_GB: Dict[str, float] = {
    "3B": 45.0,
    "7B": 83.0,
    "13B": 166.0,
    "30B": 444.0,
    "70B": 1065.0,
}
FIGURE3_NUM_GPUS: Dict[str, int] = {"3B": 4, "7B": 8, "13B": 16, "30B": 32, "70B": 80}

#: Figure 4 — iteration phase durations in seconds (forward, backward, update).
FIGURE4_PHASES_S: Dict[str, Dict[str, float]] = {
    "3B": {"forward": 0.81, "backward": 0.79, "update": 0.10},
    "7B": {"forward": 1.26, "backward": 1.82, "update": 0.12},
    "13B": {"forward": 1.85, "backward": 3.56, "update": 0.09},
    "30B": {"forward": 3.72, "backward": 8.58, "update": 0.11},
    "70B": {"forward": 6.71, "backward": 16.82, "update": 0.07},
}

#: Figure 7 — aggregate checkpointing throughput (GB/s) vs model size, DP=1,
#: checkpoint every iteration, 5 iterations.
FIGURE7_THROUGHPUT_GBPS: Dict[str, Dict[str, float]] = {
    "3B": {"deepspeed": 4, "async": 7, "torchsnapshot": 9, "datastates": 135},
    "7B": {"deepspeed": 8, "async": 11, "torchsnapshot": 20, "datastates": 223},
    "13B": {"deepspeed": 7, "async": 23, "torchsnapshot": 41, "datastates": 234},
    "30B": {"deepspeed": 15, "async": 44, "torchsnapshot": 47, "datastates": 395},
    "70B": {"deepspeed": 54, "async": 78, "torchsnapshot": 117, "datastates": 638},
}

#: Figure 8 — average iteration time (s) while checkpointing, vs model size.
FIGURE8_ITERATION_TIME_S: Dict[str, Dict[str, float]] = {
    "3B": {"deepspeed": 9, "async": 9, "torchsnapshot": 7, "datastates": 4},
    "7B": {"deepspeed": 13, "async": 15, "torchsnapshot": 7, "datastates": 5},
    "13B": {"deepspeed": 29, "async": 17, "torchsnapshot": 10, "datastates": 6},
    "30B": {"deepspeed": 42, "async": 24, "torchsnapshot": 22, "datastates": 14},
    "70B": {"deepspeed": 47, "async": 39, "torchsnapshot": 36, "datastates": 29},
}

#: Figure 9 — 13B model, aggregate checkpoint throughput (GB/s) vs DP degree.
FIGURE9_DP_THROUGHPUT_13B_GBPS: Dict[int, Dict[str, float]] = {
    1: {"deepspeed": 16, "async": 15, "torchsnapshot": 41, "datastates": 65},
    2: {"deepspeed": 26, "async": 43, "torchsnapshot": 83, "datastates": 247},
    4: {"deepspeed": 48, "async": 73, "torchsnapshot": 118, "datastates": 397},
    8: {"deepspeed": 71, "async": 112, "torchsnapshot": 110, "datastates": 496},
    16: {"deepspeed": 86, "async": 176, "torchsnapshot": 124, "datastates": 525},
}

#: Figure 10 — 30B model, aggregate checkpoint throughput (GB/s) vs DP degree.
FIGURE10_DP_THROUGHPUT_30B_GBPS: Dict[int, Dict[str, float]] = {
    1: {"deepspeed": 15, "async": 75, "torchsnapshot": 47, "datastates": 395},
    2: {"deepspeed": 20, "async": 71, "torchsnapshot": 137, "datastates": 549},
    4: {"deepspeed": 23, "async": 108, "torchsnapshot": 231, "datastates": 813},
    8: {"deepspeed": 25, "async": 186, "torchsnapshot": 226, "datastates": 834},
    16: {"deepspeed": 25, "async": 295, "torchsnapshot": 256, "datastates": 1201},
}

#: Figure 11 — 7B model, 50 iterations, varying checkpoint interval.
#: Keys are the checkpoint interval in iterations ("checkpoint freq." axis).
FIGURE11_7B: Dict[str, Dict[int, Dict[str, float]]] = {
    "throughput_gbps": {
        10: {"deepspeed": 9, "async": 11, "torchsnapshot": 15, "datastates": 243},
        5: {"deepspeed": 9, "async": 11, "torchsnapshot": 15, "datastates": 212},
        4: {"deepspeed": 8, "async": 11, "torchsnapshot": 14, "datastates": 239},
        3: {"deepspeed": 8, "async": 10, "torchsnapshot": 14, "datastates": 172},
        2: {"deepspeed": 8, "async": 11, "torchsnapshot": 25, "datastates": 74},
        1: {"deepspeed": 9, "async": 10, "torchsnapshot": 13, "datastates": 76},
    },
    "iteration_time_s": {
        10: {"deepspeed": 13, "async": 11, "torchsnapshot": 9, "datastates": 3},
        5: {"deepspeed": 13, "async": 12, "torchsnapshot": 9, "datastates": 4},
        4: {"deepspeed": 13, "async": 13, "torchsnapshot": 9, "datastates": 4},
        3: {"deepspeed": 13, "async": 14, "torchsnapshot": 9, "datastates": 4},
        2: {"deepspeed": 13, "async": 14, "torchsnapshot": 7, "datastates": 4},
        1: {"deepspeed": 13, "async": 19, "torchsnapshot": 10, "datastates": 4},
    },
    "end_to_end_s": {
        10: {"deepspeed": 204, "async": 234, "torchsnapshot": 178, "datastates": 167},
        5: {"deepspeed": 252, "async": 337, "torchsnapshot": 202, "datastates": 176},
        4: {"deepspeed": 274, "async": 360, "torchsnapshot": 218, "datastates": 175},
        3: {"deepspeed": 312, "async": 419, "torchsnapshot": 242, "datastates": 190},
        2: {"deepspeed": 406, "async": 564, "torchsnapshot": 244, "datastates": 184},
        1: {"deepspeed": 631, "async": 1034, "torchsnapshot": 465, "datastates": 282},
    },
}

#: Figure 12 — 13B model, 50 iterations, varying checkpoint interval.
FIGURE12_13B: Dict[str, Dict[int, Dict[str, float]]] = {
    "throughput_gbps": {
        10: {"deepspeed": 17, "async": 19, "torchsnapshot": 40, "datastates": 155},
        5: {"deepspeed": 17, "async": 18, "torchsnapshot": 32, "datastates": 154},
        4: {"deepspeed": 17, "async": 20, "torchsnapshot": 42, "datastates": 147},
        3: {"deepspeed": 17, "async": 20, "torchsnapshot": 35, "datastates": 146},
        2: {"deepspeed": 17, "async": 18, "torchsnapshot": 34, "datastates": 143},
        1: {"deepspeed": 17, "async": 19, "torchsnapshot": 34, "datastates": 142},
    },
    "iteration_time_s": {
        10: {"deepspeed": 15, "async": 15, "torchsnapshot": 10, "datastates": 7},
        5: {"deepspeed": 15, "async": 16, "torchsnapshot": 11, "datastates": 7},
        4: {"deepspeed": 15, "async": 17, "torchsnapshot": 9, "datastates": 7},
        3: {"deepspeed": 15, "async": 17, "torchsnapshot": 10, "datastates": 7},
        2: {"deepspeed": 15, "async": 19, "torchsnapshot": 10, "datastates": 7},
        1: {"deepspeed": 15, "async": 25, "torchsnapshot": 10, "datastates": 7},
    },
    "end_to_end_s": {
        10: {"deepspeed": 322, "async": 369, "torchsnapshot": 301, "datastates": 285},
        5: {"deepspeed": 371, "async": 487, "torchsnapshot": 329, "datastates": 291},
        4: {"deepspeed": 391, "async": 521, "torchsnapshot": 322, "datastates": 291},
        3: {"deepspeed": 429, "async": 610, "torchsnapshot": 349, "datastates": 297},
        2: {"deepspeed": 518, "async": 799, "torchsnapshot": 401, "datastates": 314},
        1: {"deepspeed": 759, "async": 1364, "torchsnapshot": 517, "datastates": 351},
    },
}

#: Headline claims from the abstract / §6.4 / conclusions.
HEADLINE_CLAIMS = {
    "min_checkpoint_speedup_vs_baselines": 3.0,
    "max_checkpoint_speedup_vs_baselines": 48.0,
    "min_end_to_end_speedup": 1.3,
    "max_end_to_end_speedup": 2.2,
}
