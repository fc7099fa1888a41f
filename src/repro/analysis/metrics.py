"""Metric helpers shared by the figure generators and benchmarks."""

from __future__ import annotations

from typing import Mapping


def ordering_matches(measured: Mapping[str, float], reference: Mapping[str, float],
                     higher_is_better: bool = True) -> bool:
    """Do measured values rank the engines in the same order as the paper?

    Only the position of ``datastates`` relative to every baseline is
    checked — that is the paper's qualitative claim — rather than the full
    permutation, which is sensitive to noise between closely-matched
    baselines.
    """
    if "datastates" not in measured or "datastates" not in reference:
        return False
    for name in measured:
        if name == "datastates" or name not in reference:
            continue
        measured_better = (
            measured["datastates"] > measured[name]
            if higher_is_better else measured["datastates"] < measured[name]
        )
        reference_better = (
            reference["datastates"] > reference[name]
            if higher_is_better else reference["datastates"] < reference[name]
        )
        if measured_better != reference_better:
            return False
    return True
