"""Unit helpers shared across the library.

All sizes in the library are expressed in **bytes** (integers where
possible) and all durations in **seconds** (floats).  Bandwidths are
bytes/second.  These helpers exist so that calibration constants and
user-facing configuration can be written in the units the paper uses
(GB, GB/s, milliseconds) without ad-hoc conversion factors scattered
around the code base.
"""

from __future__ import annotations

KB: int = 1 << 10
MB: int = 1 << 20
GB: int = 1 << 30
TB: int = 1 << 40

#: The paper (and storage vendors) quote bandwidths in decimal GB/s.
GB_DECIMAL: int = 10**9


def gbps(x: float) -> float:
    """Return a bandwidth of ``x`` GB/s (decimal) in bytes/second."""
    return x * GB_DECIMAL


def ms(x: float) -> float:
    """Return ``x`` milliseconds in seconds."""
    return x * 1e-3


_SIZE_SUFFIXES = {
    "": 1, "b": 1,
    "kb": 10**3, "mb": 10**6, "gb": 10**9, "tb": 10**12,
    "kib": 1 << 10, "mib": 1 << 20, "gib": 1 << 30, "tib": 1 << 40,
}


def parse_bytes(text: str) -> int:
    """Parse a human byte-size string (``"50GiB"``, ``"1.5GB"``, ``"4096"``).

    Binary suffixes (KiB/MiB/GiB/TiB) are powers of 1024, decimal ones
    (KB/MB/GB/TB) powers of 1000 — the convention storage vendors (and the
    paper) use.  A bare number is bytes.
    """
    raw = str(text).strip()
    for index, char in enumerate(raw):
        if char not in "0123456789.":
            number, suffix = raw[:index], raw[index:]
            break
    else:
        number, suffix = raw, ""
    suffix = suffix.strip().lower()
    try:
        scale = _SIZE_SUFFIXES[suffix]
        value = float(number)
    except (KeyError, ValueError):
        raise ValueError(f"unparseable byte size {text!r} "
                         f"(expected e.g. '50GiB', '1.5GB', '4096')") from None
    if value < 0:
        raise ValueError(f"byte size must be non-negative: {text!r}")
    return int(value * scale)
