#!/usr/bin/env python3
"""dsbench — the repository's benchmark (see README.md beside this file).

    python benchmarks/suite/run.py [--workload W]... --seed S --seconds T
        --trace {0,1} [--repeat N] [--out F] [--tiny] [--dir D]

Runs each workload in its own child process (allocator and BLAS pinned in the
child's environment), prints every metric by name with its unit, verifies the
outputs, and ends with one JSON line: ``correct``, ``attempted``, ``failed``
and ``metrics``.  ``--trace 0`` reports the end-to-end metrics, ``--trace 1``
the per-layer ones (and writes a Chrome trace under ``--dir``).  Any failed
operation makes the exit code non-zero.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
from pathlib import Path
from typing import Any, Dict, Optional, Sequence

SUITE = Path(__file__).resolve().parent
ROOT = SUITE.parents[1]
SRC = ROOT / "src"
sys.path.insert(0, str(SUITE))

#: The child must end inside the contract's 180 s even if something wedges.
CHILD_TIMEOUT_S = 170

#: Set in the child's environment (they only take effect at process start).
PINNED_ENV = {
    # Restores allocate arrays of 10 KiB - 1 MiB.  glibc's *dynamic* mmap
    # threshold makes those allocations switch between heap reuse and fresh
    # mmaps depending on history (restore time was bimodal, 55 vs 85 ms);
    # pinned, they always take the fresh-mapping path a restarted process takes.
    "MALLOC_MMAP_THRESHOLD_": "131072",
    # Two cores: the library's own threads are the load; BLAS stays on the
    # client thread.
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as cpuinfo:
            for line in cpuinfo:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _filesystem_of(path: Path) -> str:
    best, kind = "", "unknown"
    try:
        with open("/proc/mounts", encoding="utf-8") as mounts:
            for line in mounts:
                _device, mount, fstype = line.split()[:3]
                if str(path).startswith(mount) and len(mount) > len(best):
                    best, kind = mount, fstype
    except OSError:
        pass
    return kind


def _git_commit() -> str:
    try:
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=10)
        return done.stdout.strip() if done.returncode == 0 else "unknown"
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def host_stamp(args: argparse.Namespace, work_dir: Path) -> Dict[str, Any]:
    from dsbench.metrics import REF_KERNEL_MS

    return {
        "cpu_count": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "kernel": platform.release(),
        "work_dir_filesystem": _filesystem_of(work_dir.resolve()),
        "ref_kernel_ms": REF_KERNEL_MS,
        "seconds": args.seconds,
        "trace": args.trace,
        "tiny": args.tiny,
        "git_commit": _git_commit(),
        # Filled from the children's reports: NumPy/BLAS, segment counts.
        "numpy": None,
        "segments": {},
    }


def run_child(workload: str, args: argparse.Namespace, seed: int,
              work_dir: Path) -> Dict[str, Any]:
    scratch = work_dir / f"{workload}-{os.getpid()}"
    result_file = work_dir / f"{workload}-{os.getpid()}.result.json"
    command = [sys.executable, str(Path(__file__).resolve()), "--child",
               "--workload", workload, "--seed", str(seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--dir", str(scratch), "--result", str(result_file)]
    if args.tiny:
        command.append("--tiny")
    if args.inject:
        command += ["--inject", args.inject]
    env = dict(os.environ)
    env.update(PINNED_ENV)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC), str(SUITE)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    try:
        done = subprocess.run(command, env=env, timeout=CHILD_TIMEOUT_S)
        if done.returncode != 0:
            raise SystemExit(f"dsbench: the {workload} child exited with {done.returncode}")
        return json.loads(result_file.read_text(encoding="utf-8"))
    except subprocess.TimeoutExpired:
        raise SystemExit(f"dsbench: the {workload} child exceeded {CHILD_TIMEOUT_S} s") from None
    finally:
        result_file.unlink(missing_ok=True)


def print_report(result: Dict[str, Any]) -> None:
    from dsbench.metrics import BY_NAME

    print(f"\n== {result['workload']}  trace={result['trace']} seed={result['seed']}  "
          f"{result['segments']} segments, {result['iterations']} iterations, "
          f"{result['measured_seconds']:.1f} s measured ==")
    for name, value in result["metrics"].items():
        print(f"  {name:<44s} {value:>16.6g} {BY_NAME[name].unit}")
    for name, value in result.get("echo", {}).items():  # host.raw_setup_s is not in the table
        print(f"  {name:<44s} {value:>16.6g} {BY_NAME[name].unit if name in BY_NAME else 's'}")
    if result.get("trace_file"):
        for name, values in result["samples"].items():
            print(f"  {name:<44s} " + " ".join(f"{value:.4g}" for value in values))
        print("  seconds: " + ", ".join(f"{name} {value:.1f}"
                                        for name, value in result["phase_seconds"].items()))
        print(f"  Chrome trace: {result['trace_file']}")
    print(f"  operations: {result['attempted']} attempted, {result['failed']} failed")
    for message in result["failures"]:
        print(f"  FAILED: {message}")


def append_result_set(path: Path, stamp: Dict[str, Any], run: Dict[str, Any]) -> None:
    """Append one run to a result file; refuse a file from another shape of
    host or run (core count, segment counts) — those do not compare."""
    if path.exists():
        data = json.loads(path.read_text(encoding="utf-8"))
        theirs = data["stamp"]
        if theirs["cpu_count"] != stamp["cpu_count"]:
            raise SystemExit(f"dsbench: {path} was measured on {theirs['cpu_count']} cores, "
                             f"this host has {stamp['cpu_count']}; not appending")
        for workload, count in stamp["segments"].items():
            if theirs["segments"].setdefault(workload, count) != count:
                raise SystemExit(
                    f"dsbench: {path} ran {workload} with {theirs['segments'][workload]} "
                    f"segments, this run with {count}; not appending")
    else:
        data = {"stamp": stamp, "runs": []}
    data["runs"].append(run)
    # The stamp spread out, then one pass per line: diffs stay per pass.
    passes = ",\n".join(json.dumps(entry) for entry in data["runs"])
    path.write_text(f'{{"stamp": {json.dumps(data["stamp"], indent=1)},\n'
                    f'"runs": [\n{passes}\n]}}\n', encoding="utf-8")


def main(argv: Optional[Sequence[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if argv[:1] == ["--child"]:
        from dsbench import child

        return child.main(argv[1:])
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"dsbench: no library to measure: {SRC / 'repro'} is missing", file=sys.stderr)
        return 2

    from dsbench.metrics import BY_NAME, RUN_SECONDS, WORKLOADS

    names = [name for name, _why in WORKLOADS]

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append", choices=names,
                        help="repeatable; default: all four")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS,
                        help="measured part of one workload run; converted once "
                             "to a fixed number of fixed-work segments")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--repeat", type=int, default=1,
                        help="whole passes; pass k uses seed + k")
    parser.add_argument("--out", type=Path, help="append every pass to this result file")
    parser.add_argument("--tiny", action="store_true", help="smoke-test sizes")
    parser.add_argument("--dir", type=Path, default=Path.cwd() / ".dsbench_work",
                        help="work directory (stores, Chrome trace)")
    parser.add_argument("--inject", choices=("flip-restored-byte", "drop-manifest"),
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    workloads = args.workload or names
    args.dir.mkdir(parents=True, exist_ok=True)
    stamp = host_stamp(args, args.dir)

    last: Dict[str, Dict[str, Any]] = {}
    attempted = failed = 0
    for repeat in range(args.repeat):
        seed = args.seed + repeat
        results = {name: run_child(name, args, seed, args.dir) for name in workloads}
        for name, result in results.items():
            print_report(result)
            attempted += result["attempted"]
            failed += result["failed"]
            stamp["numpy"] = result["numpy"]
            stamp["segments"][name] = result["segments"]
        if args.out:
            append_result_set(args.out, stamp, {
                "seed": seed, "trace": args.trace,
                "workloads": {name: {key: result[key] for key in
                                     ("metrics", "samples", "echo", "attempted", "failed",
                                      "failures", "measured_seconds", "segment_log")
                                     if key in result}
                              for name, result in results.items()}})
        last = results
    try:
        args.dir.rmdir()  # only when empty: a traced run leaves its Chrome trace
    except OSError:
        pass

    prefix = len(last) > 1
    metrics = {(f"{workload}.{name}" if prefix else name):
               {"value": value, "unit": BY_NAME[name].unit}
               for workload, result in last.items()
               for name, value in result["metrics"].items()}
    print()
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
