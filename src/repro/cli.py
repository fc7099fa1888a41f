"""Command-line interface: ``python -m repro.cli`` (or the ``repro-bench`` script).

Subcommands
-----------
``simulate``      run one simulated training configuration and print its metrics
``figure``        regenerate one of the paper's figures (3, 4, 7, 8, 9, 10, 11, 12)
``zoo``           print the Table 1 model zoo
``train``         train the real NumPy transformer under any checkpoint engine
``compare-real``  run the real trainer under all four engines; print blocked-time table
``replay``        replay a failure trace against engine × store configs; print
                  per-config goodput / lost-work / restart-latency table
``list``          list the committed checkpoints in a store (tag, iteration,
                  bytes, saved parallel topology)
``reshape``       re-partition a committed checkpoint onto a new
                  (dp, pp, tp) topology offline (elastic restart)

``simulate``/``figure``/``zoo`` are thin wrappers over
:mod:`repro.training.runtime` and :mod:`repro.analysis.figures`; ``train`` and
``compare-real`` drive the real-mode pipeline through the engine registry
(:func:`repro.core.create_real_engine`); ``replay`` combines
:class:`repro.simulator.FailureTrace` with :func:`repro.analysis.replay_trace`;
``list``/``reshape`` sit on :mod:`repro.restart`
(:class:`~repro.restart.CheckpointLoader` /
:func:`~repro.restart.reshape_checkpoint`).

``train``, ``compare-real``, ``list``, and ``reshape`` all share one store
argument group (``--store``, tier/chunk-pool composition flags,
``--prefetch-depth``) defined once as an argparse parent parser.
"""

from __future__ import annotations

import argparse
import sys
import tempfile
from typing import List, Optional

from .analysis import (
    compare_real_engines,
    comparison_table_rows,
    dp_sweep_rows,
    figure3_checkpoint_sizes,
    figure4_iteration_phases,
    figure7_8_model_size_sweep,
    figure7_rows,
    figure8_rows,
    figure9_10_dp_sweep,
    figure11_12_frequency_sweep,
    format_table,
    frequency_sweep_rows,
    run_real_engine,
    table1_model_zoo,
)
from .checkpoint import ENGINE_NAMES
from .config import CheckpointPolicy
from .core import available_real_engines, canonical_engine_name, resolve_real_engine_class
from .exceptions import ConfigurationError
from .io import STORE_NAMES, canonical_store_name
from .model import MODEL_SIZES
from .training import simulate_run


def _engine_name(value: str) -> str:
    """argparse type: validate a real-mode engine name against the live registry.

    Resolution goes through :func:`repro.core.resolve_real_engine_class`, so
    aliases canonicalize, custom ``register_real_engine`` names stay
    selectable, and an unknown name fails fast here — with the list of valid
    names — instead of surfacing as a deep registry error mid-run.
    """
    try:
        resolve_real_engine_class(value)
    except ConfigurationError as exc:
        raise argparse.ArgumentTypeError(
            f"{exc} (registered engines: {available_real_engines()})") from exc
    try:
        return canonical_engine_name(value)
    except ConfigurationError:
        return value.strip().lower()  # custom engine under a non-canonical name


def _sim_engine_name(value: str) -> str:
    """argparse type: validate a name against the *simulated* engine registry."""
    from .checkpoint.factory import resolve_engine_class

    try:
        resolve_engine_class(value)
    except ConfigurationError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from exc
    return value.strip().lower()


def _store_name(value: str) -> str:
    """argparse type: validate a shard-store backend name against the registry."""
    try:
        return canonical_store_name(value)
    except ConfigurationError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from exc


def _positive_int(value: str) -> int:
    """argparse type: a strictly positive integer (worker counts)."""
    number = int(value)
    if number <= 0:
        raise argparse.ArgumentTypeError(f"must be a positive integer (got {value})")
    return number


def _watermark(value: str) -> int:
    """argparse type: an eviction watermark (>= 0, or -1 for 'never evict')."""
    number = int(value)
    if number < -1:
        raise argparse.ArgumentTypeError(
            f"must be >= 0, or -1 to disable eviction (got {value})")
    return number


def _nonneg_int(value: str) -> int:
    """argparse type: an integer >= 0 (retry counts)."""
    number = int(value)
    if number < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0 (got {value})")
    return number


def _nonneg_float(value: str) -> float:
    """argparse type: a float >= 0 (backoff delays)."""
    number = float(value)
    if number < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0 (got {value})")
    return number


def _engine_or_all(value: str) -> str:
    """argparse type: an engine name, or the literal ``all``."""
    if value.strip().lower() == "all":
        return "all"
    return _engine_name(value)


def _store_or_all(value: str) -> str:
    """argparse type: a store name, or the literal ``all``."""
    if value.strip().lower() == "all":
        return "all"
    return _store_name(value)


def _store_parent() -> argparse.ArgumentParser:
    """Parent parser carrying the shard-store argument group.

    Defined once and attached via ``parents=[...]`` to every subcommand that
    opens a store (``train``, ``compare-real``, ``list``, ``reshape``), so a
    new store-touching subcommand gets the full backend/composition/restore
    surface — and any new store flag reaches all of them — for free.
    """
    parent = argparse.ArgumentParser(add_help=False)
    group = parent.add_argument_group("shard store")
    group.add_argument("--store", type=_store_name,
                       default="file", metavar="|".join(STORE_NAMES),
                       help="shard store backend: 'file' (POSIX directory), "
                            "'object' (in-memory S3-like, one part per key), "
                            "'tiered' (fast tier + async drain to a slow "
                            "tier), 'cas' (content-addressed chunks with "
                            "namespaces + dedup), or any register_store() "
                            "name")
    group.add_argument("--tiers", default=None, metavar="SPEC",
                       help="tiered only: N-level tier chain spec, "
                            "'name:backend[:root][:capacity[@watermark]]' "
                            "per level, comma-separated (e.g. "
                            "'nvme:file:/a:50GiB,pfs:file:/b,object:object'; "
                            "default: 'fast:file,slow:object')")
    group.add_argument("--drain-workers", type=_positive_int, default=None,
                       help="tiered only: background workers draining "
                            "committed checkpoints to the slow tier "
                            "(default: the store's)")
    group.add_argument("--keep-local-latest", type=_watermark, default=None,
                       help="tiered only: newest replicated checkpoints "
                            "kept on the fast tier; older ones are evicted "
                            "(-1 disables eviction; default: the store's)")
    group.add_argument("--drain-retries", type=_nonneg_int, default=None,
                       help="tiered only: retries per drain on transient "
                            "slow-tier failures, with exponential backoff "
                            "(0 disables; default: the store's)")
    group.add_argument("--drain-backoff", type=_nonneg_float, default=None,
                       help="tiered only: base backoff seconds between "
                            "drain retries (attempt k sleeps backoff*2^k; "
                            "default: the store's)")
    group.add_argument("--inner-store", type=_store_name, default="file",
                       metavar="NAME",
                       help="cas only: backend holding the shared chunk "
                            "pool (default: file)")
    group.add_argument("--namespace", default=None, metavar="JOB",
                       help="cas only: job namespace scoping tags, "
                            "manifests, and quotas over the shared chunk "
                            "pool (default: 'default')")
    group.add_argument("--incremental", action="store_true",
                       help="cas only: incremental checkpoints — unchanged "
                            "shards are recorded by reference to the "
                            "previous committed checkpoint, only changed "
                            "chunks are uploaded")
    group.add_argument("--prefetch-depth", type=int, default=None,
                       help="restore-side prefetch workers fetching+validating "
                            "shard parts ahead of deserialization "
                            "(0 = auto from measured timings, 1 = serial; "
                            "default: policy default)")
    return parent


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="repro", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)
    store_parent = _store_parent()

    def add_layout_args(cmd: argparse.ArgumentParser) -> None:
        cmd.add_argument("--shards-per-rank", type=int, default=1,
                         help="spread each rank's state over N shard files "
                              "(multi-shard layout; 1 = classic single shard)")
        cmd.add_argument("--capture-streams", type=int, default=1,
                         help="concurrent snapshot capture streams feeding the "
                              "shard-set (DataStates engine)")

    simulate = sub.add_parser("simulate", help="simulate one training run")
    simulate.add_argument("--model", choices=MODEL_SIZES, default="13B")
    # No argparse choices= on engine/store flags anywhere: the type
    # functions validate against the live registries, so custom
    # register_*() names stay selectable and unknown names fail fast with
    # the registry's own error message.
    simulate.add_argument("--engine", type=_sim_engine_name,
                          default="datastates", metavar="|".join(ENGINE_NAMES))
    simulate.add_argument("--iterations", type=int, default=5)
    simulate.add_argument("--checkpoint-interval", type=int, default=1)
    simulate.add_argument("--data-parallel", type=int, default=1)
    add_layout_args(simulate)

    figure = sub.add_parser("figure", help="regenerate one paper figure")
    figure.add_argument("number", choices=["3", "4", "7", "8", "9", "10", "11", "12"])
    figure.add_argument("--iterations", type=int, default=None,
                        help="override the iteration count (smaller = faster)")

    sub.add_parser("zoo", help="print the Table 1 model zoo")

    def add_real_args(cmd: argparse.ArgumentParser) -> None:
        # Store flags come from the shared parent parser (_store_parent);
        # only the trainer-shape knobs live here.
        cmd.add_argument("--iterations", type=int, default=4)
        cmd.add_argument("--checkpoint-interval", type=int, default=1)
        cmd.add_argument("--hidden-size", type=int, default=128)
        cmd.add_argument("--layers", type=int, default=2)
        cmd.add_argument("--workdir", default=None,
                         help="checkpoint directory (default: a fresh temp dir)")
        add_layout_args(cmd)

    train = sub.add_parser(
        "train", help="train the real NumPy transformer under one engine",
        parents=[store_parent])
    train.add_argument("--engine", type=_engine_name,
                       default="datastates", metavar="|".join(ENGINE_NAMES))
    add_real_args(train)

    compare = sub.add_parser(
        "compare-real",
        help="run the real trainer under all four engines and compare stalls",
        parents=[store_parent])
    compare.add_argument("--engines", nargs="*", type=_engine_name,
                         default=None, metavar="|".join(ENGINE_NAMES),
                         help="subset of engines (default: all four)")
    add_real_args(compare)

    listing = sub.add_parser(
        "list", help="list committed checkpoints in a store",
        parents=[store_parent])
    listing.add_argument("--workdir", required=True,
                         help="checkpoint directory (the store root)")

    reshape = sub.add_parser(
        "reshape",
        help="re-partition a committed checkpoint onto a new (dp, pp, tp) "
             "topology offline",
        parents=[store_parent])
    reshape.add_argument("--workdir", required=True,
                         help="source checkpoint directory (the store root)")
    reshape.add_argument("--tag", default=None,
                         help="source checkpoint tag "
                              "(default: latest committed)")
    reshape.add_argument("--target-dp", type=_positive_int, required=True,
                         help="target data-parallel degree")
    reshape.add_argument("--target-pp", type=_positive_int, default=1,
                         help="target pipeline-parallel degree (default: 1)")
    reshape.add_argument("--target-tp", type=_positive_int, default=1,
                         help="target tensor-parallel degree (default: 1)")
    reshape.add_argument("--target-shards-per-rank", type=_positive_int,
                         default=1,
                         help="shards per rank of the reshaped checkpoint "
                              "(default: 1)")
    reshape.add_argument("--out", default=None, metavar="DIR",
                         help="destination directory (default: write the "
                              "reshaped checkpoint into the source store)")
    reshape.add_argument("--out-store", type=_store_name, default=None,
                         metavar="NAME",
                         help="destination store backend (needs --out; "
                              "default: same backend as --store)")
    reshape.add_argument("--out-tag", default=None,
                         help="tag of the reshaped checkpoint "
                              "(default: '<tag>-<topology>')")
    reshape.add_argument("--engine", type=_engine_name, default="deepspeed",
                         metavar="|".join(ENGINE_NAMES),
                         help="engine used to write the reshaped checkpoint "
                              "(default: deepspeed)")
    reshape.add_argument("--no-validate", action="store_true",
                         help="skip checksum validation of the source shards")

    replay = sub.add_parser(
        "replay",
        help="replay a failure trace against engine × store configurations")
    replay.add_argument("--trace", default="mtbf",
                        help="'mtbf' to draw a trace from the MTBF model, or "
                             "the path of a recorded trace JSON "
                             "(FailureTrace.to_file format)")
    replay.add_argument("--engines", nargs="*", type=_engine_or_all,
                        default=None, metavar="all|" + "|".join(ENGINE_NAMES),
                        help="engines to replay (default/'all': every engine)")
    replay.add_argument("--stores", nargs="*", type=_store_or_all,
                        default=None, metavar="all|" + "|".join(STORE_NAMES),
                        help="stores to replay (default/'all': every store)")
    replay.add_argument("--model", choices=MODEL_SIZES, default="13B")
    replay.add_argument("--checkpoint-interval", type=_positive_int, default=5,
                        help="iterations between checkpoints")
    replay.add_argument("--data-parallel", type=_positive_int, default=1,
                        help="data-parallel degree of the calibration run")
    replay.add_argument("--nodes", type=_positive_int, default=512,
                        help="mtbf traces: fleet size in nodes "
                             "(4 GPUs/node on the Polaris platform)")
    replay.add_argument("--hours", type=_nonneg_float, default=24.0,
                        help="mtbf traces: trace horizon in hours")
    replay.add_argument("--node-mtbf-hours", type=_nonneg_float, default=20_000.0,
                        help="mtbf traces: per-node mean time between failures")
    replay.add_argument("--link-mtbf-hours", type=_nonneg_float, default=50_000.0,
                        help="mtbf traces: per-link mean time between failures")
    replay.add_argument("--seed", type=int, default=0,
                        help="mtbf traces: trace seed (same seed = same trace)")
    replay.add_argument("--save-trace", default=None, metavar="PATH",
                        help="also save the replayed trace as JSON (for "
                             "replaying the identical trace later)")
    return parser


def _layout_policy(args: argparse.Namespace,
                   host_buffer_size: Optional[int] = None) -> Optional[CheckpointPolicy]:
    """Build a policy only when a non-default layout/restore knob was given.

    ``host_buffer_size`` must always be pinned explicitly: the dataclass
    default (16 GB, the simulator's per-rank budget) would make a real-mode
    engine allocate a 16 GB pinned pool the moment any layout flag is used.
    """
    prefetch_depth = getattr(args, "prefetch_depth", None)
    incremental = getattr(args, "incremental", False)
    if (args.shards_per_rank == 1 and args.capture_streams == 1
            and prefetch_depth is None and not incremental):
        return None
    from .core.base_engine import DEFAULT_HOST_BUFFER_SIZE

    overrides = {}
    if prefetch_depth is not None:
        overrides["prefetch_depth"] = prefetch_depth
    if incremental:
        overrides["incremental"] = True
    return CheckpointPolicy(
        shards_per_rank=args.shards_per_rank,
        capture_streams=args.capture_streams,
        host_buffer_size=host_buffer_size or DEFAULT_HOST_BUFFER_SIZE,
        **overrides,
    )


def _store_kwargs(args: argparse.Namespace) -> Optional[dict]:
    """Store-composition kwargs from the CLI flags.

    Only the ``tiered`` backend takes tier-composition knobs and only the
    ``cas`` backend takes chunk-pool knobs; using either group with a
    different ``--store`` is almost certainly a mistake, so it fails fast
    here rather than being silently ignored.
    """
    # Only what the user typed: the store's own defaults cover the rest.
    tiered = {key: value for key, value in (
        ("tiers", args.tiers),
        ("drain_workers", args.drain_workers),
        ("keep_local_latest", args.keep_local_latest),
        ("drain_retries", args.drain_retries),
        ("drain_backoff_s", args.drain_backoff),
    ) if value is not None}
    cas_flags = (args.inner_store != "file" or args.namespace is not None
                 or args.incremental)
    if args.store != "tiered" and tiered:
        raise SystemExit(
            "--tiers/--drain-workers/--keep-local-latest/--drain-retries/"
            "--drain-backoff only apply to --store tiered "
            f"(got --store {args.store})")
    if args.store != "cas" and cas_flags:
        raise SystemExit(
            "--inner-store/--namespace/--incremental only apply to "
            f"--store cas (got --store {args.store})")
    if args.store == "cas":
        kwargs = {"inner": args.inner_store}
        if args.namespace is not None:
            kwargs["namespace"] = args.namespace
        return kwargs
    if args.store != "tiered":
        return None
    if tiered.get("keep_local_latest") == -1:
        # -1 means "never evict" (the store's keep_local_latest=None mode).
        tiered["keep_local_latest"] = None
    return tiered


def _cmd_simulate(args: argparse.Namespace) -> int:
    from .config import RunConfig

    policy = _layout_policy(args,
                            host_buffer_size=RunConfig().host_buffer_per_rank)
    result = simulate_run(
        args.model, args.engine,
        data_parallel=args.data_parallel,
        iterations=args.iterations,
        checkpoint_interval=args.checkpoint_interval,
        policy=policy,
    )
    print(format_table([result.summary()], title="Simulated run"))
    return 0


def _cmd_figure(args: argparse.Namespace) -> int:
    number = args.number
    if number == "3":
        print(format_table(figure3_checkpoint_sizes(), title="Figure 3"))
    elif number == "4":
        rows = [{"model": size, **values} for size, values in figure4_iteration_phases().items()]
        print(format_table(rows, title="Figure 4"))
    elif number in ("7", "8"):
        iterations = args.iterations or 5
        results = figure7_8_model_size_sweep(iterations=iterations)
        rows = figure7_rows(results) if number == "7" else figure8_rows(results)
        print(format_table(rows, title=f"Figure {number}"))
    elif number in ("9", "10"):
        model = "13B" if number == "9" else "30B"
        iterations = args.iterations or 5
        results = figure9_10_dp_sweep(model, dp_degrees=(1, 2, 4, 8), iterations=iterations)
        print(format_table(dp_sweep_rows(model, results), title=f"Figure {number}"))
    else:
        model = "7B" if number == "11" else "13B"
        iterations = args.iterations or 50
        results = figure11_12_frequency_sweep(model, iterations=iterations)
        print(format_table(frequency_sweep_rows(model, results), title=f"Figure {number}"))
    return 0


def _cmd_zoo(_args: argparse.Namespace) -> int:
    print(format_table(table1_model_zoo(), title="Table 1 — model zoo"))
    return 0


def _real_workdir(args: argparse.Namespace) -> str:
    return args.workdir or tempfile.mkdtemp(prefix="repro-real-")


def _cmd_train(args: argparse.Namespace) -> int:
    workdir = _real_workdir(args)
    row = run_real_engine(
        args.engine, workdir,
        iterations=args.iterations, checkpoint_interval=args.checkpoint_interval,
        hidden_size=args.hidden_size, num_layers=args.layers,
        policy=_layout_policy(args), store_backend=args.store,
        store_kwargs=_store_kwargs(args),
    )
    print(format_table(comparison_table_rows([row]),
                       title=f"Real-mode training ({row['label']})"))
    print(f"checkpoints -> {row['checkpoint_dir']}")
    return 0


def _cmd_compare_real(args: argparse.Namespace) -> int:
    workdir = _real_workdir(args)
    rows = compare_real_engines(
        workdir, engines=args.engines,
        iterations=args.iterations, checkpoint_interval=args.checkpoint_interval,
        hidden_size=args.hidden_size, num_layers=args.layers,
        policy=_layout_policy(args), store_backend=args.store,
        store_kwargs=_store_kwargs(args),
    )
    print(format_table(
        comparison_table_rows(rows),
        title="Real-mode engines — training-visible checkpoint stall"))
    for row in rows:
        print(f"{row['engine']} checkpoints -> {row['checkpoint_dir']}")
    return 0


def _open_store(args: argparse.Namespace, workdir: str):
    from pathlib import Path

    from .io import create_store

    return create_store(args.store, root=Path(workdir),
                        **(_store_kwargs(args) or {}))


def _residency_cell(store, tag: str) -> Optional[str]:
    """Tier-residency display for one checkpoint, or None off tiered stores.

    ``all`` when the checkpoint has reached every level of the chain, else
    the ``+``-joined names of the levels holding a committed copy (e.g.
    ``nvme+pfs`` while the object level is still draining).
    """
    if not callable(getattr(store, "residency_names", None)):
        return None
    names = store.residency_names(tag)
    if not names:
        return "-"
    if names == store.level_names:
        return "all"
    return "+".join(names)


def _cmd_list(args: argparse.Namespace) -> int:
    from .restart import CheckpointLoader

    store = _open_store(args, args.workdir)
    loader = CheckpointLoader(store)
    infos = loader.committed_checkpoints()
    if not infos:
        print(f"no committed checkpoints in {args.workdir}")
        return 0
    rows = []
    for info in infos:
        row = {
            "tag": info.tag,
            "iteration": info.iteration,
            "world": info.world_size,
            "shards": info.num_shards,
            "MiB": round(info.total_bytes / 2**20, 3),
            # Pre-v4 checkpoints carry no saved layout; '-' (not an error)
            # keeps old stores listable.
            "topology": info.topology.describe() if info.topology else "-",
            "schema": f"v{info.version}",
        }
        residency = _residency_cell(store, info.tag)
        if residency is not None:
            row["tiers"] = residency
        rows.append(row)
    print(format_table(rows, title=f"Committed checkpoints — {args.workdir}"))
    return 0


def _cmd_reshape(args: argparse.Namespace) -> int:
    from pathlib import Path

    from .io import create_store
    from .restart import reshape_checkpoint
    from .serialization import CheckpointTopology

    if args.out is None and args.out_store is not None:
        raise SystemExit("--out-store needs --out (a destination directory)")
    source_store = _open_store(args, args.workdir)
    dest_store = None
    if args.out is not None:
        dest_store = create_store(args.out_store or args.store,
                                  root=Path(args.out))
    target = CheckpointTopology(
        data_parallel=args.target_dp,
        pipeline_parallel=args.target_pp,
        tensor_parallel=args.target_tp,
        shards_per_rank=args.target_shards_per_rank,
    )
    report = reshape_checkpoint(
        source_store, target,
        tag=args.tag, dest_store=dest_store, out_tag=args.out_tag,
        engine=args.engine, validate=not args.no_validate,
        prefetch_depth=args.prefetch_depth,
    )
    print(report.summary())
    return 0


def _cmd_replay(args: argparse.Namespace) -> int:
    from .analysis import replay_table_rows, replay_trace
    from .simulator import FailureTrace

    if args.trace == "mtbf":
        trace = FailureTrace.from_mtbf(
            nodes=args.nodes, horizon_hours=args.hours,
            node_mtbf_hours=args.node_mtbf_hours,
            link_mtbf_hours=args.link_mtbf_hours, seed=args.seed)
    else:
        trace = FailureTrace.from_file(args.trace)
    if args.save_trace:
        trace.to_file(args.save_trace)
    counts = trace.counts()
    mtbf = trace.mean_time_between_failures_s()
    print(f"trace: {len(trace)} failures over {trace.horizon_s / 3600.0:.1f} h "
          f"on {trace.nodes} nodes "
          f"({counts['node']} node, {counts['link']} link"
          + (f"; observed fleet MTBF {mtbf / 3600.0:.2f} h" if mtbf else "")
          + ")")
    rows = replay_trace(
        trace, engines=args.engines, stores=args.stores,
        model_size=args.model, checkpoint_interval=args.checkpoint_interval,
        data_parallel=args.data_parallel)
    print(format_table(
        replay_table_rows(rows),
        title="Failure-trace replay — goodput / lost work / restart latency"))
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns a process exit code."""
    args = _build_parser().parse_args(argv)
    if args.command == "simulate":
        return _cmd_simulate(args)
    if args.command == "figure":
        return _cmd_figure(args)
    if args.command == "zoo":
        return _cmd_zoo(args)
    if args.command == "train":
        return _cmd_train(args)
    if args.command == "compare-real":
        return _cmd_compare_real(args)
    if args.command == "replay":
        return _cmd_replay(args)
    if args.command == "list":
        return _cmd_list(args)
    if args.command == "reshape":
        return _cmd_reshape(args)
    raise AssertionError("unreachable")  # pragma: no cover


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
