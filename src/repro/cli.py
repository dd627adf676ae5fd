"""Command-line interface: ``python -m repro <command>``.

Commands mirror the per-experiment index of DESIGN.md §4::

    python -m repro list                     # available experiments
    python -m repro run fig2 --scale fast    # one artifact, print rows
    python -m repro run all --scale fast     # every artifact
    python -m repro quickstart               # quick_brisa_run: 64 nodes
    python -m repro scale --scale xl         # 10k-node flood run
    python -m repro scale --stack brisa --size xl   # full BRISA stack at 10k
    python -m repro scale --scale xxl --messages 10                  # 100k rung
    python -m repro scale --scale xl --churn 1 --kernel slotted      # churn at scale
    python -m repro scale --stack brisa --size xl --streams 8        # §IV multi-stream
    python -m repro scale --size xxxl --kernel vectorized --messages 10   # 1M-node rung
    python -m repro live --size small            # BRISA over real UDP sockets:
                                                 # 64 nodes across 2 OS processes,
                                                 # cross-checked vs same-seed sim
    python -m repro live --size small --workers 4 --streams 2 --json live.json

``repro scale`` reports what a run delivered and what it cost the engine
(events, receptions, peak heap) and the process (peak RSS); how fast the
simulator is is measured by the repo benchmark, ``python3 -m bench run`` /
``bench check``.
"""

from __future__ import annotations

import argparse
import resource
import sys

from repro.errors import SimulationError
from repro.experiments import report as rp
from repro.experiments import scenarios as sc


def _add_workload_args(cmd, *, default_size: str, default_messages: int) -> None:
    """Workload flags shared by ``repro scale`` and ``repro live`` — one
    definition, so the two commands cannot drift apart (they feed the
    same :class:`~repro.experiments.scale_runner.RunSpec`)."""
    cmd.add_argument("--scale", "--size", dest="scale", default=default_size,
                     help="tiny | small | fast | paper | large | xl | xxl | xxxl")
    cmd.add_argument("--nodes", type=int, default=None,
                     help="override the population (default: scale's cluster_nodes)")
    cmd.add_argument("--messages", type=int, default=default_messages,
                     help=f"stream length (default {default_messages})")
    cmd.add_argument("--rate", type=float, default=20.0, help="injection rate (msgs/s)")
    cmd.add_argument("--mode", choices=["tree", "dag"], default=None,
                     help="BRISA structure mode (brisa stack only; default tree)")
    cmd.add_argument("--streams", type=int, default=1, metavar="K",
                     help="concurrent publishers, spread over the population, "
                          "each driving its own stream id (default 1; "
                          "DESIGN.md §10)")
    cmd.add_argument("--seed", type=int, default=1)
    cmd.add_argument("--json", dest="json_path", default=None, metavar="FILE",
                     help="also write the results as JSON (merge-write: "
                          "existing entries in FILE from other runs are "
                          "preserved)")


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro", description="BRISA reproduction (IPDPS 2012)"
    )
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("list", help="list reproducible artifacts")
    run = sub.add_parser("run", help="run one artifact (or 'all')")
    run.add_argument("experiment", choices=[*sc.ARTIFACTS, "all"])
    run.add_argument("--scale", default=None,
                     help="tiny | small | fast | paper | large | xl | xxl | xxxl")
    sub.add_parser("quickstart", help="64-node BRISA run (quick_brisa_run)")
    sc_cmd = sub.add_parser(
        "scale", help="large-scale dissemination run (see DESIGN.md §6–7, §10)"
    )
    _add_workload_args(sc_cmd, default_size="large", default_messages=20)
    sc_cmd.add_argument("--stack", choices=list(sc.STACKS), default="flood",
                        help="protocol stack: flood baseline, the full BRISA stack, "
                             "or the lazy-push/pull recovery baseline")
    sc_cmd.add_argument("--degree", type=int, default=None,
                        help="overlay degree (default: 5 for flood, settled-ramp "
                             "degree for brisa)")
    sc_cmd.add_argument("--bootstrap", default=None, metavar="KIND",
                        help="brisa stack only: synthesized (default) | simulated | "
                             "path to an overlay checkpoint")
    sc_cmd.add_argument("--kernel", default=None,
                        choices=sorted({k for stack in sc.STACKS.values()
                                        for k in stack.kernels}),
                        help="delivery kernel (default object; slotted = "
                             "flat-array state for flood, DESIGN.md §9, a "
                             "fused-fan loop for brisa, §11; vectorized = numpy "
                             "wave kernel, flood stack only, DESIGN.md §12)")
    sc_cmd.add_argument("--churn", type=float, default=None, metavar="PCT",
                        help="flood stack only: kill PCT%% of the population at "
                             "random instants during the stream (sources protected) "
                             "and join as many fresh nodes")
    sc_cmd.add_argument("--topology", choices=["uniform", "powerlaw", "smallworld"],
                        default="uniform",
                        help="synthesized overlay topology class (default uniform; "
                             "powerlaw = preferential-attachment heavy tail, "
                             "smallworld = rewired ring lattice; DESIGN.md §14)")
    sc_cmd.add_argument("--loss", type=float, default=0.0, metavar="PCT",
                        dest="loss_percent",
                        help="per-link message loss rate in percent (default 0; "
                             "independent coin per (message, destination) from "
                             "its own RNG stream, DESIGN.md §14)")
    live_cmd = sub.add_parser(
        "live",
        help="BRISA over real asyncio UDP sockets across worker processes "
             "(DESIGN.md §13), e.g.: repro live --size small",
        description="Run the BRISA stack live: N worker OS processes on "
                    "localhost, one UDP socket each, dissemination over "
                    "real datagrams, cross-checked against a same-seed "
                    "simulated run.  Example: repro live --size small",
    )
    _add_workload_args(live_cmd, default_size="small", default_messages=10)
    live_cmd.add_argument("--workers", type=int, default=2, metavar="N",
                          help="worker OS processes hosting the nodes (default 2)")
    live_cmd.add_argument("--payload", type=int, default=256, metavar="BYTES",
                          dest="payload_bytes",
                          help="payload bytes per message (default 256)")
    live_cmd.add_argument("--timeout", type=float, default=60.0,
                          help="coordinator deadline in seconds before workers "
                               "are terminated (default 60)")
    live_cmd.add_argument("--checkpoint", default=None, metavar="FILE",
                          help="overlay checkpoint to restore (default: "
                               "synthesize one for this seed)")
    live_cmd.add_argument("--no-cross-check", action="store_true",
                          help="skip the same-seed simulated leg")
    live_cmd.add_argument("--control-host", default=None, metavar="HOST",
                          help="host the coordinator binds its control socket "
                               "on and advertises in the node address table "
                               "(default 127.0.0.1; set a routable address to "
                               "run workers on other hosts)")
    return parser


def _run_scale(args) -> int:
    spec = sc.RunSpec(
        stack=args.stack,
        size=args.scale,
        nodes=args.nodes,
        messages=args.messages,
        rate=args.rate,
        seed=args.seed,
        streams=args.streams,
        kernel=args.kernel,
        degree=args.degree,
        mode=args.mode,
        bootstrap=args.bootstrap,
        churn_percent=args.churn,
        topology=args.topology,
        loss_percent=args.loss_percent,
    )
    try:
        result = sc.run_spec(spec)
    except (ValueError, SimulationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(rp.banner(f"Scale {args.stack} — {result.nodes} nodes ({args.scale})"))
    print(result.summary())
    # What the process took, not a property of the run (so not a
    # ScaleResult field): the rungs python3 -m bench does not cover
    # report their memory here.  ru_maxrss is KiB on Linux.
    rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    print(f"peak rss: {rss_kib // 1024:,} MiB")
    if args.json_path:
        # The shared merge-write (DESIGN.md §10): repeated runs pointed at
        # one artifact accumulate entries instead of clobbering them, the
        # same contract the BENCH_*.json files rely on.
        sc.merge_json(args.json_path, {"scale_run": result.to_dict()})
        print(f"\nwrote {args.json_path}")
    return 0


def _run_live(args) -> int:
    from repro.experiments.live_runner import CONTROL_HOST, run_live

    # The same RunSpec as `repro scale`; the live leg runs it on the
    # brisa stack and rejects what it cannot honour.
    spec = sc.RunSpec(
        stack="brisa",
        size=args.scale,
        nodes=args.nodes,
        messages=args.messages,
        rate=args.rate,
        payload_bytes=args.payload_bytes,
        seed=args.seed,
        streams=args.streams,
        mode=args.mode,
        bootstrap=args.checkpoint,
    )
    try:
        outcome = run_live(
            spec,
            workers=args.workers,
            timeout=args.timeout,
            cross_check=not args.no_cross_check,
            control_host=CONTROL_HOST if args.control_host is None else args.control_host,
            json_path=args.json_path,
        )
    except (ValueError, SimulationError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(rp.banner(f"Live brisa — {outcome.nodes} nodes x {args.workers} workers ({args.scale})"))
    print(outcome.summary())
    if args.json_path:
        print(f"\nwrote {args.json_path}")
    ok = (
        outcome.delivered_fraction == 1.0
        and outcome.all_structures_ok
        and outcome.clean_shutdown
        and outcome.cross_check_ok is not False
    )
    return 0 if ok else 1


def main(argv: list[str] | None = None) -> int:
    args = make_parser().parse_args(argv)
    if args.command == "list":
        for name, artifact in sc.ARTIFACTS.items():
            print(f"{name:8} {artifact.description}")
        return 0
    if args.command == "quickstart":
        from repro.experiments.common import quick_brisa_run

        print(quick_brisa_run().summary())
        return 0
    if args.command == "scale":
        return _run_scale(args)
    if args.command == "live":
        return _run_live(args)
    scale = sc.get_scale(args.scale)
    names = list(sc.ARTIFACTS) if args.experiment == "all" else [args.experiment]
    for name in names:
        _, reports = sc.ARTIFACTS[name].produce(scale)
        # The text reports, exactly as the benches write them; fig8's
        # DOT graphs are files its text report names.
        for file_name, text in reports.items():
            if file_name.endswith(".txt"):
                sys.stdout.write(text)
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
