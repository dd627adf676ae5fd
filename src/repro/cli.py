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
from typing import Callable

from repro.errors import SimulationError
from repro.experiments import report as rp
from repro.experiments import scenarios as sc
from repro.sim.monitor import DISSEMINATION, STABILIZATION


def _render_fig2(scale) -> str:
    res = sc.fig2_duplicates(scale)
    from repro.metrics.stats import CDF

    series = {
        f"view size = {v}": CDF.of(x / res.messages for x in cdf.values)
        for v, cdf in sorted(res.by_view.items())
    }
    return rp.banner("Fig. 2 — duplicates per message per node") + "\n" + rp.cdf_rows(series)


def _render_fig6(scale) -> str:
    res = sc.fig6_fig7_structure(scale)
    out = rp.banner("Fig. 6 — depth distribution") + "\n" + rp.cdf_rows(res.depth)
    out += "\n" + rp.banner("Fig. 7 — degree distribution") + "\n" + rp.cdf_rows(res.degree)
    return out


def _render_fig8(scale) -> str:
    res = sc.fig8_tree_shape()
    rows = [
        [f"view={v}", s["nodes"], s["edges"], s["max_depth"], s["max_degree"], s["leaves"]]
        for v, s in sorted(res.summary.items())
    ]
    return rp.banner("Fig. 8 — sample tree shapes") + "\n" + rp.table(
        ["config", "nodes", "edges", "max depth", "max degree", "leaves"], rows
    )


def _render_fig9(scale) -> str:
    res = sc.fig9_routing_delays(scale, seed=24)
    return rp.banner("Fig. 9 — routing delays (PlanetLab)") + "\n" + rp.cdf_rows(res.series)


def _render_fig10(scale) -> str:
    res = sc.fig10_fig11_bandwidth(scale)
    dl = {f"{label}, {kb} KB": p for (label, kb), p in sorted(res.download.items())}
    ul = {f"{label}, {kb} KB": p for (label, kb), p in sorted(res.upload.items())}
    out = rp.banner("Fig. 10 — download KB/s percentiles") + "\n" + rp.percentile_rows(dl)
    out += "\n" + rp.banner("Fig. 11 — upload KB/s percentiles") + "\n" + rp.percentile_rows(ul)
    return out


def _render_table1(scale) -> str:
    res = sc.table1_churn(scale)
    rows = [
        [n, f"{pct:g}%", mode, r.parents_lost_per_min, r.orphans_per_min,
         r.soft_repair_pct, r.hard_repair_pct]
        for (n, pct, mode), r in sorted(res.rows.items())
    ]
    return rp.banner("Table I — impact of churn") + "\n" + rp.table(
        ["nodes", "churn", "mode", "lost/min", "orphans/min", "% soft", "% hard"], rows
    )


def _render_fig12(scale) -> str:
    res = sc.fig12_bandwidth_comparison(scale)
    rows = []
    for proto, per in res.data.items():
        for kb, d in sorted(per.items()):
            rows.append([proto, kb, d[STABILIZATION], d[DISSEMINATION],
                         d[STABILIZATION] + d[DISSEMINATION]])
    return rp.banner("Fig. 12 — data transmitted per node (MB)") + "\n" + rp.table(
        ["protocol", "payload KB", "stabilization", "dissemination", "total"], rows
    )


def _render_fig13(scale) -> str:
    res = sc.fig13_construction(scale)
    series = {f"{p}, {e}": c for (p, e), c in sorted(res.series.items())}
    return rp.banner("Fig. 13 — construction time (s)") + "\n" + rp.cdf_rows(series)


def _render_table2(scale) -> str:
    res = sc.table2_latency(scale)
    rows = [
        [proto, res.latency[proto], rp.overhead_percent(res.overhead(proto)),
         f"{res.delivered[proto] * 100:.1f}%"]
        for proto in res.latency
    ]
    return rp.banner(f"Table II — dissemination latency (ideal {res.ideal:.1f}s)") + "\n" + rp.table(
        ["protocol", "latency (s)", "overhead", "delivered"], rows
    )


def _render_fig14(scale) -> str:
    res = sc.fig14_recovery(scale, churn_percent=6.0)
    out = rp.banner("Fig. 14 — recovery delays (s)") + "\nHard repairs:\n"
    out += rp.cdf_rows(res.hard) + "\nSoft repairs:\n" + rp.cdf_rows(res.soft)
    return out


EXPERIMENTS: dict[str, tuple[str, Callable]] = {
    "fig2": ("Duplicates per node under flooding", _render_fig2),
    "fig6": ("Depth + degree distributions (also fig7)", _render_fig6),
    "fig8": ("Sample tree shapes", _render_fig8),
    "fig9": ("Routing delays on PlanetLab", _render_fig9),
    "fig10": ("Bandwidth percentiles (also fig11)", _render_fig10),
    "table1": ("Churn impact", _render_table1),
    "fig12": ("Cross-protocol bandwidth", _render_fig12),
    "fig13": ("Construction time", _render_fig13),
    "table2": ("Dissemination latency", _render_table2),
    "fig14": ("Recovery delays", _render_fig14),
}


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
    run.add_argument("experiment", choices=[*EXPERIMENTS, "all"])
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
        nodes = spec.population(sc.get_scale(spec.size))
    except (ValueError, SimulationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(rp.banner(f"Scale {args.stack} — {nodes} nodes ({args.scale})"))
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
        for name, (desc, _) in EXPERIMENTS.items():
            print(f"{name:8} {desc}")
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
    names = list(EXPERIMENTS) if args.experiment == "all" else [args.experiment]
    for name in names:
        _, render = EXPERIMENTS[name]
        print(render(scale))
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
