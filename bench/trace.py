"""Spans, profiler buckets, GC pauses and object capture for one cell.

Everything here is installed from the benchmark's side, around public
calls at layer boundaries; the program carries no tracing code.  An
untraced cell installs only the three *timing probes* (each wraps a call
made once or twice per run), which is what lets ``setup_s`` and the drain
time be read without a profiler.  A traced cell adds the remaining span
points, ``cProfile`` over the root span, ``gc.callbacks`` and captures the
simulator / metrics objects the exact counters are read from.

Spans and tables stay in memory; ``bench.cell`` emits them when the cell
ends.  A probe whose target no longer exists is listed in ``missing`` and
the numbers that depend on it come out as ``None`` — never as 0.
"""

from __future__ import annotations

import cProfile
import gc
import importlib
import pstats
import sys
import time
from collections import defaultdict

from bench.layers import LAYERS, layer_of_file

#: (module, dotted attribute, span name).  The timing probes are the
#: contract between program and benchmark: the end of set-up is the first
#: ``ScaleRunner.schedule`` call (under churn: time inside
#: ``build_brisa_testbed``), the end of the drain is the return of the
#: last ``ScaleRunner.drain``.
TIMING_PROBES = (
    ("repro.experiments.scale_runner", "ScaleRunner.schedule", "schedule"),
    ("repro.experiments.scale_runner", "ScaleRunner.drain", "drain"),
    ("repro.experiments.robustness", "build_brisa_testbed", "ramp"),
)

TRACE_PROBES = (
    ("repro.experiments.bootstrap", "synthesize_overlay", "overlay"),
    # The CSR synthesizers are dispatched through this dict, so its
    # entries are wrapped rather than the module attributes.
    ("repro.experiments.bootstrap", "TOPOLOGY_BUILDERS.*", "topology"),
    ("repro.experiments.bootstrap", "synthesize_passive_arrays", "topology"),
    ("repro.sim.network", "Network.spawn_many", "spawn"),
    ("repro.sim.network", "Network.register_links_csr", "links"),
    ("repro.core.flood_vectorized", "VectorizedFloodKernel.install_rows", "rows"),
    ("repro.core.brisa_slotted", "SlottedBrisaKernel.install_rows", "rows"),
    ("repro.sim.engine", "Simulator.run", "sim_run"),
    ("repro.sim.engine", "Simulator.run_until_idle", "sim_run"),
    ("repro.experiments.scale_flood", "flood_stream_outcomes", "outcomes"),
    ("repro.experiments.scale_brisa", "brisa_stream_outcomes", "outcomes"),
    ("repro.experiments.structural", "relay_load_spread", "relay_spread"),
)


class Recorder:
    """Span store + monkeypatch bookkeeping of one cell."""

    def __init__(self, run_id: str) -> None:
        self.run_id = run_id
        self.spans: list[dict] = []
        self.missing: list[str] = []
        self._open: list[int] = []
        self._undo: list[tuple] = []

    # -- spans ---------------------------------------------------------
    def begin(self, name: str) -> int:
        index = len(self.spans)
        self.spans.append({
            "run": self.run_id, "id": index, "name": name,
            "parent": self._open[-1] if self._open else None,
            "start": time.perf_counter(), "end": None,
        })
        self._open.append(index)
        return index

    def end(self, index: int) -> None:
        self.spans[index]["end"] = time.perf_counter()
        self._open.pop()

    def named(self, name: str) -> list[dict]:
        return [s for s in self.spans if s["name"] == name]

    def seconds(self, name: str) -> float:
        return sum(s["end"] - s["start"] for s in self.named(name))

    # -- monkeypatching ------------------------------------------------
    def patch(self, owner, key: str, replacement) -> None:
        """Replace ``owner.key`` (``owner[key]`` for a dict) until
        :meth:`restore`."""
        if isinstance(owner, dict):
            self._undo.append((owner, key, owner[key]))
            owner[key] = replacement
        else:
            self._undo.append((owner, key, owner.__dict__[key]))
            setattr(owner, key, replacement)

    def restore(self) -> None:
        for owner, key, original in reversed(self._undo):
            if isinstance(owner, dict):
                owner[key] = original
            else:
                setattr(owner, key, original)
        self._undo.clear()

    def spanned(self, original, name: str, on_call=None):
        """``original`` wrapped in a span; ``on_call(args, result)``
        additionally sees every call (object capture)."""
        begin, end = self.begin, self.end

        def wrapper(*args, **kwargs):
            index = begin(name)
            try:
                result = original(*args, **kwargs)
            finally:
                end(index)
            if on_call is not None:
                on_call(args, result)
            return result

        return wrapper

    def wrap(self, module: str, attr: str, name: str, on_call=None) -> None:
        """Record a span around ``module.attr`` (dotted: ``Class.method``,
        or ``TABLE.*`` for every entry of a dispatch dict)."""
        try:
            owner = importlib.import_module(module)
            *path, leaf = attr.split(".")
            for part in path:
                owner = getattr(owner, part)
            keys = list(owner) if leaf == "*" else [leaf]
            originals = [
                owner[key] if isinstance(owner, dict) else owner.__dict__[key]
                for key in keys
            ]
        except (ImportError, AttributeError, KeyError):
            self.missing.append(f"{module}:{attr}")
            return
        for key, original in zip(keys, originals):
            self.patch(owner, key, self.spanned(original, name, on_call))


def phase_seconds(rec: Recorder, root: dict) -> "dict | None":
    """Split the root span into set-up, drain and assemble seconds from
    the timing probes; None when the probes saw nothing."""
    total = root["end"] - root["start"]
    schedules = rec.named("schedule")
    drains = rec.named("drain")
    if schedules and drains:
        setup = schedules[0]["start"] - root["start"]
        drain = drains[-1]["end"] - schedules[0]["start"]
        return {"total": total, "setup": setup, "drain": drain,
                "assemble": total - setup - drain}
    ramp = rec.seconds("ramp")
    if ramp > 0.0:
        return {"total": total, "setup": ramp, "drain": total - ramp,
                "assemble": 0.0}
    return None


# ----------------------------------------------------------------------
# Traced pass
# ----------------------------------------------------------------------
class Tracer:
    """Everything a traced cell installs on top of the timing probes."""

    def __init__(self, rec: Recorder) -> None:
        self.rec = rec
        self.profile = cProfile.Profile()
        self.sims: list = []
        self.metrics: list = []
        self.churn_drivers: list = []
        #: Drain calls of the batch-drain tier; None until its
        #: registration hook is found.
        self.batch_claims: "int | None" = None
        self.gc_pauses: dict[str, float] = defaultdict(float)
        self.gc_collections = [0, 0, 0]
        self._gc_started = 0.0

    def install(self) -> None:
        rec = self.rec
        for module, attr, name in TRACE_PROBES:
            rec.wrap(module, attr, name)
        # Object capture: the simulators and metric sinks the exact
        # counters are read from once the run is over.
        rec.wrap(
            "repro.experiments.scale_runner", "ScaleRunner.__init__", "runner_init",
            on_call=lambda args, _: self._capture(args[0].sim, args[0].network.metrics),
        )
        rec.wrap(
            "repro.experiments.common", "Testbed.populate", "populate",
            on_call=lambda args, _: self._capture(args[0].sim, args[0].metrics),
        )
        rec.wrap(
            "repro.sim.churn", "ChurnDriver.apply", "churn_apply",
            on_call=lambda args, _: self.churn_drivers.append(args[0]),
        )
        self._wrap_batch_drain()

    def start(self) -> None:
        """Begin profiling and GC accounting (call at the root span)."""
        gc.callbacks.append(self._on_gc)
        self.profile.enable()

    def stop(self) -> None:
        self.profile.disable()
        gc.callbacks.remove(self._on_gc)
        #: ``{(file, line, name): (cc, ncalls, tottime, cumtime, callers)}``
        self.stats = pstats.Stats(self.profile).stats

    def _capture(self, sim, metrics) -> None:
        if not any(sim is s for s in self.sims):
            self.sims.append(sim)
            self.metrics.append(metrics)

    def _wrap_batch_drain(self) -> None:
        """Count batch claims by wrapping every drain callback handed to
        ``Simulator.register_batch_drain``."""
        try:
            sim_cls = importlib.import_module("repro.sim.engine").Simulator
            original = sim_cls.__dict__["register_batch_drain"]
        except (ImportError, AttributeError, KeyError):
            self.rec.missing.append("repro.sim.engine:Simulator.register_batch_drain")
            return
        self.batch_claims = 0
        tracer = self

        def register_batch_drain(sim, fn, drain):
            def counting_drain(batch):
                tracer.batch_claims += 1
                return drain(batch)

            return original(sim, fn, counting_drain)

        self.rec.patch(sim_cls, "register_batch_drain", register_batch_drain)

    def _on_gc(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._gc_started = time.perf_counter()
            return
        pause = time.perf_counter() - self._gc_started
        self.gc_collections[info["generation"]] += 1
        # Charge the pause to the layer whose frame triggered it, so it
        # can be moved out of that layer's profiler self time.
        frame = sys._getframe(1)
        layer = None
        while frame is not None and layer is None:
            layer = layer_of_file(frame.f_code.co_filename)
            frame = frame.f_back
        self.gc_pauses[layer or "other"] += pause

    # -- profiler buckets ---------------------------------------------
    def layer_table(self) -> dict:
        """``{layer: {"self_s", "calls"}}`` from the profile: ``tottime``
        by source module; code outside the program (C builtins, stdlib,
        numpy) is charged to its callers in proportion to the time they
        spent in it, so ``_heapq`` lands in ``engine`` and numpy in the
        kernel that called it."""
        stats = self.stats

        def shares(func, trail=()) -> dict:
            """Layer shares (summing to 1) of a function: its own layer,
            or for foreign code its callers' shares weighted by the time
            each spent in it (``trail`` breaks recursion cycles)."""
            layer = layer_of_file(func[0])
            if layer is not None:
                return {layer: 1.0}
            weights: dict = defaultdict(float)
            for caller, (_cc, _nc, tt, _ct) in stats[func][4].items():
                if caller not in trail and tt > 0.0:
                    for lay, share in shares(caller, trail + (func,)).items():
                        weights[lay] += tt * share
            total = sum(weights.values())
            if total <= 0.0:
                return {"other": 1.0}
            return {lay: weight / total for lay, weight in weights.items()}

        table = {layer: {"self_s": 0.0, "calls": 0} for layer in LAYERS}
        for func, (_cc, ncalls, tottime, _ct, _callers) in stats.items():
            own = layer_of_file(func[0])
            if own is not None:
                table[own]["calls"] += ncalls
            for layer, share in shares(func).items():
                table[layer]["self_s"] += tottime * share
        for layer, pause in self.gc_pauses.items():
            table[layer]["self_s"] -= pause
            table["gc"]["self_s"] += pause
        table["gc"]["calls"] = sum(self.gc_collections)
        return table

    def calls_of(self, module: str, owner: str, name: str) -> "int | None":
        """Profiled call count of ``module.owner.name`` (and overrides of
        the same name in that module); None when it no longer exists."""
        try:
            getattr(getattr(importlib.import_module(module), owner), name)
        except (ImportError, AttributeError):
            return None
        suffix = module.replace(".", "/") + ".py"
        return sum(
            ncalls for (filename, _line, fn), (_cc, ncalls, *_rest) in self.stats.items()
            if fn == name and filename.endswith(suffix)
        )

    # -- the per-layer metric set -------------------------------------
    def per_layer(self, root: dict, outcome: dict, import_s: float) -> dict:
        """Every per-layer metric of BENCHMARK.json except
        ``trace.overhead_ratio`` (which needs the untraced total).  A
        value is None when its source no longer exists in the program."""
        rec = self.rec
        out: dict = {}
        for layer, row in self.layer_table().items():
            out[f"{layer}.self_s"] = row["self_s"]
            out[f"{layer}.calls"] = row["calls"]

        phases = phase_seconds(rec, root) or {}
        out["span.import_s"] = import_s
        out["span.topology_s"] = rec.seconds("topology")
        out["span.spawn_s"] = rec.seconds("spawn")
        out["span.wire_s"] = rec.seconds("overlay") - rec.seconds("topology")
        out["span.rows_s"] = rec.seconds("rows")
        out["span.ramp_s"] = rec.seconds("ramp")
        out["span.schedule_s"] = rec.seconds("schedule")
        out["span.drain_s"] = phases.get("drain")
        out["span.assemble_s"] = phases.get("assemble")

        def kind_total(metrics, keep) -> int:
            return sum(
                sum(per_phase.values())
                for kind, per_phase in metrics.msg_counts.items() if keep(kind)
            )

        def over_metrics(read):
            """Sum ``read(metrics)`` over the captured sinks; None if the
            attribute it reads is gone."""
            try:
                return sum(read(m) for m in self.metrics)
            except AttributeError:
                return None

        def is_data(kind): return kind.endswith("_data")
        def is_membership(kind): return kind.startswith(("hpv_", "cyc_"))

        pushes = [getattr(sim, "_seq", None) for sim in self.sims]
        out["engine.events"] = outcome["events"]
        out["engine.heap_pushes"] = None if None in pushes else sum(pushes)
        out["engine.peak_pending"] = outcome["peak_pending"]
        out["engine.pool_size"] = max((sim.pool_size for sim in self.sims), default=None)
        out["engine.batch_claims"] = self.batch_claims
        out["network.sends"] = over_metrics(lambda m: kind_total(m, lambda kind: True))
        out["network.bytes_sent"] = over_metrics(lambda m: m.total_bytes())
        out["network.dropped_loss"] = over_metrics(lambda m: m.counters.get("dropped_loss", 0))
        out["network.dropped_crash"] = over_metrics(lambda m: m.counters.get("dropped_crash", 0))
        out["latency.samples"] = self.calls_of("repro.sim.latency", "LatencyModel", "sample")
        out["monitor.msgs_data"] = over_metrics(lambda m: kind_total(m, is_data))
        out["monitor.msgs_membership"] = over_metrics(lambda m: kind_total(m, is_membership))
        out["monitor.msgs_control"] = over_metrics(
            lambda m: kind_total(m, lambda k: not is_data(k) and not is_membership(k))
        )
        waves = self.calls_of(
            "repro.core.flood_vectorized", "VectorizedFloodKernel", "on_fan_batch"
        )
        out["flood_vectorized.waves"] = waves
        out["flood_vectorized.rx_per_wave"] = (
            None if waves is None else outcome["receptions"] / waves if waves else 0.0
        )
        brisa_ran = bool(over_metrics(lambda m: kind_total(m, lambda k: k == "brisa_data")))
        out["brisa.receptions"] = outcome["receptions"] if brisa_ran else 0
        out["brisa.useful_ratio"] = (
            1.0 / outcome["rx_per_delivery"] if brisa_ran else 0.0
        )
        out["brisa.parents_lost"] = over_metrics(lambda m: len(m.parent_losses))
        out["brisa.orphans"] = over_metrics(lambda m: len(m.orphan_events))
        for kind in ("soft", "hard"):
            out[f"brisa.repairs_{kind}"] = over_metrics(
                lambda m: sum(1 for r in m.repair_events if r.kind == kind)
            )
        out["brisa.retransmit_requests"] = over_metrics(
            lambda m: kind_total(m, lambda k: k == "brisa_retransmit")
        )
        out["brisa.cycles_detected"] = over_metrics(
            lambda m: m.counters.get("cycles_detected", 0)
        )
        out["hyparview.joins"] = over_metrics(lambda m: kind_total(m, lambda k: k == "hpv_join"))
        out["churn.kills"] = sum(d.stats.kills for d in self.churn_drivers)
        out["churn.joins"] = sum(d.stats.joins for d in self.churn_drivers)
        out["structure.complete_streams"] = outcome["structures_complete"]
        out["gc.collections_gen2"] = self.gc_collections[2]
        out["gc.pause_s"] = sum(self.gc_pauses.values())
        return out
