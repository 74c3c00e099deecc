"""Per-layer tracing for the benchmark, installed from outside the program.

:func:`install` wraps the *public* function at each layer boundary of
``repro`` and records, per boundary, the call count, total time and
self time (total minus the time its child spans on the same thread
cover).  Nothing in ``src/`` knows it is being traced.

Two kinds of boundary:

* **per-step** boundaries (``device.step``, ``cpu.step``, ``isa.decode``,
  monitor/trace/peripheral hooks) run millions of times, so they are
  only aggregated in memory: count, total, self time;
* every other boundary additionally records one span -- id, parent id,
  thread, start, end -- kept in memory and written out by
  :meth:`Tracer.write_spans` when the run ends.

State is per thread (fault-sweep shards and the serve pump run on
executor threads), and merged when the metrics are read, so no counter
is shared between threads.  Worker-thread spans that start while a
``serve.pump.attest`` span is open on the event-loop thread take it as
their parent; the pump's ``wait_s`` is its duration minus the union of
those children's intervals.

Wrappers never change which code path the program takes: the device
sorts peripherals by comparing ``type(p).tick`` with ``Peripheral.tick``,
so only subclasses that already override ``tick`` get a wrapper, and
everything is installed before the traced pass builds its first device
(``Device._run_loop`` binds ``self.step`` once per run).
"""

import functools
import itertools
import json
import sys
import threading
import time

# Boundaries in report order.  Each yields ``<name>.calls`` and
# ``<name>.self_s``.
HOT_BOUNDARIES = (
    "device.step", "cpu.step", "isa.decode", "cpu.irq_pending",
    "cfg.trace.observe", "peripherals.tick", "casu.observe",
)
SPAN_BOUNDARIES = (
    "snapshot.save", "snapshot.restore", "faults.run_faulted",
    "api.build_firmware", "minicc.compile_c", "eilid.build_eilid",
    "toolchain.build", "cfg.recover",
    "serve.dispatch", "serve.pump.attest", "fleet.protocol.attest",
    "cfg.replay", "fleet.registry.flush",
    "fleet.protocol.offer_update", "device.apply_update",
    "fleet.store.save_record", "fleet.store.flush",
    "obs.events.emit", "obs.events.flush",
)
BOUNDARIES = HOT_BOUNDARIES + SPAN_BOUNDARIES

# Counters and derived values reported beside the boundaries:
# name -> unit.
EXTRA_METRICS = {
    "cpu.irq_accept.calls": "count",
    "casu.violations": "count",
    "faults.steps_per_fault": "count",
    "serve.pump.wait_s": "s",
    "fleet.store.bytes": "bytes",
    "obs.events.bytes": "bytes",
    "isa.decode_miss_ratio": "ratio",
    "trace.overhead_ratio": "ratio",
}


def per_layer_units():
    """Every per-layer metric name -> unit, in report order."""
    units = {}
    for name in BOUNDARIES:
        units[f"{name}.calls"] = "count"
        units[f"{name}.self_s"] = "s"
    units.update(EXTRA_METRICS)
    return units


# Frame slots: time covered by same-thread children, span id (per-step
# frames carry their parent's), start, the intervals of adopted
# cross-thread children, parent span id, and the adopting parent frame.
_CHILD, _SPAN, _START, _REMOTE, _PARENT, _ADOPTER = range(6)


class _ThreadState:
    __slots__ = ("stack", "agg", "extra", "spans")

    def __init__(self):
        self.stack = []
        self.agg = {}  # name -> [calls, total_s, self_s]
        self.extra = {}  # counter name -> value
        self.spans = []  # (id, parent, name, thread, start, end)


class Tracer:
    """Collects per-boundary aggregates and spans for one traced pass."""

    def __init__(self):
        self._local = threading.local()
        self._states = []
        self._lock = threading.Lock()
        self._ids = itertools.count(1)
        # The open serve.pump.attest frame, adopted as parent by spans
        # that start on an otherwise idle executor thread.
        self._remote = None

    def _state(self) -> _ThreadState:
        state = getattr(self._local, "state", None)
        if state is None:
            state = self._local.state = _ThreadState()
            with self._lock:
                self._states.append(state)
        return state

    # ---- wrappers ----------------------------------------------------------

    def hot(self, name, func, on_result=None):
        """Aggregate-only wrapper for a per-step boundary.

        It repeats :meth:`_close`'s bookkeeping inline, without a call,
        because it runs several times per simulated step.
        """
        local = self._local
        new_state = self._state
        clock = time.perf_counter

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            state = getattr(local, "state", None) or new_state()
            stack = state.stack
            frame = [0.0, stack[-1][_SPAN] if stack else None]
            stack.append(frame)
            start = clock()
            try:
                result = func(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                agg = state.agg.get(name)
                if agg is None:
                    agg = state.agg[name] = [0, 0.0, 0.0]
                agg[0] += 1
                agg[1] += elapsed
                agg[2] += elapsed - frame[_CHILD]
                if stack:
                    stack[-1][_CHILD] += elapsed
            if on_result is not None:
                on_result(state, result)
            return result

        return wrapper

    def _open(self, remote=False):
        state = self._state()
        stack = state.stack
        parent_frame = None
        if stack:
            parent = stack[-1][_SPAN]
        else:
            parent_frame = self._remote
            parent = None if parent_frame is None else parent_frame[_SPAN]
        frame = [0.0, next(self._ids), time.perf_counter(),
                 [] if remote else None, parent, parent_frame]
        stack.append(frame)
        return state, frame

    def _close(self, name, state, frame, hook=None):
        """Close *frame*; then run *hook*, the tracer's own bookkeeping.

        The hook runs outside the span, and its time is charged to
        neither the span nor its parent's self time.
        """
        end = time.perf_counter()
        start = frame[_START]
        elapsed = end - start
        stack = state.stack
        stack.pop()
        agg = state.agg.get(name)
        if agg is None:
            agg = state.agg[name] = [0, 0.0, 0.0]
        agg[0] += 1
        agg[1] += elapsed
        agg[2] += elapsed - frame[_CHILD]
        covered_end = end
        if hook is not None:
            hook()
            covered_end = time.perf_counter()
        if stack:
            stack[-1][_CHILD] += covered_end - start
        elif frame[_ADOPTER] is not None:
            frame[_ADOPTER][_REMOTE].append((start, covered_end))
        state.spans.append((frame[_SPAN], frame[_PARENT], name,
                            threading.get_ident(), start, end))
        return elapsed

    def span(self, name, func, before=None, after=None):
        """Span-recording wrapper for a synchronous boundary.

        *before(state, args, kwargs)* runs before the span opens and may
        return a token that *after(state, token, result)* receives once
        the call returns, after the span has closed.
        """

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            token = before(self._state(), args, kwargs) if before else None
            state, frame = self._open()
            try:
                result = func(*args, **kwargs)
            except BaseException:
                self._close(name, state, frame)
                raise
            self._close(name, state, frame, after and (
                lambda: after(state, token, result)))
            return result

        return wrapper

    def async_span(self, name, func, adopt_workers=False):
        """Span-recording wrapper for a coroutine function.

        With *adopt_workers*, spans opened on idle executor threads
        while this one is open become its children, and the part of its
        duration they do not cover is added to ``serve.pump.wait_s``.
        """

        @functools.wraps(func)
        async def wrapper(*args, **kwargs):
            state, frame = self._open(remote=adopt_workers)
            if adopt_workers:
                self._remote = frame
            try:
                return await func(*args, **kwargs)
            finally:
                if adopt_workers:
                    self._remote = None
                elapsed = self._close(name, state, frame)
                if adopt_workers:
                    covered = _union_length(frame[_REMOTE])
                    add(state, "serve.pump.wait_s", elapsed - covered)

        return wrapper

    def reset(self):
        """Forget everything recorded so far (between traced runs)."""
        for state in list(self._states):
            state.agg.clear()
            state.extra.clear()
            state.spans.clear()

    # ---- results -----------------------------------------------------------

    def aggregates(self):
        """name -> [calls, total_s, self_s], merged across threads."""
        merged = {}
        for state in list(self._states):
            for name, (calls, total, self_s) in list(state.agg.items()):
                slot = merged.setdefault(name, [0, 0.0, 0.0])
                slot[0] += calls
                slot[1] += total
                slot[2] += self_s
        return merged

    def extras(self):
        merged = {}
        for state in list(self._states):
            for name, value in list(state.extra.items()):
                merged[name] = merged.get(name, 0) + value
        return merged

    def metrics(self, overhead_ratio):
        """Every per-layer metric, as ``{name: {"value", "unit"}}``."""
        units = per_layer_units()
        agg = self.aggregates()
        extra = self.extras()
        values = {}
        for name in BOUNDARIES:
            calls, _total, self_s = agg.get(name, (0, 0.0, 0.0))
            values[f"{name}.calls"] = calls
            values[f"{name}.self_s"] = self_s
        steps = values["cpu.step.calls"]
        faults = values["faults.run_faulted.calls"]
        values["cpu.irq_accept.calls"] = agg.get("cpu.irq_accept",
                                                 (0, 0.0, 0.0))[0]
        values["casu.violations"] = extra.get("casu.violations", 0)
        values["faults.steps_per_fault"] = (
            extra.get("faults.steps", 0) / faults if faults else 0.0)
        values["serve.pump.wait_s"] = extra.get("serve.pump.wait_s", 0.0)
        values["fleet.store.bytes"] = extra.get("fleet.store.bytes", 0)
        values["obs.events.bytes"] = extra.get("obs.events.bytes", 0)
        values["isa.decode_miss_ratio"] = (
            values["isa.decode.calls"] / steps if steps else 0.0)
        values["trace.overhead_ratio"] = overhead_ratio
        return {name: {"value": values[name], "unit": unit}
                for name, unit in units.items()}

    def write_spans(self, path):
        """Write every recorded span as one JSON line; returns the count."""
        spans = sorted((span for state in self._states for span in state.spans),
                       key=lambda span: span[4])
        origin = spans[0][4] if spans else 0.0
        with open(path, "w", encoding="utf-8") as handle:
            for span_id, parent, name, thread, start, end in spans:
                handle.write(json.dumps({
                    "id": span_id, "parent": parent, "name": name,
                    "thread": thread, "start_s": round(start - origin, 9),
                    "end_s": round(end - origin, 9)}) + "\n")
        return len(spans)


def add(state, name, value):
    state.extra[name] = state.extra.get(name, 0) + value


def _union_length(intervals):
    total = 0.0
    current_start = current_end = None
    for start, end in sorted(intervals):
        if current_end is None or start > current_end:
            if current_end is not None:
                total += current_end - current_start
            current_start, current_end = start, end
        elif end > current_end:
            current_end = end
    if current_end is not None:
        total += current_end - current_start
    return total


# ---- installation -----------------------------------------------------------


def _replace_function(original, wrapper):
    """Point every loaded ``repro`` module's reference at *wrapper*.

    Modules imported later copy the name from an already patched module,
    so they get the wrapper too.
    """
    for attr in ("cache_clear", "cache_info"):
        if hasattr(original, attr):
            setattr(wrapper, attr, getattr(original, attr))
    for module_name, module in list(sys.modules.items()):
        if module is None or not module_name.startswith("repro"):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, wrapper)


def _json_bytes(doc):
    # JsonlStore appends one sorted-key JSON line per saved record.
    return len(json.dumps({"kind": "record", **doc}, sort_keys=True)) + 1


def install(tracer: Tracer):
    """Wrap every layer boundary of ``repro``; call before building devices."""
    import repro.api.firmware as firmware
    import repro.cfg.recover as recover
    import repro.cfg.replay as replay
    import repro.cpu.core as core
    import repro.faults.inject as inject
    import repro.minicc as minicc
    from repro.casu.monitor import HardwareMonitor
    from repro.cfg.trace import BranchTraceRecorder
    from repro.cpu.interrupts import InterruptController
    from repro.device import Device
    from repro.eilid.iterbuild import IterativeBuild
    from repro.fleet.protocol import VerifierSession
    from repro.fleet.registry import FleetRegistry
    from repro.fleet.store import JsonlStore
    from repro.obs.events import EventLog, JsonlEventLog
    from repro.peripherals.base import Peripheral
    from repro.serve.daemon import VerifierDaemon
    from repro.serve.pump import AsyncFleetPump
    from repro.toolchain.build import BuildPipeline

    # Per-step boundaries.
    Device.step = tracer.hot("device.step", Device.step)
    core.Cpu.step = tracer.hot("cpu.step", core.Cpu.step)
    # Only the CPU's decode call site: a miss in its decode cache.  CFG
    # recovery and the listing tools decode too, but not per step.
    core.decode = tracer.hot("isa.decode", core.decode)
    InterruptController.any_pending = property(tracer.hot(
        "cpu.irq_pending", InterruptController.any_pending.fget))
    InterruptController.accept = tracer.hot("cpu.irq_accept",
                                            InterruptController.accept)
    BranchTraceRecorder.observe = tracer.hot("cfg.trace.observe",
                                             BranchTraceRecorder.observe)

    def count_violation(state, violation):
        if violation is not None:
            add(state, "casu.violations", 1)

    HardwareMonitor.observe = tracer.hot("casu.observe",
                                         HardwareMonitor.observe,
                                         on_result=count_violation)
    pending = list(Peripheral.__subclasses__())
    while pending:
        cls = pending.pop()
        pending.extend(cls.__subclasses__())
        if "tick" in cls.__dict__:
            cls.tick = tracer.hot("peripherals.tick", cls.__dict__["tick"])

    # Snapshot and fault boundaries.
    Device.snapshot = tracer.span("snapshot.save", Device.snapshot)
    Device.restore = tracer.span("snapshot.restore", Device.restore)

    def steps_before(state, args, kwargs):
        return state.agg.get("cpu.step", (0,))[0]

    def steps_after(state, before, result):
        add(state, "faults.steps", state.agg.get("cpu.step", (0,))[0] - before)

    _replace_function(inject.run_faulted, tracer.span(
        "faults.run_faulted", inject.run_faulted,
        before=steps_before, after=steps_after))

    # Build boundaries (set-up).
    _replace_function(firmware.build_firmware, tracer.span(
        "api.build_firmware", firmware.build_firmware))
    _replace_function(minicc.compile_c, tracer.span(
        "minicc.compile_c", minicc.compile_c))
    IterativeBuild.build_eilid = tracer.span("eilid.build_eilid",
                                             IterativeBuild.build_eilid)
    BuildPipeline.build = tracer.span("toolchain.build", BuildPipeline.build)
    _replace_function(recover.recover_cfg, tracer.span(
        "cfg.recover", recover.recover_cfg))

    # Verifier control plane.
    VerifierDaemon.dispatch = tracer.async_span("serve.dispatch",
                                                VerifierDaemon.dispatch)
    AsyncFleetPump.attest = tracer.async_span(
        "serve.pump.attest", AsyncFleetPump.attest, adopt_workers=True)
    VerifierSession.attest = tracer.span("fleet.protocol.attest",
                                         VerifierSession.attest)
    VerifierSession.offer_update = tracer.span(
        "fleet.protocol.offer_update", VerifierSession.offer_update)
    # Both replay_trace and the protocol's trace check go through it.
    replay.TraceReplayer.replay = tracer.span("cfg.replay",
                                              replay.TraceReplayer.replay)
    FleetRegistry.flush = tracer.span("fleet.registry.flush",
                                      FleetRegistry.flush)
    Device.apply_update = tracer.span("device.apply_update",
                                      Device.apply_update)

    # Byte accounting sizes the document each call wrote, in the hook
    # that runs after the span closes.
    def saved_doc(state, args, kwargs):
        return args[1] if len(args) > 1 else kwargs["doc"]

    def record_bytes(state, doc, result):
        add(state, "fleet.store.bytes", _json_bytes(doc))

    JsonlStore.save_record = tracer.span("fleet.store.save_record",
                                         JsonlStore.save_record,
                                         before=saved_doc, after=record_bytes)
    JsonlStore.flush = tracer.span("fleet.store.flush", JsonlStore.flush)

    def event_bytes(state, token, doc):
        # JsonlEventLog appends one sorted-key JSON line per event.
        add(state, "obs.events.bytes", len(json.dumps(doc, sort_keys=True)) + 1)

    JsonlEventLog.emit = tracer.span("obs.events.emit", EventLog.emit,
                                     after=event_bytes)
    JsonlEventLog.flush = tracer.span("obs.events.flush", JsonlEventLog.flush)
