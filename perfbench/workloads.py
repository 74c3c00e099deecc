"""The benchmark's three workloads, each with its gates and digest.

Every workload function takes the seed first and returns a
:class:`WorkloadResult`.  The seed is the only source of the inputs the
program receives; sizes are keyword arguments (the command line derives
them from ``--seconds``; the benchmark's own test passes small ones).

* :func:`table4_run` -- the seven Table IV apps from reset to DONE
  through ``repro.api.Session.run()``: the original image under ``none``
  and ``casu``, the EILID image under ``eilid``.  Interpreter-bound: no
  snapshot, protocol, store or HTTP work.
* :func:`fault_sweep` -- seeded light_sensor fault plans through
  ``Session.fault_sweep`` over none/casu/eilid: many short runs from a
  restored snapshot, with violations, resets and hang exits.
* :func:`control_plane` -- a trace-verifying fleet behind the HTTP
  daemon with a durable JSONL registry and event log, driven by one
  closed-loop client: attest requests, fleet-wide rollouts, a final
  attest round.

Each returns its gated throughput (``throughput``), the median set-up
time, the workload's own named metrics, a digest of every simulated
statistic, and the gate failures; see ``perfbench/README.md``.
"""

import functools
import gc
import hashlib
import json
import math
import os
import random
import statistics
import tempfile
import threading
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

SECURITY_RUNS = (("original", "none"), ("original", "casu"),
                 ("eilid", "eilid"))
FAULT_APP = "light_sensor"
FAULT_PROFILES = ("none", "casu", "eilid")
ATTEST_BATCH = 8
SEGMENTS = 40
WINDOW_S = 0.05  # one progress sample, and one turn on a CPU
# Cold set-ups sampled per run: before each fault sweep, and per
# control_plane run (a fleet set-up costs far more than a sweep's).
SETUPS_PER_SWEEP = 2
FLEET_SETUPS = 9
# control_plane: the pump's executor threads (the attest work is mostly
# GIL-bound, and one worker ran faster than two on a 2-core host), and
# the fleet-wide rollouts whose median rate is reported.
PUMP_WORKERS = 1
ROLLOUTS = 7


@dataclass
class WorkloadResult:
    """What one workload run measured, checked and digested."""

    workload: str
    attempted: int = 0
    failed: int = 0
    gate_failures: List[str] = field(default_factory=list)
    setup_samples: List[float] = field(default_factory=list)
    throughput: float = 0.0  # the gated end-to-end rate, per host second
    throughput_unit: str = ""  # what one unit of that rate is
    named: Dict[str, Tuple[float, str, str]] = field(default_factory=dict)
    digest_counts: dict = field(default_factory=dict)
    digest_sha256: str = ""
    notes: List[str] = field(default_factory=list)
    errors: List[str] = field(default_factory=list)
    wall_s: float = 0.0  # set-up plus timed phase

    @property
    def setup_s(self) -> float:
        return statistics.median(self.setup_samples)

    @property
    def correct(self) -> bool:
        return not self.gate_failures

    def gate(self, condition, message):
        if not condition:
            self.gate_failures.append(message)

    def name(self, metric, value, unit, better):
        self.named[metric] = (value, unit, better)

    def digest(self, full, counts):
        """Hash every simulated statistic; keep the raw counts beside it."""
        text = json.dumps(full, sort_keys=True, separators=(",", ":"))
        self.digest_sha256 = hashlib.sha256(text.encode()).hexdigest()
        self.digest_counts = counts


def clear_build_caches():
    """Drop the process-wide build caches so the next build is cold."""
    import repro.api.firmware as firmware

    firmware.build_firmware.cache_clear()
    firmware._builder.cache_clear()


def _cold_setup(result, setup_once):
    """Run *setup_once* with cold build caches and record its duration.

    Workloads take their set-up samples at several points of a run, not
    back to back: the shared host's speed drifts over seconds, and the
    median of samples spread over the run follows it less.
    """
    clear_build_caches()
    gc.collect()  # start each sample without the last one's garbage
    started = time.perf_counter()
    value = setup_once()
    result.setup_samples.append(time.perf_counter() - started)
    return value


def pin_process(cpus):
    """Set the CPU affinity of every thread of this process to *cpus*."""
    for tid in os.listdir("/proc/self/task"):
        try:
            os.sched_setaffinity(int(tid), cpus)
        except OSError:  # the thread has ended meanwhile
            pass


class WindowSampler:
    """Reads a progress counter every ``WINDOW_S`` seconds, on a side thread.

    Each window is ``(counted, seconds, cpu)``.  The sampler reads the
    counter and the clock together while it holds the interpreter lock,
    so the measured thread is paused at a bytecode boundary and each pair
    is consistent; the measured code runs unchanged.

    Each window also moves the whole process to the next of its CPUs, so
    a run spends equal time on each.  The virtual CPUs of a shared host
    can run at different speeds for minutes at a time, and a run left on
    one of them measures that CPU.
    """

    def __init__(self, read):
        self._read = read
        self._cpus = sorted(os.sched_getaffinity(0))
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._loop, daemon=True)
        self.windows: List[Tuple[int, float, int]] = []

    def __enter__(self):
        pin_process({self._cpus[0]})
        self._last = (self._read(), time.perf_counter())
        self._thread.start()
        return self

    def __exit__(self, *exc):
        self._stop.set()
        self._thread.join()
        self._sample()  # the last, partial window
        pin_process(set(self._cpus))

    def _loop(self):
        while not self._stop.wait(WINDOW_S):
            self._sample()

    def _sample(self):
        count, now = self._read(), time.perf_counter()
        last_count, last_now = self._last
        cpu = self._cpus[len(self.windows) % len(self._cpus)]
        self.windows.append((count - last_count, now - last_now, cpu))
        self._last = (count, now)
        pin_process({self._cpus[len(self.windows) % len(self._cpus)]})


class RunProgress:
    """Counts the simulated cycles of every ``Device.run`` call, live.

    While active it wraps ``Device.run`` with two dictionary updates per
    call, so a :class:`WindowSampler` can follow work that runs on the
    program's own worker threads.  The cycles are read from the counter
    the run loop already keeps.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self._done = 0
        self._live: Dict[object, tuple] = {}

    def __enter__(self):
        from repro.device import Device

        original = self._original = Device.run
        progress = self

        @functools.wraps(original)
        def run(device, *args, **kwargs):
            key = object()
            with progress._lock:
                progress._live[key] = (device, device.cycle)
            try:
                return original(device, *args, **kwargs)
            finally:
                with progress._lock:
                    _, start = progress._live.pop(key)
                    progress._done += device.cycle - start

        Device.run = run
        return self

    def __exit__(self, *exc):
        from repro.device import Device

        Device.run = self._original

    def cycles(self):
        with self._lock:
            return self._done + sum(device.cycle - start
                                    for device, start in self._live.values())


def median_rate_seconds(windows):
    """Host seconds the windows' work takes at their median rate.

    A window the shared host slowed down has a low rate, and the median
    of many windows moves less with such windows than their sum does.
    Windows are ``(counted, seconds, cpu)`` and the median is taken per
    CPU, because two CPUs that run at different speeds give a two-humped
    set of rates whose overall median jumps between the humps.  Windows
    under a millisecond carry too few counts to rate.
    """
    by_cpu: Dict[int, List[Tuple[int, float]]] = {}
    for counted, seconds, cpu in windows:
        by_cpu.setdefault(cpu, []).append((counted, seconds))
    total = 0.0
    for group in by_cpu.values():
        counted = sum(count for count, _ in group)
        rates = [count / seconds for count, seconds in group
                 if seconds >= 1e-3]
        if len(rates) < 3 or counted == 0:
            total += sum(seconds for _, seconds in group)
        else:
            total += counted / statistics.median(rates)
    return total


# ---- table4_run -------------------------------------------------------------


def table4_run(seed: int, apps: Optional[Sequence[str]] = None
               ) -> WorkloadResult:
    """All Table IV apps under none/casu (original) and eilid (EILID).

    The seed shuffles the run order; the apps' stimuli are fixed by the
    app registry, so every simulated statistic is seed-independent.
    One cold set-up (all images rebuilt) precedes each app.
    """
    from repro.api import FirmwareSpec, LimitsSpec, ScenarioSpec, Session
    from repro.api.firmware import build_firmware
    from repro.apps.registry import APPS, TABLE_IV_ORDER
    from repro.errors import ReproError
    from repro.eval.paper_data import PAPER_AVG_RUN_OVERHEAD_PCT, PAPER_TABLE4

    result = WorkloadResult("table4_run",
                            throughput_unit="simulated cycles")
    apps = list(apps or TABLE_IV_ORDER)
    started = time.perf_counter()

    def build_all():
        for app in apps:
            for variant in ("original", "eilid"):
                build_firmware(FirmwareSpec(kind="app", app=app,
                                            variant=variant))

    order = list(apps)
    random.Random(seed).shuffle(order)
    runs: Dict[str, Dict[str, dict]] = {app: {} for app in apps}
    host = {security: 0.0 for _, security in SECURITY_RUNS}
    steps = {security: 0 for _, security in SECURITY_RUNS}
    cycles = 0
    for app in order:
        _cold_setup(result, build_all)
        for variant, security in SECURITY_RUNS:
            result.attempted += 1
            session = Session(ScenarioSpec(
                name=app,
                firmware=FirmwareSpec(kind="app", app=app, variant=variant),
                security=security,
                limits=LimitsSpec(max_cycles=APPS[app].max_cycles)))
            device = session.device
            try:
                with WindowSampler(lambda: device.cycle) as sampler:
                    outcome = session.run()
            except ReproError as error:
                result.failed += 1
                result.errors.append(f"{app}/{security}: {error!r}")
                continue
            host[security] += median_rate_seconds(sampler.windows)
            steps[security] += outcome.steps
            cycles += outcome.cycles
            runs[app][security] = {
                "steps": outcome.steps, "cycles": outcome.cycles,
                "instructions": outcome.instructions,
                "done": outcome.done, "done_value": outcome.done_value,
                "violations": list(outcome.violations),
                "outputs": [list(event)
                            for event in session.device.output_events()]}
    result.wall_s = time.perf_counter() - started

    overheads = {}
    for app in apps:
        app_runs = runs[app]
        for security, run in app_runs.items():
            result.gate(run["done"] and not run["violations"],
                        f"{app}/{security}: done={run['done']} "
                        f"violations={run['violations']}")
        # A run that raised never reached DONE, and its app cannot be
        # checked for functional equivalence.
        result.gate(len(app_runs) == len(SECURITY_RUNS),
                    f"{app}: {len(SECURITY_RUNS) - len(app_runs)} of "
                    f"{len(SECURITY_RUNS)} runs did not complete")
        if len(app_runs) != len(SECURITY_RUNS):
            continue
        reference = app_runs["none"]
        for security in ("casu", "eilid"):
            run = app_runs[security]
            result.gate(run["done_value"] == reference["done_value"],
                        f"{app}/{security}: DONE value {run['done_value']} "
                        f"!= original {reference['done_value']}")
            result.gate(run["outputs"] == reference["outputs"],
                        f"{app}/{security}: output events differ from "
                        f"the original's")
        overheads[app] = (100.0 * (app_runs["eilid"]["cycles"]
                                   - reference["cycles"])
                          / reference["cycles"])

    host_total = sum(host.values())
    result.throughput = cycles / host_total if host_total else 0.0
    for _, security in SECURITY_RUNS:
        rate = steps[security] / host[security] if host[security] else 0.0
        result.name(f"steps_per_s.{security}", rate, "1/s", "higher")
    mean_overhead = (statistics.mean(overheads.values())
                     if overheads else 0.0)
    result.name("sim_overhead_pct", mean_overhead, "%", "lower")

    result.notes.append(
        "accuracy: simulated EILID run-time overhead vs paper Table IV "
        "(cycles at the paper's clock; host-time numbers have no "
        "hardware reference in this repository)")
    for app in apps:
        if app in overheads:
            paper = PAPER_TABLE4[app].run_overhead_pct
            result.notes.append(
                f"  {app:<18} sim {overheads[app]:6.2f} %  paper "
                f"{paper:6.2f} %  abs error {abs(overheads[app] - paper):5.2f}")
    result.notes.append(
        f"  {'average':<18} sim {mean_overhead:6.2f} %  paper "
        f"{PAPER_AVG_RUN_OVERHEAD_PCT:6.2f} %  abs error "
        f"{abs(mean_overhead - PAPER_AVG_RUN_OVERHEAD_PCT):5.2f}")

    result.digest(runs, {
        app: {security: {key: run[key] for key in
                         ("steps", "cycles", "instructions", "done_value")}
              | {"outputs": len(run["outputs"])}
              for security, run in app_runs.items()}
        for app, app_runs in runs.items()})
    return result


# ---- fault_sweep ------------------------------------------------------------


def fault_sweep(seed: int, sweeps: int = 4, per_sweep: int = 8,
                workers: int = 1) -> WorkloadResult:
    """Seeded light_sensor fault plans, *per_sweep* faults per sweep.

    Each sweep is one operation.  A sweep the simulator aborts with a
    ``ReproError`` counts as failed and its faults are not graded; the
    gates cover the sweeps that completed.
    """
    from repro.api import FirmwareSpec, ScenarioSpec, Session
    from repro.api.firmware import build_firmware
    from repro.api.spec import FaultSpec
    from repro.cfg import recover_cfg
    from repro.errors import ReproError
    from repro.faults import enumerate_sites

    result = WorkloadResult("fault_sweep", throughput_unit="simulated cycles")
    firmware = FirmwareSpec(kind="app", app=FAULT_APP, variant="original")
    started = time.perf_counter()

    def prepare():
        program = build_firmware(firmware).program
        enumerate_sites(recover_cfg(program, name=FAULT_APP))

    session = Session(ScenarioSpec(name=FAULT_APP, firmware=firmware))
    rng = random.Random(seed)
    plan_seeds = [rng.randrange(2 ** 31) for _ in range(sweeps)]
    elapsed = 0.0
    cycles = graded = 0
    windows = []  # (simulated cycles, seconds, cpu) over every sweep
    tallies = {profile: {"total": 0, "detected": 0, "escape": 0, "crash": 0,
                         "silent": 0} for profile in FAULT_PROFILES}
    outcomes = []
    for plan_seed in plan_seeds:
        for _ in range(SETUPS_PER_SWEEP):
            _cold_setup(result, prepare)
        result.attempted += 1
        t0 = time.perf_counter()
        try:
            with RunProgress() as progress, \
                    WindowSampler(progress.cycles) as sampler:
                report = session.fault_sweep(FaultSpec(
                    seed=plan_seed, count=per_sweep, profiles=FAULT_PROFILES,
                    backend="thread", workers=workers))
        except ReproError as error:
            result.failed += 1
            result.errors.append(f"plan seed {plan_seed}: {error!r}")
            continue
        elapsed += time.perf_counter() - t0
        windows += sampler.windows
        sweep_cycles = 0
        detected = {}
        for tally in report.tallies:
            profile = tally.profile
            result.gate(tally.total == per_sweep,
                        f"plan {plan_seed}/{profile}: graded {tally.total} "
                        f"of {per_sweep} faults")
            result.gate(tally.detected + tally.escape + tally.crash
                        + tally.silent == tally.total,
                        f"plan {plan_seed}/{profile}: tallies do not sum")
            for key, value in (("total", tally.total),
                               ("detected", tally.detected),
                               ("escape", tally.escape),
                               ("crash", tally.crash),
                               ("silent", tally.silent)):
                tallies[profile][key] += value
            graded += tally.total
            sweep_cycles += tally.golden_cycles
            for doc in report.outcomes[profile]:
                sweep_cycles += doc["cycles"]
                detected.setdefault(doc["id"], {})[profile] = \
                    doc["outcome"] == "detected"
        for fault_id, by_profile in sorted(detected.items()):
            order = [by_profile.get(profile, False)
                     for profile in FAULT_PROFILES]
            result.gate(order == sorted(order),
                        f"plan {plan_seed} fault {fault_id}: detection "
                        f"order none<=casu<=eilid broken ({order})")
        cycles += sweep_cycles
        outcomes.append({"plan_seed": plan_seed,
                         "outcomes": report.outcomes})
    result.wall_s = time.perf_counter() - started

    # The median rate of the 50 ms windows of every sweep, per CPU: a
    # whole sweep's rate follows the shared host's speed over seconds.
    counted = sum(window[0] for window in windows)
    result.throughput = (counted / median_rate_seconds(windows)
                         if counted else 0.0)
    result.name("faults_per_s", graded / elapsed if elapsed else 0.0,
                "1/s", "higher")
    eilid = tallies["eilid"]
    result.name("detect_rate.eilid",
                eilid["detected"] / eilid["total"] if eilid["total"] else 0.0,
                "ratio", "higher")
    result.digest(outcomes, {"plan_seeds": plan_seeds, "tallies": tallies,
                             "simulated_cycles": cycles})
    return result


# ---- control_plane ----------------------------------------------------------


def _percentile(sorted_values, pct):
    """Nearest-rank percentile of an ascending list."""
    index = max(0, math.ceil(pct / 100.0 * len(sorted_values)) - 1)
    return sorted_values[index]


def control_plane(seed: int, work_root: str, devices: int = 200,
                  requests: int = 3000) -> WorkloadResult:
    """Closed-loop attest traffic, fleet-wide rollouts, a final attest round.

    The registry store and event log are JSONL files under *work_root*.
    Every thread of the run shares one CPU at a time: the work is
    GIL-bound, and each request hands off between the client, event-loop
    and pump threads.  On one CPU a hand-off is a thread switch; across
    CPUs it wakes an idle one, with a latency the virtual machine's host
    decides and that varied run to run by tens of percent.  The attest
    segments take the CPUs in turn, so each CPU gets an equal share.
    """
    cpus = sorted(os.sched_getaffinity(0))
    pin_process({cpus[0]})  # inherited by threads started now
    try:
        result = _control_plane(seed, work_root, devices, requests, cpus)
    finally:
        pin_process(set(cpus))
    result.notes.append(f"all threads on one CPU at a time, of {cpus}")
    return result


def _control_plane(seed, work_root, devices, requests, cpus):
    from repro.fleet.simulation import FleetSimulation
    from repro.serve.client import FleetClient, ServeError, collect
    from repro.serve.daemon import DaemonThread

    result = WorkloadResult("control_plane",
                            throughput_unit="device attestations")
    started = time.perf_counter()

    def start_fleet():
        directory = tempfile.mkdtemp(dir=work_root)
        # As the ``serve run`` verb does: no collector passes while the
        # fleet is built, then freeze it so steady-state collections
        # skip it.
        gc.disable()
        try:
            fleet = FleetSimulation(
                size=devices, security="eilid", verify_traces=True,
                seed=seed, store=os.path.join(directory, "registry.jsonl"),
                events=os.path.join(directory, "events.jsonl"))
            fleet.policy  # CFG recovery for trace verification, at set-up
        finally:
            gc.freeze()
            gc.enable()
        daemon = DaemonThread(fleet, max_workers=PUMP_WORKERS)
        FleetClient(daemon.url).wait_ready()
        return fleet, daemon

    def close(fleet, daemon):
        daemon.stop()
        fleet.registry.store.close()
        fleet.events.close()
        gc.unfreeze()  # let the next set-up's collection free this fleet

    # Two set-ups before the timed phase (the last one serves it) and
    # the rest after it, one fleet alive at a time.
    before = 2
    serving = None
    try:
        for _ in range(before):
            if serving is not None:
                close(*serving)
                serving = None
            serving = _cold_setup(result, start_fleet)
        fleet, daemon = serving
        client = FleetClient(daemon.url)
        ids = fleet.registry.ids()
        rng = random.Random(seed)

        def attest(batch, latencies=None):
            result.attempted += 1
            t0 = time.perf_counter()
            try:
                doc = client.attest(batch)
            except ServeError as error:
                result.failed += 1
                result.errors.append(f"attest: {error}")
                result.gate(False, f"attest {batch[0]}..: {error}")
                return
            if latencies is not None:
                latencies.append(time.perf_counter() - t0)
            result.gate(doc.get("ok") and doc.get("attested") == len(batch),
                        f"attest {batch[0]}..: ok={doc.get('ok')} "
                        f"attested={doc.get('attested')}")

        # The attest phase is timed in equal segments, each with every
        # thread on the next CPU in turn, and the rate is their median
        # per CPU, so a stall of the shared host moves one segment rather
        # than the whole figure.
        latencies: List[float] = []
        segments = []  # (attestations, seconds, cpu)
        per_segment = max(1, requests // SEGMENTS)
        for index, first in enumerate(range(0, requests, per_segment)):
            cpu = cpus[index % len(cpus)]
            pin_process({cpu})
            answered = len(latencies)
            t0 = time.perf_counter()
            for _ in range(min(per_segment, requests - first)):
                attest(rng.sample(ids, ATTEST_BATCH), latencies)
            segments.append((ATTEST_BATCH * (len(latencies) - answered),
                             time.perf_counter() - t0, cpu))
        pin_process({cpus[0]})

        # One rollout of a small fleet lasts a fraction of a second, so
        # the reported rate is the median of several, each to the next
        # version.
        rollout_rates = []
        for _ in range(ROLLOUTS):
            target = 1 + max(record.firmware_version
                             for record in fleet.registry)
            result.attempted += 1
            report = None
            try:
                campaign = client.rollout(
                    target, workers=PUMP_WORKERS)["campaign"]
                collect(client.campaign_events(campaign))
                report = client.wait_campaign(campaign).get("report")
            except ServeError as error:
                result.failed += 1
                result.errors.append(f"rollout to {target}: {error}")
            result.gate(report is not None and report["applied"] == devices,
                        f"rollout to {target} applied "
                        f"{report and report['applied']} of {devices} devices")
            if report is not None and report["elapsed_s"]:
                rollout_rates.append(report["applied"] / report["elapsed_s"])
        for index in range(0, len(ids), ATTEST_BATCH):
            attest(ids[index:index + ATTEST_BATCH])
        close(*serving)
        serving = None
        records = {record.device_id: [record.firmware_version,
                                      record.nonce_high_water]
                   for record in fleet.registry}
        fleet = daemon = client = None  # free it before the next set-ups
        for _ in range(FLEET_SETUPS - before):
            serving = _cold_setup(result, start_fleet)
            close(*serving)
            serving = None
    finally:
        if serving is not None:
            close(*serving)
    result.wall_s = time.perf_counter() - started

    stale = sum(1 for version, _ in records.values() if version != target)
    result.gate(stale == 0, f"{stale} records not at version {target}")

    attested = sum(count for count, _, _ in segments)
    result.throughput = attested / median_rate_seconds(segments)
    latencies.sort()
    if latencies:
        result.name("attest_p50_ms", 1000.0 * _percentile(latencies, 50),
                    "ms", "lower")
        result.name("attest_p99_ms", 1000.0 * _percentile(latencies, 99),
                    "ms", "lower")
    result.notes.append(
        f"attest latency samples: {len(latencies)} "
        f"({len(latencies) - int(0.99 * len(latencies))} beyond p99)")
    result.name("attests_per_s", result.throughput, "1/s", "higher")
    if rollout_rates:
        result.name("rollout_devices_per_s",
                    statistics.median(rollout_rates), "1/s", "higher")
    nonces = [nonce for _, nonce in records.values()]
    result.digest(records, {
        "devices": len(records),
        "versions": {str(version): sum(1 for v, _ in records.values()
                                       if v == version)
                     for version in sorted({v for v, _ in records.values()})},
        "nonce_high_water_sum": sum(nonces),
        "nonce_high_water_max": max(nonces) if nonces else 0})
    return result
