"""Live observability: bus fan-out, tails, alert rules, span trees,
exporters, and the fleet/CLI wiring over them.

The properties this file guards:

* every ``emit()`` fans out to bus subscribers exactly once, after the
  log's lock is released, with kind filters honoured and subscriber
  exceptions counted instead of raised;
* a second process can follow a durable log via a tail cursor: seq
  order, exactly-once delivery across polls and reopens, a torn JSONL
  tail buffered until complete;
* each built-in alert rule trips on the failure shape it names, fires
  once per (rule, campaign), windows on event timestamps (offline
  replay == live), and a disabled engine costs the emitter nothing;
* spans form parent/trace trees; a process-shard worker's snapshot
  merges into the parent with re-rooted lineage, and thread vs process
  campaign backends produce the same offer totals;
* the Prometheus/JSON exporters emit parseable text, and the spec
  layer validates alert configs before a fleet is ever built.
"""

import json
import os
import subprocess
import sys
import threading
import time

import pytest

from repro.obs import (
    METRICS,
    AlertEngine,
    EventBus,
    JsonlEventLog,
    MemoryEventLog,
    MetricsRegistry,
    ObsError,
    SqliteEventLog,
    build_rules,
    default_rules,
    open_event_log,
    open_event_tail,
    parse_prometheus,
    to_json_doc,
    to_prometheus,
    write_snapshot,
)
from repro.obs.alerts import (
    RULE_REGISTRY,
    QuarantineRateRule,
    ReplayBurstRule,
    ViolationSurgeRule,
    WaveStallRule,
)


def doc(kind, seq, ts, campaign="c1", device=None, **data):
    """A hand-built event document with controlled timestamps."""
    return {"seq": seq, "ts": ts, "kind": kind, "campaign": campaign,
            "device": device, "data": data}


# ---- the bus ----------------------------------------------------------------


class TestEventBus:
    def test_publish_fans_out_in_subscription_order(self):
        bus = EventBus()
        seen = []
        bus.subscribe(lambda d: seen.append(("a", d["seq"])))
        bus.subscribe(lambda d: seen.append(("b", d["seq"])))
        bus.publish(doc("offer", 1, 0.0))
        assert seen == [("a", 1), ("b", 1)]

    def test_kind_filter(self):
        bus = EventBus()
        seen = []
        bus.subscribe(seen.append, kinds=("quarantine",))
        bus.publish(doc("offer", 1, 0.0))
        bus.publish(doc("quarantine", 2, 0.0))
        assert [d["kind"] for d in seen] == ["quarantine"]

    def test_unsubscribe_stops_delivery(self):
        bus = EventBus()
        seen = []
        subscription = bus.subscribe(seen.append)
        bus.publish(doc("offer", 1, 0.0))
        bus.unsubscribe(subscription)
        bus.publish(doc("offer", 2, 0.0))
        assert len(seen) == 1 and len(bus) == 0

    def test_subscriber_exception_is_counted_not_raised(self):
        bus = EventBus()
        seen = []

        def boom(_):
            raise RuntimeError("bad subscriber")

        bus.subscribe(boom)
        bus.subscribe(seen.append)
        bus.publish(doc("offer", 1, 0.0))  # must not raise
        assert bus.errors == 1
        assert len(seen) == 1  # later subscribers still served

    def test_every_log_emit_publishes_to_its_bus(self, tmp_path):
        for log in (MemoryEventLog(),
                    JsonlEventLog(str(tmp_path / "bus.jsonl")),
                    SqliteEventLog(str(tmp_path / "bus.db"))):
            seen = []
            log.bus.subscribe(seen.append)
            log.emit("enroll", device="d1")
            campaign = log.start_campaign(target_version=1)
            assert [d["kind"] for d in seen] == ["enroll", "campaign-start"]
            assert seen[1]["campaign"] == campaign
            log.close()

    def test_subscriber_may_emit_followup_without_deadlock(self):
        log = MemoryEventLog()
        log.bus.subscribe(
            lambda d: log.emit("alert", campaign=d["campaign"], rule="x")
            if d["kind"] == "quarantine" else None)
        log.emit("quarantine", device="d1", campaign="c1", reason="bad-mac")
        kinds = [d["kind"] for d in log.events()]
        assert kinds == ["quarantine", "alert"]


# ---- tails ------------------------------------------------------------------


TAIL_SUFFIXES = ("jsonl", "db")


class TestEventTails:
    def test_memory_paths_cannot_be_tailed(self):
        with pytest.raises(ObsError):
            open_event_tail(None)
        with pytest.raises(ObsError):
            open_event_tail(":memory:")

    @pytest.mark.parametrize("suffix", TAIL_SUFFIXES)
    def test_exactly_once_across_polls(self, tmp_path, suffix):
        path = str(tmp_path / f"tail.{suffix}")
        log = open_event_log(path)
        tail = open_event_tail(path)
        assert tail.read() == []  # nothing durable yet
        log.emit("enroll", device="d1")
        log.flush()
        first = tail.read()
        assert [d["seq"] for d in first] == [1]
        assert tail.read() == []  # no duplicate delivery
        log.emit("enroll", device="d2")
        log.flush()
        assert [d["seq"] for d in tail.read()] == [2]
        tail.close()
        log.close()

    @pytest.mark.parametrize("suffix", TAIL_SUFFIXES)
    def test_resume_token_skips_delivered_events(self, tmp_path, suffix):
        path = str(tmp_path / f"resume.{suffix}")
        log = open_event_log(path)
        for n in range(5):
            log.emit("enroll", device=f"d{n}")
        log.flush()
        log.close()
        with open_event_tail(path) as tail:
            delivered = tail.read()
            token = tail.last_seq
        assert len(delivered) == 5 and token == 5
        # reopen mid-stream: nothing re-delivered, new events flow
        log = open_event_log(path)
        log.emit("enroll", device="d5")
        log.flush()
        with open_event_tail(path, since_seq=token) as tail:
            assert [d["seq"] for d in tail.read()] == [6]
        log.close()

    @pytest.mark.parametrize("suffix", TAIL_SUFFIXES)
    def test_missing_file_reads_empty_until_writer_creates_it(
            self, tmp_path, suffix):
        path = str(tmp_path / f"late.{suffix}")
        tail = open_event_tail(path)
        assert tail.read() == []
        log = open_event_log(path)
        log.emit("enroll", device="d1")
        log.flush()
        assert [d["device"] for d in tail.read()] == ["d1"]
        tail.close()
        log.close()

    def test_torn_jsonl_line_is_buffered_until_complete(self, tmp_path):
        path = str(tmp_path / "torn.jsonl")
        whole = json.dumps({"seq": 1, "ts": 0.0, "kind": "enroll",
                            "campaign": None, "device": "d1", "data": {}})
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(whole[:20])  # a write caught mid-syscall
            handle.flush()
            tail = open_event_tail(path)
            assert tail.read() == []  # half a line is not an event
            handle.write(whole[20:] + "\n")
            handle.flush()
        docs = tail.read()
        assert [d["seq"] for d in docs] == [1]  # delivered once, whole
        tail.close()

    def test_event_after_an_abandoned_torn_line_is_delivered(self, tmp_path):
        path = str(tmp_path / "killed.jsonl")
        log = open_event_log(path)
        log.emit("enroll", device="d1")
        log.close()
        with open(path, "a", encoding="utf-8") as handle:
            handle.write('{"seq": 2, "kind": "att')  # kill mid-append
        tail = open_event_tail(path)
        assert [d["seq"] for d in tail.read()] == [1]
        again = open_event_log(path)  # the restarted writer
        again.emit("attest", device="d1", ok=True)
        again.flush()
        assert [d["seq"] for d in tail.read()] == [2]
        tail.close()
        again.close()

    @pytest.mark.parametrize("suffix", TAIL_SUFFIXES)
    def test_concurrent_writer_seq_monotonic_no_gaps(self, tmp_path, suffix):
        """A reader thread polling while the writer appends sees every
        seq exactly once, in order."""
        path = str(tmp_path / f"race.{suffix}")
        log = open_event_log(path)
        total = 200
        seqs = []
        done = threading.Event()

        def reader():
            with open_event_tail(path) as tail:
                while len(seqs) < total:
                    seqs.extend(d["seq"] for d in tail.read())
                    if done.is_set() and not tail.read():
                        seqs.extend(d["seq"] for d in tail.read())
                        break
                    time.sleep(0.001)

        thread = threading.Thread(target=reader)
        thread.start()
        for n in range(total):
            log.emit("enroll", device=f"d{n}")
            if n % 7 == 0:
                log.flush()
        log.flush()
        done.set()
        thread.join(timeout=30)
        assert not thread.is_alive()
        assert seqs == list(range(1, total + 1))
        log.close()


# ---- alert rules ------------------------------------------------------------


class TestAlertRules:
    def test_quarantine_rate_trips_on_rate_not_count(self):
        rule = QuarantineRateRule(threshold=0.5, min_events=2)
        seq = 0
        for n in range(10):
            seq += 1
            assert rule.observe(doc("offer", seq, float(n))) is None
        # 2 quarantines / 12 offers = 0.16 < 0.5: quiet
        seq += 1
        assert rule.observe(doc("quarantine", seq, 10.0,
                                reason="rejected-bad-mac")) is None
        # prune: jump past the window so only recent events count
        seq += 1
        assert rule.observe(doc("offer", seq, 100.0)) is None
        seq += 1
        assert rule.observe(doc("quarantine", seq, 100.1, reason="x")) is None
        seq += 1
        context = rule.observe(doc("quarantine", seq, 100.2, reason="x"))
        assert context is not None
        assert context["quarantined"] == 2 and context["offered"] == 1
        assert "message" in context

    def test_wave_stall_uses_median_gap(self):
        rule = WaveStallRule(threshold=3.0, min_events=2)
        # three commits at a 1s cadence -> median gap 1s
        rule.observe(doc("wave-commit", 1, 10.0))
        rule.observe(doc("wave-commit", 2, 11.0))
        rule.observe(doc("wave-commit", 3, 12.0))
        # 2s after the last commit: under 3x the median, quiet
        assert rule.observe(doc("offer", 4, 14.0)) is None
        # 4s after: the campaign is alive but waves stopped landing
        context = rule.observe(doc("offer", 5, 16.0))
        assert context is not None and context["stalled_s"] == 4.0

    def test_wave_stall_ignores_ended_campaigns(self):
        rule = WaveStallRule(threshold=3.0, min_events=2)
        for seq, ts in ((1, 0.0), (2, 1.0), (3, 2.0)):
            rule.observe(doc("wave-commit", seq, ts))
        rule.observe(doc("campaign-end", 4, 2.5, status="complete"))
        assert rule.observe(doc("attest", 5, 500.0)) is None

    def test_violation_surge_sums_deltas_in_window(self):
        rule = ViolationSurgeRule(threshold=10)
        assert rule.observe(doc("violation-delta", 1, 0.0,
                                deltas={"cfi-return": 4})) is None
        context = rule.observe(doc("violation-delta", 2, 1.0,
                                   deltas={"cfi-return": 4, "stack": 2}))
        assert context is not None and context["violations"] == 10
        # outside the window the old deltas no longer count
        fresh = ViolationSurgeRule(threshold=10)
        fresh.observe(doc("violation-delta", 1, 0.0, deltas={"x": 9}))
        assert fresh.observe(doc("violation-delta", 2, 100.0,
                                 deltas={"x": 9})) is None

    def test_replay_burst_counts_only_forgery_reasons(self):
        rule = ReplayBurstRule(threshold=3)
        assert rule.observe(doc("quarantine", 1, 0.0, reason="replay")) is None
        # benign quarantine reasons never feed the burst
        assert rule.observe(doc("quarantine", 2, 0.1,
                                reason="hash-mismatch")) is None
        assert rule.observe(doc("quarantine", 3, 0.2,
                                reason="bad-ack-mac")) is None
        context = rule.observe(doc("quarantine", 4, 0.3, reason="bad-mac"))
        assert context is not None
        assert context["reasons"] == {"replay": 1, "bad-ack-mac": 1,
                                      "bad-mac": 1}

    def test_rule_constructor_validation(self):
        with pytest.raises(ValueError):
            QuarantineRateRule(window=0)
        with pytest.raises(ValueError):
            ReplayBurstRule(min_events=0)

    def test_build_rules_shapes(self):
        assert {r.name for r in default_rules()} == set(RULE_REGISTRY)
        assert {r.name for r in build_rules(None)} == set(RULE_REGISTRY)
        rules = build_rules({"quarantine-rate": 0.5,
                             "wave-stall": False,
                             "replay-burst": {"threshold": 5,
                                              "severity": "page"}})
        by_name = {r.name: r for r in rules}
        assert "wave-stall" not in by_name
        assert by_name["quarantine-rate"].threshold == 0.5
        assert by_name["replay-burst"].threshold == 5
        assert by_name["replay-burst"].severity == "page"
        # unnamed rules keep their defaults
        assert by_name["violation-surge"].threshold == 10


class TestAlertEngine:
    def burst(self, log, campaign, n=3):
        for i in range(n):
            log.emit("quarantine", device=f"d{i}", campaign=campaign,
                     reason="replay")

    def test_attached_engine_fires_and_logs_alert_event(self):
        log = MemoryEventLog()
        engine = AlertEngine(build_rules({"replay-burst": 3})).attach(log)
        campaign = log.start_campaign(target_version=1)
        self.burst(log, campaign)
        assert len(engine.fired) == 1
        record = engine.fired[0]
        assert record["rule"] == "replay-burst"
        assert record["severity"] == "critical"
        assert record["campaign"] == campaign
        alerts = log.events(kind="alert")
        assert len(alerts) == 1
        assert alerts[0]["data"]["message"] == record["message"]

    def test_fires_once_per_rule_per_campaign(self):
        log = MemoryEventLog()
        engine = AlertEngine(build_rules({"replay-burst": 2})).attach(log)
        first = log.start_campaign(target_version=1)
        self.burst(log, first, n=6)  # keeps crossing the threshold
        assert len(engine.fired) == 1  # latched
        second = log.start_campaign(target_version=2)
        self.burst(log, second, n=2)
        assert len(engine.fired) == 2  # a new campaign may fire again
        assert {r["campaign"] for r in engine.fired} == {first, second}

    def test_never_alerts_on_alerts(self):
        log = MemoryEventLog()
        AlertEngine(build_rules({"replay-burst": 1})).attach(log)
        log.emit("quarantine", device="d0", campaign="c1", reason="replay")
        # the alert event itself flowed through the bus back into the
        # engine; had it been evaluated, rules would see kind "alert"
        assert len(log.events(kind="alert")) == 1

    def test_disabled_engine_never_subscribes(self):
        log = MemoryEventLog()
        engine = AlertEngine(enabled=False).attach(log)
        assert len(log.bus) == 0
        self.burst(log, "c1", n=5)
        assert engine.fired == []

    def test_detach_unsubscribes(self):
        log = MemoryEventLog()
        engine = AlertEngine(build_rules({"replay-burst": 1})).attach(log)
        engine.detach()
        assert len(log.bus) == 0

    def test_offline_replay_fires_what_live_fired(self, tmp_path):
        """Rules window on event timestamps, so a stored log replays
        to the same alerts the live engine produced."""
        path = str(tmp_path / "replayable.jsonl")
        log = open_event_log(path)
        live = AlertEngine(build_rules({"replay-burst": 3})).attach(log)
        campaign = log.start_campaign(target_version=1)
        self.burst(log, campaign)
        log.flush()
        log.close()
        reopened = open_event_log(path)
        offline = AlertEngine(build_rules({"replay-burst": 3}))
        replayed = offline.replay(reopened)
        reopened.close()
        assert [(r["rule"], r["campaign"]) for r in replayed] == \
            [(r["rule"], r["campaign"]) for r in live.fired]
        # replay writes nothing back
        check = open_event_log(path)
        assert len(check.events(kind="alert")) == 1
        check.close()

    def test_campaign_rollup_folds_alerts(self):
        log = MemoryEventLog()
        AlertEngine(build_rules({"replay-burst": 2})).attach(log)
        campaign = log.start_campaign(target_version=1)
        self.burst(log, campaign)
        rollup = log.campaign_rollup()
        entry = next(e for e in rollup if e["campaign"] == campaign)
        assert entry["alerts"] == 1
        assert entry["alert_rules"] == {"replay-burst": 1}


# ---- empty / in-flight history queries (satellite b) ------------------------


class TestSparseHistory:
    @pytest.mark.parametrize("kind", ("memory", "jsonl", "sqlite"))
    def test_empty_log_answers_every_query(self, tmp_path, kind):
        if kind == "memory":
            log = MemoryEventLog()
        elif kind == "jsonl":
            log = JsonlEventLog(str(tmp_path / "empty.jsonl"))
        else:
            log = SqliteEventLog(str(tmp_path / "empty.db"))
        assert log.device_rollup() == {}
        assert log.campaign_rollup() == []
        trends = log.trends()
        assert trends["campaigns"] == []
        for series in ("applied", "failed", "devices_per_sec", "alerts"):
            assert trends[series] == []
        log.close()

    def test_single_inflight_campaign_trends_are_numeric(self):
        """A campaign with no campaign-end yet must not leak None into
        the numeric series (fleet history --trends mid-rollout)."""
        log = MemoryEventLog()
        campaign = log.start_campaign(target_version=1)
        log.emit("offer", device="d1", campaign=campaign, status="applied")
        trends = log.trends()
        assert trends["campaigns"] == [campaign]
        assert trends["devices_per_sec"] == [0.0]
        assert all(isinstance(v, (int, float))
                   for series in ("applied", "failed", "devices_per_sec")
                   for v in trends[series])


# ---- span trees -------------------------------------------------------------


class TestSpanTrees:
    def test_nesting_links_parent_and_trace(self):
        registry = MetricsRegistry()
        with registry.span("campaign.run") as run:
            with registry.span("campaign.wave") as wave:
                with registry.span("campaign.offer"):
                    pass
            assert wave.trace == run.trace == run.id
        spans = {s["name"]: s for s in registry.spans()}
        assert spans["campaign.offer"]["parent"] == spans["campaign.wave"]["id"]
        assert spans["campaign.wave"]["parent"] == spans["campaign.run"]["id"]
        assert spans["campaign.run"]["parent"] is None
        assert len({s["trace"] for s in spans.values()}) == 1

    def test_explicit_parent_escapes_thread_locality(self):
        """Pool threads pass the wave span explicitly -- their stacks
        are empty, the lineage must still connect."""
        registry = MetricsRegistry()
        with registry.span("campaign.wave") as wave:
            def pool_work():
                with registry.span("campaign.offer", parent=wave.id):
                    pass
            worker = threading.Thread(target=pool_work)
            worker.start()
            worker.join()
        offer = registry.spans(name="campaign.offer")[0]
        wave_doc = registry.spans(name="campaign.wave")[0]
        assert offer["parent"] == wave_doc["id"]
        assert offer["trace"] == wave_doc["trace"]

    def test_span_tree_forest_shape(self):
        registry = MetricsRegistry()
        with registry.span("a"):
            with registry.span("b"):
                pass
        with registry.span("c"):
            pass
        forest = registry.span_tree()
        assert [node["name"] for node in forest] == ["a", "c"]
        assert [child["name"] for child in forest[0]["children"]] == ["b"]

    def test_merge_reroots_worker_spans_and_folds_series(self):
        worker = MetricsRegistry()
        worker.inc("fleet.updates", 3)
        with worker.span("campaign.shard"):
            with worker.span("campaign.offer"):
                pass
        parent = MetricsRegistry()
        parent.inc("fleet.updates", 2)
        with parent.span("campaign.wave") as wave:
            parent.merge(worker.snapshot(), reroot_to=wave.id)
        assert parent.counter("fleet.updates") == 5
        shard = parent.spans(name="campaign.shard")[0]
        offer = parent.spans(name="campaign.offer")[0]
        wave_doc = parent.spans(name="campaign.wave")[0]
        # the worker's root now hangs off the wave that caused it
        assert shard["parent"] == wave_doc["id"]
        assert offer["parent"] == shard["id"]
        assert {shard["trace"], offer["trace"]} == {wave_doc["trace"]}
        # worker ids were re-allocated, not trusted
        assert shard["id"] != "s1"

    def test_merge_into_disabled_registry_is_a_noop(self):
        worker = MetricsRegistry()
        worker.inc("x", 1)
        parent = MetricsRegistry(enabled=False)
        parent.merge(worker.snapshot())
        assert parent.snapshot() == {"counters": {}, "gauges": {},
                                     "histograms": {}, "spans": []}

    def test_span_ring_bounded_with_drop_counter(self):
        registry = MetricsRegistry(span_capacity=4)
        for n in range(7):
            with registry.span(f"s{n}"):
                pass
        assert len(registry.spans()) == 4
        assert registry.counter("obs.spans_dropped") == 3
        # an evicted parent's children surface as roots, never vanish
        assert len(registry.span_tree()) == 4

    def test_histogram_merge_folds_extrema(self):
        a = MetricsRegistry()
        a.observe("lat", 1.0)
        a.observe("lat", 9.0)
        b = MetricsRegistry()
        b.observe("lat", 5.0)
        b.merge(a.snapshot())
        snap = b.histogram("lat")
        assert snap["count"] == 3
        assert snap["min"] == 1.0 and snap["max"] == 9.0


# ---- thread vs process backend parity (satellite a) -------------------------


class TestBackendMetricsParity:
    def run_campaign(self, backend):
        from repro.fleet import CampaignConfig, FleetSimulation

        METRICS.reset()
        fleet = FleetSimulation(size=24, seed=7)
        config = CampaignConfig(failure_threshold=0.9, backend=backend,
                                batch_size=4, workers=2)
        report = fleet.rollout(version=1, payload=bytes(16), config=config,
                               tamper_fraction=0.25)
        return report, METRICS.snapshot()

    def test_process_shard_metrics_merge_matches_thread_totals(self):
        thread_report, thread_snap = self.run_campaign("thread")
        process_report, process_snap = self.run_campaign("process")
        # same campaign outcome...
        assert (thread_report.applied, thread_report.failed) == \
            (process_report.applied, process_report.failed)
        # ...and the same number of offer spans landed in the parent
        # registry: the worker snapshots merged rather than vanishing
        # inside the pool processes.
        thread_offers = thread_snap["histograms"]["campaign.offer.ms"]
        process_offers = process_snap["histograms"]["campaign.offer.ms"]
        assert thread_offers["count"] == process_offers["count"] == 24
        METRICS.reset()

    def test_process_span_lineage_reroots_onto_waves(self):
        _, snap = self.run_campaign("process")
        spans = {s["id"]: s for s in snap["spans"]}
        shards = [s for s in snap["spans"] if s["name"] == "campaign.shard"]
        assert shards, "process backend must record shard spans"
        for shard in shards:
            parent = spans[shard["parent"]]
            assert parent["name"] == "campaign.wave"
            assert shard["trace"] == parent["trace"]
        offers = [s for s in snap["spans"] if s["name"] == "campaign.offer"]
        assert all(spans[o["parent"]]["name"] == "campaign.shard"
                   for o in offers)
        METRICS.reset()


# ---- exporters --------------------------------------------------------------


class TestExporters:
    def snapshot(self):
        registry = MetricsRegistry()
        registry.inc("fleet.updates", 4)
        registry.set_gauge("fleet.size", 100)
        registry.observe("campaign.offer.ms", 1.5)
        registry.observe("campaign.offer.ms", 2.5)
        return registry.snapshot()

    def test_prometheus_round_trips_through_the_linter(self):
        text = to_prometheus(self.snapshot())
        families = parse_prometheus(text)
        assert families["eilid_fleet_updates"] == [("", 4.0)]
        assert families["eilid_fleet_size"] == [("", 100.0)]
        assert families["eilid_campaign_offer_ms_count"] == [("", 2.0)]
        assert families["eilid_campaign_offer_ms_sum"] == [("", 4.0)]
        assert families["eilid_campaign_offer_ms_max"] == [("", 2.5)]

    def test_prometheus_output_is_line_clean(self):
        for line in to_prometheus(self.snapshot()).splitlines():
            assert line.startswith("# ") or " " in line
            assert "\t" not in line

    def test_parse_rejects_malformed_text(self):
        with pytest.raises(ObsError):
            parse_prometheus("eilid_x not-a-number\n")
        with pytest.raises(ObsError):
            parse_prometheus("just_a_name_no_value\n")

    def test_json_doc_envelope(self):
        doc_out = to_json_doc(self.snapshot(), source="c1/wave0")
        assert doc_out["schema"] == "metrics-snapshot"
        assert doc_out["version"] == 1
        assert doc_out["source"] == "c1/wave0"
        assert json.loads(json.dumps(doc_out)) == doc_out

    def test_write_snapshot_both_formats(self, tmp_path):
        json_path = str(tmp_path / "snap.json")
        prom_path = str(tmp_path / "snap.prom")
        write_snapshot(json_path, self.snapshot(), fmt="json", source="t")
        write_snapshot(prom_path, self.snapshot(), fmt="prom")
        with open(json_path, encoding="utf-8") as handle:
            assert json.load(handle)["schema"] == "metrics-snapshot"
        with open(prom_path, encoding="utf-8") as handle:
            assert "eilid_fleet_updates" in parse_prometheus(handle.read())

    def test_write_snapshot_rejects_unknown_format(self, tmp_path):
        with pytest.raises(ObsError):
            write_snapshot(str(tmp_path / "x"), self.snapshot(), fmt="xml")


# ---- spec validation --------------------------------------------------------


class TestSpecWiring:
    def make_spec(self, **fleet_kwargs):
        from repro.api import FleetSpec, ScenarioSpec

        return ScenarioSpec(name="fleet",
                            fleet=FleetSpec(size=4, **fleet_kwargs))

    def test_alerts_accepts_true_and_rule_maps(self):
        self.make_spec(alerts=True).validate()
        self.make_spec(alerts={"quarantine-rate": 0.5}).validate()
        self.make_spec(alerts={"wave-stall": False,
                               "replay-burst": {"threshold": 5,
                                                "window": 10}}).validate()

    @pytest.mark.parametrize("bad", [
        {"not-a-rule": 1},
        {"quarantine-rate": "high"},
        {"replay-burst": {"threshold": 5, "surprise": 1}},
        {"replay-burst": {"window": 0}},
        {"replay-burst": {"min_events": 0}},
        {"replay-burst": {"severity": ""}},
        "all",
    ])
    def test_alerts_rejects_bad_shapes(self, bad):
        from repro.api.spec import SpecError

        with pytest.raises(SpecError):
            self.make_spec(alerts=bad).validate()

    def test_spec_round_trips_alerts_and_metrics_dump(self):
        from repro.api import FleetSpec, RolloutSpec, ScenarioSpec

        spec = ScenarioSpec(
            name="fleet",
            fleet=FleetSpec(size=4, alerts={"quarantine-rate": 0.5},
                            rollout=RolloutSpec(
                                version=1, metrics_dump="/tmp/x.prom")))
        spec.validate()
        clone = ScenarioSpec.from_dict(spec.to_dict())
        assert clone.fleet.alerts == {"quarantine-rate": 0.5}
        assert clone.fleet.rollout.metrics_dump == "/tmp/x.prom"

    def test_session_surfaces_fired_alerts_in_results(self):
        from repro.api import FleetSpec, RolloutSpec, ScenarioSpec, Session

        spec = ScenarioSpec(
            name="fleet",
            fleet=FleetSpec(
                size=16, seed=3,
                alerts={"quarantine-rate": 0.05},
                rollout=RolloutSpec(version=1, tamper_fraction=0.5,
                                    wave_fractions=(1.0,),
                                    failure_threshold=0.95)))
        session = Session(spec)
        outcome = session.run()
        rollout = outcome.fleet.rollout
        assert rollout.alerts, "a 50% tamper rate must trip the alert"
        assert rollout.alerts[0]["rule"] == "quarantine-rate"
        # no engine configured -> alerts is None, not ()
        quiet = Session(ScenarioSpec(
            name="fleet",
            fleet=FleetSpec(size=4,
                            rollout=RolloutSpec(version=1)))).run()
        assert quiet.fleet.rollout.alerts is None


# ---- the CLI verbs ----------------------------------------------------------


class TestCliVerbs:
    def test_watch_streams_jsonl_and_stops_at_end(self, tmp_path, capsys):
        from repro.cli import main

        path = str(tmp_path / "events.db")
        assert main(["fleet", "rollout", "--devices", "8",
                     "--tamper-fraction", "0.5", "--waves", "1.0",
                     "--failure-threshold", "0.95",
                     "--alerts", "--events", path, "--json"]) == 0
        capsys.readouterr()
        code = main(["fleet", "watch", "--events", path, "--json"])
        lines = [json.loads(line)
                 for line in capsys.readouterr().out.splitlines()]
        seqs = [d["seq"] for d in lines]
        kinds = {d["kind"] for d in lines}
        assert seqs == sorted(seqs) and len(set(seqs)) == len(seqs)
        assert {"campaign-start", "offer", "wave-commit",
                "campaign-end", "alert"} <= kinds
        assert code == 2  # alerts streamed -> security exit

    def test_watch_since_resumes_without_duplicates(self, tmp_path, capsys):
        from repro.cli import main

        path = str(tmp_path / "events.db")
        main(["fleet", "rollout", "--devices", "4", "--events", path,
              "--json"])
        capsys.readouterr()
        main(["fleet", "watch", "--events", path, "--json"])
        first = [json.loads(line)
                 for line in capsys.readouterr().out.splitlines()]
        cut = first[len(first) // 2]["seq"]
        main(["fleet", "watch", "--events", path, "--json",
              "--since", str(cut)])
        rest = [json.loads(line)
                for line in capsys.readouterr().out.splitlines()]
        assert [d["seq"] for d in rest] == \
            [d["seq"] for d in first if d["seq"] > cut]

    def test_watch_usage_errors(self, tmp_path, capsys):
        from repro.cli import main

        assert main(["fleet", "watch"]) == 1
        assert main(["fleet", "watch", "--events",
                     str(tmp_path / "missing.db")]) == 1

    def test_alerts_lists_recorded_and_exits_2_on_critical(
            self, tmp_path, capsys):
        from repro.cli import main

        path = str(tmp_path / "events.db")
        main(["fleet", "rollout", "--devices", "8", "--waves", "1.0",
              "--tamper-fraction", "0.5", "--failure-threshold", "0.95",
              "--alerts", "--events", path, "--json"])
        capsys.readouterr()
        code = main(["fleet", "alerts", "--events", path, "--json"])
        doc_out = json.loads(capsys.readouterr().out)
        assert doc_out["schema"] == "eilid.cli.fleet-alerts"
        assert any(a["rule"] == "quarantine-rate" for a in doc_out["alerts"])
        assert code == 2

    def test_alerts_replay_finds_what_no_live_engine_recorded(
            self, tmp_path, capsys):
        from repro.cli import main

        path = str(tmp_path / "events.db")
        # rollout WITHOUT --alerts: nothing recorded...
        main(["fleet", "rollout", "--devices", "8", "--waves", "1.0",
              "--tamper-fraction", "0.5", "--failure-threshold", "0.95",
              "--events", path, "--json"])
        capsys.readouterr()
        main(["fleet", "alerts", "--events", path, "--json"])
        quiet = json.loads(capsys.readouterr().out)
        assert quiet["recorded"] == [] and quiet["alerts"] == []
        # ...but an offline replay of the same history finds the spike
        main(["fleet", "alerts", "--events", path, "--replay", "--json"])
        replayed = json.loads(capsys.readouterr().out)
        assert any(a["rule"] == "quarantine-rate"
                   for a in replayed["alerts"])

    def test_alert_threshold_flag_validation(self, capsys):
        from repro.cli import main

        assert main(["fleet", "rollout", "--devices", "2",
                     "--alert", "no-such-rule=1"]) == 1
        assert main(["fleet", "rollout", "--devices", "2",
                     "--alert", "replay-burst"]) == 1
        assert main(["fleet", "rollout", "--devices", "2",
                     "--alert", "replay-burst=lots"]) == 1

    def test_metrics_exports_live_and_from_dump(self, tmp_path, capsys):
        from repro.cli import main

        # live: run a small fleet, export prometheus text
        assert main(["fleet", "metrics", "--devices", "4"]) == 0
        families = parse_prometheus(capsys.readouterr().out)
        assert any(name.startswith("eilid_") for name in families)
        # from a rollout's --metrics-dump file
        dump = str(tmp_path / "dump.json")
        main(["fleet", "rollout", "--devices", "4",
              "--metrics-dump", dump, "--json"])
        capsys.readouterr()
        assert main(["fleet", "metrics", "--from", dump]) == 0
        families = parse_prometheus(capsys.readouterr().out)
        assert "eilid_campaign_offer_ms_count" in families
        assert main(["fleet", "metrics", "--from",
                     str(tmp_path / "nope.json")]) == 1

    def test_rollout_metrics_dump_writes_prom_by_suffix(
            self, tmp_path, capsys):
        from repro.cli import main

        dump = str(tmp_path / "dump.prom")
        main(["fleet", "rollout", "--devices", "4",
              "--metrics-dump", dump, "--json"])
        capsys.readouterr()
        with open(dump, encoding="utf-8") as handle:
            assert "eilid_campaign_offer_ms_count" in \
                parse_prometheus(handle.read())


# ---- acceptance: live watch of a concurrent process-backend rollout ---------


class TestLiveWatchAcceptance:
    def test_follow_streams_a_concurrent_rollout_with_alerts(self, tmp_path):
        """The ISSUE's acceptance shape, scaled to CI: a separate
        interpreter runs a tampered process-backend rollout while this
        process follows the event DB; the stream must arrive in seq
        order, include wave commits and the quarantine-rate alert, and
        terminate at campaign-end."""
        events = str(tmp_path / "events.db")
        store = str(tmp_path / "store.db")
        env = dict(os.environ, PYTHONPATH="src")
        writer = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "fleet", "rollout",
             "--devices", "150", "--backend", "process", "--workers", "2",
             "--batch-size", "16", "--tamper-fraction", "0.1",
             "--failure-threshold", "0.95", "--alerts",
             "--store", store, "--events", events, "--json"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            text=True, env=env, cwd=os.getcwd())
        docs = []
        deadline = time.monotonic() + 120
        try:
            with open_event_tail(events) as tail:
                while time.monotonic() < deadline:
                    docs.extend(tail.read())
                    if any(d["kind"] == "campaign-end" for d in docs):
                        break
                    time.sleep(0.05)
        finally:
            out, err = writer.communicate(timeout=120)
        assert writer.returncode == 0, err
        seqs = [d["seq"] for d in docs]
        assert seqs == sorted(seqs) and len(set(seqs)) == len(seqs)
        kinds = [d["kind"] for d in docs]
        assert "wave-commit" in kinds and "campaign-end" in kinds
        alerts = [d for d in docs if d["kind"] == "alert"]
        assert any(d["data"]["rule"] == "quarantine-rate" for d in alerts), \
            "the seeded tamper must trip the quarantine-rate alert live"
        # the alert fired mid-campaign, not as a post-mortem
        end_seq = next(d["seq"] for d in docs
                       if d["kind"] == "campaign-end")
        assert min(d["seq"] for d in alerts) < end_seq
        # and the writer's own envelope agrees with what we streamed
        envelope = json.loads(out)
        rollout = envelope["fleet"]["rollout"]
        assert rollout["alerts"], "rollout envelope must carry the alerts"
