"""CFG-driven fault-injection campaigns (:mod:`repro.faults`).

Covers the acceptance contract end to end: site enumeration from a
Table IV application's recovered CFG yields a deep pool (>= 200
sites), seeded plan expansion is deterministic, thread and process
backends produce identical tallies for the same seed, and the
detection ordering eilid >= casu >= none holds because the monitor
sets nest.  Also pins the wire-format versioning shared with the
fleet's record codec and the fault-sweep surfaces in repro.api and
the CLI.
"""

import json

import pytest

from repro.api import FaultSpec, FirmwareSpec, ScenarioSpec, Session, SpecError
from repro.api.firmware import build_firmware
from repro.cfg import recover_cfg
from repro.faults import (
    FAULT_KINDS,
    FAULT_PROFILES,
    FaultCampaign,
    FaultPlan,
    OUTCOMES,
    enumerate_sites,
    expand_plan,
)
from repro.fleet.registry import DeviceRecord, FleetError
from repro.casu.update import UpdateKey
from repro.fleet.store import record_from_dict, record_to_dict
from repro.obs.events import EVENT_KINDS, open_event_log
from repro.snapshot import WIRE_VERSION

APP = "light_sensor"  # smallest Table IV app: fastest golden runs
SEED = 7


@pytest.fixture(scope="module")
def light_sensor_sites():
    spec = FirmwareSpec(kind="app", app=APP, variant="original")
    build = build_firmware(spec)
    cfg = recover_cfg(build.program, name=APP)
    return spec, enumerate_sites(cfg)


# ---- site enumeration --------------------------------------------------------


def test_site_pool_is_deep_enough(light_sensor_sites):
    """Acceptance: a Table IV app CFG yields >= 200 injectable sites."""
    _, sites = light_sensor_sites
    assert len(sites) >= 200
    kinds = {site.kind for site in sites}
    assert kinds == set(FAULT_KINDS)


def test_enumeration_is_deterministic(light_sensor_sites):
    spec, sites = light_sensor_sites
    cfg = recover_cfg(build_firmware(spec).program, name=APP)
    assert enumerate_sites(cfg) == sites


def test_kind_filter_and_unknown_kind(light_sensor_sites):
    spec, sites = light_sensor_sites
    cfg = recover_cfg(build_firmware(spec).program, name=APP)
    flips = enumerate_sites(cfg, kinds=("imem-flip",))
    assert flips and all(site.kind == "imem-flip" for site in flips)
    assert flips == [site for site in sites if site.kind == "imem-flip"]
    with pytest.raises(ValueError, match="bogus"):
        enumerate_sites(cfg, kinds=("bogus",))


# ---- plan expansion ----------------------------------------------------------


def test_plan_expansion_is_seed_deterministic(light_sensor_sites):
    _, sites = light_sensor_sites
    plan_a = expand_plan(sites, seed=SEED, count=40, name=APP)
    plan_b = expand_plan(sites, seed=SEED, count=40, name=APP)
    assert plan_a == plan_b
    assert len(plan_a) == 40
    assert expand_plan(sites, seed=SEED + 1, count=40).faults != plan_a.faults


def test_plan_covers_the_full_pool_by_default(light_sensor_sites):
    _, sites = light_sensor_sites
    plan = expand_plan(sites, seed=0, name=APP)
    assert len(plan) == len(sites) >= 200
    # Every fault is fully parameterised: the plan alone reproduces
    # the sweep, no RNG state travels to the workers.
    for fault in plan.faults:
        assert fault["kind"] in FAULT_KINDS
        assert isinstance(fault["pc"], int)


def test_plan_wire_round_trip(light_sensor_sites):
    _, sites = light_sensor_sites
    plan = expand_plan(sites, seed=3, count=8, name=APP)
    doc = json.loads(json.dumps(plan.to_dict()))
    assert doc["codec"] == WIRE_VERSION
    assert FaultPlan.from_dict(doc) == plan
    doc["codec"] = 999
    with pytest.raises(Exception, match="codec"):
        FaultPlan.from_dict(doc)


# ---- the sweep (acceptance) --------------------------------------------------


@pytest.fixture(scope="module")
def sweep_reports(light_sensor_sites):
    """One seeded plan swept on both backends, all three profiles."""
    spec, sites = light_sensor_sites
    plan = expand_plan(sites, seed=SEED, count=12, name=APP)
    reports = {}
    for backend in ("thread", "process"):
        campaign = FaultCampaign(spec, plan, backend=backend, workers=2)
        reports[backend] = campaign.run()
    return reports


def test_backends_tally_identically(sweep_reports):
    """Acceptance: process and thread sweeps of the same seed agree
    outcome-for-outcome, not just in aggregate."""
    thread, process = sweep_reports["thread"], sweep_reports["process"]
    assert [t.to_dict() for t in thread.tallies] == \
           [t.to_dict() for t in process.tallies]
    assert thread.outcomes == process.outcomes


def test_detection_ordering_nests_with_monitor_sets(sweep_reports):
    """Acceptance: eilid >= casu >= none detections (same image, and
    eilid's monitor set is a strict superset of casu's)."""
    report = sweep_reports["thread"]
    none, casu, eilid = (report.tally(p) for p in ("none", "casu", "eilid"))
    assert none.detected == 0
    assert eilid.detected >= casu.detected >= none.detected
    assert casu.detected > 0  # the seeded plan actually trips monitors


def test_every_fault_graded_once(sweep_reports):
    report = sweep_reports["thread"]
    for profile in FAULT_PROFILES:
        outcomes = report.outcomes[profile]
        assert len(outcomes) == report.faults == 12
        assert [doc["id"] for doc in outcomes] == sorted(
            doc["id"] for doc in outcomes)
        assert all(doc["outcome"] in OUTCOMES for doc in outcomes)
        assert report.tally(profile).total == 12


def test_report_renders_paper_style_table(sweep_reports):
    text = sweep_reports["thread"].render()
    assert "Fault sweep: light_sensor" in text
    for profile in FAULT_PROFILES:
        assert profile in text
    doc = json.loads(json.dumps(sweep_reports["thread"].to_dict()))
    assert doc["faults"] == 12 and len(doc["profiles"]) == 3


def test_campaign_emits_events(light_sensor_sites):
    spec, sites = light_sensor_sites
    assert "fault-inject" in EVENT_KINDS and "fault-outcome" in EVENT_KINDS
    plan = expand_plan(sites, seed=1, count=2, name=APP)
    log = open_event_log(None)
    FaultCampaign(spec, plan, profiles=("none",), events=log).run()
    assert len(log.events(kind="fault-inject")) == 2
    outcomes = log.events(kind="fault-outcome")
    assert len(outcomes) == 2
    assert all(doc["data"]["outcome"] in OUTCOMES for doc in outcomes)
    assert len(log.events(kind="campaign-end")) == 1


def test_unknown_profile_and_backend_rejected(light_sensor_sites):
    spec, sites = light_sensor_sites
    plan = expand_plan(sites, seed=0, count=1)
    with pytest.raises(ValueError, match="profile"):
        FaultCampaign(spec, plan, profiles=("none", "super"))
    with pytest.raises(ValueError, match="backend"):
        FaultCampaign(spec, plan, backend="fork")


# ---- shared wire-format versioning (fleet record codec) ----------------------


class TestRecordCodecVersioning:
    def _record(self):
        return DeviceRecord("d", UpdateKey.derive("d"), "TI MSP430", "casu")

    def test_records_carry_the_shared_codec_version(self):
        doc = record_to_dict(self._record())
        assert doc["codec"] == WIRE_VERSION

    def test_mismatched_codec_is_a_clear_fleet_error(self):
        doc = record_to_dict(self._record())
        doc["codec"] = 999
        with pytest.raises(FleetError, match="codec version 999"):
            record_from_dict(doc)
        # The message names both sides, not a bare KeyError.
        with pytest.raises(FleetError, match="parent and worker"):
            record_from_dict(doc)

    def test_legacy_records_without_codec_still_load(self):
        doc = record_to_dict(self._record())
        del doc["codec"]
        assert record_from_dict(doc) == self._record()


# ---- the api surface ---------------------------------------------------------


class TestFaultSpec:
    def test_defaults_validate_and_round_trip(self):
        spec = FaultSpec()
        spec.validate()
        assert FaultSpec.from_dict(spec.to_dict()) == spec

    @pytest.mark.parametrize("kwargs,field", [
        ({"kinds": ("bogus",)}, "kinds"),
        ({"profiles": ("none", "super")}, "profiles"),
        ({"backend": "fork"}, "backend"),
        ({"workers": 0}, "workers"),
        ({"count": -1}, "count"),
        ({"seed": "x"}, "seed"),
    ])
    def test_bad_fields_raise_spec_error(self, kwargs, field):
        with pytest.raises(SpecError) as err:
            FaultSpec(**kwargs).validate()
        assert field in str(err.value)

    def test_unknown_key_rejected(self):
        with pytest.raises(SpecError):
            FaultSpec.from_dict({"seeds": 1})


def test_session_fault_sweep(light_sensor_sites):
    spec = ScenarioSpec(name="sweep",
                        firmware=FirmwareSpec(kind="app", app=APP,
                                              variant="original"))
    session = Session(spec)
    report = session.fault_sweep(FaultSpec(seed=SEED, count=4))
    assert session.fault_report is report
    assert report.faults == 4
    assert [t.profile for t in report.tallies] == list(FAULT_PROFILES)


@pytest.mark.parametrize("seed", [24, 33, 58])
def test_unrunnable_flipped_code_is_graded_not_raised(seed):
    """Regression: these plans flip light_sensor code into rra/rrc/swpb/
    sxt words on an immediate or constant operand, which used to abort
    the whole sweep with IsaError or DecodingError.  They are ILLEGAL
    steps now: monitored profiles detect them, the sweep grades all."""
    spec = ScenarioSpec(name="sweep",
                        firmware=FirmwareSpec(kind="app", app=APP,
                                              variant="original"))
    report = Session(spec).fault_sweep(
        FaultSpec(seed=seed, count=8, profiles=FAULT_PROFILES))
    assert [t.total for t in report.tallies] == [8] * len(FAULT_PROFILES)
    for tally in report.tallies:
        assert (tally.detected + tally.escape + tally.crash + tally.silent
                == tally.total)
    for profile in ("casu", "eilid"):
        reasons = {doc["reason"] for doc in report.outcomes[profile]}
        assert "illegal-instruction" in reasons
    by_profile = {profile: {doc["id"]: doc["outcome"] == "detected"
                            for doc in report.outcomes[profile]}
                  for profile in FAULT_PROFILES}
    for fault_id in by_profile["none"]:
        order = [by_profile[profile][fault_id] for profile in FAULT_PROFILES]
        assert order == sorted(order), (fault_id, order)


def test_session_fault_sweep_validates_the_plan():
    spec = ScenarioSpec(name="sweep",
                        firmware=FirmwareSpec(kind="app", app=APP,
                                              variant="original"))
    with pytest.raises(SpecError, match="backend"):
        Session(spec).fault_sweep(FaultSpec(backend="fork"))


# ---- the cli surface ---------------------------------------------------------


class TestFaultsCli:
    def _json(self, capsys, argv):
        from repro.cli import main

        code = main(argv + ["--json"])
        doc = json.loads(capsys.readouterr().out)
        assert code == 0
        return doc

    def test_enumerate(self, capsys):
        doc = self._json(capsys, ["faults", "enumerate", APP])
        assert doc["schema"] == "eilid.cli.faults-enumerate"
        assert doc["total"] >= 200
        assert set(doc["kinds"]) == set(FAULT_KINDS)
        assert doc["total"] == sum(doc["kinds"].values()) == len(doc["sites"])

    def test_enumerate_kind_filter(self, capsys):
        doc = self._json(capsys,
                         ["faults", "enumerate", APP, "--kinds", "insn-skip"])
        assert set(doc["kinds"]) == {"insn-skip"}

    def test_sweep(self, capsys):
        doc = self._json(capsys, ["faults", "sweep", APP, "--seed", str(SEED),
                                  "--count", "3", "--profiles", "none,eilid"])
        assert doc["schema"] == "eilid.cli.faults-sweep"
        assert doc["faults"] == 3
        assert [p["profile"] for p in doc["profiles"]] == ["none", "eilid"]

    def test_unknown_kind_is_usage_error(self, capsys):
        from repro.cli import main

        assert main(["faults", "enumerate", APP, "--kinds", "nope"]) == 1
