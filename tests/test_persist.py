"""The append-log primitive (repro.persist) and the on-disk format.

The registry store, the event log and the event tails share one line
discipline, so these tests pin it once for all three:

* files in the established format still open -- a checked-in registry
  log with a legacy record (no ``codec``), meta lines, superseded
  records and a torn tail loads to the expected state;
* freshly written record, meta and event lines equal golden bytes
  (benchmark byte accounting and older readers depend on them);
* one parse rule: an undecodable line is a torn fragment and is
  skipped, a line that decodes to anything but a document of its log
  raises a typed :class:`PersistError` naming the path and line;
* the first append after a torn tail starts a fresh line, and opening
  a log without writing leaves its bytes alone.
"""

import json
import shutil
from pathlib import Path

import pytest

import repro.obs.events as events_module
from repro.casu.update import UpdateKey
from repro.cli import main as cli_main
from repro.errors import ReproError
from repro.fleet import JsonlStore, record_from_dict, record_to_dict
from repro.fleet.registry import DeviceRecord
from repro.obs import JsonlEventLog, open_event_tail
from repro.persist import JsonlFile, PersistError, atomic_write, backend_for

FIXTURE = Path(__file__).parent / "fixtures" / "registry_v1.jsonl"

# The first and third lines of the fixture, as the store writes them.
GOLDEN_RECORD = (
    '{"applied_versions": [], "attest_count": 0, "codec": 1, '
    '"device_id": "dev-1", "enrolled_at": 0, "firmware_hash": null, '
    '"firmware_version": 0, "key": '
    '"b5d226a2331ca65aaa6b600df50c66a7837f0fdd7dfb23a3853138454130a403", '
    '"kind": "record", "last_seen": null, "nonce_high_water": 5, '
    '"platform": "TI MSP430", "reset_count": 0, "security": "eilid", '
    '"state": "enrolled", "update_failures": 0, "violation_count": 0, '
    '"violation_totals": {}}\n')
GOLDEN_META = '{"clock": 4, "kind": "meta", "packages": {}}\n'
GOLDEN_EVENT = ('{"campaign": null, "data": {"ok": true}, "device": "dev-1", '
                '"kind": "attest", "seq": 1, "ts": 1754556000.0}\n')


def _record(device_id, **fields):
    return record_to_dict(DeviceRecord(
        device_id, UpdateKey.derive(device_id), "TI MSP430", "eilid",
        **fields))


def _legacy_copy(tmp_path) -> str:
    path = tmp_path / "registry.jsonl"
    shutil.copyfile(FIXTURE, path)
    return str(path)


# ---- format compatibility ---------------------------------------------------


class TestFormat:
    def test_legacy_registry_log_loads(self, tmp_path):
        path = _legacy_copy(tmp_path)
        store = JsonlStore(path)
        records = store.load_records()
        assert sorted(records) == ["dev-1", "dev-2", "dev-3"]
        # Superseded lines fold last-wins.
        assert records["dev-1"]["firmware_version"] == 1
        assert records["dev-1"]["nonce_high_water"] == 9
        assert records["dev-1"]["applied_versions"] == [1]
        # The torn dev-2 fragment does not replace the whole line.
        assert records["dev-2"]["nonce_high_water"] == 3
        # A record written before the codec field still decodes.
        assert "codec" not in records["dev-3"]
        assert record_from_dict(records["dev-3"]).nonce_high_water == 2
        assert store.load_meta() == {
            "clock": 7, "packages": {"1": {"payload": "00ff", "target": 0}}}
        # Opening and reading wrote nothing.
        assert Path(path).read_bytes() == FIXTURE.read_bytes()
        store.close()
        again = JsonlStore(path)
        assert again.load_records() == records
        again.close()

    def test_record_and_meta_lines_are_golden(self, tmp_path):
        store = JsonlStore(str(tmp_path / "fresh.jsonl"))
        doc = _record("dev-1", nonce_high_water=5)
        store.save_record(doc)
        store.save_meta({"clock": 4, "packages": {}})
        store.flush()
        text = Path(store.path).read_text(encoding="utf-8")
        assert text == GOLDEN_RECORD + GOLDEN_META
        assert FIXTURE.read_text(encoding="utf-8").startswith(GOLDEN_RECORD)
        # The byte count the benchmark tracer charges per save.
        assert len(GOLDEN_RECORD) == len(json.dumps(
            {"kind": "record", **doc}, sort_keys=True)) + 1
        store.close()  # compaction writes meta first, then records
        assert Path(store.path).read_text(encoding="utf-8") == \
            GOLDEN_META + GOLDEN_RECORD

    def test_event_line_is_golden(self, tmp_path, monkeypatch):
        monkeypatch.setattr(events_module.time, "time", lambda: 1754556000.0)
        log = JsonlEventLog(str(tmp_path / "events.jsonl"))
        doc = log.emit("attest", device="dev-1", ok=True)
        log.close()
        text = Path(log.path).read_text(encoding="utf-8")
        assert text == GOLDEN_EVENT
        assert len(text) == len(json.dumps(doc, sort_keys=True)) + 1


# ---- the parse rule ---------------------------------------------------------


GOOD_LINES = {
    "store": json.dumps({"kind": "record", **_record("d1")}, sort_keys=True),
    "events": json.dumps({"seq": 1, "ts": 0.0, "kind": "enroll",
                          "device": "d1", "campaign": None, "data": {}}),
}
GOOD_LINES["tail"] = GOOD_LINES["events"]
LATER_LINES = {
    "store": json.dumps({"kind": "record", **_record("d2")}, sort_keys=True),
    "events": json.dumps({"seq": 2, "ts": 0.0, "kind": "enroll",
                          "device": "d2", "campaign": None, "data": {}}),
}
LATER_LINES["tail"] = LATER_LINES["events"]


def _read(kind, path):
    """Open *path* as *kind* and return the device ids it holds."""
    if kind == "store":
        store = JsonlStore(path)
        ids = sorted(store.load_records())
        store.close()
        return ids
    if kind == "events":
        log = JsonlEventLog(path)
        ids = [doc["device"] for doc in log.events()]
        log.close()
        return ids
    with open_event_tail(path) as tail:
        return [doc["device"] for doc in tail.read()]


def _write(path, *lines):
    Path(path).write_text("".join(line + "\n" for line in lines),
                          encoding="utf-8")


@pytest.mark.parametrize("kind", ["store", "events", "tail"])
@pytest.mark.parametrize("bad", [
    "[1, 2]",
    "7",
    '"text"',
    '{"kind": "record", "state": "enrolled"}',
])
def test_a_decodable_foreign_line_is_a_typed_error(tmp_path, kind, bad):
    path = str(tmp_path / "log.jsonl")
    _write(path, GOOD_LINES[kind], bad, LATER_LINES[kind])
    with pytest.raises(PersistError) as caught:
        _read(kind, path)
    assert isinstance(caught.value, ReproError)
    assert f"{path}:2:" in str(caught.value)


@pytest.mark.parametrize("kind", ["store", "events", "tail"])
def test_an_undecodable_line_mid_file_is_skipped(tmp_path, kind):
    # Files written before the torn-tail fix can hold a fragment glued
    # to a whole line; they must still open.
    path = str(tmp_path / "log.jsonl")
    glued = '{"seq": 9, "kind": "att' + GOOD_LINES[kind]
    _write(path, GOOD_LINES[kind], glued, LATER_LINES[kind])
    assert _read(kind, path) == ["d1", "d2"]


def test_cli_reports_a_corrupt_event_file_without_a_traceback(
        tmp_path, capsys):
    path = str(tmp_path / "events.jsonl")
    _write(path, GOOD_LINES["events"], "[1, 2]")
    code = cli_main(["fleet", "history", "--events", path])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("eilid: error: ")
    assert f"{path}:2:" in err
    assert "Traceback" not in err


# ---- the primitive ----------------------------------------------------------


def test_suffix_rule():
    assert backend_for(None) == "memory"
    assert backend_for(":memory:") == "memory"
    for name in ("a.db", "a.sqlite", "a.sqlite3"):
        assert backend_for(name) == "sqlite"
    for name in ("a.jsonl", "a.log", "a.db.bak"):
        assert backend_for(name) == "jsonl"


def test_first_append_after_a_torn_tail_starts_a_new_line(tmp_path):
    path = tmp_path / "log.jsonl"
    path.write_text('{"seq": 1}\n{"seq": 2, "ki', encoding="utf-8")
    handle = JsonlFile(str(path))
    # Opening alone never writes: a live writer may be mid-line.
    assert path.read_text(encoding="utf-8") == '{"seq": 1}\n{"seq": 2, "ki'
    handle.append({"seq": 3})
    handle.append({"seq": 4})
    handle.close()
    assert path.read_text(encoding="utf-8") == (
        '{"seq": 1}\n{"seq": 2, "ki\n{"seq": 3}\n{"seq": 4}\n')


def test_rewrite_is_atomic_and_appends_continue(tmp_path):
    path = tmp_path / "log.jsonl"
    handle = JsonlFile(str(path))
    handle.append({"seq": 1})
    handle.rewrite([{"seq": 2}])
    handle.append({"seq": 3})
    handle.sync()
    handle.close()
    handle.sync()  # a no-op once closed
    assert path.read_text(encoding="utf-8") == '{"seq": 2}\n{"seq": 3}\n'
    assert sorted(p.name for p in tmp_path.iterdir()) == ["log.jsonl"]


def test_atomic_write_creates_the_parent_and_leaves_no_temp(tmp_path):
    path = tmp_path / "deep" / "snap.json"
    atomic_write(str(path), ["{", "}\n"])
    assert path.read_text(encoding="utf-8") == "{}\n"
    assert [p.name for p in path.parent.iterdir()] == ["snap.json"]
