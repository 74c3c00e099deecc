"""The repo invariant checker (tools/check_invariants.py).

The checker is CI's guard for contracts a general linter can't see:
closed event kinds, enveloped CLI JSON, deterministic fault/analysis
paths.  These tests pin both directions -- the real repo is clean, and
seeded violations in a synthetic tree are caught.
"""

import importlib.util
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[1]

_spec = importlib.util.spec_from_file_location(
    "check_invariants", REPO_ROOT / "tools" / "check_invariants.py")
checker = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(checker)


EVENTS_STUB = '''
EVENT_KINDS = (
    "enroll",
    "alert",
)
'''

CLI_STUB = '''
def _print_json(doc):
    pass


def envelope(schema, **payload):
    return {"schema": schema, **payload}


def good(outcome):
    _print_json(envelope("x", ok=True))
    _print_json(outcome.to_dict())
'''


def _tree(tmp_path: Path, **files: str) -> Path:
    """Materialise a minimal repo tree; files are root-relative paths."""
    defaults = {
        "src/repro/obs/events.py": EVENTS_STUB,
        "src/repro/cli.py": CLI_STUB,
    }
    defaults.update(files)
    for rel, text in defaults.items():
        path = tmp_path / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)
    return tmp_path


# ---- the real repo is clean -------------------------------------------------


def test_repo_is_clean():
    assert checker.run_checks(REPO_ROOT) == []


def test_cli_exit_code_clean(capsys):
    assert checker.main(["--root", str(REPO_ROOT)]) == 0
    assert "invariants ok" in capsys.readouterr().out


def test_event_kinds_parse_without_import():
    kinds = checker.load_event_kinds(REPO_ROOT)
    assert "analysis-finding" in kinds
    assert "fault-outcome" in kinds


# ---- rule 1: closed event kinds ---------------------------------------------


def test_bad_emit_kind_is_caught(tmp_path):
    root = _tree(tmp_path, **{
        "src/repro/thing.py":
            'class T:\n'
            '    def go(self):\n'
            '        self.events.emit("bogus-kind", {})\n',
    })
    problems = checker.run_checks(root)
    assert len(problems) == 1
    assert "bogus-kind" in problems[0]
    assert "src/repro/thing.py:3" in problems[0].replace("\\", "/")


def test_known_kind_and_log_receiver_pass(tmp_path):
    root = _tree(tmp_path, **{
        "src/repro/thing.py":
            'class T:\n'
            '    def go(self, log):\n'
            '        self.events.emit("enroll", {})\n'
            '        log.emit("alert", {})\n'
            '        self.registry.events.emit("enroll", {})\n',
    })
    assert checker.run_checks(root) == []


def test_plain_self_emit_is_not_an_event_log(tmp_path):
    # minicc's codegen emits asm text via self.emit("...") -- that is
    # not an event log and must not be checked against EVENT_KINDS.
    root = _tree(tmp_path, **{
        "src/repro/minicc/codegen.py":
            'class Gen:\n'
            '    def line(self):\n'
            '        self.emit("mov r1, r2")\n',
    })
    assert checker.run_checks(root) == []


# ---- rule 2: CLI JSON goes through the envelope -----------------------------


def test_raw_dict_to_print_json_is_caught(tmp_path):
    root = _tree(tmp_path, **{
        "src/repro/cli.py": CLI_STUB +
            '\n\ndef bad():\n'
            '    _print_json({"ad": "hoc"})\n',
    })
    problems = checker.run_checks(root)
    assert len(problems) == 1
    assert "_print_json" in problems[0]
    assert "(in bad)" in problems[0]


def test_blessed_local_passes(tmp_path):
    root = _tree(tmp_path, **{
        "src/repro/cli.py": CLI_STUB +
            '\n\ndef via_local(outcome):\n'
            '    doc = outcome.to_dict()\n'
            '    doc["extra"] = 1\n'
            '    _print_json(doc)\n'
            '\n\ndef via_setdefault(payload):\n'
            '    payload.setdefault("schema", "eilid.x")\n'
            '    _print_json(payload)\n',
    })
    assert checker.run_checks(root) == []


# ---- rule 3: deterministic paths --------------------------------------------


@pytest.mark.parametrize("snippet,needle", [
    ("import time\n\ndef f():\n    return time.time()\n", "wall-clock"),
    ("import time\n\ndef f():\n    return time.perf_counter()\n", "wall-clock"),
    ("import random\n\ndef f():\n    return random.random()\n", "unseeded"),
    ("import random\n\ndef f():\n    return random.Random()\n", "without a seed"),
])
def test_nondeterminism_in_plan_is_caught(tmp_path, snippet, needle):
    root = _tree(tmp_path, **{"src/repro/faults/plan.py": snippet})
    problems = checker.run_checks(root)
    assert len(problems) == 1
    assert needle in problems[0]


def test_seeded_random_in_analyze_passes(tmp_path):
    root = _tree(tmp_path, **{
        "src/repro/analyze/runner.py":
            "import random\n\ndef f(seed):\n"
            "    return random.Random(seed).random()\n",
    })
    # random.Random(seed) is fine; .random() on the *instance* is fine
    # too -- only the module-level functions are unseeded.
    assert checker.run_checks(root) == []


# ---- rule 4: the broad-except ratchet ---------------------------------------


@pytest.mark.parametrize("clause", [
    "except Exception:",
    "except Exception as error:",
    "except (KeyError, Exception):",
])
def test_new_broad_except_is_caught(tmp_path, clause):
    root = _tree(tmp_path, **{
        "src/repro/thing.py":
            "def f(g):\n"
            "    try:\n"
            "        g()\n"
            f"    {clause}\n"
            "        pass\n",
    })
    problems = checker.run_checks(root)
    assert len(problems) == 1
    assert "src/repro/thing.py:4" in problems[0]
    assert "0 allowed" in problems[0]


def test_allowed_site_passes_and_one_more_is_caught(tmp_path):
    body = ("def f(g):\n"
            "    try:\n"
            "        g()\n"
            "    except Exception:\n"
            "        pass\n")
    assert checker.BROAD_EXCEPT_ALLOWED["src/repro/obs/bus.py"] == 1
    root = _tree(tmp_path, **{"src/repro/obs/bus.py": body})
    assert checker.run_checks(root) == []
    root = _tree(tmp_path, **{"src/repro/obs/bus.py": body + "\n\n" + body})
    problems = checker.run_checks(root)
    assert len(problems) == 1
    assert "src/repro/obs/bus.py:11" in problems[0]
    assert "lines 4, 11" in problems[0]


def test_specific_and_base_handlers_pass(tmp_path):
    root = _tree(tmp_path, **{
        "src/repro/thing.py":
            "def f(g):\n"
            "    try:\n"
            "        g()\n"
            "    except (KeyError, ValueError):\n"
            "        pass\n"
            "    except BaseException:\n"
            "        raise\n",
    })
    assert checker.run_checks(root) == []


# ---- rule 5: one module knows the disk --------------------------------------


@pytest.mark.parametrize("snippet, needle", [
    ("import sqlite3\n", "import sqlite3"),
    ("import sqlite3 as db\n", "import sqlite3"),
    ("from sqlite3 import connect\n", "import sqlite3"),
    ("import os\n\ndef f(h):\n    os.fsync(h.fileno())\n", "os.fsync"),
    ("import os\n\ndef f(a, b):\n    os.replace(a, b)\n", "os.replace"),
    ("from os import replace\n", "os.replace"),
])
def test_new_disk_site_outside_persist_is_caught(tmp_path, snippet, needle):
    root = _tree(tmp_path, **{"src/repro/fleet/thing.py": snippet})
    problems = checker.run_checks(root)
    assert len(problems) == 1
    assert problems[0].startswith("src/repro/fleet/thing.py:")
    assert needle in problems[0]


def test_persist_module_may_touch_the_disk(tmp_path):
    body = ("import os\n"
            "import sqlite3\n\n\n"
            "def f(handle, a, b):\n"
            "    os.fsync(handle.fileno())\n"
            "    os.replace(a, b)\n"
            "    return sqlite3.connect(a)\n")
    assert checker.PERSIST_MODULE == "src/repro/persist.py"
    root = _tree(tmp_path, **{"src/repro/persist.py": body})
    assert checker.run_checks(root) == []


def test_other_os_calls_pass(tmp_path):
    root = _tree(tmp_path, **{
        "src/repro/thing.py":
            "import os\n\n\n"
            "def f(path):\n"
            "    os.makedirs(path, exist_ok=True)\n"
            "    return os.path.exists(path)\n",
    })
    assert checker.run_checks(root) == []
