#!/usr/bin/env python3
"""AST-based repo invariant checker (CI-required lint).

Enforces five codebase contracts no general-purpose linter knows
about:

1. **event kinds are closed** -- every literal event kind passed to an
   ``*.events.emit(...)`` / ``*.log.emit(...)`` call must be a member
   of ``EVENT_KINDS`` (src/repro/obs/events.py).  A typo'd kind would
   otherwise raise only when that code path runs.
2. **CLI JSON goes through the envelope** -- every ``_print_json(...)``
   in src/repro/cli.py must be fed a document built by an approved
   producer (``envelope(...)``, a ``.to_dict()`` / ``to_json_doc(...)``
   result, or a local that demonstrably derives from one / sets its own
   ``schema`` key).  This keeps the uniform ``--json`` contract honest.
3. **deterministic paths stay deterministic** -- the fault plan/site
   enumeration and the static analyzer must not consult wall-clock time
   or unseeded randomness; their outputs are pinned by seeds and
   inputs alone.
4. **broad exception handlers only shrink** -- a handler that catches
   ``Exception`` by name (alone or in a tuple) is allowed only at the
   sites counted in ``BROAD_EXCEPT_ALLOWED``; a new one fails the
   check, and a removed one should lower its file's count.
5. **one module knows the disk** -- ``import sqlite3``, ``os.fsync``
   and ``os.replace`` appear only in ``PERSIST_MODULE``
   (src/repro/persist.py), the append-log primitive every store, log
   and tail is built on.

Usage: ``python tools/check_invariants.py [--root PATH]``.
Exits 0 when clean, 1 with one line per violation otherwise.
"""

import argparse
import ast
import sys
from pathlib import Path

# Deterministic-path modules (relative to the repo root): no wall-clock,
# no unseeded randomness.  faults/campaign.py is deliberately absent --
# its elapsed-time measurement is reporting, not plan content.
DETERMINISTIC_PATHS = (
    "src/repro/faults/plan.py",
    "src/repro/faults/sites.py",
    "src/repro/analyze",
)

# Rule 4 ratchet: file -> handlers allowed to catch ``Exception``.
BROAD_EXCEPT_ALLOWED = {
    "src/repro/__init__.py": 1,  # package version lookup
    "src/repro/isa/encode.py": 2,  # operand helpers -> EncodingError
    "src/repro/obs/bus.py": 1,  # a failing subscriber is counted
    "src/repro/serve/pump.py": 1,  # drain: the campaign future reports
}

# Rule 5: the only module that may touch SQLite, fsync or rename.
PERSIST_MODULE = "src/repro/persist.py"
_PERSIST_OS_CALLS = {"fsync", "replace"}

_EMIT_RECEIVERS = {"events", "log"}
_APPROVED_PRODUCERS = {"envelope", "to_dict", "to_json_doc"}
_WALLCLOCK = {
    ("time", "time"), ("time", "perf_counter"), ("time", "monotonic"),
    ("datetime", "now"), ("datetime", "utcnow"), ("date", "today"),
}
_UNSEEDED_RANDOM = {"random", "randint", "randrange", "choice", "choices",
                    "shuffle", "sample", "uniform", "getrandbits"}


def _parse(path: Path):
    return ast.parse(path.read_text(), filename=str(path))


def load_event_kinds(root: Path):
    """The EVENT_KINDS tuple literal, read without importing the repo."""
    tree = _parse(root / "src/repro/obs/events.py")
    for node in ast.walk(tree):
        if not isinstance(node, ast.Assign):
            continue
        for target in node.targets:
            if isinstance(target, ast.Name) and target.id == "EVENT_KINDS":
                return {elt.value for elt in node.value.elts
                        if isinstance(elt, ast.Constant)}
    raise SystemExit("EVENT_KINDS literal not found in src/repro/obs/events.py")


def _receiver_name(func):
    """Terminal attribute of an emit call's receiver, or None.

    ``self.events.emit`` -> "events"; ``log.emit`` -> "log";
    ``self.emit`` -> "self" (minicc's asm emitter: not an event log).
    """
    if not (isinstance(func, ast.Attribute) and func.attr == "emit"):
        return None
    value = func.value
    if isinstance(value, ast.Attribute):
        return value.attr
    if isinstance(value, ast.Name):
        return value.id
    return None


def check_event_kinds(root: Path, kinds) -> list:
    """Rule 1: literal kinds at event-log emit sites are EVENT_KINDS."""
    problems = []
    for path in sorted((root / "src").rglob("*.py")):
        tree = _parse(path)
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            if _receiver_name(node.func) not in _EMIT_RECEIVERS:
                continue
            if not node.args:
                continue
            first = node.args[0]
            if isinstance(first, ast.Constant) and isinstance(first.value, str):
                if first.value not in kinds:
                    problems.append(
                        f"{path.relative_to(root)}:{node.lineno}: "
                        f"emit kind {first.value!r} is not in EVENT_KINDS")
    return problems


def _contains_approved_producer(node) -> bool:
    for sub in ast.walk(node):
        if not isinstance(sub, ast.Call):
            continue
        func = sub.func
        if isinstance(func, ast.Name) and func.id in _APPROVED_PRODUCERS:
            return True
        if isinstance(func, ast.Attribute) and func.attr in _APPROVED_PRODUCERS:
            return True
    return False


def _blessed_names(scope) -> set:
    """Locals in *scope* that hold an approved JSON document."""
    blessed = set()
    for node in ast.walk(scope):
        if isinstance(node, ast.Assign) and _contains_approved_producer(node.value):
            for target in node.targets:
                if isinstance(target, ast.Name):
                    blessed.add(target.id)
        # doc.setdefault("schema", ...): the document declares its own
        # schema key, which is the envelope contract's essential part.
        if (isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "setdefault"
                and isinstance(node.func.value, ast.Name)
                and node.args
                and isinstance(node.args[0], ast.Constant)
                and node.args[0].value == "schema"):
            blessed.add(node.func.value.id)
    return blessed


def check_cli_envelopes(root: Path) -> list:
    """Rule 2: every _print_json feed derives from an approved producer."""
    path = root / "src/repro/cli.py"
    tree = _parse(path)
    problems = []
    for scope in ast.walk(tree):
        if not isinstance(scope, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        blessed = _blessed_names(scope)
        for node in ast.walk(scope):
            if not (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Name)
                    and node.func.id == "_print_json"):
                continue
            if not node.args:
                continue
            arg = node.args[0]
            if _contains_approved_producer(arg):
                continue
            if isinstance(arg, ast.Name) and arg.id in blessed:
                continue
            problems.append(
                f"{path.relative_to(root)}:{node.lineno}: _print_json fed "
                f"a document that does not come from envelope()/to_dict()/"
                f"to_json_doc() (in {scope.name})")
    return problems


def check_deterministic_paths(root: Path) -> list:
    """Rule 3: no wall-clock / unseeded randomness in pinned-output code."""
    files = []
    for rel in DETERMINISTIC_PATHS:
        target = root / rel
        if target.is_dir():
            files.extend(sorted(target.rglob("*.py")))
        elif target.exists():
            files.append(target)
    problems = []
    for path in files:
        tree = _parse(path)
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if not isinstance(func, ast.Attribute):
                continue
            base = func.value
            base_name = base.id if isinstance(base, ast.Name) else (
                base.attr if isinstance(base, ast.Attribute) else None)
            where = f"{path.relative_to(root)}:{node.lineno}"
            if (base_name, func.attr) in _WALLCLOCK:
                problems.append(
                    f"{where}: wall-clock call {base_name}.{func.attr}() "
                    f"in a deterministic path")
            elif base_name == "random" and func.attr in _UNSEEDED_RANDOM:
                problems.append(
                    f"{where}: unseeded random.{func.attr}() "
                    f"in a deterministic path")
            elif (base_name == "random" and func.attr == "Random"
                  and not node.args and not node.keywords):
                problems.append(
                    f"{where}: random.Random() without a seed "
                    f"in a deterministic path")
    return problems


def _catches_exception(handler) -> bool:
    caught = handler.type
    names = caught.elts if isinstance(caught, ast.Tuple) else [caught]
    return any(isinstance(name, ast.Name) and name.id == "Exception"
               for name in names)


def check_broad_excepts(root: Path) -> list:
    """Rule 4: ``except Exception`` only at the counted sites."""
    problems = []
    for path in sorted((root / "src").rglob("*.py")):
        rel = path.relative_to(root).as_posix()
        lines = sorted(node.lineno for node in ast.walk(_parse(path))
                       if isinstance(node, ast.ExceptHandler)
                       and node.type is not None
                       and _catches_exception(node))
        allowed = BROAD_EXCEPT_ALLOWED.get(rel, 0)
        if len(lines) > allowed:
            problems.append(
                f"{rel}:{lines[allowed]}: {len(lines)} handler(s) catch "
                f"Exception (lines {', '.join(map(str, lines))}), "
                f"{allowed} allowed; catch the specific error instead")
    return problems


def _disk_sites(tree):
    """(line, what) for every sqlite3 import and os.fsync/os.replace use."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "sqlite3":
                    yield node.lineno, "import sqlite3"
        elif isinstance(node, ast.ImportFrom):
            if (node.module or "").split(".")[0] == "sqlite3":
                yield node.lineno, "import sqlite3"
            elif node.module == "os":
                for alias in node.names:
                    if alias.name in _PERSIST_OS_CALLS:
                        yield node.lineno, f"os.{alias.name}"
        elif (isinstance(node, ast.Attribute)
              and node.attr in _PERSIST_OS_CALLS
              and isinstance(node.value, ast.Name)
              and node.value.id == "os"):
            yield node.lineno, f"os.{node.attr}"


def check_persistence_sites(root: Path) -> list:
    """Rule 5: SQLite, fsync and rename live only in the persist module."""
    problems = []
    for path in sorted((root / "src").rglob("*.py")):
        rel = path.relative_to(root).as_posix()
        if rel == PERSIST_MODULE:
            continue
        for line, what in sorted(_disk_sites(_parse(path))):
            problems.append(
                f"{rel}:{line}: {what} outside {PERSIST_MODULE}; "
                f"build on the repro.persist primitive instead")
    return problems


def run_checks(root: Path) -> list:
    kinds = load_event_kinds(root)
    problems = []
    problems += check_event_kinds(root, kinds)
    problems += check_cli_envelopes(root)
    problems += check_deterministic_paths(root)
    problems += check_broad_excepts(root)
    problems += check_persistence_sites(root)
    return problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--root", default=".",
                        help="repository root (default: cwd)")
    args = parser.parse_args(argv)
    root = Path(args.root).resolve()
    problems = run_checks(root)
    for problem in problems:
        print(problem)
    if problems:
        print(f"{len(problems)} invariant violation(s)")
        return 1
    print("invariants ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
