"""Benchmark fixtures: shared builder so library parses are cached,
and the bounded run-history every benchmark artifact carries."""

import json
import os

import pytest

from repro.eilid.iterbuild import IterativeBuild

# Successive runs of a benchmark fold their summaries into its
# artifact's ``history`` list, so the perf trajectory is non-empty from
# the very first run and grows run over run, up to this many entries.
HISTORY_LIMIT = 20


@pytest.fixture(scope="session")
def builder():
    return IterativeBuild()


def _seeded_history(path, entry):
    """The ``history`` of the artifact at *path* plus *entry*, bounded."""
    history = []
    if os.path.exists(path):
        try:
            with open(path, encoding="utf-8") as handle:
                history = json.load(handle).get("history", [])
        except (OSError, ValueError):
            history = []
    history.append(entry)
    return history[-HISTORY_LIMIT:]


@pytest.fixture(scope="session")
def seeded_history():
    """``seeded_history(path, entry)``: previous runs' entries in the
    artifact at *path* plus this run's, oldest first, bounded."""
    return _seeded_history
