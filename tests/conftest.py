"""Shared test plumbing: the acceptance-gate summary printed after a run,
and a check that no test leaves a run's worker threads behind."""

import threading

import pytest

from rdg import executor

_GATE_LINES: dict[int, str] = {}


def record_criterion(n: int, name: str, ok: bool, details: str) -> str:
    """Register one gate line; returns it so tests can assert with it."""
    line = f"criterion {n} ({name}): {'PASS' if ok else 'FAIL'} - {details}"
    _GATE_LINES[n] = line
    return line


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if _GATE_LINES:
        terminalreporter.section("acceptance gate")
        for n in sorted(_GATE_LINES):
            terminalreporter.write_line(_GATE_LINES[n])


@pytest.fixture(autouse=True)
def _no_pool_thread_left():
    """Fail a test that returns while a run's worker thread is still alive:
    every run shuts its pool down before it returns or raises."""
    yield
    left = [t.name for t in threading.enumerate() if t.name.startswith(executor._POOL_PREFIX)]
    assert not left, f"worker threads still alive: {left}"
