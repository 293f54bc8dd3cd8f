"""Shared test plumbing: the acceptance-gate summary printed after a run."""

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
