"""Shared test plumbing.

The acceptance tests record one line per numbered check; the terminal
summary hook prints them all at the end of the run, pass or fail, so the
verdicts stay visible even when pytest captures stdout.  The memory-plan
tests measure one call with ``traced_peak``.
"""

import gc
import tracemalloc

import pytest

_criterion_lines: list[str] = []


@pytest.fixture
def criterion():
    def record(number, ok: bool, detail: str = "") -> bool:
        tag = "PASS" if ok else "FAIL"
        line = f"[criterion {number}] {tag}"
        if detail:
            line += f": {detail}"
        _criterion_lines.append(line)
        print(line)
        return ok

    return record


@pytest.fixture
def traced_peak():
    """Peak traced allocation of one ``call()``, after a warm-up call (of
    ``warm_up`` if given, else of ``call``) keeps numpy's first-call
    allocations out."""

    def measure(call, warm_up=None) -> int:
        (warm_up or call)()
        gc.collect()
        tracemalloc.start()
        try:
            call()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    return measure


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if _criterion_lines:
        terminalreporter.section("acceptance criteria")
        for line in _criterion_lines:
            terminalreporter.write_line(line)
