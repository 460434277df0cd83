"""Shared pytest plumbing: the acceptance battery's report and the
per-edge even-odd reference for the shell inside test.

Criterion verdicts are collected during the run and replayed after the
terminal summary, so the one-line-per-criterion report is visible even
though pytest captures stdout of passing tests.
"""
import numpy as np
import pytest

_CRITERION_LINES = []


@pytest.fixture
def criterion_report():
    def record(name: str, passed: bool, detail: str) -> None:
        verdict = "PASS" if passed else "FAIL"
        _CRITERION_LINES.append(f"[{verdict}] {name}: {detail}")
    return record


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if _CRITERION_LINES:
        terminalreporter.section("acceptance criteria")
        for line in _CRITERION_LINES:
            terminalreporter.write_line(line)


@pytest.fixture(scope="session")
def even_odd_reference():
    """Brute-force even-odd test of points x (..., 2) against a shell's
    sample polygon: every point checks every edge for a crossing of the
    ray towards +q, at q_at = p0_q + y0 / (y0 - y1) (p1_q - p0_q)."""
    def inside(shell, x):
        x = np.asarray(x, dtype=float)[..., None, :]
        p0, p1 = shell.points, np.roll(shell.points, -1, axis=0)
        y0, y1 = p0[:, 0] - x[..., 0], p1[:, 0] - x[..., 0]
        crosses = (y0 > 0) != (y1 > 0)
        with np.errstate(divide="ignore", invalid="ignore"):
            q_at = p0[:, 1] + y0 / (y0 - y1) * (p1[:, 1] - p0[:, 1])
        return np.sum(crosses & (q_at > x[..., 1]), axis=-1) % 2 == 1
    return inside
