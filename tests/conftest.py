"""Shared pytest plumbing.

Acceptance tests record a one-line verdict each; the hook below replays
those lines in the terminal summary so they are visible in any run,
captured output or not. `probe_sum` turns any tensor into a scalar loss
on a tape, and `tape_sum` adds two tensors there, which the package's own
ops never need. Like the package's ops, each records its output and a
backward that takes the output's gradient; the tape runs that backward
only when the output has a gradient.
"""

import numpy as np
import pytest

from lisa_srl.numerics import Tape, Tensor, _accumulate, _unchecked

_ACCEPTANCE_LINES: list[str] = []


@pytest.fixture
def acceptance_report():
    def record(line: str) -> None:
        _ACCEPTANCE_LINES.append(line)
        print(line)

    return record


def pytest_terminal_summary(terminalreporter):
    if _ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in _ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


def probe_sum(tape: Tape, x: Tensor, probe=None) -> Tensor:
    """sum(x * probe) recorded on `tape`; no probe means a probe of ones, a
    plain sum. The probe is a constant: only `x` receives a gradient."""
    p = np.ones_like(x.data) if probe is None else np.asarray(getattr(probe, "data", probe))
    out = _unchecked(np.asarray((x.data * p).sum()))

    def back(g: np.ndarray) -> None:
        _accumulate(x, g * p)

    tape._backprops.append(((out,), back))
    return out


def tape_sum(tape: Tape, a: Tensor, b: Tensor) -> Tensor:
    """a + b recorded on `tape`, both operands taking the gradient."""
    out = _unchecked(a.data + b.data)

    def back(g: np.ndarray) -> None:
        _accumulate(a, g)
        _accumulate(b, g)

    tape._backprops.append(((out,), back))
    return out
