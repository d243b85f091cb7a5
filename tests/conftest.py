import pytest

from sigma_align import DofPoint, SigmaConfig

# one line per acceptance criterion, echoed after the run so the verdicts
# survive pytest's output capture
ACCEPTANCE_VERDICTS = []


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_VERDICTS:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_VERDICTS:
            terminalreporter.write_line(line)


@pytest.fixture
def s1_cfg():
    """Single-antenna X-network shape: two shared users, nothing else."""
    return SigmaConfig(1, 1, 0, 2, 0)


@pytest.fixture
def s1_point():
    return DofPoint.make(db1=["1/3", "1/3"], db2=["1/3", "1/3"])


@pytest.fixture
def big_cfg():
    """Two antennas per BS, three shared users."""
    return SigmaConfig(2, 2, 0, 3, 0)


@pytest.fixture
def big_point():
    return DofPoint.make(db1=["1/6"] * 3, db2=["1/6"] * 3)
