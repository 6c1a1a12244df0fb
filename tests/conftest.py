import os
import pathlib

import pytest

from motifcensus import Graph, frames, load_graph

DATA = pathlib.Path(__file__).parent / "data"

# one line per acceptance criterion, echoed after the test summary
CRITERION_LINES = []


def record_criterion(line: str) -> None:
    CRITERION_LINES.append(line)
    print(line)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if CRITERION_LINES:
        terminalreporter.section("acceptance criteria")
        for line in CRITERION_LINES:
            terminalreporter.write_line(line)


def data_path(name: str) -> pathlib.Path:
    return DATA / name


@pytest.fixture
def k4() -> Graph:
    return load_graph(data_path("k4.txt"))


@pytest.fixture
def k3() -> Graph:
    return load_graph(data_path("k3.txt"))


@pytest.fixture
def path3() -> Graph:
    # path on 4 vertices, 3 edges
    return load_graph(data_path("path3.txt"))


@pytest.fixture
def ffl() -> Graph:
    # feed-forward triangle: 0->1, 0->2, 1->2
    return load_graph(data_path("ffl.txt"), directed=True)


# -- censuses shared with a forked helper ----------------------------------


def force_split(mp) -> None:
    """Every census with a frame is shared with a forked helper, whatever
    the host's CPUs."""
    mp.setattr(frames, "_SPLIT_FROM", 1)
    mp.setattr(frames.os, "sched_getaffinity", lambda pid: {0, 1},
               raising=False)


def count_forks(mp) -> list:
    """The pid of the process that forked, once per fork."""
    forks = []
    real = frames.os.fork

    def fork():
        forks.append(os.getpid())
        return real()
    mp.setattr(frames.os, "fork", fork)
    return forks


def assert_no_child_left() -> None:
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def open_fds() -> list:
    return sorted(os.listdir("/proc/self/fd"))
