"""Shared fixtures: canonical graphs, architectures, schedules."""

from __future__ import annotations

from pathlib import Path

import pytest

import repro
from repro.arch import CompletelyConnected, LinearArray, Mesh2D
from repro.graph import CSDFG
from repro.obs import metrics, remove_all_sinks
from repro.workloads import figure1_csdfg, figure1_mesh, figure7_csdfg


@pytest.fixture(autouse=True)
def _obs_isolation():
    """Observability state is process-global: make sure no test leaks
    sinks or metrics into the next one."""
    yield
    remove_all_sinks()
    metrics.reset()


#: The shipped package, as ``repro lint`` / ``repro analyze --flow``
#: see it with no path arguments.
PACKAGE_DIR = Path(repro.__file__).parent


@pytest.fixture(scope="session")
def shipped_flow_report():
    """One flow analysis of the shipped tree, shared by every test that
    only reads the report (the analysis is deterministic)."""
    from repro.analyze import analyze_flow

    return analyze_flow([PACKAGE_DIR])


@pytest.fixture(scope="session")
def shipped_lint_report():
    """One lint of the shipped tree, shared like the flow report."""
    from repro.analyze import lint_paths

    return lint_paths([PACKAGE_DIR])


@pytest.fixture
def figure1():
    """The paper's exact 6-node example graph."""
    return figure1_csdfg()


@pytest.fixture
def mesh2x2():
    """The paper's 2x2 mesh (4 PEs)."""
    return figure1_mesh()


@pytest.fixture
def figure7():
    """The reconstructed 19-node example graph."""
    return figure7_csdfg()


@pytest.fixture
def complete4():
    return CompletelyConnected(4)


@pytest.fixture
def linear4():
    return LinearArray(4)


@pytest.fixture
def tiny_loop():
    """Two-node loop: a -> b (d0), b -> a (d1); both unit time."""
    g = CSDFG("tiny")
    g.add_node("a", 1)
    g.add_node("b", 1)
    g.add_edge("a", "b", 0, 1)
    g.add_edge("b", "a", 1, 1)
    return g


@pytest.fixture
def diamond_dag():
    """Classic diamond: s -> (l, r) -> t, all zero delay."""
    g = CSDFG("diamond")
    for n in "slrt":
        g.add_node(n, 1)
    g.add_edge("s", "l", 0, 1)
    g.add_edge("s", "r", 0, 1)
    g.add_edge("l", "t", 0, 1)
    g.add_edge("r", "t", 0, 1)
    return g
