"""Unit tests for the delta-debugging shrinker.

The acceptance-grade scenario lives here too: inject a real scheduler
bug (an under-priced communication cost in the fast-path cache), let
the fuzzer catch it, and require the shrinker to hand back a
reproducer of at most 8 nodes that still fails.
"""

import pytest

from repro.arch.cache import CommCostCache
from repro.core import CycloConfig
from repro.errors import QAError
from repro.graph.validation import is_legal
from repro.qa import ArchSpec, ReproCase, replay_case, sample_graph, shrink_case

CFG = CycloConfig(max_iterations=3, validate_each_step=False)


def _passing_case(seed=0):
    return ReproCase(
        graph=sample_graph(seed),
        arch_spec=ArchSpec("ring", 3),
        config=CFG,
        prop="schedules-legal",
        seed=seed,
    )


@pytest.fixture
def comm_underpricing(monkeypatch):
    """Make the fast-path cost cache under-price remote messages."""
    real = CommCostCache.cost

    def buggy(self, src, dst, volume):
        cost = real(self, src, dst, volume)
        if src != dst and max(src, dst) >= 2 and cost > 0:
            return cost - 1
        return cost

    monkeypatch.setattr(CommCostCache, "cost", buggy)


class TestContracts:
    def test_passing_case_is_rejected(self):
        with pytest.raises(QAError, match="needs a failing case"):
            shrink_case(_passing_case())

    def test_custom_check_drives_the_search(self):
        # a synthetic predicate: "fails whenever node 'keep' exists";
        # the shrinker must strip everything else away
        base = _passing_case(seed=5)
        graph = base.graph.copy()
        graph.add_node("keep", 1)
        case = base.with_graph(graph)

        def check(candidate):
            if any(str(v) == "keep" for v in candidate.graph.nodes()):
                return ["synthetic: 'keep' is present"]
            return []

        result = shrink_case(case, check=check)
        assert [str(v) for v in result.case.graph.nodes()] == ["keep"]
        assert result.case.graph.num_edges == 0
        assert result.nodes_removed == case.graph.num_nodes - 1
        assert result.violations == ["synthetic: 'keep' is present"]
        assert result.attempts <= 4000

    def test_shrunk_case_stays_paper_legal(self):
        case = _passing_case(seed=9)

        def check(candidate):
            return ["always fails"]

        result = shrink_case(case, check=check)
        assert is_legal(result.case.graph)
        result.case.arch_spec.build()  # must not raise

    def test_budget_caps_the_search(self):
        case = _passing_case(seed=2)
        calls = []

        def check(candidate):
            calls.append(1)
            return ["always fails"]

        shrink_case(case, check=check, max_attempts=10)
        # initial check + final check + at most max_attempts candidates
        assert len(calls) <= 12


class TestInjectedBugEndToEnd:
    def test_fuzzer_catches_and_shrinks_below_eight_nodes(
        self, comm_underpricing
    ):
        from repro.qa import run_fuzz

        report = run_fuzz(trials=40, seed=7, shrink=True)
        assert report.failures, "the injected comm-cost bug went unnoticed"
        shrunk_sizes = [
            t.shrunk_nodes for t in report.failures
            if t.shrunk_nodes is not None
        ]
        assert shrunk_sizes, "no failing trial produced a shrunk case"
        assert min(shrunk_sizes) <= 8, shrunk_sizes

    def test_shrunk_reproducer_still_fails_and_replays(
        self, comm_underpricing
    ):
        from repro.qa import run_fuzz

        report = run_fuzz(trials=40, seed=7, shrink=True)
        failing = [t for t in report.failures if t.shrunk_json is not None]
        assert failing
        case = ReproCase.from_json(failing[0].shrunk_json)
        violations = replay_case(case)
        assert violations, "shrunk reproducer no longer reproduces the bug"

    def test_certificate_property_alone_catches_it(self, comm_underpricing):
        # mutation check of the certificate: it prices from arch.hops x
        # the cost model, never the (broken) cache
        from repro.qa import run_fuzz

        report = run_fuzz(
            trials=40, seed=7, properties=("design-criterion",),
            shrink=False,
        )
        assert report.failures, "the certificate missed the injected bug"
        assert all(
            "RA403" in v for t in report.failures for v in t.violations
        )

    def test_healthy_code_passes_the_same_seeds(self):
        from repro.qa import run_fuzz

        report = run_fuzz(trials=40, seed=7, shrink=False)
        assert report.ok, report.describe()
