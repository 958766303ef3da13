"""Mutation-seeded tests for the interprocedural flow analyzer.

Each rule family gets (at least) one planted bug the analyzer must
catch and one clean variant it must stay silent on.  Fixtures are
planted under a temporary ``repro/`` tree so
:func:`repro.analyze.lint.infer_module` resolves them as real modules
— the same trick the lint mutation tests use, now exercising the
*interprocedural* machinery: the bug and the sink live in different
functions (and, for several cases, different files).
"""

from pathlib import Path

import pytest

from repro.analyze import analyze_flow
from repro.errors import AnalysisError


def plant(tmp_path: Path, files: dict[str, str]) -> Path:
    """Write ``files`` (relative to a fake ``repro`` package) and
    return the tree root to analyze."""
    root = tmp_path / "repro"
    for rel, source in files.items():
        target = root / rel
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(source)
    return root


def codes(report):
    return sorted(d.code for d in report.diagnostics)


def run(tmp_path, files):
    return analyze_flow([plant(tmp_path, files)])


class TestRD101UnseededRngInParallelFlow:
    def test_tainted_payload_through_helper(self, tmp_path):
        # the draw is two calls away from the dispatch site
        report = run(tmp_path, {"perf/driver.py": (
            "import random\n"
            "from repro.perf.parallel import run_parallel\n"
            "def jitter(item):\n"
            "    return random.random()\n"
            "def payload(item):\n"
            "    return jitter(item)\n"
            "def drive(items):\n"
            "    return run_parallel(payload, items, jobs=2)\n"
        )})
        assert "RD101" in codes(report)
        (diag,) = [d for d in report.diagnostics if d.code == "RD101"]
        assert diag.line == 8
        assert "payload" in diag.message

    def test_salted_hash_in_priority(self, tmp_path):
        report = run(tmp_path, {"perf/prio.py": (
            "from repro.core.startup import start_up_schedule\n"
            "def salted(graph, alap, finish, node, cs):\n"
            "    return hash(node)\n"
            "def schedule(graph, arch):\n"
            "    return start_up_schedule(graph, arch, priority=salted)\n"
        )})
        assert "RD101" in codes(report)
        (diag,) = [d for d in report.diagnostics if d.code == "RD101"]
        assert "priority" in diag.message and "hash()" in diag.message

    def test_tainted_class_instance_priority(self, tmp_path):
        # taint inside __call__ of a class passed as priority=Cls(...)
        report = run(tmp_path, {"perf/prio.py": (
            "import random\n"
            "from repro.core.startup import start_up_schedule\n"
            "class Jitter:\n"
            "    def __call__(self, graph, alap, finish, node, cs):\n"
            "        return random.uniform(0, 1)\n"
            "def schedule(graph, arch, seed):\n"
            "    pri = Jitter()\n"
            "    return start_up_schedule(graph, arch, priority=pri)\n"
        )})
        assert "RD101" in codes(report)

    def test_seeded_rng_is_clean(self, tmp_path):
        report = run(tmp_path, {"perf/driver.py": (
            "import random\n"
            "from repro.perf.parallel import run_parallel\n"
            "def payload(item):\n"
            "    rng = random.Random(item)\n"
            "    return rng.random()\n"
            "def drive(items):\n"
            "    return run_parallel(payload, items, jobs=2)\n"
        )})
        assert codes(report) == []


class TestRD102SetOrderAcrossMergeBoundary:
    def test_set_iteration_at_publish_boundary(self, tmp_path):
        report = run(tmp_path, {"perf/stats.py": (
            "def merge(snapshots, sink):\n"
            "    total = 0.0\n"
            "    for snap in set(snapshots):\n"
            "        total += snap\n"
            "    sink.publish_stats()\n"
            "    return total\n"
        )})
        assert "RD102" in codes(report)
        (diag,) = [d for d in report.diagnostics if d.code == "RD102"]
        assert diag.line == 3

    def test_set_returning_helper_iterated_in_payload(self, tmp_path):
        # interprocedural: the set is built in another function
        report = run(tmp_path, {"perf/driver.py": (
            "from repro.perf.parallel import run_parallel\n"
            "def distinct(items):\n"
            "    return {i for i in items}\n"
            "def payload(items):\n"
            "    return [x + 1 for x in distinct(items)]\n"
            "def drive(chunks):\n"
            "    return run_parallel(payload, chunks, jobs=2)\n"
        )})
        assert "RD102" in codes(report)

    def test_sorted_iteration_is_clean(self, tmp_path):
        report = run(tmp_path, {"perf/stats.py": (
            "def merge(snapshots, sink):\n"
            "    total = 0.0\n"
            "    for snap in sorted(set(snapshots)):\n"
            "        total += snap\n"
            "    sink.publish_stats()\n"
            "    return total\n"
        )})
        assert codes(report) == []

    def test_set_iteration_away_from_boundary_is_clean(self, tmp_path):
        # no merge boundary, no payload: plain set use is fine
        report = run(tmp_path, {"graph/util.py": (
            "def distinct(items):\n"
            "    out = []\n"
            "    for i in set(items):\n"
            "        out.append(i)\n"
            "    return out\n"
        )})
        assert "RD102" not in codes(report)


class TestRD103ClockIntoSchedule:
    def test_clock_derived_argument(self, tmp_path):
        report = run(tmp_path, {"perf/driver.py": (
            "import time\n"
            "from repro.core.cyclo import cyclo_compact\n"
            "def schedule(graph, arch, cfg):\n"
            "    stamp = time.monotonic()\n"
            "    return cyclo_compact(graph, arch, config=stamp)\n"
        )})
        assert "RD103" in codes(report)

    def test_env_read_reachable_from_entry_point(self, tmp_path):
        # the read hides one call below a core entry-point name
        report = run(tmp_path, {"core/mapper.py": (
            "import os\n"
            "def remap_nodes(graph, arch):\n"
            "    return _expand(graph)\n"
            "def _expand(graph):\n"
            "    knob = os.environ.get('REPRO_SECRET_KNOB')\n"
            "    return (graph, knob)\n"
        )})
        assert "RD103" in codes(report)
        (diag,) = [d for d in report.diagnostics if d.code == "RD103"]
        assert diag.line == 5

    def test_budget_keyword_is_exempt(self, tmp_path):
        # explicit deadlines are user intent, not leaked nondeterminism
        report = run(tmp_path, {"perf/driver.py": (
            "import time\n"
            "from repro.core.cyclo import cyclo_compact\n"
            "def schedule(graph, arch, budget):\n"
            "    left = budget - time.monotonic()\n"
            "    return cyclo_compact(graph, arch, "
            "deadline_seconds=left)\n"
        )})
        assert "RD103" not in codes(report)


class TestRD104CompletionOrder:
    def test_as_completed_iteration(self, tmp_path):
        report = run(tmp_path, {"perf/pool.py": (
            "from concurrent.futures import as_completed\n"
            "def gather(futures):\n"
            "    total = 0.0\n"
            "    for fut in as_completed(futures):\n"
            "        total += fut.result()\n"
            "    return total\n"
        )})
        assert "RD104" in codes(report)

    def test_submission_order_is_clean(self, tmp_path):
        report = run(tmp_path, {"perf/pool.py": (
            "def gather(futures):\n"
            "    total = 0.0\n"
            "    for fut in futures:\n"
            "        total += fut.result()\n"
            "    return total\n"
        )})
        assert codes(report) == []


class TestRC201UnfrozenContendedPricing:
    def test_missing_occupancy(self, tmp_path):
        report = run(tmp_path, {"core/price.py": (
            "from repro.arch.cache import CommCostCache\n"
            "def price(arch, graph, model):\n"
            "    return CommCostCache.for_graph(arch, graph, "
            "contention=model)\n"
        )})
        assert "RC201" in codes(report)

    def test_bare_empty_ledger(self, tmp_path):
        report = run(tmp_path, {"core/price.py": (
            "from repro.arch.cache import CommCostCache\n"
            "from repro.arch.contention import LinkOccupancy\n"
            "def price(arch, graph, model):\n"
            "    return CommCostCache.for_graph(arch, graph, "
            "contention=model, occupancy=LinkOccupancy(arch))\n"
        )})
        assert "RC201" in codes(report)

    def test_frozen_snapshot_is_clean(self, tmp_path):
        report = run(tmp_path, {"core/price.py": (
            "from repro.arch.cache import CommCostCache\n"
            "from repro.arch.contention import LinkOccupancy\n"
            "def price(arch, graph, model, schedule):\n"
            "    occ = LinkOccupancy.from_assignment(graph, arch, "
            "schedule)\n"
            "    return CommCostCache.for_graph(arch, graph, "
            "contention=model, occupancy=occ)\n"
        )})
        assert "RC201" not in codes(report)

    def test_contention_free_cache_is_clean(self, tmp_path):
        report = run(tmp_path, {"core/price.py": (
            "from repro.arch.cache import CommCostCache\n"
            "def price(arch, graph):\n"
            "    return CommCostCache.for_graph(arch, graph)\n"
        )})
        assert codes(report) == []


class TestRC202StaleFreezeAcrossRemap:
    FREEZE = (
        "from repro.arch.cache import CommCostCache\n"
        "from repro.arch.contention import LinkOccupancy\n"
        "from repro.core.remapping import remap_nodes\n"
    )

    def test_snapshot_consumed_by_earlier_remap(self, tmp_path):
        report = run(tmp_path, {"resilience/fix.py": (
            self.FREEZE
            + "def repair(graph, arch, model, schedule):\n"
            "    occ = LinkOccupancy.from_assignment(graph, arch, "
            "schedule)\n"
            "    comm = CommCostCache.for_graph(arch, graph, "
            "contention=model, occupancy=occ)\n"
            "    first = remap_nodes(graph, arch, comm=comm)\n"
            "    second = remap_nodes(graph, arch, comm=comm)\n"
            "    return second\n"
        )})
        assert "RC202" in codes(report)
        (diag,) = [d for d in report.diagnostics if d.code == "RC202"]
        assert "already" in diag.message

    def test_snapshot_frozen_outside_loop(self, tmp_path):
        report = run(tmp_path, {"resilience/fix.py": (
            self.FREEZE
            + "def repair(graph, arch, model, schedule, rounds):\n"
            "    occ = LinkOccupancy.from_assignment(graph, arch, "
            "schedule)\n"
            "    comm = CommCostCache.for_graph(arch, graph, "
            "contention=model, occupancy=occ)\n"
            "    out = None\n"
            "    for _ in range(rounds):\n"
            "        out = remap_nodes(graph, arch, comm=comm)\n"
            "    return out\n"
        )})
        assert "RC202" in codes(report)
        (diag,) = [d for d in report.diagnostics if d.code == "RC202"]
        assert "loop" in diag.message

    def test_refreeze_before_each_remap_is_clean(self, tmp_path):
        # the shipped repair-path discipline: freeze, remap, re-freeze
        src = (
            self.FREEZE
            + "def repair(graph, arch, model, schedule, rounds):\n"
            "    out = None\n"
            "    for _ in range(rounds):\n"
            "        occ = LinkOccupancy.from_assignment(graph, arch, "
            "schedule)\n"
            "        comm = CommCostCache.for_graph(arch, graph, "
            "contention=model, occupancy=occ)"
            "  # repro-lint: disable=RC203 (per-round reprice)\n"
            "        out = remap_nodes(graph, arch, comm=comm)\n"
            "        schedule = out.schedule\n"
            "    return out\n"
        )
        report = run(tmp_path, {"resilience/fix.py": src})
        assert "RC202" not in codes(report)

    def test_contention_free_comm_is_clean(self, tmp_path):
        report = run(tmp_path, {"resilience/fix.py": (
            self.FREEZE
            + "def repair(graph, arch, rounds):\n"
            "    comm = CommCostCache.for_graph(arch, graph)\n"
            "    out = None\n"
            "    for _ in range(rounds):\n"
            "        out = remap_nodes(graph, arch, comm=comm)\n"
            "    return out\n"
        )})
        assert "RC202" not in codes(report)


class TestRC203CacheInHotLoop:
    def test_construction_inside_loop(self, tmp_path):
        report = run(tmp_path, {"core/hot.py": (
            "from repro.arch.cache import CommCostCache\n"
            "def reprice(arch, graphs):\n"
            "    out = []\n"
            "    for g in graphs:\n"
            "        out.append(CommCostCache.for_graph(arch, g))\n"
            "    return out\n"
        )})
        assert "RC203" in codes(report)

    def test_hoisted_construction_is_clean(self, tmp_path):
        report = run(tmp_path, {"core/hot.py": (
            "from repro.arch.cache import CommCostCache\n"
            "def reprice(arch, graph, items):\n"
            "    comm = CommCostCache.for_graph(arch, graph)\n"
            "    out = []\n"
            "    for item in items:\n"
            "        out.append(comm.cost(0, 1, item))\n"
            "    return out\n"
        )})
        assert codes(report) == []

    def test_suppression_is_honoured_and_counted(self, tmp_path):
        report = run(tmp_path, {"core/hot.py": (
            "from repro.arch.cache import CommCostCache\n"
            "def reprice(arch, graphs):\n"
            "    out = []\n"
            "    for g in graphs:\n"
            "        out.append(CommCostCache.for_graph(arch, g))"
            "  # repro-lint: disable=RC203 (test)\n"
            "    return out\n"
        )})
        assert codes(report) == [] and report.suppressed == 1


class TestEngineBehaviour:
    def test_missing_path_is_analysis_error(self, tmp_path):
        with pytest.raises(AnalysisError, match="no such file"):
            analyze_flow([tmp_path / "nope"])

    def test_syntax_error_is_analysis_error(self, tmp_path):
        with pytest.raises(AnalysisError, match="cannot parse"):
            run(tmp_path, {"core/broken.py": "def f(:\n"})

    def test_cross_file_taint_propagation(self, tmp_path):
        # source in one module, dispatch in another: the call graph
        # must connect them through the import
        report = run(tmp_path, {
            "perf/noise.py": (
                "import random\n"
                "def jitter(item):\n"
                "    return random.random()\n"
            ),
            "perf/driver.py": (
                "from repro.perf.noise import jitter\n"
                "from repro.perf.parallel import run_parallel\n"
                "def drive(items):\n"
                "    return run_parallel(jitter, items, jobs=2)\n"
            ),
        })
        assert "RD101" in codes(report)
        (diag,) = [d for d in report.diagnostics if d.code == "RD101"]
        assert diag.file.endswith("driver.py")

    def test_witness_names_the_source(self, tmp_path):
        report = run(tmp_path, {"perf/driver.py": (
            "import random\n"
            "from repro.perf.parallel import run_parallel\n"
            "def payload(item):\n"
            "    return random.random()\n"
            "def drive(items):\n"
            "    return run_parallel(payload, items)\n"
        )})
        (diag,) = report.diagnostics
        assert "random.random()" in diag.message


class TestShippedTree:
    def test_zero_flow_errors(self, shipped_flow_report):
        assert [d for d in shipped_flow_report.diagnostics
                if d.severity == "error"] == []

    def test_documented_suppressions_present(self, shipped_flow_report):
        # the contention fixpoint's per-round reprice (RC203 x2) and
        # the deadline budget checks in cyclo (RD103 x2)
        assert shipped_flow_report.suppressed == 4
