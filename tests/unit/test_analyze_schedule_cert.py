"""Unit tests for the RA4xx schedule certificate checker.

The checker is the one independent re-derivation of the DESIGN §1
criterion outside the runtime validator, so every test cross-checks
its verdict against the validator: they must agree on legal *and* on
broken schedules, contention-free and under a frozen link occupancy.
"""

import pytest

from repro.analyze import certify_schedule
from repro.arch import (
    CommCostCache,
    LinkOccupancy,
    Ring,
    SerializedContention,
    make_architecture,
)
from repro.arch.degraded import DegradedTopology
from repro.core import CycloConfig, contention_aware_schedule, cyclo_compact
from repro.errors import AnalysisError
from repro.graph import CSDFG, layered_csdfg
from repro.schedule import ScheduleTable, collect_violations


def codes(diags):
    return sorted(d.code for d in diags)


def errors(diags):
    return [d for d in diags if d.severity == "error"]


@pytest.fixture
def chain():
    """a -> b same-volume chain with a loop-back delay."""
    g = CSDFG("chain")
    g.add_node("a", 2)
    g.add_node("b", 1)
    g.add_edge("a", "b", 0, 2)
    g.add_edge("b", "a", 1, 1)
    return g


class TestCleanCertificates:
    def test_compacted_schedule_certifies(self, figure1, mesh2x2):
        cfg = CycloConfig(max_iterations=8, validate_each_step=False)
        result = cyclo_compact(figure1, mesh2x2, config=cfg)
        found = certify_schedule(result.graph, mesh2x2, result.schedule)
        assert errors(found) == []
        assert collect_violations(result.graph, mesh2x2, result.schedule) == []

    def test_certifies_on_degraded_machines(self, figure1):
        arch = DegradedTopology(make_architecture("mesh", 4), failed_pes=(3,))
        cfg = CycloConfig(max_iterations=4, validate_each_step=False)
        result = cyclo_compact(figure1, arch, config=cfg)
        assert errors(
            certify_schedule(result.graph, arch, result.schedule)
        ) == []

    def test_slack_is_reported_as_ra405(self, chain):
        arch = make_architecture("linear", 2)
        table = ScheduleTable(2, length=50)
        table.place("a", pe=0, start=1, duration=2)
        table.place("b", pe=0, start=3, duration=1)
        found = certify_schedule(chain, arch, table)
        assert errors(found) == []
        assert codes(found) == ["RA405"]
        assert collect_violations(chain, arch, table) == []


class TestBrokenSchedules:
    def arch(self):
        return make_architecture("linear", 2)

    def test_missing_node_is_ra401(self, chain):
        table = ScheduleTable(2, length=10)
        table.place("a", pe=0, start=1, duration=2)
        found = certify_schedule(chain, self.arch(), table)
        assert "RA401" in codes(found)
        assert collect_violations(chain, self.arch(), table)

    def test_foreign_node_is_ra401(self, chain):
        table = ScheduleTable(2, length=10)
        table.place("a", pe=0, start=1, duration=2)
        table.place("b", pe=0, start=3, duration=1)
        table.place("zz", pe=1, start=1, duration=1)
        assert "RA401" in codes(certify_schedule(chain, self.arch(), table))

    def test_overlap_is_ra402(self, chain):
        from repro.schedule.table import Placement

        table = ScheduleTable(2, length=10)
        table.place("a", pe=0, start=1, duration=2)
        # bypass the table's cell index to simulate a corrupted table:
        # b lands inside a's occupancy window
        table._placements["b"] = Placement("b", 0, 2, 1)
        found = certify_schedule(chain, self.arch(), table)
        assert "RA402" in codes(found)
        assert collect_violations(chain, self.arch(), table)

    def test_pipelined_overlap_is_allowed(self, chain):
        # on pipelined PEs only the issue step must be exclusive, but
        # the cross-PE message b -> a (delay 1) must still be priced:
        # keep them co-located
        table = ScheduleTable(2, length=10)
        table.place("a", pe=0, start=1, duration=2, occupancy=1)
        table.place("b", pe=0, start=3, duration=1)
        found = certify_schedule(
            chain, self.arch(), table, pipelined_pes=True
        )
        assert errors(found) == []

    def test_comm_violation_is_ra403(self, chain):
        # a(pe1) finishes at cs 2; b(pe2) at cs 3 ignores the one-hop
        # transit of the 2-word message (M = 2)
        table = ScheduleTable(2, length=10)
        table.place("a", pe=0, start=1, duration=2)
        table.place("b", pe=1, start=3, duration=1)
        found = certify_schedule(chain, self.arch(), table)
        assert "RA403" in codes(found)
        assert collect_violations(chain, self.arch(), table)

    def test_same_pe_needs_no_transit(self, chain):
        table = ScheduleTable(2, length=10)
        table.place("a", pe=0, start=1, duration=2)
        table.place("b", pe=0, start=3, duration=1)
        assert errors(certify_schedule(chain, self.arch(), table)) == []

    def test_delay_edge_wraps_around_the_length(self, chain):
        # b -> a carries one delay: legal only because d * L covers it;
        # shrink L below the wrap requirement and RA403 must fire
        table = ScheduleTable(2, length=2)
        table.place("a", pe=0, start=1, duration=2)
        table.place("b", pe=1, start=1, duration=1)
        found = certify_schedule(chain, self.arch(), table)
        assert "RA403" in codes(found)
        assert collect_violations(chain, self.arch(), table)

    def test_out_of_range_pe_is_ra404(self, chain):
        table = ScheduleTable(5, length=10)
        table.place("a", pe=4, start=1, duration=2)
        table.place("b", pe=0, start=3, duration=1)
        found = certify_schedule(chain, self.arch(), table)
        assert "RA404" in codes(found)
        assert collect_violations(chain, self.arch(), table)

    def test_failed_pe_is_ra404(self, chain):
        arch = DegradedTopology(
            make_architecture("complete", 3), failed_pes=(2,)
        )
        table = ScheduleTable(3, length=10)
        table.place("a", pe=2, start=1, duration=2)
        table.place("b", pe=0, start=4, duration=1)
        found = certify_schedule(chain, arch, table)
        assert "RA404" in codes(found)
        assert collect_violations(chain, arch, table)

    def test_wrong_duration_is_ra404(self, chain):
        table = ScheduleTable(2, length=10)
        table.place("a", pe=0, start=1, duration=1)  # t(a) = 2
        table.place("b", pe=0, start=3, duration=1)
        found = certify_schedule(chain, self.arch(), table)
        assert "RA404" in codes(found)
        assert collect_violations(chain, self.arch(), table)

    def test_finish_beyond_length_is_ra404(self, chain):
        table = ScheduleTable(2, length=10)
        table.place("a", pe=0, start=1, duration=2)
        table.place("b", pe=0, start=10, duration=1)
        table._length = 9  # sabotage: bypass the setter guard
        found = certify_schedule(chain, self.arch(), table)
        assert "RA404" in codes(found)
        assert collect_violations(chain, self.arch(), table)


class TestValidatorAgreement:
    """Fuzz-lite: the certificate and the validator agree verdict for
    verdict over many seeded samples (the `analyzer-agrees` fuzz
    property runs the same comparison at scale)."""

    def test_agreement_over_samples(self):
        from repro.qa import sample_graph
        from repro.qa.generate import sample_arch_spec

        cfg = CycloConfig(max_iterations=3, validate_each_step=False)
        for seed in range(12):
            graph = sample_graph(seed)
            arch = sample_arch_spec(seed, max_pes=6).build()
            result = cyclo_compact(graph, arch, config=cfg)
            for g, schedule in (
                (graph, result.initial_schedule),
                (result.graph, result.schedule),
            ):
                validator = collect_violations(g, arch, schedule)
                certificate = errors(certify_schedule(g, arch, schedule))
                assert bool(validator) == bool(certificate), (
                    seed, validator, [d.render() for d in certificate]
                )


class TestContendedCertificate:
    """Clause 2 priced against a frozen ``LinkOccupancy``:
    ``M = model.price(base, busiest link load on the route)``."""

    MODEL = SerializedContention(weight=1)

    def tight_case(self):
        # a (CE=2) -> b across one ring hop, c=2: base M = 2, so b at
        # cs 5 meets CB >= CE + M + 1 with zero slack
        arch = Ring(4)
        table = ScheduleTable(4, length=20)
        table.place("a", pe=0, start=1, duration=2)
        table.place("b", pe=1, start=5, duration=1)
        return arch, table

    def test_clean_without_occupancy_ra403_with_it(self, chain):
        arch, table = self.tight_case()
        assert errors(certify_schedule(chain, arch, table)) == []
        occupancy = LinkOccupancy(arch)
        occupancy.add(0, 1, 3)  # 3 units queued on link pe1-pe2
        found = errors(certify_schedule(
            chain, arch, table, model=self.MODEL, occupancy=occupancy
        ))
        assert codes(found) == ["RA403"]
        assert found[0].edge == ("a", "b")
        assert "M=5" in found[0].message  # price(2, 3) = 2 + 1*3
        # the validator agrees under the cache priced the same way
        comm = CommCostCache.for_graph(
            arch, chain, contention=self.MODEL, occupancy=occupancy
        )
        assert collect_violations(chain, arch, table, comm=comm)
        assert collect_violations(chain, arch, table) == []

    def test_load_off_the_route_is_free(self, chain):
        arch, table = self.tight_case()
        occupancy = LinkOccupancy(arch)
        occupancy.add(2, 3, 9)  # busy, but not on the pe1 -> pe2 route
        assert errors(certify_schedule(
            chain, arch, table, model=self.MODEL, occupancy=occupancy
        )) == []

    def test_occupancy_needs_a_model(self, chain):
        arch, table = self.tight_case()
        with pytest.raises(AnalysisError, match="needs model"):
            certify_schedule(chain, arch, table,
                             occupancy=LinkOccupancy(arch))

    def test_contention_pipeline_winner_certifies(self):
        # the bottleneck acceptance case of test_contention_pipeline.py
        graph = layered_csdfg([3, 3, 3, 3], seed=7)
        arch = Ring(6)
        cfg = CycloConfig(validate_each_step=False)
        model = SerializedContention(weight=3)
        result = contention_aware_schedule(
            graph, arch, config=cfg, model=model
        )
        assert result.comm is not None and result.comm.contended
        found = certify_schedule(
            result.graph, arch, result.schedule,
            pipelined_pes=cfg.pipelined_pes,
            model=model, occupancy=result.comm.occupancy,
        )
        assert errors(found) == [], [d.render() for d in found]
