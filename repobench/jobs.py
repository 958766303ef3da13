"""Benchmark workloads: job lists, job execution and output checks.

A *job* is one scheduling problem: a graph, a machine and a pass
budget.  The job list of a workload is a pure function of
``(workload, seed)`` (see :func:`job_list`); the program under test
only ever receives the graphs and machines built from it.

Why each workload (see ``NOTES.md`` for the measurements):

* ``kilonode`` -- seeded fork-join and ring graphs of 1-2k nodes on
  16-PE mesh, hypercube and torus machines with the scale tier's
  10-12-pass budgets.  Start-up list scheduling is 75-97% of job time,
  so this is where start-up work shows.  A ring or fork-join graph is
  fixed by one (time, volume) pair, and each size covers all nine, so
  the graphs are the same 27 under every seed; the seed picks the
  machines they meet and the job order.
* ``dsp-loops`` -- the 14 paper CSDFGs on the paper's five 8-PE
  machines (plus Figure 1 on its 2x2 mesh) with the default relaxed
  3|V| pass budget.  The pass loop (remapping, rotation, table
  shifts) dominates; start-up is a few percent, so it is the control
  workload for start-up work.  The graphs are fixed, so the seed only
  orders the jobs.
* ``contended`` -- seeded layered and ring graphs of 1k nodes on
  circulant, pancake and Cayley-star machines through the two-round
  contention-aware pipeline (serialised links, weight 2), which
  re-prices surcharged cache rows under a frozen link occupancy every
  round.  The nine rings are fixed as on ``kilonode``; the seed varies
  the layered graphs' content.
"""

from __future__ import annotations

import hashlib
import json
import random
from contextlib import nullcontext
from dataclasses import asdict, dataclass

__all__ = [
    "Job",
    "Outcome",
    "REFERENCE_CELLS",
    "WARMUP",
    "WORKLOADS",
    "build_arch",
    "build_graph",
    "check_outcome",
    "config_for",
    "fingerprint",
    "job_list",
    "job_list_digest",
    "lower_bound",
    "quality",
    "run_job",
]

WORKLOADS = ("kilonode", "dsp-loops", "contended")


@dataclass(frozen=True)
class Job:
    """One scheduling problem.

    ``graph`` is ``("sized", family, size, graph_seed)`` or
    ``("paper", workload_name)``; ``arch`` is ``(kind, num_pes)`` or
    ``("figure1-mesh", 4)``.  ``passes`` of ``None`` keeps the default
    relaxed ``3|V|`` budget.  ``contention`` > 0 runs the two-phase
    contention-aware pipeline with serialised links at that weight.
    ``reference`` pins ``(start-up length, final length)`` from
    EXPERIMENTS.md.
    """

    graph: tuple
    arch: tuple
    passes: int | None = None
    contention: int = 0
    reference: tuple[int, int] | None = None

    @property
    def label(self) -> str:
        g = self.graph
        gname = f"{g[1]}-{g[2]}-s{g[3]}" if g[0] == "sized" else g[1]
        suffix = f"+c{self.contention}" if self.contention else ""
        return f"{gname}@{self.arch[0]}{self.arch[1]}{suffix}"


# -- job lists ---------------------------------------------------------

#: (family, size, passes): the scale tier's 10-12-pass budgets.
#: fork-join-2000 is left out: a single 4 s job whose swing alone
#: decided a run.  Ring sizes between 1k and 2k made the median job
#: depend on which machine each graph met, so they are left out too.
_KILONODE_GRAPHS = (
    ("fork-join", 1000, 12),
    ("ring", 1000, 12),
    ("ring", 2000, 10),
)
_KILONODE_MACHINES = (("mesh", 16), ("hypercube", 16), ("torus", 16))

#: fork-join is left out: its aware phase alone takes 2-4 s.
_CONTENDED_LAYERED = ("layered", 1000, 12)
_CONTENDED_LAYERED_PER_MACHINE = 6
_CONTENDED_RING = ("ring", 1000, 12)
_CONTENDED_MACHINES = (("circulant", 16), ("pancake", 24), ("cayley-star", 24))
_CONTENTION_WEIGHT = 2

_PAPER_KINDS = ("complete", "linear", "ring", "mesh", "hypercube")

#: EXPERIMENTS FIG1-4 / TAB1-10 measured (start-up -> final) lengths.
REFERENCE_CELLS = {
    (("paper", "figure7"), ("complete", 8)): (13, 6),
    (("paper", "figure7"), ("linear", 8)): (14, 8),
    (("paper", "figure7"), ("ring", 8)): (14, 7),
    (("paper", "figure7"), ("mesh", 8)): (14, 7),
    (("paper", "figure7"), ("hypercube", 8)): (14, 6),
    (("paper", "figure1"), ("figure1-mesh", 4)): (7, 3),
}

#: Per workload, the job set-up runs once to warm lazy imports and
#: first-call paths: a fixed paper graph, so set-up cost does not
#: depend on which seeded job happens to come first.
WARMUP = {
    "kilonode": Job(("paper", "figure7"), ("mesh", 16)),
    "dsp-loops": Job(("paper", "figure7"), ("mesh", 8)),
    "contended": Job(
        ("paper", "figure7"), ("circulant", 16), contention=_CONTENTION_WEIGHT
    ),
}


def _stratified_seeds(rng: random.Random, family: str, size: int) -> list[int]:
    """One graph seed per (task time, edge volume) pair of a uniform
    family, in seeded order.

    Ring and fork-join instances draw a single time and volume in
    1..3 from their seed and are otherwise fixed, so their cost takes
    nine values; covering each once keeps the job mix (and hence the
    run's total work) the same from seed to seed.
    """
    from repro.qa import sample_sized_graph

    found: dict[tuple[int, int], int] = {}
    while len(found) < 9:
        seed = rng.randrange(1 << 30)
        graph = sample_sized_graph(family, size, seed=seed)
        edge = next(iter(graph.edges()))
        found.setdefault((graph.time(edge.src), edge.volume), seed)
    seeds = [found[k] for k in sorted(found)]
    rng.shuffle(seeds)
    return seeds


def job_list(workload: str, seed: int) -> list[Job]:
    """The jobs of ``workload`` for ``seed`` -- pure and byte-stable."""
    rng = random.Random(f"{workload}/{seed}")
    if workload == "kilonode":
        # each graph size meets all nine (time, volume) pairs, each on
        # two of the three machines; the seed picks which two
        jobs = [
            Job(("sized", fam, size, gseed), machine, passes)
            for fam, size, passes in _KILONODE_GRAPHS
            for gseed in _stratified_seeds(rng, fam, size)
            for machine in rng.sample(_KILONODE_MACHINES, 2)
        ]
    elif workload == "contended":
        fam, size, passes = _CONTENDED_RING
        jobs = [
            Job(
                ("sized", fam, size, gseed),
                _CONTENDED_MACHINES[i % 3],
                passes,
                contention=_CONTENTION_WEIGHT,
            )
            for i, gseed in enumerate(_stratified_seeds(rng, fam, size))
        ]
        fam, size, passes = _CONTENDED_LAYERED
        jobs += [
            Job(
                ("sized", fam, size, rng.randrange(1 << 30)),
                machine,
                passes,
                contention=_CONTENTION_WEIGHT,
            )
            for machine in _CONTENDED_MACHINES
            for _ in range(_CONTENDED_LAYERED_PER_MACHINE)
        ]
    elif workload == "dsp-loops":
        from repro.workloads import workload_names

        cells = [
            (("paper", name), (kind, 8))
            for name in workload_names()
            for kind in _PAPER_KINDS
        ]
        cells.append((("paper", "figure1"), ("figure1-mesh", 4)))
        jobs = [
            Job(g, a, reference=REFERENCE_CELLS.get((g, a))) for g, a in cells
        ]
    else:
        raise ValueError(f"unknown workload {workload!r}; known: {WORKLOADS}")
    rng.shuffle(jobs)
    return jobs


def job_list_digest(jobs: list[Job]) -> str:
    """SHA-256 of the canonical JSON of a job list."""
    blob = json.dumps([asdict(j) for j in jobs], sort_keys=True)
    return hashlib.sha256(blob.encode()).hexdigest()


# -- building inputs ---------------------------------------------------


def build_graph(spec: tuple):
    """The CSDFG a job spec names."""
    if spec[0] == "sized":
        from repro.qa import sample_sized_graph

        _, family, size, seed = spec
        return sample_sized_graph(family, size, seed=seed)
    from repro.workloads import make_workload

    return make_workload(spec[1])


def build_arch(spec: tuple):
    """The machine a job spec names."""
    kind, pes = spec
    if kind == "figure1-mesh":
        from repro.workloads import figure1_mesh

        return figure1_mesh()
    from repro.arch import make_architecture

    return make_architecture(kind, pes)


#: Above this size the iteration-bound term of ``length_lower_bound``
#: costs 5-19 s per graph (Lawler bisection in pure Python), more than
#: a whole run may take; larger graphs use the resource terms only.
_EXACT_BOUND_MAX_NODES = 200


def lower_bound(graph, arch) -> int:
    """Schedule-length floor ``B`` the quality ratios divide by.

    ``repro.analyze.config_rules.length_lower_bound`` on paper-sized
    graphs; on thousand-node graphs its two resource terms
    ``max(ceil(work / PEs), max t)`` (still a valid floor).
    """
    if graph.num_nodes <= _EXACT_BOUND_MAX_NODES:
        from repro.analyze.config_rules import length_lower_bound

        return length_lower_bound(graph, arch)
    alive = sum(1 for p in arch.processors if arch.is_alive(p))
    longest = max(graph.time(v) for v in graph.nodes())
    return max(1, -(-graph.total_work() // max(1, alive)), longest)


# -- running and checking ----------------------------------------------


@dataclass
class Outcome:
    """What one job produced: the schedule, the graph it belongs to
    (retimed), the cache that priced it and the contended bills.

    ``compacted_length`` is what cyclo-compaction reached: the final
    length of a plain run, the blind phase's final length in the
    contention-aware pipeline (whose winner minimises the contended
    bill, not the length).
    """

    schedule: object
    graph: object
    initial_length: int
    compacted_length: int
    comm: object = None
    blind_bill: int | None = None
    final_bill: int | None = None

    @property
    def final_length(self) -> int:
        return self.schedule.length


def config_for(job: Job):
    from repro.core import CycloConfig

    if job.contention:
        return CycloConfig(
            max_iterations=job.passes,
            validate_each_step=False,
            contention_model="serialized",
            contention_weight=job.contention,
            contention_rounds=2,
        )
    return CycloConfig(max_iterations=job.passes, validate_each_step=False)


def run_job(job: Job, graph, arch, config, tracer=None) -> Outcome:
    """Schedule one job (the timed region); ``tracer`` records the
    benchmark's own call into the engine as a span."""
    span = tracer.span if tracer else nullcontext
    if job.contention:
        from repro.core import contention_aware_schedule

        with span("pipeline"):
            res = contention_aware_schedule(graph, arch, config=config)
        return Outcome(
            schedule=res.schedule,
            graph=res.graph,
            initial_length=res.initial_length,
            compacted_length=res.blind.final_length,
            comm=res.comm,
            blind_bill=res.blind_cost,
            final_bill=res.final_cost,
        )
    from repro.core import cyclo_compact

    with span("cyclo"):
        res = cyclo_compact(graph, arch, config=config)
    return Outcome(
        schedule=res.schedule,
        graph=res.graph,
        initial_length=res.initial_length,
        compacted_length=res.final_length,
    )


def fingerprint(out: Outcome) -> str:
    """Digest of the lengths, placements and bills of an outcome."""
    rows = sorted(
        (str(p.node), p.pe, p.start, p.duration)
        for p in out.schedule.placements()
    )
    blob = repr(
        (
            out.initial_length,
            out.compacted_length,
            out.final_length,
            out.blind_bill,
            out.final_bill,
            rows,
        )
    )
    return hashlib.sha256(blob.encode()).hexdigest()


def check_outcome(job: Job, arch, out: Outcome, bound: int, timer) -> list[str]:
    """Every problem with ``out``; empty means correct.

    ``timer(name)`` returns a context manager timing the benchmark's
    own checks (kept out of job time).
    """
    from repro.analyze.schedule_cert import certify_schedule
    from repro.schedule.validate import collect_violations

    problems: list[str] = []
    with timer("validate"):
        # a plain cyclo run prices through a contention-free cache,
        # which is bit-identical to comm=None; a contended winner is
        # legal under the frozen-occupancy cache that priced it
        violations = collect_violations(
            out.graph, arch, out.schedule, comm=out.comm
        )
    problems += [f"illegal: {v}" for v in violations[:3]]
    with timer("cert"):
        findings = certify_schedule(out.graph, arch, out.schedule)
    problems += [
        f"certificate: {d.code} {d.message}"
        for d in findings
        if d.severity == "error"
    ][:3]
    if out.final_length < bound:
        problems.append(f"final length {out.final_length} below floor {bound}")
    if job.contention:
        if out.final_bill > out.blind_bill:
            problems.append(
                f"contended bill {out.final_bill} above blind {out.blind_bill}"
            )
    elif out.final_length > out.initial_length:
        problems.append(
            f"final length {out.final_length} above start-up "
            f"{out.initial_length}"
        )
    if job.reference is not None:
        got = (out.initial_length, out.final_length)
        if got != tuple(job.reference):
            problems.append(
                f"reference cell: {got[0]}->{got[1]}, EXPERIMENTS.md "
                f"says {job.reference[0]}->{job.reference[1]}"
            )
    return problems


def quality(job: Job, out: Outcome, bound: int) -> dict:
    """Per-job quality ratios (deterministic for a given job)."""
    bill = (
        out.final_bill / out.blind_bill
        if job.contention and out.blind_bill
        else 1.0
    )
    return {
        "final": out.compacted_length / bound,
        "winner": out.final_length / bound,
        "startup": out.initial_length / bound,
        "bill": bill,
    }
