#!/usr/bin/env python3
"""The repository benchmark: one workload, one seed, one process.

Run from the repository root::

    python3 repobench/run.py --workload kilonode --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off;
``--trace 1`` is the separate traced run that reports the per-layer
metrics.  Jobs run serially in this process.  Every job's output is
checked (validator under the pricing cache, independent certificate,
pinned EXPERIMENTS.md lengths); a failed job counts as an error, never
as a timing.  The last line of stdout is one JSON object
``{"correct", "attempted", "failed", "metrics"}``; the exit code is 0
only when every job was correct.  See ``NOTES.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import subprocess
import sys
import time
from contextlib import contextmanager, nullcontext
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
sys.path.insert(0, str(HERE))

import hostref  # noqa: E402
import jobs as jobs_mod  # noqa: E402
from stats import geomean, median, tail_percentile  # noqa: E402
from tracing import Tracer, layer_times  # noqa: E402

#: Set-up is repeated this often per run and its median reported.
SETUP_REPEATS = 5
#: Jobs timed between two reference loops (short paper-graph jobs are
#: batched so the loop costs a few percent of the batch).
BATCH_SIZE = {"dsp-loops": 12}
TRACE_DIR = HERE / "out"

DEFINITION = HERE.parent / "BENCHMARK.json"


def metric_units(section: str) -> dict[str, str]:
    """Metric name -> unit, in order, for ``section`` (``end_to_end``
    or ``per_layer``) of the benchmark definition."""
    spec = json.loads(DEFINITION.read_text())
    return {m["name"]: m["unit"] for m in spec[section]}


class _DiscardSink:
    """Turns the engine's metric counters on without keeping events."""

    def emit(self, event: dict) -> None:
        pass

    def close(self) -> None:
        pass


class Run:
    """State of one benchmark run: inputs, samples, failures, checks."""

    def __init__(self, workload: str, job_list: list) -> None:
        self.workload = workload
        self.jobs = job_list
        self.batch = BATCH_SIZE.get(workload, 1)
        self.graphs: dict = {}
        self.archs: dict = {}
        self.configs: dict = {}
        self.fingerprints: dict[int, str] = {}
        self.quality: dict[int, dict] = {}
        self.attempted = 0
        self.failures: list[str] = []
        self.refs: list[float] = []
        self.check_s = {"validate": 0.0, "cert": 0.0}

    # -- set-up --------------------------------------------------------
    def setup(self) -> dict:
        """Build every graph and machine and run the warm-up job;
        returns normalised seconds per part."""
        ref0 = hostref.reference_loop()
        graphs, archs = {}, {}
        t0 = time.perf_counter()
        for job in self.jobs:
            if job.graph not in graphs:
                graphs[job.graph] = jobs_mod.build_graph(job.graph)
        t1 = time.perf_counter()
        for job in self.jobs:
            if job.arch not in archs:
                archs[job.arch] = jobs_mod.build_arch(job.arch)
        t2 = time.perf_counter()
        self.graphs, self.archs = graphs, archs
        self.configs = {job: jobs_mod.config_for(job) for job in set(self.jobs)}
        warm = jobs_mod.WARMUP[self.workload]
        jobs_mod.run_job(
            warm,
            jobs_mod.build_graph(warm.graph),
            jobs_mod.build_arch(warm.arch),
            jobs_mod.config_for(warm),
        )
        t3 = time.perf_counter()
        ref = (ref0 + hostref.reference_loop()) / 2
        self.refs.append(ref)
        return {
            "graph": hostref.normalise(t1 - t0, ref),
            "arch": hostref.normalise(t2 - t1, ref),
            "total": hostref.normalise(t3 - t0, ref),
        }

    # -- one pass over the job list ------------------------------------
    def run_pass(self, tracer: Tracer | None, scale: list[float]) -> list[tuple]:
        """Run every job once; returns ``(index, nodes, raw_s, norm_s)``
        per correct execution."""
        samples = []
        for lo in range(0, len(self.jobs), self.batch):
            ref0 = hostref.reference_loop()
            span_mark = len(tracer.spans) if tracer else 0
            done = []
            for index in range(lo, min(lo + self.batch, len(self.jobs))):
                job = self.jobs[index]
                graph, arch = self.graphs[job.graph], self.archs[job.arch]
                self.attempted += 1
                span = tracer.span("job") if tracer else nullcontext()
                started = time.perf_counter()
                try:
                    with span:
                        out = jobs_mod.run_job(
                            job, graph, arch, self.configs[job], tracer
                        )
                except Exception as exc:
                    self.failures.append(f"{job.label}: {type(exc).__name__}: {exc}")
                    continue
                done.append((index, time.perf_counter() - started, out))
            ref = (ref0 + hostref.reference_loop()) / 2
            self.refs.append(ref)
            factor = hostref.R0 / ref
            if tracer:
                scale.extend([factor] * (len(tracer.spans) - span_mark))
            for index, raw_s, out in done:
                if self._check(index, out, factor):
                    graph = self.graphs[self.jobs[index].graph]
                    samples.append((index, graph.num_nodes, raw_s, raw_s * factor))
        return samples

    def _check(self, index: int, out, factor: float) -> bool:
        job = self.jobs[index]
        digest = jobs_mod.fingerprint(out)
        if index in self.fingerprints:
            if digest != self.fingerprints[index]:
                self.failures.append(f"{job.label}: schedule differs between passes")
                return False
            return True
        arch = self.archs[job.arch]
        bound = jobs_mod.lower_bound(self.graphs[job.graph], arch)

        @contextmanager
        def timer(name: str):
            started = time.perf_counter()
            yield
            self.check_s[name] += (time.perf_counter() - started) * factor

        problems = jobs_mod.check_outcome(job, arch, out, bound, timer)
        if problems:
            self.failures.append(f"{job.label}: " + "; ".join(problems))
            return False
        self.fingerprints[index] = digest
        self.quality[index] = jobs_mod.quality(job, out, bound)
        return True


def _passes(seconds: float, body) -> int:
    """Call ``body()`` (one pass or pass pair) while the next call
    would still end within ``seconds``; always at least once.  Whole
    passes keep the job mix identical however many fit.  Returns the
    number of calls."""
    started = time.perf_counter()
    calls = 0
    while True:
        t = time.perf_counter()
        body()
        calls += 1
        took = time.perf_counter() - t
        if time.perf_counter() - started + took > seconds:
            return calls


_IMPORTS = (
    "repro.analyze.config_rules",
    "repro.analyze.schedule_cert",
    "repro.arch",
    "repro.core",
    "repro.qa",
    "repro.schedule.validate",
    "repro.workloads",
)


def import_seconds() -> float:
    """Normalised seconds a fresh interpreter takes to import what a
    job needs (imports happen once per process, so set-up repeats them
    in child interpreters)."""
    code = (
        "import time; t = time.perf_counter()\n"
        + "".join(f"import {m}\n" for m in _IMPORTS)
        + "print(time.perf_counter() - t)"
    )
    env = dict(os.environ, PYTHONPATH=str(SRC))
    ref0 = hostref.reference_loop()
    proc = subprocess.run(
        [sys.executable, "-c", code],
        env=env,
        capture_output=True,
        text=True,
        check=True,
        timeout=120,
    )
    ref = (ref0 + hostref.reference_loop()) / 2
    return hostref.normalise(float(proc.stdout.strip().splitlines()[-1]), ref)


def measure(
    workload: str,
    seed: int,
    seconds: float,
    *,
    trace: bool = False,
    job_list: list | None = None,
) -> dict:
    """Run one benchmark measurement; returns the result object."""
    from repro.obs import metrics
    from repro.obs.runtime import sink_installed

    import_s = median([import_seconds() for _ in range(SETUP_REPEATS)])
    if job_list is None:
        job_list = jobs_mod.job_list(workload, seed)
    run = Run(workload, job_list)
    setups = [run.setup() for _ in range(SETUP_REPEATS)]

    untraced: list[tuple] = []
    traced: list[tuple] = []
    tracer = Tracer() if trace else None
    scale: list[float] = []
    counters: dict = {}
    traced_passes = 0

    if not trace:
        _passes(seconds, lambda: untraced.extend(run.run_pass(None, scale)))
    else:
        metrics.reset()

        def pair() -> None:
            untraced.extend(run.run_pass(None, scale))
            with sink_installed(_DiscardSink()), tracer.installed():
                traced.extend(run.run_pass(tracer, scale))

        traced_passes = _passes(seconds, pair)
        counters = metrics.snapshot()["counters"]
        metrics.reset()

    result = {
        "correct": not run.failures,
        "attempted": run.attempted,
        "failed": len(run.failures),
        "errors": run.failures,
    }
    if not untraced or (trace and not traced):
        result["metrics"] = {}
        return result
    if trace:
        values = _per_layer(
            run, setups, untraced, traced, tracer, scale, counters, traced_passes
        )
        units = metric_units("per_layer")
        TRACE_DIR.mkdir(exist_ok=True)
        path = TRACE_DIR / f"trace-{workload}-s{seed}.json"
        path.write_text(json.dumps({"spans": tracer.spans, "scale": scale}))
    else:
        values = _end_to_end(run, import_s, setups, untraced)
        units = metric_units("end_to_end")
    result["metrics"] = {
        name: {"value": values[name], "unit": unit} for name, unit in units.items()
    }
    return result


def _end_to_end(run: Run, import_s: float, setups: list, samples: list) -> dict:
    q = [run.quality[i] for i in sorted(run.quality)]
    norm = [s[3] for s in samples]
    return {
        "nodes_per_s": sum(s[1] for s in samples) / sum(norm),
        "job_p50_s": median(norm),
        "setup_s": import_s + median([s["total"] for s in setups]),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "ok_rate": (run.attempted - len(run.failures)) / run.attempted,
        "final_len_ratio": geomean([r["final"] for r in q]),
        "startup_len_ratio": geomean([r["startup"] for r in q]),
        # a median, not a geometric mean: an aware round can cut a
        # layered job's bill 1000-fold, so the geometric mean moved
        # 0.10-0.49 from seed to seed while the median held within 2%
        "contended_bill_ratio": median([r["bill"] for r in q]),
    }


def _per_layer(
    run: Run,
    setups: list,
    untraced: list,
    traced: list,
    tracer: Tracer,
    scale: list[float],
    counters: dict,
    passes: int,
) -> dict:
    """Per-layer metrics, per traced pass over the job list."""
    layers = layer_times(tracer.spans, scale)

    def incl(name: str) -> float:
        return layers.get(name, {}).get("incl_s", 0.0) / passes

    def own(name: str) -> float:
        return layers.get(name, {}).get("self_s", 0.0) / passes

    def calls(name: str) -> float:
        return layers.get(name, {}).get("calls", 0) / passes

    def count(name: str) -> float:
        return counters.get(name, 0) / passes

    job_s = sum(s[3] for s in traced) / passes
    hits, misses = counters.get("arch.cache.hits", 0), counters.get("arch.cache.misses", 0)
    n_passes = counters.get("cyclo.passes", 0)
    try:
        tail_q, tail_s = tail_percentile([s[3] for s in untraced])
    except ValueError:
        tail_q, tail_s = 0, 0.0
    return {
        "core.startup.s": own("startup"),
        "core.startup.share": own("startup") / job_s,
        "core.startup.pf_evaluations": count("startup.pf_evaluations"),
        "core.startup.deferrals": count("startup.deferrals"),
        "core.rotation.s": own("rotation"),
        "core.remapping.s": own("remapping"),
        "core.remapping.accept_rate": (
            counters.get("cyclo.accepted", 0) / n_passes if n_passes else 0.0
        ),
        "core.psl.init_s": own("psl.init"),
        "core.cyclo.self_s": own("cyclo"),
        "core.cyclo.passes": count("cyclo.passes"),
        "core.pipeline.blind_s": incl("cyclo:blind"),
        "core.pipeline.aware_s": incl("cyclo:aware"),
        "core.pipeline.rounds": calls("cyclo:aware"),
        "core.pipeline.winner_len_ratio": median(
            [q["winner"] for q in run.quality.values()]
        ),
        "arch.contention.freeze_s": incl("freeze"),
        "arch.contention.bill_s": incl("bill"),
        "arch.cache.build_s": incl("cache.build") + incl("cache.row"),
        "arch.cache.builds": calls("cache.build"),
        "arch.cache.hit_rate": hits / (hits + misses) if hits + misses else 0.0,
        "schedule.table.probes": count("schedule.table.probes"),
        "schedule.table.shifts": count("schedule.table.shifts"),
        "graph.build_s": median([s["graph"] for s in setups]),
        "arch.build_s": median([s["arch"] for s in setups]),
        "schedule.validate.s": run.check_s["validate"],
        "analyze.cert_s": run.check_s["cert"],
        "host.ref_s": median(run.refs),
        "raw.nodes_per_s": sum(s[1] for s in untraced) / sum(s[2] for s in untraced),
        # passes alternate untraced/traced, so both sums cover the
        # same jobs the same number of times
        "obs.trace_overhead": (
            sum(s[3] for s in traced) / sum(s[3] for s in untraced) - 1.0
        ),
        "job.count": len(untraced),
        "job.tail_pct": tail_q,
        "job.tail_s": tail_s,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=jobs_mod.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: package sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    result = measure(args.workload, args.seed, args.seconds, trace=bool(args.trace))
    errors = result.pop("errors")
    for line in errors:
        print(f"error: {line}", file=sys.stderr)
    for name, m in result["metrics"].items():
        print(f"{name:30s} {m['value']:.6g} {m['unit']}")
    print(json.dumps(result))
    return 0 if result["correct"] and result["metrics"] else 1


if __name__ == "__main__":
    sys.exit(main())
