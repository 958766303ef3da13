"""Tests of the benchmark itself: job lists, error accounting, the
percentile helper, tracing and the self-time computation.

Run from the repository root: ``python3 -m pytest repobench/tests -q``.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import jobs
import run
from stats import MIN_TAIL, geomean, percentile, tail_percentile
from tracing import Tracer, layer_times

BENCH = Path(__file__).resolve().parents[1]

FIGURE1 = (("paper", "figure1"), ("figure1-mesh", 4))


# -- job lists ---------------------------------------------------------


def _content(spec: tuple) -> str:
    """Digest of a graph's nodes, times and edges (not its name)."""
    g = jobs.build_graph(spec)
    nodes = sorted((str(v), g.time(v)) for v in g.nodes())
    edges = sorted((str(e.src), str(e.dst), e.delay, e.volume) for e in g.edges())
    return hashlib.sha256(repr((nodes, edges)).encode()).hexdigest()


def _contents(job_list, family=None) -> set[str]:
    return {_content(j.graph) for j in job_list if family in (None, j.graph[1])}


@pytest.mark.parametrize("workload", jobs.WORKLOADS)
def test_job_list_is_a_pure_function_of_workload_and_seed(workload):
    first = jobs.job_list(workload, 7)
    assert first == jobs.job_list(workload, 7)
    assert len(first) >= 20
    assert jobs.job_list_digest(first) == jobs.job_list_digest(
        jobs.job_list(workload, 7)
    )
    assert jobs.job_list_digest(first) != jobs.job_list_digest(
        jobs.job_list(workload, 8)
    )


def test_what_the_seed_varies():
    # ring and fork-join graphs are fixed by one (time, volume) pair,
    # and the stratified draw covers all nine: kilonode and the
    # contended rings are the same graphs under every seed, and the
    # seed picks only their machines and the job order
    k7, k8 = jobs.job_list("kilonode", 7), jobs.job_list("kilonode", 8)
    assert len(_contents(k7)) == 27
    assert _contents(k7) == _contents(k8)
    placed = {(_content(j.graph), j.arch) for j in k7}
    assert placed != {(_content(j.graph), j.arch) for j in k8}
    c7, c8 = jobs.job_list("contended", 7), jobs.job_list("contended", 8)
    assert len(_contents(c7, "ring")) == 9
    assert _contents(c7, "ring") == _contents(c8, "ring")
    # the layered graphs are where the seed changes graph content
    assert not _contents(c7, "layered") & _contents(c8, "layered")


def test_job_list_bytes_are_stable_across_processes():
    code = (
        "import jobs; print(' '.join(jobs.job_list_digest(jobs.job_list(w, 3))"
        " for w in jobs.WORKLOADS))"
    )
    env = dict(os.environ, PYTHONHASHSEED="12345")
    env["PYTHONPATH"] = os.pathsep.join([str(BENCH), str(BENCH.parent / "src")])
    out = subprocess.run(
        [sys.executable, "-c", code],
        env=env,
        capture_output=True,
        text=True,
        check=True,
        timeout=120,
    ).stdout.split()
    assert out == [jobs.job_list_digest(jobs.job_list(w, 3)) for w in jobs.WORKLOADS]


def test_dsp_loops_pins_every_experiments_reference_cell():
    pinned = {(j.graph, j.arch): j.reference for j in jobs.job_list("dsp-loops", 1)}
    for cell, lengths in jobs.REFERENCE_CELLS.items():
        assert pinned[cell] == lengths


# -- error accounting --------------------------------------------------


def test_an_injected_failing_job_counts_as_an_error():
    good = jobs.Job(*FIGURE1, reference=(7, 3))
    wrong = jobs.Job(*FIGURE1, reference=(7, 4))  # EXPERIMENTS says 7 -> 3
    result = run.measure("dsp-loops", 1, 0.0, job_list=[good, wrong])
    assert result["attempted"] == 2
    assert result["failed"] == 1
    assert not result["correct"]
    assert "reference cell" in result["errors"][0]
    assert result["metrics"]["ok_rate"]["value"] == 0.5


def test_a_failed_run_exits_non_zero(monkeypatch, capsys):
    def failing(*args, **kwargs):
        return {
            "correct": False,
            "attempted": 1,
            "failed": 1,
            "errors": ["x: boom"],
            "metrics": {},
        }

    monkeypatch.setattr(run, "measure", failing)
    code = run.main(["--workload", "dsp-loops", "--seed", "1", "--seconds", "1"])
    assert code == 1
    assert json.loads(capsys.readouterr().out.splitlines()[-1])["failed"] == 1


def test_without_the_package_sources_the_benchmark_fails_fast(tmp_path):
    # the benchmark definition and its own directory, nothing else
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(
        BENCH,
        tmp_path / BENCH.name,
        ignore=shutil.ignore_patterns("out", "__pycache__"),
    )
    proc = subprocess.run(
        [sys.executable, f"{BENCH.name}/run.py", "--workload", "kilonode",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


# -- percentiles ---------------------------------------------------------


def test_percentile_refuses_a_tail_with_fewer_than_ten_samples_beyond():
    with pytest.raises(ValueError, match="beyond"):
        percentile(list(range(50)), 90)  # 5 samples beyond p90
    assert percentile(list(range(101)), 90) == 90  # exactly 10 beyond
    with pytest.raises(ValueError):
        percentile(list(range(100)), 95)


def test_geomean():
    assert geomean([1.0, 4.0]) == pytest.approx(2.0)
    assert geomean([3.0]) == pytest.approx(3.0)
    with pytest.raises(ValueError):
        geomean([])


def test_tail_percentile_picks_the_highest_supported_percentile():
    assert tail_percentile(list(range(1000)))[0] == 99
    assert tail_percentile(list(range(200)))[0] == 90
    assert tail_percentile(list(range(30)))[0] == 50
    with pytest.raises(ValueError):
        tail_percentile(list(range(2 * MIN_TAIL - 1)))


# -- tracing -------------------------------------------------------------


def _fingerprints(job_list, tracer=None):
    from repro.obs.runtime import sink_installed

    out = []
    for job in job_list:
        graph, arch = jobs.build_graph(job.graph), jobs.build_arch(job.arch)
        cfg = jobs.config_for(job)
        if tracer is None:
            res = jobs.run_job(job, graph, arch, cfg)
        else:
            with sink_installed(run._DiscardSink()), tracer.installed():
                res = jobs.run_job(job, graph, arch, cfg, tracer)
        out.append(jobs.fingerprint(res))
    return out


def test_traced_and_untraced_runs_give_identical_schedules():
    from repro.core import cyclo, pipeline

    sample = [
        jobs.Job(*FIGURE1),
        jobs.Job(("paper", "figure7"), ("mesh", 8)),
        jobs.Job(("sized", "ring", 300, 5), ("circulant", 16), 4, contention=2),
    ]
    original = cyclo.start_up_schedule, pipeline.cyclo_compact
    tracer = Tracer()
    assert _fingerprints(sample) == _fingerprints(sample, tracer)
    # every patched import site is restored
    assert (cyclo.start_up_schedule, pipeline.cyclo_compact) == original
    names = {s[0] for s in tracer.spans}
    assert {"cyclo", "pipeline", "startup", "rotation", "remapping",
            "psl.init", "cache.build", "cache.row", "freeze", "bill"} <= names
    phases = {s[4] for s in tracer.spans if s[0] == "cyclo"}
    assert {"blind", "aware"} <= phases


def test_self_time_subtracts_the_time_children_cover():
    spans = [
        ("job", 0.0, 10.0, -1, ""),
        ("cyclo", 1.0, 9.0, 0, "blind"),
        ("startup", 1.0, 4.0, 1, ""),
        ("remapping", 5.0, 7.0, 1, ""),
    ]
    layers = layer_times(spans)
    assert layers["job"]["self_s"] == 2.0
    assert layers["cyclo"]["self_s"] == 3.0
    assert layers["cyclo:blind"]["incl_s"] == 8.0
    assert layers["startup"]["self_s"] == 3.0
    doubled = layer_times(spans, scale=[2.0] * 4)
    assert doubled["cyclo"]["self_s"] == 6.0
