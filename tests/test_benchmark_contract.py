"""The benchmark's contract workloads, run through the CLI with their checks.

``perfbench/workloads.py`` builds each job's argv and the check its output
must pass; the benchmark refuses a change on which any job fails.  These
tests run the seed-1 and seed-2 ``henon-continue`` jobs and the whole
seed-1 ``solver-mix`` pass the same way the benchmark worker does, so such a
failure shows here first.  The workload module is imported, not changed.
"""

import importlib.util
from pathlib import Path

import pytest

from fracbvp import cli

WORKLOADS_PY = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"


@pytest.fixture(scope="module")
def workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads",
                                                  WORKLOADS_PY)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _failures(jobs, workdir):
    failures = []
    for k, job in enumerate(jobs):
        outdir = workdir / f"job{k:03d}"
        code = cli.main(job.argv + ["--out", str(outdir)])
        reason = f"exit code {code}" if code != 0 else job.check(outdir)
        if reason is not None:
            failures.append(f"{job.label} {' '.join(job.argv)}: {reason}")
    return failures


@pytest.mark.parametrize("seed", (1, 2))
def test_henon_continue_job_passes_its_check(workloads, tmp_path, seed):
    jobs = workloads.henon_continue(seed)
    assert len(jobs) == 1
    assert _failures(jobs, tmp_path) == []


def test_solver_mix_pass_passes_its_checks(workloads, tmp_path):
    jobs = workloads.solver_mix(1)
    assert len(jobs) == sum(count for sizes in workloads.MIX.values()
                            for count in sizes.values())
    assert _failures(jobs, tmp_path) == []
