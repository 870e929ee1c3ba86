"""The benchmark's contract workloads, run through the CLI with their checks.

``perfbench/workloads.py`` builds each job's argv and the check its output
must pass; the benchmark refuses a change on which any job fails.  These
tests run the seed-1 and seed-2 ``henon-continue`` jobs and the whole
seed-1 ``solver-mix`` pass the same way the benchmark worker does, so such a
failure shows here first.  The workload module is imported, not changed.
"""

import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

from fracbvp import cli

ROOT = Path(__file__).resolve().parents[1]
WORKLOADS_PY = ROOT / "perfbench" / "workloads.py"


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


def _run_traced(argv, expected):
    """Run ``cli.main(argv)`` in a fresh process with the benchmark's span
    recorder installed (its wrappers stay installed for the process), and
    check that it exits 0 and records a span of every name in ``expected``."""
    script = "\n".join([
        "import sys",
        f"sys.path.insert(0, {str(ROOT / 'perfbench')!r})",
        "import spans",
        "recorder = spans.Recorder()",
        "recorder.install()",
        "from fracbvp import cli",
        f"code = cli.main({argv!r})",
        "names = {span[2] for span in recorder.spans}",
        "assert code == 0, code",
        f"assert {set(expected)!r} <= names, names",
    ])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(ROOT / "src")] + [p for p in [os.environ.get("PYTHONPATH")] if p])}
    result = subprocess.run([sys.executable, "-c", script], env=env,
                            capture_output=True, text=True)
    assert result.returncode == 0, result.stderr


def test_traced_solve_super_runs(tmp_path):
    # the traced benchmark run wraps the layers from outside, by name:
    # superlinear.lu_factor and numpy.linalg.svd among them
    _run_traced(["solve-super", "--alpha", "1.7", "--weight", "constant:1",
                 "--nonlin", "power:1:2", "--n", "100",
                 "--out", str(tmp_path / "run")],
                {"superlinear.newton_solve", "superlinear.nondegeneracy"})


def test_traced_henon_shoot_runs(tmp_path):
    # every shot runs on the lane integrator: the scan inside
    # find_crossings, the polish and the crossing records in polish_crossings
    _run_traced(["henon-shoot", "--beta-min", "50", "--beta-max", "300",
                 "--scan-points", "60", "--out", str(tmp_path / "run")],
                {"shooting.find_crossings", "shooting.polish_crossings"})
