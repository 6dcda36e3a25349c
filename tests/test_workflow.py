"""The CI workflow's smoke steps, each run as a test.

Every step of ``.github/workflows/tests.yml`` that has a ``run`` block,
except the install and the tier-1 run itself, runs as GitHub's ``shell:
bash`` does, under ``bash --noprofile --norc -eo pipefail``, with
``RUNNER_TEMP`` in a fresh temporary directory and, first on ``PATH``, a
``fusedstar`` console script that runs this checkout's CLI.  A step
passes when it exits 0.
"""

import os
import pathlib
import stat
import subprocess
import sys

import pytest
import yaml

ROOT = pathlib.Path(__file__).resolve().parent.parent
WORKFLOW = ROOT / ".github" / "workflows" / "tests.yml"
# the steps that install the package and run this suite
NOT_SMOKE = {"Install", "Tier-1 tests"}


def _smoke_steps():
    workflow = yaml.safe_load(WORKFLOW.read_text())
    return [
        pytest.param(step["run"], id=step["name"])
        for job in workflow["jobs"].values()
        for step in job["steps"]
        if "run" in step and step["name"] not in NOT_SMOKE
    ]


def _executable(path, text):
    path.write_text(text)
    path.chmod(path.stat().st_mode | stat.S_IXUSR)


@pytest.mark.parametrize("script", _smoke_steps())
def test_workflow_step(tmp_path, script):
    bin_dir = tmp_path / "bin"
    bin_dir.mkdir()
    # the console script, and the python that the steps call, are this
    # interpreter with this checkout's package
    _executable(
        bin_dir / "fusedstar",
        f'#!/bin/sh\nexec "{sys.executable}" -m fusedstar.cli "$@"\n',
    )
    (bin_dir / "python").symlink_to(sys.executable)
    env = dict(os.environ)
    env["PATH"] = os.pathsep.join([str(bin_dir), env.get("PATH", "")])
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), *filter(None, [env.get("PYTHONPATH")])]
    )
    env["RUNNER_TEMP"] = str(tmp_path)
    step = tmp_path / "step.sh"
    step.write_text(script)
    result = subprocess.run(
        ["bash", "--noprofile", "--norc", "-eo", "pipefail", str(step)],
        capture_output=True,
        text=True,
        env=env,
        cwd=ROOT,
        timeout=300,
    )
    assert result.returncode == 0, result.stderr
