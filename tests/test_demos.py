"""Each narrative script in demos/ runs to completion against the package
in src/: the demos use the public names, so a deleted or renamed one
breaks them."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import rqtgap

DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))


def test_demos_exist():
    assert DEMOS


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_runs(demo):
    env = dict(os.environ, PYTHONPATH=str(Path(rqtgap.__file__).parents[1]))
    proc = subprocess.run(
        [sys.executable, str(demo)], capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert "Traceback" not in proc.stderr


def test_readme_library_tour_runs():
    # The README's tour names public functions; one that is deleted or
    # renamed fails here.
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    tour = readme.split("## Library tour", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
    assert "import rqtgap" in tour
    exec(compile(tour, "README.md (Library tour)", "exec"), {})
