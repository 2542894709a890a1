"""The documented examples run: README's library block and the two example
scripts, each as a user would start it."""

import contextlib
import io
import re
import subprocess
import sys

from conftest import ROOT


def readme_library_block():
    """The ```python block of README.md's Library section."""
    library = (ROOT / "README.md").read_text().split("\n## Library\n", 1)[1]
    return re.search(r"```python\n(.*?)```", library, re.S).group(1)


def run_script(*argv):
    return subprocess.run([sys.executable, str(ROOT / "scripts" / argv[0]), *argv[1:]],
                          capture_output=True, text=True, timeout=120)


def test_readme_library_block_runs():
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(readme_library_block(), "README.md", "exec"), {})
    residual, *values = out.getvalue().replace("[", " ").replace("]", " ").split()
    assert float(residual) <= 1e-10 and len(values) == 8


def test_run_demo_problems_exits_zero():
    proc = run_script("run_demo_problems.py")
    assert proc.returncode == 0, proc.stderr


def test_random_instances_exits_zero():
    proc = run_script("random_instances.py", "--count", "3")
    assert proc.returncode == 0, proc.stderr
    assert "3/3 converged" in proc.stdout
