"""The documented examples run: README's library block and the two example
scripts, each as a user would start it; README's command lines parse."""

import contextlib
import io
import re
import shlex
import subprocess
import sys

from structured_iep import cli

from conftest import ROOT


def readme_block(section, language):
    """The first ```language block of README.md's section."""
    text = (ROOT / "README.md").read_text().split(f"\n## {section}\n", 1)[1]
    return re.search(rf"```{language}\n(.*?)```", text, re.S).group(1)


def run_script(*argv):
    return subprocess.run([sys.executable, str(ROOT / "scripts" / argv[0]), *argv[1:]],
                          capture_output=True, text=True, timeout=120)


def test_readme_library_block_runs():
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(readme_block("Library", "python"), "README.md", "exec"), {})
    residual, *values = out.getvalue().replace("[", " ").replace("]", " ").split()
    assert float(residual) <= 1e-10 and len(values) == 8


def test_readme_command_lines_parse():
    lines = [shlex.split(line, comments=True) for line in readme_block("Command line", "sh").splitlines()]
    commands = [argv[1:] for argv in lines if argv and argv[0] == "structured-iep"]
    assert len(commands) >= 4
    parser = cli.build_parser()
    for argv in commands:
        try:
            parser.parse_args(argv)
        except SystemExit:
            raise AssertionError(f"README command line does not parse: structured-iep {shlex.join(argv)}")


def test_run_demo_problems_exits_zero():
    proc = run_script("run_demo_problems.py")
    assert proc.returncode == 0, proc.stderr


def test_random_instances_exits_zero():
    proc = run_script("random_instances.py", "--count", "3")
    assert proc.returncode == 0, proc.stderr
    assert "3/3 converged" in proc.stdout
