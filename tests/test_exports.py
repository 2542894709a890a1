"""Every name the package exports is used by the package itself, by the
scripts or by the benchmark: an export that nothing calls is dead code."""

import ast

import structured_iep
from conftest import ROOT
from test_trace import load_layers

# references for the finite-difference cross-check: only the tests call them
FD_GATE = ("eigderivative", "jacobian_fd")


def used_names():
    """Every identifier read, attribute accessed or name imported by the
    code under src/ (except the package's __init__), scripts/ and
    perfbench/, and the function name of every traced site in SITES."""
    files = [p for p in (ROOT / "src" / "structured_iep").glob("*.py") if p.name != "__init__.py"]
    files += [*(ROOT / "scripts").glob("*.py"), *(ROOT / "perfbench").glob("*.py")]
    names = {site.rsplit(".", 1)[-1] for site in load_layers().SITES}
    for path in files:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.alias):
                names.add(node.name)
    return names


def test_every_export_has_a_use():
    assert set(FD_GATE) <= set(structured_iep.__all__)
    unused = sorted(set(structured_iep.__all__) - used_names() - set(FD_GATE))
    assert not unused, f"exported, but used nowhere in src/, scripts/ or perfbench/: {unused}"
