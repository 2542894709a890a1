"""Every name the package exports is used by the package itself, by the
scripts or by the benchmark, and every name a package module imports is
read there: an export that nothing calls, or an import that nothing
reads, is dead code.  And no package module imports another's private
name: each concept has one owning module."""

import ast

import structured_iep
from conftest import ROOT
from test_trace import load_layers


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
    unused = sorted(set(structured_iep.__all__) - used_names())
    assert not unused, f"exported, but used nowhere in src/, scripts/ or perfbench/: {unused}"


# the one import read nowhere in its module outside the traced ones:
# test_trace.py's, which puts problems.load_problem in sys.modules for the
# tracer's site
UNREAD_IMPORTS = {"test_trace.py": {"problems"}}


def test_every_import_is_read():
    # a module of src/, tests/ or scripts/ may hold an import it never
    # reads only where the tracer (SITES) wraps that name at that module
    # and refuses to run without it, or where UNREAD_IMPORTS names it
    sites = load_layers().SITES
    files = [p for p in (ROOT / "src" / "structured_iep").glob("*.py") if p.name != "__init__.py"]
    files += [*(ROOT / "tests").glob("*.py"), *(ROOT / "scripts").glob("*.py")]
    unread, excused = set(), set()
    for path in files:
        traced = {site.rsplit(".", 1)[-1] for site, modules in sites.items() if path.stem in modules}
        tree = ast.parse(path.read_text(), str(path))
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", None) != "__future__":
                for alias in node.names:
                    name = alias.asname or alias.name.split(".")[0]
                    if name in read or name in traced:
                        continue
                    if name in UNREAD_IMPORTS.get(path.name, ()):
                        excused.add((path.name, name))
                    else:
                        unread.add(f"{path.relative_to(ROOT)}:{node.lineno} {name}")
    assert not unread, f"imported, but read nowhere in the module: {sorted(unread)}"
    # and each exception is still needed
    assert excused == {(module, name) for module, names in UNREAD_IMPORTS.items() for name in names}


def test_no_module_imports_a_private_name_of_another():
    private = []
    for path in sorted((ROOT / "src" / "structured_iep").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.ImportFrom) and (node.level or (node.module or "").startswith("structured_iep")):
                private += [f"{path.name}: {node.module}.{a.name}" for a in node.names if a.name.startswith("_")]
    assert not private, f"private names imported across modules: {private}"


def test_only_matpoly_lays_out_the_companion():
    # the companion is matpoly's business: everything else hands it
    # coefficients, so no other reader of that layout can creep back in
    files = [*(ROOT / "src" / "structured_iep").glob("*.py"), *(ROOT / "scripts").glob("*.py"),
             *(ROOT / "perfbench").glob("*.py")]
    users = set()
    for path in files:
        if path.name == "matpoly.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            name = getattr(node, "id", None) or getattr(node, "attr", None) or getattr(node, "name", None)
            if isinstance(node, (ast.Name, ast.Attribute, ast.alias)) and name == "companion_layout":
                users.add(path.name)
    assert not users, f"companion_layout used outside matpoly: {sorted(users)}"


def test_only_sensitivity_owns_the_denominator_check():
    # the Rayleigh quotient's denominators are sensitivity's business: no
    # other module reads their threshold or raises their failure
    offenders = set()
    for path in (ROOT / "src" / "structured_iep").glob("*.py"):
        if path.name == "sensitivity.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            name = getattr(node, "id", None) or getattr(node, "attr", None) or getattr(node, "name", None)
            if isinstance(node, (ast.Name, ast.Attribute, ast.alias)) and name == "DENOM_TOL":
                offenders.add(f"{path.name}: DENOM_TOL")
            if isinstance(node, ast.Raise) and node.exc is not None:
                raised = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                if "DegenerateDenominator" in (getattr(raised, "id", None), getattr(raised, "attr", None)):
                    offenders.add(f"{path.name}: raise DegenerateDenominator")
    assert not offenders, f"denominator check outside sensitivity: {sorted(offenders)}"


def test_only_matpoly_calls_lapack():
    # every eigensolve and linear solve goes through matpoly.lapack: no
    # other module names numpy's private gufuncs or its private error state,
    # or calls the public wrappers the kernel stands in for (cli's and
    # sensitivity's np.linalg.cond only reports a condition number)
    kernel_kinds = {"eig", "eigvals", "eigh", "eigvalsh", "solve"}
    private = {"_umath_linalg", "_extobj_contextvar", "_make_extobj"}
    offenders = set()
    for path in (ROOT / "src" / "structured_iep").glob("*.py"):
        if path.name == "matpoly.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            name = getattr(node, "id", None) or getattr(node, "attr", None) or getattr(node, "name", None)
            if isinstance(node, (ast.Name, ast.Attribute, ast.alias)) and name in private:
                offenders.add(f"{path.name}:{node.lineno} {name}")
            if (isinstance(node, ast.Attribute) and node.attr in kernel_kinds
                    and getattr(node.value, "attr", getattr(node.value, "id", None)) == "linalg"):
                offenders.add(f"{path.name}:{node.lineno} linalg.{node.attr}")
            if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("numpy.linalg"):
                offenders.update(f"{path.name}:{node.lineno} from {node.module} import {a.name}"
                                 for a in node.names if a.name in kernel_kinds)
    assert not offenders, f"LAPACK or its error state outside matpoly's kernel: {sorted(offenders)}"


def test_only_errors_owns_the_finite_real_rules():
    # "a finite real number" and "a finite real vector" are errors.py's
    # check_real and real_vector: no other module reads a dtype's kind or
    # tests finiteness after check_real (cli's _finite_or_null writes JSON
    # nulls, it checks no argument)
    offenders = set()
    for path in (ROOT / "src" / "structured_iep").glob("*.py"):
        if path.name == "errors.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if not isinstance(node, ast.Attribute):
                continue
            if node.attr == "kind" and isinstance(node.value, ast.Attribute) and node.value.attr == "dtype":
                offenders.add(f"{path.name}:{node.lineno} .dtype.kind")
            if (node.attr == "isfinite" and getattr(node.value, "id", None) == "math"
                    and path.name != "cli.py"):
                offenders.add(f"{path.name}:{node.lineno} math.isfinite")
    assert not offenders, f"input rules outside errors.py: {sorted(offenders)}"


def test_only_the_solver_writes_the_failure_text():
    # "<kind> at tau=<tau>: <detail>" is written once, by continuation_solve,
    # and parsed nowhere: the CLI's exit code and the scripts read the kind
    # and tau of the report's last Corrector record.  So no string constant
    # but a docstring (a string statement), outside solver.py and the
    # package's __init__ (whose __all__ names the classes), may hold
    # "at tau=" or the name of an errors.py class
    errors = ast.parse((ROOT / "src" / "structured_iep" / "errors.py").read_text())
    needles = ("at tau=", *(node.name for node in errors.body if isinstance(node, ast.ClassDef)))
    offenders = set()
    for path in [*(ROOT / "src" / "structured_iep").glob("*.py"), *(ROOT / "scripts").glob("*.py")]:
        if path.name in ("solver.py", "__init__.py"):
            continue
        tree = ast.parse(path.read_text(), str(path))
        docstrings = {id(node.value) for node in ast.walk(tree) if isinstance(node, ast.Expr)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Constant) and isinstance(node.value, str) and id(node) not in docstrings:
                offenders.update(f"{path.name}:{node.lineno} {needle!r}" for needle in needles if needle in node.value)
    assert not offenders, f"failure text written or parsed outside solver.py: {sorted(offenders)}"


def test_bad_input_has_one_error_class():
    # bad input to a library entry point raises InvariantViolation (a
    # ValueError too): no module raises a bare ValueError, and no call
    # hands errors.py's input rules another error class, positionally or
    # as error=
    arity = {"check_integer": 2, "check_real": 2, "check_positive": 2, "real_vector": 3}  # name, value[, length]
    offenders = set()
    for path in (ROOT / "src" / "structured_iep").glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Raise) and node.exc is not None:
                raised = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                if "ValueError" in (getattr(raised, "id", None), getattr(raised, "attr", None)):
                    offenders.add(f"{path.name}:{node.lineno} raise ValueError")
            if isinstance(node, ast.Call):
                rule = getattr(node.func, "id", None) or getattr(node.func, "attr", None)
                if rule in arity and (len(node.args) > arity[rule] or any(kw.arg == "error" for kw in node.keywords)):
                    offenders.add(f"{path.name}:{node.lineno} {rule} given an error class")
    assert not offenders, f"bad input raised as another class: {sorted(offenders)}"


def test_only_matpoly_checks_the_polynomial_rule():
    # the theorem's hypothesis is MatrixPolynomial.checked_row's: no other
    # module stacks a coefficient row from .coeffs or compares a matrix with
    # its transpose, and the rule's message is written once
    stackers = {"hstack", "concatenate", "block", "column_stack"}
    comparers = {"array_equal", "array_equiv", "allclose", "isclose"}

    def called(node):
        return getattr(node.func, "attr", None) or getattr(node.func, "id", None)

    def transposed(node):
        return ((isinstance(node, ast.Attribute) and node.attr == "T")
                or (isinstance(node, ast.Call) and called(node) in ("transpose", "swapaxes")))

    offenders, messages = set(), 0
    for path in (ROOT / "src" / "structured_iep").glob("*.py"):
        source = path.read_text()
        messages += source.count("polynomial coefficients must be finite and symmetric")
        if path.name == "matpoly.py":
            continue
        for node in ast.walk(ast.parse(source, str(path))):
            inside = list(ast.walk(node))
            if isinstance(node, ast.Call) and called(node) in stackers and any(
                    isinstance(n, ast.Attribute) and n.attr == "coeffs" for n in inside):
                offenders.add(f"{path.name}:{node.lineno} coefficient row from .coeffs")
            if (isinstance(node, ast.Compare) or (isinstance(node, ast.Call) and called(node) in comparers)) and any(
                    transposed(n) for n in inside):
                offenders.add(f"{path.name}:{node.lineno} symmetry test")
    assert not offenders, f"the polynomial rule outside matpoly: {sorted(offenders)}"
    assert messages == 1
