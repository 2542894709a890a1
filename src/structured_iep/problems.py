"""JSON problem and polynomial files.

A problem file is the object that schemas/problem.schema.json describes; a
key it does not list is an error at every level.  Every report's ``config``
(spec_to_config) is such a file, the one that reproduces the report.  A
polynomial file is an object with ``coefficients`` (k+1 row-major
matrices) and optional ``n`` and ``k``, checked against the coefficients;
it may hold any other key, so a report is one.
"""

from __future__ import annotations

import json
import typing
from dataclasses import asdict

import numpy as np

from .errors import InvariantViolation, ProblemFormatError, real_vector
from .graphs import Graph
from .matpoly import MatrixPolynomial
from .seed import LeadingDiagonal, TargetSpectrum
from .solver import ProblemSpec, SolverControls

# the keys of each object of a problem file, as schemas/problem.schema.json lists them
_PROBLEM_FIELDS = ("n", "k", "proper_values", "leading", "graphs", "epsilon", "offdiag_overrides", "controls")
_GRAPH_FIELDS = ("edges",)
# control name -> the JSON types it accepts, one entry per SolverControls field
_CONTROL_KINDS = {
    name: typing.get_args(hint) or (hint,) for name, hint in typing.get_type_hints(SolverControls).items()
}


def _typed(val, where: str, *kinds):
    """``val``, of exactly one of ``kinds`` (so JSON true/false is not an
    integer); an integer where a float is allowed is returned as a float."""
    if float in kinds and type(val) is int:
        try:
            val = float(val)
        except OverflowError as exc:
            raise ProblemFormatError(f"{where}: {exc}") from exc
    if type(val) not in kinds:
        expected = " or ".join(t.__name__ for t in kinds)
        raise ProblemFormatError(f"{where}: expected {expected}, got {type(val).__name__}")
    return val


def _require(doc: dict, field: str, kind):
    if field not in doc:
        raise ProblemFormatError(f"missing field {field!r}")
    return _typed(doc[field], f"field {field!r}", kind)


def _numbers(val, where: str) -> np.ndarray:
    return np.array([_typed(v, f"{where}[{i}]", float) for i, v in enumerate(_typed(val, where, list))])


def _load_json(path: str):
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, ValueError) as exc:  # ValueError: malformed JSON or text encoding
        raise ProblemFormatError(f"{path}: {exc}") from exc


def _object(doc, where: str, fields=None) -> dict:
    """``doc``, a JSON object with no key outside ``fields`` (None: any key)."""
    if not isinstance(doc, dict):
        raise ProblemFormatError(f"{where} must be an object")
    unknown = set() if fields is None else set(doc) - set(fields)
    if unknown:
        raise ProblemFormatError(f"{where}: unknown field(s) {sorted(unknown)}")
    return doc


def _parse_graph_entry(entry, n: int, idx: int) -> Graph:
    where = f"graphs[{idx}]"
    entry = _object(entry, where, _GRAPH_FIELDS)
    try:
        # Graph rejects an edge that is not a pair of integer vertices
        return Graph(n=n, edges=tuple(_require(entry, "edges", list)))
    except (InvariantViolation, ProblemFormatError) as exc:
        raise ProblemFormatError(f"{where}: {exc}") from exc


def load_problem(path: str) -> ProblemSpec:
    """Load and validate a problem file.  A schema fault (unreadable JSON,
    a missing field, a value of the wrong JSON type, an unknown field at
    any level, a malformed graph) raises ProblemFormatError; a value the
    library rejects, out-of-range ``controls``, n < 1 and k < 1 included,
    raises InvariantViolation from the spec class that owns the rule."""
    doc = _object(_load_json(path), f"{path}: top level", _PROBLEM_FIELDS)
    n = _require(doc, "n", int)
    k = _require(doc, "k", int)
    values = _numbers(_require(doc, "proper_values", list), "proper_values")
    leading = _numbers(_require(doc, "leading", list), "leading")
    graphs_raw = _require(doc, "graphs", list)
    # before the graph count and the graphs, so that n < 1 or k < 1 is the
    # spectrum's error
    spectrum = TargetSpectrum(values=values, n=n, k=k)
    if len(graphs_raw) != k:
        raise ProblemFormatError(f"graphs: expected {k} entries, got {len(graphs_raw)}")
    epsilon = _typed(doc.get("epsilon", 0.5), "epsilon", float)

    ctl_doc = _object(doc.get("controls", {}), "controls", _CONTROL_KINDS)
    ctl_doc = {name: _typed(val, f"controls.{name}", *_CONTROL_KINDS[name]) for name, val in ctl_doc.items()}

    graphs = tuple(_parse_graph_entry(g, n, i) for i, g in enumerate(graphs_raw))

    offdiag = doc.get("offdiag_overrides")
    if offdiag is not None:
        if not isinstance(offdiag, list) or len(offdiag) != k:
            raise ProblemFormatError(f"offdiag_overrides: expected {k} entries")
        # a null entry stays None: ProblemSpec fills it with epsilon
        offdiag = tuple(
            None if y is None else _numbers(y, f"offdiag_overrides[{s}]") for s, y in enumerate(offdiag)
        )

    return ProblemSpec(
        spectrum=spectrum, lead=LeadingDiagonal(alpha_k=leading), graphs=graphs,
        epsilon=epsilon, offdiag_values=offdiag, controls=SolverControls(**ctl_doc),
    )


def load_polynomial(path: str) -> MatrixPolynomial:
    """Load a polynomial file; its optional ``n`` and ``k`` must be the
    coefficients' size and degree."""
    doc = _object(_load_json(path), f"{path}: top level")
    coeffs = _require(doc, "coefficients", list)
    mats = [
        [_numbers(row, f"coefficients[{s}][{i}]") for i, row in enumerate(_typed(c, f"coefficients[{s}]", list))]
        for s, c in enumerate(coeffs)
    ]
    try:
        P = MatrixPolynomial(tuple(np.array(rows) for rows in mats))
    except ValueError as exc:  # ragged rows, non-square or mismatched coefficients
        raise ProblemFormatError(f"{path}: bad coefficient matrices: {exc}") from exc
    for name, actual in (("n", P.n), ("k", P.degree)):
        if name in doc and _require(doc, name, int) != actual:
            raise ProblemFormatError(f"{path}: field {name!r} is {doc[name]}, the coefficients give {actual}")
    return P


def load_unknowns(path: str, nk: int) -> np.ndarray:
    """The kn diagonal unknowns from a JSON file holding a list of nk finite numbers."""
    expected = f"{path}: expected a list of {nk} finite numbers (the diagonal unknowns)"
    try:
        return real_vector("unknowns", _numbers(_load_json(path), "unknowns"), nk)
    except InvariantViolation:  # a wrong length or a non-finite number
        raise ProblemFormatError(expected) from None
    except ProblemFormatError as exc:
        raise ProblemFormatError(f"{expected}; {exc}") from exc


def spec_to_config(spec: ProblemSpec) -> dict:
    """The problem file of spec, defaults resolved: every report embeds it
    as ``config``, and load_problem reads it back to an equal spec."""
    return {
        "n": spec.n,
        "k": spec.k,
        "proper_values": spec.spectrum.values.tolist(),
        "leading": spec.lead.alpha_k.tolist(),
        "graphs": [{"edges": [list(e) for e in g.edges]} for g in spec.graphs],
        "epsilon": spec.epsilon,
        "offdiag_overrides": [y.tolist() for y in spec.offdiag_values],
        "controls": {**asdict(spec.controls), "newton_tol": spec.controls.resolved_tol(spec.spectrum)},
    }


def polynomial_to_doc(P: MatrixPolynomial) -> dict:
    return {
        "n": P.n,
        "k": P.degree,
        "coefficients": [c.tolist() for c in P.coeffs],
    }
