"""JSON problem and polynomial files.

Problem schema (see schemas/problem.schema.json):

    {
      "n": 4, "k": 2,
      "proper_values": [nk doubles, input order],
      "leading": [n positive doubles],
      "graphs": [k entries {"edges": [[i, j], ...]}],
      "epsilon": 0.5,
      "offdiag_overrides": [per-graph arrays or null],      // optional
      "controls": {"newton_tol": ..., "max_iter": ...}       // optional
    }

Polynomial schema: {"n": ..., "k": ..., "coefficients": [k+1 row-major matrices]};
n and k are optional and, when present, checked against the coefficients.
"""

from __future__ import annotations

import json
import typing
from dataclasses import asdict

import numpy as np

from .errors import GraphFormatError, ProblemFormatError
from .graphs import Graph
from .matpoly import MatrixPolynomial
from .seed import LeadingDiagonal, TargetSpectrum
from .solver import ProblemSpec, SolverControls

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


def _load_object(path: str) -> dict:
    doc = _load_json(path)
    if not isinstance(doc, dict):
        raise ProblemFormatError(f"{path}: top level must be an object")
    return doc


def _parse_graph_entry(entry, n: int, idx: int) -> Graph:
    where = f"graphs[{idx}]"
    entry = _typed(entry, where, dict)
    try:
        edges = _require(entry, "edges", list)
        for e in edges:
            if not (type(e) is list and len(e) == 2 and all(type(v) is int for v in e)):
                raise ProblemFormatError(f"edge {e!r} is not a pair of vertex numbers")
        return Graph(n=n, edges=tuple(tuple(e) for e in edges))
    except (GraphFormatError, ProblemFormatError) as exc:
        raise ProblemFormatError(f"{where}: {exc}") from exc


def load_problem(path: str, overrides: dict | None = None) -> ProblemSpec:
    """Load and validate a problem file; ``overrides`` patches control fields."""
    doc = _load_object(path)
    n = _require(doc, "n", int)
    k = _require(doc, "k", int)
    values = _numbers(_require(doc, "proper_values", list), "proper_values")
    leading = _numbers(_require(doc, "leading", list), "leading")
    graphs_raw = _require(doc, "graphs", list)
    if len(graphs_raw) != k:
        raise ProblemFormatError(f"graphs: expected {k} entries, got {len(graphs_raw)}")
    epsilon = _typed(doc.get("epsilon", 0.5), "epsilon", float)

    ctl_doc = _typed(doc.get("controls", {}), "controls", dict)
    unknown = set(ctl_doc) - set(_CONTROL_KINDS)
    if unknown:
        raise ProblemFormatError(f"controls: unknown field(s) {sorted(unknown)}")
    ctl_doc = {name: _typed(val, f"controls.{name}", *_CONTROL_KINDS[name]) for name, val in ctl_doc.items()}
    if overrides:
        ctl_doc.update({k_: v for k_, v in overrides.items() if v is not None})

    graphs = tuple(_parse_graph_entry(g, n, i) for i, g in enumerate(graphs_raw))

    offdiag = doc.get("offdiag_overrides")
    if offdiag is not None:
        if not isinstance(offdiag, list) or len(offdiag) != k:
            raise ProblemFormatError(f"offdiag_overrides: expected {k} entries")
        # a null entry stays None: ProblemSpec fills it with epsilon
        offdiag = tuple(
            None if y is None else _numbers(y, f"offdiag_overrides[{s}]") for s, y in enumerate(offdiag)
        )

    spectrum = TargetSpectrum(values=values, n=n, k=k)
    lead = LeadingDiagonal(alpha_k=leading)
    controls = SolverControls(**ctl_doc)
    return ProblemSpec(
        spectrum=spectrum, lead=lead, graphs=graphs,
        epsilon=epsilon, offdiag_values=offdiag, controls=controls,
    )


def load_polynomial(path: str) -> MatrixPolynomial:
    """Load a polynomial file; its optional ``n`` and ``k`` must be the
    coefficients' size and degree."""
    doc = _load_object(path)
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
        x = _numbers(_load_json(path), "unknowns")
    except ProblemFormatError as exc:
        raise ProblemFormatError(f"{expected}; {exc}") from exc
    if x.shape != (nk,) or not np.all(np.isfinite(x)):
        raise ProblemFormatError(expected)
    return x


def spec_to_config(spec: ProblemSpec) -> dict:
    """Fully resolved configuration embedded in every report for reproducibility."""
    return {
        "n": spec.n,
        "k": spec.k,
        "proper_values": spec.spectrum.values.tolist(),
        "leading": spec.lead.alpha_k.tolist(),
        "graphs": [{"edges": [list(e) for e in g.edges]} for g in spec.graphs],
        "epsilon": spec.epsilon,
        "offdiag_values": [y.tolist() for y in spec.offdiag_values],
        "controls": {**asdict(spec.controls), "newton_tol": spec.controls.resolved_tol(spec.spectrum)},
    }


def polynomial_to_doc(P: MatrixPolynomial) -> dict:
    return {
        "n": P.n,
        "k": P.degree,
        "coefficients": [c.tolist() for c in P.coeffs],
    }
