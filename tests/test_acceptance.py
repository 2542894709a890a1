"""Acceptance suite: end-to-end checks of the solver against published
reference solutions, exhaustive oracles, and statistical property sweeps.

Each test prints a single PASS/FAIL line (visible with pytest -s or on
failure) in addition to its assertions.
"""

import json
import time
from pathlib import Path

import numpy as np

from structured_iep import (
    DegenerateDenominator,
    Graph,
    LeadingDiagonal,
    MatrixPolynomial,
    ProblemSpec,
    SolverControls,
    StructuredIEPError,
    TargetSpectrum,
    cli,
    continuation_solve,
    jacobian_x,
    proper_values,
    seed_coefficients,
    seed_vandermonde_check,
)

from conftest import (
    G_EDGES,
    H_EDGES,
    LINKED4_D_DIAG,
    LINKED4_K_DIAG,
    PATH4_D_DIAG,
    PATH4_K_DIAG,
    PATH_EDGES,
    TARGETS,
    fd_derivative,
    golden_linked4_polynomial,
    golden_path4_polynomial,
    one_slot,
    quadratic_targets_spec,
    random_graph,
)

PROBLEMS = Path(__file__).resolve().parent.parent / "problems"


def _verdict(name, ok):
    print(f"[{'PASS' if ok else 'FAIL'}] {name}")
    return ok


def _solve_path4():
    spec = quadratic_targets_spec((Graph(4, PATH_EDGES), Graph(4, PATH_EDGES)))
    return continuation_solve(spec)


def _solve_linked4():
    spec = quadratic_targets_spec((Graph(4, G_EDGES), Graph(4, H_EDGES)))
    return continuation_solve(spec)


def _integer_targets(rng, n, k):
    pool = np.arange(-60, 61, dtype=float)
    vals = rng.choice(pool, size=n * k, replace=False)
    return vals


def _random_seed_instances(count=100, max_n=6, max_k=4, seed=2024):
    """Random diagonal seeds with integer targets and power-of-two leading
    entries, so the coefficient recurrence stays exact in float."""
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(count):
        n = int(rng.integers(1, max_n + 1))
        k = int(rng.integers(1, max_k + 1))
        spec = TargetSpectrum(values=_integer_targets(rng, n, k), n=n, k=k)
        alpha = rng.choice([0.5, 1.0, 2.0], size=n)
        out.append((spec, LeadingDiagonal(alpha_k=alpha)))
    return out


def test_acceptance_1_path_coupled_quadratic_reproduction():
    start = time.perf_counter()
    rep = _solve_path4()
    elapsed = time.perf_counter() - start
    K, D = rep.polynomial.coeffs[0], rep.polynomial.coeffs[1]
    err = max(
        np.max(np.abs(np.diag(D) - PATH4_D_DIAG)),
        np.max(np.abs(np.diag(K) - PATH4_K_DIAG)),
    )
    ok = rep.converged and err <= 1e-9 and elapsed < 1.0
    assert _verdict(
        f"path-coupled quadratic reproduction (err {err:.2e}, {elapsed * 1e3:.0f} ms)", ok
    )


def test_acceptance_2_linked_quadratic_reproduction():
    start = time.perf_counter()
    rep = _solve_linked4()
    elapsed = time.perf_counter() - start
    K, D = rep.polynomial.coeffs[0], rep.polynomial.coeffs[1]
    err = max(
        np.max(np.abs(np.diag(D) - LINKED4_D_DIAG)),
        np.max(np.abs(np.diag(K) - LINKED4_K_DIAG)),
    )
    ok = rep.converged and err <= 1e-9 and elapsed < 1.0
    assert _verdict(
        f"linked quadratic reproduction (err {err:.2e}, {elapsed * 1e3:.0f} ms)", ok
    )


def test_acceptance_3_spectral_fidelity_of_demo_solutions():
    worst = 0.0
    for rep in (_solve_path4(), _solve_linked4()):
        vals = proper_values(rep.polynomial).values
        worst = max(worst, float(np.max(np.abs(vals - np.sort(TARGETS)))))
    ok = worst <= 1e-10
    assert _verdict(f"demo solutions spectral fidelity (max err {worst:.2e})", ok)


def test_acceptance_4_seed_spectrum_and_exact_coefficients():
    import itertools
    import math

    instances = _random_seed_instances(100)
    worst = 0.0
    exact_checked = 0
    for spec, lead in instances:
        P = seed_coefficients(spec, lead)
        vals = proper_values(P).values
        worst = max(worst, float(np.max(np.abs(vals - spec.sorted_values()))))
        if spec.k > 5:
            continue
        for t in range(1, spec.n + 1):
            block = [spec.values[q] for q in range((t - 1) * spec.k, t * spec.k)]
            for s in range(spec.k + 1):
                e = sum(math.prod(c) for c in itertools.combinations(block, spec.k - s))
                expected = lead.alpha_k[t - 1] * (-1.0) ** (spec.k - s) * e
                assert P.coeffs[s][t - 1, t - 1] == expected
                exact_checked += 1
    ok = worst <= 1e-10 and exact_checked > 0
    assert _verdict(
        f"seed spectrum over 100 random specs (max err {worst:.2e}, "
        f"{exact_checked} coefficients matched the subset-sum oracle exactly)", ok
    )


def test_acceptance_5_seed_jacobian_block_vandermonde():
    instances = _random_seed_instances(100)
    worst_entry = worst_offblock = worst_cond = 0.0
    passed = True
    for spec, lead in instances:
        P = seed_coefficients(spec, lead)
        decomp = proper_values(P)
        J = jacobian_x(decomp)
        check = seed_vandermonde_check(spec, decomp, J)
        passed = passed and check["passed"]
        worst_entry = max(worst_entry, check["max_entry_error"])
        worst_offblock = max(worst_offblock, check["max_offblock"])
        worst_cond = max(worst_cond, check["condition"])
    ok = passed and np.isfinite(worst_cond)
    assert _verdict(
        f"seed Jacobian is block Vandermonde (entry err {worst_entry:.2e}, "
        f"off-block {worst_offblock:.2e}, worst condition {worst_cond:.2e})", ok
    )


def test_acceptance_6_derivative_against_finite_differences():
    rng = np.random.default_rng(777)
    h = 1e-4
    samples = 0
    worst = -np.inf
    while samples < 500:
        n = int(rng.integers(2, 6))
        k = int(rng.integers(1, 4))
        vals = np.sort(rng.uniform(-10, 10, n * k))
        if np.min(np.diff(vals)) < 0.3:
            continue
        rng.shuffle(vals)
        spec = TargetSpectrum(values=vals, n=n, k=k)
        seed = seed_coefficients(spec, LeadingDiagonal(alpha_k=rng.uniform(0.5, 2, n)))
        coeffs = [np.array(c) for c in seed.coeffs]
        for s in range(k):
            for i in range(n):
                for j in range(i + 1, n):
                    if rng.random() < 0.4:
                        v = rng.uniform(-0.5, 0.5)
                        coeffs[s][i, j] = coeffs[s][j, i] = v
        P = MatrixPolynomial(tuple(coeffs))
        try:
            decomp = proper_values(P)
        except StructuredIEPError:
            # the random coupling pushed a pair complex or too close; resample
            continue
        for _ in range(10):
            if samples >= 500:
                break
            q = int(rng.integers(0, n * k))
            s = int(rng.integers(0, k))
            if rng.random() < 0.5 or n == 1:
                slot = int(rng.integers(1, n + 1))
            else:
                i = int(rng.integers(1, n))
                j = int(rng.integers(i + 1, n + 1))
                slot = (i, j)
            try:
                d = jacobian_x(*one_slot(decomp, q, s, slot))[0, -1]
            except DegenerateDenominator:
                continue
            try:
                # Richardson-extrapolated central differences: cancels the
                # h^2 truncation term, which dominates near small spectral
                # denominators where the derivative is large
                d1 = fd_derivative(P, q, s, slot, h)
                d2 = fd_derivative(P, q, s, slot, h / 2)
                fd = (4 * d2 - d1) / 3
            except StructuredIEPError:
                continue
            # relative tolerance 1e-5 with an absolute floor at the finite
            # difference noise level (eigensolver accuracy / h)
            tol = 1e-5 * max(abs(d), abs(fd)) + 1e-7
            worst = max(worst, abs(d - fd) - tol)
            assert abs(d - fd) <= tol, f"sample {samples}: {d} vs {fd}"
            samples += 1

    # off-diagonal directions at exact seeds vanish
    worst_seed = 0.0
    for spec, lead in _random_seed_instances(20, max_n=5, max_k=3, seed=99):
        if spec.n < 2:
            continue
        P = seed_coefficients(spec, lead)
        decomp = proper_values(P)
        for q in range(len(decomp)):
            for s in range(spec.k):
                d = jacobian_x(*one_slot(decomp, q, s, (1, 2)))[0, -1]
                worst_seed = max(worst_seed, abs(d))
    ok = samples == 500 and worst_seed <= 1e-10
    assert _verdict(
        f"derivatives vs central differences over {samples} samples "
        f"(worst margin {worst:+.2e}, seed off-diagonals {worst_seed:.2e})", ok
    )


def test_acceptance_7_random_structured_instances_converge():
    rng = np.random.default_rng(314)
    start = time.perf_counter()
    solved = 0
    worst_res = 0.0
    for _ in range(50):
        n = int(rng.integers(2, 6))
        k = int(rng.integers(1, 4))
        vals = np.sort(rng.uniform(-10, 10, n * k))
        while np.min(np.diff(vals)) < 0.3:
            vals = np.sort(rng.uniform(-10, 10, n * k))
        rng.shuffle(vals)
        alpha = rng.uniform(0.5, 2.0, n)
        spec = ProblemSpec(
            spectrum=TargetSpectrum(values=vals, n=n, k=k),
            lead=LeadingDiagonal(alpha_k=alpha),
            graphs=tuple(random_graph(rng, n) for _ in range(k)),
            epsilon=0.05,
            controls=SolverControls(newton_tol=1e-11),
        )
        rep = continuation_solve(spec)
        assert rep.converged, f"instance failed: {rep.failure}"
        assert rep.structure_ok
        assert np.array_equal(rep.polynomial.coeffs[k], np.diag(alpha))
        worst_res = max(worst_res, rep.residual)
        solved += 1
    elapsed = time.perf_counter() - start
    ok = solved == 50 and worst_res <= 1e-10 and elapsed < 60.0
    assert _verdict(
        f"50 random structured instances solved (worst residual {worst_res:.2e}, "
        f"{elapsed:.1f} s)", ok
    )


def test_acceptance_8_verification_round_trip(tmp_path, capsys):
    statuses = []
    for prob_name, golden in (
        ("path4.json", golden_path4_polynomial()),
        ("linked4.json", golden_linked4_polynomial()),
    ):
        prob = str(PROBLEMS / prob_name)
        poly = tmp_path / f"solved_{prob_name}"
        code_solve = cli.main(["--quiet", "solve", prob, "--out", str(poly)])
        code_verify = cli.main(["--quiet", "verify", str(poly), prob])
        # reference matrices transcribed to 10 significant digits
        gold_file = tmp_path / f"golden_{prob_name}"
        gold_file.write_text(json.dumps({
            "n": 4, "k": 2,
            "coefficients": [c.tolist() for c in golden.coeffs],
        }))
        code_golden = cli.main(
            ["--quiet", "verify", str(gold_file), prob, "--tol", "5e-9"]
        )
        capsys.readouterr()
        statuses.append((code_solve, code_verify, code_golden))
    ok = all(s == (0, 0, 0) for s in statuses)
    assert _verdict(f"solve/verify round trip exit codes {statuses}", ok)
