"""Acceptance gate.

Each test below covers one acceptance criterion end to end and prints a
single pass/fail line.  Run with ``python3 -m pytest tests/test_acceptance.py -v``
(add ``-s`` to see the lines for passing criteria too).
"""

import itertools
import json

import numpy as np
import pytest

from conewitness import cli
from conewitness.catalog import (
    ad_map,
    breuer_hall,
    choi_family,
    choi_family_is_positive,
    co_ad_map,
    random_antisymmetric_unitary,
    reduction,
    robertson,
    robertson_unitary,
    transposition,
)
from conewitness.exposedness import (
    dual_face_samples,
    exposedness_report,
    optimality_spanning_check,
    verify_bh_structure,
    verify_lemma1,
)
from conewitness.linalg import (
    frobenius,
    hermitian_to_coords,
    random_unit_vector,
    random_unitary,
)
from conewitness.maps import (
    apply,
    choi_of,
    is_ray_proportional,
    map_from_choi,
    product_vector,
    witness_pairing,
)
from conewitness.positivity import (
    SeeSawConfig,
    is_block_positive,
    is_completely_copositive,
    is_completely_positive,
)

LEAN = SeeSawConfig(restarts=8, max_iters=150, stop_below=-1e-6)
DEEP = SeeSawConfig(restarts=64, max_iters=400)


def judge(num: int, label: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    tail = f"  [{detail}]" if detail else ""
    print(f"criterion {num:2d} {status}  {label}{tail}")
    assert ok, f"criterion {num} failed: {label} {tail}"


def _catalog_draws(rng):
    """A rotating pool covering every constructor in the catalog."""
    while True:
        yield transposition(int(rng.integers(2, 5)))
        yield reduction(int(rng.integers(2, 5)))
        V = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        yield ad_map(V)
        yield co_ad_map(V)
        a, b, c = rng.uniform(0, 2.5, size=3)
        yield choi_family(a, b, c)
        yield breuer_hall(random_antisymmetric_unitary(4, rng))
        yield robertson()


def test_criterion_1_isomorphism_and_pairing():
    rng = np.random.default_rng(101)
    worst_roundtrip = 0.0
    worst_pairing = 0.0
    pool = _catalog_draws(rng)
    for _ in range(200):
        phi = next(pool)
        n, m = phi.dim_in, phi.dim_out
        W = choi_of(phi)
        phi_back = map_from_choi(W, n, m)
        X = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        scale = max(1.0, frobenius(apply(phi, X)))
        worst_roundtrip = max(
            worst_roundtrip, frobenius(apply(phi, X) - apply(phi_back, X)) / scale
        )
        x = random_unit_vector(n, rng)
        y = random_unit_vector(m, rng)
        lhs = np.vdot(y, apply(phi, np.outer(x, x.conj())) @ y).real
        worst_pairing = max(worst_pairing, abs(witness_pairing(W, x, y) - lhs))
    ok = worst_roundtrip <= 1e-11 and worst_pairing <= 1e-11
    judge(1, "Choi round-trip and pairing identity over 200 catalog draws", ok,
          f"roundtrip {worst_roundtrip:.2e}, pairing {worst_pairing:.2e}")


def _near_boundary(a, b, c, shell=0.02):
    if abs(a - 2.0) < shell:
        return True
    if abs(a + b + c - 2.0) < shell:
        return True
    if a <= 1.0 + shell and abs(b * c - (1.0 - a) ** 2) < shell:
        return True
    return False


def test_criterion_2_choi_family_grid():
    axis = np.linspace(0.0, 2.5, 20)
    rng = np.random.default_rng(202)
    disagreements = []
    tested = 0
    for a, b, c in itertools.product(axis, axis, axis):
        if _near_boundary(a, b, c):
            continue
        tested += 1
        predicted = choi_family_is_positive(a, b, c)
        phi = choi_family(a, b, c)
        cp, _ = is_completely_positive(phi)
        if cp:
            # the three-condition region describes maps positive beyond CP,
            # so a CP point sits outside it by construction
            numeric = False
        else:
            verdict, _ = is_block_positive(phi, LEAN, np.random.default_rng(rng.integers(2**32)))
            numeric = verdict == "EVIDENCE_BP"
            if numeric and not predicted:
                verdict, _ = is_block_positive(phi, DEEP, np.random.default_rng(7))
                numeric = verdict == "EVIDENCE_BP"
        if numeric != predicted:
            disagreements.append((a, b, c, predicted, numeric))
    ok = tested > 5000 and not disagreements
    judge(2, "Choi-family boundary grid, 20^3 minus a 0.02 shell", ok,
          f"{tested} points, {len(disagreements)} disagreements")


def test_criterion_3_congruence_residuals():
    rng = np.random.default_rng(303)
    worst = 0.0
    for dim in (2, 4, 6):
        for _ in range(34):
            V = random_unitary(dim, rng)
            x = random_unit_vector(dim, rng)
            worst = max(worst, verify_lemma1(V, x))
    ok = worst <= 1e-10
    judge(3, "congruence residual over 102 random (V, x), dims 2/4/6", ok,
          f"max {worst:.2e}")


def test_criterion_4_bh_structure():
    rng = np.random.default_rng(404)
    worst_remark1 = 0.0
    all_passed = True
    for dim in (4, 6):
        for _ in range(25):
            U = random_antisymmetric_unitary(dim, rng)
            x = random_unit_vector(dim, rng)
            rep = verify_bh_structure(U, x)
            all_passed = all_passed and rep.passed
            worst_remark1 = max(worst_remark1, rep.remark1_residual)
    ok = all_passed and worst_remark1 <= 1e-12
    judge(4, "structure checks (i)-(iv) for 50 random antisymmetric unitaries", ok,
          f"remark-1 residual {worst_remark1:.2e}")


def test_criterion_5_robertson_equality():
    diff = np.max(np.abs(choi_of(robertson()) - choi_of(breuer_hall(robertson_unitary()))))
    ok = diff <= 1e-12
    judge(5, "Robertson map equals the canonical 4-dim construction", ok,
          f"entrywise {diff:.2e}")


def _validated_not_exposed(phi, n, seed):
    rep = exposedness_report(phi, rng=np.random.default_rng(seed))
    if rep.verdict != "NOT_EXPOSED" or rep.counterexample is None:
        return False
    W_prime = rep.counterexample
    if is_ray_proportional(W_prime, choi_of(phi)):
        return False
    sample = dual_face_samples(phi, 64, np.random.default_rng(seed + 1))
    # one value row per pair: the coordinates of the projector onto its product vector
    Z = product_vector(sample.X, sample.Y)
    C = hermitian_to_coords(Z[:, :, np.newaxis] * Z.conj()[:, np.newaxis, :])
    coords = hermitian_to_coords(W_prime)
    coords = coords / np.linalg.norm(coords)
    if np.max(np.abs(C @ coords)) > 1e-8:
        return False
    verdict, _ = is_block_positive(
        map_from_choi(W_prime, n, n), SeeSawConfig(), np.random.default_rng(seed + 2)
    )
    return verdict == "EVIDENCE_BP"


def test_criterion_6_exposedness_verdicts():
    ok = True
    notes = []
    for n, seed in ((3, 61), (4, 62)):
        if not _validated_not_exposed(reduction(n), n, seed):
            ok = False
            notes.append(f"reduction {n} not refuted")
    for phi, label in ((reduction(2), "reduction 2"), (transposition(2), "transpose 2"),
                       (transposition(3), "transpose 3")):
        rep = exposedness_report(phi, rng=np.random.default_rng(63))
        if rep.verdict == "NOT_EXPOSED":
            ok = False
            notes.append(f"{label} wrongly refuted")
    rng = np.random.default_rng(64)
    hall = [(breuer_hall(random_antisymmetric_unitary(4, rng)), f"BH4 #{i}") for i in range(5)]
    for seed in (0, 1, 2):
        for phi, label in hall + [(robertson(), "Robertson")]:
            rep = exposedness_report(phi, budget=2000, rng=np.random.default_rng(seed))
            if rep.verdict == "NOT_EXPOSED":
                ok = False
                notes.append(f"{label} wrongly refuted at seed {seed}")
    judge(6, "exposedness verdicts across the catalog", ok, "; ".join(notes) or "all as expected")


def test_criterion_7_optimality_spanning():
    ok = True
    details = []
    rng_seed = 7
    for phi in (reduction(2), reduction(3),
                breuer_hall(random_antisymmetric_unitary(4, np.random.default_rng(70))),
                robertson()):
        spans, span_dim = optimality_spanning_check(phi, rng=np.random.default_rng(rng_seed))
        ok = ok and spans
        details.append(str(span_dim))
    judge(7, "product zeros span the input space for R2, R3, the 4-dim pair", ok,
          "span dims " + "/".join(details))


def _random_separable(dim_a, dim_b, rng):
    terms = int(rng.integers(1, 5))
    weights = rng.dirichlet(np.ones(terms))
    rho = np.zeros((dim_a * dim_b, dim_a * dim_b), dtype=complex)
    for w in weights:
        x = random_unit_vector(dim_a, rng)
        y = random_unit_vector(dim_b, rng)
        z = np.kron(x, y)
        rho += w * np.outer(z, z.conj())
    return rho


def test_criterion_8_detection_scores():
    worst_omega = 0.0
    for n in (2, 3, 4):
        v = np.eye(n).reshape(-1) / np.sqrt(n)
        value = np.vdot(v, choi_of(reduction(n)) @ v).real
        worst_omega = max(worst_omega, abs(value - (1 - n)))
    rng = np.random.default_rng(808)
    W_bh = choi_of(breuer_hall(random_antisymmetric_unitary(4, rng)))
    W_rob = choi_of(robertson())
    low = 0.0
    for _ in range(100):
        rho = _random_separable(4, 4, rng)
        low = min(low, np.trace(rho @ W_bh).real, np.trace(rho @ W_rob).real)
    ok = worst_omega <= 1e-12 and low >= -1e-10
    judge(8, "maximally entangled scores 1-n; separable states score >= 0", ok,
          f"omega err {worst_omega:.2e}, lowest separable {low:.2e}")


def test_criterion_9_cp_certificates():
    ok = True
    details = []
    for n in (2, 3, 4):
        _, lam = is_completely_positive(reduction(n))
        ok = ok and abs(lam - (1 - n)) <= 1e-10
        details.append(f"{lam:.12g}")
    ccp, _ = is_completely_copositive(reduction(2))
    ok = ok and ccp
    cp, _ = is_completely_positive(breuer_hall(robertson_unitary()))
    ok = ok and not cp
    judge(9, "Choi spectra: lambda_min(R_n) = 1-n, R2 ccp, 4-dim map not cp", ok,
          "lambda_min " + "/".join(details))


def test_criterion_10_cli_determinism(tmp_path):
    choi_path = tmp_path / "r2.json"
    assert cli.main(["catalog", "reduction", "--n", "2", "--out", str(choi_path)]) == 0
    state_path = tmp_path / "omega.json"
    v = np.eye(2).reshape(-1) / np.sqrt(2)
    state_path.write_text(cli.canonical_json(cli.matrix_to_obj(np.outer(v, v))))

    commands = [
        ["catalog", "robertson"],
        ["check", str(choi_path), "--mode", "block-positive", "--seed", "9"],
        ["check", str(choi_path), "--mode", "cp"],
        ["check", str(choi_path), "--mode", "ccp"],
        ["detect", str(state_path), str(choi_path)],
        ["exposedness", "reduction", "--n", "2", "--seed", "9"],
        ["verify", "--suite", "lemma1", "--trials", "3", "--dim", "2", "--seed", "9"],
        ["verify", "--suite", "bh-structure", "--trials", "1", "--dim", "4", "--seed", "9"],
        ["verify", "--suite", "robertson-equality"],
    ]
    ok = True
    stale = []
    for k, argv in enumerate(commands):
        out = tmp_path / f"rep{k}.json"
        full = [*argv, "--out", str(out)]
        code_a = cli.main(full)
        first = out.read_bytes()
        code_b = cli.main(full)
        if code_a != code_b or out.read_bytes() != first:
            ok = False
            stale.append(argv[0])
    judge(10, "byte-identical reports for repeated seeded runs of every command", ok,
          "all stable" if ok else "unstable: " + ",".join(stale))
