"""Command line behaviour: report format, exit codes, determinism."""

import functools
import json
import os
import subprocess
import sys

import numpy as np
import pytest

from conewitness import catalog, cli
from conewitness.catalog import (
    SIGMA_Y,
    ad_map,
    breuer_hall,
    choi_family,
    co_ad_map,
    random_antisymmetric_unitary,
    reduction,
    robertson_unitary,
    transposition,
)
from conewitness.maps import LinearMatrixMap, choi_of
from conewitness.positivity import ProductPair, SeeSawConfig


def run(argv, tmp_path, name="out.json"):
    """Run the CLI writing to a temp file; return (exit_code, parsed, raw_bytes)."""
    out = tmp_path / name
    code = cli.main([*argv, "--out", str(out)])
    if not out.exists():
        return code, None, None
    raw = out.read_bytes()
    return code, json.loads(raw), raw


def write_choi(tmp_path, W, name="w.json"):
    path = tmp_path / name
    path.write_text(cli.canonical_json(cli.matrix_to_obj(W)))
    return str(path)


# the matrix-file targets: a Haar antisymmetric unitary for breuer-hall, and V for ad and co-ad
BH4_U = random_antisymmetric_unitary(4, np.random.default_rng(1234))
AD_V = np.array([[1.0, 2.0j], [0.5, -1.0]])


def file_targets(tmp_path):
    """(argv, map) for the catalog targets built from a matrix file."""
    u, v = write_choi(tmp_path, BH4_U, "u.json"), write_choi(tmp_path, AD_V, "v.json")
    return (
        (["breuer-hall", "--u", u], breuer_hall(BH4_U)),
        (["ad", "--v", v], ad_map(AD_V)),
        (["co-ad", "--v", v], co_ad_map(AD_V)),
    )


# ---------------------------------------------------------------------------
# canonical serialization


def test_canonical_json_shape():
    text = cli.canonical_json({"b": 1.0, "a": [True, None, 3]})
    assert text.endswith("\n")
    assert text.index('"a"') < text.index('"b"')
    assert "1" in text
    assert "true" in text and "null" in text


def test_canonical_json_renders_dataclasses_and_arrays():
    """A dataclass renders as the dict of its fields, a 1-D array as one column."""
    x, y = np.array([1.0, 2.0j]), np.array([0.5, -1.0, 3.0])
    pair = ProductPair(x, y, -0.25)
    assert cli.canonical_json(pair) == cli.canonical_json(
        {
            "x": cli.matrix_to_obj(x.reshape(-1, 1)),
            "y": cli.matrix_to_obj(y.reshape(-1, 1)),
            "value": -0.25,
        }
    )
    M = np.array([[1.0, 1.0j], [-1.0j, 2.0]])
    assert cli.canonical_json({"m": M}) == cli.canonical_json({"m": cli.matrix_to_obj(M)})


def test_canonical_json_array_fast_path_is_the_dict_bytes():
    """An array renders as the bytes of its matrix file's dict, at any depth; non-finite entries raise."""
    tiny = 5e-324
    cases = [
        np.array([[-0.0, 1e308, -1e308], [tiny, -tiny, 2.5]]),
        np.array([[1.0, -0.0j], [0.0, 2.0]]),  # Hermitian, so tagged
        np.array([[complex(-0.0, -0.0), 1e-310 + 1e308j, 0.1]]),
        np.zeros((3, 0)),
    ]
    for M in cases:
        obj = cli.matrix_to_obj(M)
        assert cli.canonical_json(M) == cli.canonical_json(obj)
        assert cli.canonical_json([{"a": [M]}]) == cli.canonical_json([{"a": [obj]}])
    assert '"hermitian": true' in cli.canonical_json(cases[1])
    v = np.array([-0.0, tiny, 1e308j])
    assert cli.canonical_json({"v": v}) == cli.canonical_json({"v": cli.matrix_to_obj(v.reshape(-1, 1))})
    assert cli.canonical_json(np.zeros(0)) == cli.canonical_json(cli.matrix_to_obj(np.zeros((0, 1))))
    for bad in (np.nan, np.inf, complex(0.0, -np.inf)):
        with pytest.raises(ValueError, match="non-finite"):
            cli.canonical_json({"m": np.array([[1.0, bad]])})


def test_canonical_json_float_format():
    assert "0.10000000000000001" in cli.canonical_json({"x": 0.1})
    assert cli.canonical_json({"x": np.float64(2.0)}) == cli.canonical_json({"x": 2.0})
    assert cli.canonical_json({"n": np.int64(7)}) == cli.canonical_json({"n": 7})
    with pytest.raises(ValueError):
        cli.canonical_json({"x": float("nan")})
    with pytest.raises(TypeError):
        cli.canonical_json({"x": object()})
    with pytest.raises(TypeError):
        cli.canonical_json({1: "non-string key"})


def test_matrix_obj_roundtrip():
    rng = np.random.default_rng(0)
    M = rng.standard_normal((3, 5)) + 1j * rng.standard_normal((3, 5))
    back = cli.matrix_from_obj(cli.matrix_to_obj(M))
    assert np.array_equal(back, M)

    H = M[:, :3] + M[:, :3].conj().T
    obj = cli.matrix_to_obj(H)
    assert obj["hermitian"] is True
    assert np.array_equal(cli.matrix_from_obj(obj), H)


def test_matrix_obj_validation():
    good = cli.matrix_to_obj(np.eye(2))
    bad = dict(good)
    bad["data"] = [good["data"][0]]  # row count mismatch
    with pytest.raises(ValueError):
        cli.matrix_from_obj(bad)
    bad = dict(good)
    bad["rows"] = "2"
    with pytest.raises(ValueError):
        cli.matrix_from_obj(bad)
    bad = json.loads(cli.canonical_json(good))
    bad["data"][0][0] = [1.0, float("inf")]
    with pytest.raises(ValueError):
        cli.matrix_from_obj(bad)
    # hermitian tag on a non-hermitian matrix is an error
    obj = cli.matrix_to_obj(np.array([[0.0, 1.0], [0.0, 0.0]]))
    obj["hermitian"] = True
    with pytest.raises(Exception):
        cli.matrix_from_obj(obj)


# ---------------------------------------------------------------------------
# catalog


def test_catalog_writes_choi_matrix(tmp_path):
    code, doc, _ = run(["catalog", "transpose", "--n", "2"], tmp_path)
    assert code == 0
    assert doc["rows"] == doc["cols"] == 4
    W = cli.matrix_from_obj(doc)
    assert np.allclose(W, choi_of(transposition(2)))
    for target, phi in file_targets(tmp_path):
        code, doc, _ = run(["catalog", *target], tmp_path)
        assert code == 0
        assert np.array_equal(cli.matrix_from_obj(doc), choi_of(phi))


def test_catalog_stdout_default(capsys):
    assert cli.main(["catalog", "reduction", "--n", "2"]) == 0
    out = capsys.readouterr().out
    doc = json.loads(out)
    assert np.allclose(cli.matrix_from_obj(doc), choi_of(reduction(2)))


def test_catalog_missing_flag(tmp_path, capsys):
    assert cli.main(["catalog", "transpose"]) == 2
    assert "error:" in capsys.readouterr().err
    assert cli.main(["catalog", "no-such-map", "--n", "2"]) == 2


# ---------------------------------------------------------------------------
# check


def test_check_block_positive(tmp_path):
    path = write_choi(tmp_path, choi_of(reduction(2)))
    code, doc, _ = run(["check", path, "--mode", "block-positive", "--seed", "3"], tmp_path)
    assert code == 0
    assert doc["schema_version"] == "3"
    assert doc["verdict"] == "EVIDENCE_BP"
    assert doc["seed"] == 3
    assert doc["config"]["mode"] == "block-positive"
    assert doc["config"]["dim_in"] == doc["config"]["dim_out"] == 2
    assert doc["report"]["min_value"] >= -1e-9
    assert doc["report"]["converged"] is True


def test_check_exits_three_when_the_seesaw_does_not_converge(tmp_path, monkeypatch, capsys):
    """An unconverged see-saw exits 3 and still prints its full report."""
    monkeypatch.setattr(cli, "SeeSawConfig", functools.partial(SeeSawConfig, max_iters=1))
    path = write_choi(tmp_path, choi_of(reduction(3)))
    code = cli.main(["check", path, "--mode", "block-positive", "--seed", "0"])
    assert code == 3
    doc = json.loads(capsys.readouterr().out)
    assert doc["verdict"] == "EVIDENCE_BP"
    assert doc["config"]["max_iters"] == 1
    report = doc["report"]
    assert set(report) == {
        "argmin", "converged", "iterations", "min_value", "restarts_used", "tolerance"
    }
    assert report["converged"] is False
    assert report["iterations"] == 1
    assert report["restarts_used"] == 64


def test_check_not_block_positive_reports_certificate(tmp_path):
    code, doc, _ = run(["catalog", "choi-family", "--a", "0.5", "--b", "0.3", "--c", "0.7"], tmp_path, "cf.json")
    assert code == 0
    path = str(tmp_path / "cf.json")
    code, doc, _ = run(["check", path, "--mode", "block-positive", "--seed", "0"], tmp_path)
    assert code == 0  # verdicts travel in the report, not the exit code
    assert doc["verdict"] == "CERTIFIED_NOT_BP"
    assert doc["report"]["min_value"] < -1e-6
    arg = doc["report"]["argmin"]
    assert arg is not None and arg["value"] == doc["report"]["min_value"]


def test_check_cp_and_ccp(tmp_path):
    path = write_choi(tmp_path, choi_of(reduction(3)))
    code, doc, _ = run(["check", path, "--mode", "cp"], tmp_path)
    assert code == 0
    assert doc["verdict"] is False
    assert abs(doc["min_eigenvalue"] - (1 - 3)) < 1e-10
    code, doc, _ = run(["check", path, "--mode", "ccp"], tmp_path)
    assert code == 0
    assert doc["verdict"] is True


def test_check_input_validation(tmp_path, capsys):
    assert cli.main(["check", str(tmp_path / "missing.json"), "--mode", "cp"]) == 2
    rect = write_choi(tmp_path, np.ones((2, 3)), "rect.json")
    assert cli.main(["check", rect, "--mode", "cp"]) == 2
    skew = write_choi(tmp_path, np.array([[0.0, 1.0], [0.0, 0.0]]), "skew.json")
    assert cli.main(["check", skew, "--mode", "cp"]) == 2
    garbage = tmp_path / "garbage.json"
    garbage.write_text("not json {")
    assert cli.main(["check", str(garbage), "--mode", "cp"]) == 2
    ok = write_choi(tmp_path, choi_of(reduction(2)), "ok.json")
    assert cli.main(["check", ok, "--mode", "cp", "--dim-in", "3"]) == 2
    capsys.readouterr()
    # detect and exposedness load their Choi files through the same checks
    state = write_choi(tmp_path, np.eye(4) / 4, "state.json")
    for argv, message in (
        ([rect], "matrix must be square"),
        ([skew], "Hermiticity defect"),
        ([str(garbage)], "Expecting value"),
        ([ok, "--dim-in", "3"], "--dim-in 3 does not divide size 4"),
    ):
        assert cli.main(["detect", state, *argv]) == 2
        assert message in capsys.readouterr().err
        assert cli.main(["exposedness", *argv]) == 2
        assert message in capsys.readouterr().err
    assert cli.main(["exposedness", str(tmp_path / "missing.json")]) == 2
    capsys.readouterr()


@pytest.mark.parametrize("command", ["check", "detect", "exposedness"])
def test_an_integer_beyond_float_range_is_a_bad_entry(tmp_path, capsys, command):
    """A 401-digit integer literal as an entry exits 2 with the bad-entry message."""
    obj = cli.matrix_to_obj(np.eye(4))
    obj["data"][0][0] = [10**400, 0]
    bad = tmp_path / "big.json"
    bad.write_text(json.dumps(obj))
    argv = {
        "check": [str(bad), "--mode", "cp"],
        "detect": [write_choi(tmp_path, np.eye(4) / 4, "state.json"), str(bad)],
        "exposedness": [str(bad)],
    }[command]
    assert cli.main([command, *argv]) == 2
    assert "entry (0,0) must be a finite [re, im] pair" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# detect


def test_detect_entangled_state(tmp_path):
    omega = np.zeros((9, 9), dtype=complex)
    v = np.eye(3).reshape(-1) / np.sqrt(3)
    omega = np.outer(v, v)
    state = write_choi(tmp_path, omega, "state.json")
    witness = write_choi(tmp_path, choi_of(reduction(3)), "wit.json")
    code, doc, _ = run(["detect", state, witness], tmp_path)
    assert code == 0
    assert doc["verdict"] == "DETECTED"
    assert abs(doc["value"] - (1 - 3)) < 1e-12
    assert doc["seed"] is None


def test_detect_separable_state(tmp_path):
    state = write_choi(tmp_path, np.eye(4) / 4, "state.json")
    witness = write_choi(tmp_path, choi_of(transposition(2)), "wit.json")
    code, doc, _ = run(["detect", state, witness], tmp_path)
    assert code == 0
    assert doc["verdict"] == "NOT_DETECTED"
    assert doc["value"] >= 0


def test_detect_dimension_mismatch(tmp_path, capsys):
    state = write_choi(tmp_path, np.eye(9) / 9, "state.json")
    witness = write_choi(tmp_path, choi_of(transposition(2)), "wit.json")
    assert cli.main(["detect", state, witness]) == 2
    capsys.readouterr()


# ---------------------------------------------------------------------------
# exposedness


def test_exposedness_catalog_target(tmp_path):
    code, doc, _ = run(
        ["exposedness", "reduction", "--n", "2", "--seed", "0"], tmp_path
    )
    assert code == 0
    assert doc["verdict"] == "CERTIFIED_EXPOSED"
    assert doc["nullspace_dim"] == 1
    assert doc["counterexample"] is None
    assert doc["diagnostics"]["dim_at_k"] == 1
    for target, _ in file_targets(tmp_path):
        code, doc, _ = run(["exposedness", *target, "--seed", "0"], tmp_path)
        assert code == 0
        assert doc["verdict"] == "CERTIFIED_EXPOSED" and doc["nullspace_dim"] == 1


def test_exposedness_counterexample_embeds_report(tmp_path):
    """A see-saw certificate embeds its report; a spectral one states its eigenvalue instead."""
    code, doc, _ = run(
        ["exposedness", "reduction", "--n", "3", "--seed", "1"], tmp_path
    )
    assert code == 0
    assert doc["verdict"] == "NOT_EXPOSED"
    assert doc["nullspace_dim"] == 9
    W = cli.matrix_from_obj(doc["counterexample"])
    assert W.shape == (9, 9)
    assert doc["diagnostics"]["counterexample_certificate"] == "cocp"
    assert doc["counterexample_report"] is None
    pt = W.reshape(3, 3, 3, 3).transpose(2, 1, 0, 3).reshape(9, 9)
    assert doc["diagnostics"]["counterexample_min_eigenvalue"] == np.linalg.eigvalsh(pt)[0] >= -1e-9
    code, doc, _ = run(
        ["exposedness", "choi-family", "--a", "1", "--b", "0", "--c", "1", "--budget", "2",
         "--seed", "8"],
        tmp_path,
    )
    assert code == 0
    assert (doc["verdict"], doc["nullspace_dim"]) == ("NOT_EXPOSED", 14)
    assert doc["diagnostics"]["counterexample_certificate"] == "see-saw"
    assert doc["counterexample_report"]["min_value"] >= -1e-9
    assert doc["counterexample_report"]["min_value"] == doc["diagnostics"]["counterexample_min_pairing"]


def test_exposedness_rejects_non_bp(tmp_path, capsys, monkeypatch):
    code = cli.main(
        ["exposedness", "choi-family", "--a", "0.5", "--b", "0.3", "--c", "0.7"]
    )
    assert code == 4
    assert "not block-positive" in capsys.readouterr().err

    # a closed-form face on a map that is not block-positive still exits 4
    def faced_non_bp(n):
        return LinearMatrixMap(3, 3, choi_family(0.5, 0.3, 0.7).choi, face=reduction(n).face)

    monkeypatch.setitem(cli.CATALOG, "reduction", (faced_non_bp, ("n",)))
    assert cli.main(["exposedness", "reduction", "--n", "3"]) == 4
    assert "not block-positive" in capsys.readouterr().err


def test_exposedness_refuses_the_zero_map(tmp_path, capsys):
    """BH_2 is the zero map: it has no ray, and the refusal names its zero Choi matrix."""
    u = write_choi(tmp_path, np.array([[0.0, -1.0], [1.0, 0.0]]), "u.json")
    assert cli.main(["exposedness", "breuer-hall", "--u", u]) == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err == "error: the map's Choi matrix is zero, so it has no ray\n"


# ---------------------------------------------------------------------------
# verify


def test_verify_suites(tmp_path):
    code, doc, raw = run(
        ["verify", "--suite", "robertson-equality", "--seed", "0"], tmp_path
    )
    assert code == 0 and doc["passed"] is True and doc["max_residual"] <= 1e-12
    # every suite accepts --seed; the unread trial count is echoed at its default
    assert doc["seed"] == 0 and doc["config"]["trials"] == 100 and b'"trials": 100' in raw

    code, doc, _ = run(
        ["verify", "--suite", "lemma1", "--trials", "5", "--dim", "2", "--seed", "0"],
        tmp_path,
    )
    assert code == 0 and doc["passed"] is True

    code, doc, _ = run(
        ["verify", "--suite", "bh-structure", "--trials", "2", "--dim", "4", "--seed", "0"],
        tmp_path,
    )
    assert code == 0 and doc["passed"] is True
    assert doc["max_apply_residual"] <= 1e-10


def test_verify_bad_unitary_file(tmp_path, capsys):
    bad = write_choi(tmp_path, np.eye(4), "u.json")  # unitary but symmetric
    assert cli.main(["verify", "--suite", "bh-structure", "--trials", "1", "--u", bad]) == 2
    capsys.readouterr()


# ---------------------------------------------------------------------------
# determinism, seeds, atomic output


def test_reports_are_byte_identical(tmp_path):
    path = write_choi(tmp_path, choi_of(reduction(2)))
    argv = ["check", path, "--mode", "block-positive", "--seed", "5", "--out", str(tmp_path / "r.json")]
    assert cli.main(argv) == 0
    first = (tmp_path / "r.json").read_bytes()
    assert cli.main(argv) == 0
    assert (tmp_path / "r.json").read_bytes() == first
    # the parser is shared within a process: a flag given in between leaks
    # into no later run
    argv = ["exposedness", "reduction", "--n", "3", "--seed", "3"]
    code, doc, first = run(argv, tmp_path)
    assert code == 0 and doc["config"]["samples"] is None
    assert run([*argv, "--samples", "400"], tmp_path, "other.json")[0] == 0
    code, doc, again = run(argv, tmp_path)
    assert code == 0 and doc["config"]["samples"] is None
    assert again == first


def test_reports_are_byte_identical_across_processes(tmp_path):
    """Two fresh interpreters print the same report bytes for the same seed.

    reduction-3 is NOT_EXPOSED with a counterexample; the Haar BH_4 is
    ranked in its Youla frame, in 26 weight blocks of the carried Choi matrix.
    """
    src = os.path.dirname(os.path.dirname(cli.__file__))
    path = os.environ.get("PYTHONPATH")
    env = {**os.environ, "PYTHONPATH": src if not path else os.pathsep.join([src, path])}
    u = write_choi(tmp_path, BH4_U, "u.json")
    for target, verdict in (
        (["reduction", "--n", "3"], "NOT_EXPOSED"),
        (["breuer-hall", "--u", u], "CERTIFIED_EXPOSED"),
    ):
        argv = [sys.executable, "-m", "conewitness.cli", "exposedness", *target, "--seed", "7"]
        first, second = (subprocess.run(argv, env=env, capture_output=True, check=True) for _ in range(2))
        doc = json.loads(first.stdout)
        assert doc["verdict"] == verdict
        assert first.stdout == second.stdout
    assert doc["diagnostics"]["weight_blocks"] == 26


def test_memory_error_exits_two(monkeypatch, capsys):
    def too_large(*args, **kwargs):
        raise MemoryError("Unable to allocate 233. TiB for an array")

    monkeypatch.setattr(cli, "exposedness_report", too_large)
    assert cli.main(["exposedness", "reduction", "--n", "2", "--samples", "1000000000000"]) == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err == "error: out of memory: Unable to allocate 233. TiB for an array\n"


def test_seed_resolution(tmp_path, monkeypatch):
    path = write_choi(tmp_path, choi_of(reduction(2)))
    monkeypatch.setenv("CONEWITNESS_SEED", "11")
    code, doc, _ = run(["check", path, "--mode", "block-positive"], tmp_path)
    assert doc["seed"] == 11
    code, doc, _ = run(["check", path, "--mode", "block-positive", "--seed", "4"], tmp_path)
    assert doc["seed"] == 4
    monkeypatch.delenv("CONEWITNESS_SEED")
    code, doc, _ = run(["check", path, "--mode", "block-positive"], tmp_path)
    assert doc["seed"] == 0


def test_out_write_is_atomic(tmp_path, capsys):
    # writing into a missing directory fails cleanly, leaving nothing behind
    missing = tmp_path / "nope" / "out.json"
    path = write_choi(tmp_path, choi_of(reduction(2)))
    assert cli.main(["check", path, "--mode", "cp", "--out", str(missing)]) == 2
    assert not missing.exists()
    assert not any(p.name.startswith("tmp") for p in tmp_path.iterdir() if p.is_file() and p.suffix != ".json")
    capsys.readouterr()


def test_usage_errors_exit_two(tmp_path, capsys):
    assert cli.main([]) == 2
    assert cli.main(["check"]) == 2
    assert cli.main(["verify"]) == 2
    assert cli.main(["frobnicate"]) == 2
    capsys.readouterr()
    # a suite that runs no trial checks nothing and must not pass
    for suite, trials in (("bh-structure", "0"), ("bh-structure", "-3"), ("lemma1", "0")):
        assert cli.main(["verify", "--suite", suite, "--trials", trials]) == 2
        assert "--trials must be at least 1" in capsys.readouterr().err
    # a fixed unitary must have the size --dim states
    u = tmp_path / "u4.json"
    u.write_text(cli.canonical_json(cli.matrix_to_obj(robertson_unitary())))
    for dim in ("6", "3"):
        argv = ["verify", "--suite", "bh-structure", "--trials", "1", "--u", str(u), "--dim", dim]
        assert cli.main(argv) == 2
        assert capsys.readouterr().out == ""
    # a flag the chosen suite does not read, or a size it does not check, is
    # refused, not echoed as checked
    for argv, message in (
        (["--suite", "robertson-equality", "--dim", "6"], "is a check on M_4"),
        (["--suite", "lemma1", "--dim", "3"], "lemma1 needs an even dimension"),
        (["--suite", "lemma1", "--u", str(tmp_path / "missing.json")], "--u does not apply to lemma1"),
        (["--suite", "robertson-equality", "--u", str(u)], "--u does not apply to robertson-equality"),
        (["--suite", "robertson-equality", "--trials", "3"], "--trials does not apply to robertson-equality"),
        (["--suite", "robertson-equality", "--trials", "100"], "--trials does not apply to robertson-equality"),
    ):
        assert cli.main(["verify", *argv]) == 2
        out = capsys.readouterr()
        assert out.out == "" and message in out.err
    # a negative cone-search budget is rejected before any search
    assert cli.main(["exposedness", "reduction", "--n", "3", "--budget", "-1"]) == 2
    assert "budget must be nonnegative" in capsys.readouterr().err


def test_unread_flags_are_refused(tmp_path, capsys):
    """Every command refuses a flag its target does not read, after a missing one."""
    r3 = write_choi(tmp_path, choi_of(reduction(3)), "r3.json")
    for argv, message in (
        (["catalog", "robertson", "--n", "4"], "--n does not apply to robertson"),
        (["catalog", "transpose", "--n", "2", "--a", "1"], "--a does not apply to transpose"),
        (["exposedness", "reduction", "--n", "3", "--dim-in", "3"], "--dim-in does not apply to reduction"),
        (["exposedness", "reduction", "--n", "3", "--v", "nofile.json"], "--v does not apply to reduction"),
        (["exposedness", r3, "--n", "3"], f"--n does not apply to choi file {r3!r}"),
        (["exposedness", r3, "--u", "nofile"], f"--u does not apply to choi file {r3!r}"),
        (["check", r3, "--mode", "cp", "--restarts", "5"], "--restarts does not apply to --mode cp"),
        (["check", r3, "--mode", "ccp", "--restarts", "5"], "--restarts does not apply to --mode ccp"),
        (["catalog", "choi-family", "--a", "1", "--n", "3"], "catalog map 'choi-family' requires --b"),
    ):
        assert cli.main(argv) == 2
        out = capsys.readouterr()
        assert out.out == "" and out.err == f"error: {message}\n"
    # the flags a target reads are still accepted, and --restarts is echoed
    code, doc, _ = run(["exposedness", r3, "--dim-in", "3", "--seed", "0"], tmp_path)
    assert code == 0 and doc["nullspace_dim"] == 9
    code, doc, _ = run(["check", r3, "--mode", "block-positive", "--restarts", "5"], tmp_path)
    assert code == 0 and doc["config"]["restarts"] == 5


def test_verify_bh_structure_takes_its_dimension_from_u(tmp_path, capsys):
    u6 = write_choi(tmp_path, np.kron(np.eye(3), SIGMA_Y), "u6.json")
    argv = ["verify", "--suite", "bh-structure", "--u", u6, "--trials", "3", "--seed", "0"]
    code, doc, _ = run(argv, tmp_path)
    assert code == 0 and doc["passed"] is True
    assert doc["config"]["dim"] == 6
    code, doc, _ = run([*argv, "--dim", "6"], tmp_path)
    assert code == 0 and doc["config"]["dim"] == 6
    # an explicit --dim must still match the file
    assert cli.main([*argv, "--dim", "4"]) == 2
    out = capsys.readouterr()
    assert out.out == "" and f"unitary file {u6!r} is 6x6, but --dim is 4" in out.err
    # without --u the dimension stays 4
    code, doc, _ = run(["verify", "--suite", "bh-structure", "--trials", "2"], tmp_path)
    assert code == 0 and doc["config"]["dim"] == 4


def test_verify_bh_structure_builds_the_reduction_map_once(tmp_path):
    """Without --u every trial draws its own U, and the reduction map is built once per run."""
    argv = ["verify", "--suite", "bh-structure", "--trials", "5", "--seed", "3"]
    _, _, before = run(argv, tmp_path)
    catalog._reduction.cache_clear()
    code, doc, raw = run(argv, tmp_path)
    assert code == 0 and doc["passed"] is True
    info = catalog._reduction.cache_info()
    assert (info.misses, info.hits, info.currsize) == (1, 4, 1)
    assert raw == before


def test_reports_echo_fixed_cutoffs(tmp_path):
    """The cutoffs each report echoes, pinned in its raw bytes."""
    witness = write_choi(tmp_path, choi_of(reduction(3)), "wit.json")
    state = write_choi(tmp_path, np.eye(9) / 9, "state.json")
    for argv, echo in (
        (["exposedness", "robertson", "--seed", "0"], b'"rel_tol": 1e-08,'),
        (["detect", state, witness], b'"zero_tol": 1.0000000000000001e-09\n'),
        (
            ["check", witness, "--mode", "block-positive", "--restarts", "4"],
            b'"violation_tol": 1.0000000000000001e-09\n',
        ),
        (
            ["check", witness, "--mode", "block-positive", "--restarts", "4"],
            b'"tolerance": 9.9999999999999998e-13',
        ),
    ):
        code, _, raw = run(argv, tmp_path)
        assert code == 0
        assert echo in raw
