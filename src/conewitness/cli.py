"""Command-line front end: build catalog maps, certify, emit JSON reports.

Two file formats, both JSON.  A matrix file is

    {"rows": 2, "cols": 2, "data": [[[re, im], [re, im]], ...], "hermitian": true}

with one ``[re, im]`` pair per entry and an optional hermitian tag that is
validated when present.  A report file echoes the command line, the
effective seed and config, and the verdict fields of the underlying
certifier, under a ``schema_version`` key.

Serialization is canonical: keys sorted, two-space indent, floats printed
with 17 significant digits.  Repeated runs with the same seed produce
byte-identical reports.  Output lands on stdout unless ``--out`` is given,
in which case the file is written atomically (temp file, then rename).

Exit codes: 0 success (verdicts are data, not exit codes), 2 malformed
input, invalid parameters or a problem too large for memory, 3 see-saw
convergence failure, 4 exposedness input that the see-saw finds not
block-positive (a map positive by its closed-form family's identity, or
completely positive or copositive by its Choi matrix's spectrum, runs no
see-saw for it), 5 verify-suite failure.  A flag
that the chosen target does not read is refused with exit 2.  The env var
CONEWITNESS_SEED supplies a default seed; an explicit --seed wins.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import math
import os
import sys
import tempfile

import numpy as np

from .catalog import (
    ad_map,
    breuer_hall,
    choi_family,
    co_ad_map,
    random_antisymmetric_unitary,
    reduction,
    require_antisymmetric_unitary,
    robertson,
    robertson_unitary,
    transposition,
)
from .config import NULLSPACE_REL_TOL, VIOLATION_TOL, ZERO_TOL
from .errors import ConeWitnessError, ConvergenceFailure, NotBlockPositive
from .exposedness import exposedness_report, verify_bh_structure, verify_lemma1
from .linalg import is_hermitian, random_unit_vector, random_unitary, require_hermitian
from .maps import LinearMatrixMap, choi_of, map_from_choi
from .positivity import (
    SeeSawConfig,
    detect_entanglement,
    is_block_positive,
    is_completely_copositive,
    is_completely_positive,
)

SCHEMA_VERSION = "3"

# each catalog map: its constructor and the flags it reads, in argument order
CATALOG = {
    "transpose": (transposition, ("n",)),
    "reduction": (reduction, ("n",)),
    "choi-family": (choi_family, ("a", "b", "c")),
    "breuer-hall": (breuer_hall, ("u",)),
    "robertson": (robertson, ()),
    "ad": (ad_map, ("v",)),
    "co-ad": (co_ad_map, ("v",)),
}
# the catalog flags that name a matrix file, with the label its errors carry
_MATRIX_FLAGS = {"u": "unitary file", "v": "matrix file"}
# the flags each verify suite reads besides --suite, --seed, --dim and --out
_SUITE_FLAGS = {"lemma1": ("trials",), "bh-structure": ("trials", "u"), "robertson-equality": ()}
# every flag that some target leaves unread
_OPTIONAL_FLAGS = ("n", "a", "b", "c", "u", "v", "dim_in", "trials", "restarts")


# ---------------------------------------------------------------------------
# canonical JSON


def canonical_json(obj) -> str:
    """Render a report with sorted keys and '%.17g' floats, ending in \\n."""
    return _render(obj, 0) + "\n"


def _render(obj, level: int) -> str:
    """Render one value; a dataclass as the dict of its fields, an array as a matrix file.

    A 1-D array renders as one column.
    """
    pad = "  " * level
    if dataclasses.is_dataclass(obj):
        obj = dataclasses.asdict(obj)
    elif isinstance(obj, np.ndarray):
        return _render_matrix(obj.reshape(-1, 1) if obj.ndim == 1 else obj, level)
    if obj is None:
        return "null"
    if isinstance(obj, (bool, np.bool_)):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        v = float(obj)
        if not math.isfinite(v):
            raise ValueError("reports must not contain non-finite numbers")
        return format(v, ".17g")
    if isinstance(obj, _Rendered):
        return obj
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        parts = []
        for key in sorted(obj):
            if not isinstance(key, str):
                raise TypeError(f"report keys must be strings, got {key!r}")
            parts.append(f"{pad}  {json.dumps(key)}: {_render(obj[key], level + 1)}")
        return "{\n" + ",\n".join(parts) + "\n" + pad + "}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        return _join([_render(v, level + 1) for v in obj], pad + "  ")
    raise TypeError(f"cannot serialize {type(obj).__name__} into a report")


def _render_matrix(M: np.ndarray, level: int) -> str:
    """The rendering of ``matrix_to_obj(M)``, its entries joined from ``.tolist()``.

    The bytes are those :func:`_render` gives the dict, with no call per entry.
    """
    M = np.asarray(M, dtype=complex)
    if not np.isfinite(M).all():
        raise ValueError("reports must not contain non-finite numbers")
    doc = _matrix_header(M)
    pad = "  " * level
    # the pads of the data list's rows, of a row's entries and of an entry's parts
    p2, p3, p4 = (pad + "  " * t for t in (2, 3, 4))
    rows = []
    for re, im in zip(M.real.tolist(), M.imag.tolist()):
        entries = [_join([format(a, ".17g"), format(b, ".17g")], p4) for a, b in zip(re, im)]
        rows.append(_join(entries, p3) if entries else "[]")
    doc["data"] = _Rendered(_join(rows, p2) if rows else "[]")
    return _render(doc, level)


def _join(items: list, pad: str) -> str:
    """A rendered list of rendered items: one per line at ``pad``, closed one level out."""
    return f"[\n{pad}" + f",\n{pad}".join(items) + f"\n{pad[:-2]}]"


class _Rendered(str):
    """Text :func:`_render` emits as it is."""


# ---------------------------------------------------------------------------
# matrix files


def matrix_to_obj(M: np.ndarray) -> dict:
    M = np.asarray(M, dtype=complex)
    doc = _matrix_header(M)
    doc["data"] = [[[float(z.real), float(z.imag)] for z in row] for row in M]
    return doc


def _matrix_header(M: np.ndarray) -> dict:
    """A matrix file's object without its ``data``."""
    doc = {"rows": int(M.shape[0]), "cols": int(M.shape[1])}
    if M.shape[0] == M.shape[1] and is_hermitian(M):
        doc["hermitian"] = True
    return doc


def matrix_from_obj(obj, what: str = "matrix") -> np.ndarray:
    if not isinstance(obj, dict):
        raise ValueError(f"{what}: expected a JSON object")
    try:
        rows, cols = obj["rows"], obj["cols"]
    except KeyError as exc:
        raise ValueError(f"{what}: missing key {exc}") from None
    for label, value in (("rows", rows), ("cols", cols)):
        if isinstance(value, bool) or not isinstance(value, int) or value < 1:
            raise ValueError(f"{what}: {label} must be a positive integer")
    data = obj.get("data")
    if not isinstance(data, list) or len(data) != rows:
        raise ValueError(f"{what}: data must be a list of {rows} rows")
    M = np.empty((rows, cols), dtype=complex)
    for i, row in enumerate(data):
        if not isinstance(row, list) or len(row) != cols:
            raise ValueError(f"{what}: row {i} must have {cols} entries")
        for j, entry in enumerate(row):
            if (
                not isinstance(entry, (list, tuple))
                or len(entry) != 2
                or any(isinstance(u, bool) or not isinstance(u, (int, float)) for u in entry)
                # exact for an int: NaN, infinities and ints past float range all fail
                or not all(abs(u) <= sys.float_info.max for u in entry)
            ):
                raise ValueError(
                    f"{what}: entry ({i},{j}) must be a finite [re, im] pair"
                )
            M[i, j] = complex(float(entry[0]), float(entry[1]))
    if obj.get("hermitian"):
        require_hermitian(M)
    return M


def load_matrix(path: str, what: str = "matrix") -> np.ndarray:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            obj = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValueError(f"{what} {path!r}: {exc}") from None
    return matrix_from_obj(obj, what=f"{what} {path!r}")


def write_output(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
        return
    directory = os.path.dirname(os.path.abspath(out))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".conewitness-")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, out)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


# ---------------------------------------------------------------------------
# shared plumbing


def resolve_seed(args) -> int:
    seed = getattr(args, "seed", None)
    if seed is not None:
        return int(seed)
    env = os.environ.get("CONEWITNESS_SEED")
    if env:
        try:
            return int(env)
        except ValueError:
            raise ValueError(f"CONEWITNESS_SEED={env!r} is not an integer") from None
    return 0


def split_dims(size: int, dim_in: int | None, what: str) -> tuple[int, int]:
    """Factor a Choi side length into (input, output) dimensions."""
    if dim_in is not None:
        if dim_in < 1 or size % dim_in != 0:
            raise ValueError(f"{what}: --dim-in {dim_in} does not divide size {size}")
        return dim_in, size // dim_in
    root = math.isqrt(size)
    if root * root != size:
        raise ValueError(f"{what}: size {size} is not a perfect square; pass --dim-in")
    return root, root


def map_from_args(args) -> LinearMatrixMap:
    """Catalog name plus flags, or a Choi matrix file, to the map."""
    name = args.target
    if name in CATALOG:
        return _catalog_map(name, args)
    if not os.path.exists(name):
        raise ValueError(
            f"{name!r} is neither a catalog name {tuple(CATALOG)} nor a file"
        )
    phi = _load_choi(name, args.dim_in, "choi file")
    _refuse_unread(args, ("dim_in",), f"choi file {name!r}")
    return phi


def _load_choi(path: str, dim_in: int | None, what: str) -> LinearMatrixMap:
    """A square Hermitian Choi matrix file, split into (input, output) dims."""
    W = load_matrix(path, what=what)
    if W.shape[0] != W.shape[1]:
        raise ValueError(f"{what} {path!r}: matrix must be square")
    require_hermitian(W)
    n, m = split_dims(W.shape[0], dim_in, f"{what} {path!r}")
    return map_from_choi(W, n, m)


def _catalog_map(name: str, args) -> LinearMatrixMap:
    build, reads = CATALOG[name]
    values = []
    for flag in reads:
        value = getattr(args, flag)
        if value is None:
            raise ValueError(f"catalog map {name!r} requires --{flag}")
        if flag in _MATRIX_FLAGS:
            value = load_matrix(value, what=_MATRIX_FLAGS[flag])
        values.append(value)
    phi = build(*values)
    _refuse_unread(args, reads, name)
    return phi


def _refuse_unread(args, reads: tuple[str, ...], target: str) -> None:
    """Refuse a flag that was given but that ``target`` does not read.

    Callers check after the flags the target does read, so an error in one
    of those is reported first.
    """
    for flag in _OPTIONAL_FLAGS:
        if flag not in reads and getattr(args, flag, None) is not None:
            raise ValueError(f"--{flag.replace('_', '-')} does not apply to {target}")


def base_report(argv: list[str], seed: int | None, config: dict) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "command": list(argv),
        "seed": seed,
        "config": config,
    }


# ---------------------------------------------------------------------------
# subcommands


def cmd_catalog(args, argv: list[str]) -> int:
    phi = _catalog_map(args.name, args)
    write_output(canonical_json(choi_of(phi)), args.out)
    return 0


def cmd_check(args, argv: list[str]) -> int:
    seed = resolve_seed(args)
    phi = _load_choi(args.choi_file, args.dim_in, "choi file")
    reads = ("dim_in", "restarts") if args.mode == "block-positive" else ("dim_in",)
    _refuse_unread(args, reads, f"--mode {args.mode}")
    n, m = phi.dim_in, phi.dim_out

    config = SeeSawConfig() if args.restarts is None else SeeSawConfig(restarts=args.restarts)
    doc = base_report(
        argv,
        seed,
        {
            "mode": args.mode,
            "dim_in": n,
            "dim_out": m,
            "restarts": config.restarts,
            "max_iters": config.max_iters,
            "violation_tol": VIOLATION_TOL,
        },
    )
    exit_code = 0
    if args.mode == "block-positive":
        verdict, rep = is_block_positive(phi, config, np.random.default_rng(seed))
        doc["verdict"] = verdict
        doc["report"] = rep
        if not rep.converged:
            exit_code = 3
    elif args.mode == "cp":
        ok, lam = is_completely_positive(phi)
        doc["verdict"] = bool(ok)
        doc["min_eigenvalue"] = lam
    else:
        ok, lam = is_completely_copositive(phi)
        doc["verdict"] = bool(ok)
        doc["min_eigenvalue"] = lam
    write_output(canonical_json(doc), args.out)
    return exit_code


def cmd_detect(args, argv: list[str]) -> int:
    rho = load_matrix(args.state_file, what="state file")
    witness = _load_choi(args.witness_file, args.dim_in, "witness file")
    value, verdict = detect_entanglement(rho, witness)
    doc = base_report(argv, None, {"zero_tol": ZERO_TOL})
    doc["value"] = value
    doc["verdict"] = verdict
    write_output(canonical_json(doc), args.out)
    return 0


def cmd_exposedness(args, argv: list[str]) -> int:
    seed = resolve_seed(args)
    phi = map_from_args(args)
    rep = exposedness_report(phi, args.samples, args.budget, np.random.default_rng(seed))
    doc = base_report(
        argv,
        seed,
        {
            "samples": args.samples,
            "budget": args.budget,
            "restarts": SeeSawConfig().restarts,
            "rel_tol": NULLSPACE_REL_TOL,
        },
    )
    doc.update(dataclasses.asdict(rep))
    write_output(canonical_json(doc), args.out)
    return 0


def cmd_verify(args, argv: list[str]) -> int:
    seed = resolve_seed(args)
    rng = np.random.default_rng(seed)
    _refuse_unread(args, _SUITE_FLAGS[args.suite], args.suite)
    trials = 100 if args.trials is None else args.trials
    if trials < 1:
        raise ValueError(f"--trials must be at least 1, got {trials}")
    fixed_U = None
    if args.u is not None:
        fixed_U = require_antisymmetric_unitary(load_matrix(args.u, what="unitary file"))
    # a fixed unitary sets the dimension unless --dim is given
    dim = args.dim if args.dim is not None else 4 if fixed_U is None else fixed_U.shape[0]
    if args.suite == "robertson-equality" and dim != 4:
        raise ValueError(f"robertson-equality is a check on M_4, got --dim {dim}")
    doc = base_report(argv, seed, {"suite": args.suite, "trials": trials, "dim": dim})

    if args.suite == "lemma1":
        if dim % 2 != 0 or dim < 2:
            raise ValueError("lemma1 needs an even dimension >= 2")
        doc["max_residual"] = max(
            verify_lemma1(random_unitary(dim, rng), random_unit_vector(dim, rng))
            for _ in range(trials)
        )
        doc["tolerance"] = 1e-10
        doc["passed"] = doc["max_residual"] <= doc["tolerance"]
    elif args.suite == "bh-structure":
        if dim % 2 != 0 or dim < 4:
            raise ValueError("bh-structure needs an even dimension >= 4")
        if fixed_U is not None and fixed_U.shape[0] != dim:
            raise ValueError(
                f"unitary file {args.u!r} is {fixed_U.shape[0]}x{fixed_U.shape[0]}, "
                f"but --dim is {dim}"
            )
        if fixed_U is not None:
            xs = [random_unit_vector(dim, rng) for _ in range(trials)]
            reps = verify_bh_structure(fixed_U, np.stack(xs))
        else:
            reps = []
            for _ in range(trials):
                U = random_antisymmetric_unitary(dim, rng)
                reps.append(verify_bh_structure(U, random_unit_vector(dim, rng)))
        doc["max_apply_residual"] = max(r.apply_residual for r in reps)
        doc["max_remark1_residual"] = max(r.remark1_residual for r in reps)
        doc["max_orthogonality"] = max(abs(r.orthogonality_value) for r in reps)
        doc["passed"] = all(r.passed for r in reps)
    else:
        diff = choi_of(robertson()) - choi_of(breuer_hall(robertson_unitary()))
        doc["max_residual"] = float(np.max(np.abs(diff)))
        doc["tolerance"] = 1e-12
        doc["passed"] = doc["max_residual"] <= doc["tolerance"]

    write_output(canonical_json(doc), args.out)
    return 0 if doc["passed"] else 5


# ---------------------------------------------------------------------------
# parser


def _add_catalog_flags(sub) -> None:
    sub.add_argument("--n", type=int, help="matrix size for transpose/reduction")
    sub.add_argument("--a", type=float, help="choi-family parameter a")
    sub.add_argument("--b", type=float, help="choi-family parameter b")
    sub.add_argument("--c", type=float, help="choi-family parameter c")
    sub.add_argument("--u", help="matrix file with an antisymmetric unitary")
    sub.add_argument("--v", help="matrix file for ad/co-ad")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="conewitness",
        description="Positive-map witnesses: construction, certification, exposedness.",
    )
    subs = parser.add_subparsers(dest="cmd", required=True)

    p = subs.add_parser("catalog", help="write the Choi matrix of a catalog map")
    p.add_argument("name", choices=CATALOG)
    _add_catalog_flags(p)
    p.add_argument("--out", help="output file (default stdout)")
    p.set_defaults(handler=cmd_catalog)

    p = subs.add_parser("check", help="certify a Choi matrix")
    p.add_argument("choi_file")
    p.add_argument("--mode", choices=("block-positive", "cp", "ccp"), required=True)
    p.add_argument("--seed", type=int)
    p.add_argument("--restarts", type=int, help="block-positive mode only")
    p.add_argument("--dim-in", type=int, dest="dim_in")
    p.add_argument("--out", help="output file (default stdout)")
    p.set_defaults(handler=cmd_check)

    p = subs.add_parser("detect", help="witness expectation against a state")
    p.add_argument("state_file")
    p.add_argument("witness_file")
    p.add_argument("--dim-in", type=int, dest="dim_in")
    p.add_argument("--out", help="output file (default stdout)")
    p.set_defaults(handler=cmd_detect)

    p = subs.add_parser("exposedness", help="exposedness certification")
    p.add_argument("target", help="catalog name or a Choi matrix file")
    _add_catalog_flags(p)
    p.add_argument("--dim-in", type=int, dest="dim_in")
    p.add_argument("--samples", type=int)
    p.add_argument("--budget", type=int, default=2000)
    p.add_argument("--seed", type=int)
    p.add_argument("--out", help="output file (default stdout)")
    p.set_defaults(handler=cmd_exposedness)

    p = subs.add_parser("verify", help="structural identity suites")
    p.add_argument(
        "--suite",
        choices=_SUITE_FLAGS,
        required=True,
    )
    p.add_argument("--seed", type=int)
    p.add_argument("--trials", type=int, help="default 100; lemma1 and bh-structure only")
    p.add_argument("--dim", type=int, help="default 4, or the size of --u")
    p.add_argument("--u", help="matrix file with an antisymmetric unitary")
    p.add_argument("--out", help="output file (default stdout)")
    p.set_defaults(handler=cmd_verify)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser, built on the first :func:`main` call and shared after it.

    Parsing reads the parser and never changes it, so one parser serves
    every call in the process.
    """
    return build_parser()


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.handler(args, argv)
    except NotBlockPositive as exc:
        print(f"error: input is not block-positive: {exc}", file=sys.stderr)
        return 4
    except ConvergenceFailure as exc:
        print(f"error: convergence failure: {exc}", file=sys.stderr)
        return 3
    except (ConeWitnessError, ValueError, KeyError, TypeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        print(f"error: out of memory: {str(exc) or 'allocation failed'}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
