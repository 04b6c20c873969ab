"""Seeded workloads for the conewitness benchmark.

Each workload is an endless, deterministic stream of items made from the
workload seed.  An item is one unit of user-visible work (one map verdict
or one exposedness report).  ``execute`` is the part that is timed and
calls the program only through module attributes (``positivity.x(...)``,
never a name bound at import), so the tracer's wrappers see every call.
``judge`` runs untimed: it turns the raw result into the bytes that enter
the report digest, checks the verdict against its reference and states
how many spans of each traced function the item must have produced.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterator

import numpy as np

from conewitness import catalog, cli, positivity
from conewitness.errors import ConeWitnessError

# criterion 2 of the acceptance suite: the box, its boundary shell and the
# two see-saw settings of its decision procedure
BOX = 2.5
SHELL = 0.02
LEAN = positivity.SeeSawConfig(restarts=8, max_iters=150, stop_below=-1e-6)
DEEP = positivity.SeeSawConfig(restarts=64, max_iters=400)

EXPOSED = "CERTIFIED_EXPOSED"
NOT_EXPOSED = "NOT_EXPOSED"
INCONCLUSIVE = "CONSISTENT_WITH_EXPOSED"  # the cone search found no validated witness

# the two messages ``cli.main`` prints, with exit code 2, when
# ``exposedness_report`` raises UnstableDimension: the program's documented
# refusal when a face sample is not large enough to fix the null space
UNSTABLE = re.compile(
    r"error: (nullspace dim \d+ at \d+ samples vs \d+ at \d+"
    r"|sampled face excludes the map's own Choi \(residual \S+\))"
)


@dataclass(frozen=True)
class Outcome:
    record: bytes  # canonical bytes of the item's result; enters the digest
    verdict: str
    failure: str | None  # None when the item passed its reference check
    spans: dict[str, int]  # expected number of spans per traced function
    # failed, but the program declined to decide rather than answer wrongly:
    # its own typed error, or its inconclusive exposedness verdict
    undecided: bool = False


@dataclass(frozen=True)
class Item:
    index: int
    label: str
    execute: Callable[[], object]
    judge: Callable[[object], Outcome]


@dataclass(frozen=True)
class Workload:
    rotation: int  # a run ends on a multiple of this many items
    digest_items: int  # the report digest covers this many leading items
    items: Iterator[Item]


def _failed(label: str, exc: BaseException) -> Outcome:
    undecided = isinstance(exc, ConeWitnessError)
    return Outcome(b"", "ERROR", f"{label}: {type(exc).__name__}: {exc}", {}, undecided)


# --- bp_grid ----------------------------------------------------------------


def _bp_item(index, a, b, c, lean_seed, deep_seed) -> Item:
    predicted = catalog.choi_family_is_positive(a, b, c)

    def execute():
        # criterion 2's decision procedure, verbatim: a CP map counts as
        # outside the positive-but-not-CP region the predicate describes
        phi = catalog.choi_family(a, b, c)
        cp, _ = positivity.is_completely_positive(phi)
        if cp:
            return cp, None, None
        lean = positivity.is_block_positive(phi, LEAN, np.random.default_rng(lean_seed))
        deep = None
        if lean[0] == "EVIDENCE_BP" and not catalog.choi_family_is_positive(a, b, c):
            deep = positivity.is_block_positive(phi, DEEP, np.random.default_rng(deep_seed))
        return cp, lean, deep

    label = f"choi-family({a:.4f},{b:.4f},{c:.4f})"

    def judge(raw) -> Outcome:
        if isinstance(raw, BaseException):
            return _failed(label, raw)
        cp, lean, deep = raw
        final = deep if deep is not None else lean
        numeric = final is not None and final[0] == "EVIDENCE_BP"
        parts = [repr(a), repr(b), repr(c), f"cp={cp}"]
        for tag, res in (("lean", lean), ("deep", deep)):
            if res is not None:
                rep = res[1]
                parts += [tag, res[0], repr(rep.min_value), str(rep.iterations), str(rep.converged)]
        calls = (lean is not None) + (deep is not None)
        spans = {
            "catalog.choi_family": 1,
            "positivity.is_completely_positive": 1,
            "positivity.is_block_positive": calls,
            "positivity.seesaw_endpoints": calls,
            "linalg.svd_nullspace": 0,
        }
        verdict = "POSITIVE" if numeric else "NOT_POSITIVE"
        failure = None
        if numeric != predicted:
            failure = f"{label}: numeric {numeric}, analytic {predicted}"
        return Outcome((" ".join(parts) + "\n").encode(), verdict, failure, spans)

    return Item(index, label, execute, judge)


def bp_grid(seed: int, workdir: Path) -> Workload:
    """Choi-family points uniform in criterion 2's box, off its 0.02 shell."""

    def items():
        rng = np.random.default_rng(seed)
        index = 0
        while True:
            a, b, c = (float(v) for v in rng.uniform(0.0, BOX, size=3))
            lean_seed, deep_seed = (int(s) for s in rng.integers(2**32, size=2))
            if catalog.choi_family_boundary_margin(a, b, c) < SHELL:
                continue
            yield _bp_item(index, a, b, c, lean_seed, deep_seed)
            index += 1

    return Workload(rotation=1, digest_items=200, items=items())


# --- exposedness through the CLI -------------------------------------------


def _write_matrix(path: Path, M: np.ndarray) -> str:
    """Write a MatrixFile; items run inside ``path``'s directory and name it bare.

    A bare name keeps the argv that every report echoes, and so the report
    digest, the same wherever the work directory is.
    """
    path.write_text(cli.canonical_json(cli.matrix_to_obj(M)), encoding="utf-8")
    return path.name


def _expose_item(index, label, target, expected, item_seed) -> Item:
    argv = ["exposedness", *target, "--seed", str(item_seed)]

    def execute():
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
        return code, out.getvalue(), err.getvalue()

    def judge(raw) -> Outcome:
        if isinstance(raw, BaseException):
            return _failed(label, raw)
        code, text, err = raw
        if code != 0:
            undecided = code == 2 and UNSTABLE.fullmatch(err.strip()) is not None
            failure = f"{label} seed {item_seed}: exit {code}: {err.strip()}"
            return Outcome(text.encode(), "ERROR", failure, {}, undecided)
        doc = json.loads(text)
        verdict, dim = doc["verdict"], doc["nullspace_dim"]
        failure = None
        if expected is not None and verdict != expected:
            failure = f"{label} seed {item_seed}: {verdict} (nullity {dim}), expected {expected}"
        spans = {
            "cli.main": 1,
            "cli.canonical_json": 1,
            "exposedness.exposedness_report": 1,
            "linalg.svd_nullspace": 2,
            "exposedness.cone_search_off_ray": int(dim > 1),
        }
        # validation draws a third face sample; a rejected candidate may or
        # may not have reached that step, so only the settled verdicts count
        if verdict in (EXPOSED, NOT_EXPOSED):
            spans["exposedness.dual_face_samples"] = 2 + (verdict == NOT_EXPOSED)
        undecided = failure is not None and verdict == INCONCLUSIVE
        return Outcome(text.encode(), verdict, failure, spans, undecided)

    return Item(index, label, execute, judge)


def _expose_stream(seed: int, targets) -> Iterator[Item]:
    rng = np.random.default_rng(np.random.SeedSequence(seed).spawn(2)[1])
    for index in itertools.count():
        label, target, expected = targets[index % len(targets)]
        yield _expose_item(index, label, target, expected, int(rng.integers(2**31)))


def expose_m4(seed: int, workdir: Path) -> Workload:
    """Catalog targets with a closed-form face, up to M_4."""
    u_rng = np.random.default_rng(np.random.SeedSequence(seed).spawn(2)[0])
    u_file = _write_matrix(workdir / "bh4_u.json", catalog.random_antisymmetric_unitary(4, u_rng))
    targets = [
        ("reduction-3", ["reduction", "--n", "3"], NOT_EXPOSED),
        ("transpose-3", ["transpose", "--n", "3"], EXPOSED),
        ("reduction-4", ["reduction", "--n", "4"], NOT_EXPOSED),
        ("robertson", ["robertson"], EXPOSED),
        ("breuer-hall-4", ["breuer-hall", "--u", u_file], EXPOSED),
    ]
    return Workload(len(targets), len(targets), _expose_stream(seed, targets))

