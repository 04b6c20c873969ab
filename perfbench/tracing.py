"""Spans around the program's public functions, recorded from the outside.

The tracer wraps every public function of the program's layer modules in
every namespace that bound it (``seesaw_endpoints`` lives in both
``positivity`` and ``exposedness``; ``exposedness_report`` is also bound in
``cli``), so a call made through any of those names opens a span.  A span
records the function, start, end, parent span and item index.  Spans are
kept in flat arrays in memory and written out when the run ends.  The
wrappers read arguments and results to count work but never draw from a
random generator, so a traced item computes exactly what an untraced one
does.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time
from array import array
from collections import Counter
from pathlib import Path

import numpy as np

PACKAGE = "conewitness"
LAYERS = ("catalog", "maps", "positivity", "exposedness", "linalg", "cli")

SEESAW = "positivity.seesaw_endpoints"
IS_BP = "positivity.is_block_positive"
FACE = "exposedness.dual_face_samples"
CONE = "exposedness.cone_search_off_ray"
REPORT = "exposedness.exposedness_report"
NULLSPACE = "linalg.svd_nullspace"
RENDER = "cli.canonical_json"
ASSEMBLY = ("exposedness.face_constraint_matrix", "exposedness.stationarity_rows")
# maps is the other half of Choi construction; its pairing and vector
# helpers are not construction and stay out of catalog.build_s
CHOI_BUILDERS = ("maps.choi_from_apply", "maps.map_from_choi", "maps.choi_of",
                 "maps.compose_with_transpose")

# what each counted function's call contributes, read from its arguments
# and result only
OBSERVERS = {
    SEESAW: lambda args, kwargs, r: (r[0].shape[0], r[3], bool(r[4])),
    FACE: lambda args, kwargs, r: len(r.pairs),
    ASSEMBLY[0]: lambda args, kwargs, r: r.shape[0],
    ASSEMBLY[1]: lambda args, kwargs, r: r.shape[0],
    NULLSPACE: lambda args, kwargs, r: np.asarray(args[0]).size * 8,
    CONE: lambda args, kwargs, r: r is not None,
    RENDER: lambda args, kwargs, r: len(r.encode()),
}


class Tracer:
    def __init__(self) -> None:
        package = importlib.import_module(PACKAGE)
        layers = [importlib.import_module(f"{PACKAGE}.{name}") for name in LAYERS]
        originals = {}
        for mod in layers:
            for name, value in vars(mod).items():
                if (
                    not name.startswith("_")
                    and inspect.isfunction(value)
                    and value.__module__.startswith(PACKAGE + ".")
                ):
                    layer = value.__module__.rsplit(".", 1)[1]
                    originals[id(value)] = (value, f"{layer}.{value.__name__}")
        self.names = sorted({qual for _, qual in originals.values()})
        index = {qual: i for i, qual in enumerate(self.names)}
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.item = array("q")
        self.func = array("q")
        self.info: dict[int, object] = {}
        self._stack = [-1]
        self._item = -1
        wrappers = {
            key: self._wrap(fn, index[qual], OBSERVERS.get(qual))
            for key, (fn, qual) in originals.items()
        }
        self._sites = [
            (mod, name, value, wrappers[id(value)])
            for mod in [package, *layers]
            for name, value in vars(mod).items()
            if id(value) in wrappers
        ]

    def _wrap(self, fn, func_id, observe):
        start, end, parent, item, func = self.start, self.end, self.parent, self.item, self.func
        stack, info, clock = self._stack, self.info, time.perf_counter

        def traced(*args, **kwargs):
            sid = len(start)
            func.append(func_id)
            parent.append(stack[-1])
            item.append(self._item)
            end.append(0.0)
            stack.append(sid)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[sid] = clock()
                stack.pop()
            if observe is not None:
                info[sid] = observe(args, kwargs, result)
            return result

        return functools.update_wrapper(traced, fn)

    def run(self, item_index: int, call):
        """Call ``call()`` with every wrapper installed; return (result, first span id)."""
        first = len(self.start)
        self._item = item_index
        for mod, name, _, wrapper in self._sites:
            setattr(mod, name, wrapper)
        try:
            return call(), first
        finally:
            for mod, name, original, _ in self._sites:
                setattr(mod, name, original)
            self._item = -1

    def structure_errors(self, first: int, expected: dict[str, int]) -> list[str]:
        """Compare the spans from ``first`` on with an item's expected structure."""
        sids = range(first, len(self.start))
        counts = Counter(self.names[self.func[s]] for s in sids)
        errors = [
            f"{qual}: {counts[qual]} spans, expected {want}"
            for qual, want in expected.items()
            if counts[qual] != want
        ]
        if self._stack != [-1]:
            errors.append(f"span stack not empty: {self._stack}")
        # every block-positivity verdict runs the see-saw exactly once
        per_bp = Counter()
        for s in sids:
            if self.names[self.func[s]] != SEESAW:
                continue
            p = self.parent[s]
            while p >= 0 and self.names[self.func[p]] != IS_BP:
                p = self.parent[p]
            if p >= 0:
                per_bp[p] += 1
        for s in sids:
            if self.names[self.func[s]] == IS_BP and per_bp[s] != 1:
                errors.append(f"is_block_positive span {s} has {per_bp[s]} see-saw spans")
        return errors

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "func": np.frombuffer(self.func, dtype=np.int64),
            "start": np.frombuffer(self.start),
            "end": np.frombuffer(self.end),
            "parent": np.frombuffer(self.parent, dtype=np.int64),
            "item": np.frombuffer(self.item, dtype=np.int64),
        }

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez_compressed(path, names=np.array(self.names), **self.arrays())


def _outermost(start, end, mask) -> np.ndarray:
    """Indices of masked spans that no other masked span encloses."""
    idx = np.flatnonzero(mask)
    if idx.size == 0:
        return idx
    ends = end[idx]
    prev_end = np.concatenate([[-np.inf], np.maximum.accumulate(ends)[:-1]])
    return idx[start[idx] >= prev_end]


def layer_metrics(tracer: Tracer, items: int) -> dict[str, tuple[float, str]]:
    """Per-layer figures over the traced items, each per item or a ratio."""
    a = tracer.arrays()
    qual = np.array(tracer.names)[a["func"]]
    layer = np.array([q.split(".", 1)[0] for q in qual], dtype=str)
    start, end, parent = a["start"], a["end"], a["parent"]
    dur = end - start
    covered = np.zeros(dur.size)
    has_parent = parent >= 0
    np.add.at(covered, parent[has_parent], dur[has_parent])
    self_time = dur - covered
    info = tracer.info
    n = max(items, 1)

    def inclusive(mask):
        return float(dur[_outermost(start, end, mask)].sum()) / n

    def among(*quals):
        return np.isin(qual, quals)

    def values(q):
        # a call that raised left no observation
        return [info[s] for s in np.flatnonzero(qual == q) if s in info]

    def under(q, p):
        return [s for s in np.flatnonzero(qual == q) if parent[s] >= 0 and qual[parent[s]] == p]

    def ratio(num, den):
        return num / den if den else 0.0

    seesaw, faces, cone = values(SEESAW), values(FACE), values(CONE)
    return {
        "catalog.build_s": (inclusive((layer == "catalog") | among(*CHOI_BUILDERS)), "s/item"),
        "positivity.seesaw_s": (inclusive(among(SEESAW)), "s/item"),
        "positivity.seesaw_calls": (len(seesaw) / n, "count/item"),
        "positivity.seesaw_restart_iters": (sum(r * it for r, it, _ in seesaw) / n, "count/item"),
        "positivity.seesaw_unconverged": (ratio(sum(not c for _, _, c in seesaw), len(seesaw)), "ratio"),
        "positivity.cp_check_s": (inclusive(among("positivity.is_completely_positive")), "s/item"),
        "exposedness.face_sampling_s": (inclusive(among(FACE)), "s/item"),
        "exposedness.face_pairs": (sum(faces) / n, "count/item"),
        "exposedness.assembly_s": (inclusive(among(*ASSEMBLY)), "s/item"),
        "exposedness.constraint_rows": (sum(sum(values(q)) for q in ASSEMBLY) / n, "count/item"),
        "exposedness.cone_search_s": (inclusive(among(CONE)), "s/item"),
        "exposedness.cone_search_certify_calls": (len(under(IS_BP, CONE)) / n, "count/item"),
        "exposedness.cone_search_hit_ratio": (ratio(sum(cone), len(cone)), "ratio"),
        "exposedness.report_self_s": (float(self_time[qual == REPORT].sum()) / n, "s/item"),
        "linalg.nullspace_s": (inclusive(among(NULLSPACE)), "s/item"),
        "linalg.nullspace_calls": (len(values(NULLSPACE)) / n, "count/item"),
        "linalg.nullspace_input_mb": (sum(values(NULLSPACE)) / 1e6 / n, "MB/item"),
        "cli.render_s": (inclusive(among(RENDER)), "s/item"),
        "cli.self_s": (float(self_time[layer == "cli"].sum()) / n, "s/item"),
        "cli.report_bytes": (sum(values(RENDER)) / n, "B/item"),
        "trace.spans": (dur.size / n, "count/item"),
    }
