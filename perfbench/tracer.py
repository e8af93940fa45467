"""In-memory spans and counts around the public functions of `hkcurves`.

Nothing here reaches inside `src/`: each traced function is replaced by a
wrapper at every binding site, that is in every `hkcurves.*` module that
holds the same function object.  `engine` imports `rank_gf2`/`rank_modp`
by name while the dense path reaches them through `linalg.rank`, so both
routes are seen.  A span is (name, start, end, parent, run id); the run id
is the index of the `hk` command in its pass.  A span's self time is its
duration minus that of its direct children, so nested kernels are never
counted twice, and the self times of all spans add up to the time spent
inside `cli.main`.

A traced function that no longer exists is skipped, and so is a counter
that no longer fits the code it counts (a renamed argument or constant);
the metrics that need them are reported as absent, with the reason,
instead of crashing.  Spans assume one thread:
the benchmark always passes `--threads 1`.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
from collections import defaultdict
from time import perf_counter


def _resolve(module: str, path: str):
    """(owner, attribute, object) for `module`.`path`, or None when missing."""
    try:
        owner = importlib.import_module(module)
    except ImportError:
        return None
    *parents, attr = path.split(".")
    for name in parents:
        owner = getattr(owner, name, None)
        if owner is None:
            return None
    obj = getattr(owner, attr, None)
    return None if obj is None else (owner, attr, obj)


def patch_everywhere(module: str, path: str, make_wrapper, package: str = "hkcurves"):
    """Replace `module`.`path` by `make_wrapper(fn)` at every binding site.

    Returns an undo list of (owner, attribute, original), or None when the
    function does not exist.  A method is patched once, on its class.
    """
    found = _resolve(module, path)
    if found is None:
        return None
    owner, attr, fn = found
    wrapper = make_wrapper(fn)
    undo = [(owner, attr, fn)]
    setattr(owner, attr, wrapper)
    if inspect.ismodule(owner):
        for name, mod in list(sys.modules.items()):
            if mod is None or mod is owner or not (name == package or name.startswith(package + ".")):
                continue
            for key, val in list(vars(mod).items()):
                if val is fn:
                    undo.append((mod, key, fn))
                    setattr(mod, key, wrapper)
    return undo


def unpatch(undo) -> None:
    for owner, attr, fn in reversed(undo):
        setattr(owner, attr, fn)


# --- counters gathered at the span boundaries --------------------------------

def _count_block(counts, bound, result):
    """Block shape from the arguments of engine.block_rank(f, n, q, method)."""
    from hkcurves import engine

    a = bound.arguments
    tc = engine.truncated_count
    cells = tc(a["n"], a["q"]) * tc(a["n"] + a["f"].d, a["q"])
    counts["engine.block_cells_max"] = max(counts["engine.block_cells_max"], cells)
    method = a["method"]
    dense = cells > 0 and (method == "dense" or (method == "auto" and cells <= engine.DENSE_CELL_LIMIT))
    counts["engine.blocks_dense"] += int(dense)


def _count_cache_get(counts, bound, result):
    counts["engine.cache.hits" if result is not None else "engine.cache.misses"] += 1


def _count_kernel(counts, bound, result):
    rows, cols = next(iter(bound.arguments.values())).shape
    counts["linalg.rank_cells"] += rows * cols
    counts["linalg.rank_ops"] += rows * cols * result
    counts["linalg.pivots"] += result
    counts["linalg.pivot_attempts"] += min(rows, cols)


def _count_candidates(counts, bound, result):
    counts["classify.candidates"] += len(result)


def _count_snap(counts, bound, result):
    counts["classify.classified" if result.status == "classified" else "classify.ambiguous"] += 1


def _count_members(counts, bound, result):
    counts["families.members"] += len(result)


# (span name, module, attribute path, counter hook)
TARGETS = [
    ("cli.main", "hkcurves.cli", "main", None),
    ("gf.parse_field", "hkcurves.gf", "parse_field", None),
    ("poly.parse_poly", "hkcurves.poly", "parse_poly", None),
    ("engine.colength", "hkcurves.engine", "colength", None),
    ("engine.block_rank", "hkcurves.engine", "block_rank", _count_block),
    ("engine.smooth_check", "hkcurves.engine", "smooth_check", None),
    ("engine.cache_load", "hkcurves.engine", "SampleCache.__init__", None),
    ("engine.cache_get", "hkcurves.engine", "SampleCache.get", _count_cache_get),
    ("engine.cache_put", "hkcurves.engine", "SampleCache.put", None),
    ("linalg.rank", "hkcurves.linalg", "rank", None),
    ("linalg.rank_gf2", "hkcurves.linalg", "rank_gf2", _count_kernel),
    ("linalg.rank_modp", "hkcurves.linalg", "rank_modp", _count_kernel),
    ("linalg.restrict_scalars", "hkcurves.linalg", "restrict_scalars", None),
    ("classify.snap_classify", "hkcurves.classify", "snap_classify", _count_snap),
    ("classify.candidate_set", "hkcurves.classify", "candidate_set", _count_candidates),
    ("families.sweep_monsky2", "hkcurves.families", "sweep_monsky2", _count_members),
    ("families.sweep_monsky3", "hkcurves.families", "sweep_monsky3", _count_members),
    ("families.sweep_singular", "hkcurves.families", "sweep_singular", _count_members),
]


class Tracer:
    """Spans and counts for the calls made while `recording` is true."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index, run id]
        self.counts: dict[str, int] = defaultdict(int)
        self.missing: dict[str, str] = {}  # span or "<span>.counts" -> reason
        self.recording = False
        self.run_id = -1
        self._stack: list[int] = []
        self._undo: list = []

    def install(self) -> None:
        for name, module, path, hook in TARGETS:
            undo = patch_everywhere(module, path, functools.partial(self._wrap, name, hook))
            if undo is None:
                self.missing[name] = f"{module}.{path} does not exist"
            else:
                self._undo += undo

    def uninstall(self) -> None:
        unpatch(self._undo)
        self._undo = []

    def _wrap(self, name, hook, fn):
        sig = inspect.signature(fn) if hook is not None else None
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.recording:
                return fn(*args, **kwargs)
            idx = len(tracer.spans)
            parent = tracer._stack[-1] if tracer._stack else -1
            span = [name, 0.0, 0.0, parent, tracer.run_id]
            tracer.spans.append(span)
            tracer._stack.append(idx)
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                tracer._stack.pop()
            if hook is not None and name + ".counts" not in tracer.missing:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                try:
                    hook(tracer.counts, bound, result)
                except (AttributeError, KeyError, TypeError) as exc:
                    tracer.missing[name + ".counts"] = f"counter for {name} failed: {exc!r}"
            return result

        return traced

    def self_times(self) -> list[float]:
        own = [s[2] - s[1] for s in self.spans]
        for s in self.spans:
            if s[3] >= 0:
                own[s[3]] -= s[2] - s[1]
        return own

    def layer_metrics(self) -> tuple[dict[str, float], dict[str, str]]:
        """(metrics, absent): every per-layer metric, or why it is absent."""
        own = self.self_times()
        incl: dict[str, float] = defaultdict(float)
        excl: dict[str, float] = defaultdict(float)
        calls: dict[str, int] = defaultdict(int)
        outer_linalg = 0
        for s, t in zip(self.spans, own):
            incl[s[0]] += s[2] - s[1]
            excl[s[0]] += t
            calls[s[0]] += 1
            if s[0].startswith("linalg.") and (s[3] < 0 or not self.spans[s[3]][0].startswith("linalg.")):
                outer_linalg += 1
        c = self.counts
        linalg = [n for n, *_ in TARGETS if n.startswith("linalg.")]
        cache = ["engine.cache_load", "engine.cache_get", "engine.cache_put"]
        sweeps = [n for n, *_ in TARGETS if n.startswith("families.")]
        kernels = ["linalg.rank_gf2.counts", "linalg.rank_modp.counts"]
        # metric -> (value, spans it needs); "<span>.counts" needs the span and its counter
        table = {
            "engine.block_rank_s": (incl["engine.block_rank"], ["engine.block_rank"]),
            "engine.assembly_s": (excl["engine.block_rank"], ["engine.block_rank"]),
            "engine.blocks": (calls["engine.block_rank"], ["engine.block_rank"]),
            "engine.blocks_dense": (c["engine.blocks_dense"], ["engine.block_rank.counts"]),
            "engine.block_cells_max": (c["engine.block_cells_max"], ["engine.block_rank.counts"]),
            "engine.colength_s": (incl["engine.colength"], ["engine.colength"]),
            "engine.colength.calls": (calls["engine.colength"], ["engine.colength"]),
            "engine.closed_form_s": (excl["engine.colength"], ["engine.colength"]),
            "engine.smooth_check_s": (incl["engine.smooth_check"], ["engine.smooth_check"]),
            "engine.cache_s": (sum(incl[n] for n in cache), cache),
            "engine.cache.hits": (c["engine.cache.hits"], ["engine.cache_get.counts"]),
            "engine.cache.misses": (c["engine.cache.misses"], ["engine.cache_get.counts"]),
            "linalg.rank_s": (sum(excl[n] for n in linalg), linalg),
            "linalg.rank.calls": (outer_linalg, linalg),
            "linalg.rank_gf2_s": (excl["linalg.rank_gf2"], ["linalg.rank_gf2"]),
            "linalg.rank_modp_s": (excl["linalg.rank_modp"], ["linalg.rank_modp"]),
            "linalg.restrict_scalars_s": (excl["linalg.restrict_scalars"], ["linalg.restrict_scalars"]),
            "linalg.rank_cells": (c["linalg.rank_cells"], kernels),
            "linalg.rank_ops": (c["linalg.rank_ops"], kernels),
            "linalg.pivot_ratio": (
                c["linalg.pivots"] / c["linalg.pivot_attempts"] if c["linalg.pivot_attempts"] else 0.0,
                kernels,
            ),
            "classify.snap_s": (incl["classify.snap_classify"], ["classify.snap_classify"]),
            "classify.candidates": (c["classify.candidates"], ["classify.candidate_set.counts"]),
            "classify.classified": (c["classify.classified"], ["classify.snap_classify.counts"]),
            "classify.ambiguous": (c["classify.ambiguous"], ["classify.snap_classify.counts"]),
            "families.sweep_s": (sum(excl[n] for n in sweeps), sweeps),
            "families.members": (c["families.members"], [n + ".counts" for n in sweeps]),
            "poly.parse_s": (incl["poly.parse_poly"], ["poly.parse_poly"]),
            "gf.parse_field_s": (incl["gf.parse_field"], ["gf.parse_field"]),
            "cli.self_s": (excl["cli.main"], ["cli.main"]),
        }
        metrics, absent = {}, {}
        for metric, (value, needs) in table.items():
            needs = needs + [n.removesuffix(".counts") for n in needs]
            gone = list(dict.fromkeys(self.missing[n] for n in needs if n in self.missing))
            if gone:
                absent[metric] = "; ".join(gone)
            else:
                metrics[metric] = value
        return metrics, absent

    def dump(self, path: str, extra: dict) -> None:
        """Write spans, counts and absences as one JSON document."""
        doc = {
            "span_fields": ["name", "start", "end", "parent", "run"],
            "spans": self.spans,
            "counts": dict(self.counts),
            "missing": self.missing,
            **extra,
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
