"""Span tracing of the dirmax layers, installed from outside the program.

``Tracer.install`` wraps every public function of the six dirmax modules,
plus the serialization methods of the public classes, by rebinding module
and class attributes at run time.  Names that other dirmax modules bound at
import (``from .grid_ops import m1``) and function tables such as
``harness._OPS`` are rebound too, so calls between layers are seen.  No
source file is edited; ``uninstall`` restores every original binding.

A span is (name, start, end, parent, item).  Spans are recorded only while
an item is open (``begin_item``/``end_item``), kept in memory, and
aggregated or written out when the run ends.  Counts are computed from call
arguments and results after the call returns, outside the span; the costly
ones are deferred until ``aggregate``.
"""

from __future__ import annotations

import math
import os
import sys
import time
import types

LAYERS = ("lacunary", "kernels", "grid_ops", "sectors", "harness", "cli")

# serialization methods of public classes, timed as their own spans
CLASS_METHODS = {
    "grid_ops": {"Grid2D": ("save", "load")},
    "lacunary": {
        "LacunaryDecomposition": ("to_json", "from_json", "save", "load"),
        "DirectionSet": ("to_json", "from_json"),
    },
}

GRID_IO = {"grid_ops.Grid2D.save", "grid_ops.Grid2D.load"}
LACUNARY_JSON = {"lacunary.LacunaryDecomposition.to_json",
                 "lacunary.LacunaryDecomposition.from_json",
                 "lacunary.LacunaryDecomposition.save",
                 "lacunary.LacunaryDecomposition.load",
                 "lacunary.DirectionSet.to_json",
                 "lacunary.DirectionSet.from_json"}
OPERATORS = {"grid_ops.m0", "grid_ops.m1", "grid_ops.m2"}
DECOMPOSERS = {"lacunary.random_complete_decomposition", "lacunary.binary_decomposition"}
OVERLAP = {"sectors.max_overlap", "sectors.max_overlap_with_argmax"}
STRIP_SWEEPS = OVERLAP | {"sectors.strip_multiplier_energy"}

# every per-layer metric, in report order: (name, unit)
PER_LAYER = (
    ("grid_ops.self_s", "s"),
    ("grid_ops.m0.self_s", "s"),
    ("grid_ops.m1.self_s", "s"),
    ("grid_ops.m2.self_s", "s"),
    ("grid_ops.chain_check.self_s", "s"),
    ("grid_ops.gamma_op.self_s", "s"),
    ("grid_ops.grid_io_s", "s"),
    ("grid_ops.calls", "count"),
    ("grid_ops.mpx_dir", "Mpx"),
    ("grid_ops.mpx_dir_per_s", "Mpx/s"),
    ("kernels.self_s", "s"),
    ("kernels.calls", "count"),
    ("lacunary.self_s", "s"),
    ("lacunary.random_complete_decomposition.self_s", "s"),
    ("lacunary.binary_decomposition.self_s", "s"),
    ("lacunary.json_s", "s"),
    ("lacunary.rank_intervals", "count"),
    ("lacunary.intervals_per_s", "1/s"),
    ("sectors.self_s", "s"),
    ("sectors.max_overlap.self_s", "s"),
    ("sectors.strip_multiplier_energy.self_s", "s"),
    ("sectors.domination_ratio.self_s", "s"),
    ("sectors.strips", "count"),
    ("sectors.strips_per_s", "1/s"),
    ("harness.self_s", "s"),
    ("harness.generate.self_s", "s"),
    ("harness.measure_ratio.self_s", "s"),
    ("harness.rows", "count"),
    ("harness.dirs_kept_frac", "ratio"),
    ("cli.self_s", "s"),
    ("cli.calls", "count"),
    ("cli.bytes_in", "count"),
    ("cli.bytes_out", "count"),
    ("cli.nonzero_exits", "count"),
    ("bench.unattributed_s", "s"),
    ("bench.trace_overhead_s", "s"),
)


def _arg(args, kwargs, i, name):
    return args[i] if len(args) > i else kwargs.get(name)


def _file_size(path) -> int:
    try:
        return os.path.getsize(path)
    except (OSError, TypeError):
        return 0


def _cli_bytes(argv, keys):
    argv = list(argv)
    return sum(_file_size(argv[i + 1]) for i, a in enumerate(argv[:-1]) if a in keys)


def _strips(decomp, top: bool) -> int:
    # pole strips of rank <= mu-1 intervals, plus both endpoint strips of
    # every top-rank interval when the top count is evaluated
    mu = decomp.order
    low = sum(1 for j in decomp.rank_intervals if j.rank <= mu - 1 and j.pole is not None)
    high = 2 * sum(1 for j in decomp.rank_intervals if j.rank == mu) if top else 0
    return low + high


def _count_hook(name):
    """Counts from a call's arguments and result: {counter: value or thunk}."""
    if name in OPERATORS:
        return lambda a, k, r: {"mpx_dir": a[0].width * a[0].height * len(a[1]) / 1e6}
    if name in DECOMPOSERS:
        return lambda a, k, r: {"rank_intervals": lambda: len(r.rank_intervals)}
    if name in OVERLAP:
        return lambda a, k, r: {"strips": lambda: _strips(_arg(a, k, 0, "decomp"), True)}
    if name == "sectors.strip_multiplier_energy":
        return lambda a, k, r: {"strips": lambda: _strips(_arg(a, k, 0, "decomp"), False)}
    if name in ("harness.sweep_N", "harness.sweep_mu"):
        def rows(a, k, r):
            out = {"rows": len(r.rows)}
            if name == "harness.sweep_mu":
                out["dirs_kept"] = sum(row.n_directions for row in r.rows
                                       if row.operator == r.rows[0].operator)
            return out
        return rows
    if name == "harness.staged_lacunary_directions":
        return lambda a, k, r: {"slopes": len(r.final_set)}
    if name == "cli.run":
        return lambda a, k, r: {
            "bytes_in": _cli_bytes(a[0], ("--grid", "--directions", "--decomp",
                                          "--input", "--chain")),
            "bytes_out": _cli_bytes(a[0], ("--out",)),
            "nonzero_exits": int(r != 0),
        }
    return None


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []  # (name, start, end, parent, item)
        self.counts: list[tuple] = []  # (name, {counter: value or thunk})
        self.item = None
        self._stack: list[int] = []
        self._restore: list[tuple] = []

    # -- recording -------------------------------------------------------
    def begin_item(self, item_id) -> None:
        self.item = item_id
        self._stack.clear()

    def end_item(self) -> None:
        self.item = None

    def _wrap(self, name, fn):
        hook = _count_hook(name)
        spans, counts, stack = self.spans, self.counts, self._stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            if self.item is None:
                return fn(*args, **kwargs)
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                spans[idx] = (name, t0, t1, parent, self.item)
            if hook is not None:
                counts.append((name, hook(args, kwargs, result)))
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    # -- installation ----------------------------------------------------
    def _targets(self, modules):
        """{id(original): (span name, original)} for every traced callable."""
        targets = {}
        for layer in LAYERS:
            mod = modules[layer]
            for attr, obj in vars(mod).items():
                if (not attr.startswith("_") and isinstance(obj, types.FunctionType)
                        and obj.__module__ == mod.__name__):
                    targets[id(obj)] = (f"{layer}.{attr}", obj)
        return targets

    def install(self) -> None:
        modules = {layer: sys.modules[f"dirmax.{layer}"] for layer in LAYERS}
        targets = self._targets(modules)
        wrappers = {key: self._wrap(name, fn) for key, (name, fn) in targets.items()}

        def rebind(owner, attr, new, old):
            self._restore.append((owner, attr, old))
            setattr(owner, attr, new)

        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "dirmax" or mod_name.startswith("dirmax.")):
                continue
            for attr, obj in list(vars(mod).items()):
                if id(obj) in wrappers and targets[id(obj)][1] is obj:
                    rebind(mod, attr, wrappers[id(obj)], obj)
                elif isinstance(obj, dict) and not attr.startswith("__"):
                    # function tables such as harness._OPS
                    for key, val in list(obj.items()):
                        if id(val) in wrappers and targets[id(val)][1] is val:
                            self._restore.append((obj, key, val))
                            obj[key] = wrappers[id(val)]
        for layer, classes in CLASS_METHODS.items():
            for cls_name, methods in classes.items():
                cls = getattr(modules[layer], cls_name)
                for meth in methods:
                    raw = cls.__dict__[meth]
                    name = f"{layer}.{cls_name}.{meth}"
                    if isinstance(raw, staticmethod):
                        new = staticmethod(self._wrap(name, raw.__func__))
                    else:
                        new = self._wrap(name, raw)
                    rebind(cls, meth, new, raw)

    def uninstall(self) -> None:
        for owner, attr, old in reversed(self._restore):
            if isinstance(owner, dict):
                owner[attr] = old
            else:
                setattr(owner, attr, old)
        self._restore.clear()

    # -- aggregation -----------------------------------------------------
    def self_times(self) -> list[float]:
        child = [0.0] * len(self.spans)
        for name, t0, t1, parent, _item in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        return [t1 - t0 - c for (_n, t0, t1, _p, _i), c in zip(self.spans, child)]

    def aggregate(self, traced_wall: float, n_jobs: int, overhead: float) -> dict:
        """Per-layer metrics, each a mean per traced job."""
        selft = self.self_times()
        by_name_self: dict[str, float] = {}
        by_name_total: dict[str, float] = {}
        by_name_calls: dict[str, int] = {}
        top_level = 0.0
        for (name, t0, t1, parent, _item), s in zip(self.spans, selft):
            by_name_self[name] = by_name_self.get(name, 0.0) + s
            by_name_total[name] = by_name_total.get(name, 0.0) + (t1 - t0)
            by_name_calls[name] = by_name_calls.get(name, 0) + 1
            if parent < 0:
                top_level += t1 - t0
        counters: dict[str, float] = {}
        for _name, vals in self.counts:
            for key, val in vals.items():
                counters[key] = counters.get(key, 0.0) + (val() if callable(val) else val)

        def layer(prefix, table):
            return sum(v for k, v in table.items() if k.split(".")[0] == prefix)

        def names(group, table):
            return sum(table.get(n, 0.0) for n in group)

        def rate(num, den):
            return num / den if den > 0 else 0.0

        m = {}
        for lay in LAYERS:
            m[f"{lay}.self_s"] = layer(lay, by_name_self)
        for op in ("m0", "m1", "m2", "chain_check", "gamma_op"):
            m[f"grid_ops.{op}.self_s"] = by_name_self.get(f"grid_ops.{op}", 0.0)
        m["grid_ops.grid_io_s"] = names(GRID_IO, by_name_self)
        m["grid_ops.calls"] = layer("grid_ops", by_name_calls)
        m["grid_ops.mpx_dir"] = counters.get("mpx_dir", 0.0)
        m["grid_ops.mpx_dir_per_s"] = rate(counters.get("mpx_dir", 0.0), m["grid_ops.self_s"])
        m["kernels.calls"] = layer("kernels", by_name_calls)
        for fn in ("random_complete_decomposition", "binary_decomposition"):
            m[f"lacunary.{fn}.self_s"] = by_name_self.get(f"lacunary.{fn}", 0.0)
        m["lacunary.json_s"] = names(LACUNARY_JSON, by_name_self)
        m["lacunary.rank_intervals"] = counters.get("rank_intervals", 0.0)
        m["lacunary.intervals_per_s"] = rate(counters.get("rank_intervals", 0.0),
                                             names(DECOMPOSERS, by_name_total))
        m["sectors.max_overlap.self_s"] = names(OVERLAP, by_name_self)
        for fn in ("strip_multiplier_energy", "domination_ratio"):
            m[f"sectors.{fn}.self_s"] = by_name_self.get(f"sectors.{fn}", 0.0)
        m["sectors.strips"] = counters.get("strips", 0.0)
        m["sectors.strips_per_s"] = rate(counters.get("strips", 0.0),
                                         names(STRIP_SWEEPS, by_name_total))
        for fn in ("generate", "measure_ratio"):
            m[f"harness.{fn}.self_s"] = by_name_self.get(f"harness.{fn}", 0.0)
        m["harness.rows"] = counters.get("rows", 0.0)
        m["harness.dirs_kept_frac"] = rate(counters.get("dirs_kept", 0.0),
                                           counters.get("slopes", 0.0))
        m["cli.calls"] = by_name_calls.get("cli.run", 0)
        for key in ("bytes_in", "bytes_out", "nonzero_exits"):
            m[f"cli.{key}"] = counters.get(key, 0.0)
        m["bench.unattributed_s"] = traced_wall - top_level

        # sums become means per traced job; rates and fractions stay as they are
        out = {}
        for name, _unit in PER_LAYER:
            if name == "bench.trace_overhead_s":
                out[name] = overhead
            elif name.endswith(("_per_s", "_frac")):
                out[name] = m[name]
            else:
                out[name] = m[name] / n_jobs
        for v in out.values():
            if not math.isfinite(v):
                raise ValueError("non-finite per-layer metric")
        return out

    def calls_by_name(self) -> dict[str, int]:
        out: dict[str, int] = {}
        for span in self.spans:
            out[span[0]] = out.get(span[0], 0) + 1
        return out

    def edges(self) -> set[str]:
        return {f"{self.spans[p][0]}>{name}" for name, _t0, _t1, p, _i in self.spans if p >= 0}

    def dump(self) -> list[list]:
        base = min((s[1] for s in self.spans), default=0.0)
        return [[name, t0 - base, t1 - base, parent, item]
                for name, t0, t1, parent, item in self.spans]
