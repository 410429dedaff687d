"""Span tracing of the locsys modules, installed from outside the package.

`Tracer.install()` replaces the functions that callers look up (module
attributes, names bound by ``from ... import``, and a few methods) with
wrappers that record one span per call: name, start, end, parent span and the
benchmark operation that caused it.  Spans stay in compact in-memory arrays
until `write()` dumps them at the end of the run; `uninstall()` restores the
original objects.

Self time of a span is its duration minus the time its direct child spans
cover.  A layer's time counts only the outermost span of that layer, so
nested calls are not counted twice.
"""

from __future__ import annotations

import functools
import gzip
import inspect
from array import array
from time import perf_counter

SPAN_CALL = 1     # a call of the wrapped function
SPAN_RESUME = 0   # one resumption of a wrapped generator

# modules traced as whole layers: every public function of each
WHOLE_MODULES = ("combinat", "spectral", "cones", "integrality")

# Individually traced callables: (span name, owner path, attribute).
# Owner path "mod" is locsys.<mod>; "mod.Class" a class in it.
NAMED = (
    ("laurent.mul", "laurent.LaurentPoly", "__mul__"),
    ("laurent.exact_divide", "laurent.LaurentPoly", "exact_divide"),
    ("laurent.is_weil_invariant", "laurent.LaurentPoly", "is_weil_invariant"),
    ("laurent.evaluate_at_curve", "laurent", "evaluate_at_curve"),
    ("laurent.graeffe_power", "laurent", "graeffe_power"),
    ("laurent.pic_polynomial", "laurent", "pic_polynomial"),
    ("laurent.from_json", "laurent.LaurentPoly", "from_json"),
    ("laurent.to_obj", "laurent.LaurentPoly", "to_obj"),
    ("laurent.curve_from_obj", "laurent.CurveInput", "from_obj"),
    ("series.exp", "series.TruncatedSeries", "exp"),
    ("counting.a_from_c", "counting", "a_from_c"),
    ("counting.exp_coeff", "counting", "_exp_coeff_concrete"),
    ("counting.count_exponent", "counting", "count_exponent"),
    ("counting.c_from_a", "counting", "c_from_a"),
    ("counting.pic_quotient", "counting", "pic_quotient"),
    ("counting.atable_from_json", "counting.ATable", "from_json"),
    ("counting.ctable_to_obj", "counting.CTable", "to_obj"),
    ("verify.run_suite", "verify", "run_suite"),
    ("cli.main", "cli", "main"),
    ("cli.print", "cli", "_print"),
)

# spans called by the CLI itself that make up its input loading and output
# emission; reading the file stays in the CLI's self time
CLI_LOAD = ("laurent.from_json", "laurent.curve_from_obj", "counting.atable_from_json",
            "cli.json_load")
CLI_EMIT = ("cli.print", "cli.json_dump", "laurent.to_obj", "counting.ctable_to_obj")

SUITES = ("kappa", "matrix-tree", "matr", "delta", "gm-family", "cones", "lattice",
          "integrality", "combinat", "aggregation", "roundtrip")
CELLS = ((2, 5), (2, 6), (3, 4), (3, 5), (4, 3))

COUNT_METRICS = (
    "laurent.mul.calls", "laurent.mul.pairs", "laurent.is_weil_invariant.calls",
    "laurent.evaluate_at_curve.calls", "laurent.eval.prec_rounds",
    "laurent.pic_polynomial.calls", "series.exp.calls", "counting.a_from_c.calls",
    "counting.exp_coeff.calls", "counting.pic_quotient.calls",
    "combinat.calls", "combinat.partitions.calls", "spectral.calls", "cones.calls",
    "integrality.calls", "trace.spans",
) + tuple(f"counting.terms.g{g}n{n}" for g, n in CELLS) \
  + tuple(f"verify.{s}.checks" for s in SUITES)
RATIO_METRICS = ("laurent.eval.rounds_per_call", "counting.a_from_c.calls_per_inverse")
TIME_METRICS = (
    "laurent.mul.s", "laurent.exact_divide.s", "laurent.is_weil_invariant.s",
    "laurent.evaluate_at_curve.s", "laurent.graeffe_power.s", "series.exp.s",
    "counting.a_from_c.self_s", "counting.exp_coeff.s", "counting.count_exponent.s",
    "counting.c_from_a.s", "counting.pic_quotient.s",
    "combinat.s", "spectral.s", "cones.s", "integrality.s",
    "cli.load.s", "cli.emit.s", "cli.self_s", "trace.overhead_s",
) + tuple(f"verify.{s}.s" for s in SUITES)


class Tracer:
    def __init__(self):
        self.names = []
        self._ids = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.op = array("i")
        self.work = array("q")
        self.kind = array("b")
        self.outer = array("b")   # bit 0: outermost of its name, bit 1: of its layer
        self._stack = [-1]
        self._depth = {}
        self.op_id = -1
        self._saved = []

    # -- recording -----------------------------------------------------------

    def intern(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _enter(self, nid, layer, kind, work):
        i = len(self.start)
        depth = self._depth
        outer = (depth.get(nid, 0) == 0) | ((depth.get(layer, 0) == 0) << 1)
        depth[nid] = depth.get(nid, 0) + 1
        depth[layer] = depth.get(layer, 0) + 1
        self.name.append(nid)
        self.parent.append(self._stack[-1])
        self.op.append(self.op_id)
        self.work.append(work)
        self.kind.append(kind)
        self.outer.append(outer)
        self.end.append(0.0)
        self._stack.append(i)
        self.start.append(perf_counter())
        return i

    def _exit(self, i, nid, layer):
        self.end[i] = perf_counter()
        self._stack.pop()
        self._depth[nid] -= 1
        self._depth[layer] -= 1

    def wrap(self, name, fn, work=None):
        """Wrapper recording a span per call of fn (per resumption for a
        generator function); work(args) gives the span's operation count."""
        nid = self.intern(name)
        layer = "layer:" + name.split(".")[0]
        enter, exit_ = self._enter, self._exit
        if inspect.isgeneratorfunction(fn):
            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                exit_(enter(nid, layer, SPAN_CALL, 0), nid, layer)
                it = fn(*args, **kwargs)
                while True:
                    i = enter(nid, layer, SPAN_RESUME, 0)
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                    finally:
                        exit_(i, nid, layer)
                    yield item
            return gen_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            i = enter(nid, layer, SPAN_CALL, work(args) if work else 0)
            try:
                return fn(*args, **kwargs)
            finally:
                exit_(i, nid, layer)
        return wrapper

    # -- installation --------------------------------------------------------

    def _set(self, owner, attr, value):
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self):
        import importlib
        import json
        import types

        import mpmath

        mods = {m: importlib.import_module(f"locsys.{m}") for m in
                ("laurent", "series", "counting", "verify", "cli") + WHOLE_MODULES}

        def rebind(original, wrapped):
            # every module-level name that callers look up for this function
            for mod in mods.values():
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._set(mod, attr, wrapped)

        for name, owner_path, attr in NAMED:
            parts = owner_path.split(".")
            owner = mods[parts[0]]
            if len(parts) == 2:
                owner = getattr(owner, parts[1])
            raw = owner.__dict__[attr]
            if isinstance(raw, classmethod):
                wrapped = classmethod(self.wrap(name, raw.__func__))
                self._set(owner, attr, wrapped)
            elif isinstance(owner, type):
                work = _mul_pairs if name == "laurent.mul" else None
                wrapped = self.wrap(name, raw, work)
                self._set(owner, attr, wrapped)
                if attr == "__mul__":
                    self._set(owner, "__rmul__", wrapped)
            elif name == "verify.run_suite":
                self._set(owner, attr, self._wrap_suite(raw))
            else:
                rebind(raw, self.wrap(name, raw))

        for modname in WHOLE_MODULES:
            mod = mods[modname]
            for attr, value in list(vars(mod).items()):
                if (attr.startswith("_") or not inspect.isfunction(value)
                        and not hasattr(value, "cache_info")):
                    continue
                if getattr(value, "__module__", None) != mod.__name__:
                    continue
                rebind(value, self.wrap(f"{modname}.{attr}", value))

        cli = mods["cli"]
        proxy = types.SimpleNamespace(
            load=self.wrap("cli.json_load", json.load),
            dump=self.wrap("cli.json_dump", json.dump),
            dumps=json.dumps, loads=json.loads)
        self._set(cli, "json", proxy)
        self._set(mpmath, "workprec", self.wrap("mpmath.workprec", mpmath.workprec))

    def _wrap_suite(self, run_suite):
        wrapped = {}

        @functools.wraps(run_suite)
        def wrapper(name, *args, **kwargs):
            if name not in wrapped:
                wrapped[name] = self.wrap(f"verify.suite.{name}", run_suite)
            return wrapped[name](name, *args, **kwargs)
        return wrapper

    def uninstall(self):
        while self._saved:
            owner, attr, value = self._saved.pop()
            setattr(owner, attr, value)

    # -- output --------------------------------------------------------------

    def write(self, path, op_names):
        """Write every span as one CSV row, gzip-compressed."""
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            fh.write("span,name,kind,start,end,parent,op,op_name,work\n")
            names = self.names
            for i in range(len(self.start)):
                op = self.op[i]
                fh.write(f"{i},{names[self.name[i]]},{self.kind[i]},{self.start[i]:.9f},"
                         f"{self.end[i]:.9f},{self.parent[i]},{op},"
                         f"{op_names[op] if op >= 0 else ''},{self.work[i]}\n")

    # -- per-layer metrics -----------------------------------------------------

    def summarize(self, op_ids):
        """Per-layer counts and times of the spans caused by the given ops."""
        op_ids = set(op_ids)
        names = self.names
        n = len(self.start)
        child = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        calls, incl, self_t, work = {}, {}, {}, {}
        layer_calls, layer_time = {}, {}
        cli_io = {"load": 0.0, "emit": 0.0}
        in_eval = set()
        workprec_in_eval = 0
        a_in_inverse = 0
        spans = 0
        eval_id = self._ids.get("laurent.evaluate_at_curve")
        inv_id = self._ids.get("counting.c_from_a")
        for i in range(n):
            if self.op[i] not in op_ids:
                continue
            spans += 1
            nm = names[self.name[i]]
            dur = self.end[i] - self.start[i]
            p = self.parent[i]
            if self.name[i] == eval_id:
                in_eval.add(i)
            elif p in in_eval and nm != "laurent.evaluate_at_curve":
                in_eval.add(i)
                if nm == "mpmath.workprec":
                    workprec_in_eval += 1
            layer = nm.split(".")[0]
            if self.kind[i] == SPAN_CALL:
                calls[nm] = calls.get(nm, 0) + 1
                layer_calls[layer] = layer_calls.get(layer, 0) + 1
                if nm == "counting.a_from_c" and p >= 0 and self.name[p] == inv_id:
                    a_in_inverse += 1
            work[nm] = work.get(nm, 0) + self.work[i]
            if self.outer[i] & 1:
                incl[nm] = incl.get(nm, 0.0) + dur
            if self.outer[i] & 2:
                layer_time[layer] = layer_time.get(layer, 0.0) + dur
            self_t[nm] = self_t.get(nm, 0.0) + dur - child[i]
            if p >= 0 and names[self.name[p]].startswith("cli."):
                if nm in CLI_LOAD:
                    cli_io["load"] += dur
                elif nm in CLI_EMIT:
                    cli_io["emit"] += dur

        out = {
            "laurent.mul.calls": calls.get("laurent.mul", 0),
            "laurent.mul.pairs": work.get("laurent.mul", 0),
            "laurent.mul.s": incl.get("laurent.mul", 0.0),
            "laurent.exact_divide.s": incl.get("laurent.exact_divide", 0.0),
            "laurent.is_weil_invariant.calls": calls.get("laurent.is_weil_invariant", 0),
            "laurent.is_weil_invariant.s": incl.get("laurent.is_weil_invariant", 0.0),
            "laurent.evaluate_at_curve.calls": calls.get("laurent.evaluate_at_curve", 0),
            "laurent.evaluate_at_curve.s": incl.get("laurent.evaluate_at_curve", 0.0),
            "laurent.graeffe_power.s": incl.get("laurent.graeffe_power", 0.0),
            "laurent.eval.prec_rounds": workprec_in_eval,
            "laurent.eval.rounds_per_call": _ratio(
                workprec_in_eval, calls.get("laurent.evaluate_at_curve", 0)),
            "laurent.pic_polynomial.calls": calls.get("laurent.pic_polynomial", 0),
            "series.exp.calls": calls.get("series.exp", 0),
            "series.exp.s": incl.get("series.exp", 0.0),
            "counting.a_from_c.calls": calls.get("counting.a_from_c", 0),
            "counting.a_from_c.self_s": self_t.get("counting.a_from_c", 0.0),
            "counting.exp_coeff.calls": calls.get("counting.exp_coeff", 0),
            "counting.exp_coeff.s": incl.get("counting.exp_coeff", 0.0),
            "counting.count_exponent.s": incl.get("counting.count_exponent", 0.0),
            "counting.c_from_a.s": incl.get("counting.c_from_a", 0.0),
            "counting.a_from_c.calls_per_inverse": _ratio(
                a_in_inverse, calls.get("counting.c_from_a", 0)),
            "counting.pic_quotient.calls": calls.get("counting.pic_quotient", 0),
            "counting.pic_quotient.s": incl.get("counting.pic_quotient", 0.0),
            "combinat.partitions.calls": calls.get("combinat.partitions", 0),
            "cli.load.s": cli_io["load"],
            "cli.emit.s": cli_io["emit"],
            "cli.self_s": self_t.get("cli.main", 0.0),
            "trace.spans": spans,
        }
        for layer in WHOLE_MODULES:
            out[f"{layer}.calls"] = layer_calls.get(layer, 0)
            out[f"{layer}.s"] = layer_time.get(layer, 0.0)
        for suite in SUITES:
            out[f"verify.{suite}.s"] = incl.get(f"verify.suite.{suite}", 0.0)
        return out


def _mul_pairs(args):
    a, b = args[0], args[1]
    return len(a.terms) * (len(b.terms) if hasattr(b, "terms") else 1)


def _ratio(num, den):
    return num / den if den else 0.0
