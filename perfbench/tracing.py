"""Span tracer that wraps the public functions of the zdsys layers from
outside the package.

Each wrapped call records a span (id, parent id, job, name, start, end)
and adds to per-function call counts, inclusive time and self time (the
span's duration minus the part covered by its child spans).  Spans are
kept in memory up to a cap and written out by the caller at the end;
the per-function totals cover every call, also past the cap.
"""

import functools
import inspect
import sys
import time

LAYERS = ("space", "towers", "cpalgebra", "ktheory", "numeric", "cli")
# Private functions that a per-layer metric needs.
EXTRA = {"cli": ("_emit",)}
SPAN_CAP = 50_000


def _first_return(c, args, kwargs, result):
    c["towers.first_return.steps"] += max((t.J for t in result.classes), default=0)


def _levels(c, args, kwargs, result):
    c["towers.levels_max"] = max(c["towers.levels_max"], len(result))


def _cp_element(c, args, kwargs, result):
    pieces = sum(len(sf) for _, sf in result.terms)
    c["cpalgebra.pieces_max"] = max(c["cpalgebra.pieces_max"], pieces)


def _matrix_units(c, args, kwargs, result):
    c["cpalgebra.matrix_units.count"] += len(result)


def _snf(c, args, kwargs, result):
    A = args[0] if args else kwargs["A"]
    c["ktheory.snf.cells"] += A.rows * A.cols


def _window(c, n):
    c["numeric.window_max"] = max(c["numeric.window_max"], n)


def _operator_norm(c, args, kwargs, result):
    M = args[0] if args else kwargs["M"]
    _window(c, max(getattr(M, "matrix", M).shape))


def _represent(c, args, kwargs, result):
    _window(c, len(result.points))


OBSERVERS = {
    "towers.first_return_decomposition": _first_return,
    "towers.tower_levels": _levels,
    "cpalgebra.cp_element": _cp_element,
    "cpalgebra.matrix_units": _matrix_units,
    "ktheory.smith_normal_form": _snf,
    "numeric.operator_norm": _operator_norm,
    "numeric.represent": _represent,
}

COUNTERS = (
    "towers.first_return.steps",
    "towers.levels_max",
    "cpalgebra.pieces_max",
    "cpalgebra.matrix_units.count",
    "ktheory.snf.cells",
    "numeric.window_max",
)


def layer_functions():
    """{function object: "layer.name"} for every traced function."""
    out = {}
    for layer in LAYERS:
        mod = sys.modules["zdsys." + layer]
        for name, obj in vars(mod).items():
            public = not name.startswith("_") or name in EXTRA.get(layer, ())
            if public and inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                out[obj] = "%s.%s" % (layer, name)
    return out


class Tracer:
    def __init__(self):
        self.stats = {}  # name -> [calls, inclusive s, self s]
        self.counters = dict.fromkeys(COUNTERS, 0)
        self.spans = []
        self.job = None
        self._stack = []
        self._active = {}
        self._next_id = 0
        self._base = time.perf_counter()
        self._patches = []

    def _wrap(self, name, fn):
        entry = self.stats.setdefault(name, [0, 0.0, 0.0])
        observer = OBSERVERS.get(name)
        stack, active, spans = self._stack, self._active, self.spans
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = self._next_id
            self._next_id = sid + 1
            frame = [0.0, sid]
            depth = active.get(name, 0)
            active[name] = depth + 1
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                active[name] = depth
                dur = t1 - t0
                entry[0] += 1
                entry[2] += dur - frame[0]
                if depth == 0:  # recursion is counted once in inclusive time
                    entry[1] += dur
                parent = None
                if stack:
                    stack[-1][0] += dur
                    parent = stack[-1][1]
                if sid < SPAN_CAP:
                    spans.append((sid, parent, self.job, name,
                                  t0 - self._base, t1 - self._base))
            if observer is not None:
                observer(self.counters, args, kwargs, result)
            return result

        return traced

    def install(self):
        """Replace every binding of a traced function in the zdsys
        modules: module attributes, names imported with ``from .x import
        f``, and values of module-level dicts such as the command table."""
        originals = layer_functions()
        wrappers = {fn: self._wrap(name, fn) for fn, name in originals.items()}
        for modname, mod in list(sys.modules.items()):
            if modname != "zdsys" and not modname.startswith("zdsys."):
                continue
            for attr, val in list(vars(mod).items()):
                if inspect.isfunction(val) and val in wrappers:
                    self._patches.append((mod.__dict__, attr, val))
                    setattr(mod, attr, wrappers[val])
                elif isinstance(val, dict) and not attr.startswith("__"):
                    for k, v in list(val.items()):
                        if inspect.isfunction(v) and v in wrappers:
                            self._patches.append((val, k, v))
                            val[k] = wrappers[v]

    def uninstall(self):
        for table, key, original in reversed(self._patches):
            table[key] = original
        self._patches.clear()

    @property
    def spans_total(self):
        """Spans recorded and dropped past the cap."""
        return self._next_id

    def calls(self, name):
        return self.stats.get(name, (0, 0.0, 0.0))[0]

    def inclusive(self, name):
        return self.stats.get(name, (0, 0.0, 0.0))[1]

    def self_time(self, name):
        return self.stats.get(name, (0, 0.0, 0.0))[2]

    def layer_metrics(self):
        """The per-layer metrics, as {name: (value, unit)}; a function
        the run never called reads zero."""
        space = [n for n in self.stats if n.startswith("space.")]
        c, s, i = self.calls, self.self_time, self.inclusive
        m = {
            "space.calls": (sum(c(n) for n in space), "count"),
            "space.self_s": (sum(s(n) for n in space), "s"),
        }
        for fn in ("complement", "intersect", "apply_h"):
            m["space.%s.calls" % fn] = (c("space." + fn), "count")
            m["space.%s.self_s" % fn] = (s("space." + fn), "s")
        m["space.is_subset.calls"] = (c("space.is_subset"), "count")
        m["towers.first_return.calls"] = (c("towers.first_return_decomposition"), "count")
        m["towers.first_return.steps"] = (self.counters["towers.first_return.steps"], "count")
        for metric, fn in (("build", "build_from_bases"), ("refine", "refine_system"),
                           ("validate", "validate_system"),
                           ("adapted_pair", "adapted_system_pair")):
            m["towers.%s.s" % metric] = (i("towers." + fn), "s")
        m["towers.levels_max"] = (self.counters["towers.levels_max"], "count")
        m["cpalgebra.multiply.calls"] = (c("cpalgebra.multiply"), "count")
        m["cpalgebra.multiply.self_s"] = (s("cpalgebra.multiply"), "s")
        m["cpalgebra.cp_element.self_s"] = (s("cpalgebra.cp_element"), "s")
        m["cpalgebra.pieces_max"] = (self.counters["cpalgebra.pieces_max"], "count")
        m["cpalgebra.matrix_units.count"] = (self.counters["cpalgebra.matrix_units.count"], "count")
        m["cpalgebra.identity_suite.s"] = (i("cpalgebra.identity_suite"), "s")
        m["cpalgebra.proof_unitaries.s"] = (i("cpalgebra.proof_unitaries"), "s")
        m["ktheory.alpha_star.s"] = (i("ktheory.alpha_star"), "s")
        m["ktheory.snf.s"] = (i("ktheory.smith_normal_form"), "s")
        m["ktheory.snf.cells"] = (self.counters["ktheory.snf.cells"], "count")
        m["numeric.berg_verify.s"] = (i("numeric.berg_verify"), "s")
        m["numeric.operator_norm.calls"] = (c("numeric.operator_norm"), "count")
        m["numeric.operator_norm.s"] = (i("numeric.operator_norm"), "s")
        m["numeric.window_max"] = (self.counters["numeric.window_max"], "count")
        m["numeric.unitary_nth_root.s"] = (i("numeric.unitary_nth_root"), "s")
        m["numeric.represent.calls"] = (c("numeric.represent"), "count")
        m["numeric.represent.s"] = (i("numeric.represent"), "s")
        m["numeric.cutdown_check.s"] = (i("numeric.cutdown_check"), "s")
        m["cli.emit.s"] = (i("cli._emit"), "s")
        return m
