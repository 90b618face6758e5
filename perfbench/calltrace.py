"""Call tracing from outside the package: wrap public functions and methods of
``silc`` modules, count calls, and split inclusive time into self time.

A target that a refactor has removed is recorded as absent instead of failing
the run.  Inclusive time of a function counts only its outermost activation,
so recursive calls are not double counted; self time is a call's duration
minus the durations of the wrapped calls nested directly inside it.
"""

from __future__ import annotations

import importlib
import sys
from time import perf_counter

# (module, attribute path) of every wrapped target; the metric prefix is the
# module name.
TARGETS = [
    ("weylgroup", "WeylGroup.__init__"),
    ("weylgroup", "WeylGroup.compose"),
    ("weylgroup", "WeylGroup.length_finite"),
    ("weylgroup", "WeylGroup.length_affine"),
    ("weylgroup", "WeylGroup.bruhat_le"),
    ("weylgroup", "WeylGroup.reduced_word"),
    ("semiinf", "SemiInfiniteOrder.si_le"),
    ("semiinf", "SemiInfiniteOrder.si_interval"),
    ("semiinf", "SemiInfiniteOrder.si_covers_below"),
    ("semiinf", "SemiInfiniteOrder.box"),
    ("loopmodel", "span_closure"),
    ("loopmodel", "schubert_blocks"),
    ("loopmodel", "richardson_blocks"),
    ("loopmodel", "global_weyl_blocks"),
    ("charring", "demazure_step"),
    ("charring", "demazure_word"),
    ("charring", "weyl_character"),
    ("charring", "gch_global_weyl"),
    ("pieri", "compute_pieri"),
    ("pieri", "smt_character"),
    ("pieri", "schubert_section_character"),
    ("pieri", "h0_dimension"),
    ("cache", "load"),
    ("cache", "store"),
    ("quasimap", "validate_dp"),
    ("quasimap", "defect_divisor"),
    ("quasimap", "saturate"),
    ("quasimap", "evaluate"),
    ("quasimap", "schubert_member"),
    ("quasimap", "dim_richardson"),
    ("quasimap", "dim_parabolic"),
]


class Stat:
    __slots__ = ("calls", "incl", "self_s", "depth")

    def __init__(self):
        self.calls = 0
        self.incl = 0.0
        self.self_s = 0.0
        self.depth = 0


class Tracer:
    def __init__(self):
        self.stats = {}        # "module.attr" -> Stat
        self.module_incl = {}  # module -> outermost inclusive seconds
        self.counters = {}     # derived counts recorded by result hooks
        self.absent = []
        self._stack = []       # frames: [name, child_seconds, extra]
        self._module_depth = {}

    def count(self, name, n=1):
        self.counters[name] = self.counters.get(name, 0) + n

    # -- installation ---------------------------------------------------------

    def install(self):
        """Wrap every target; a module or attribute that is gone is absent."""
        for modname in {m for m, _ in TARGETS}:
            try:
                importlib.import_module("silc." + modname)
            except ImportError:
                pass
        mods = {name: mod for name, mod in sys.modules.items()
                if name == "silc" or name.startswith("silc.")}
        for modname, path in TARGETS:
            mod = mods.get("silc." + modname)
            name = f"{modname}.{path}"
            owner, attr = mod, path
            if mod is not None and "." in path:
                cls, attr = path.split(".")
                owner = getattr(mod, cls, None)
            orig = getattr(owner, attr, None) if owner is not None else None
            if orig is None:
                self.absent.append(name)
                continue
            wrapped = self._wrap(name, modname, orig)
            if owner is mod:
                # rebind every module-level reference, including imported names
                for m in mods.values():
                    for key, val in list(vars(m).items()):
                        if val is orig:
                            setattr(m, key, wrapped)
            else:
                setattr(owner, attr, wrapped)

    def _wrap(self, name, modname, fn):
        st = self.stats.setdefault(name, Stat())
        stack = self._stack
        mdepth = self._module_depth
        incl = self.module_incl
        hook = _HOOKS.get(name)
        collects = name.endswith("si_interval")
        tracer = self

        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else None
            frame = [name, 0.0, set() if collects else None]
            stack.append(frame)
            st.depth += 1
            mdepth[modname] = mdepth.get(modname, 0) + 1
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                stack.pop()
                st.depth -= 1
                mdepth[modname] -= 1
                st.calls += 1
                if st.depth == 0:
                    st.incl += dt
                if mdepth[modname] == 0:
                    incl[modname] = incl.get(modname, 0.0) + dt
                st.self_s += dt - frame[1]
                if parent is not None:
                    parent[1] += dt
            if hook is not None:
                hook(tracer, args, result, frame, parent)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    # -- reporting -------------------------------------------------------------

    def snapshot(self):
        """Everything recorded so far, as plain data, with times in ms."""
        return {
            "stats": {k: [s.calls, s.incl * 1000, s.self_s * 1000]
                      for k, s in self.stats.items()},
            "module_ms": {k: v * 1000 for k, v in self.module_incl.items()},
            "counters": dict(self.counters),
        }

    def since(self, before):
        """What was recorded after the snapshot ``before``."""
        now = self.snapshot()
        old = before["stats"]
        return {
            "stats": {k: [x - y for x, y in zip(v, old.get(k, (0, 0.0, 0.0)))]
                      for k, v in now["stats"].items()},
            "module_ms": {k: v - before["module_ms"].get(k, 0.0)
                          for k, v in now["module_ms"].items()},
            "counters": {k: v - before["counters"].get(k, 0)
                         for k, v in now["counters"].items()},
        }


# -- result hooks: counts measured where the work happens ---------------------

def _si_le(tracer, args, result, frame, parent):
    if not frame[2]:
        tracer.count("si_le.bruhat_free")
    if parent is not None and parent[0].endswith("si_interval"):
        parent[2].update(args[1:3])


def _bruhat_le(tracer, args, result, frame, parent):
    for f in reversed(tracer._stack):
        if f[0].endswith("si_le"):
            f[2] = True
            break


def _si_interval(tracer, args, result, frame, parent):
    tested = frame[2] - {args[1], args[2]}
    tracer.count("si_interval.returned", len(result))
    tracer.count("si_interval.tested", max(len(tested), len(result)))


def _span_closure(tracer, args, result, frame, parent):
    dims = result.dims()
    tracer.count("span_closure.pivots", sum(dims.values()))
    tracer.count("span_closure.blocks", len(dims))


def _blocks(tracer, args, result, frame, parent):
    tracer.count("blocks.dimension", sum(result.values()))


def _cache_load(tracer, args, result, frame, parent):
    tracer.count("cache.hits" if result is not None else "cache.misses")


_HOOKS = {
    "semiinf.SemiInfiniteOrder.si_le": _si_le,
    "weylgroup.WeylGroup.bruhat_le": _bruhat_le,
    "semiinf.SemiInfiniteOrder.si_interval": _si_interval,
    "loopmodel.span_closure": _span_closure,
    "loopmodel.schubert_blocks": _blocks,
    "loopmodel.richardson_blocks": _blocks,
    "loopmodel.global_weyl_blocks": _blocks,
    "cache.load": _cache_load,
}
