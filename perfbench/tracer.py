"""Per-module tracing for the benchmark's traced run.

The tracer measures each symchar module from outside: it replaces every
public function of every symchar module, and the arithmetic and public
methods of ``RatPoly``, by a timing wrapper, in every module namespace that
binds the same object (``stanley`` imports ``s_functional_multirect_symbolic``
by name, so the wrapper goes into ``stanley`` as well as ``functionals``).
``restore()`` puts every original object back.

Spans are aggregated in memory per (function, parent function): calls, total
time and time spent in child spans, so hot leaf calls such as
``perms.cycles`` cost one dictionary update each.  A span's self time is its
total minus its children.  Time spent inside a generator's ``__next__`` is a
span of that generator's function, and the yields are counted.
"""

from __future__ import annotations

import inspect
import sys
import time

perf = time.perf_counter

ROOT = "<root>"

# RatPoly members that are traced besides its public methods; __repr__ and
# __hash__ are aliases or constants and __init__ runs inside the others.
RATPOLY_DUNDERS = frozenset({
    "__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
    "__neg__", "__pow__", "__eq__", "__str__",
})


def symchar_modules() -> list:
    """The imported symchar package and its submodules, package first."""
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "symchar" or name.startswith("symchar."))]


def _is_traceable(obj) -> bool:
    if not callable(obj) or inspect.isclass(obj):
        return False
    module = getattr(obj, "__module__", None) or ""
    return module.startswith("symchar.") and (
        inspect.isfunction(obj) or hasattr(obj, "cache_info"))


def _label(obj) -> str:
    return f"{obj.__module__.rsplit('.', 1)[-1]}.{obj.__name__}"


def module_of(label: str) -> str:
    return label.split(".", 1)[0]


class Tracer:
    """Installs timing wrappers into the symchar modules and aggregates
    spans while ``enabled`` is true."""

    def __init__(self):
        self.enabled = False
        self.stack = [[ROOT, 0.0]]
        self.stats: dict[tuple[str, str], list] = {}
        self.yields: dict[str, int] = {}
        self.terms_out = 0
        self._saved: list[tuple[object, str, object]] = []

    # -- spans --------------------------------------------------------
    def set_root(self, name: str) -> None:
        """Name the span that top-level calls are attributed to (one op)."""
        self.stack[:] = [[name, 0.0]]

    def _record(self, frame, dt: float) -> None:
        stack = self.stack
        if stack and stack[-1] is frame:
            stack.pop()
        parent = stack[-1] if stack else [ROOT, 0.0]
        parent[1] += dt
        key = (frame[0], parent[0])
        rec = self.stats.get(key)
        if rec is None:
            self.stats[key] = [1, dt, frame[1]]
        else:
            rec[0] += 1
            rec[1] += dt
            rec[2] += frame[1]

    def _wrap_call(self, fn, name: str, count_terms: bool):
        tracer = self

        def traced(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            frame = [name, 0.0]
            tracer.stack.append(frame)
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._record(frame, perf() - t0)
            if count_terms:
                tracer.terms_out += _term_count(result)
            return result

        _copy_identity(traced, fn)
        for attr in ("cache_info", "cache_clear"):
            if hasattr(fn, attr):
                setattr(traced, attr, getattr(fn, attr))
        return traced

    def _wrap_generator(self, fn, name: str):
        tracer = self

        def steps(it):
            nxt = it.__next__
            while True:
                if not tracer.enabled:
                    try:
                        item = nxt()
                    except StopIteration:
                        return
                    yield item
                    continue
                frame = [name, 0.0]
                tracer.stack.append(frame)
                t0 = perf()
                try:
                    item = nxt()
                except StopIteration:
                    return
                finally:
                    tracer._record(frame, perf() - t0)
                tracer.yields[name] = tracer.yields.get(name, 0) + 1
                yield item

        def traced(*args, **kwargs):
            return steps(fn(*args, **kwargs))

        _copy_identity(traced, fn)
        return traced

    # -- installation -------------------------------------------------
    def install(self) -> None:
        """Wrap every traceable object in every symchar namespace."""
        if self._saved:
            raise RuntimeError("tracer already installed")
        wrappers: dict[int, object] = {}
        for module in symchar_modules():
            for attr, obj in list(vars(module).items()):
                if attr.startswith("_") or not _is_traceable(obj):
                    continue
                wrapper = wrappers.get(id(obj))
                if wrapper is None:
                    label = _label(obj)
                    if inspect.isgeneratorfunction(obj):
                        wrapper = self._wrap_generator(obj, label)
                    else:
                        wrapper = self._wrap_call(obj, label, module_of(label) == "ratpoly")
                    wrappers[id(obj)] = wrapper
                self._saved.append((module, attr, obj))
                setattr(module, attr, wrapper)
        ratpoly = sys.modules.get("symchar.ratpoly")
        if ratpoly is not None:
            self._install_class(ratpoly.RatPoly, "ratpoly.RatPoly")

    def _install_class(self, cls, prefix: str) -> None:
        for attr, raw in list(vars(cls).items()):
            if attr.startswith("_") and attr not in RATPOLY_DUNDERS:
                continue
            name = f"{prefix}.{attr}"
            if isinstance(raw, classmethod):
                wrapped = classmethod(self._wrap_call(raw.__func__, name, True))
            elif isinstance(raw, staticmethod):
                wrapped = staticmethod(self._wrap_call(raw.__func__, name, True))
            elif inspect.isfunction(raw):
                wrapped = self._wrap_call(raw, name, True)
            else:
                continue
            self._saved.append((cls, attr, raw))
            setattr(cls, attr, wrapped)

    def restore(self) -> None:
        """Put every original object back, in reverse order of wrapping."""
        for target, attr, original in reversed(self._saved):
            setattr(target, attr, original)
        self._saved.clear()
        self.enabled = False

    # -- aggregation --------------------------------------------------
    def merge(self, stats: dict, yields: dict, terms_out: int) -> None:
        """Add spans recorded elsewhere, e.g. by a traced child process."""
        for key, (calls, total, child) in stats.items():
            rec = self.stats.setdefault(tuple(key), [0, 0.0, 0.0])
            rec[0] += calls
            rec[1] += total
            rec[2] += child
        for name, n in yields.items():
            self.yields[name] = self.yields.get(name, 0) + n
        self.terms_out += terms_out

    def export(self) -> dict:
        return {
            "stats": [[f, p, *rec] for (f, p), rec in sorted(self.stats.items())],
            "yields": dict(sorted(self.yields.items())),
            "terms_out": self.terms_out,
        }

    def calls(self, label: str) -> int:
        return sum(rec[0] for (f, _), rec in self.stats.items() if f == label)

    def total_s(self, label: str) -> float:
        return sum(rec[1] for (f, _), rec in self.stats.items() if f == label)

    def module_totals(self) -> dict[str, tuple[int, float]]:
        """module -> (calls, self seconds)."""
        out: dict[str, list] = {}
        for (f, _), (calls, total, child) in self.stats.items():
            acc = out.setdefault(module_of(f), [0, 0.0])
            acc[0] += calls
            acc[1] += total - child
        return {m: (c, s) for m, (c, s) in out.items()}


def _copy_identity(wrapper, fn) -> None:
    """Give the wrapper the name and module of what it wraps, so labels and
    cache lookups see the same function."""
    for attr in ("__module__", "__name__", "__qualname__", "__doc__"):
        if hasattr(fn, attr):
            setattr(wrapper, attr, getattr(fn, attr))
    wrapper.__wrapped__ = fn


def _term_count(value) -> int:
    terms = getattr(value, "_terms", None)
    return len(terms) if isinstance(terms, dict) else 0
