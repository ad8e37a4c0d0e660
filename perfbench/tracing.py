"""Spans around the public entry points of each seshadri layer.

The benchmark traces from outside the package: it replaces each entry
point with a wrapper at every binding site, that is, every attribute of
a loaded seshadri module that holds the function (`bounds` and `cli`
import several functions by name, so patching the defining module alone
would miss their calls).  `Surd.__post_init__` is wrapped on the class.
`pell_fundamental` is wrapped outside its lru_cache, so cache hits are
spans too and `cache_info()` gives the hit count.

Spans live in flat arrays (name, parent, start, end) while the run goes
on and are written out once at the end.  A span's self time is its
duration minus the durations of its direct children; calls are
single-threaded, so children nest inside their parent.
"""

from __future__ import annotations

import json
import sys
from array import array
from pathlib import Path
from time import perf_counter

# (span name, module, attribute); a class attribute is "Class.attr".
ENTRY_POINTS = [
    ("exact.surd_init", "seshadri.exact", "Surd.__post_init__"),
    ("exact.render_decimal", "seshadri.exact", "render_decimal"),
    ("exact.squarefree", "seshadri.exact", "squarefree_decompose"),
    ("pell.fundamental", "seshadri.pell", "pell_fundamental"),
    ("bounds.compare", "seshadri.bounds", "compare_bounds"),
    ("bounds.candidates", "seshadri.bounds", "enumerate_exceptional_candidates"),
    ("bounds.harbourne", "seshadri.bounds", "harbourne_bound"),
    ("bounds.dominance", "seshadri.bounds", "dominance_scan"),
    ("oracle.theorem", "seshadri.oracle", "verify_theorem"),
    ("oracle.han", "seshadri.oracle", "verify_han_exhaustive"),
    ("oracle.search", "seshadri.oracle", "min_ratio_search"),
    ("cli.main", "seshadri.cli", "main"),
]

# Work counts read off each call: counter name -> f(args, result).
COUNTERS = {
    "bounds.candidates": ("returned", lambda args, res: len(res)),
    "bounds.harbourne": ("elements", lambda args, res: len(res.elements)),
    "bounds.dominance": ("k_scanned", lambda args, res: res.k_cap),
    "oracle.theorem": ("feasible_vectors", lambda args, res: res.feasible_vectors),
    "oracle.han": ("checked", lambda args, res: res.applicable_checked),
    "oracle.search": ("witnesses", lambda args, res: len(res.witnesses)),
}


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = [name for name, _, _ in ENTRY_POINTS]
        self.name_col = array("i")
        self.parent_col = array("i")
        self.start_col = array("d")
        self.end_col = array("d")
        self.stack: list[int] = []
        self.calls = {name: 0 for name in self.names}
        self.failures = {name: 0 for name in self.names}
        self.counts = {f"{name}.{c}": 0 for name, (c, _) in COUNTERS.items()}
        self._patches: list[tuple[object, str, object]] = []

    # -- wrapping -------------------------------------------------------

    def _wrapper(self, name: str, fn):
        nid = self.names.index(name)
        counter = COUNTERS.get(name)
        key = f"{name}.{counter[0]}" if counter else None
        names, parents, starts, ends = self.name_col, self.parent_col, self.start_col, self.end_col
        stack, calls, failures, counts = self.stack, self.calls, self.failures, self.counts

        def traced(*args, **kwargs):
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(idx)
            calls[name] += 1
            starts.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                failures[name] += 1
                raise
            finally:
                ends[idx] = perf_counter()
                stack.pop()
            if key:
                counts[key] += counter[1](args, result)
            return result

        return traced

    def install(self) -> list[str]:
        """Wrap every entry point at every binding site; returns the names
        of entry points that could not be found."""
        missing = []
        modules = [m for n, m in list(sys.modules.items()) if n == "seshadri" or n.startswith("seshadri.")]
        for name, module_name, attr in ENTRY_POINTS:
            owner = sys.modules.get(module_name)
            if "." in attr:
                cls_name, attr = attr.split(".")
                owner = getattr(owner, cls_name, None)
                sites = [owner] if owner is not None else []
            else:
                sites = modules
            fn = getattr(owner, attr, None) if owner is not None else None
            if fn is None:
                missing.append(name)
                continue
            wrapped = self._wrapper(name, fn)
            for site in sites:
                if site.__dict__.get(attr) is fn:
                    self._patches.append((site, attr, fn))
                    setattr(site, attr, wrapped)
        return missing

    def uninstall(self) -> None:
        for site, attr, fn in reversed(self._patches):
            setattr(site, attr, fn)
        self._patches.clear()

    # -- results ----------------------------------------------------------

    def self_times(self) -> dict[str, float]:
        n = len(self.start_col)
        child = array("d", bytes(8 * n))
        starts, ends, parents = self.start_col, self.end_col, self.parent_col
        for i in range(n):
            p = parents[i]
            if p >= 0:
                child[p] += ends[i] - starts[i]
        totals = [0.0] * len(self.names)
        for i in range(n):
            totals[self.name_col[i]] += ends[i] - starts[i] - child[i]
        return dict(zip(self.names, totals))

    def metrics(self) -> dict[str, tuple[float, str]]:
        """`<span>.calls` and `<span>.self_s` for every entry point, plus
        the work counters."""
        out: dict[str, tuple[float, str]] = {}
        for name, self_s in self.self_times().items():
            out[f"{name}.calls"] = (self.calls[name], "count")
            out[f"{name}.self_s"] = (self_s, "s")
        out.update((key, (n, "count")) for key, n in self.counts.items())
        return out

    def write(self, path: Path) -> None:
        """Write the spans as four columns in native byte order, one after
        the other, plus a JSON index that names them."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path.with_suffix(".bin"), "wb") as f:
            for col in (self.name_col, self.parent_col, self.start_col, self.end_col):
                col.tofile(f)
        index = {
            "spans": len(self.start_col),
            "names": self.names,
            "columns": [["name", "i"], ["parent", "i"], ["start", "d"], ["end", "d"]],
            "byteorder": sys.byteorder,
        }
        path.with_suffix(".json").write_text(json.dumps(index, indent=1) + "\n")
