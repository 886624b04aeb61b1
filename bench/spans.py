"""Spans around the calls each `sigfd` module makes into the others.

The tracer replaces a public function at the import site where its
consumer looks it up (for example `sigfd.recognition.distance`, which is
what `identify` calls), so the program itself is not edited.  Each
wrapped call opens a span with a parent id; spans stay in memory and are
written out once, when the run ends.  Leaf functions called thousands of
times per operation (`distance`, `load_descriptor`, `save_descriptor`)
are aggregated into a count and a total time on the enclosing span
instead of one span each.
"""

import contextlib
import time
from collections import Counter, defaultdict

from sigfd import cli, descriptor, imaging, recognition
from sigfd.metrics import MEASURE_NAMES
from sigfd.wavelet import WaveletFamily

LAYERS = ("imaging", "wavelet", "descriptor", "metrics", "recognition", "cli")

# (module whose global is replaced, attribute, traced name, how)
# how: "span", "agg" (aggregate into the parent), or a callable giving a
# key suffix from the call arguments.
_family = lambda args, kwargs: args[1].value  # noqa: E731
_measure = lambda args, kwargs: args[0].name  # noqa: E731

SITES = (
    (imaging, "median_filter", "imaging.median_filter", "span"),
    (imaging, "binarize", "imaging.binarize", "span"),
    (imaging, "estimate_orientation", "imaging.estimate_orientation", "span"),
    (imaging, "rotate", "imaging.rotate", "span"),
    (imaging, "scale_normalize", "imaging.scale_normalize", "span"),
    (descriptor, "preprocess", "imaging.preprocess", "span"),
    (recognition, "preprocess", "imaging.preprocess", "span"),
    (cli, "load_image", "imaging.load_image", "span"),
    (recognition, "load_image", "imaging.load_image", "span"),
    (descriptor, "dwt2_multi", "wavelet.dwt2_multi", _family),
    (recognition, "dwt2_multi", "wavelet.dwt2_multi", _family),
    (descriptor, "dft", "descriptor.dft", "span"),
    (recognition, "dft", "descriptor.dft", "span"),
    (descriptor, "normalize_descriptor", "descriptor.normalize_descriptor", "span"),
    (recognition, "normalize_descriptor", "descriptor.normalize_descriptor", "span"),
    (recognition, "extract_features", "descriptor.extract_features", "span"),
    (recognition, "load_descriptor", "descriptor.load_descriptor", "agg"),
    (recognition, "save_descriptor", "descriptor.save_descriptor", "agg"),
    (recognition, "distance", "metrics.distance", "agg"),
    (recognition, "pairwise_distances", "metrics.pairwise_distances", _measure),
    (recognition, "identify", "recognition.identify", "span"),
    (cli, "identify", "recognition.identify", "span"),
    (recognition, "verify", "recognition.verify", "span"),
    (cli, "verify", "recognition.verify", "span"),
    (cli, "enroll", "recognition.enroll", "span"),
    (recognition, "evaluate", "recognition.evaluate", "span"),
    (cli, "load_gallery", "recognition.load_gallery", "span"),
    (cli, "save_gallery", "recognition.save_gallery", "span"),
    (cli, "run", "cli.run", "span"),
)


class Tracer:
    """Installs the wrappers between `install()` and `remove()`.

    Traced calls must happen inside a span the benchmark opens with
    `span()`, which is where aggregated calls are counted.

    A span is [id, parent id, name, start s, end s, child s, aggregates],
    where child s is the time covered by its direct children and
    aggregates maps an aggregated name to [calls, total s].
    """

    def __init__(self):
        self._saved = []
        self._stack = []
        self.spans = []
        self.errors = Counter()
        self.cells = 0
        self.templates_written = 0
        self.templates_new = 0
        self._loaded = {}

    def install(self) -> None:
        for module, attr, name, how in SITES:
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(original, name, how))

    def remove(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    @contextlib.contextmanager
    def span(self, name: str):
        """A span the benchmark opens itself, around one operation."""
        rec = self._open(name)
        try:
            yield
        finally:
            self._close(rec)

    def _open(self, name: str) -> list:
        parent = self._stack[-1][0] if self._stack else None
        rec = [len(self.spans), parent, name, time.perf_counter(), None, 0.0, {}]
        self.spans.append(rec)
        self._stack.append(rec)
        return rec

    def _close(self, rec: list) -> None:
        rec[4] = time.perf_counter()
        self._stack.pop()
        if self._stack:
            self._stack[-1][5] += rec[4] - rec[3]

    def _wrap(self, fn, name: str, how):
        layer = name.split(".", 1)[0]
        tracer = self

        if how == "agg":
            def aggregated(*args, **kwargs):
                t0 = time.perf_counter()
                try:
                    return fn(*args, **kwargs)
                except Exception:
                    tracer.errors[layer] += 1
                    raise
                finally:
                    dt = time.perf_counter() - t0
                    parent = tracer._stack[-1]
                    parent[5] += dt
                    slot = parent[6].setdefault(name, [0, 0.0])
                    slot[0] += 1
                    slot[1] += dt
            return aggregated

        def spanned(*args, **kwargs):
            full = name if how == "span" else f"{name}.{how(args, kwargs)}"
            rec = tracer._open(full)
            try:
                out = fn(*args, **kwargs)
            except Exception:
                tracer.errors[layer] += 1
                raise
            finally:
                tracer._close(rec)
            tracer._observe(name, args, out)
            return out
        return spanned

    def _observe(self, name: str, args, out) -> None:
        """Counts taken from arguments and results where the work happens."""
        if name == "metrics.pairwise_distances":
            self.cells += out.size
        elif name == "recognition.load_gallery":
            self._loaded[str(args[0])] = {(t.identity, t.sample_id) for t in out.templates}
        elif name == "recognition.save_gallery":
            gallery, root = args[0], str(args[1])
            before = self._loaded.get(root, set())
            keys = {(t.identity, t.sample_id) for t in gallery.templates}
            self.templates_written += len(keys)
            self.templates_new += len(keys - before)
        elif name == "cli.run" and out != 0:
            self.errors["cli"] += 1

    def stats(self) -> dict:
        """name -> [calls, total ms, self ms] over every span and aggregate."""
        out = defaultdict(lambda: [0, 0.0, 0.0])
        for _, _, name, t0, t1, child, aggs in self.spans:
            s = out[name]
            s[0] += 1
            s[1] += 1e3 * (t1 - t0)
            s[2] += 1e3 * (t1 - t0 - child)
            for agg_name, (calls, total) in aggs.items():
                a = out[agg_name]
                a[0] += calls
                a[1] += 1e3 * total
                a[2] += 1e3 * total
        return dict(out)

    def dump(self) -> list:
        """Spans as JSON-ready dicts, times in ms from the first span."""
        if not self.spans:
            return []
        base = self.spans[0][3]
        return [{"id": i, "parent": p, "name": n,
                 "start_ms": round(1e3 * (t0 - base), 4), "end_ms": round(1e3 * (t1 - base), 4),
                 "self_ms": round(1e3 * (t1 - t0 - c), 4),
                 "agg": {k: [v[0], round(1e3 * v[1], 4)] for k, v in a.items()}}
                for i, p, n, t0, t1, c, a in self.spans]


def layer_metrics(tracer: Tracer) -> dict:
    """Per-layer metrics named <module>.<function>.<quantity>; 0 when never called."""
    st = tracer.stats()

    def calls(name):
        return st.get(name, (0,))[0]

    def mean(name):
        return st[name][1] / st[name][0] if name in st else 0.0

    def self_mean(name):
        return st[name][2] / st[name][0] if name in st else 0.0

    m = {}
    for fn in ("median_filter", "binarize", "estimate_orientation", "rotate",
               "scale_normalize", "preprocess", "load_image"):
        m[f"imaging.{fn}.ms"] = (mean(f"imaging.{fn}"), "ms")
    families = [f.value for f in WaveletFamily]
    for fam in families:
        m[f"wavelet.dwt2_multi.ms.{fam}"] = (mean(f"wavelet.dwt2_multi.{fam}"), "ms")
    m["wavelet.dwt2_multi.calls"] = (sum(calls(f"wavelet.dwt2_multi.{f}") for f in families), "count")
    for fn in ("extract_features", "dft", "normalize_descriptor"):
        m[f"descriptor.{fn}.ms"] = (mean(f"descriptor.{fn}"), "ms")
    for fn in ("load_descriptor", "save_descriptor"):
        m[f"descriptor.{fn}.ms"] = (mean(f"descriptor.{fn}"), "ms")
        m[f"descriptor.{fn}.calls"] = (calls(f"descriptor.{fn}"), "count")
    m["metrics.distance.calls"] = (calls("metrics.distance"), "count")
    m["metrics.distance.ms"] = (mean("metrics.distance"), "ms")
    for measure in MEASURE_NAMES:
        m[f"metrics.pairwise_distances.ms.{measure}"] = (
            mean(f"metrics.pairwise_distances.{measure}"), "ms")
    m["metrics.pairwise_distances.cells"] = (tracer.cells, "count")
    for fn in ("identify", "verify", "enroll", "evaluate"):
        m[f"recognition.{fn}.self_ms"] = (self_mean(f"recognition.{fn}"), "ms")
    for fn in ("load_gallery", "save_gallery"):
        m[f"recognition.{fn}.ms"] = (mean(f"recognition.{fn}"), "ms")
    m["recognition.save_gallery.templates_written"] = (tracer.templates_written, "count")
    m["recognition.save_gallery.useful_ratio"] = (
        tracer.templates_new / tracer.templates_written if tracer.templates_written else 0.0, "ratio")
    m["cli.run.self_ms"] = (self_mean("cli.run"), "ms")
    m["cli.run.calls"] = (calls("cli.run"), "count")

    own = Counter()
    for name, (_, _, self_ms) in st.items():
        own[name.split(".", 1)[0]] += self_ms
    traced = sum(own.values())
    for layer in LAYERS:
        m[f"{layer}.errors"] = (tracer.errors[layer], "count")
        m[f"{layer}.self_pct"] = (100.0 * own[layer] / traced if traced else 0.0, "%")
    return m


def top_self(tracer: Tracer, root: str, n: int = 6) -> list:
    """Largest self times (ms per root call) among descendants of `root` spans."""
    by_id = {}
    roots = 0
    totals = Counter()
    for i, p, name, t0, t1, child, aggs in tracer.spans:
        top = name if p is None else by_id.get(p)
        by_id[i] = top
        if top != root:
            continue
        roots += p is None
        totals[name] += 1e3 * (t1 - t0 - child)
        for agg_name, (_, total) in aggs.items():
            totals[agg_name] += 1e3 * total
    return [(name, ms / max(roots, 1)) for name, ms in totals.most_common(n)]
