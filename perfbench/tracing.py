"""Outside-in tracing of segphrase: one span per call into a layer.

The wrappers are installed only for a traced run. Each call of a wrapped
function appends a span ``[name, start, end, parent]`` to an in-memory
list; the spans are written out when the run ends. Counters record the
size of the work at the same boundary (pixels, graph nodes, points,
bytes, ...). A layer's self time is its spans' duration minus the part
covered by their child spans.

A wrapper replaces the function in every ``segphrase`` module that holds
it, because several modules import functions by name (``cli``, ``latent``
and ``linguistics`` import ``compute_superpixels`` or ``min_cut_infer``).
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time
from collections import defaultdict


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs[name]


def _count_superpixels(add, args, kwargs, result):
    img = _arg(args, kwargs, 0, "img")
    add("imaging.pixels", img.width * img.height)
    add("imaging.superpixels", result.n)


def _count_min_cut(add, args, kwargs, result):
    problem = _arg(args, kwargs, 0, "problem")
    add("mrf.nodes", problem.n)
    add("mrf.edges", len(problem.edges))


def _count_solve(add, args, kwargs, result):
    mode = args[2] if len(args) > 2 else kwargs.get("mode", "exact")
    add("relations.graph_nodes", len(_arg(args, kwargs, 0, "scores")))
    add(f"relations.{mode}_solves", 1)


def _count_nms(add, args, kwargs, result):
    add("linguistics.nms.in", len(_arg(args, kwargs, 0, "detections")))
    add("linguistics.nms.kept", len(result))


# (module, function, counter) for the calls that get a span. The counter,
# if any, sees the call's arguments and result.
SPANNED = [
    ("imaging", "load_image", None),
    ("imaging", "compute_superpixels", _count_superpixels),
    ("imaging", "extract_features",
     lambda add, a, k, r: add("imaging.edges", len(r.edges))),
    ("imaging", "labels_to_mask", None),
    ("mrf", "min_cut_infer", _count_min_cut),
    ("mrf", "energy", None),
    ("gmm", "fit",
     lambda add, a, k, r: add("gmm.fit.points", len(_arg(a, k, 0, "samples")))),
    ("gmm", "log_density_many",
     lambda add, a, k, r: add("gmm.log_density_many.points",
                              len(_arg(a, k, 1, "points")))),
    ("latent", "em_learn",
     lambda add, a, k, r: add("latent.em_rounds", r.info.iterations)),
    ("latent", "segment_instance", None),
    ("spt", "save_table",
     lambda add, a, k, r: add("spt.save_table.bytes",
                              os.path.getsize(_arg(a, k, 1, "path")))),
    ("spt", "load_table",
     lambda add, a, k, r: add("spt.load_table.bytes",
                              os.path.getsize(_arg(a, k, 0, "path")))),
    ("linguistics", "load_embeddings", None),
    ("linguistics", "semantic_segment", None),
    ("linguistics", "message_pass",
     lambda add, a, k, r: add("linguistics.message_pass.masks",
                              len(_arg(a, k, 0, "masks")))),
    ("linguistics", "fuse_and_cut", None),
    ("linguistics", "nms", _count_nms),
    ("relations", "entail_score", None),
    ("relations", "solve_entailment_graph", _count_solve),
    ("relations", "exemplar_descriptor", None),
    ("evaluation", "make_scene", None),
    ("cli", "main", None),
]

# Calls that are only counted: they are cheap, and a span of their own
# would take their time out of the caller's self time.
COUNTED = [
    ("latent", "init_labels", None),
    ("linguistics", "phrase_vector",
     lambda add, a, k, r: add("linguistics.oov_words", r[1])),
]


def span_name(module, function):
    """``cli.main`` is the whole command, reported as the ``cli`` layer."""
    return "cli" if module == "cli" else f"{module}.{function}"


class Tracer:
    """Span and counter store plus the wrappers that feed it."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index]
        self.counts: dict[str, int] = defaultdict(int)
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def _add(self, key, amount):
        self.counts[key] += amount

    def _spanned(self, name, fn, counter):
        spans, stack, counts, add = self.spans, self._stack, self.counts, self._add
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            record = [name, 0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(record)
            record[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = clock()
                stack.pop()
            counts[name + ".calls"] += 1
            if counter is not None:
                counter(add, args, kwargs, result)
            return result

        return wrapper

    def _counted(self, name, fn, counter):
        counts, add = self.counts, self._add

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            counts[name + ".calls"] += 1
            if counter is not None:
                counter(add, args, kwargs, result)
            return result

        return wrapper

    def install(self):
        """Rebind every listed function in every loaded segphrase module."""
        modules = [
            m for key, m in sys.modules.items()
            if m is not None and (key == "segphrase" or key.startswith("segphrase."))
        ]
        for make, table in ((self._spanned, SPANNED), (self._counted, COUNTED)):
            for module, function, counter in table:
                home = sys.modules.get(f"segphrase.{module}")
                original = getattr(home, function, None)
                if original is None:
                    self.missing.append(f"{module}.{function}")
                    continue
                wrapper = make(span_name(module, function), original, counter)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, attr, wrapper)
                            self._restore.append((mod, attr, original))

    def uninstall(self):
        for mod, attr, original in reversed(self._restore):
            setattr(mod, attr, original)
        self._restore.clear()

    def self_ms(self):
        """Per-name self time in ms: span durations minus their children's."""
        child = [0.0] * len(self.spans)
        for _name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        totals: dict[str, float] = defaultdict(float)
        for i, (name, start, end, _parent) in enumerate(self.spans):
            totals[name] += (end - start - child[i]) * 1000.0
        return totals

    def write(self, path):
        """Write the spans as JSON lines, then the counters as one line."""
        with open(path, "w") as fh:
            for name, start, end, parent in self.spans:
                fh.write(json.dumps(
                    {"name": name, "start": start, "end": end, "parent": parent}
                ) + "\n")
            fh.write(json.dumps({"counts": dict(self.counts)}) + "\n")


def read_self_ms(path):
    """Self time per name from a span file written by ``Tracer.write``."""
    tracer = Tracer()
    with open(path) as fh:
        for line in fh:
            row = json.loads(line)
            if "name" in row:
                tracer.spans.append(
                    [row["name"], row["start"], row["end"], row["parent"]]
                )
    return tracer.self_ms()
