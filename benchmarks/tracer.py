"""Spans around the public functions of each braidorders module.

The tracer patches wrappers in from outside: the program source is never
edited.  Modules import each other's functions by name, so a function is
patched at every binding that holds it (``nt.planar_cmp``,
``orders.nt_sign``, ``catalog.braid_image_of_word``, ...), not only in the
module that defines it.  A target that no longer exists is reported as
absent instead of failing the run, so the benchmark survives refactors that
delete a layer.

Each span records (id, name, start, end, parent).  Self time is the span's
duration minus the time covered by its child spans; it is summed online per
name, so the per-layer totals are exact even when the stored span list is
capped.  Stored spans are written out when the run ends.
"""

from __future__ import annotations

import json
import sys
from array import array
from time import perf_counter

# (module, attribute, span name); a dotted attribute is a class method.
TARGETS = (
    ("braids", "enumerate_ball", "braids.enumerate_ball"),
    ("braids", "BraidWord.__post_init__", "braids.BraidWord"),
    ("braids", "multiply", "braids.word_ops"),
    ("braids", "invert", "braids.word_ops"),
    ("braids", "conjugate", "braids.word_ops"),
    ("dehornoy", "handle_reduce", "dehornoy.handle_reduce"),
    ("nt", "nt_sign", "nt.nt_sign"),
    ("nt", "braid_image_of_word", "nt.braid_image_of_word"),
    ("nt", "divergence_depth", "nt.divergence_depth"),
    ("nt", "convex_chain_report", "nt.convex_chain_report"),
    ("nt", "totality_probe", "nt.totality_probe"),
    ("nt", "conrad_witness_search", "nt.conrad_witness_search"),
    ("artin", "artin_map_of", "artin.artin_map_of"),
    ("artin", "stream_prefix_image", "artin.stream_prefix_image"),
    ("freewords", "FreeWord.__post_init__", "freewords.FreeWord"),
    ("freewords", "ray_prefix", "freewords.ray_prefix"),
    ("planar", "planar_cmp", "planar.planar_cmp"),
    ("planar", "common_prefix_length", "planar.common_prefix_length"),
    ("orders", "ConjugatedOrder.sign", "orders.ConjugatedOrder.sign"),
    ("orders", "zk_membership", "orders.zk_membership"),
    ("orders", "ConvexExtensionOrder.sign", "orders.ConvexExtensionOrder.sign"),
    ("experiments", "agreement_radius", "experiments.agreement_radius"),
    ("experiments", "converge_conjugates_experiment", "experiments.converge_conjugates_experiment"),
    ("experiments", "converge_extensions_experiment", "experiments.converge_extensions_experiment"),
    ("experiments", "limit_probe_experiment", "experiments.limit_probe_experiment"),
    ("catalog", "catalog", "catalog.catalog"),
    ("catalog", "calibrate_conventions", "catalog.calibrate_conventions"),
    ("cli", "main", "cli.main"),
)

# Per-layer metrics: (metric name, unit, how it is read from the tracer).
# "calls"/"self_s" read a span's totals; anything else is a named count or a
# ratio of two counts.  Every metric is per traced pass except ratios.  Every
# span has a self_s metric, so they sum with trace.outside_s to trace.wall_s.
LAYER_METRICS = (
    ("braids.enumerate_ball.words", "count", ("count", "braids.enumerate_ball.words")),
    ("braids.enumerate_ball.self_s", "s", ("self", "braids.enumerate_ball")),
    ("braids.BraidWord.constructed", "count", ("calls", "braids.BraidWord")),
    ("braids.BraidWord.self_s", "s", ("self", "braids.BraidWord")),
    ("braids.word_ops.self_s", "s", ("self", "braids.word_ops")),
    ("dehornoy.handle_reduce.calls", "count", ("calls", "dehornoy.handle_reduce")),
    ("dehornoy.handle_reduce.self_s", "s", ("self", "dehornoy.handle_reduce")),
    ("dehornoy.handle_reduce.letters_in", "count", ("count", "dehornoy.handle_reduce.letters_in")),
    ("dehornoy.handle_reduce.letters_out", "count", ("count", "dehornoy.handle_reduce.letters_out")),
    ("nt.nt_sign.calls", "count", ("calls", "nt.nt_sign")),
    ("nt.nt_sign.self_s", "s", ("self", "nt.nt_sign")),
    ("nt.braid_image_of_word.calls", "count", ("calls", "nt.braid_image_of_word")),
    ("nt.braid_image_of_word.self_s", "s", ("self", "nt.braid_image_of_word")),
    ("nt.braid_image_of_word.letters_out", "count", ("count", "nt.braid_image_of_word.letters_out")),
    ("nt.transport.useful_ratio", "ratio", ("ratio", "nt.transport.useful", "nt.braid_image_of_word.letters_out")),
    ("nt.divergence_depth.self_s", "s", ("self", "nt.divergence_depth")),
    ("nt.convex_chain_report.self_s", "s", ("self", "nt.convex_chain_report")),
    ("nt.totality_probe.self_s", "s", ("self", "nt.totality_probe")),
    ("nt.conrad_witness_search.self_s", "s", ("self", "nt.conrad_witness_search")),
    ("artin.artin_map_of.calls", "count", ("calls", "artin.artin_map_of")),
    ("artin.artin_map_of.self_s", "s", ("self", "artin.artin_map_of")),
    ("artin.artin_map_of.image_letters", "count", ("count", "artin.artin_map_of.image_letters")),
    ("artin.stream_prefix_image.calls", "count", ("calls", "artin.stream_prefix_image")),
    ("artin.stream_prefix_image.self_s", "s", ("self", "artin.stream_prefix_image")),
    ("artin.stream_prefix_image.letters_out", "count", ("count", "artin.stream_prefix_image.letters_out")),
    ("freewords.FreeWord.constructed", "count", ("calls", "freewords.FreeWord")),
    ("freewords.FreeWord.self_s", "s", ("self", "freewords.FreeWord")),
    ("freewords.FreeWord.letters", "count", ("count", "freewords.FreeWord.letters")),
    ("freewords.ray_prefix.calls", "count", ("calls", "freewords.ray_prefix")),
    ("freewords.ray_prefix.self_s", "s", ("self", "freewords.ray_prefix")),
    ("freewords.ray_prefix.letters", "count", ("count", "freewords.ray_prefix.letters")),
    ("planar.planar_cmp.calls", "count", ("calls", "planar.planar_cmp")),
    ("planar.planar_cmp.self_s", "s", ("self", "planar.planar_cmp")),
    ("planar.common_prefix_length.calls", "count", ("calls", "planar.common_prefix_length")),
    ("planar.common_prefix_length.self_s", "s", ("self", "planar.common_prefix_length")),
    ("planar.common_prefix_length.undecided", "count", ("count", "planar.common_prefix_length.undecided")),
    ("orders.ConjugatedOrder.sign.calls", "count", ("calls", "orders.ConjugatedOrder.sign")),
    ("orders.ConjugatedOrder.sign.self_s", "s", ("self", "orders.ConjugatedOrder.sign")),
    ("orders.zk_membership.calls", "count", ("calls", "orders.zk_membership")),
    ("orders.zk_membership.self_s", "s", ("self", "orders.zk_membership")),
    ("orders.zk_membership.hit_ratio", "ratio", ("ratio", "orders.zk_membership.hits", "orders.zk_membership")),
    ("orders.ConvexExtensionOrder.sign.calls", "count", ("calls", "orders.ConvexExtensionOrder.sign")),
    ("orders.ConvexExtensionOrder.sign.self_s", "s", ("self", "orders.ConvexExtensionOrder.sign")),
    ("experiments.agreement_radius.self_s", "s", ("self", "experiments.agreement_radius")),
    ("experiments.converge_conjugates_experiment.self_s", "s", ("self", "experiments.converge_conjugates_experiment")),
    ("experiments.converge_extensions_experiment.self_s", "s", ("self", "experiments.converge_extensions_experiment")),
    ("experiments.limit_probe_experiment.self_s", "s", ("self", "experiments.limit_probe_experiment")),
    ("catalog.catalog.calls", "count", ("calls", "catalog.catalog")),
    ("catalog.catalog.self_s", "s", ("self", "catalog.catalog")),
    ("catalog.calibrate_conventions.self_s", "s", ("self", "catalog.calibrate_conventions")),
    ("cli.main.self_s", "s", ("self", "cli.main")),
)


def _common_prefix(a, b) -> int:
    d = 0
    limit = min(len(a), len(b))
    while d < limit and a[d] == b[d]:
        d += 1
    return d


def _count_handle_reduce(tracer, args, result):
    tracer.add("dehornoy.handle_reduce.letters_in", len(args[0].letters))
    tracer.add("dehornoy.handle_reduce.letters_out", len(result.word.letters))


def _count_image_of_word(tracer, args, result):
    # useful letters: the divergence depth against the ray, plus the one
    # letter that decides the comparison
    ray = args[1]
    tracer.add("nt.braid_image_of_word.letters_out", len(result))
    tracer.add("nt.transport.useful", min(_common_prefix(result, ray) + 1, len(result)))


def _count_artin_map(tracer, args, result):
    tracer.add("artin.artin_map_of.image_letters", sum(len(img.letters) for img in result.images))


def _count_stream_prefix(tracer, args, result):
    tracer.add("artin.stream_prefix_image.letters_out", len(result))


def _count_free_word(tracer, args, result):
    tracer.add("freewords.FreeWord.letters", len(args[0].letters))


def _count_ray_prefix(tracer, args, result):
    tracer.add("freewords.ray_prefix.letters", len(result))


def _count_prefix_length(tracer, args, result):
    if not result[1]:
        tracer.add("planar.common_prefix_length.undecided", 1)


def _count_zk(tracer, args, result):
    if result is not None:
        tracer.add("orders.zk_membership.hits", 1)


AFTER = {
    "dehornoy.handle_reduce": _count_handle_reduce,
    "nt.braid_image_of_word": _count_image_of_word,
    "artin.artin_map_of": _count_artin_map,
    "artin.stream_prefix_image": _count_stream_prefix,
    "freewords.FreeWord": _count_free_word,
    "freewords.ray_prefix": _count_ray_prefix,
    "planar.common_prefix_length": _count_prefix_length,
    "orders.zk_membership": _count_zk,
}


MAX_STORED_SPANS = 50_000
PACKAGE = "braidorders"


class Tracer:
    """Span stack with online self-time totals and a capped span store."""

    def __init__(self):
        self.names: list[str] = []
        self.name_ids: dict[str, int] = {}
        # per name id: calls, total seconds, self seconds
        self.calls: list[int] = []
        self.total: list[float] = []
        self.self_time: list[float] = []
        self.counts: dict[str, int] = {}
        # open spans: [span id, name id, start, time covered by children]
        self.stack: list[list] = []
        self.next_id = 0
        self.top_level_s = 0.0
        self.stored_id = array("q")
        self.stored_name = array("i")
        self.stored_parent = array("q")
        self.stored_start = array("d")
        self.stored_end = array("d")
        self.absent: list[str] = []
        self.patched: list[str] = []

    def name_id(self, name: str) -> int:
        nid = self.name_ids.get(name)
        if nid is None:
            nid = self.name_ids[name] = len(self.names)
            self.names.append(name)
            self.calls.append(0)
            self.total.append(0.0)
            self.self_time.append(0.0)
        return nid

    def enter(self, nid: int) -> None:
        self.stack.append([self.next_id, nid, perf_counter(), 0.0])
        self.next_id += 1

    def leave(self) -> None:
        end = perf_counter()
        span_id, nid, start, children = self.stack.pop()
        duration = end - start
        self.calls[nid] += 1
        self.total[nid] += duration
        self.self_time[nid] += duration - children
        if self.stack:
            parent = self.stack[-1]
            parent[3] += duration
            parent_id = parent[0]
        else:
            self.top_level_s += duration
            parent_id = -1
        if len(self.stored_start) < MAX_STORED_SPANS:
            self.stored_id.append(span_id)
            self.stored_name.append(nid)
            self.stored_parent.append(parent_id)
            self.stored_start.append(start)
            self.stored_end.append(end)

    def add(self, key: str, amount: int) -> None:
        self.counts[key] = self.counts.get(key, 0) + amount

    # --- wrappers ------------------------------------------------------------

    def wrap(self, name: str, fn):
        nid = self.name_id(name)
        after = AFTER.get(name)
        enter, leave = self.enter, self.leave

        def traced(*args, **kwargs):
            enter(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                leave()
            if after is not None:
                try:
                    after(self, args, result)
                except (AttributeError, IndexError, TypeError):
                    # a refactored signature loses the count, not the run
                    self.add("trace.hook_errors", 1)
            return result

        traced.__wrapped__ = fn
        return traced

    def wrap_generator(self, name: str, fn):
        """Each step of the generator is one span; yields are counted."""
        nid = self.name_id(name)
        enter, leave, add = self.enter, self.leave, self.add
        count_key = name + ".words"

        def traced(*args, **kwargs):
            it = fn(*args, **kwargs)
            while True:
                enter(nid)
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    leave()
                add(count_key, 1)
                yield item

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        """Patch every target at each module binding that holds it."""
        modules = [m for key, m in list(sys.modules.items()) if key == PACKAGE or key.startswith(PACKAGE + ".")]
        for module_name, attr, span in TARGETS:
            module = sys.modules.get(f"{PACKAGE}.{module_name}")
            self.name_id(span)
            if module is None:
                self.absent.append(f"{module_name}.{attr}")
                continue
            if "." in attr:
                cls_name, meth = attr.split(".", 1)
                cls = getattr(module, cls_name, None)
                original = None if cls is None else cls.__dict__.get(meth)
                if original is None:
                    self.absent.append(f"{module_name}.{attr}")
                    continue
                setattr(cls, meth, self.wrap(span, original))
                self.patched.append(f"{module_name}.{attr}")
                continue
            original = getattr(module, attr, None)
            if original is None or not callable(original):
                self.absent.append(f"{module_name}.{attr}")
                continue
            if attr == "enumerate_ball":
                wrapper = self.wrap_generator(span, original)
            else:
                wrapper = self.wrap(span, original)
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is original:
                        setattr(m, key, wrapper)
                        self.patched.append(f"{m.__name__}.{key}")

    # --- readout -------------------------------------------------------------

    def _by_name(self, table: list, name: str) -> float:
        nid = self.name_ids.get(name)
        return 0 if nid is None else table[nid]

    def metrics(self, passes: int) -> dict[str, dict]:
        out = {}
        for metric, unit, (kind, *keys) in LAYER_METRICS:
            if kind == "calls":
                value = self._by_name(self.calls, keys[0]) / passes
            elif kind == "self":
                value = self._by_name(self.self_time, keys[0]) / passes
            elif kind == "count":
                value = self.counts.get(keys[0], 0) / passes
            else:
                num = self.counts.get(keys[0], 0)
                den = self.counts.get(keys[1], 0) if keys[1] in self.counts else self._by_name(self.calls, keys[1])
                value = num / den if den else 0.0
            out[metric] = {"value": value, "unit": unit}
        return out

    def self_sum_s(self) -> float:
        return sum(self.self_time)

    def dump(self, path, extra: dict) -> None:
        """Write the stored spans and the per-name totals as JSON."""
        spans = [
            [i, self.names[n], s, e, p]
            for i, n, p, s, e in zip(
                self.stored_id, self.stored_name, self.stored_parent, self.stored_start, self.stored_end
            )
        ]
        payload = {
            **extra,
            "absent": self.absent,
            "patched": sorted(set(self.patched)),
            "spans_total": self.next_id,
            "spans_stored": len(spans),
            "totals": {
                name: {"calls": self.calls[i], "total_s": self.total[i], "self_s": self.self_time[i]}
                for i, name in enumerate(self.names)
            },
            "counts": self.counts,
            "span_fields": ["id", "name", "start", "end", "parent"],
            "spans": spans,
        }
        with open(path, "w") as fh:
            json.dump(payload, fh)
