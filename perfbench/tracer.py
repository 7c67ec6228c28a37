"""Spans and counters recorded around calls into semishift's public functions.

The tracer replaces each target function by a wrapper in every loaded
``semishift`` module namespace that binds it (methods are replaced on
their class), so calls between the package's own modules are caught.
A span is recorded per call: op index, span id, parent span id, name,
start and end in ``perf_counter_ns`` units.  Spans stay in memory until
``dump``.  A name's self time is its spans' total duration minus the
part covered by child spans.  Some targets are counted but get no span:
they are called too often for a span each, and their time stays in the
caller's self time.
"""

from __future__ import annotations

import gzip
import json
import os
import sys
import time
from array import array
from collections import Counter

perf_ns = time.perf_counter_ns

# (span name, module, attribute path, mode); mode "span" records a span
# per call, "gen" one per item a generator yields, "count" only counts.
TARGETS = (
    ("algebra.tree_hull", "semishift.algebra", "tree_hull", "span"),
    ("algebra.ball", "semishift.algebra", "ball", "span"),
    ("algebra.parse_word", "semishift.algebra", "parse_word", "span"),
    ("algebra.word_mul", "semishift.algebra", "word_mul", "count"),
    ("measure.eval_constrained", "semishift.measure", "eval_constrained", "span"),
    ("measure.validate_chain", "semishift.measure", "validate_chain", "count"),
    ("measure.all_patterns", "semishift.measure", "all_patterns", "gen"),
    ("measure.Pattern.translated", "semishift.measure", "Pattern.translated", "span"),
    ("measure.shift_invariance_check", "semishift.measure", "shift_invariance_check", "span"),
    ("measure.pushforward_check", "semishift.measure", "pushforward_check", "span"),
    ("measure.weak_star_distance", "semishift.measure", "weak_star_distance", "span"),
    ("measure.BernoulliMeasure.eval", "semishift.measure", "BernoulliMeasure.eval", "span"),
    ("measure.MixtureMeasure.eval", "semishift.measure", "MixtureMeasure.eval", "span"),
    ("markovize.support_alphabet", "semishift.markovize", "support_alphabet", "span"),
    ("markovize.markovize", "semishift.markovize", "markovize", "span"),
    ("markovize.MarkovizedMeasure.eval", "semishift.markovize", "MarkovizedMeasure.eval", "span"),
    ("markovize.pairs", "semishift.measure", "Pattern.union", "count"),
    ("orbit.minimized", "semishift.orbit", "minimized", "span"),
    ("orbit.transformation_monoid", "semishift.orbit", "transformation_monoid", "span"),
    ("orbit.theorem_a_point", "semishift.orbit", "theorem_a_point", "span"),
    ("orbit.find_separating_morphism", "semishift.orbit", "find_separating_morphism", "span"),
    ("orbit.periodic_measure_eval", "semishift.orbit", "periodic_measure_eval", "span"),
    ("reversible.window_measure", "semishift.reversible", "window_measure", "span"),
    ("serialize.read", "semishift.serialize", "read_json", "span"),
    ("serialize.read", "semishift.serialize", "measure_in", "span"),
    ("serialize.read", "semishift.serialize", "chain_in", "span"),
    ("serialize.read", "semishift.serialize", "automaton_in", "span"),
    ("serialize.read", "semishift.serialize", "pattern_in", "span"),
    ("serialize.read", "semishift.serialize", "morphism_in", "span"),
    ("serialize.read", "semishift.serialize", "lattice_pattern_in", "span"),
    ("serialize.write", "semishift.serialize", "write_json", "span"),
    ("serialize.write", "semishift.serialize", "measure_out", "span"),
    ("serialize.write", "semishift.serialize", "chain_out", "span"),
    ("serialize.write", "semishift.serialize", "automaton_out", "span"),
    ("serialize.write", "semishift.serialize", "morphism_out", "span"),
    ("serialize.write", "semishift.serialize", "block_alphabet_out", "span"),
    ("cli.execute", "semishift.cli", "execute", "span"),
)

def _after_hooks(tracer: "Tracer") -> dict:
    """Counters taken from a call's arguments and result, keyed by attribute."""
    extra = tracer.extra

    def hull(result, args):
        extra["algebra.tree_hull.vertices"] += len(result.vertices)

    def den_bits(result, args):
        bits = result.denominator.bit_length()
        if bits > tracer.den_bits_max:
            tracer.den_bits_max = bits

    def blocks(result, args):
        extra["markovize.blocks"] += len(result.blocks)

    def union(result, args):
        extra["markovize.pairs_tried"] += 1
        if result is not None:
            extra["markovize.pairs_compatible"] += 1

    def file_bytes(key):
        def hook(result, args):
            extra[key] += os.path.getsize(args[0])
        return hook

    return {
        "tree_hull": hull,
        "eval_constrained": den_bits,
        "markovize": blocks,
        "Pattern.union": union,
        "read_json": file_bytes("serialize.read.bytes"),
        "write_json": file_bytes("serialize.write.bytes"),
    }


class Tracer:
    """Owns the recorded spans, per-name totals and the patched names."""

    def __init__(self, child: bool = False) -> None:
        # A span directly under the root counts as covered time: under an
        # op frame in the benchmark process, at the bottom of the stack in
        # a traced child process, which has no op frames.
        self._root_depth = 0 if child else 1
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.spans = array("q")
        self.calls: Counter = Counter()
        self.self_ns: Counter = Counter()
        self.extra: Counter = Counter()
        self.den_bits_max = 0
        self.op_ns = 0
        self.covered_ns = 0
        self.op = 0
        self._next_id = 1
        self._stack: list[list[int]] = []
        self._patched: list[tuple[object, str, object]] = []

    def name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    # -- recording

    def open_span(self) -> list[int]:
        frame = [self._next_id, 0, perf_ns()]
        self._next_id += 1
        self._stack.append(frame)
        return frame

    def _close(self, frame: list[int], name: str, nid: int) -> int:
        end = perf_ns()
        stack = self._stack
        stack.pop()
        dur = end - frame[2]
        self.calls[name] += 1
        self.self_ns[name] += dur - frame[1]
        parent = stack[-1] if stack else None
        if parent is not None:
            parent[1] += dur
        if len(stack) == self._root_depth:
            self.covered_ns += dur
        self.spans.extend((self.op, frame[0], parent[0] if parent else 0, nid, frame[2], end))
        return dur

    def end_op(self, frame: list[int], kind: str) -> None:
        """Close an op's root span, opened with ``open_span``."""
        dur = self._close(frame, "op", self.name_id(f"op.{kind}"))
        self.op_ns += dur
        self.op += 1

    def _span_wrapper(self, name: str, fn, after):
        nid = self.name_id(name)
        tracer = self

        def wrapper(*args, **kwargs):
            frame = tracer.open_span()
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(frame, name, nid)
            if after is not None:
                after(result, args)
            return result

        return wrapper

    def _gen_wrapper(self, name: str, fn):
        nid = self.name_id(name)
        tracer = self
        key = name + ".patterns"  # all_patterns is the only generator target

        def wrapper(*args, **kwargs):
            inner = fn(*args, **kwargs)

            def items():
                while True:
                    frame = tracer.open_span()
                    try:
                        item = next(inner)
                    except StopIteration:
                        tracer._close(frame, name, nid)
                        return
                    tracer._close(frame, name, nid)
                    tracer.extra[key] += 1
                    yield item

            return items()

        return wrapper

    def _count_wrapper(self, name: str, fn, after):
        calls = self.calls

        def wrapper(*args, **kwargs):
            calls[name] += 1
            result = fn(*args, **kwargs)
            if after is not None:
                after(result, args)
            return result

        return wrapper

    # -- patching

    def install(self) -> None:
        """Wrap every target in every loaded semishift namespace that binds it.

        Targets in modules that are not loaded (``cli`` and ``serialize``
        in the library workloads) are skipped.
        """
        hooks = _after_hooks(self)
        modules = [m for k, m in sys.modules.items() if k == "semishift" or k.startswith("semishift.")]
        for name, module_name, attr, mode in TARGETS:
            owner = sys.modules.get(module_name)
            if owner is None:
                continue
            *cls_path, fn_name = attr.split(".")
            for part in cls_path:
                owner = getattr(owner, part)
            original = getattr(owner, fn_name)
            after = hooks.get(attr)
            if mode == "span":
                wrapper = self._span_wrapper(name, original, after)
            elif mode == "gen":
                wrapper = self._gen_wrapper(name, original)
            else:
                wrapper = self._count_wrapper(name, original, after)
            if cls_path:
                self._replace(owner, fn_name, wrapper)
                continue
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._replace(module, key, wrapper)

    def _replace(self, owner, key: str, wrapper) -> None:
        self._patched.append((owner, key, getattr(owner, key)))
        setattr(owner, key, wrapper)

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._patched):
            setattr(owner, key, original)
        self._patched.clear()

    # -- results

    def snapshot(self) -> dict:
        return {
            "calls": Counter(self.calls),
            "self_ns": Counter(self.self_ns),
            "extra": Counter(self.extra),
            "op_ns": self.op_ns,
            "covered_ns": self.covered_ns,
            "ops": self.op,
        }

    def export(self) -> dict:
        """Totals and spans in plain JSON form, for a parent process to merge."""
        return {
            **{k: dict(v) if isinstance(v, Counter) else v for k, v in self.snapshot().items()},
            "den_bits_max": self.den_bits_max,
            "names": self.names,
            "spans": list(self.spans),
        }

    def merge_child(self, data: dict) -> None:
        """Fold a child process's export in, its roots under the open op span."""
        parent_span = self._stack[-1][0]
        self.calls.update(data["calls"])
        self.self_ns.update(data["self_ns"])
        self.extra.update(data["extra"])
        self.covered_ns += data["covered_ns"]
        self.den_bits_max = max(self.den_bits_max, data["den_bits_max"])
        ids = [self.name_id(n) for n in data["names"]]
        offset = self._next_id
        top = 0
        spans = data["spans"]
        for i in range(0, len(spans), 6):
            _, sid, parent, nid, start, end = spans[i : i + 6]
            top = max(top, sid)
            self.spans.extend(
                (self.op, sid + offset, parent + offset if parent else parent_span,
                 ids[nid], start, end)
            )
        self._next_id += top + 1

    def dump(self, path: str) -> None:
        payload = {
            "fields": ["op", "id", "parent", "name", "start_ns", "end_ns"],
            "names": self.names,
            "spans": list(self.spans),
        }
        with gzip.open(path, "wt", compresslevel=1) as fh:
            json.dump(payload, fh, separators=(",", ":"))
