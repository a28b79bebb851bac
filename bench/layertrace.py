"""Per-layer tracing from outside the program.

A layer is one ``physmodels`` module.  ``Tracer.install`` wraps every public
function and public method defined in a layer module, at every place the
function is bound: its own module and each module that imported it by name.
``uninstall`` restores the originals.  Nothing under ``src/`` is edited.

Each wrapped call pushes a frame on one stack, so a layer's self time is its
calls' wall time minus the part covered by wrapped calls below them.  Calls
record a span ``(id, op, name, start, end, parent)``, except the hot leaf
functions in ``HOT``, which keep a call count and summed time only: they run
hundreds of thousands of times per operation.

A function that calls itself by its global name (``eval_int``, ``eval_pred``)
is not wrapped in its own module, so its recursion stays unwrapped and only
the outermost entry from another module is counted.  Constructors, dunder
methods and properties are not wrapped; their time counts to the caller.
"""

from __future__ import annotations

import hashlib
import inspect
import re
import time
from collections import Counter

LAYERS = ("encodings", "exact_arith", "spec_lang", "model_core", "neighborhoods", "stats", "cli")

ENCODE = {"pair", "int_code", "rat_code", "interval_code", "rect_code", "sing_code", "seg_code"}
DECODE = {"unpair", "unpair_tuple", "first", "second", "int_decode", "rat_decode",
          "interval_decode", "rect_decode", "sing_decode", "seg_decode"}
PARSE = {"parse_model", "parse_int_expr", "parse_pred", "parse_real_fn"}

# Hot leaves keep a count and summed time, no spans.  Every encodings
# function is one too.
HOT = {
    "exact_arith": {"poly", "degree", "poly_eval", "poly_add", "poly_neg", "poly_sub", "poly_mul",
                    "poly_scale", "poly_divmod", "derivative", "integer_primitive", "count_roots",
                    "sturm_chain"},
    "spec_lang": {"eval_int", "eval_pred", "eval_real_bounds", "eval_real_point", "eval_closed_box",
                  "eval_interval", "widen_to_open"},
    "model_core": {"ExprMap.evaluate", "FnMap.evaluate", "ComposedMap.evaluate", "apply_map",
                   "SemiDecidableSet.verify"},
    "neighborhoods": {"EuclideanBasis.encode", "EuclideanBasis.decode", "EuclideanBasis.subset",
                      "ProductBasis.encode", "ProductBasis.decode", "ProductBasis.subset",
                      "NestedOracle.code"},
    "stats": {"binom_pmf", "qualifying_outcomes", "tail_prob", "reject"},
}
SKIP = {"spec_lang.StepCounter.tick"}  # one call per evaluation step
STATE_SPACES = ("AllStates", "FiniteStates", "EnumeratedStates", "FilteredStates",
                "MappedStates", "RestrictedStates")
SPAN_CAP = 2_000_000

_ADDRESS = re.compile(r" at 0x[0-9a-f]+")


class Tracer:
    def __init__(self, modules: dict[str, object], package: object):
        self.modules = modules
        self.package = package
        self.clock = time.perf_counter
        self.stack: list[list] = []
        self.self_s = Counter()
        self.calls = Counter()
        self.counts = Counter()
        self.max_code_bits = 0
        self.spans: list[tuple] = []
        self.spans_dropped = 0
        self.op_id = 0
        self.enum_keys: set[bytes] = set()
        self._enum_depth = 0
        self._patches: list[tuple[object, str, object]] = []
        self._next_span = 1

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        hooks = self._hooks()
        for layer in LAYERS:
            mod = self.modules[layer]
            for name, obj in list(vars(mod).items()):
                if name.startswith("_"):
                    continue
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                    if inspect.isgeneratorfunction(obj):
                        continue
                    hot = layer == "encodings" or name in HOT.get(layer, ())
                    wrapper = self._wrap(obj, f"{layer}.{name}", layer, hot, hooks.get(f"{layer}.{name}"))
                    recursive = name in obj.__code__.co_names
                    for site in list(self.modules.values()) + [self.package]:
                        if recursive and site is mod:
                            continue
                        for bound, value in list(vars(site).items()):
                            if value is obj:
                                self._patch(site, bound, wrapper)
                elif inspect.isclass(obj) and obj.__module__ == mod.__name__:
                    self._wrap_class(layer, obj, hooks)

    def uninstall(self) -> None:
        for target, name, original in reversed(self._patches):
            setattr(target, name, original)
        self._patches.clear()

    def _patch(self, target, name: str, value) -> None:
        self._patches.append((target, name, vars(target)[name]))
        setattr(target, name, value)

    def _wrap_class(self, layer: str, cls, hooks) -> None:
        for name, attr in list(vars(cls).items()):
            qual = f"{layer}.{cls.__name__}.{name}"
            if name.startswith("_") or qual in SKIP:
                continue
            if name == "enumerate" and cls.__name__ in STATE_SPACES:
                self._patch(cls, name, self._wrap_enumerate(attr))
                continue
            kind = type(attr) if isinstance(attr, (classmethod, staticmethod)) else None
            fn = attr.__func__ if kind else attr
            if not inspect.isfunction(fn) or inspect.isgeneratorfunction(fn):
                continue
            hot = layer == "encodings" or f"{cls.__name__}.{name}" in HOT.get(layer, ())
            wrapper = self._wrap(fn, f"{layer}.{cls.__name__}.{name}", layer, hot, hooks.get(qual))
            self._patch(cls, name, kind(wrapper) if kind else wrapper)

    def _wrap(self, fn, name: str, layer: str, hot: bool, hook):
        stack, clock, calls, self_s, spans = self.stack, self.clock, self.calls, self.self_s, self.spans
        tracer = self

        def wrapper(*args, **kwargs):
            calls[name] += 1
            parent = stack[-1][1] if stack else 0
            # A hot call records no span, so its callees hang off its parent.
            frame = [0.0, parent]
            if not hot:
                frame[1] = tracer._next_span
                tracer._next_span += 1
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                self_s[layer] += duration - frame[0]
                if stack:
                    stack[-1][0] += duration
                if not hot:
                    if len(spans) < SPAN_CAP:
                        spans.append((frame[1], tracer.op_id, name, start, end, parent))
                    else:
                        tracer.spans_dropped += 1
            if hook is not None:
                hook(args, kwargs, result)
            return result

        return wrapper

    def _wrap_enumerate(self, original):
        """Count states yielded by outermost state-space enumerations."""
        tracer = self

        def enumerate(space, budget):
            if tracer._enum_depth:
                yield from original(space, budget)
                return
            tracer._enum_depth += 1
            n = 0
            try:
                for state in original(space, budget):
                    n += 1
                    yield state
            finally:
                tracer._enum_depth -= 1
                tracer.counts["model_core.states_enumerated"] += n

        return enumerate

    # -- result hooks -------------------------------------------------------

    def _hooks(self) -> dict:
        counts = self.counts

        def code_bits(args, kwargs, result):
            if result.bit_length() > self.max_code_bits:
                self.max_code_bits = result.bit_length()

        def bound(name):
            signature = inspect.signature(getattr(self.modules["model_core"], name))
            return lambda a, k: signature.bind(*a, **k).arguments

        range_args, check_args = bound("enumerate_range"), bound("check_faithful")

        def enumeration(model, symbol, budget):
            obs = model.observable(symbol)
            text = _ADDRESS.sub("", repr((model.name, model.states, obs, budget)))
            key = hashlib.sha1(text.encode()).digest()
            counts["model_core.enumerations"] += 1
            if key in self.enum_keys:
                counts["model_core.repeat_enumerations"] += 1
            self.enum_keys.add(key)

        def graph_range(args, kwargs, result):
            counts["neighborhoods.boxes_evaluated"] += result.boxes_evaluated
            counts["neighborhoods.codes_emitted"] += len(result.codes)

        hooks = {f"encodings.{name}": code_bits for name in ENCODE}
        hooks.update({
            "exact_arith.isolate_roots": lambda a, k, r: counts.update({"exact_arith.roots_isolated": len(r)}),
            "stats.bounds": lambda a, k, r: counts.update({"stats.pieces_analysed": 2 * a[0]}),
            "model_core.enumerate_range": lambda a, k, r: enumeration(*range_args(a, k).values()),
            "model_core.check_faithful": lambda a, k, r: [
                enumeration(b["model"], sym, b["budget"])
                for b in [check_args(a, k)] for sym in sorted(b["log"].symbols())
            ],
            "neighborhoods.enumerate_graph_range": graph_range,
            "neighborhoods.membership_probe": lambda a, k, r: counts.update({"neighborhoods.probes_excluded": int(r.excluded)}),
            "cli.main": lambda a, k, r: counts.update({"cli.nonzero_exits": int(r != 0)}),
        })
        return hooks

    # -- operations ---------------------------------------------------------

    def begin_op(self):
        """Open the root span of one benchmark operation."""
        self.op_id += 1
        frame = [0.0, self._next_span]
        self._next_span += 1
        self.stack.append(frame)
        return frame, self.clock()

    def end_op(self, token, kind: str) -> None:
        frame, start = token
        end = self.clock()
        self.stack.pop()
        self.spans.append((frame[1], self.op_id, f"op.{kind}", start, end, 0))

    # -- results ------------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        calls, counts = self.calls, self.counts
        out: dict[str, float] = {f"{layer}.self_s": self.self_s[layer] for layer in LAYERS}
        out["encodings.encode_calls"] = sum(calls[f"encodings.{n}"] for n in ENCODE)
        out["encodings.decode_calls"] = sum(calls[f"encodings.{n}"] for n in DECODE)
        out["encodings.max_code_bits"] = self.max_code_bits
        out["exact_arith.squarefree_calls"] = calls["exact_arith.squarefree"]
        out["exact_arith.isolate_calls"] = calls["exact_arith.isolate_roots"]
        out["exact_arith.roots_isolated"] = counts["exact_arith.roots_isolated"]
        out["exact_arith.refine_calls"] = calls["exact_arith.AlgebraicNumber.refine"]
        out["spec_lang.parse_calls"] = sum(calls[f"spec_lang.{n}"] for n in PARSE)
        out["spec_lang.eval_int_calls"] = calls["spec_lang.eval_int"]
        out["spec_lang.eval_closed_box_calls"] = calls["spec_lang.eval_closed_box"]
        enumerations = counts["model_core.enumerations"]
        out["model_core.enumerations"] = enumerations
        out["model_core.states_enumerated"] = counts["model_core.states_enumerated"]
        out["model_core.repeat_enumeration_ratio"] = (
            counts["model_core.repeat_enumerations"] / enumerations if enumerations else 0.0
        )
        boxes = counts["neighborhoods.boxes_evaluated"]
        out["neighborhoods.boxes_evaluated"] = boxes
        out["neighborhoods.codes_emitted"] = counts["neighborhoods.codes_emitted"]
        out["neighborhoods.codes_per_box"] = counts["neighborhoods.codes_emitted"] / boxes if boxes else 0.0
        out["neighborhoods.probes_excluded"] = counts["neighborhoods.probes_excluded"]
        out["stats.bounds_calls"] = calls["stats.bounds"]
        out["stats.pieces_analysed"] = counts["stats.pieces_analysed"]
        out["stats.tail_prob_calls"] = calls["stats.tail_prob"]
        out["cli.main_calls"] = calls["cli.main"]
        out["cli.nonzero_exits"] = counts["cli.nonzero_exits"]
        return out
