"""Span recorder that rebinds the module-level names one layer calls the next by.

Nothing under src/ knows about it: `Tracer.install` replaces, for example,
`signshape.shaper.dm_encode` with a wrapper that records a span around the
original, and `Tracer.uninstall` puts the originals back. Spans are kept in
memory as tuples (name, start_ns, end_ns, parent, request) and written out
once, when the run ends. Parents come from a stack, which is exact because
the benchmark is single-threaded.
"""

from __future__ import annotations

import inspect
import json
import time
from collections import Counter, defaultdict
from contextlib import contextmanager

import numpy as np

from signshape import enumdm, midist, shaper, simulate

# (module, attribute, span name). The span name is `<layer>.<function>`, the
# layer being the module that defines the function, not the one calling it.
REBINDINGS = (
    (shaper, "encode_block_dm", "shaper.encode_block_dm"),
    (shaper, "decode_block", "shaper.decode_block"),
    (shaper, "dm_encode", "enumdm.dm_encode"),
    (shaper, "dm_decode", "enumdm.dm_decode"),
    (shaper, "dm_code", "enumdm.dm_code"),
    (shaper, "build_ask", "constellation.build_ask"),
    (shaper, "selection_tables", "constellation.selection_tables"),
    (simulate, "run", "simulate.run"),
    (simulate, "encode_block_dm", "shaper.encode_block_dm"),
    (simulate, "selection_tables", "constellation.selection_tables"),
    (midist, "mi_curve_optimized", "midist.mi_curve_optimized"),
    (midist, "optimize_profile", "midist.optimize_profile"),
    (midist, "awgn_mi", "midist.awgn_mi"),
    (midist, "induced_pmf", "constellation.induced_pmf"),
)

SETUP_REQUEST = -1

NAME, START, END, PARENT, REQUEST = range(5)


def layer(span_name: str) -> str:
    return span_name.split(".", 1)[0]


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple[str, int, int, int, int]] = []
        self.request = SETUP_REQUEST
        # matcher overflows per request
        self.overflow: defaultdict[int, int] = defaultdict(int)
        # While capturing: (info bits, code, word) of every dm_encode call, so
        # the comparison count can be taken afterwards, outside the timing,
        # and the (M, order) of every awgn_mi call.
        self.capture = False
        self.captured: list[tuple] = []
        self.mi_sizes: Counter[tuple[int, int]] = Counter()
        self._mi_default_order = inspect.signature(midist.awgn_mi).parameters["order"].default
        self._stack: list[int] = []
        observers = {
            "shaper.encode_block_dm": self._observe_block,
            "enumdm.dm_encode": self._observe_word,
            "midist.awgn_mi": self._observe_mi,
        }
        self._originals = {(mod, attr): getattr(mod, attr) for mod, attr, _ in REBINDINGS}
        self._wrappers = {
            (mod, attr): self._wrap(getattr(mod, attr), name, observers.get(name))
            for mod, attr, name in REBINDINGS
        }

    def install(self) -> None:
        for (mod, attr), wrapper in self._wrappers.items():
            setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        for (mod, attr), original in self._originals.items():
            setattr(mod, attr, original)

    def _open(self) -> tuple[int, int, int]:
        """Start a span: (its index, its parent's index, start time)."""
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(None)
        self._stack.append(index)
        return index, parent, time.perf_counter_ns()

    def _close(self, name: str, opened: tuple[int, int, int]) -> None:
        end = time.perf_counter_ns()
        index, parent, start = opened
        self._stack.pop()
        self.spans[index] = (name, start, end, parent, self.request)

    @contextmanager
    def span(self, name: str):
        opened = self._open()
        try:
            yield
        finally:
            self._close(name, opened)

    def _wrap(self, func, name: str, observe=None):
        """`func` inside a span; `observe(args, kwargs, result)` runs after it."""
        open_span, close_span = self._open, self._close

        def traced(*args, **kwargs):
            opened = open_span()
            try:
                result = func(*args, **kwargs)
            finally:
                close_span(name, opened)
            if observe is not None:
                observe(args, kwargs, result)
            return result

        return traced

    def _observe_block(self, args, kwargs, block) -> None:
        self.overflow[self.request] += block.overflow_count

    def _observe_word(self, args, kwargs, word) -> None:
        if self.capture:
            info_bits, code = args
            self.captured.append((info_bits.copy(), code, word.copy()))

    def _observe_mi(self, args, kwargs, value) -> None:
        if self.capture:
            order = kwargs.get("order", args[3] if len(args) > 3 else self._mi_default_order)
            self.mi_sizes[(len(args[0]), order)] += 1

    def unrank_comparisons(self) -> tuple[int, int, float, bool]:
        """Replay the captured matcher inputs through `unrank_counted`.

        Returns (comparisons, output bits, the sum of the per-word bounds
        p*log2(n)*n, whether every word came out identical to dm_encode's
        and within its own bound).
        """
        comparisons = bits = 0
        bound = 0.0
        ok = True
        for info_bits, code, word in self.captured:
            counted_word, count = enumdm.unrank_counted(_index_of(info_bits), code)
            word_bound = enumdm.dm_complexity_bound(code.n, code.w / code.n) * code.n
            ok &= bool((counted_word == word).all()) and count <= word_bound
            comparisons += count
            bits += code.n
            bound += word_bound
        return comparisons, bits, bound, ok

    def write(self, path) -> None:
        names = sorted({s[NAME] for s in self.spans})
        code = {n: i for i, n in enumerate(names)}
        rows = [[code[s[NAME]], s[START], s[END], s[PARENT], s[REQUEST]] for s in self.spans]
        doc = {"fields": ["name", "start_ns", "end_ns", "parent", "request"],
               "names": names, "spans": rows}
        path.write_text(json.dumps(doc, separators=(",", ":")))


def _index_of(info_bits) -> int:
    """The matcher index dm_encode forms from its bits, least significant first."""
    packed = np.packbits(np.asarray(info_bits, dtype=np.uint8), bitorder="little")
    return int.from_bytes(packed.tobytes(), "little")


def self_times(spans) -> list[int]:
    """Per span, its duration minus the time its child spans cover."""
    own = [s[END] - s[START] for s in spans]
    for s in spans:
        if s[PARENT] >= 0:
            own[s[PARENT]] -= s[END] - s[START]
    return own


def ancestor(spans, index: int, prefix: str) -> str | None:
    """Name of the nearest enclosing span whose name starts with `prefix`."""
    index = spans[index][PARENT]
    while index >= 0:
        if spans[index][NAME].startswith(prefix):
            return spans[index][NAME]
        index = spans[index][PARENT]
    return None
