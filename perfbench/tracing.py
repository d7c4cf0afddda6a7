"""Span recorder that wraps the package's public functions from outside.

Every wrapped call records one span (name, start, end, parent) in memory plus
per-name counters.  A wrapper is installed on the defining module and on every
other ``tinyfdss`` module attribute that holds the same function object, so a
call made through an imported name (``tinyfdss.evaluation.time_signal``) is
seen as well as one made through the module (``network.build_input``).  The
package itself is not modified; ``uninstall`` puts every original back.

Self time of a span is its duration minus the time spent in the wrappers of
its direct child spans, from a wrapper's entry to the end of its bookkeeping,
so the tracer's own work shows only in the traced run's overhead.  Calls run
on one thread, so children never overlap.
"""

from __future__ import annotations

import csv
import functools
import os
import statistics
import sys
import time
from pathlib import Path

import numpy as np

# (module, attribute path) of every traced callable.  A dotted attribute path
# names a method; "SymbolBlock.__post_init__" is the validation every
# SymbolBlock construction runs.
TARGETS = (
    ("training", "prepare_batch"),
    ("training", "block_rng"),
    ("training", "chain_loss"),
    ("adaptation", "LambdaTable.lookup"),
    ("network", "forward_cached"),
    ("network", "backward"),
    ("network", "adamw_step"),
    ("network", "prune_to"),
    ("network", "predict_coeffs"),
    ("network", "build_input"),
    ("network", "load_net"),
    ("filters", "taps_from_coeffs"),
    ("filters", "coeff_basis"),
    ("chain", "map_symbols"),
    ("chain", "precode"),
    ("chain", "extend"),
    ("chain", "time_signal"),
    ("chain", "occupied_bins"),
    ("chain", "equalize"),
    ("chain", "detect_symbols"),
    ("chain", "SymbolBlock.__post_init__"),
    ("channel", "draw_fade"),
    ("channel", "apply_channel"),
    ("metrics", "papr_db"),
    ("metrics", "oobe_db"),
    ("metrics", "empirical_ccdf"),
    ("baselines", "slm_select"),
    ("baselines", "clf_reduce"),
    ("evaluation", "evaluate"),
    ("adaptation", "adaptation_cycle"),
    ("adaptation", "run_scenario"),
    ("cli", "load_config"),
    ("cli", "write_csv"),
)

def span_name(module: str, attr: str) -> str:
    """``<module>.<attribute>``; SymbolBlock validation is named after the class."""
    return f"{module}.{attr}".removesuffix(".__post_init__")


def leading_rows(x) -> int:
    """Rows on the leading axes of an array (1 for a single 1-D block)."""
    values = getattr(x, "values", x)
    if isinstance(values, np.ndarray) and values.ndim >= 2:
        return int(np.prod(values.shape[:-1]))
    return 1


class Recorder:
    """In-memory spans and per-name counters for one traced run."""

    def __init__(self):
        self.names: list[str] = []
        self._index: dict[str, int] = {}
        # one entry per span: name index, parent span id (-1 at the top)
        self.span_name: list[int] = []
        self.span_parent: list[int] = []
        self.span_start: list[float] = []
        self.span_end: list[float] = []
        self._child: list[float] = []  # summed wrapper time of direct children
        self._stack: list[int] = []
        self.calls: dict[str, int] = {}
        self.blocks: dict[str, int] = {}
        self.self_s: dict[str, float] = {}
        self.distinct_bit_blocks: set[int] = set()
        self.csv_bytes = 0

    def _name_index(self, name: str) -> int:
        idx = self._index.get(name)
        if idx is None:
            idx = self._index[name] = len(self.names)
            self.names.append(name)
            self.calls[name] = 0
            self.blocks[name] = 0
            self.self_s[name] = 0.0
        return idx

    def wrap(self, name: str, fn):
        recorder = self
        idx = self._name_index(name)
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            entry = clock()
            span = len(recorder.span_start)
            recorder.span_name.append(idx)
            recorder.span_parent.append(stack[-1] if stack else -1)
            recorder.span_end.append(0.0)
            recorder._child.append(0.0)
            stack.append(span)
            recorder.span_start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                recorder.span_end[span] = end
                recorder.self_s[name] += end - recorder.span_start[span] - recorder._child[span]
                recorder.calls[name] += 1
                recorder.on_call(name, args, kwargs)
                if stack:
                    # the parent is charged the wrapper's whole cost, its
                    # bookkeeping included, so no self time holds tracer work
                    recorder._child[stack[-1]] += clock() - entry

        return traced

    def on_call(self, name: str, args, kwargs) -> None:
        main = args[0] if args else None
        if main is None:
            return
        self.blocks[name] += leading_rows(main)
        if name == "chain.map_symbols":
            # identity of a block is its bit pattern and modulation
            bits = np.atleast_2d(np.asarray(main))
            rows = bits.reshape(-1, bits.shape[-1])
            scheme = args[1] if len(args) > 1 else kwargs.get("scheme")
            tag = getattr(scheme, "value", scheme)
            for row in rows:
                self.distinct_bit_blocks.add(hash((tag, row.tobytes())))
        elif name == "cli.write_csv":
            self.csv_bytes += os.path.getsize(main)

    def starts(self, name: str) -> list[float]:
        idx = self._index.get(name)
        if idx is None:
            return []
        return [s for s, n in zip(self.span_start, self.span_name) if n == idx]

    def write_spans(self, path: Path) -> None:
        with open(path, "w", newline="") as fh:
            out = csv.writer(fh)
            out.writerow(["span", "parent", "name", "start_s", "end_s"])
            t0 = self.span_start[0] if self.span_start else 0.0
            for span, (n, parent, start, end) in enumerate(zip(
                self.span_name, self.span_parent, self.span_start, self.span_end
            )):
                out.writerow([span, parent, self.names[n],
                              f"{start - t0:.9f}", f"{end - t0:.9f}"])


def _resolve(module, attr: str):
    owner = module
    parts = attr.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part)
    return owner, parts[-1]


class Tracing:
    """Install wrappers for every target; ``uninstall`` restores the originals."""

    def __init__(self, recorder: Recorder):
        self.recorder = recorder
        self._patched: list[tuple[object, str, object]] = []

    def install(self) -> None:
        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == "tinyfdss" or n.startswith("tinyfdss."))]
        for mod_name, attr in TARGETS:
            module = sys.modules[f"tinyfdss.{mod_name}"]
            owner, leaf = _resolve(module, attr)
            original = owner.__dict__[leaf]
            wrapper = self.recorder.wrap(span_name(mod_name, attr), original)
            self._set(owner, leaf, original, wrapper)
            if owner is module:
                for other in modules:
                    for key, value in list(vars(other).items()):
                        if value is original and other is not module:
                            self._set(other, key, original, wrapper)

    def _set(self, owner, key, original, wrapper) -> None:
        setattr(owner, key, wrapper)
        self._patched.append((owner, key, original))

    def uninstall(self) -> None:
        while self._patched:
            owner, key, original = self._patched.pop()
            setattr(owner, key, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False


def _percentile(values: list[float], q: int) -> float:
    """The q-th percentile cut of ``statistics.quantiles(values, n=100)``."""
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=100)[q - 1]


def per_layer(rec: Recorder, metrics: list[dict], blocks: int, speed: float,
              overhead: float) -> dict[str, tuple[float, str]]:
    """Each of ``metrics`` (the ``per_layer`` list of BENCHMARK.json) from one
    traced iteration, as name -> (value, unit).  A layer that does not run on
    a workload reports 0.

    ``blocks`` is the iteration's blocks through the chain, the base of every
    count.  ``speed`` is the host speed factor over the traced iteration;
    times are scaled by it to the reference speed, like the end-to-end
    figures.  ``overhead`` is traced over untraced time of the iteration.
    """
    values: dict[str, float] = {}
    for name in rec.names:
        values[f"{name}.self_s"] = rec.self_s[name] * speed
        values[f"{name}.calls"] = rec.calls[name]
        values[f"{name}.blocks"] = rec.blocks[name]
    values["chain.SymbolBlock.constructions"] = rec.calls.get("chain.SymbolBlock", 0)
    mapped = rec.blocks.get("chain.map_symbols", 0)
    values["evaluation.distinct_blocks"] = len(rec.distinct_bit_blocks)
    values["evaluation.block_reuse"] = len(rec.distinct_bit_blocks) / mapped if mapped else 0.0
    starts = rec.starts("adaptation.adaptation_cycle")
    ticks_us = [(b - a) * 1e6 * speed for a, b in zip(starts, starts[1:])]
    values["adaptation.tick_us_p50"] = _percentile(ticks_us, 50)
    values["adaptation.tick_us_p99"] = _percentile(ticks_us, 99)
    values["cli.write_csv.bytes"] = rec.csv_bytes
    values["trace.spans"] = len(rec.span_start)
    values["trace.blocks"] = blocks
    values["trace.overhead"] = overhead
    return {m["name"]: (values.get(m["name"], 0), m["unit"]) for m in metrics}
