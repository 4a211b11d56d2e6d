"""Per-layer spans recorded from outside the package.

A traced pass replaces, for its duration only, the names that `cli`, `bench`,
`media` and `sequences` import from other sclab modules (plus the package-level
names the library loop calls, and `bench`'s two error-sum kernels) with wrappers
that time each call and count the work it was handed.  Untraced passes run the
unmodified module attributes.

Span times are inclusive: `p2lsg.sequence` nests inside `sequences.thresholds`,
which nests inside `bench.sweep`, which nests inside `cli`.  `cli.self_s` is the
cli spans' time minus that of their direct child spans.
"""

import importlib
import os
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter

_WORD_BITS = 64


def _words(n):
    return -(-n // _WORD_BITS)


def _arg(args, kwargs, index, name, default):
    if name in kwargs:
        return kwargs[name]
    return args[index] if len(args) > index else default


def _bench_count(args, kwargs, result):
    k = 1 << _arg(args, kwargs, 2, "input_bits", 8)
    return {"bench.pair_evals": k * k, "bench.stream_bits": k * k * len(args[0])}


def _media_out(args, kwargs, result, stream_length_index):
    n = _arg(args, kwargs, stream_length_index, "stream_length", 256)
    pix = result.pixels
    samples = pix.size
    return {"media.out_pixels": pix.shape[0] * pix.shape[1], "media.stream_words": samples * _words(n)}


def _path_size(args):
    return os.path.getsize(args[0])


# (module, attribute, span name, counter(args, kwargs, result) -> {metric: amount})
TARGETS = (
    ("sclab.cli", "main", "cli", None),
    ("sclab.cli", "sequence_thresholds", "sequences.thresholds",
     lambda a, k, r: {"sequences.values": len(r)}),
    ("sclab.bench", "sequence_thresholds", "sequences.thresholds",
     lambda a, k, r: {"sequences.values": len(r)}),
    ("sclab.media", "sequence_thresholds", "sequences.thresholds",
     lambda a, k, r: {"sequences.values": len(r)}),
    ("sclab.cli", "sequence_fractions", "sequences.fractions",
     lambda a, k, r: {"sequences.values": len(r)}),
    ("sclab.sequences", "p2lsg_sequence", "p2lsg.sequence",
     lambda a, k, r: {"p2lsg.values": len(r)}),
    ("sclab.cli", "p2lsg_parallel", "p2lsg.sequence",
     lambda a, k, r: {"p2lsg.values": r.size}),
    ("sclab.cli", "group_reverse", "p2lsg.sequence", lambda a, k, r: {"p2lsg.values": 1}),
    ("sclab.cli", "run_bench", "bench.sweep", None),
    ("sclab.bench", "mul_error_sum", "bench.count", _bench_count),
    ("sclab.bench", "add_error_sum", "bench.count", _bench_count),
    ("sclab.cli", "emit_report", "bench.report", None),
    ("sclab.cli", "scale_image_sc", "media.scale", lambda a, k, r: _media_out(a, k, r, 2)),
    ("sclab.cli", "merge_scene_sc", "media.merge", lambda a, k, r: _media_out(a, k, r, 3)),
    ("sclab.cli", "chroma_key_alpha", "media.key", None),
    ("sclab.cli", "read_pnm_file", "pnm.read", lambda a, k, r: {"pnm.bytes_read": _path_size(a)}),
    ("sclab.cli", "write_pnm_file", "pnm.write",
     lambda a, k, r: {"pnm.bytes_written": _path_size(a)}),
    ("sclab.cli", "load_stream_ascii", "bitstream.load",
     lambda a, k, r: {"bitstream.bits_loaded": r.length}),
    ("sclab.cli", "load_stream_raw", "bitstream.load",
     lambda a, k, r: {"bitstream.bits_loaded": r.length}),
    ("sclab.cli", "scc", "bitstream.scc", None),
    ("sclab", "scc", "bitstream.scc", None),
    ("sclab", "sng_generate", "bitstream.encode", None),
    ("sclab", "decode_unipolar", "bitstream.decode", None),
    ("sclab", "mul_unipolar", "ops", lambda a, k, r: {"ops.calls": 1, "ops.words": r.words.size}),
    ("sclab", "mux2", "ops", lambda a, k, r: {"ops.calls": 1, "ops.words": r.words.size}),
)

SPAN_METRICS = {
    "cli": "cli.s",
    "sequences.thresholds": "sequences.thresholds_s",
    "sequences.fractions": "sequences.fractions_s",
    "p2lsg.sequence": "p2lsg.sequence_s",
    "bench.sweep": "bench.sweep_s",
    "bench.count": "bench.count_s",
    "bench.report": "bench.report_s",
    "media.scale": "media.scale_s",
    "media.merge": "media.merge_s",
    "media.key": "media.key_s",
    "pnm.read": "pnm.read_s",
    "pnm.write": "pnm.write_s",
    "bitstream.load": "bitstream.load_s",
    "bitstream.scc": "bitstream.scc_s",
    "bitstream.encode": "bitstream.encode_s",
    "bitstream.decode": "bitstream.decode_s",
    "ops": "ops.s",
}

COUNT_METRICS = (
    "sequences.values", "p2lsg.values", "bench.pair_evals", "bench.stream_bits",
    "media.out_pixels", "media.stream_words", "pnm.bytes_read", "pnm.bytes_written",
    "bitstream.bits_loaded", "ops.calls", "ops.words",
)


class Recorder:
    """Span totals and work counts for one traced pass, kept in memory."""

    def __init__(self):
        self.inclusive = defaultdict(float)
        self.exclusive = defaultdict(float)
        self.counts = defaultdict(int)
        self.spans = 0
        self._children = []  # child-time accumulator of each open span

    def wrap(self, name, fn, counter):
        stack = self._children

        def traced(*args, **kwargs):
            stack.append(0.0)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                took = perf_counter() - start
                children = stack.pop()
                if stack:
                    stack[-1] += took
                self.inclusive[name] += took
                self.exclusive[name] += took - children
                self.spans += 1
            if counter is not None:
                for key, amount in counter(args, kwargs, result).items():
                    self.counts[key] += amount
            return result

        return traced

    def snapshot(self):
        return dict(self.inclusive), dict(self.exclusive)

    def rescale_since(self, mark, factor):
        """Multiply the span time recorded since `mark` (a snapshot) by factor."""
        for totals, before in zip((self.inclusive, self.exclusive), mark):
            for key, value in totals.items():
                start = before.get(key, 0.0)
                totals[key] = start + (value - start) * factor

    def metrics(self):
        out = {metric: self.inclusive.get(span, 0.0) for span, metric in SPAN_METRICS.items()}
        out["cli.self_s"] = self.exclusive.get("cli", 0.0)
        out.update({name: self.counts.get(name, 0) for name in COUNT_METRICS})
        return out


def missing_targets():
    """Targets the package no longer has; their metrics read 0."""
    return [
        f"{module}.{attr}" for module, attr, _, _ in TARGETS
        if getattr(importlib.import_module(module), attr, None) is None
    ]


@contextmanager
def traced(recorder):
    """Install the wrappers for one pass, and remove them after it."""
    installed = []
    try:
        for module_name, attr, span, counter in TARGETS:
            module = importlib.import_module(module_name)
            original = getattr(module, attr, None)
            if original is not None:
                setattr(module, attr, recorder.wrap(span, original, counter))
                installed.append((module, attr, original))
        yield
    finally:
        for module, attr, original in reversed(installed):
            setattr(module, attr, original)
