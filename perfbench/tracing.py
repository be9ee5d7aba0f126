"""In-memory span tracer that wraps the functions ``wdnoma.harness`` calls.

``harness`` imports its collaborators by name, so a wrapper has to replace
the name in the consumer's namespace (``wdnoma.harness.build_equivalent_channel``),
not the definition in the producer module. Transforms are wrapped where
``waveforms`` imports them and are recorded only when their direct parent
span is a ``waveforms`` span, so the receiver's impulse probe (which calls
the modulators directly) stays inside ``receiver.equivalent_channel``.

Spans are (name, start, end, parent) records kept in a list and reduced to
per-name self time at the end. Spans recorded in pool workers stay in those
processes; only the parent's spans are reported.
"""

from __future__ import annotations

import functools
import time
from collections import Counter, defaultdict
from concurrent.futures import ProcessPoolExecutor
from contextlib import contextmanager

_perf = time.perf_counter


class Tracer:
    def __init__(self):
        self.spans = []          # [name, start, end, parent_index]
        self.counts = Counter()
        self._stack = []

    def open(self, name: str) -> int:
        idx = len(self.spans)
        self.spans.append([name, _perf(), None, self._stack[-1] if self._stack else -1])
        self._stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        if not self._stack or self._stack[-1] != idx:
            raise RuntimeError(f"span {self.spans[idx][0]!r} closed out of order")
        self._stack.pop()
        self.spans[idx][2] = _perf()

    @contextmanager
    def span(self, name: str):
        idx = self.open(name)
        try:
            yield idx
        finally:
            self.close(idx)

    def parent_name(self):
        return self.spans[self._stack[-1]][0] if self._stack else None

    def wrap(self, fn, name: str, under: str | None = None, on_result=None):
        """Return ``fn`` recording a span per call.

        ``under``: record only when the enclosing span's name starts with it.
        ``on_result``: called with the return value to add counts.
        """
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if under is not None:
                parent = self.parent_name()
                if parent is None or not parent.startswith(under):
                    return fn(*args, **kwargs)
            self.counts[name] += 1
            idx = self.open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self.close(idx)
            if on_result is not None:
                on_result(self, out)
            return out
        return traced

    def self_times(self) -> dict:
        """Per-name self time in seconds: duration minus the children's."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if end is None:
                raise RuntimeError(f"span {name!r} never closed")
            if parent >= 0:
                child[parent] += end - start
        out = defaultdict(float)
        for i, (name, start, end, _) in enumerate(self.spans):
            out[name] += (end - start) - child[i]
        return dict(out)

    def totals(self) -> dict:
        """Per-name inclusive time in seconds."""
        out = defaultdict(float)
        for name, start, end, _ in self.spans:
            out[name] += end - start
        return dict(out)


def _traced_pool(tracer: Tracer):
    """ProcessPoolExecutor whose start-up and shutdown are timed.

    With the fork start method the first ``submit`` forks every worker, so
    its span plus the shutdown join is the per-pool fixed cost the parent
    pays; the rest of the pool's lifetime is waiting for workers.
    """
    class TracedPool(ProcessPoolExecutor):
        def __init__(self, *args, **kwargs):
            tracer.counts["harness.pool"] += 1
            self._life = tracer.open("harness.pool")
            self._started = False
            super().__init__(*args, **kwargs)

        def submit(self, *args, **kwargs):
            if self._started:
                return super().submit(*args, **kwargs)
            self._started = True
            with tracer.span("harness.pool_start"):
                return super().submit(*args, **kwargs)

        def shutdown(self, *args, **kwargs):
            with tracer.span("harness.pool_start"):
                super().shutdown(*args, **kwargs)
            tracer.close(self._life)

    return TracedPool


def _count_dictionary(tracer, dic):
    # computed from the atom array's shape, not measured
    tracer.counts["sensing.dictionary_bytes"] = dic.atoms.size * dic.atoms.itemsize


def _count_omp(tracer, result):
    tracer.counts["sensing.omp_iterations"] += len(result.targets)


# (consumer module, name, span name, options)
HARNESS_TARGETS = (
    ("receiver", "build_equivalent_channel", "receiver.equivalent_channel", {}),
    ("waveforms", "afdm_mod_samples", "waveforms.mod", {}),
    ("waveforms", "otfs_mod_samples", "waveforms.mod", {}),
    ("waveforms", "ofdm_mod_samples", "waveforms.mod", {}),
    ("waveforms", "afdm_demod_samples", "waveforms.demod", {}),
    ("waveforms", "otfs_demod_samples", "waveforms.demod", {}),
    ("waveforms", "ofdm_demod_samples", "waveforms.demod", {}),
    ("waveforms", "qam_map", "waveforms.qam", {}),
    ("waveforms", "qam_demap_hard", "waveforms.qam", {}),
    ("channel", "apply_dd_channel_samples", "channel.apply", {}),
    ("channel", "build_uplink_channel", "channel.draw", {}),
    ("channel", "target_to_path", "channel.draw", {}),
    ("channel", "path_from_bin", "channel.draw", {}),
    # harness's own rejection-sampling loop over channel.target_to_path
    ("harness", "draw_targets", "channel.draw", {}),
    ("frame", "allocate_frame", "frame.layout", {}),
    ("frame", "allocate_otfs_frame", "frame.layout", {}),
    ("sensing", "build_dictionary", "sensing.dictionary", {"on_result": _count_dictionary}),
    ("sensing", "omp_2d", "sensing.omp", {"on_result": _count_omp}),
    ("sensing", "estimate_to_physical", "sensing.match", {}),
    ("sensing", "matched_squared_errors", "sensing.match", {}),
)

WAVEFORM_TRANSFORMS = ("dft_samples", "idft_samples", "daft_samples", "idaft_samples",
                       "add_cp_samples", "add_cpp_samples")


@contextmanager
def patched(tracer: Tracer):
    """Install the wrappers for the duration of the block, then restore."""
    import wdnoma.harness as harness
    import wdnoma.waveforms as waveforms

    saved = []

    def swap(namespace, attr, new):
        saved.append((namespace, attr, getattr(namespace, attr)))
        setattr(namespace, attr, new)

    try:
        for module, attr, span_name, opts in HARNESS_TARGETS:
            original = getattr(harness, attr)
            if module != "harness" and original.__module__ != f"wdnoma.{module}":
                raise RuntimeError(f"harness.{attr} no longer comes from wdnoma.{module}")
            swap(harness, attr, tracer.wrap(original, span_name, **opts))
        for attr in WAVEFORM_TRANSFORMS:
            swap(waveforms, attr, tracer.wrap(getattr(waveforms, attr), "transforms",
                                              under="waveforms."))
        swap(harness, "ProcessPoolExecutor", _traced_pool(tracer))
        yield tracer
    finally:
        for namespace, attr, original in reversed(saved):
            setattr(namespace, attr, original)
