"""Span tracing for traced benchmark runs, installed from outside the package.

Each public function the benchmark measures is replaced, for the duration of
a traced run, by a wrapper that records a span: name, span id, parent span
id, the operation it belongs to, the run phase, start, end and self time
(duration minus the time covered by its child spans).  A wrapper is patched
on the module where the *caller* looks the name up: ``codec`` imports
``return_partition`` by name, so the patch goes on ``codec``, not on
``markers``.  ``blocks.append_layer`` is imported inside codec functions at
call time, so patching the ``blocks`` attribute reaches those callers.

Spans stay in memory and are written out by the caller when the run ends.
The program is single-threaded, so child spans never overlap and a parent's
covered time is the sum of its children's durations.
"""

import collections
import importlib
import time

# (module, attribute, span name).  Several patch sites may feed one span name.
SPAN_SITES = [
    ("codec", "return_partition", "markers.return_partition"),
    ("pipeline", "build_towers", "markers.build_towers"),
    ("pipeline", "verify_tower", "markers.verify_tower"),
    ("pipeline", "build_schedule", "entropy.build_schedule"),
    ("pipeline", "verify_schedule", "entropy.verify_schedule"),
    ("blocks", "append_layer", "blocks.append_layer"),
    ("codec", "encode_k", "codec.encode_k"),
    ("codec", "build_point_context", "codec.build_point_context"),
    ("codec", "decode_k", "codec.decode_k"),
    ("codec", "build_first_codebook", "codec.codebook_build"),
    ("codec", "build_conditional_codebook", "codec.codebook_build"),
    ("codec", "build_identification_codebook", "codec.codebook_build"),
    ("codec", "build_periodic_code", "codec.build_periodic_code"),
    ("pipeline", "build_pipeline", "pipeline.build_pipeline"),
    ("cli", "build_pipeline", "pipeline.build_pipeline"),
    ("cli", "load_pipeline", "pipeline.load_pipeline"),
    ("cli", "verify_pipeline", "pipeline.verify_pipeline"),
    ("cli", "sample_points", "pipeline.sample_points"),
    ("metrics", "stream_dN", "metrics.stream_dN"),
    ("cli", "convergence_report", "metrics.convergence_report"),
    ("cli", "main", "cli.main"),
]

# Cache requests, counted on the Pipeline methods every caller goes through.
COUNT_SITES = [
    ("first_codebook", "pipeline.codebook_request"),
    ("cond_codebook", "pipeline.codebook_request"),
    ("ident_codebook", "pipeline.codebook_request"),
    ("context", "pipeline.context_request"),
]


class Tracer:
    def __init__(self):
        self.spans = []       # (id, parent, op, phase, name, start, end, self_s)
        self.counts = collections.Counter()   # (phase, name) -> count
        self.phase = "setup"
        self.op = None
        self._stack = []      # open spans: [id, time covered by children]
        self._next_id = 0
        self._patches = []

    def _span(self, name, fn):
        def traced(*args, **kwargs):
            span_id = self._next_id
            self._next_id += 1
            parent = self._stack[-1][0] if self._stack else None
            frame = [span_id, 0.0]
            self._stack.append(frame)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                duration = end - start
                if self._stack:
                    self._stack[-1][1] += duration
                self.spans.append((span_id, parent, self.op, self.phase, name,
                                   start, end, duration - frame[1]))
        return traced

    def _count(self, name, fn):
        counts = self.counts

        def counted(*args, **kwargs):
            counts[(self.phase, name)] += 1
            return fn(*args, **kwargs)
        return counted

    def install(self):
        """Patch every site; undo with uninstall()."""
        from shiftembed.pipeline import Pipeline
        for module, attr, name in SPAN_SITES:
            owner = importlib.import_module("shiftembed." + module)
            self._patch(owner, attr, self._span(name, getattr(owner, attr)))
        for attr, name in COUNT_SITES:
            self._patch(Pipeline, attr, self._count(name, getattr(Pipeline, attr)))

    def _patch(self, owner, attr, wrapper):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def totals(self, phases, clock):
        """name -> {"s", "self_s", "calls"} over spans of the given phases,
        in the reference time of the clock."""
        out = collections.defaultdict(lambda: {"s": 0.0, "self_s": 0.0, "calls": 0})
        for _, _, _, phase, name, start, end, self_s in self.spans:
            if phase in phases:
                seconds = clock.seconds((start, end))
                row = out[name]
                row["s"] += seconds
                row["self_s"] += self_s * seconds / (end - start)
                row["calls"] += 1
        return out

    def shares(self, phases, clock):
        """phase -> name -> [share of time inside, share of self time]: each
        span name's time as a fraction of the phase's top-level span time."""
        out = {}
        for phase in phases:
            top = sum(clock.seconds((start, end))
                      for _, parent, _, p, _, start, end, _ in self.spans
                      if p == phase and parent is None)
            out[phase] = {name: [row["s"] / top, row["self_s"] / top]
                          for name, row in sorted(self.totals({phase}, clock).items())}
        return out

    def count(self, name, phases):
        return sum(self.counts[(phase, name)] for phase in phases)

    def span_records(self):
        keys = ("id", "parent", "op", "phase", "name", "start", "end", "self_s")
        return [dict(zip(keys, span)) for span in self.spans]
