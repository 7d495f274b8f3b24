"""Per-layer tracing for the benchmark, installed from outside the library.

`installed` replaces library functions and methods with timing wrappers under
the names their callers resolve them by (``network`` imports ``fwht`` and
``crosswise_forward`` by name, so those are wrapped in ``network``'s
namespace as well as their own).  Spans are keyed by the per-layer metric
names, not by function names: after a refactor only `TARGETS` changes.

Every ``_s`` metric is self time: a span's duration minus the time covered by
the spans it encloses.  Spans are aggregated as they close (sum of self time,
call count, extra counts) instead of being stored one by one, which keeps the
tracing overhead and memory small on loops of tens of thousands of calls.
"""

from __future__ import annotations

import tracemalloc
from contextlib import contextmanager
from time import perf_counter

import crosswise

_net = crosswise.network
_feat = crosswise.features
_rng = crosswise.rng.CounterRng


def _butterflies(args) -> dict:
    n = args[0].shape[0]
    return {"features.fwht_butterflies": n * (n.bit_length() - 1)}


def _words(args) -> dict:
    return {"rng.words_drawn": args[1]}


SAMPLE_TIME = "features.sample_s"
# Peak tracemalloc memory of one sample_block call, in MB.
SAMPLE_PEAK = "features.sample_peak_mb"
OVERHEAD = "trace.overhead_share"

# (owner, attribute, self-time metric, call-count metric, extra counts).
TARGETS = [
    (_net.DenseLayer, "forward", "network.layer_forward_s", "network.layer_forward_calls", None),
    (_net.CrosswiseLayer, "forward", "network.layer_forward_s", "network.layer_forward_calls", None),
    (_net.CrosswiseMixedLayer, "forward", "network.layer_forward_s", "network.layer_forward_calls", None),
    (_net.DenseLayer, "backward", "network.layer_backward_s", "network.layer_backward_calls", None),
    (_net.CrosswiseLayer, "backward", "network.layer_backward_s", "network.layer_backward_calls", None),
    (_net.CrosswiseMixedLayer, "backward", "network.layer_backward_s", "network.layer_backward_calls", None),
    (_net, "loss_eval", "network.loss_s", "network.loss_calls", None),
    (_net, "softmax", "network.loss_s", "network.loss_calls", None),
    (_net, "sgd_step", "network.sgd_s", "network.sgd_calls", None),
    (_net, "network_forward", "network.eval_s", None, None),
    (_net, "train_network", "network.loop_self_s", None, None),
    (_net, "model_from_json", "network.model_load_s", None, None),
    (_net, "crosswise_forward", "diagonal.forward_s", "diagonal.forward_calls", None),
    (_net, "crosswise_backward", "diagonal.backward_s", "diagonal.backward_calls", None),
    (_net, "fwht", "features.fwht_s", "features.fwht_calls", _butterflies),
    (_feat, "fwht", "features.fwht_s", "features.fwht_calls", _butterflies),
    (_feat, "apply_zhat", "features.zhat_s", "features.zhat_calls", None),
    (_feat, "feature_map_apply", "features.apply_self_s", None, None),
    (_feat, "sample_block", SAMPLE_TIME, "features.sample_blocks", None),
    (_rng, "normal", "rng.normal_s", None, None),
    (_rng, "words", "rng.words_s", None, _words),
    (_rng, "permutation", "rng.permutation_s", "rng.permutation_calls", None),
    (crosswise.datasets, "gen_blobs", "datasets.gen_s", None, None),
]

TIME_METRICS = list(dict.fromkeys(t[2] for t in TARGETS))
COUNT_METRICS = list(dict.fromkeys(
    [t[3] for t in TARGETS if t[3]] + ["features.fwht_butterflies", "rng.words_drawn"]
))
LAYERS = ("network", "diagonal", "features", "rng", "datasets", "trace")
METRIC_UNITS = dict(sorted({
    **{name: "s" for name in TIME_METRICS},
    **{name: "count" for name in COUNT_METRICS},
    SAMPLE_PEAK: "MB",
    OVERHEAD: "share",
}.items(), key=lambda item: LAYERS.index(item[0].split(".")[0])))


class Tracer:
    """Aggregated spans of one traced pass."""

    def __init__(self):
        self.seconds = dict.fromkeys(TIME_METRICS, 0.0)
        self.counts = dict.fromkeys(COUNT_METRICS, 0)
        self.sample_peak_mb = 0.0
        self._open = []  # child time covered so far, one entry per open span

    def wrap(self, fn, time_metric, calls_metric, extra):
        open_spans = self._open
        seconds, counts = self.seconds, self.counts
        watch_memory = time_metric == SAMPLE_TIME

        def traced(*args, **kwargs):
            if watch_memory:
                tracemalloc.start()
            open_spans.append(0.0)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                duration = perf_counter() - start
                seconds[time_metric] += duration - open_spans.pop()
                if open_spans:
                    open_spans[-1] += duration
                if calls_metric:
                    counts[calls_metric] += 1
                if extra:
                    for name, amount in extra(args).items():
                        counts[name] += amount
                if watch_memory:
                    peak = tracemalloc.get_traced_memory()[1] / 2**20
                    tracemalloc.stop()
                    self.sample_peak_mb = max(self.sample_peak_mb, peak)

        return traced

    def metrics(self) -> dict:
        return {**self.seconds, **self.counts, SAMPLE_PEAK: self.sample_peak_mb}


@contextmanager
def installed(tracer: Tracer):
    """Route every target through `tracer`; restore the originals on exit."""
    saved = []
    try:
        for owner, attr, time_metric, calls_metric, extra in TARGETS:
            original = owner.__dict__[attr]
            saved.append((owner, attr, original))
            setattr(owner, attr, tracer.wrap(original, time_metric, calls_metric, extra))
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)
