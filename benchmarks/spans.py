"""Outside-in tracing of fdisac's layers.

The package is not changed. Tracing rebinds the module-level names that
``fdisac.runner`` and ``fdisac.optimizer`` look up at call time, so every
call from ``run_scenario`` and ``run_algorithm1`` into another public function
goes through a wrapper that records a span. Spans stay in memory and are
written out when the run ends.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import time
from collections import Counter

# Names rebound in each module, as that module looks them up.
REBOUND = {
    "fdisac.runner": (
        "gen_dl_channel", "gen_ul_channel", "gen_si_channel", "perturb_estimate",
        "build_cancellers", "synthesize_rx_snapshots",
        "sample_covariance", "music_doas", "reference_signal_grid",
        "delay_doppler_quotient", "delay_doppler_map",
        "build_estimated_channels", "run_algorithm1", "mss_rx_combiner",
        "radar_sinr", "dl_snr", "ul_sinr", "ideal_dl_rate",
    ),
    "fdisac.optimizer": (
        "user_beamformers", "select_tx_analog", "select_rx_analog",
        "build_cancellers", "numeric_tx_precoder", "power_normalize",
        "nsp_rx_combiner", "mss_rx_combiner",
    ),
}
ROOT = "runner.run_scenario"

# Per-layer self times: metric name -> the spans whose self time it sums.
SELF_TIMES = {
    "sensing.delay_doppler_quotient.ms": ("sensing.delay_doppler_quotient",),
    "sensing.reference_signal_grid.ms": ("sensing.reference_signal_grid",),
    "runner.synthesize_rx_snapshots.ms": ("runner.synthesize_rx_snapshots",),
    "optimizer.numeric_tx_precoder.ms": ("optimizer.numeric_tx_precoder",),
    "optimizer.run_algorithm1.self_ms": ("optimizer.run_algorithm1",),
    "optimizer.user_beamformers.ms": ("optimizer.user_beamformers",),
    "optimizer.select_tx_analog.ms": ("optimizer.select_tx_analog",),
    "optimizer.select_rx_analog.ms": ("optimizer.select_rx_analog",),
    "optimizer.power_normalize.ms": ("optimizer.power_normalize",),
    "optimizer.combiners.ms": ("optimizer.nsp_rx_combiner", "optimizer.mss_rx_combiner"),
    "optimizer.build_estimated_channels.ms": ("optimizer.build_estimated_channels",),
    "sensing.sample_covariance.ms": ("sensing.sample_covariance",),
    "sensing.music_doas.ms": ("sensing.music_doas",),
    "sensing.delay_doppler_map.ms": ("sensing.delay_doppler_map",),
    "channels.ms": (
        "channels.gen_dl_channel", "channels.gen_ul_channel",
        "channels.gen_si_channel", "channels.perturb_estimate",
    ),
    "cancellers.build_cancellers.ms": ("cancellers.build_cancellers",),
    "metrics.ms": (
        "metrics.radar_sinr", "metrics.dl_snr", "metrics.ul_sinr", "metrics.ideal_dl_rate",
    ),
    "runner.self_ms": (ROOT,),
}
# Calls counted per trial: metric name -> span name.
CALL_COUNTS = {
    "runner.synthesize_rx_snapshots.calls": "runner.synthesize_rx_snapshots",
    "cancellers.build_cancellers.calls": "cancellers.build_cancellers",
}
# Counts read from arguments or results inside the wrapper.
ITERATIONS = "optimizer.numeric_tx_precoder.iterations"
CELLS = "sensing.delay_doppler_quotient.cells"
MODULES = ("channels", "cancellers", "sensing", "optimizer", "metrics", "runner")
OVERHEAD = "trace.overhead_pct"


def span_name(fn) -> str:
    return f"{fn.__module__.removeprefix('fdisac.')}.{fn.__name__}"


class Tracer:
    """Span recorder for one process; ``call`` tags spans with the current call id."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index or -1, call id]
        self.counts = Counter()
        self.call = 0
        self.errors = Counter()  # exceptions leaving a wrapped call, per module
        self._stack = []
        self._last_error = {}

    def wrap(self, fn):
        name = span_name(fn)
        module = name.split(".", 1)[0]

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = self._stack[-1] if self._stack else -1
            span = [name, time.perf_counter(), None, parent, self.call]
            self._stack.append(len(self.spans))
            self.spans.append(span)
            try:
                return fn(*args, **kwargs)
            except Exception as exc:
                # an exception passing through several wrapped calls of one
                # module counts once for that module
                if self._last_error.get(module) is not exc:
                    self._last_error[module] = exc
                    self.errors[module] += 1
                raise
            finally:
                span[2] = time.perf_counter()
                self._stack.pop()

        return traced

    def _counted(self, fn):
        """``fn`` with the count its layer needs read around the call."""
        name = span_name(fn)
        if name == "optimizer.numeric_tx_precoder":

            @functools.wraps(fn)
            def precoder(*args, return_info=False, **kwargs):
                v, info = fn(*args, return_info=True, **kwargs)
                self.counts[ITERATIONS] += info["iterations"]
                return (v, info) if return_info else v

            return precoder
        if name == "sensing.delay_doppler_quotient":

            @functools.wraps(fn)
            def quotient(y_grid, g_grid, *args, **kwargs):
                self.counts[CELLS] += g_grid.size
                return fn(y_grid, g_grid, *args, **kwargs)

            return quotient
        return fn

    @contextlib.contextmanager
    def installed(self):
        """Rebind every name in ``REBOUND`` to a traced wrapper, then restore."""
        saved = []
        try:
            for module_name, names in REBOUND.items():
                module = importlib.import_module(module_name)
                for attr in names:
                    original = getattr(module, attr)
                    saved.append((module, attr, original))
                    setattr(module, attr, self.wrap(self._counted(original)))
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    def self_times(self) -> Counter:
        """Total self time in seconds per span name."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        totals = Counter()
        for i, (name, start, end, _, _) in enumerate(self.spans):
            totals[name] += end - start - child[i]
        return totals

    def layer_metrics(self, trials: int) -> dict:
        """Per-trial layer values (ms or count) over ``trials`` attempted trials."""
        own = self.self_times()
        calls = Counter(span[0] for span in self.spans)
        values = {
            metric: 1e3 * sum(own[n] for n in names) / trials
            for metric, names in SELF_TIMES.items()
        }
        values.update({m: calls[n] / trials for m, n in CALL_COUNTS.items()})
        values[ITERATIONS] = self.counts[ITERATIONS] / trials
        values[CELLS] = self.counts[CELLS] / trials
        values.update({f"{m}.errors": self.errors[m] / trials for m in MODULES})
        return values

    def write(self, path) -> None:
        keys = ("name", "start", "end", "parent", "call")
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps([dict(zip(keys, s)) for s in self.spans]))


def units() -> dict:
    """Unit of every per-layer metric."""
    out = {metric: "ms" for metric in SELF_TIMES}
    out.update({metric: "count" for metric in (*CALL_COUNTS, ITERATIONS, CELLS)})
    out.update({f"{module}.errors": "count" for module in MODULES})
    out[OVERHEAD] = "%"
    return out
