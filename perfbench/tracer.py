"""Outside-in tracing of rclab's layers, and garbage-collector accounting.

The tracer wraps public functions of the already imported rclab modules
(and of each `Experiment` instance) from the benchmark's side; nothing
under `src/` is edited.  Every call becomes a span.  Spans are not kept
one by one: per-step functions run millions of times per pass, so each
span is folded into an aggregate keyed by (function, caller) the moment
it ends.  A function's self time is its span time minus the time covered
by the spans it caused, so the self times of all spans add up to the
time spent inside the outermost ones.

`GcMeter` observes collections through `gc.callbacks`; it changes no
collector setting.
"""

from __future__ import annotations

import gc
import time

ROOT_CALLER = "bench"

# Module-level functions, patched on the module that looks them up at
# call time: (span name, module attribute of the library namespace,
# attribute name).  `simulator` imported `digest` from `core` by name, so
# both bindings are patched.
MODULE_FUNCTIONS = (
    ("objects.apply", "objects", "apply"),
    ("core.digest", "core", "digest"),
    ("core.digest", "simulator", "digest"),
    ("checker.explore", "checker", "explore"),
    ("checker.inspect_edge", "checker", "inspect_edge"),
    ("simulator.random_run", "simulator", "random_run"),
    ("simulator.run", "simulator", "run"),
    ("simulator.dump_trace", "simulator", "dump_trace"),
    ("simulator.parse_trace", "simulator", "parse_trace"),
    ("simulator.replay", "simulator", "replay"),
    ("valency.build_graph", "valency", "build_graph"),
    ("valency.classify", "valency", "classify"),
    ("valency.summary", "valency", "summary"),
    ("valency.find_critical", "valency", "find_critical"),
    ("valency.crash_decision_edges", "valency", "crash_decision_edges"),
)

# Bound methods, patched on each Experiment instance and on its machine.
EXPERIMENT_METHODS = ("enabled_steps", "apply_step", "memo_key")
MACHINE_METHODS = ("step", "check_state", "check_edge")

# Every span name the tracer can report, in report order.
SPAN_NAMES = (
    "config.from_dict",
    "experiment.init",
    "experiment.enabled_steps",
    "experiment.apply_step",
    "experiment.memo_key",
    "programs.step",
    "programs.check_state",
    "programs.check_edge",
    "objects.apply",
    "checker.explore",
    "checker.inspect_edge",
    "core.digest",
    "simulator.random_run",
    "simulator.run",
    "simulator.dump_trace",
    "simulator.parse_trace",
    "simulator.replay",
    "valency.build_graph",
    "valency.classify",
    "valency.summary",
    "valency.find_critical",
    "valency.crash_decision_edges",
)


class Tracer:
    """Aggregating span recorder for one single-threaded process."""

    def __init__(self):
        # name -> caller -> [calls, total seconds, self seconds]
        self.stats = {}
        # Open spans: their names and the time their children covered so
        # far.  Two flat lists, so that opening a span allocates no
        # container the collector would track.
        self._names = []
        self._child = []
        self._patched = []
        self.experiment = None  # set by install()

    def wrap(self, name, fn):
        by_caller = self.stats.setdefault(name, {})
        names = self._names
        child = self._child
        clock = time.perf_counter

        def traced(*args, **kwargs):
            caller = names[-1] if names else ROOT_CALLER
            names.append(name)
            child.append(0.0)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                names.pop()
                covered = child.pop()
                if child:
                    child[-1] += elapsed
                rec = by_caller.get(caller)
                if rec is None:
                    rec = by_caller[caller] = [0, 0.0, 0.0]
                rec[0] += 1
                rec[1] += elapsed
                rec[2] += elapsed - covered

        return traced

    # -- installing --------------------------------------------------------

    def install(self, lib):
        """Patch the library's module-level entry points; undo with
        `uninstall`.  `lib` is a namespace of the imported rclab modules.
        Afterwards `self.experiment(config)` builds instrumented
        Experiments."""
        for name, module, attr in MODULE_FUNCTIONS:
            self._patch(getattr(lib, module), attr, self.wrap(name, getattr(getattr(lib, module), attr)))
        cfg_cls = lib.config.ExperimentConfig
        from_dict = cfg_cls.__dict__["from_dict"]
        self._patch(cfg_cls, "from_dict", staticmethod(self.wrap("config.from_dict", from_dict.__func__)))
        self.experiment = self._experiment_factory(lib)
        # simulator.replay builds its own Experiment from the trace header
        self._patch(lib.simulator, "Experiment", self.experiment)

    def _patch(self, owner, attr, value):
        self._patched.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def uninstall(self):
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def _experiment_factory(self, lib):
        """A stand-in for `Experiment(config)` that times construction as
        `experiment.init` and instruments the new instance."""
        construct = self.wrap("experiment.init", lib.experiment.Experiment)

        def make(config):
            exp = construct(config)
            for attr in EXPERIMENT_METHODS:
                setattr(exp, attr, self.wrap("experiment." + attr, getattr(exp, attr)))
            for attr in MACHINE_METHODS:
                setattr(exp.machine, attr, self.wrap("programs." + attr, getattr(exp.machine, attr)))
            return exp

        return make

    # -- reading -----------------------------------------------------------

    def totals(self, name):
        """(calls, self seconds) of one span name over all its callers."""
        recs = self.stats.get(name, {}).values()
        return sum(r[0] for r in recs), sum(r[2] for r in recs)

    def self_sum(self):
        return sum(r[2] for by_caller in self.stats.values() for r in by_caller.values())

    def rows(self):
        """(name, caller, calls, total s, self s), heaviest self time first."""
        out = [
            (name, caller, r[0], r[1], r[2])
            for name, by_caller in self.stats.items()
            for caller, r in by_caller.items()
        ]
        out.sort(key=lambda row: -row[4])
        return out


class GcMeter:
    """Collector pauses and collections per generation, via gc.callbacks."""

    def __init__(self):
        self.pause_s = 0.0
        self.collections = [0, 0, 0]
        self._start = 0.0

    def __call__(self, phase, info):
        if phase == "start":
            self._start = time.perf_counter()
        else:
            self.pause_s += time.perf_counter() - self._start
            self.collections[info["generation"]] += 1

    def __enter__(self):
        gc.callbacks.append(self)
        return self

    def __exit__(self, *exc):
        gc.callbacks.remove(self)
        return False
