"""Experiment configuration: a flat JSON document plus K=V overrides."""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass
from typing import Any, List, Optional

from .core import BOTTOM, ConfigError
from .programs import MACHINES

FAILURE_KINDS = ("none", "simultaneous", "independent")
ADVERSARIES = ("exhaustive", "assumption1")
MODES = ("rerun-after-crash", "halt-after-return")
CHOICES = ("p1", "p2", "min", "max")


@dataclass
class ExperimentConfig:
    program: str
    n: int
    proposals: List[Any]
    failure: str = "none"
    budget: int = 0
    f: Optional[int] = None  # fig2 instance count parameter
    cons: str = "atomic"  # inner consensus: "atomic" | "tas"
    choice: str = "p1"  # fig1 tie-break: p1 | p2 | min | max
    scan_order: str = "asc"
    mode: str = "rerun-after-crash"
    adversary: str = "exhaustive"
    seed: int = 0
    monitor: bool = False  # genericity monitor armed
    depth: Optional[int] = None
    hash_ignores_attempt: bool = False
    agreement_scope: str = "all-returns"  # or "cross-process"
    cap: Optional[int] = None  # node cap for graph building

    def __post_init__(self):
        self.validate()

    def validate(self) -> "ExperimentConfig":
        """Raise ConfigError unless every field has a legal type and value;
        the machines and the transition rely on this and check nothing."""
        if self.program not in MACHINES:
            raise ConfigError("unknown program %r" % self.program)
        params = MACHINES[self.program].params
        for key in ("n", "budget", "seed"):
            if not _is_int(getattr(self, key)):
                raise ConfigError("%s must be an integer" % key)
        if self.f is not None and not _is_int(self.f):
            raise ConfigError("f must be an integer")
        if self.n < 1:
            raise ConfigError("n must be positive")
        if "n" not in params and self.n != 2:
            raise ConfigError("%s is a 2-process algorithm, got n=%d" % (self.program, self.n))
        if self.program == "fig2":
            if self.f is None or self.f < 0:
                raise ConfigError("fig2 requires f >= 0")
            if self.n < 2:
                raise ConfigError("fig2 requires n >= 2")
        if self.cons not in ("atomic", "tas"):
            raise ConfigError("cons must be atomic or tas")
        if self.cons == "tas" and self.program == "fig2" and self.n != 2:
            raise ConfigError("TAS-based inner consensus is 2-process only")
        if self.choice not in CHOICES:
            raise ConfigError("unknown tie-break choice %r" % (self.choice,))
        if not isinstance(self.proposals, (list, tuple)):
            raise ConfigError("proposals must be a list")
        if len(self.proposals) != self.n:
            raise ConfigError(
                "expected %d proposals, got %d" % (self.n, len(self.proposals))
            )
        if any(p is BOTTOM for p in self.proposals):
            raise ConfigError("the bottom value is never a legal proposal")
        if not all(isinstance(p, (str, int, float)) and not isinstance(p, bool)
                   for p in self.proposals):
            raise ConfigError("every proposal must be a string or a number")
        if self.choice in ("min", "max") and len({isinstance(p, str) for p in self.proposals}) > 1:
            raise ConfigError("choice %s needs proposals that are all strings or all numbers"
                              % self.choice)
        # Equal values are interchangeable in memo keys and in the transition
        # table, so two proposals that compare equal must be the same value.
        for i, p in enumerate(self.proposals):
            for q in self.proposals[:i]:
                if p == q and repr(p) != repr(q):
                    raise ConfigError("proposals %r and %r are equal but not the same value"
                                      % (q, p))
        if self.failure not in FAILURE_KINDS:
            raise ConfigError("unknown failure model %r" % self.failure)
        if self.budget < 0:
            raise ConfigError("failure budget must be non-negative")
        if self.adversary not in ADVERSARIES:
            raise ConfigError("unknown adversary %r" % self.adversary)
        if self.adversary == "assumption1" and self.failure != "independent":
            raise ConfigError("the assumption-1 adversary requires independent failures")
        if self.mode not in MODES:
            raise ConfigError("unknown return mode %r" % self.mode)
        if self.scan_order not in ("asc", "desc"):
            raise ConfigError("scan order must be asc or desc")
        for key in _PROGRAM_KEYS:
            if key not in params and getattr(self, key) != _DEFAULTS[key]:
                raise ConfigError("%s does not read %s; leave it %s"
                                  % (self.program, key, json.dumps(_DEFAULTS[key])))
        if self.agreement_scope not in ("all-returns", "cross-process"):
            raise ConfigError("agreement scope must be all-returns or cross-process")
        for key in ("monitor", "hash_ignores_attempt"):
            if not isinstance(getattr(self, key), bool):
                raise ConfigError("%s must be true or false" % key)
        for key, least in (("depth", 0), ("cap", 1)):
            value = getattr(self, key)
            if value is not None and (not _is_int(value) or value < least):
                raise ConfigError("%s must be an integer >= %d" % (key, least))
        return self

    def to_dict(self) -> dict:
        """The fields as a dict; every value is immutable but `proposals`,
        which is a fresh list."""
        d = {f.name: getattr(self, f.name) for f in _FIELDS}
        d["proposals"] = list(self.proposals)
        return d

    @staticmethod
    def from_dict(d: dict) -> "ExperimentConfig":
        if not isinstance(d, dict):
            raise ConfigError("config must be a JSON object")
        known = {f.name for f in _FIELDS}
        unknown = set(d) - known
        if unknown:
            raise ConfigError("unknown config keys: %s" % ", ".join(sorted(unknown)))
        try:
            return ExperimentConfig(**d)
        except TypeError as e:
            raise ConfigError(str(e))

    @staticmethod
    def from_file(path) -> "ExperimentConfig":
        return ExperimentConfig.from_dict(read_config_file(path))


_FIELDS = dataclasses.fields(ExperimentConfig)
_DEFAULTS = {f.name: f.default for f in _FIELDS}
# keys besides `n` that only some programs' machines take
_PROGRAM_KEYS = [key for key in _DEFAULTS if key != "n"
                 and any(key in cls.params for cls in MACHINES.values())]


def read_config_file(path) -> dict:
    """The JSON object in a config file, not yet validated."""
    with open(path) as fh:
        try:
            d = json.load(fh)
        except ValueError as e:  # not JSON, or not UTF-8
            raise ConfigError("malformed config %s: %s" % (path, e))
    if not isinstance(d, dict):
        raise ConfigError("config must be a JSON object")
    return d


def parse_overrides(pairs) -> dict:
    """Repeatable key=value overrides; a value parses as JSON when it can."""
    d = {}
    for pair in pairs:
        if "=" not in pair:
            raise ConfigError("override %r is not of the form key=value" % pair)
        key, _, raw = pair.partition("=")
        try:
            d[key] = json.loads(raw)
        except json.JSONDecodeError:
            d[key] = raw
    return d


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)
