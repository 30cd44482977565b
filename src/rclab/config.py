"""Experiment configuration: a flat JSON document plus K=V overrides."""

from __future__ import annotations

import json

from .core import BOTTOM, ConfigError
from .programs import MACHINES

FAILURE_KINDS = ("none", "simultaneous", "independent")
ADVERSARIES = ("exhaustive", "assumption1")
MODES = ("rerun-after-crash", "halt-after-return")
CHOICES = ("p1", "p2", "min", "max")

_REQUIRED = object()  # the default of a field that must be given

# Every config field, in order, with its default.
_FIELDS = {
    "program": _REQUIRED,
    "n": _REQUIRED,
    "proposals": _REQUIRED,
    "failure": "none",
    "budget": 0,
    "f": None,  # fig2 instance count parameter
    "cons": "atomic",  # inner consensus: "atomic" | "tas"
    "choice": "p1",  # fig1 tie-break: p1 | p2 | min | max
    "scan_order": "asc",
    "mode": "rerun-after-crash",
    "adversary": "exhaustive",
    "seed": 0,
    "monitor": False,  # genericity monitor armed
    "depth": None,
    "hash_ignores_attempt": False,
    "agreement_scope": "all-returns",  # or "cross-process"
    "cap": None,  # node cap for graph building
}
_DEFAULTS = {key: value for key, value in _FIELDS.items() if value is not _REQUIRED}
# keys with a default that only some programs' machines take
_PROGRAM_KEYS = [key for key in _DEFAULTS
                 if any(key in cls.params for cls in MACHINES.values())]


class ExperimentConfig:
    """A validated experiment configuration: one attribute per key of
    `_FIELDS`, given by keyword.  Configs compare equal field by field and
    are unhashable, since their fields can be assigned."""

    def __init__(self, **fields):
        values = {**_DEFAULTS, **fields}
        if values.keys() != _FIELDS.keys():
            raise TypeError("; ".join(
                ["missing config key %r" % key for key in _FIELDS if key not in values]
                + ["unknown config key %r" % key for key in values if key not in _FIELDS]))
        self.__dict__.update(values)
        self.validate()

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.to_dict() == other.to_dict()

    def __repr__(self):
        return "ExperimentConfig(%s)" % ", ".join(
            "%s=%r" % (key, getattr(self, key)) for key in _FIELDS)

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
        d = {key: getattr(self, key) for key in _FIELDS}
        d["proposals"] = list(self.proposals)
        return d

    @staticmethod
    def from_dict(d: dict) -> "ExperimentConfig":
        if not isinstance(d, dict):
            raise ConfigError("config must be a JSON object")
        try:
            return ExperimentConfig(**d)
        except TypeError as e:
            raise ConfigError(str(e))

    @staticmethod
    def from_file(path) -> "ExperimentConfig":
        return ExperimentConfig.from_dict(read_config_file(path))


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
