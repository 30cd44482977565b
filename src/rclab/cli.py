"""Command-line front end.

Verbs: check (exhaustive exploration), fuzz (randomized), valency
(execution graph + DOT), replay (verify a serialized trace), bound
(per-attempt step bound).  Verdicts print as JSON on stdout.

Exit codes:
  0   pass
  1   an internal library error that the verb maps to no other code, for
      example a machine applying an operation to the wrong object type, or
      a config whose states need more frame or objects ids than their
      fixed fields hold (the message names the field)
  2   property violation; for replay, a trace that does not reproduce
      (a recorded step is not enabled, a record or the final hash differs),
      or one whose last step reproduces a genericity or read-before-write
      error
  3   a depth limit or node cap was reached: check or fuzz stopped at
      --depth, or valency built a graph truncated by the config's cap
  64  usage error, including a --config, --trace or --out file that cannot
      be opened, and --episodes below 1
  65  bad configuration, including choice min or max with proposals that
      mix strings and numbers, a trace that is not JSON lines or whose
      header carries no config or a final_hash that is not a string, and
      a trace record whose step is not its position, whose label is not
      ordinary, crash or crash_all, or whose pid is not an integer (null
      for crash_all)
"""

from __future__ import annotations

import argparse
import json
import sys

from . import checker, simulator, valency
from .config import ExperimentConfig, parse_overrides, read_config_file
from .core import ConfigError, RcError, digest
from .experiment import Experiment

EXIT_USAGE = 64
EXIT_CONFIG = 65
EXIT_FAIL_GENERIC = 1


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write("error: %s\n" % message)
        raise SystemExit(EXIT_USAGE)


def _positive_int(text):
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError("must be at least 1, got %d" % value)
    return value


# The flags a verb reads besides --config and --override.
_FLAGS = {
    "--out": dict(help="output file (counterexample trace / DOT graph)"),
    "--depth": dict(type=int),
    "--seed": dict(type=int),
    "--no-memo": dict(action="store_true"),
    "--episodes": dict(type=_positive_int, default=1000),
}
_VERBS = (
    ("check", "exhaustive exploration", ("--out", "--depth", "--no-memo")),
    ("fuzz", "randomized exploration", ("--out", "--depth", "--seed", "--episodes")),
    ("valency", "execution graph and valency classes", ("--out",)),
    ("bound", "static per-attempt step bound", ()),
)


def _build_parser():
    p = _Parser(prog="rclab", description=__doc__,
                formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = p.add_subparsers(dest="verb")
    for verb, text, flags in _VERBS:
        sp = sub.add_parser(verb, help=text)
        sp.add_argument("--config", required=True, help="experiment config (JSON)")
        sp.add_argument("--override", action="append", default=[], metavar="K=V")
        for flag in flags:
            sp.add_argument(flag, **_FLAGS[flag])
    sp = sub.add_parser("replay", help="verify a serialized trace")
    sp.add_argument("--trace", required=True)
    return p


def _load_config(args) -> ExperimentConfig:
    """The config file, then the --override pairs, then --depth and
    --seed where the verb takes them, validated once."""
    d = read_config_file(args.config)
    d.update(parse_overrides(args.override))
    for key in ("depth", "seed"):
        value = getattr(args, key, None)
        if value is not None:
            d[key] = value
    return ExperimentConfig.from_dict(d)


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    if args.verb is None:
        _build_parser().print_usage(sys.stderr)
        return EXIT_USAGE
    try:
        return _dispatch(args)
    except OSError as e:
        sys.stderr.write("error: %s\n" % e)
        return EXIT_USAGE
    except ConfigError as e:
        sys.stderr.write("config error: %s\n" % e)
        return EXIT_CONFIG
    except RcError as e:
        sys.stderr.write("error: %s\n" % e)
        return EXIT_FAIL_GENERIC


def _dispatch(args) -> int:
    if args.verb == "replay":
        try:
            result = simulator.replay_file(args.trace)
        except simulator.ScheduleError as e:
            sys.stderr.write("replay mismatch: %s\n" % e)
            return checker.EXIT_FAIL
        out = {
            "final_hash": result.final_hash,
            "matches_header": result.matches_header,
            "steps": len(result.digests) - 1,
        }
        failed = result.failed_step
        if failed is not None:
            out["steps"] += 1
            out["property"], out["detail"] = failed.error, failed.detail
        print(json.dumps(out, sort_keys=True))
        ok = result.matches_header and failed is None
        return 0 if ok else checker.EXIT_FAIL

    cfg = _load_config(args)
    exp = Experiment(cfg)

    if args.verb == "bound":
        out = {"program": cfg.program, "n": cfg.n, "f": cfg.f, "steps": exp.machine.bound()}
        print(json.dumps(out, sort_keys=True))
        return 0

    if args.verb == "valency":
        g = valency.build_graph(exp)
        if g.capped:
            sys.stderr.write("error: graph was truncated by the node cap; refusing to classify\n")
            return checker.EXIT_DEPTH
        labels = valency.classify(g)
        if args.out:
            with open(args.out, "w") as fh:
                fh.writelines(valency.dot_lines(g, labels))
        print(json.dumps(valency.summary(g, labels), sort_keys=True))
        return 0

    if args.verb == "check":
        verdict = checker.explore(exp, memo=not args.no_memo)
    else:
        verdict = checker.fuzz(exp, episodes=args.episodes)
    out = verdict.to_json()
    if verdict.result == "fail":
        path = args.out or "counterexample.jsonl"
        trace, final = simulator.run(exp, verdict.trace_labels)
        simulator.write_trace(trace, path, final_hash=digest(final))
        out["trace_file"] = path
    print(json.dumps(out, sort_keys=True))
    return verdict.exit_code


if __name__ == "__main__":
    raise SystemExit(main())
