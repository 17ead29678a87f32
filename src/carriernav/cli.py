"""Command-line interface.

Exit codes: 0 success, 1 bad input (arguments, files, schemas, a query
descriptor with no token), 2 runtime failure (no query match, unreachable
goals, unexpected errors).
Every subcommand uses the one prior oracle that ``oracle_from_env`` gives.
"""

from __future__ import annotations

import argparse
import glob
import sys
from pathlib import Path

from . import __version__
from .bench import run_suite
from .graph import Query, QueryError, build_crsg, query_target
from .llm_adapter import oracle_from_env
from .policy import VARIANTS
from .scenarios import MODES, generate_scenarios, load_scenario
from .scene import load_scene, write_json


class CliError(ValueError):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would exit(2); we reserve 2 for runtime
        raise CliError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="carriernav",
                     description="carrier-graph navigation benchmark tools")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-scenarios", parents=[], help="write scenario/scene files")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--mode", choices=MODES, default="mixed")
    p.add_argument("--count", type=int, default=10)
    p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("build-graph", help="build the carrier graph for a scene")
    p.add_argument("--scene", required=True)
    p.add_argument("--out", help="write the graph as JSON here")
    p.add_argument("--dump", action="store_true", help="print a text summary")

    p = sub.add_parser("query", help="resolve a target description in a scene")
    p.add_argument("--scene", required=True)
    p.add_argument("--text", help="free-text description")
    p.add_argument("--image", help="image token (img:... form)")
    p.add_argument("--carrier", help="restrict to objects on this carrier")

    p = sub.add_parser("run-episode", help="run one scenario's tasks")
    p.add_argument("--scenario", required=True)
    p.add_argument("--variant", choices=sorted(VARIANTS), default="ours")
    p.add_argument("--trace", action="store_true", help="print action traces")

    p = sub.add_parser("run-suite", help="run a scenario/variant matrix")
    p.add_argument("--scenarios", required=True,
                   help="directory or glob of scenario_*.json files")
    p.add_argument("--variants", default="ours",
                   help="comma-separated variant names")
    p.add_argument("--out", required=True, help="directory for result files")
    p.add_argument("--workers", type=int, default=1)
    return parser


def _out_dir(path: str) -> str:
    """``path`` if it names a directory, or a place where one can be made:
    checked before any work, so a file there is bad input."""
    here = Path(path).absolute()
    existing = next(p for p in (here, *here.parents) if p.exists())
    if not existing.is_dir():
        raise CliError(f"--out {path!r}: {str(existing)!r} is not a directory")
    return path


def _out_file(path: str) -> str:
    """``path`` if it names a file in an existing directory: checked before
    any work, so a directory there is bad input."""
    here = Path(path).absolute()
    if here.is_dir() or not here.parent.is_dir():
        raise CliError(f"--out {path!r} is not a file in an existing directory")
    return path


def _cmd_gen_scenarios(args, prior) -> int:  # generation consults no oracle
    scenarios = generate_scenarios(args.mode, args.count, args.seed,
                                   out_dir=_out_dir(args.out))
    print(f"wrote {len(scenarios)} {args.mode} scenarios to {args.out}")
    return 0


def _cmd_build_graph(args, prior) -> int:
    out = args.out and _out_file(args.out)
    crsg = build_crsg(load_scene(args.scene), prior=prior)
    if out:
        write_json(out, crsg.to_dict())
        print(f"graph written to {out}")
    if args.dump or not out:
        print(crsg.dump_text())
    return 0


def _cmd_query(args, prior) -> int:
    if (args.text is None) == (args.image is None):
        raise CliError("query needs exactly one of --text or --image")
    try:
        query = Query(text=args.text, image=args.image, carrier_text=args.carrier)
    except QueryError as exc:  # a malformed query is bad input, not a failed match
        raise CliError(str(exc)) from None
    crsg = build_crsg(load_scene(args.scene), prior=prior)
    obj, score = query_target(crsg, query)
    carrier = crsg.carrier_of(obj.id)
    where = f"on {carrier}" if carrier else "(not carried)"
    print(f"{obj.id} score={score:.4f} {where}")
    return 0


def _cmd_run_episode(args, prior) -> int:
    from .bench import mean_spl, run_sequence, spl, success_rate

    scenario = load_scenario(args.scenario)
    results = run_sequence(scenario, VARIANTS[args.variant], prior=prior)
    for r in results:
        score = spl(r.success, r.shortest, r.traveled)
        print(f"task {r.task_index}: success={r.success} spl={score:.4f} "
              f"traveled={r.traveled:.3f} shortest={r.shortest:.3f} "
              f"actions={r.action_count}")
        if args.trace:
            for line in r.actions:
                print(f"  {line}")
    print(f"sequence: sr={success_rate(results):.4f} spl={mean_spl(results):.4f}")
    return 0


def _cmd_run_suite(args, prior) -> int:
    root = Path(args.scenarios)
    if root.is_dir():
        paths = sorted(str(p) for p in root.glob("scenario_*.json"))
    else:
        paths = sorted(glob.glob(args.scenarios))
    if not paths:
        raise CliError(f"no scenario files matched {args.scenarios!r}")
    variants = [v.strip() for v in args.variants.split(",") if v.strip()]
    if not variants:
        raise CliError("no variants given")
    for v in variants:
        if v not in VARIANTS:
            raise CliError(f"unknown variant {v!r}; known: {sorted(VARIANTS)}")
    if args.workers < 1:
        raise CliError(f"--workers must be at least 1, got {args.workers}")
    report = run_suite(paths, variants, out_dir=_out_dir(args.out), workers=args.workers,
                       prior=prior)
    for name, agg in sorted(report.variants.items()):
        print(f"{name}: episodes={agg['episodes']} sr={agg['sr']:.4f} "
              f"spl={agg['spl']:.4f}")
    print(f"results in {args.out}")
    return 0


_COMMANDS = {
    "gen-scenarios": _cmd_gen_scenarios,
    "build-graph": _cmd_build_graph,
    "query": _cmd_query,
    "run-episode": _cmd_run_episode,
    "run-suite": _cmd_run_suite,
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return _COMMANDS[args.command](args, oracle_from_env())
    except QueryError as exc:  # before its ValueError bases: no-match is runtime
        print(f"no match: {exc}", file=sys.stderr)
        return 2
    except (ValueError, FileNotFoundError) as exc:  # the package's input errors subclass ValueError
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # anything else is a runtime failure
        print(f"runtime error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
