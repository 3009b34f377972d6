"""Command-line front end.

Every command emits exactly one JSON document to stdout (or --out) and a
one-line human summary to stderr. Output is a pure function of the flags:
rerunning a command with identical flags reproduces identical bytes.
Exit status is 0 whenever the run completes; whether an attack succeeded
is data in the JSON, not an exit code.

Documents are rendered exactly as `json.dumps(doc, indent=2)` would render
them, byte for byte, by `_render`. With `indent` set, json on Python 3.11
does not use its C encoder: it walks the document through a chain of
Python generators, at about twice the cost. `_render` walks only the
containers in Python and hands every string to json's C escaper and
every number to `int.__repr__` or `float.__repr__`. The 80 rows of the
freshness truth table, most of its document, skip even that walk: they
share one shape, so `_TruthTableRows` fills one positional row template,
built once per call, with each row's two bools, its query names (each
through the C escaper, joined) and its clause. The whole document then
renders in about 0.35x the time of `_render`'s walk over it (CPython
3.11, 2 cores); the document head and every other command go through
`_render`.

`main` routes on the command word. An argv that starts with a command
name is parsed by that command's own subparser; any other argv (empty,
`-h`, an unknown word, a leading `--`) goes through the whole parser.
The namespace, output and exit status are the same either way. The
whole parser's top-level pass only matches the command word and copies
the subparser's namespace back, yet it was about 60% of the parse cost.
"""

from __future__ import annotations

import argparse
import functools
import sys
from json.encoder import encode_basestring_ascii as _escape

from .attacks import (
    XChoice,
    run_dlog_extract_adversary,
    run_kci_attempt,
    run_master_key_break,
    run_uks,
)
from .ecksim import (
    freshness_truth_table,
    run_honest_exchange,
    run_random_guess_adversary,
    two_party_world,
)
from .errors import ParameterError
from .group import DEFAULT_Q, GroupParams
from .oracles import DIGEST
from .protocol import Variant, transcript_record


def _decimal(text: str) -> int:
    try:
        return int(text, 10)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is not a decimal integer") from None


def _prime_order(text: str) -> int:
    value = _decimal(text)
    try:
        GroupParams(value)
    except ParameterError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None
    return value


def _seed(text: str) -> int:
    value = _decimal(text)
    if not 0 <= value < 1 << 64:
        raise argparse.ArgumentTypeError("seed must fit in 64 bits")
    return value


def _trials(text: str) -> int:
    value = _decimal(text)
    if value < 1:
        raise argparse.ArgumentTypeError("trials must be at least 1")
    return value


def _add_common(cmd: argparse.ArgumentParser, trials: bool = False) -> None:
    cmd.add_argument(
        "--variant",
        choices=[v.value for v in Variant],
        default=Variant.HARDENED.value,
        help="protocol variant (default: hardened)",
    )
    cmd.add_argument("--seed", type=_seed, default=0, help="RNG seed (default: 0)")
    cmd.add_argument(
        "--q", type=_prime_order, default=DEFAULT_Q, help=f"group order, a prime (default: {DEFAULT_Q})"
    )
    if trials:
        cmd.add_argument(
            "--trials", type=_trials, default=1000, help="number of seeded trials (default: 1000)"
        )
    cmd.add_argument("--out", default=None, help="write the JSON document here instead of stdout")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="idak",
        description="identity-based key agreement toy: handshakes, attacks, and the distinguishing game",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (handler, help_text) in _COMMANDS.items():
        _add_common(sub.add_parser(name, help=help_text), trials=handler is _cmd_eck_batch)
    # command name -> its subparser, for `_parse_args`
    parser.commands = sub.choices
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    # built on first use, not at import: importing the CLI stays cheap, and
    # every later main call in the process reuses this one parser
    return build_parser()


def _parse_args(argv: list[str] | None) -> argparse.Namespace:
    """`_parser().parse_args(argv)`, with the same namespace, output and
    exit status for every argv, but an argv that starts with a command name
    goes straight to that command's subparser."""
    if argv is None:
        argv = sys.argv[1:]
    parser = _parser()
    command = parser.commands.get(argv[0]) if argv else None
    if command is None:
        return parser.parse_args(argv)
    args, extras = command.parse_known_args(argv[1:])
    if extras:
        parser.error("unrecognized arguments: " + " ".join(extras))
    args.command = argv[0]
    return args


def _cmd_handshake(args: argparse.Namespace) -> tuple[dict, str]:
    world = two_party_world(args.seed, Variant(args.variant), args.q)
    h_init, h_resp = run_honest_exchange(world, "alice", "bob")
    doc = {
        "command": "handshake",
        "seed": args.seed,
        "group": world.params.to_json(),
        "digest": DIGEST,
    }
    doc.update(transcript_record(world.session(h_init), world.session(h_resp)))
    match = doc["initiator_key_digest"] == doc["responder_key_digest"]
    return doc, f"handshake ({args.variant}): keys match: {match}"


def _cmd_uks(args: argparse.Namespace) -> tuple[dict, str]:
    report = run_uks(Variant(args.variant), args.seed, args.q)
    return report.to_json(), f"uks ({args.variant}): success: {report.success}"


def _cmd_mkbreak(args: argparse.Namespace) -> tuple[dict, str]:
    report = run_master_key_break(Variant(args.variant), args.seed, args.q)
    return report.to_json(), f"mkbreak ({args.variant}): success: {report.success}"


def _cmd_kci(args: argparse.Namespace) -> tuple[dict, str]:
    cells = []
    successes = 0
    for x_choice in XChoice:
        for corrupt_b in (False, True):
            report = run_kci_attempt(args.seed, x_choice, corrupt_b, args.q)
            successes += report.success
            cells.append(
                {
                    "x_choice": x_choice.value,
                    "corrupt_b": corrupt_b,
                    "report": report.to_json(),
                }
            )
    doc = {"command": "kci", "seed": args.seed, "q": str(args.q), "cells": cells}
    return doc, f"kci: {successes} of {len(cells)} cells succeeded"


def _cmd_dlog_adv(args: argparse.Namespace) -> tuple[dict, str]:
    report = run_dlog_extract_adversary(Variant(args.variant), args.seed, args.q)
    return report, f"dlog-adv ({args.variant}): verdict: {report['verdict']}"


def _cmd_eck_batch(args: argparse.Namespace) -> tuple[dict, str]:
    counts = {"win": 0, "lose": 0, "invalid": 0}
    variant = Variant(args.variant)
    for i in range(args.trials):
        report = run_random_guess_adversary(variant, args.seed + i, args.q)
        counts[report["verdict"]] += 1
    doc = {
        "command": "eck-batch",
        "adversary": "random-guess",
        "variant": args.variant,
        "seed": args.seed,
        "q": str(args.q),
        "trials": args.trials,
        "wins": counts["win"],
        "losses": counts["lose"],
        "invalid": counts["invalid"],
        "win_rate": counts["win"] / args.trials,
    }
    return doc, f"eck-batch ({args.variant}): win rate {doc['win_rate']:.4f} over {args.trials} trials"


def _cmd_freshness_table(args: argparse.Namespace) -> tuple[dict, str]:
    rows = freshness_truth_table(args.seed, Variant(args.variant), args.q)
    doc = {
        "command": "freshness-table",
        "variant": args.variant,
        "seed": args.seed,
        "q": str(args.q),
        "rows": _TruthTableRows(rows),
    }
    fresh = sum(1 for row in rows if row["fresh"])
    return doc, f"freshness-table: {len(rows)} rows, {fresh} fresh"


# command name -> (handler, help); the order is the order of `--help`
_COMMANDS = {
    "handshake": (_cmd_handshake, "honest two-party run"),
    "uks": (_cmd_uks, "identity-misbinding interception"),
    "mkbreak": (_cmd_mkbreak, "passive break with the master key"),
    "kci": (_cmd_kci, "key-compromise impersonation attempt matrix"),
    "dlog-adv": (_cmd_dlog_adv, "discrete-log distinguishing adversary"),
    "eck-batch": (_cmd_eck_batch, "random-guess calibration batch"),
    "freshness-table": (_cmd_freshness_table, "exhaustive freshness truth table"),
}


_INFINITY = float("inf")


class _TruthTableRows:
    """The rows of `freshness_truth_table` as a document value: `_render`
    hands them to `render`, which writes what `_render` writes for the list
    of row dicts through one positional row template."""

    __slots__ = ("rows",)

    def __init__(self, rows: list[dict]) -> None:
        self.rows = rows

    def render(self, indent: str) -> str:
        """The rows at `indent`, as `_render(self.rows, indent)` gives them.
        There is at least one row, and each has the keys of `keys` in that
        order, the order freshness_truth_table writes them in: two bools, a
        list of str and a str or None."""
        keys = ("matching_session_exists", "queries", "fresh", "violated_clause")
        row_indent = indent + "  "
        key_indent = row_indent + "  "
        query_indent = key_indent + "  "
        template = (
            row_indent + "{\n"
            + ",\n".join(key_indent + _escape(key) + ": %s" for key in keys)
            + "\n" + row_indent + "}"
        )
        opening, separator = "[\n" + query_indent, ",\n" + query_indent
        closing = "\n" + key_indent + "]"
        rendered = []
        for entry in self.rows:
            queries, clause = entry["queries"], entry["violated_clause"]
            rendered.append(
                template
                % (
                    "true" if entry["matching_session_exists"] else "false",
                    opening + separator.join(map(_escape, queries)) + closing if queries else "[]",
                    "true" if entry["fresh"] else "false",
                    "null" if clause is None else _escape(clause),
                )
            )
        return "[\n" + ",\n".join(rendered) + "\n" + indent + "]"


def _render(value: object, indent: str) -> str:
    """`json.dumps(value, indent=2)` for a value nested `indent` deep: the
    same bytes, the same NaN and Infinity spellings, and the same TypeError
    for a type json cannot encode. Object keys must be str."""
    if isinstance(value, str):
        return _escape(value)
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return int.__repr__(value)
    if isinstance(value, float):
        if value != value:
            return "NaN"
        if value == _INFINITY:
            return "Infinity"
        if value == -_INFINITY:
            return "-Infinity"
        return float.__repr__(value)
    inner = indent + "  "
    if isinstance(value, dict):
        if not value:
            return "{}"
        items = [_escape(key) + ": " + _render(item, inner) for key, item in value.items()]
        opening, closing = "{", "}"
    elif isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        items = [_render(item, inner) for item in value]
        opening, closing = "[", "]"
    elif type(value) is _TruthTableRows:
        return value.render(indent)
    else:
        raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")
    return opening + "\n" + inner + (",\n" + inner).join(items) + "\n" + indent + closing


def main(argv: list[str] | None = None) -> int:
    args = _parse_args(argv)
    handler, _ = _COMMANDS[args.command]
    doc, summary = handler(args)
    text = _render(doc, "") + "\n"
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            print(f"error: cannot write {args.out}: {exc}", file=sys.stderr)
            return 1
    else:
        sys.stdout.write(text)
    print(summary, file=sys.stderr)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
