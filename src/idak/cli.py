"""Command-line front end.

Every command emits exactly one JSON document to stdout (or --out) and a
one-line human summary to stderr. Output is a pure function of the flags:
rerunning a command with identical flags reproduces identical bytes.
Exit status is 0 whenever the run completes; whether an attack succeeded
is data in the JSON, not an exit code.

Documents are rendered exactly as `json.dumps(doc, indent=2)` would render
them, byte for byte, by `_render`. With `indent` set, json on Python 3.11
does not use its C encoder: it walks the document through a chain of
Python generators. `_render` walks the containers with one recursive
writer that appends to a single list of parts. A leaf of an exact JSON
type (str, bool, None, int, float) is written from its type by one table
lookup, through json's C escaper or `int.__repr__`, with no call of the
writer; any other value goes through json's isinstance tests in json's
order, so a subclass is written as json writes it. The 80 rows of the
freshness truth table, most of its document, skip the walk: each row is
its plan row's head, built once per indent on the first render, and the
text of its verdict, one of the six that `is_fresh` returns.

`main` routes on the command word, and the namespace, output and exit
status are those of the whole parser for every argv. An argv that does
not start with a command name (empty, `-h`, an unknown word, a leading
`--`) goes through the whole parser. A canonical argv, a command name
and exact `--option value` pairs, is read from that command's option
table, built once with the cached parser from the subparser's own store
actions: each value goes through its option's `type` and `choices`, the
last of a repeated option wins, and the rest take the subparser's
defaults. Every other argv that starts with a command name (`-h`, an
abbreviation, `--opt=value`, a value that starts with `-`, a dangling
option, a value its `type` or `choices` refuses) is parsed by that
command's own subparser, so argparse still writes every error message
and all help text. A table read costs about a fifth of the subparser's
pass (CPython 3.11); the whole parser's top-level pass, which the routed
argvs skip, only matches the command word and copies the namespace back.
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
    TRUTH_TABLE_PLAN,
    VERDICTS,
    run_honest_exchange,
    run_random_guess_adversary,
    truth_table_verdicts,
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
    # every later main call in the process reuses this one parser and the
    # option table of each of its commands
    parser = build_parser()
    parser.tables = {name: _option_table(command) for name, command in parser.commands.items()}
    return parser


def _option_table(command: argparse.ArgumentParser) -> tuple[dict, dict]:
    """What `_read_table` needs of a command's subparser: the namespace an
    empty argv parses to, as a dict, and each store action that takes one
    value, by its exact option string."""
    options = {
        option: action
        for action in command._actions
        if type(action) is argparse._StoreAction and action.nargs is None
        for option in action.option_strings
    }
    return vars(command.parse_args([])), options


def _read_table(table: tuple[dict, dict], words: list[str]) -> dict | None:
    """The namespace, as a dict, of a command's words when they are exact
    `--option value` pairs whose values pass the option's own type and
    choices; the last of a repeated option wins. None for any other words,
    which the subparser then parses: a value that starts with "-" might
    be read as an option, and a value it refuses gets argparse's error."""
    defaults, options = table
    if len(words) % 2:
        return None
    values = dict(defaults)
    for i in range(0, len(words), 2):
        option, text = words[i], words[i + 1]
        if type(option) is not str or type(text) is not str:
            return None
        action = options.get(option)
        if action is None or text.startswith("-"):
            return None
        try:
            value = text if action.type is None else action.type(text)
        except (argparse.ArgumentTypeError, TypeError, ValueError):
            return None
        if action.choices is not None and value not in action.choices:
            return None
        values[action.dest] = value
    return values


def _parse_args(argv: list[str] | None) -> argparse.Namespace:
    """`_parser().parse_args(argv)`, with the same namespace, output and
    exit status for every argv, but an argv that starts with a command name
    is read from that command's option table or, failing that, parsed by
    that command's subparser."""
    if argv is None:
        argv = sys.argv[1:]
    parser = _parser()
    command = parser.commands.get(argv[0]) if argv else None
    if command is None:
        return parser.parse_args(argv)
    values = _read_table(parser.tables[argv[0]], argv[1:])
    if values is not None:
        args = argparse.Namespace()
        vars(args).update(values, command=argv[0])
        return args
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
    verdicts = truth_table_verdicts(args.seed, Variant(args.variant), args.q)
    doc = {
        "command": "freshness-table",
        "variant": args.variant,
        "seed": args.seed,
        "q": str(args.q),
        "rows": _TruthTableRows(verdicts),
    }
    fresh = sum(1 for verdict in verdicts if verdict.fresh)
    return doc, f"freshness-table: {len(verdicts)} rows, {fresh} fresh"


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


def _float(value: float) -> str:
    """A float as json writes it, NaN and the infinities included."""
    if value != value:
        return "NaN"
    if value == _INFINITY:
        return "Infinity"
    if value == -_INFINITY:
        return "-Infinity"
    return float.__repr__(value)


# exact type -> its JSON text, for the leaves written without a walk
_LEAVES = {
    str: _escape,
    bool: {True: "true", False: "false"}.__getitem__,
    type(None): {None: "null"}.__getitem__,
    int: int.__repr__,
    float: _float,
}
# the types json tests with isinstance, in its order: a value of any other
# type is written as the first of these it is an instance of
_JSON_TYPES = (str, int, float, list, tuple, dict)


class _TruthTableRows(tuple):
    """The freshness truth table's verdicts, in TRUTH_TABLE_PLAN order, as a
    document value: `_write` writes the row dicts freshness_truth_table gives."""


@functools.cache
def _row_texts(indent: str) -> tuple[tuple[str, ...], dict]:
    """The truth-table rows in a list at `indent`, in two parts: per plan
    row, its text up to the value of "fresh", and per verdict, by its
    clause, the text that ends a row. Built on the first render."""
    row, key = indent + "  ", indent + "    "
    heads = tuple(
        f'{row}{{\n{key}"matching_session_exists": {_render(matched, key)},\n'
        f'{key}"queries": {_render(list(queries), key)},\n{key}"fresh": '
        for matched, queries in TRUTH_TABLE_PLAN
    )
    tails = {
        v.violated_clause: f"{_render(v.fresh, key)},\n"
        f'{key}"violated_clause": {_render(v.violated_clause, key)}\n{row}}}'
        for v in VERDICTS
    }
    return heads, tails


def _render(value: object, indent: str) -> str:
    """`json.dumps(value, indent=2)` for a value nested `indent` deep: the
    same bytes, the same NaN and Infinity spellings, and the same TypeError
    for a type json cannot encode. Object keys must be str."""
    parts: list[str] = []
    _write(value, indent, parts, parts.append)
    return "".join(parts)


def _write(value: object, indent: str, parts: list[str], add) -> None:
    """Append `value`'s text, nested `indent` deep, to `parts`, whose
    append is `add`. A leaf or container of an exact JSON type is written
    from its type alone; any other value as the first of json's types it
    is an instance of. Each item separator is appended after its item,
    and a container's closing line replaces the last one."""
    kind = type(value)
    leaf = _LEAVES.get(kind)
    if leaf is None and kind is not dict and kind is not list:
        if kind is _TruthTableRows:
            heads, tails = _row_texts(indent)
            rows = [head + tails[v.violated_clause] for head, v in zip(heads, value)]
            add("[\n" + ",\n".join(rows) + "\n" + indent + "]")
            return
        kind = next((base for base in _JSON_TYPES if isinstance(value, base)), None)
        if kind is None:
            raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")
        leaf = _LEAVES.get(kind)
    if leaf is not None:
        add(leaf(value))
        return
    if not value:
        add("{}" if kind is dict else "[]")
        return
    inner = indent + "  "
    separator = ",\n" + inner
    if kind is dict:
        add("{\n" + inner)
        for key, item in value.items():
            add(_escape(key) + ": ")
            leaf = _LEAVES.get(type(item))
            if leaf is None:
                _write(item, inner, parts, add)
            else:
                add(leaf(item))
            add(separator)
        parts[-1] = "\n" + indent + "}"
    else:
        add("[\n" + inner)
        for item in value:
            leaf = _LEAVES.get(type(item))
            if leaf is None:
                _write(item, inner, parts, add)
            else:
                add(leaf(item))
            add(separator)
        parts[-1] = "\n" + indent + "]"


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
