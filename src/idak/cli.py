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

Each command's options are declared once, in `_COMMANDS`: flag, type,
choices, default and help, in `--help` order. `build_parser` builds the
argparse parser from that declaration, and so do the per-command tables
`main` reads with no parser at all. An argv of a command name and exact
`--option value` pairs is read from its command's table: each value goes
through its option's type and choices, the last of a repeated option
wins, and the rest take their defaults. Any other argv (help, an unknown
word, an abbreviation, `--opt=value`, a value that starts with `-`, a
dangling option, a value its type or choices refuses) is parsed by the
whole parser, built on first use and kept, so argparse writes every
error and all help text. Either way the namespace is the one the whole
parser gives.
"""

from __future__ import annotations

import argparse
import functools
import sys
from json.encoder import encode_basestring_ascii as _escape

from .attacks import (
    XChoice,
    run_dlog_extract_adversary,
    run_kci_cells,
    run_master_key_break,
    run_uks,
)
from .ecksim import (
    TRUTH_TABLE_PLAN,
    VERDICTS,
    play_random_guess,
    run_honest_exchange,
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


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="idak",
        description="identity-based key agreement toy: handshakes, attacks, and the distinguishing game",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_text, options) in _COMMANDS.items():
        command = sub.add_parser(name, help=help_text)
        for flag, kind, choices, default, option_help in options:
            command.add_argument(flag, type=kind, choices=choices, default=default, help=option_help)
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    # built on first use, not at import, and only for an argv the tables
    # cannot settle; later calls in the process reuse it
    return build_parser()


def _read_table(argv: list[str]) -> dict | None:
    """The namespace, as a dict, of a command name and exact `--option
    value` pairs whose values pass their type and choices. None for any
    other argv: a value that starts with "-" might be an option, and a
    value refused needs argparse's error."""
    table = _TABLES.get(argv[0]) if argv else None
    if table is None or not len(argv) % 2:
        return None
    options, defaults = table
    values = {"command": argv[0], **defaults}
    for i in range(1, len(argv), 2):
        flag, text = argv[i], argv[i + 1]
        if type(flag) is not str or type(text) is not str or text.startswith("-"):
            return None
        option = options.get(flag)
        if option is None:
            return None
        dest, kind, choices = option
        try:
            value = text if kind is None else kind(text)
        except (argparse.ArgumentTypeError, TypeError, ValueError):
            return None
        if choices is not None and value not in choices:
            return None
        values[dest] = value
    return values


def _parse_args(argv: list[str] | None) -> argparse.Namespace:
    """`_parser().parse_args(argv)`, with the same namespace, output and
    exit status for every argv, but a canonical argv is read from its
    command's table without building or running the parser."""
    if argv is None:
        argv = sys.argv[1:]
    values = _read_table(argv)
    if values is None:
        return _parser().parse_args(argv)
    args = argparse.Namespace()
    vars(args).update(values)  # Namespace(**values) sets them one by one
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
        for corrupt_b, report in zip((False, True), run_kci_cells(args.seed, x_choice, args.q)):
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
        counts[play_random_guess(two_party_world(args.seed + i, variant, args.q)).value] += 1
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


# an option: (flag, type, choices, default, help), with no type for a plain
# string; its dest is the flag without its leading "--"
_VARIANT = ("--variant", None, [v.value for v in Variant], Variant.HARDENED.value,
            "protocol variant (default: hardened)")
_SEED = ("--seed", _seed, None, 0, "RNG seed (default: 0)")
_Q = ("--q", _prime_order, None, DEFAULT_Q, f"group order, a prime (default: {DEFAULT_Q})")
_TRIALS = ("--trials", _trials, None, 1000, "number of seeded trials (default: 1000)")
_OUT = ("--out", None, None, None, "write the JSON document here instead of stdout")
_COMMON = (_VARIANT, _SEED, _Q, _OUT)

# command name -> (handler, help, options); both orders are the orders of `--help`
_COMMANDS = {
    "handshake": (_cmd_handshake, "honest two-party run", _COMMON),
    "uks": (_cmd_uks, "identity-misbinding interception", _COMMON),
    "mkbreak": (_cmd_mkbreak, "passive break with the master key", _COMMON),
    "kci": (_cmd_kci, "key-compromise impersonation attempt matrix", _COMMON),
    "dlog-adv": (_cmd_dlog_adv, "discrete-log distinguishing adversary", _COMMON),
    "eck-batch": (_cmd_eck_batch, "random-guess calibration batch", (_VARIANT, _SEED, _Q, _TRIALS, _OUT)),
    "freshness-table": (_cmd_freshness_table, "exhaustive freshness truth table", _COMMON),
}
# command name -> (flag -> (dest, type, choices), dest -> default), for `_read_table`
_TABLES = {
    name: (
        {flag: (flag[2:], kind, choices) for flag, kind, choices, _, _ in options},
        {flag[2:]: default for flag, _, _, default, _ in options},
    )
    for name, (_, _, options) in _COMMANDS.items()
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
    handler, _, _ = _COMMANDS[args.command]
    doc, summary = handler(args)
    text = _render(doc, "") + "\n"
    if args.out is not None:
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
