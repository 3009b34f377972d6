"""Command-line front end: JSON documents, flags, exit codes."""

import argparse
import collections
import contextlib
import enum
import hashlib
import io
import json
import math
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from idak import DEFAULT_Q, Variant, cli, freshness_truth_table
from idak.cli import main

from conftest import atoms_by_point, reference_freshness

COMMANDS = [
    ["handshake"],
    ["uks", "--variant", "original"],
    ["mkbreak"],
    ["kci", "--seed", "5"],
    ["dlog-adv"],
    ["eck-batch", "--trials", "25"],
    ["freshness-table"],
]


def run_cli(*args):
    result = subprocess.run(
        [sys.executable, "-m", "idak", *args], capture_output=True, text=True
    )
    assert result.returncode == 0, result.stderr
    return result


def run_main(capsys, *args):
    """One in-process main call: (exit status, stdout)."""
    status = main(list(args))
    return status, capsys.readouterr().out


def main_json(capsys, *args):
    status, out = run_main(capsys, *args)
    assert status == 0
    return json.loads(out)


@pytest.mark.parametrize("argv", COMMANDS, ids=lambda a: a[0])
def test_commands_emit_json_and_summary(argv):
    result = run_cli(*argv)
    doc = json.loads(result.stdout)
    assert isinstance(doc, dict)
    assert result.stderr.strip()  # human summary goes to stderr


def test_handshake_document(capsys):
    doc = main_json(capsys, "handshake", "--seed", "3")
    assert doc["group"] == {"q": "1000003", "h": "1", "width": "8"}
    assert doc["digest"] == "sha256"
    assert doc["initiator_accepted"] and doc["responder_accepted"]
    assert doc["initiator_key_digest"] == doc["responder_key_digest"]
    assert len(bytes.fromhex(doc["r_initiator"])) == 8


def test_uks_document_schema(capsys):
    doc = main_json(capsys, "uks", "--variant", "original", "--seed", "7")
    assert doc["attack"] == "uks" and doc["variant"] == "original" and doc["seed"] == 7
    assert [p["id"] for p in doc["parties"]] == ["alice", "bob"]
    assert doc["parties"][1]["believed_peer"] == "eve"


def test_kci_document_runs_full_matrix(capsys):
    doc = main_json(capsys, "kci")
    cells = {(c["x_choice"], c["corrupt_b"]): c["report"]["success"] for c in doc["cells"]}
    assert len(cells) == 4
    assert cells[("identity_point_of_b", True)] is True
    assert sum(cells.values()) == 1


def test_freshness_table_row_count(capsys):
    doc = main_json(capsys, "freshness-table")
    assert len(doc["rows"]) == 80


@pytest.mark.parametrize("variant", ["original", "hardened"])
@pytest.mark.parametrize("q", [5, 7, 11, 13, 101, DEFAULT_Q])
def test_freshness_table_bytes_at_every_order(q, variant, capsys):
    """The table's row template writes what json.dumps writes for the same
    document, at the orders where alice and bob share an identity point
    (5, 7, 13) and the clause 2a/2b/3a/3b rows change, and where they do
    not; every row is the reference verdict."""
    seed = 1
    status, out = run_main(
        capsys, "freshness-table", "--variant", variant, "--seed", str(seed), "--q", str(q)
    )
    assert status == 0
    rows = freshness_truth_table(seed, Variant(variant), q)
    doc = {"command": "freshness-table", "variant": variant, "seed": seed, "q": str(q), "rows": rows}
    assert out == json.dumps(doc, indent=2) + "\n"
    for row in rows:
        fresh, clause = reference_freshness(
            row["matching_session_exists"], atoms_by_point(row["queries"], q)
        )
        assert (row["fresh"], row["violated_clause"]) == (fresh, clause), row


def test_eck_batch_counts_add_up(capsys):
    doc = main_json(capsys, "eck-batch", "--trials", "50")
    assert doc["wins"] + doc["losses"] + doc["invalid"] == 50
    assert doc["adversary"] == "random-guess"


def test_out_flag_writes_file(tmp_path, capsys):
    target = tmp_path / "report.json"
    status, out = run_main(capsys, "uks", "--seed", "2", "--out", str(target))
    assert status == 0
    assert out == ""
    assert json.loads(target.read_text())["seed"] == 2


def test_empty_out_path_is_a_write_error(capsys):
    """`--out ""` names a file that cannot be written; it does not mean stdout."""
    assert main(["uks", "--seed", "2", "--out", ""]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: cannot write : ")


def test_small_q_flag(capsys):
    doc = main_json(capsys, "handshake", "--q", "101", "--seed", "1")
    assert doc["group"]["q"] == "101"
    assert doc["initiator_key_digest"] == doc["responder_key_digest"]


@pytest.mark.parametrize(
    "argv",
    [
        ["handshake", "--q", "1000004"],  # composite
        ["handshake", "--q", "3"],
        ["handshake", "--q", "18446744073709551629"],  # 2^64 + 13: prime, too wide
        ["handshake", "--seed", "-1"],
        ["handshake", "--variant", "fancy"],
        ["eck-batch", "--trials", "0"],
        ["no-such-command"],
        [],
    ],
)
def test_flag_errors_exit_2(argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2


def test_attack_failure_is_data_not_exit_code(capsys):
    status, out = run_main(capsys, "uks", "--variant", "hardened")
    assert json.loads(out)["success"] is False
    assert status == 0


# sha256 of stdout, recorded before the attack scripts moved onto World;
# a refactor that changes any output byte fails here
FROZEN_DIGESTS = {
    ("handshake", "--seed", "3", "original"): "a80a58f601ad855dc4a51d8028b41f4a1f2905c797e410a124f20575b6173a87",
    ("handshake", "--seed", "3", "hardened"): "9b8658635a65942c258d621fe153b63e6522852fc14aa606e340244e6630e3d5",
    ("uks", "--seed", "7", "original"): "8d83f8463493bdfa0fab21bd7989f6f1481542c07bea6fc1237815d45fce5056",
    ("uks", "--seed", "7", "hardened"): "f4c61cddcdc2505cab8bf84a0678b1e0509e112b5ef6ccfab38f3011c206b73a",
    ("mkbreak", "--seed", "11", "original"): "13e263d20c1c60331cd5e773991b3d4bdcef240b3ce1f147ce328b8416c452a4",
    ("mkbreak", "--seed", "11", "hardened"): "25036e38445ff426caf0490dd3b15d2a844ececd34dd99f75cbe6fe6b5876794",
    ("kci", "--seed", "5", "original"): "97f63fc4967bab9744c609de18c081bb2a9de937c7830457ff5fa1bbeb13f9a0",
    ("kci", "--seed", "5", "hardened"): "97f63fc4967bab9744c609de18c081bb2a9de937c7830457ff5fa1bbeb13f9a0",
    ("dlog-adv", "--seed", "2", "original"): "dbba5c6800a6f9d5dcfa3d40825429c2218b1f49c65f00b880e09b0951845532",
    ("dlog-adv", "--seed", "2", "hardened"): "e491f93cb2e665230a51f20f09c73a7bef92ece8e6e325944f6a46171b270454",
    ("eck-batch", "--seed", "0", "--trials", "25", "original"): "8363acb3bd92631d2dfd90fc06a57d19aa1e0ba9c1ffad1dcd3d7c56687ce320",
    ("eck-batch", "--seed", "0", "--trials", "25", "hardened"): "5cd7156f98359f8a840259522686e9bf5873a1f5b9f21dd82bc5c31d44a589f2",
    ("freshness-table", "--seed", "1", "original"): "dd764fcc583c4e4f58a83a660dc666aee0cf18472b55595e0eecd014913068ba",
    ("freshness-table", "--seed", "1", "hardened"): "ce4d3792db51a1a23a76891903fa5780a5e88a11e7d95ad27a1a253067560219",
}


def frozen_argv(key):
    *argv, variant = key
    return [*argv, "--variant", variant]


def stdout_digest(capsys):
    return hashlib.sha256(capsys.readouterr().out.encode("utf-8")).hexdigest()


@pytest.mark.parametrize("key", FROZEN_DIGESTS, ids=lambda k: "-".join(k[:1] + k[-1:]))
def test_stdout_bytes_are_frozen(key, capsys):
    assert main(frozen_argv(key)) == 0
    assert stdout_digest(capsys) == FROZEN_DIGESTS[key]


# argvs the command tables do not settle, so the whole parser reads them
_NON_CANONICAL = (["handshake", "--seed=3"], ["handshake", "-h"], ["handshake", "stray"])


def _refuse(name):
    def refused(*args, **kwargs):
        raise AssertionError(f"{name} ran")

    return refused


def _prints_every_frozen_digest(capsys):
    for key, digest in FROZEN_DIGESTS.items():
        assert main(frozen_argv(key)) == 0
        assert stdout_digest(capsys) == digest


def test_frozen_argvs_are_read_from_the_option_table(monkeypatch, capsys):
    """Every frozen argv, a command and exact `--option value` pairs,
    prints its frozen bytes from its command's table, with `build_parser`
    refused and no parser cached."""
    monkeypatch.setattr(cli, "build_parser", _refuse("build_parser"))
    cli._parser.cache_clear()
    _prints_every_frozen_digest(capsys)


def test_command_argvs_skip_the_top_level_pass(monkeypatch, capsys):
    """Every frozen argv prints its frozen bytes with no argparse parser
    built and no pass of one run, even with the whole parser cached."""
    cli._parser()
    monkeypatch.setattr(argparse.ArgumentParser, "__init__", _refuse("argparse"))
    monkeypatch.setattr(argparse.ArgumentParser, "parse_known_args", _refuse("argparse"))
    _prints_every_frozen_digest(capsys)


def test_cli_never_runs_the_pure_python_encoder(monkeypatch, capsys):
    """Every frozen argv prints its frozen bytes without json's generator
    chain, the encoder json.dumps falls back to whenever indent is set."""
    monkeypatch.setattr(json.encoder, "_make_iterencode", _refuse("json's pure-Python encoder"))
    _prints_every_frozen_digest(capsys)


def test_parser_is_built_once(monkeypatch, capsys):
    """The argvs the tables cannot settle go to `build_parser`, which runs
    once across all of them, with no parser cached before: `--seed=3`
    builds it and prints the frozen bytes of `--seed 3`, `-h` exits 0, and
    a stray word exits 2 with argparse's error."""
    real = cli.build_parser
    builds = []
    monkeypatch.setattr(cli, "build_parser", lambda: builds.append(1) or real())
    cli._parser.cache_clear()
    assert main(_NON_CANONICAL[0]) == 0
    assert builds == [1]
    assert stdout_digest(capsys) == FROZEN_DIGESTS[("handshake", "--seed", "3", "hardened")]
    for argv, code in zip(_NON_CANONICAL[1:], (0, 2)):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == code
    assert capsys.readouterr().err.endswith("idak: error: unrecognized arguments: stray\n")
    assert builds == [1]


def test_reused_parser_keeps_no_state(tmp_path, capsys):
    """Neither the flags of an earlier command nor a flag error leak into
    the next: a default handshake afterwards prints its frozen bytes."""
    target = tmp_path / "batch.json"
    argv = ["eck-batch", "--trials", "3", "--seed", "9", "--q", "101", "--variant", "original"]
    assert main([*argv, "--out", str(target)]) == 0
    with pytest.raises(SystemExit) as exc:
        main(["eck-batch", "--trials", "0"])
    assert exc.value.code == 2
    capsys.readouterr()
    assert main(["handshake", "--seed", "3"]) == 0
    assert stdout_digest(capsys) == FROZEN_DIGESTS[("handshake", "--seed", "3", "hardened")]


def test_main_without_argv_routes_sys_argv(monkeypatch, capsys):
    monkeypatch.setattr(cli._parser(), "parse_known_args", _refuse("the top-level parser's pass"))
    monkeypatch.setattr(sys, "argv", ["idak", "handshake", "--seed", "3", "--variant", "original"])
    assert main() == 0
    assert stdout_digest(capsys) == FROZEN_DIGESTS[("handshake", "--seed", "3", "original")]


# every command name and an unknown word, help, each option in full,
# abbreviated and joined to a value, valid and invalid values, `--` and `-`
_NAMES = list(cli._COMMANDS)
_TOKENS = [
    *_NAMES,
    "no-such-command",
    "-h",
    "--help",
    *("--variant", "--seed", "--q", "--trials", "--out"),
    *("--var", "--se", "--tr", "--o"),
    *("--variant=original", "--seed=4", "--q=101", "--trials=3", "--out=/tmp/x"),
    *("3", "-1", "x", "original", "fancy", "101", "1000004", "0", "/tmp/x"),
    "--",
    "-",
]
# canonical argvs, a command and exact `--option value` pairs, are read from
# the option table; these values pass or fail each option's type and
# choices, and some start with "-", which only the subparser may judge
_OPTIONS = ("--variant", "--seed", "--q", "--trials", "--out")
_VALUES = (
    *("original", "hardened", "fancy", "Original"),
    *("0", "3", "18446744073709551615", "18446744073709551616", "x", "", " 3", "3.0"),
    *("101", "5", "1000004"),
    "/tmp/x",
    *("-1", "-", "--", "-h", "--seed"),
)
_canonical = st.tuples(
    st.sampled_from(_NAMES),
    st.lists(st.tuples(st.sampled_from(_OPTIONS), st.sampled_from(_VALUES)), max_size=4),
).map(lambda drawn: [drawn[0], *(token for pair in drawn[1] for token in pair)])
_argvs = st.one_of(
    st.lists(st.sampled_from(_TOKENS), max_size=7),
    st.tuples(st.sampled_from(_NAMES), st.lists(st.sampled_from(_TOKENS), max_size=6)).map(
        lambda drawn: [drawn[0], *drawn[1]]
    ),
    _canonical,
    _canonical,
)


def _parse_outcome(parse, argv):
    """`vars()` of the namespace, or the exit code; with what was printed."""
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            result = vars(parse(list(argv)))
    except SystemExit as exc:
        result = ("exit", exc.code)
    return result, out.getvalue(), err.getvalue()


@settings(max_examples=240, deadline=None)
@given(_argvs)
def test_routed_parse_matches_the_whole_parser(argv):
    """The routed parse gives what a freshly built parser's `parse_args`
    gives: the same namespace, or the same exit code, stdout and stderr."""
    whole = _parse_outcome(lambda a: cli.build_parser().parse_args(a), argv)
    assert _parse_outcome(cli._parse_args, argv) == whole


# every leaf json.dumps takes, at its edges: ints past 64 bits, -0.0, 1e22,
# NaN and the infinities, and non-ASCII, control and lone-surrogate characters
_leaves = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.integers(min_value=2**64, max_value=2**200),
    st.integers(min_value=-(2**200), max_value=-(2**64)),
    st.floats(),
    st.sampled_from((-0.0, 1e22, 1e-7, math.nan, math.inf, -math.inf)),
    st.text(max_size=8),
    st.text(alphabet="\x00\x1f\x7f\"\\/\n\té\u2028\ud800\U0001f600", max_size=6),
)
_trees = st.recursive(
    _leaves,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.dictionaries(st.text(max_size=6), children, max_size=4),
    ),
    max_leaves=10,
)


@settings(max_examples=100, deadline=None)
@given(_trees)
def test_render_is_json_dumps_with_indent_2(value):
    """Trees of the exact JSON types, dicts with str keys and lists, empty
    ones included, each leaf type at its edges."""
    assert cli._render(value, "") == json.dumps(value, indent=2)


class _Colour(enum.Enum):
    RED = "red"


class _Text(str):
    pass


class _Level(enum.IntEnum):
    HIGH = 2**70


@pytest.mark.parametrize(
    "value",
    [{1, 2}, b"bytes", _Colour.RED, _Text("a"), _Level.HIGH, (1, "a"), collections.OrderedDict(a=1)],
    ids=["set", "bytes", "enum", "str-subclass", "int-enum", "tuple", "ordered-dict"],
)
def test_render_rejects_what_json_rejects(value):
    """What json refuses, `_render` refuses. It also refuses what json
    writes as a base type but no command's document holds: a subclass of
    a JSON type and a tuple."""
    json_writes = isinstance(value, (str, int, tuple, dict))
    for doc in (value, {"rows": [1, value]}):
        if json_writes:
            json.dumps(doc, indent=2)
        else:
            with pytest.raises(TypeError):
                json.dumps(doc, indent=2)
        with pytest.raises(TypeError):
            cli._render(doc, "")
