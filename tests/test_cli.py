import hashlib
import importlib
import io
import itertools
import json
import math
import os
import re
import select
import shlex
import subprocess
import sys
import time
from pathlib import Path

import pytest

from hecke import bijection, cli, guards, hecke_index, maps, prices, records
from hecke.cli import FLAGS, JOBS, build_parser, main
from hecke.gf import Field
from hecke.guards import DEGREE_GUARD, GuardExceeded
from hecke.hecke_index import (
    MembershipError,
    enumerate_m_mu,
    monomial_to_obj,
    v_of_matrix,
)
from hecke.records import _encode, polymatrix_to_obj
from test_shapes import compositions_of


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def json_lines(out):
    return [json.loads(line) for line in out.strip().splitlines()]


# -- enum ---------------------------------------------------------------------


def test_enum_irreducibles(capsys):
    code, out, _ = run_cli(
        capsys, "enum", "irreducibles", "--p", "2", "--k", "1", "--max-deg", "2"
    )
    assert code == 0
    records = json_lines(out)
    assert records[:-1] == [{"poly": "1+1*X^1"}, {"poly": "1+1*X^1+1*X^2"}]
    assert records[-1] == {"count": 2}


def test_enum_m_mu(capsys):
    code, out, _ = run_cli(capsys, "enum", "m_mu", "--p", "2", "--mu", "1,1")
    assert code == 0
    records = json_lines(out)
    assert records[-1] == {"count": 2}
    assert all(rec["mu"] == [1, 1] for rec in records[:-1])


def test_enum_n_mu_rank_one(capsys):
    code, out, _ = run_cli(capsys, "enum", "n_mu", "--p", "3", "--mu", "1")
    assert code == 0
    records = json_lines(out)
    assert records[-1] == {"count": 2}
    assert records[0] == {"perm": [1], "entries": [1]}
    assert records[1] == {"perm": [1], "entries": [2]}


def test_enum_tsv_footer(capsys):
    code, out, _ = run_cli(
        capsys,
        "enum",
        "irreducibles",
        "--p",
        "2",
        "--max-deg",
        "2",
        "--format",
        "tsv",
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "poly"
    assert lines[-1] == "# count=2"


FLUSH = None  # a flush call, among the write calls a RecordingHandle keeps


class RecordingHandle:
    """A stdout or --output stand-in that keeps each write call, and FLUSH
    for each flush."""

    def __init__(self):
        self.calls = []

    def write(self, text):
        self.calls.append(text)
        return len(text)

    def flush(self):
        self.calls.append(FLUSH)

    def close(self):
        pass


M_MU_21 = (  # the entries of the three elements of M_(2,1) over F_2
    '[["1+1*X^1","1+1*X^1"],["1+1*X^1","1"]]',
    '[["1+1*X^2","1"],["1","1+1*X^1"]]',
    '[["1+1*X^1+1*X^2","1"],["1","1+1*X^1"]]',
)

M_MU_21_BYTES = {  # what `enum m_mu --p 2 --mu 2,1` wrote when each record was its own write
    "json": "".join(f'{{"mu":[2,1],"entries":{e}}}\n' for e in M_MU_21) + '{"count": 3}\n',
    "tsv": "mu\tentries\n" + "".join(f"[2,1]\t{e}\n" for e in M_MU_21) + "# count=3\n",
}


def enum_calls(monkeypatch, argv: list, to_file: bool) -> list:
    """The write and flush calls `hecke enum` makes on stdout or --output."""
    handle = RecordingHandle()
    if to_file:
        monkeypatch.setattr(records, "open", lambda path, mode: handle, raising=False)
        argv = [*argv, "--output", "records"]
    else:
        monkeypatch.setattr(sys, "stdout", handle)
    assert main(argv) == 0
    return handle.calls


@pytest.mark.parametrize("to_file", [False, True], ids=["stdout", "output"])
@pytest.mark.parametrize("fmt", ["json", "tsv"])
def test_enum_writes_the_first_record_alone_then_blocks(monkeypatch, fmt, to_file):
    """The writer contract: the first record (under the TSV header) is one
    write, flushed at once; every later write is flushed and holds whole
    lines, at most one line past BLOCK characters, and each but the last
    reaches BLOCK; and the writes join to the bytes that one write per
    record made.  M_(2,1) over F_2 fits in one block; M_(2,2,1) over F_3,
    496 records, spans several at BLOCK = 2000."""
    BLOCK = 2000
    monkeypatch.setattr(records, "BLOCK", BLOCK)
    K = Field(3)
    big = witness_lines([polymatrix_to_obj(K, a) for a in enumerate_m_mu(K, (2, 2, 1))], fmt)
    streams = {
        ("--p", "2", "--mu", "2,1"): M_MU_21_BYTES[fmt],
        ("--p", "3", "--mu", "2,2,1"): "".join(line + "\n" for line in big),
    }
    for args, expected in streams.items():
        calls = enum_calls(monkeypatch, ["enum", "m_mu", *args, "--format", fmt], to_file)
        first, flush, *rest = calls
        assert first.count("\n") == (1 if fmt == "json" else 2) and first.endswith("\n")
        assert flush is FLUSH
        writes = [text for text in rest if text is not FLUSH]
        flushed = [text for text, after in zip(rest, rest[1:]) if after is FLUSH]
        assert [text for text in flushed if text is not FLUSH] == writes, args  # each one flushed
        assert all(text.endswith("\n") for text in writes), args
        heads = [text[: text.rfind("\n", 0, -1) + 1] for text in writes]  # all but the last line
        assert all(len(head) < BLOCK for head in heads), args
        assert all(len(text) >= BLOCK for text in writes[:-1]), args
        assert (len(writes) == 1) == (expected is M_MU_21_BYTES[fmt]), args  # one block or several
        assert first + "".join(writes) == expected, args


def test_enum_writes_each_record_longer_than_a_block_alone(monkeypatch):
    """A record longer than BLOCK goes out as its own write: the first six
    elements of M_(1^40) over F_2, 6820 bytes each, at BLOCK = 4096."""
    walk = records.m_mu_records
    monkeypatch.setattr(records, "m_mu_records", lambda K, mu: itertools.islice(walk(K, mu), 7))
    monkeypatch.setattr(records, "BLOCK", 4096)
    argv = ["enum", "m_mu", "--p", "2", "--mu", ",".join("1" * 40)]
    writes = [text for text in enum_calls(monkeypatch, argv, False) if text is not FLUSH]
    assert [text.count("\n") for text in writes] == [1] * 7  # six records, then the footer
    assert all(len(text) > 4096 for text in writes[:6])
    assert writes[-1] == '{"count": 6}\n'


@pytest.mark.parametrize("fmt", ["json", "tsv"])
def test_an_empty_enum_stream_writes_its_header_and_count(monkeypatch, capsys, fmt):
    """A stream with no records still writes the TSV header above its footer."""
    monkeypatch.setattr(records, "irreducible_records", lambda K, max_deg: iter([("poly",)]))
    argv = ["enum", "irreducibles", "--p", "2", "--max-deg", "1", "--format", fmt]
    code, out, _ = run_cli(capsys, *argv)
    assert (code, out) == (0, {"json": '{"count": 0}\n', "tsv": "poly\n# count=0\n"}[fmt])


def test_enum_cut_short_writes_the_records_it_made(monkeypatch, capsys):
    """A stream that fails after 300 records still writes every record it
    made, then exits 2 without a footer."""

    def driver(K, max_deg):
        yield ("poly",)
        yield from ((str(i),) for i in range(300))
        raise ValueError("cut short")

    monkeypatch.setattr(records, "irreducible_records", driver)
    handle = RecordingHandle()
    monkeypatch.setattr(sys, "stdout", handle)
    assert main(["enum", "irreducibles", "--p", "2", "--max-deg", "1"]) == 2
    assert "".join(text for text in handle.calls if text) == "".join(
        f'{{"poly":{i}}}\n' for i in range(300)
    )
    assert capsys.readouterr().err == "error: cut short\n"


def witness_lines(objs: list, fmt: str) -> list:
    """The lines the per-element writer made of whole records: one encoded
    dict per record, or TSV rows after a header of the keys, a string value
    unquoted, then the count footer."""
    lines = []
    for obj in objs:
        if fmt == "json":
            lines.append(_encode(obj))
            continue
        if not lines:
            lines.append("\t".join(obj))
        lines.append("\t".join(v if isinstance(v, str) else _encode(v) for v in obj.values()))
    lines.append(f"# count={len(objs)}" if fmt == "tsv" else json.dumps({"count": len(objs)}))
    return lines


@pytest.mark.parametrize(
    "p,k,top", [(2, 1, 5), (3, 1, 5), (2, 2, 5), (5, 1, 4)], ids=["q2", "q3", "q4", "q5"]
)
def test_walked_streams_equal_the_per_element_witness(tmp_path, capsys, p, k, top):
    """The enum m_mu / n_mu records, walked, against each element of M_mu,
    and v_of_matrix of it, as a dict record, on every composition of
    n <= top."""
    K = Field(p, k)
    path = tmp_path / "records"
    for n in range(1, top + 1):
        for mu in compositions_of(n):
            m_mu = list(enumerate_m_mu(K, mu))
            n_mu = [v_of_matrix(K, a) for a in m_mu]
            witness = {
                "m_mu": [polymatrix_to_obj(K, a) for a in m_mu],
                "n_mu": [monomial_to_obj(K, v) for v in n_mu],
            }
            for kind, objs in witness.items():
                argv = ["enum", kind, "--p", str(p), "--k", str(k), "--mu", ",".join(map(str, mu))]
                lines = {fmt: witness_lines(objs, fmt) for fmt in ("json", "tsv")}
                for fmt, expected in lines.items():
                    code, out, _ = run_cli(capsys, *argv, "--format", fmt)
                    assert (code, out.splitlines()) == (0, expected), (kind, mu)
                code, out, _ = run_cli(capsys, *argv, "--output", str(path))
                assert (code, out) == (0, "")
                assert path.read_text().splitlines() == lines["json"], (kind, mu)


MAP_INPUTS = {  # direction -> (extra arguments, input)
    "a_to_v": ((), {"mu": [2, 1], "entries": [["1+1*X^2", "1"], ["1", "1+1*X^1"]]}),
    "v_to_a": (("--mu", "2,1"), {"perm": [3, 2, 1], "entries": [1, 1, 1]}),
    "rsk": ((), {"b": [[1, 1, 0], [0, 0, 2], [0, 1, 0]]}),
    "rsk_general": ((), {"mu": [2, 1], "entries": [["1+1*X^2", "1"], ["1", "1+1*X^1"]]}),
}


@pytest.mark.parametrize("fmt", ["json", "tsv"])
def test_records_of_every_kind_equal_the_dict_witness(monkeypatch, capsys, fmt):
    from hecke.gf import enumerate_irreducibles, format_poly
    from hecke.records import pair_to_obj
    from hecke.rsk import enumerate_pairs

    K = Field(2, 2)
    enums = {
        ("irreducibles", "--max-deg", "2"): [
            {"poly": format_poly(K, f)} for f in enumerate_irreducibles(K, 2)
        ],
        ("pairs", "--mu", "2,1"): [pair_to_obj(K, pair) for pair in enumerate_pairs(K, (2, 1))],
    }
    for args, objs in enums.items():
        argv = ("enum", args[0], "--p", "2", "--k", "2", *args[1:], "--format", fmt)
        code, out, _ = run_cli(capsys, *argv)
        assert (code, out.splitlines()) == (0, witness_lines(objs, fmt)), args
    for direction, (extra, data) in MAP_INPUTS.items():
        args = build_parser().parse_args(["map", direction, "--p", "2", *extra])
        driver, values = cli._job(args)
        obj = driver(*values, data)
        monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps(data)))
        code, out, _ = run_cli(capsys, "map", direction, "--p", "2", *extra, "--format", fmt)
        assert (code, out.splitlines()) == (0, witness_lines([obj], fmt)[:-1]), direction


def test_enum_deterministic(capsys):
    first = run_cli(capsys, "enum", "pairs", "--p", "2", "--mu", "2,1")
    second = run_cli(capsys, "enum", "pairs", "--p", "2", "--mu", "2,1")
    assert first == second
    assert first[0] == 0


def test_enum_missing_mu_exits_2(capsys):
    code, _, err = run_cli(capsys, "enum", "m_mu", "--p", "2")
    assert code == 2
    assert "mu" in err


@pytest.mark.parametrize(
    "argv",
    [
        ("verify", "basis", "--p", "2", "--mu", "2", "--n", "3"),
        ("enum", "m_mu", "--p", "2", "--mu", "1", "--seed", "1"),
        ("verify", "dim_identity", "--p", "2", "--mu", "2", "--format", "tsv"),
        ("verify", "pieri", "--p", "2", "--k", "2"),
        ("map", "rsk", "--p", "2", "--k", "2"),
    ],
    ids=["verify_basis_n", "enum_seed", "verify_format", "verify_pieri_k", "map_rsk_k"],
)
def test_flag_the_command_does_not_read_exits_2(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert "unrecognized arguments" in err


def readme_command_lines():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("## Command line", 1)[1].split("\n## ", 1)[0]
    return [line for line in block.splitlines() if line.startswith("hecke ")]


PARSER_LINES = [  # help texts and argparse errors, each parsed by the full parser too
    "--help",
    "enum --help",
    "verify bijection --help",
    "map v_to_a --help",
    "frobnicate --p 2",
    "enum frobnicate --p 2",
    "enum m_mu --p 2 --mu 1 --seed 1",
    "enum m_mu --p 2",
    "verify cosets --p 2 --mu 1",
    "enum --p 2 m_mu --mu 1",
    "",
]


def parse_outcome(capsys, parser, argv):
    """The namespace argv parses to, or argparse's exit code, and what it printed."""
    try:
        outcome = vars(parser.parse_args(argv))
    except SystemExit as err:
        outcome = err.code
    captured = capsys.readouterr()
    return outcome, captured.out, captured.err


@pytest.mark.parametrize("line", PARSER_LINES)
def test_parser_of_the_named_job_answers_as_the_full_parser(capsys, line):
    """The reader declines each help and error line, and main answers it as
    the full parser does: the same exit code and the same text."""
    argv = line.split()
    assert cli.read_line(argv) is None
    answer = run_cli(capsys, *argv)
    assert answer == parse_outcome(capsys, build_parser(), argv)
    assert answer[0] in (0, 2) and answer[1] + answer[2]


def test_only_the_named_job_gets_its_flags(capsys):
    """The reader takes a job's own flags and declines another job's flag,
    which main refuses as the full parser does."""
    assert cli.read_line(["enum", "m_mu", "--p", "2", "--mu", "2,1"]).mu == (2, 1)
    assert cli.read_line(["verify", "basis", "--p", "2", "--mu", "2"]).mu == (2,)
    for argv in (
        ["enum", "m_mu", "--p", "2", "--mu", "2", "--n", "3"],
        ["verify", "basis", "--p", "2", "--mu", "2", "--format", "json"],
    ):
        assert cli.read_line(argv) is None
        answer = run_cli(capsys, *argv)
        assert answer == parse_outcome(capsys, build_parser(), argv)
        assert answer[:2] == (2, "") and "unrecognized arguments" in answer[2]


def every_job():
    return list(JOBS)


def job_lines(command, job) -> dict:
    """A valid line of the job and its help and malformed variants."""
    values = {"--mu": "2,1", "--n": "2", "--max-deg": "2"}
    flags = JOBS[command, job][0]
    required = [part for f in flags if FLAGS[f].get("required") for part in (f, values[f])]
    valid = [command, job, "--p", "2", *required]
    return {
        "valid": valid,
        "help": [command, job, "--help"],
        "no --p": [command, job, *required],
        "bad --mu": [command, job, "--p", "2", "--mu", "2,x"],
        "unknown flag": [*valid, "--seed", "1"],
        "stray positional": [*valid, "extra"],
        "--format": [*valid, "--format", "json"],
    }


@pytest.mark.parametrize("command,job", every_job(), ids=lambda name: name)
def test_named_job_parser_equals_the_full_parser(capsys, command, job):
    """The reader gives the full parser's namespace on the job's valid line;
    it declines each help and malformed line, and main answers that with the
    full parser's help text, or its stderr and exit code."""
    for case, argv in job_lines(command, job).items():
        full = parse_outcome(capsys, build_parser(), argv)
        if case == "valid" or (case == "--format" and command != "verify"):
            assert isinstance(full[0], dict), case
            assert vars(cli.read_line(argv)) == full[0], case
        else:
            assert cli.read_line(argv) is None, case
            assert run_cli(capsys, *argv) == full, case
            assert full[0] == (0 if case == "help" else 2), case


OPTIONAL_VALUES = {  # a value for each flag that is not required
    "--k": "2",
    "--nu": "2,1",
    "--add": "2",
    "--vars": "4",
    "--input": "a.json",
    "--format": "tsv",
    "--output": "out.txt",
}


def reader_lines(command, job) -> tuple:
    """(lines the reader takes, lines it declines) of one job, beyond
    job_lines and PARSER_LINES."""
    valid = job_lines(command, job)["valid"]
    optional = [
        part
        for flag in cli._declared(command, job)
        if not FLAGS[flag].get("required")
        for part in (flag, OPTIONAL_VALUES[flag])
    ]
    pairs = [valid[i : i + 2] for i in range(2, len(valid), 2)]
    taken = {
        "reordered": [command, job, *(part for pair in reversed(pairs) for part in pair)],
        "optional present": [*valid, *optional],
        "optional first": [command, job, *optional, *valid[2:]],
    }
    declined = {
        "--mu=2,1": [command, job, "--p", "2", "--mu=2,1"],
        "abbreviated": [command, job, "--p", "2", "--m", "2,1"],
        "repeated": [*valid, "--p", "3"],
        "negative value": [*valid, "--k", "-1"],
        "--": [*valid, "--"],
        "-h": [command, job, "-h"],
        "bad --format": [*valid, "--format", "xml"],
        "missing value": [*valid, "--output"],
    }
    if job == "pieri":
        taken["--nu empty"] = [*valid, "--nu", ""]
    else:
        declined["--nu empty"] = [*valid, "--nu", ""]
    return taken, declined


@pytest.mark.parametrize("command,job", every_job(), ids=lambda name: name)
def test_the_reader_takes_a_line_as_the_full_parser_or_declines_it(capsys, command, job):
    """On each line of the job, the reader returns exactly the full parser's
    namespace, or declines the line and leaves it to argparse.  It takes every
    well-formed line and declines every help, abbreviated, repeated, `=`,
    negative, `--` and invalid-choice line."""
    taken, declined = reader_lines(command, job)
    corpus = [*taken.values(), *declined.values(), *job_lines(command, job).values()]
    for argv in corpus + [line.split() for line in PARSER_LINES]:
        namespace = cli.read_line(argv)
        if namespace is not None:
            assert vars(namespace) == vars(build_parser().parse_args(argv)), argv
    assert [case for case, argv in taken.items() if cli.read_line(argv) is None] == []
    assert [case for case, argv in declined.items() if cli.read_line(argv)] == []
    assert capsys.readouterr() == ("", "")


def test_every_job_has_a_readme_command_line():
    named = {tuple(shlex.split(line, comments=True)[1:3]) for line in readme_command_lines()}
    assert [job for job in JOBS if job not in named] == []


def test_readme_command_lines_parse():
    """The reader takes every README line, as the full parser parses it."""
    lines = readme_command_lines()
    assert len(lines) >= 16
    parser = build_parser()
    for line in lines:
        argv = shlex.split(line, comments=True)[1:]
        try:
            full = vars(parser.parse_args(argv))
        except SystemExit:
            pytest.fail(f"README command does not parse: {line}")
        namespace = cli.read_line(argv)
        assert namespace is not None and vars(namespace) == full, line


@pytest.mark.parametrize(
    "line",
    [line for line in readme_command_lines() if "--input" not in line],
    ids=lambda line: " ".join(shlex.split(line, comments=True)[1:]),
)
def test_readme_command_lines_run(monkeypatch, capsys, line):
    monkeypatch.delenv("HECKE_GUARD_OVERRIDE", raising=False)
    argv = shlex.split(line, comments=True)[1:]
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    if argv[0] == "verify":
        assert json.loads(out)["pass"] is True


def readme_guard_examples():
    """(argv, stdin, estimate) for each "refused, for example" cell of the
    README guard table, read as "`example`: `estimate`".  The example is a
    whole command line; or the flags of the first job its row names; or, if
    it is JSON, the input of that job, run with --p 2, which `map` needs."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    header = "| job | what is counted | limit | refused, for example |"
    rows = readme.split(header, 1)[1].split("\n\n", 1)[0].splitlines()[2:]
    examples = []
    for row in rows:
        cells = [cell.strip().replace("\\|", "|") for cell in re.split(r"(?<!\\)\|", row)]
        cells = cells[1:-1]  # the row's outer pipes
        if not cells[3]:
            continue
        example, estimate = re.fullmatch(r"`([^`]*)`: `([^`]*)`", cells[3]).groups()
        job = re.findall(r"`([^`]*)`", cells[0])[:1]
        if example.startswith("{"):
            argv, stdin = [*job[0].split(), "--p", "2"], example
        elif example.startswith("--"):
            argv, stdin = [*job[0].split(), *example.split()], ""
        else:
            argv, stdin = example.split(), ""
        examples.append(pytest.param(argv, stdin, estimate, id=" ".join(argv)))
    return examples


@pytest.mark.parametrize("argv,stdin,estimate", readme_guard_examples())
def test_readme_guard_examples_are_refused_with_their_estimate(
    monkeypatch, capsys, argv, stdin, estimate
):
    monkeypatch.delenv("HECKE_GUARD_OVERRIDE", raising=False)
    monkeypatch.setattr(sys, "stdin", io.StringIO(stdin))
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (3, "")
    assert estimate in err


# -- map ----------------------------------------------------------------------


def test_map_rsk_paper_example(tmp_path, capsys):
    path = tmp_path / "b.json"
    path.write_text(json.dumps({"b": [[1, 1, 0], [0, 0, 2], [0, 1, 0]]}))
    code, out, _ = run_cli(
        capsys, "map", "rsk", "--p", "2", "--input", str(path)
    )
    assert code == 0
    (record,) = json_lines(out)
    assert record["two_line"] == [[1, 1, 2, 2, 3], [2, 1, 3, 3, 2]]
    assert record["P"] == [[1, 2, 3], [2, 3]]
    assert record["Q"] == [[1, 1, 3], [2, 2]]


def test_map_roundtrip_byte_identical(tmp_path, capsys):
    a_obj = {"mu": [2, 1], "entries": [["1+1*X^2", "1"], ["1", "1+1*X^1"]]}
    a_path = tmp_path / "a.json"
    a_path.write_text(json.dumps(a_obj))
    code, out, _ = run_cli(capsys, "map", "a_to_v", "--p", "2", "--input", str(a_path))
    assert code == 0
    (v_obj,) = json_lines(out)
    assert v_obj.pop("mu") == [2, 1]
    v_path = tmp_path / "v.json"
    v_path.write_text(json.dumps(v_obj))
    code, out2, _ = run_cli(
        capsys, "map", "v_to_a", "--p", "2", "--mu", "2,1", "--input", str(v_path)
    )
    assert code == 0
    assert json.loads(out2.strip()) == a_obj


def test_map_v_to_a_identity(tmp_path, capsys):
    path = tmp_path / "v.json"
    path.write_text(json.dumps({"perm": [1, 2, 3], "entries": [1, 1, 1]}))
    code, out, _ = run_cli(
        capsys, "map", "v_to_a", "--p", "2", "--mu", "2,1", "--input", str(path)
    )
    assert code == 0
    (record,) = json_lines(out)
    assert record == {"mu": [2, 1], "entries": [["1+1*X^2", "1"], ["1", "1+1*X^1"]]}


def test_map_rsk_general_worked_example(tmp_path, capsys):
    entries = [
        ["1+1*X^1+1*X^2", "1+1*X^1+1*X^2+1*X^5", "1", "1"],
        ["1+1*X^1+1*X^3", "1", "1+1*X^1+1*X^2", "1"],
        ["1", "1", "1+1*X^1", "1+1*X^2"],
        ["1+1*X^1+1*X^2", "1", "1", "1"],
    ]
    path = tmp_path / "a.json"
    path.write_text(json.dumps({"mu": [7, 5, 3, 2], "entries": entries}))
    code, out, _ = run_cli(
        capsys, "map", "rsk_general", "--p", "2", "--input", str(path)
    )
    assert code == 0
    (record,) = json_lines(out)
    assert record["weight"] == [7, 5, 3, 2]
    assert record["P"]["1+1*X^1"] == [[2, 2, 4], [3, 4]]
    assert record["Q"]["1+1*X^1"] == [[1, 1, 3], [3, 3]]


def test_map_not_in_n_mu_exits_4(tmp_path, capsys):
    path = tmp_path / "v.json"
    path.write_text(json.dumps({"perm": [1, 2], "entries": [1, 2]}))
    code, _, err = run_cli(
        capsys, "map", "v_to_a", "--p", "3", "--mu", "2", "--input", str(path)
    )
    assert code == 4
    assert "rejected" in err


def test_map_v_to_a_huge_mu_is_refused_before_any_table_of_size_mu(tmp_path, monkeypatch, capsys):
    """A v whose size is not |mu| is refused at once, whatever |mu| is: no
    table of size |mu| (here 10^9) is built first."""

    def no_table(mu):
        raise AssertionError("_block_of was built for a v of the wrong size")

    monkeypatch.setattr(hecke_index, "_block_of", no_table)
    path = tmp_path / "v.json"
    path.write_text(json.dumps({"perm": [1, 2], "entries": [1, 1]}))
    code, _, err = run_cli(
        capsys, "map", "v_to_a", "--p", "2", "--mu", "1000000000", "--input", str(path)
    )
    assert code == 4
    assert "does not match |mu| = 1000000000" in err


def test_map_parse_failure_exits_2(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    code, _, _ = run_cli(capsys, "map", "rsk", "--p", "2", "--input", str(path))
    assert code == 2


def test_map_v_to_a_string_entries_exits_2(tmp_path, capsys):
    path = tmp_path / "v.json"
    path.write_text(json.dumps({"perm": [1, 2], "entries": "ab"}))
    code, _, err = run_cli(
        capsys, "map", "v_to_a", "--p", "2", "--mu", "1,1", "--input", str(path)
    )
    assert code == 2
    assert "error" in err


def test_map_degree_guard_exits_3(tmp_path, monkeypatch, capsys):
    monkeypatch.delenv("HECKE_GUARD_OVERRIDE", raising=False)
    path = tmp_path / "a.json"
    path.write_text(json.dumps({"mu": [1], "entries": [[f"1+X^{DEGREE_GUARD + 1}"]]}))
    code, out, err = run_cli(capsys, "map", "a_to_v", "--p", "2", "--input", str(path))
    assert code == 3
    assert out == ""
    assert "polynomial degree" in err


def test_map_a_to_v_integer_entries_exits_2(tmp_path, capsys):
    path = tmp_path / "a.json"
    path.write_text(json.dumps({"mu": [1], "entries": [[5]]}))
    code, _, err = run_cli(capsys, "map", "a_to_v", "--p", "2", "--input", str(path))
    assert code == 2
    assert "polynomial" in err


MALFORMED = {  # JSON inputs of the wrong shape or types for every map direction
    "bare_int": 5,
    "b_int": {"b": 5},
    "b_row_int": {"b": [5]},
    "b_bool": [[True]],
    "mu_zero": {"mu": [0], "entries": [["1"]]},
    "mu_empty": {"mu": [], "entries": []},
    "mu_negative": {"mu": [-1], "entries": [["1"]]},
    "grid_one_row": {"mu": [1, 1], "entries": [["1"]]},
    "grid_wide_row": {"mu": [2], "entries": [["1+X^2", "1"]]},
    "grid_empty": {"mu": [1], "entries": []},
    "entry_bool": {"perm": [1], "entries": [True]},
    # Polynomial text whose numbers are not ASCII digits.  int() and re's \d
    # alone would read each as 1+X, which is in M_(1) over F_2.
    "constant_arabic_indic": {"mu": [1], "entries": [["\u0661+X"]]},
    "exponent_arabic_indic": {"mu": [1], "entries": [["1+X^\u0661"]]},
    "coordinate_arabic_indic": {"mu": [1], "entries": [["[\u0661]+X"]]},
    "constant_fullwidth": {"mu": [1], "entries": [["\uff11+X"]]},
    "coordinate_underscore": {"mu": [1], "entries": [["[0_1]+X"]]},
}

MAP_ARGV = {
    "a_to_v": ("map", "a_to_v", "--p", "2"),
    "v_to_a": ("map", "v_to_a", "--p", "2", "--mu", "1"),
    "rsk": ("map", "rsk", "--p", "2"),
    "rsk_general": ("map", "rsk_general", "--p", "2"),
}


@pytest.mark.parametrize("name", MALFORMED)
def test_malformed_map_input_exits_2(tmp_path, capsys, name):
    path = tmp_path / "in.json"
    path.write_text(json.dumps(MALFORMED[name]))
    for argv in MAP_ARGV.values():
        code, out, err = run_cli(capsys, *argv, "--input", str(path))
        assert (code, out) == (2, ""), argv
        assert err.startswith("error: ") and err.count("\n") == 1, argv


def test_map_input_nested_past_the_recursion_limit_exits_2(tmp_path, monkeypatch, capsys):
    """JSON nested deeper than the decoder can recurse is malformed input,
    from a file or from stdin: exit 2, not a traceback's exit 1."""
    deep = "[" * 100_000 + "]" * 100_000
    path = tmp_path / "deep.json"
    path.write_text(deep)
    refused = (2, "", "error: the JSON input nests too deeply to read\n")
    for argv in MAP_ARGV.values():
        assert run_cli(capsys, *argv, "--input", str(path)) == refused, argv
        monkeypatch.setattr(sys, "stdin", io.StringIO(deep))
        assert run_cli(capsys, *argv) == refused, argv


NON_MEMBERS = {  # a well-formed grid outside M_mu -> its exact stderr line
    "non_monic": (
        {"mu": [2], "entries": [["1+1*X^1+2*X^2"]]},
        "input rejected: entry 1+1*X^1+2*X^2 is not monic with nonzero constant term\n",
    ),
    "zero_constant_term": (
        {"mu": [2], "entries": [["1*X^1+1*X^2"]]},
        "input rejected: entry 1*X^1+1*X^2 is not monic with nonzero constant term\n",
    ),
    "wrong_degree_sums": (
        {"mu": [2, 1], "entries": [["1+1*X^1", "1"], ["1", "1+1*X^1"]]},
        "input rejected: degree sums (1, 1) / (1, 1) do not both equal mu = (2, 1)\n",
    ),
}


@pytest.mark.parametrize("name", NON_MEMBERS)
@pytest.mark.parametrize("direction", ["a_to_v", "rsk_general"])
def test_map_refuses_a_non_member_where_it_is_read(tmp_path, capsys, direction, name):
    obj, message = NON_MEMBERS[name]
    path = tmp_path / "a.json"
    path.write_text(json.dumps(obj))
    code, out, err = run_cli(capsys, "map", direction, "--p", "3", "--input", str(path))
    assert (code, out, err) == (4, "", message)


@pytest.mark.parametrize("direction", ["a_to_v", "rsk_general"])
def test_map_reads_a_polynomial_matrix_through_validate_m_mu(
    monkeypatch, tmp_path, capsys, direction
):
    def refuse(K, a):
        raise MembershipError("validate_m_mu was called")

    monkeypatch.setattr(maps, "validate_m_mu", refuse)
    path = tmp_path / "a.json"
    path.write_text(json.dumps({"mu": [2, 1], "entries": [["1+1*X^2", "1"], ["1", "1+1*X^1"]]}))
    code, out, err = run_cli(capsys, "map", direction, "--p", "3", "--input", str(path))
    assert (code, out, err) == (4, "", "input rejected: validate_m_mu was called\n")


# -- verify ---------------------------------------------------------------------


def test_verify_dim_identity(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "dim_identity", "--p", "2", "--mu", "2,1"
    )
    assert code == 0
    report = json.loads(out)
    assert report["pass"]
    assert report["n_mu_count"] == report["m_mu_count"] == report["sum_of_squares"]


def test_verify_commutativity(capsys):
    code, out, _ = run_cli(capsys, "verify", "commutativity", "--p", "2", "--n", "3")
    assert code == 0
    assert json.loads(out)["pass"]


def test_verify_commutativity_rank_zero_exits_2(capsys):
    code, out, err = run_cli(capsys, "verify", "commutativity", "--p", "2", "--n", "0")
    assert code == 2
    assert out == ""
    assert "positive integer" in err
    assert "required" not in err


def test_verify_bijection(capsys):
    code, out, _ = run_cli(capsys, "verify", "bijection", "--p", "3", "--mu", "2,2")
    assert code == 0
    report = json.loads(out)
    assert report["pass"]
    assert report["m_mu_count"] == report["n_mu_count"]


def test_verify_pieri_single(capsys):
    code, out, _ = run_cli(
        capsys,
        "verify",
        "pieri",
        "--p",
        "2",
        "--nu",
        "2,1",
        "--add",
        "2",
        "--vars",
        "4",
    )
    assert code == 0
    assert json.loads(out)["pass"]


def test_verify_guard_exits_3(capsys):
    code, _, err = run_cli(capsys, "verify", "dim_identity", "--p", "2", "--mu", "1,1,1,1,1,1,1,1")
    assert code == 3
    assert "guard" in err


@pytest.mark.parametrize("mu,estimate", [("24", "8388608"), ("10000000", "inf")], ids=["24", "1e7"])
def test_bijection_guard_exits_3_before_any_enumeration(monkeypatch, capsys, mu, estimate):
    from hecke import hecke_index

    def refuse(*args):
        raise AssertionError("M_mu, N_mu or N was enumerated before the guard")

    monkeypatch.delenv("HECKE_GUARD_OVERRIDE", raising=False)
    for name in ("enumerate_m_mu", "enumerate_n"):
        monkeypatch.setattr(hecke_index, name, refuse)
    monkeypatch.setattr(bijection, "enumerate_pattern_n_mu", refuse)
    code, out, err = run_cli(capsys, "verify", "bijection", "--p", "2", "--mu", mu)
    assert code == 3
    assert out == ""
    assert f"|M_mu| * l^2 = {estimate} exceeds the guard (1000000)" in err


@pytest.mark.parametrize("mu", ["10", "4,4,3"])
def test_verify_bijection_where_n_factorial_is_over_the_guard(monkeypatch, capsys, mu):
    """n! > 10^6 while |M_mu| is not: the check walks only the permutations
    that pass the pattern test, and never all of N."""
    from hecke import hecke_index

    def refuse(*args):
        raise AssertionError("all of N was enumerated")

    monkeypatch.delenv("HECKE_GUARD_OVERRIDE", raising=False)
    monkeypatch.setattr(hecke_index, "enumerate_n", refuse)
    code, out, _ = run_cli(capsys, "verify", "bijection", "--p", "2", "--mu", mu)
    report = json.loads(out)
    assert (code, report["pass"], report["direct_test_checked"]) == (0, True, False)
    size = hecke_index.m_mu_size(2, tuple(map(int, mu.split(","))))
    assert report["m_mu_count"] == report["n_mu_count"] == size


@pytest.mark.parametrize(
    "argv",
    [
        ("map", "rsk", "--p", "4"),
        ("verify", "pieri", "--p", "4", "--nu", "1", "--add", "1", "--vars", "3"),
    ],
    ids=["map_rsk", "verify_pieri"],
)
def test_p_not_prime_exits_2(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert "p = 4 is not prime" in err


def test_field_free_jobs_build_no_table(monkeypatch, tmp_path, capsys):
    from hecke import gf

    def refuse(*args):
        raise AssertionError("a job that reads no field built one")

    monkeypatch.setattr(gf.Field, "_build_tables", refuse)
    path = tmp_path / "b.json"
    path.write_text(json.dumps({"b": [[1, 1, 0], [0, 0, 2], [0, 1, 0]]}))
    code, out, _ = run_cli(capsys, "map", "rsk", "--p", "1021", "--input", str(path))
    assert code == 0
    assert json_lines(out)[0]["P"] == [[1, 2, 3], [2, 3]]
    argv = ("verify", "pieri", "--p", "1021", "--nu", "1", "--add", "1", "--vars", "2")
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    assert json.loads(out)["pass"]


@pytest.mark.parametrize(
    "b,length",
    [([[1000000000]], 1000000000), ([[5000, 0], [0, 5001]], 10001)],
    ids=["1e9", "10001"],
)
def test_map_rsk_refuses_a_long_two_line_array(monkeypatch, tmp_path, capsys, b, length):
    from hecke import rsk

    def refuse(*args):
        raise AssertionError("the two-line array was built before the guard")

    monkeypatch.delenv("HECKE_GUARD_OVERRIDE", raising=False)
    monkeypatch.setattr(rsk, "two_line_array", refuse)
    path = tmp_path / "b.json"
    path.write_text(json.dumps({"b": b}))
    code, out, err = run_cli(capsys, "map", "rsk", "--p", "2", "--input", str(path))
    message = f"two-line array length sum b_ij = {length} exceeds the guard (10000)"
    assert (code, out, err) == (3, "", f"guard exceeded: {message}\n")


def test_rsk_bijectivity_guard_exits_3_before_any_enumeration(monkeypatch, capsys):
    from hecke import rsk

    def refuse(*args):
        raise AssertionError("M_mu or the pairs were enumerated before the guard")

    monkeypatch.delenv("HECKE_GUARD_OVERRIDE", raising=False)
    monkeypatch.setattr(hecke_index, "enumerate_m_mu", refuse)
    monkeypatch.setattr(rsk, "enumerate_pairs", refuse)
    code, out, err = run_cli(capsys, "verify", "rsk_bijectivity", "--p", "2", "--mu", "21")
    assert code == 3
    assert out == ""
    assert "|M_mu| * l^2 = 1048576 exceeds the guard (1000000)" in err


def test_rsk_bijectivity_guard_counts_ten_parts_by_rows(monkeypatch, capsys):
    from hecke import hecke_index, rsk

    def refuse(*args):
        raise AssertionError("a degree matrix, M_mu or the pairs were enumerated")

    monkeypatch.delenv("HECKE_GUARD_OVERRIDE", raising=False)
    monkeypatch.setattr(hecke_index, "enumerate_m_mu", refuse)
    monkeypatch.setattr(rsk, "enumerate_pairs", refuse)
    monkeypatch.setattr(hecke_index, "degree_matrices", refuse)
    mu = ",".join(["1"] * 10)
    code, out, err = run_cli(capsys, "verify", "rsk_bijectivity", "--p", "2", "--mu", mu)
    assert code == 3
    assert out == ""
    assert "|M_mu| * l^2 = 362880000 exceeds the guard (1000000)" in err  # 10! * 10^2


def test_rsk_bijectivity_guard_counts_sixteen_parts_at_once(monkeypatch, capsys):
    from hecke import hecke_index, rsk

    def refuse(*args):
        raise AssertionError("a degree matrix, M_mu or the pairs were enumerated")

    monkeypatch.delenv("HECKE_GUARD_OVERRIDE", raising=False)
    monkeypatch.setattr(hecke_index, "enumerate_m_mu", refuse)
    monkeypatch.setattr(rsk, "enumerate_pairs", refuse)
    monkeypatch.setattr(hecke_index, "degree_matrices", refuse)
    mu = ",".join(["1"] * 16)
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "verify", "rsk_bijectivity", "--p", "2", "--mu", mu)
    assert time.perf_counter() - start < 1
    assert code == 3
    assert out == ""
    assert "|M_mu| * l^2 = 5356234211328000 exceeds the guard (1000000)" in err  # 16! * 16^2


@pytest.mark.parametrize(
    "p,mu,message",
    [
        # one part or every part 1: the bound is |M_mu| l^2 = 300! (q-1)^300 300^2
        ("2", ",".join(["1"] * 300), f"|M_mu| * l^2 = {math.factorial(300) * 300**2} exceeds"),
        # 3! degree matrices permute the parts, each with (2^499)^3 fillings of 3^2 entries
        (
            "2",
            "500,500,500",
            "|M_mu| * l^2 >= l^2 prod_k m_k! prod_i (q-1) q^(mu_i-1) ="
            f" {3**2 * 6 * 2**1497} ",
        ),
        # 1020 * 1021^99999 has over 4096 bits
        ("1021", "100000", "|M_mu| * l^2 = inf exceeds the guard (1000000)"),
        # 2 * 3^2583 has 4095 bits and 2 * 3^2584 has 4097
        ("3", "2584", f"|M_mu| * l^2 = {2 * 3**2583} exceeds"),
        ("3", "2585", "|M_mu| * l^2 = inf exceeds"),
    ],
    ids=["ones300", "three500", "p1021", "bits4095", "bits4097"],
)
def test_rsk_bijectivity_guard_refuses_on_the_lower_bound(monkeypatch, capsys, p, mu, message):
    from hecke import hecke_index, rsk

    def refuse(*args):
        raise AssertionError("|M_mu| was counted or enumerated before the guard")

    monkeypatch.delenv("HECKE_GUARD_OVERRIDE", raising=False)
    monkeypatch.setattr(hecke_index, "enumerate_m_mu", refuse)
    monkeypatch.setattr(rsk, "enumerate_pairs", refuse)
    for name in ("degree_matrices", "m_mu_size"):
        monkeypatch.setattr(hecke_index, name, refuse)
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "verify", "rsk_bijectivity", "--p", p, "--mu", mu)
    assert time.perf_counter() - start < 1
    assert code == 3
    assert out == ""
    assert message in err and err.startswith("guard exceeded: ")


@pytest.mark.parametrize(
    "field", [("--p", "2003"), ("--p", "2", "--k", "1000000000")], ids=["p2003", "k1e9"]
)
def test_field_guard_exits_3_before_any_table(monkeypatch, capsys, field):
    from hecke import gf

    def refuse(*args):
        raise AssertionError("the field was tested or built before the guard")

    monkeypatch.delenv("HECKE_GUARD_OVERRIDE", raising=False)
    for name in ("is_prime", "_smallest_irreducible"):
        monkeypatch.setattr(gf, name, refuse)
    monkeypatch.setattr(gf.Field, "_build_tables", refuse)
    code, out, err = run_cli(capsys, "enum", "irreducibles", *field, "--max-deg", "1")
    assert code == 3
    assert out == ""
    assert "field size" in err


GUARD_REFUSALS = {  # verify arguments -> message: one size over each guarded driver's guard
    "bijection --p 1021 --mu 3": "|M_mu| * l^2 = 1063289820 exceeds the guard (1000000)",
    "bijection --p 2 --mu 1,1,1,1,1,1,1,1,1": "|M_mu| * l^2 = 29393280 exceeds the guard (1000000)",
    # the lower bound, 5! 2^5 6^2 = 138240, passes; the row-by-row count does not
    "bijection --p 2 --mu 2,2,2,2,2,1": "|M_mu| * l^2 = 5336280 exceeds the guard (1000000)",
    "rsk_bijectivity --p 2 --mu 1,1,1,1,1,1,1,1,1": "|M_mu| * l^2 = 29393280 exceeds the guard (1000000)",
    "rsk_bijectivity --p 1021 --mu 100000": "|M_mu| * l^2 = inf exceeds the guard (1000000)",
    **{  # |M_mu| admits these; the trial divisions that list and factor the labels do not
        f"{check} --p {p} --mu {d}": (
            "label trial divisions sum_d 2 (q-1) q^(d-1) sum_e ceil(q^e/e) ="
            f" {work} exceeds the guard (1000000)"
        )
        for check, p, d, work in [
            ("rsk_bijectivity", 31, 4, 917024640),
            ("rsk_bijectivity", 13, 5, 72399600),
            ("rsk_bijectivity", 7, 6, 30705948),
            ("rsk_bijectivity", 2, 16, 8023832),
            ("rsk_bijectivity", 11, 4, 1945680),
            ("rsk_bijectivity", 31, 3, 1845120),
            ("rsk_bijectivity", 29, 3, 1412880),
            ("dim_identity", 31, 4, 917024640),
        ]
    },
    # built from --p 3 --k 3, F_27 finds its modulus over F_3's tables only
    # when a table is first read, after the check's price
    "rsk_bijectivity --p 3 --k 3 --mu 3": (
        "label trial divisions sum_d 2 (q-1) q^(d-1) sum_e ceil(q^e/e) = 1061424 exceeds the"
        " guard (1000000)"
    ),
    "dim_identity --p 2 --mu 1,1,1,1,1,1,1,1": "|M_mu| * l^2 = 2580480 exceeds the guard (1000000)",
    "basis --p 1021 --mu 3": "|U| = 1064332261 exceeds the guard (4096)",
    "basis --p 2 --mu 3,2": (
        "group products (|N| + 1) * |U|^2 = 126877696 exceeds the guard (1000000)"
    ),
    "levi --p 1021 --mu 3,3": "|U| = 1064332261 exceeds the guard (4096)",
    "levi --p 2 --mu 3,3": "|U| = 32768 exceeds the guard (4096)",
    "commutativity --p 1021 --n 3": "|U| = 1064332261 exceeds the guard (4096)",
    "commutativity --p 3 --n 4": (
        "Bruhat eliminations sum |N_mu|^2 * |U| = 2125764 exceeds the guard (1000000)"
    ),
    "cosets --p 1021 --n 3": "|U| = 1064332261 exceeds the guard (4096)",
    "cosets --p 5 --n 3": "|GL_n(F_q)| = 1488000 exceeds the guard (200000)",
}


@pytest.mark.parametrize("line", GUARD_REFUSALS)
def test_verify_guards_fire_before_the_field_is_built(monkeypatch, capsys, line):
    from hecke import gf

    def refuse(*args):
        raise AssertionError("the field's tables were built before the guard")

    monkeypatch.delenv("HECKE_GUARD_OVERRIDE", raising=False)
    monkeypatch.setattr(gf.Field, "_build_tables", refuse)
    code, out, err = run_cli(capsys, "verify", *line.split())
    assert (code, out, err) == (3, "", f"guard exceeded: {GUARD_REFUSALS[line]}\n")


CHECK_FUNCTIONS = {  # verify check -> (module, the check it calls on the field and mu or n)
    "bijection": ("bijection", "bijection_check"),
    "rsk_bijectivity": ("bijection", "rsk_bijectivity_check"),
    "dim_identity": ("decomp", "dim_identity_check"),
    "basis": ("oracle", "basis_check"),
    "levi": ("oracle", "levi_embedding_check"),
    "commutativity": ("oracle", "commutativity_check"),
    "cosets": ("oracle", "coset_check"),
}


@pytest.mark.parametrize("line", GUARD_REFUSALS)
def test_each_check_guards_itself_before_the_field_is_built(monkeypatch, line):
    from hecke import gf

    def refuse(*args):
        raise AssertionError("the field's tables were built before the guard")

    monkeypatch.delenv("HECKE_GUARD_OVERRIDE", raising=False)
    monkeypatch.setattr(gf.Field, "_build_tables", refuse)
    args = build_parser().parse_args(["verify", *line.split()])
    module, name = CHECK_FUNCTIONS[args.check]
    check = getattr(importlib.import_module(f"hecke.{module}"), name)
    with pytest.raises(GuardExceeded) as refusal:
        check(Field(args.p, args.k), args.mu if hasattr(args, "mu") else args.n)
    assert str(refusal.value) == GUARD_REFUSALS[line]


LABEL_REFUSALS = [line for line in GUARD_REFUSALS if "label" in GUARD_REFUSALS[line]]


@pytest.mark.parametrize("line", LABEL_REFUSALS)
def test_rsk_bijectivity_prices_its_labels_before_listing_them(monkeypatch, capsys, line):
    from hecke import gf, rsk

    def refuse(*args):
        raise AssertionError("the labels, M_mu or N_mu were listed before the guard")

    monkeypatch.delenv("HECKE_GUARD_OVERRIDE", raising=False)
    monkeypatch.setattr(gf, "_irreducibles_through", refuse)
    monkeypatch.setattr(rsk, "_irreducibles_through", refuse)
    monkeypatch.setattr(hecke_index, "enumerate_m_mu", refuse)  # dim_identity's listings too
    monkeypatch.setattr(bijection, "enumerate_pattern_n_mu", refuse)
    code, out, err = run_cli(capsys, "verify", *line.split())
    assert (code, out, err) == (3, "", f"guard exceeded: {GUARD_REFUSALS[line]}\n")


def test_guard_override_admits_the_label_stream(monkeypatch):
    class Admitted(Exception):
        pass

    def admitted(*args):
        raise Admitted

    monkeypatch.setenv("HECKE_GUARD_OVERRIDE", str(10**9))
    monkeypatch.setattr(hecke_index, "enumerate_m_mu", admitted)
    with pytest.raises(Admitted):
        main(["verify", "rsk_bijectivity", "--p", "31", "--mu", "4"])


@pytest.mark.parametrize(
    "q,mu",
    [(3, (2, 2, 1)), (5, (2, 2)), (3, (8,)), (2, (12,)), (2, (13,)), (17, (3,)), (7, (4,))],
    ids=["3-221", "5-22", "3-8", "2-12", "2-13", "17-3", "7-4"],
)
def test_label_price_admits_the_sizes_that_run(monkeypatch, q, mu):
    monkeypatch.delenv("HECKE_GUARD_OVERRIDE", raising=False)
    prices.price_m_mu(q, mu)
    prices.price_labels(q, max(mu))


def test_rsk_bijectivity_refuses_over_f1021_at_once(monkeypatch, capsys):
    monkeypatch.delenv("HECKE_GUARD_OVERRIDE", raising=False)
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "verify", "rsk_bijectivity", "--p", "1021", "--mu", "100000")
    assert time.perf_counter() - start < 0.5
    assert (code, out, err) == (
        3,
        "",
        "guard exceeded: |M_mu| * l^2 = inf exceeds the guard (1000000)\n",
    )


def test_coset_guard_exits_3_not_a_counterexample(monkeypatch, capsys):
    monkeypatch.delenv("HECKE_GUARD_OVERRIDE", raising=False)
    code, out, err = run_cli(capsys, "verify", "cosets", "--p", "5", "--n", "3")
    assert code == 3
    assert out == ""
    assert "|GL_n(F_q)| = 1488000 exceeds the guard" in err


def test_code_tables_follow_the_guards_and_reuse_the_field_at_n_1(monkeypatch, capsys):
    from hecke import oracle

    built = []  # (K, n, K's own add and mul tables returned) per table request
    vector_codes = oracle._vector_codes

    def record(K, n):
        tables = vector_codes(K, n)
        built.append((K, n, tables[2] is K._add and tables[3] is K._mul))
        return tables

    monkeypatch.delenv("HECKE_GUARD_OVERRIDE", raising=False)
    monkeypatch.setattr(oracle, "_vector_codes", record)
    code, out, err = run_cli(capsys, "verify", "cosets", "--p", "1021", "--n", "2")
    assert (code, out) == (3, "")
    assert "|GL_n(F_q)| = 1085617864800 exceeds the guard (200000)" in err
    assert built == []  # refused before any table was built
    code, out, _ = run_cli(capsys, "verify", "basis", "--p", "1021", "--mu", "1")
    assert code == 0 and json.loads(out)["pass"]
    # At n = 1 the codes are field elements: K's own tables, no q-by-q copy.
    assert built and all(n == 1 and own for _, n, own in built)
    assert all(K.q == 1021 for K, _, _ in built)


ORACLE_REFUSALS = [
    (
        ("verify", "basis", "--p", "2", "--mu", "3,2"),
        "group products (|N| + 1) * |U|^2 = 126877696 exceeds",
    ),
    (
        ("verify", "commutativity", "--p", "3", "--n", "4"),
        "Bruhat eliminations sum |N_mu|^2 * |U| = 2125764 exceeds",
    ),
    (("verify", "levi", "--p", "2", "--mu", "100000"), "|U| = inf exceeds"),
]


@pytest.mark.parametrize("argv,message", ORACLE_REFUSALS, ids=["basis", "commutativity", "levi"])
def test_oracle_work_guards_exit_3_before_u_is_built(monkeypatch, capsys, argv, message):
    from hecke import oracle

    def refuse(*args):
        raise AssertionError("U, e_mu or N_mu was built before the guard")

    monkeypatch.delenv("HECKE_GUARD_OVERRIDE", raising=False)
    for name in ("enumerate_u", "e_mu", "enumerate_m_mu"):
        monkeypatch.setattr(oracle, name, refuse)
    code, out, err = run_cli(capsys, *argv)
    assert code == 3
    assert out == ""
    assert message in err


@pytest.mark.parametrize(
    "argv", [argv for argv, _ in ORACLE_REFUSALS[:2]], ids=["basis", "commutativity"]
)
def test_guard_override_admits_oracle_work(monkeypatch, argv):
    from hecke import oracle

    class Admitted(Exception):
        pass

    def admitted(*args):
        raise Admitted

    monkeypatch.setenv("HECKE_GUARD_OVERRIDE", str(10**9))
    for name in ("enumerate_u", "e_mu"):
        monkeypatch.setattr(oracle, name, admitted)
    with pytest.raises(Admitted):
        main(list(argv))


def price_m_mu_and_labels(q, mu):
    prices.price_m_mu(q, mu)
    prices.price_labels(q, max(mu))


PRICES = {  # verify check -> its price, called on q and the parsed --mu or --n
    "bijection": prices.price_m_mu,
    "rsk_bijectivity": price_m_mu_and_labels,
    "dim_identity": price_m_mu_and_labels,
    "basis": lambda q, mu: prices.price_basis(q, sum(mu)),
    "levi": lambda q, mu: prices.price_bruhat(q, [(m,) for m in mu] + [mu]),
    "commutativity": lambda q, n: prices.price_bruhat(q, [(n,)]),
    "cosets": guards.u_order,  # enumerate_gl then checks |GL_n(F_q)| at its call
}

PRICE_REFUSALS = {  # every GUARD_REFUSALS and ORACLE_REFUSALS line, and more -> its whole message
    **GUARD_REFUSALS,
    "levi --p 2 --mu 100000": "|U| = inf exceeds the guard (4096)",
}


def test_price_refusals_cover_every_refusal_line():
    for argv, message in ORACLE_REFUSALS:
        assert PRICE_REFUSALS[" ".join(argv[1:])].startswith(message)


@pytest.mark.parametrize("line", PRICE_REFUSALS)
def test_each_price_refuses_alone_before_any_work(monkeypatch, line):
    from hecke import gf, oracle

    def refuse(*args):
        raise AssertionError("a table, U, G, M_mu or N_mu was built by a price")

    build_g = oracle.enumerate_gl
    monkeypatch.delenv("HECKE_GUARD_OVERRIDE", raising=False)
    monkeypatch.setattr(gf.Field, "_build_tables", refuse)
    for name in ("enumerate_u", "enumerate_gl"):
        monkeypatch.setattr(oracle, name, refuse)
    monkeypatch.setattr(hecke_index, "enumerate_m_mu", refuse)
    monkeypatch.setattr(bijection, "enumerate_pattern_n_mu", refuse)
    args = build_parser().parse_args(["verify", *line.split()])
    size = args.mu if hasattr(args, "mu") else args.n
    message = PRICE_REFUSALS[line]
    if message.startswith("|GL_n(F_q)|"):  # the price admits it; G's builder refuses it
        PRICES[args.check](args.p**args.k, size)
        with pytest.raises(GuardExceeded) as refusal:
            build_g(Field(args.p, args.k), size)
    else:
        with pytest.raises(GuardExceeded) as refusal:
            PRICES[args.check](args.p**args.k, size)
    assert str(refusal.value) == message


@pytest.mark.parametrize(
    "argv",
    [("levi", "--p", "2", "--mu", "2,1"), ("commutativity", "--p", "2", "--n", "3")],
    ids=["levi", "commutativity"],
)
def test_the_bruhat_total_is_checked_once(monkeypatch, capsys, argv):
    from hecke import gf, oracle, rsk

    checked = []
    check_guard = guards.check_guard

    def guard(value, limit, what):
        checked.append(what)
        return check_guard(value, limit, what)

    monkeypatch.delenv("HECKE_GUARD_OVERRIDE", raising=False)
    for module in (guards, prices, gf, hecke_index, rsk, oracle):
        if hasattr(module, "check_guard"):
            monkeypatch.setattr(module, "check_guard", guard)
    code, out, _ = run_cli(capsys, "verify", *argv)
    assert (code, json.loads(out)["pass"]) == (0, True)
    assert sum(what.startswith("Bruhat") for what in checked) == 1


@pytest.mark.parametrize("value", ["abc", "1e9"])
@pytest.mark.parametrize(
    "argv",
    [
        ("verify", "bijection", "--p", "2", "--mu", "2,1"),
        ("enum", "irreducibles", "--p", "2", "--max-deg", "1"),
    ],
    ids=["verify_bijection", "enum_irreducibles"],
)
def test_a_malformed_guard_override_is_named(monkeypatch, capsys, argv, value):
    monkeypatch.setenv("HECKE_GUARD_OVERRIDE", value)
    code, out, err = run_cli(capsys, *argv)
    message = f"error: HECKE_GUARD_OVERRIDE = {value!r} is not an integer\n"
    assert (code, out, err) == (2, "", message)


def test_output_file(tmp_path, capsys):
    out_path = tmp_path / "out.jsonl"
    code, out, _ = run_cli(
        capsys,
        "enum",
        "irreducibles",
        "--p",
        "2",
        "--max-deg",
        "1",
        "--output",
        str(out_path),
    )
    assert code == 0
    assert out == ""
    lines = out_path.read_text().strip().splitlines()
    assert json.loads(lines[0]) == {"poly": "1+1*X^1"}


def test_verify_stdout_byte_identical(capsys):
    first = run_cli(capsys, "verify", "dim_identity", "--p", "2", "--mu", "2,1")
    second = run_cli(capsys, "verify", "dim_identity", "--p", "2", "--mu", "2,1")
    assert first[0] == second[0] == 0
    assert first[1] == second[1]
    assert "timings" not in json.loads(first[1])
    assert "elapsed" in first[2]


# Command line -> sha256 of its stdout, computed on the code before the change
# each line guards: the first four before the label-free caches of the RSK and
# bijection checks, the Pieri lines before Pieri was checked in the e-basis.
STDOUT_SHA256 = {
    "enum pairs --p 3 --mu 3,3": "5b0085288a0bc64ebed62de2b1d621be4a36886ce3bed3a4b3f9da08908fcdc6",
    "verify rsk_bijectivity --p 5 --mu 2,2": (
        "6b3ae403cbc71c5679b45b936c0df6e28de7f23eca5befc261e22a5d8aaf4888"
    ),
    "verify dim_identity --p 2 --k 2 --mu 2,2,1": (
        "2395921472a7857ac9fb43890969ec92bc581f48b6cdf7378698569e414d464d"
    ),
    "verify bijection --p 3 --mu 3,2,1": (
        "c193bcc6b5abe3aad83f79538f10327635822ba7a189bcf43efbd5e43c701438"
    ),
    "verify pieri --p 2": "3a99543e7bf44488f2654faee9fca315735670e9986b98280c512d42f8199760",
    "verify pieri --p 2 --nu 3,3 --add 3 --vars 5": (
        "0fbd5473f82207f5ff468da9ec968ec842da2d4a9e1788199006ff359d53fad3"
    ),
    "verify pieri --p 2 --nu 3,1 --add 3 --vars 5": (
        "0f3a45d4bcad8abd03544e5df7af612125c2f8e6213ce75e03068da3c2627abf"
    ),
    "verify pieri --p 2 --nu 4,2 --add 2 --vars 5": (
        "ef952befc37208e96f1eff3a23365c2d7e1b9c34e64223fd37b82e8b301025d1"
    ),
    "verify pieri --p 2 --vars 8": (
        "8b93a6a458b8f602ed537e09ee7d5be96e4c2c9c9094a99470eb61905eb0c34a"
    ),
}


@pytest.mark.parametrize("line", STDOUT_SHA256)
def test_stdout_bytes_are_pinned(capsys, line):
    code, out, _ = run_cli(capsys, *line.split())
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == STDOUT_SHA256[line]


def pieri_args(*extra):
    return ("verify", "pieri", "--p", "2", *extra)


def test_verify_pieri_not_a_partition_exits_2(capsys):
    code, out, err = run_cli(capsys, *pieri_args("--nu", "1,2", "--add", "1", "--vars", "3"))
    assert code == 2
    assert out == ""
    assert "partition" in err


def test_verify_pieri_unparsable_nu_exits_2(capsys):
    code, out, err = run_cli(capsys, *pieri_args("--nu", "2,x", "--vars", "3"))
    assert (code, out) == (2, "")
    assert "argument --nu: cannot parse partition '2,x'" in err


def test_verify_pieri_negative_add_exits_2(capsys):
    code, out, err = run_cli(capsys, *pieri_args("--nu", "2,1", "--add", "-1", "--vars", "3"))
    assert code == 2
    assert out == ""
    assert "nonnegative" in err


def test_verify_pieri_no_variables_exits_2(capsys):
    code, out, err = run_cli(capsys, *pieri_args("--nu", "", "--add", "1", "--vars", "0"))
    assert code == 2
    assert out == ""
    assert "variables" in err


def test_verify_pieri_add_needs_nu(capsys):
    code, out, err = run_cli(capsys, *pieri_args("--add", "7", "--vars", "5"))
    assert code == 2
    assert out == ""
    assert "--add needs --nu" in err
    code, out, _ = run_cli(capsys, *pieri_args("--nu", "2,1", "--vars", "4"))
    assert code == 0
    assert json.loads(out)["n"] == 1


def test_verify_pieri_guard_fires_before_work(monkeypatch, capsys):
    from hecke import decomp

    def refuse(*args):
        raise AssertionError("a Schur polynomial was built before the guard")

    monkeypatch.delenv("HECKE_GUARD_OVERRIDE", raising=False)
    monkeypatch.setattr(decomp, "_schur_packed", refuse)
    code, out, err = run_cli(capsys, *pieri_args("--nu", "12,12", "--add", "12", "--vars", "5"))
    assert code == 3
    assert out == ""
    assert "pieri work estimate" in err
    start = time.perf_counter()  # an estimate past any float is refused at once
    argv = pieri_args("--nu", "1", "--add", "100000000000", "--vars", "2")
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (3, "") and time.perf_counter() - start < 0.5
    assert "pieri work estimate" in err


@pytest.mark.parametrize("variables", ["9", "1000000000"])
def test_verify_pieri_grid_is_admitted_at_any_variable_count(monkeypatch, capsys, variables):
    monkeypatch.delenv("HECKE_GUARD_OVERRIDE", raising=False)
    code, out, _ = run_cli(capsys, *pieri_args("--vars", variables))
    report = json.loads(out)
    assert code == 0 and report["pass"]
    assert report["variables"] == int(variables) and len(report["cases"]) == 36


# -- a closed stdout -----------------------------------------------------------


def child_env(buffered):
    """The environment of a child `hecke`, with stdout block-buffered (the
    default on a pipe) or unbuffered."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    env.pop("PYTHONUNBUFFERED", None)
    return env if buffered else dict(env, PYTHONUNBUFFERED="1")


BUFFERING = pytest.mark.parametrize("buffered", [True, False], ids=["buffered", "unbuffered"])


@pytest.mark.parametrize(
    "argv",
    [
        ("enum", "m_mu", "--p", "5", "--mu", "3,3"),
        ("enum", "irreducibles", "--p", "31", "--max-deg", "4"),
    ],
    ids=["m_mu", "irreducibles"],
)
@BUFFERING
def test_reader_closing_after_one_line_ends_enum_quietly(argv, buffered):
    proc = subprocess.Popen(
        [sys.executable, "-m", "hecke.cli", *argv],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=child_env(buffered),
    )
    try:
        start = time.monotonic()
        ready, _, _ = select.select([proc.stdout], [], [], 10)
        assert ready, "no record within 10 s"
        assert proc.stdout.readline().startswith(b"{")
        assert time.monotonic() - start < 2  # the stream starts before it ends
        proc.stdout.close()
        assert proc.wait(timeout=60) == 0
        assert proc.stderr.read() == b""
    finally:
        proc.kill()
        proc.wait()
        proc.stderr.close()


STUB_FAILING_CHECK = """
import sys
from hecke import bijection, cli
bijection.bijection_check = lambda K, mu: {"check": "stub", "pass": False}
sys.exit(cli.main(sys.argv[1:]))
"""


@pytest.mark.parametrize(
    "argv,stdin,code",
    [
        (("-m", "hecke.cli", "map", "rsk", "--p", "2"), '{"b": [[1]]}', 0),
        (("-m", "hecke.cli", "enum", "pairs", "--p", "2", "--mu", "2,1"), "", 0),
        (("-m", "hecke.cli", "verify", "bijection", "--p", "2", "--mu", "2,1"), "", 0),
        (("-c", STUB_FAILING_CHECK, "verify", "bijection", "--p", "2", "--mu", "2,1"), "", 1),
    ],
    ids=["map", "enum", "verify_pass", "verify_fail"],
)
@BUFFERING
def test_stdout_closed_before_any_output(argv, stdin, code, buffered):
    read_end, write_end = os.pipe()
    os.close(read_end)  # every write to stdout fails with EPIPE
    try:
        proc = subprocess.run(
            [sys.executable, *argv],
            input=stdin.encode(),
            stdout=write_end,
            stderr=subprocess.PIPE,
            env=child_env(buffered),
            timeout=120,
        )
    finally:
        os.close(write_end)
    assert (proc.returncode, proc.stderr) == (code, b"")


# -- import footprint ---------------------------------------------------------

FOOTPRINT = """
import sys
from hecke import cli

def loaded(when):
    print(when, *(m for m in sys.modules if m.split(".")[0] == "hecke"), file=sys.stderr)

read = cli.read_line
cli.read_line = lambda argv: loaded("reader:") or read(argv)
code = cli.main(sys.argv[1:]) if sys.argv[1:] else 0
loaded("end:")
print("parsers:", *(m for m in ("argparse", "gettext") if m in sys.modules), file=sys.stderr)
sys.exit(code)
"""

SHARED = {"hecke", "hecke.gf", "hecke.guards", "hecke.cli"}
INDEX = {"hecke.hecke_index", "hecke.matrices"}  # hecke_index imports matrices
WALK = {"hecke.shapes"}  # hecke_index imports shapes only where it walks or counts M_mu
RSK = {"hecke.rsk"}  # rsk imports shapes only where it enumerates tableaux
SHAPES = {"hecke.shapes"}  # loaded by the jobs that enumerate tableaux, when they do
RECORDS = {"hecke.records"}  # only `enum` and `map` load the records
MAPS = RECORDS | {"hecke.maps"}  # only `map` loads the readers; they write through records
CHECK = {"hecke.prices"}  # only `verify` loads the prices
A_OBJ = json.dumps({"mu": [2, 1], "entries": [["1+1*X^2", "1"], ["1", "1+1*X^1"]]})
V_OBJ = json.dumps({"perm": [1, 2, 3], "entries": [1, 1, 1]})


def loaded_modules(*argv, stdin="", code=0):
    """The hecke modules a fresh interpreter holds when it reads the line of
    one command (when it runs one) and after running it, and which of
    argparse and gettext it holds at the end."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    proc = subprocess.run(
        [sys.executable, "-c", FOOTPRINT, *argv],
        input=stdin,
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert proc.returncode == code, proc.stderr
    lines = [line.split() or [""] for line in proc.stderr.splitlines()]
    return {line[0]: set(line[1:]) for line in lines if line[0] in ("reader:", "end:", "parsers:")}


def test_import_cli_loads_only_the_shared_layers():
    assert loaded_modules() == {"end:": SHARED, "parsers:": set()}


@pytest.mark.parametrize(
    "argv,code,parsed",
    [
        (("--help",), 0, True),
        (("enum", "m_mu", "--help"), 0, True),
        (("enum", "m_mu", "--p", "2"), 2, True),
        (("enum", "m_mu", "--p", "4", "--mu", "2,1"), 2, False),
    ],
    ids=["help", "job help", "missing flag", "field refused"],
)
def test_argparse_loads_for_help_and_errors(argv, code, parsed):
    """argparse answers a help or malformed line, and the reader takes a
    line whose --p Field refuses; none of them loads a job's module."""
    loaded = loaded_modules(*argv, code=code)
    assert ("argparse" in loaded["parsers:"]) == parsed
    assert loaded["end:"] == SHARED


FOOTPRINTS = {  # id -> (argv, stdin, the modules loaded beyond SHARED)
    "enum_n_mu": (("enum", "n_mu", "--p", "2", "--mu", "2,1"), "", RECORDS | INDEX | WALK),
    "enum_m_mu": (("enum", "m_mu", "--p", "2", "--mu", "2,1"), "", RECORDS | INDEX | WALK),
    "enum_irreducibles": (("enum", "irreducibles", "--p", "2", "--max-deg", "3"), "", RECORDS),
    "enum_pairs": (("enum", "pairs", "--p", "2", "--mu", "2,1"), "", RECORDS | RSK | SHAPES),
    "map_a_to_v": (("map", "a_to_v", "--p", "2"), A_OBJ, MAPS | INDEX),
    "map_v_to_a": (("map", "v_to_a", "--p", "2", "--mu", "2,1"), V_OBJ, MAPS | INDEX),
    "map_rsk": (("map", "rsk", "--p", "2"), '{"b": [[1, 0], [0, 1]]}', MAPS | RSK),
    "map_rsk_general": (
        ("map", "rsk_general", "--p", "2"),
        A_OBJ,
        MAPS | RSK | {"hecke.matrices"},
    ),
    # From n = 4 over F_2, |U| > 27 and bijection_check skips the literal
    # membership test, the one part of it that calls the oracle.
    "verify_bijection": (
        ("verify", "bijection", "--p", "2", "--mu", "2,2"),
        "",
        CHECK | INDEX | WALK | {"hecke.bijection"},
    ),
    "verify_dim_identity": (
        ("verify", "dim_identity", "--p", "2", "--mu", "2,1"),
        "",
        CHECK | INDEX | WALK | RSK | {"hecke.bijection", "hecke.decomp"},
    ),
    "verify_rsk_bijectivity": (
        ("verify", "rsk_bijectivity", "--p", "2", "--mu", "2,1"),
        "",
        CHECK | INDEX | WALK | RSK | {"hecke.bijection"},
    ),
    "verify_basis": (
        ("verify", "basis", "--p", "2", "--mu", "2"),
        "",
        CHECK | INDEX | WALK | {"hecke.oracle"},
    ),
    "verify_commutativity": (
        ("verify", "commutativity", "--p", "2", "--n", "2"),
        "",
        CHECK | INDEX | WALK | {"hecke.oracle"},
    ),
    "verify_levi": (
        ("verify", "levi", "--p", "2", "--mu", "2,1"),
        "",
        CHECK | INDEX | WALK | {"hecke.oracle"},
    ),
    "verify_cosets": (
        ("verify", "cosets", "--p", "2", "--n", "2"),
        "",
        CHECK | INDEX | {"hecke.oracle"},
    ),
    "verify_pieri": (
        ("verify", "pieri", "--p", "2", "--nu", "2,1", "--vars", "3"),
        "",
        CHECK | {"hecke.decomp", "hecke.shapes"},
    ),
}


def test_footprints_cover_every_job():
    assert set(FOOTPRINTS) == {f"{command}_{job}" for command, job in every_job()}


@pytest.mark.parametrize("job", FOOTPRINTS)
def test_each_job_loads_only_its_layers(job):
    """Exactly its layers, none loaded before the job's line is read, and
    neither argparse nor gettext: the reader takes the line."""
    argv, stdin, extra = FOOTPRINTS[job]
    assert loaded_modules(*argv, stdin=stdin) == {
        "reader:": SHARED,
        "end:": SHARED | extra,
        "parsers:": set(),
    }


def test_only_verify_loads_the_prices_and_only_enum_and_map_the_records():
    for job, (argv, _, extra) in FOOTPRINTS.items():
        assert ("hecke.prices" in extra) == (argv[0] == "verify"), job
        assert ("hecke.records" in extra) == (argv[0] != "verify"), job
    assert "hecke.hecke_index" not in FOOTPRINTS["verify_pieri"][2]


def test_only_map_loads_the_readers_and_the_map_rsk_jobs_load_no_index_or_shapes():
    for job, (argv, _, extra) in FOOTPRINTS.items():
        assert ("hecke.maps" in extra) == (argv[0] == "map"), job
    for job in ("map_rsk", "map_rsk_general"):
        assert not {"hecke.hecke_index", "hecke.shapes"} & FOOTPRINTS[job][2], job


MOVED = {  # module -> (the names it holds alone, the modules that held them before)
    "records": (
        ("polymatrix_to_obj", "family_to_obj", "pair_to_obj")
        + ("_encode", "BLOCK", "_Writer", "cmd_enum")
        + ("m_mu_records", "n_mu_records", "irreducible_records", "pair_records"),
        ("gf", "hecke_index", "rsk", "cli", "maps"),
    ),
    "maps": (
        ("_TERM_RE", "_is_int", "element_from_obj", "parse_coeff", "parse_poly")
        + ("validate_m_mu", "monomial_from_obj", "polymatrix_from_obj", "family_from_obj")
        + ("_read_input", "cmd_map")
        + ("a_to_v_record", "v_to_a_record", "classical_record", "generalized_record"),
        ("records", "gf", "hecke_index", "rsk", "cli"),
    ),
    "prices": (
        ("pieri_work", "price_m_mu", "price_labels", "price_basis", "price_bruhat", "price_pieri"),
        ("guards",),
    ),
    "bijection": (
        ("enumerate_pattern_n_mu", "bijection_check", "rsk_bijectivity_check")
        + ("mat_inv", "is_unipotent_upper", "monomial_to_matrix", "psi_mu_eval"),
        ("hecke_index", "rsk", "oracle"),
    ),
}


@pytest.mark.parametrize("home", MOVED)
def test_each_moved_name_has_one_home(home):
    """A name that only some jobs read lives in the module those jobs load,
    and no copy or re-export is left where it was."""
    names, before = MOVED[home]
    module = importlib.import_module(f"hecke.{home}")
    assert [name for name in names if not hasattr(module, name)] == []
    for layer in before:
        held = vars(importlib.import_module(f"hecke.{layer}"))
        assert [name for name in names if name in held] == [], layer
