import argparse
import os
import pathlib
import re
import resource
import shlex
import subprocess
import sys

import pytest

import sltkit as sk
from sltkit.cli import build_parser, main

from conftest import corpus_text


@pytest.fixture
def workdir(tmp_path) -> pathlib.Path:
    for name in ("aplus", "evens", "abbplus"):
        (tmp_path / f"{name}.nfa").write_text(corpus_text(name))
    return tmp_path


def run(capsys, *argv) -> tuple[int, str]:
    status = main([str(a) for a in argv])
    return status, capsys.readouterr().out


class TestBuildVerify:
    def test_build2_then_exact_verify(self, workdir, capsys):
        dec_path = workdir / "aplus.w2.dec"
        status, out = run(capsys, "build2", "--nfa", workdir / "aplus.nfa",
                          "--out", dec_path)
        assert status == 0 and dec_path.exists()
        status, out = run(capsys, "verify", "--nfa", workdir / "aplus.nfa",
                          "--dec", dec_path, "--mode", "exact")
        assert status == 0
        assert "verdict=pass" in out and "mode=exact" in out

    def test_build_then_bounded_verify(self, workdir, capsys):
        dec_path = workdir / "aplus.h2.dec"
        status, out = run(capsys, "build", "--nfa", workdir / "aplus.nfa",
                          "--ratio", 2, "--out", dec_path)
        assert status == 0 and "kind=main" in out
        status, out = run(capsys, "verify", "--nfa", workdir / "aplus.nfa",
                          "--dec", dec_path, "--mode", "bounded")
        assert status == 0 and "verdict=pass" in out and "horizon=16" in out

    def test_exact_is_the_default(self, workdir, capsys):
        dec_path = workdir / "aplus.h2.dec"
        run(capsys, "build", "--nfa", workdir / "aplus.nfa", "--ratio", 2, "--out", dec_path)
        status, out = run(capsys, "verify", "--nfa", workdir / "aplus.nfa", "--dec", dec_path)
        assert status == 0 and "mode=exact\nhorizon=-\n" in out

    def test_failing_verify_exits_one(self, workdir, capsys):
        dec = sk.medvedev_width2(sk.totalize(sk.parse_nfa(corpus_text("aplus"))))
        text = sk.serialize_decomposition(dec)
        mangled = "\n".join(line for line in text.splitlines()
                            if line != "q1|a.q1|a") + "\n"
        dec_path = workdir / "broken.dec"
        dec_path.write_text(mangled)
        status, out = run(capsys, "verify", "--nfa", workdir / "aplus.nfa",
                          "--dec", dec_path, "--mode", "exact")
        assert status == 1 and "verdict=FAIL" in out and "missing=" in out

    def test_residual_letter_outside_the_alphabet_is_input_error(self, workdir, capsys):
        dec = sk.medvedev_main(sk.parse_nfa(corpus_text("aplus")), 2)
        text = sk.serialize_decomposition(dec)
        assert text.endswith("\nRESIDUAL\n")
        dec_path = workdir / "foreign.dec"
        dec_path.write_text(text + "a.z\n")
        status = main(["verify", "--nfa", str(workdir / "aplus.nfa"), "--dec", str(dec_path)])
        captured = capsys.readouterr()
        assert status == 2 and captured.out == ""
        assert "unknown letter: 'z'" in captured.err

    def test_ratio_warning_counts_prepared_states(self, tmp_path, capsys):
        nfa_path = tmp_path / "needs_sink.nfa"
        nfa_path.write_text(corpus_text("needs_sink"))
        status = main(["build", "--nfa", str(nfa_path), "--ratio", "2",
                       "--out", str(tmp_path / "needs_sink.h2.dec")])
        captured = capsys.readouterr()
        assert status == 0 and "m=4" in captured.out
        assert "warning: ratio 2 >= state count 2;" in captured.err

    def test_missing_argument_is_usage_error(self, workdir, capsys):
        assert main(["verify", "--nfa", str(workdir / "aplus.nfa")]) == 2

    def test_missing_file_is_input_error(self, workdir, capsys):
        status = main(["build2", "--nfa", str(workdir / "nope.nfa"),
                       "--out", str(workdir / "x.dec")])
        assert status == 2


class TestEncodeDecode:
    def test_round_trip(self, workdir, capsys):
        dec_path = workdir / "aplus.h2.dec"
        run(capsys, "build", "--nfa", workdir / "aplus.nfa", "--ratio", 2,
            "--out", dec_path)
        word = ".".join(["a"] * 12)
        status, out = run(capsys, "encode", "--nfa", workdir / "aplus.nfa",
                          "--dec", dec_path, "--word", word)
        assert status == 0
        encoded = out.strip()
        status, out = run(capsys, "decode", "--dec", dec_path, "--word", encoded)
        assert status == 0 and out.strip() == word

    def test_short_word_is_encoded(self, workdir, capsys):
        dec_path = workdir / "aplus.h2.dec"
        run(capsys, "build", "--nfa", workdir / "aplus.nfa", "--ratio", 2,
            "--out", dec_path)
        status, out = run(capsys, "encode", "--nfa", workdir / "aplus.nfa",
                          "--dec", dec_path, "--word", "a.a")
        assert status == 0 and out.strip() == "a|0.a|1"  # the first two digits of 0100
        status, out = run(capsys, "decode", "--dec", dec_path, "--word", out.strip())
        assert status == 0 and out.strip() == "a.a"

    def test_non_member_is_input_error(self, workdir, capsys):
        dec_path = workdir / "evens.h2.dec"
        run(capsys, "build", "--nfa", workdir / "evens.nfa", "--ratio", 2,
            "--out", dec_path)
        status = main(["encode", "--nfa", str(workdir / "evens.nfa"),
                       "--dec", str(dec_path), "--word", "a.b"])
        assert status == 2

    def test_decomposition_of_another_machine_is_input_error(self, tmp_path, capsys):
        for name in ("abplus", "abbplus"):
            (tmp_path / f"{name}.nfa").write_text(corpus_text(name))
        dec_path = tmp_path / "abbplus.h3.dec"
        run(capsys, "build", "--nfa", tmp_path / "abbplus.nfa", "--ratio", 3,
            "--out", dec_path)
        status = main(["encode", "--nfa", str(tmp_path / "abplus.nfa"),
                       "--dec", str(dec_path), "--word", "a.b." * 5 + "a.b"])
        assert status == 2
        assert "built for machine" in capsys.readouterr().err

    def test_verify_notices_a_decomposition_of_another_machine(self, tmp_path, capsys):
        for name in ("abplus", "abbplus"):
            (tmp_path / f"{name}.nfa").write_text(corpus_text(name))
        dec_path = tmp_path / "abbplus.h3.dec"
        run(capsys, "build", "--nfa", tmp_path / "abbplus.nfa", "--ratio", 3,
            "--out", dec_path)
        status, out = run(capsys, "verify", "--nfa", tmp_path / "abplus.nfa",
                          "--dec", dec_path, "--mode", "exact")
        assert status == 1 and "verdict=FAIL" in out
        notice = next(line for line in out.splitlines() if line.startswith("notice="))
        assert "decomposition was built for machine" in notice
        status, out = run(capsys, "verify", "--nfa", tmp_path / "abbplus.nfa",
                          "--dec", dec_path, "--mode", "exact")
        assert status == 0 and "notice=" not in out


class TestRecognize:
    def test_batch_and_stream_agree(self, workdir, capsys, monkeypatch):
        import io
        dec_path = workdir / "aplus.w2.dec"
        run(capsys, "build2", "--nfa", workdir / "aplus.nfa", "--out", dec_path)
        lines = "q0|a.q1|a\nq1|a\n\nq0|a.oops\n"
        monkeypatch.setattr("sys.stdin", io.StringIO(lines))
        status, out = run(capsys, "recognize", "--dec", dec_path)
        assert status == 0
        assert out.splitlines() == ["accept", "reject", "reject # empty word",
                                    "reject # unknown symbol: oops"]
        spec = sk.parse_decomposition(dec_path.read_text()).slt
        for line, verdict in zip(lines.splitlines()[:2], out.splitlines()):
            recognizer = sk.StreamRecognizer(spec)
            for symbol in sk.parse_word(line):
                recognizer.feed(symbol)
            assert recognizer.finish() == (verdict == "accept")


class TestTablesAndCodes:
    def test_code_output(self, capsys):
        status, out = run(capsys, "code", "--states", 2, "--ratio", 2)
        assert status == 0
        assert out.splitlines() == ["h 2", "m 4", "state 0 0100", "state 1 1100"]

    def test_table_values_and_determinism(self, capsys):
        status, first = run(capsys, "table", "--h", "2,3", "--n", "10,1e3")
        assert status == 0
        assert "h=2 f=1.4404 g=4.1127" in first
        assert "width h=2 n=10 closed=18 exact=16" in first
        assert "width h=3 n=1000 closed=20 exact=20" in first
        status, second = run(capsys, "table", "--h", "2,3", "--n", "10,1e3")
        assert first == second

    def test_huge_n_stays_exact(self, capsys):
        status, out = run(capsys, "table", "--h", "1000", "--n", "1e40")
        assert "width h=1000 n=" + "1" + "0" * 40 + " closed=32" in out

    @pytest.mark.parametrize("flag", ["--h", "--n"])
    def test_negative_exponent_is_a_usage_error(self, capsys, flag):
        assert main(["table", flag, "2,25e-1"]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "not an integer: '25e-1'" in captured.err

    @pytest.mark.parametrize("flag", ["--h", "--n"])
    def test_empty_exponent_is_a_usage_error(self, capsys, flag):
        assert main(["table", flag, "2,10e"]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "not an integer: '10e'" in captured.err

    @pytest.mark.parametrize("h,n", [("2", "1"), ("2,1", "10")])
    def test_bad_input_prints_nothing(self, capsys, h, n):
        assert main(["table", "--h", h, "--n", n]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("error: ")

    def test_minwidth(self, workdir, capsys):
        status, out = run(capsys, "minwidth", "--nfa", workdir / "abbplus.nfa", "--max-k", 6)
        assert status == 0 and out.strip() == "width=3"
        status, out = run(capsys, "minwidth", "--nfa", workdir / "evens.nfa", "--max-k", 8)
        assert status == 0 and out.strip() == "width=none"


class TestCaps:
    @pytest.mark.parametrize("command,flag,value", [
        ("verify", "--cap", "-1"), ("verify", "--cap", "0"),
        ("verify", "--cap", "-5"), ("corpus", "--cap", "-1"), ("build", "--cap", "0"),
        ("minwidth", "--cap", "0")])
    def test_cap_below_one_is_a_usage_error(self, workdir, capsys, command, flag, value):
        nfa, dec = workdir / "aplus.nfa", workdir / "aplus.w2.dec"
        assert main(["build2", "--nfa", str(nfa), "--out", str(dec)]) == 0
        capsys.readouterr()
        argv = {"verify": ["--nfa", nfa, "--dec", dec, "--mode", "exact"],
                "corpus": ["--dir", workdir],
                "build": ["--nfa", nfa, "--ratio", 2, "--out", workdir / "aplus.h2.dec"],
                "minwidth": ["--nfa", nfa, "--max-k", 4]}[command]
        assert main([str(a) for a in (command, *argv, flag, value)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"argument {flag}: a cap must be at least 1, got {int(value)}" in captured.err


    def test_state_cap_is_gone(self, workdir, capsys):
        nfa, dec = workdir / "aplus.nfa", workdir / "aplus.w2.dec"
        assert main(["build2", "--nfa", str(nfa), "--out", str(dec)]) == 0
        capsys.readouterr()
        assert main(["verify", "--nfa", str(nfa), "--dec", str(dec), "--state-cap", "5"]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "unrecognized arguments: --state-cap 5" in captured.err

    @pytest.mark.parametrize("command,mode,value", [
        ("verify", "exact", "0"), ("verify", "bounded", "-1"),
        ("corpus", "exact", "0"), ("corpus", "bounded", "0")])
    def test_horizon_below_one_is_a_usage_error(self, workdir, capsys, command, mode, value):
        nfa, dec = workdir / "aplus.nfa", workdir / "aplus.w2.dec"
        assert main(["build2", "--nfa", str(nfa), "--out", str(dec)]) == 0
        capsys.readouterr()
        argv = {"verify": ["--nfa", nfa, "--dec", dec], "corpus": ["--dir", workdir]}[command]
        assert main([str(a) for a in (command, *argv, "--mode", mode, "--maxlen", value)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"argument --maxlen: a horizon must be at least 1, got {value}" in captured.err


class TestRefuteCommand:
    CANDIDATE = """\
kind width2
k 2
symbol a1 -> a
symbol a2 -> a
symbol b1 -> b
I
a1
b1
T
a2
b1
F
a1.a2
a2.a1
b1.b1
SHORT
RESIDUAL
"""

    def test_witness_found_exits_one(self, tmp_path, capsys):
        path = tmp_path / "cand.dec"
        path.write_text(self.CANDIDATE)
        status, out = run(capsys, "refute", "--dec", path, "--alphabet-size", 2)
        assert status == 1
        assert "witness=b.b.b" in out and "unique_preimage=b1" in out

    def test_image_size_mismatch(self, tmp_path, capsys):
        path = tmp_path / "cand.dec"
        path.write_text(self.CANDIDATE)
        assert main(["refute", "--dec", str(path), "--alphabet-size", "3"]) == 2


class TestCorpusCommand:
    def test_converges_and_reports(self, workdir, capsys):
        status, out = run(capsys, "corpus", "--dir", workdir, "--ratio", "2")
        assert status == 0
        lines = out.splitlines()
        assert lines[-1].startswith("tasks=") and lines[-1].endswith("failures=0")
        assert any(line.startswith("file=aplus.nfa task=width2 result=pass")
                   for line in lines)

    def test_exact_is_the_default(self, workdir, capsys):
        status, out = run(capsys, "corpus", "--dir", workdir, "--ratio", "2")
        assert status == 0
        assert out == run(capsys, "corpus", "--dir", workdir, "--ratio", "2", "--mode", "exact")[1]
        mains = [line for line in out.splitlines() if "task=main h=2" in line]
        assert len(mains) == 3 and all(line.endswith(" mode=exact") for line in mains)

    def test_missing_directory_is_an_input_error(self, tmp_path, capsys):
        assert main(["corpus", "--dir", str(tmp_path / "missing")]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "not a directory" in captured.err
        status, out = run(capsys, "corpus", "--dir", tmp_path)
        assert status == 0 and out == "tasks=0 failures=0\n"

    def test_negative_exponent_ratio_is_a_usage_error(self, capsys):
        assert main(["corpus", "--dir", sk.corpus_dir(), "--ratio", "25e-1"]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "not an integer: '25e-1'" in captured.err


def run_module(module: str, *argv: str) -> subprocess.CompletedProcess:
    src = str(pathlib.Path(sk.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    return subprocess.run([sys.executable, "-m", module, *argv], env=env,
                          capture_output=True, text=True, timeout=60)


def limited_run(*argv: str) -> subprocess.CompletedProcess:
    """``python -m sltkit`` with its address space capped at 1 GiB, so that
    an alphabet built by mistake ends the child, not the machine."""
    src = str(pathlib.Path(sk.__file__).resolve().parent.parent)
    cap = (2**30, 2**30)
    return subprocess.run([sys.executable, "-m", "sltkit", *argv],
                          env={**os.environ, "PYTHONPATH": src}, capture_output=True,
                          text=True, timeout=60,
                          preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, cap))


LIMIT = "exceeds the index-string limit of 1114112"


@pytest.mark.parametrize("argv,message", [
    (["code", "--states", "3", "--ratio", "1000000000"],
     f"digit alphabet of 1000000000 symbols {LIMIT}"),
    (["corpus", "--dir", sk.corpus_dir(), "--ratio", "1e9"],
     f"digit alphabet of 1000000000 symbols {LIMIT}"),
    (["build", "--nfa", str(pathlib.Path(sk.corpus_dir()) / "abplus.nfa"),
      "--ratio", "600000", "--out", "unwritten.dec"],
     f"local alphabet of 1200000 symbols {LIMIT}"),
], ids=["code", "corpus", "build"])
def test_alphabet_past_the_index_string_limit_is_an_input_error(tmp_path, argv, message):
    # digits and local symbols are characters of index strings
    argv = [str(tmp_path / a) if a.endswith(".dec") else a for a in argv]
    result = limited_run(*argv)
    assert result.returncode == 2, result.stderr
    assert result.stdout == "" and "Traceback" not in result.stderr
    assert result.stderr.splitlines()[-1] == f"error: {message}"
    assert not (tmp_path / "unwritten.dec").exists()


def test_python_dash_m_runs_the_cli():
    result = run_module("sltkit", "--help")
    assert result.returncode == 0, result.stderr
    assert result.stdout.startswith("usage: sltkit")


def test_python_dash_m_runs_the_cli_module():
    result = run_module("sltkit.cli", "--help")
    assert result.returncode == 0, result.stderr
    assert result.stdout.startswith("usage: sltkit")


README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


def readme_commands() -> list[str]:
    """The ``sltkit`` lines of README's "Command line" section, each taken
    after the last ``| `` of a pipeline."""
    readme = README.read_text()
    section = readme.split("\n## Command line\n", 1)[1].split("\n## ", 1)[0]
    lines = (line.rpartition("| ")[2] for line in section.splitlines())
    return [line for line in lines if line.startswith("sltkit ")]


def test_readme_commands_parse():
    commands = readme_commands()
    assert len(commands) == 12
    parser = build_parser()
    for command in commands:
        try:
            parser.parse_args(shlex.split(command)[1:])
        except SystemExit:
            pytest.fail(f"README command does not parse: {command}")


def readme_flags() -> set[str]:
    """Every ``--flag`` README names in prose, in a comment or on a line
    that runs ``sltkit``; other programs' command lines are skipped."""
    flags, fenced = set(), False
    for line in README.read_text().splitlines():
        if line.startswith("```"):
            fenced = not fenced
            continue
        code = line.partition("#")[0] if fenced else ""
        if not code.strip() or "sltkit " in code:
            flags.update(re.findall(r"(?<![\w-])--[a-z][a-z-]*", line))
    return flags


def test_readme_flags_exist():
    parser = build_parser()
    commands = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    known = {flag for sub in commands.choices.values() for flag in sub._option_string_actions}
    flags = readme_flags()
    assert {"--mode", "--maxlen", "--cap", "--max-k"} <= flags
    assert flags <= known, f"README names unknown flags: {sorted(flags - known)}"


def test_cap_help_names_what_each_cap_bounds():
    # nothing is enumerated: the caps bound automata, window sets and searches
    parser = build_parser()
    commands = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    helps = {name: sub._option_string_actions["--cap"].help
             for name, sub in commands.choices.items() if "--cap" in sub._option_string_actions}
    assert sorted(helps) == ["build", "corpus", "minwidth", "verify"]
    assert not any("enumerat" in text for text in helps.values())
    assert all(text.startswith("cap on ") for text in helps.values())
    assert "the short words" in helps["build"] and "the compiled spec" in helps["minwidth"]
