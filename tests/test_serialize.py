"""The ``.dec`` writer against the line-at-a-time reference layout, and the
symbol names it refuses because they would read back as section headers."""

import sys

import pytest
from hypothesis import given, settings, strategies as st

import sltkit as sk
from sltkit import Nfa
from sltkit.cli import main

from conftest import CORPUS_NAMES, corpus_text, reference_serialize

HEADERS = ("I", "T", "F", "SHORT", "RESIDUAL")


def assert_writes_the_reference(dec):
    text = sk.serialize_decomposition(dec)
    assert text == reference_serialize(dec)
    assert sk.parse_decomposition(text) == dec


@st.composite
def hand_made(draw):
    """Main decompositions over up to 300 symbols, so that the separator is
    past one byte, with any section empty, short words of every length
    below the width, and a residual of one- to three-letter words."""
    size = draw(st.integers(1, 300))
    width = draw(st.integers(2, 4))
    index = st.sampled_from([chr(b) for b in range(size)])

    def words(lo, hi):
        return draw(st.lists(st.text(index, min_size=lo, max_size=hi), max_size=12))

    alphabet = tuple(f"s{b}" for b in range(size))
    spec = sk.SltSpec(width=width, alphabet=alphabet, prefixes=words(width - 1, width - 1),
                      suffixes=words(width - 1, width - 1), factors=words(width, width),
                      short_words=words(1, width - 1))
    letters = st.sampled_from(("a", "b", "F"))  # a letter may be named like a header
    pi = sk.Homomorphism(tuple((s, draw(letters)) for s in alphabet))
    residual = draw(st.lists(st.lists(st.sampled_from(("a", "b")), min_size=1, max_size=3)
                             .map(tuple), max_size=6))
    return sk.Decomposition(kind="main", slt=spec, pi=pi, residual=residual, h=2, m=2,
                            source_fingerprint=draw(st.sampled_from(("", "0123abcd"))))


@settings(max_examples=200, deadline=None)
@given(dec=hand_made())
def test_hand_made_sections_are_written_as_the_reference(dec):
    assert_writes_the_reference(dec)


@st.composite
def cycles(draw):
    """Machines of 6 to 8 states that trimming keeps whole: an a-cycle
    through every state, the last state final, and random further moves."""
    n = draw(st.integers(6, 8))
    moves = [(q, "a", (q + 1) % n) for q in range(n)]
    moves += draw(st.lists(st.tuples(st.integers(0, n - 1), st.sampled_from("ab"),
                                     st.integers(0, n - 1)), max_size=2 * n))
    finals = draw(st.frozensets(st.integers(1, n - 1))) | {n - 1}
    return Nfa(n=n, alphabet=("a", "b"), transitions=tuple(moves), initial=0, finals=finals)


@settings(max_examples=60, deadline=None)
@given(machine=cycles(), h=st.integers(2, 4))
def test_builds_are_written_as_the_reference(machine, h):
    width2 = sk.medvedev_width2(machine)
    assert len(width2.slt.alphabet) >= 12
    assert_writes_the_reference(width2)
    try:
        main_build = sk.medvedev_main(machine, h, cap=20_000)
    except sk.CapacityError:
        return
    assert_writes_the_reference(main_build)


@pytest.mark.parametrize("name", CORPUS_NAMES)
def test_corpus_builds_are_written_as_the_reference(machines, build_main, name):
    assert_writes_the_reference(sk.medvedev_width2(machines[name]))
    for h in (2, 3, 4):
        assert_writes_the_reference(build_main(name, h))


@pytest.mark.parametrize("spare", [0, 1], ids=["full", "one-free"])
def test_an_alphabet_that_fills_the_index_strings_is_written_too(build_main, monkeypatch,
                                                                  spare):
    # an alphabet of sys.maxunicode + 1 symbols leaves no code point free to
    # separate words; a lowered sys.maxunicode makes this one that large
    dec = build_main("nondet", 2)
    with monkeypatch.context() as patch:
        patch.setattr(sys, "maxunicode", len(dec.slt.alphabet) - 1 + spare)
        text = sk.serialize_decomposition(dec)
    assert text == reference_serialize(dec)


def header_spec(symbols):
    # every section holds the one-symbol word of the first symbol
    return sk.SltSpec(width=2, alphabet=symbols, prefixes=("\0",), suffixes=("\0",),
                      factors=("\0\0",), short_words=("\0",))


@pytest.mark.parametrize("name", HEADERS)
def test_a_symbol_named_like_a_header_is_not_serializable(name):
    symbols = (name, "x")
    dec = sk.Decomposition(kind="width2", slt=header_spec(symbols),
                           pi=sk.Homomorphism(((name, "a"), ("x", "b"))))
    with pytest.raises(ValueError, match=f"symbol named like a section header: '{name}'"):
        sk.serialize_decomposition(dec)


def test_the_reported_round_trip_is_refused_not_changed():
    # F and T were written as lines "F" under I, T and SHORT, which read
    # back as headers: a decomposition with those sections empty, and no
    # error; the text the line-at-a-time writer gives is refused on reading
    dec = sk.Decomposition(kind="width2", slt=header_spec(("F", "T")),
                           pi=sk.Homomorphism((("F", "a"), ("T", "b"))))
    with pytest.raises(ValueError, match="section header: 'F'"):
        sk.serialize_decomposition(dec)
    text = reference_serialize(dec)
    assert "\nI\nF\nT\nF\nF\nF.F\nSHORT\nF\n" in text
    with pytest.raises(sk.ParseError, match="^line 3: symbol named like a section header"):
        sk.parse_decomposition(text)


@pytest.mark.parametrize("name", HEADERS)
def test_a_one_letter_residual_word_named_like_a_header_is_not_serializable(name):
    spec = header_spec(("x",))
    pi = sk.Homomorphism((("x", name),))
    dec = sk.Decomposition(kind="main", slt=spec, pi=pi, residual=((name,),), h=2, m=2)
    with pytest.raises(ValueError,
                       match=f"residual word named like a section header: '{name}'"):
        sk.serialize_decomposition(dec)
    # a longer word, and a letter, may carry the name
    longer = sk.Decomposition(kind="main", slt=spec, pi=pi, residual=((name, name),),
                              h=2, m=2)
    assert_writes_the_reference(longer)


HEADER_SYMBOL_DEC = "kind width2\nk 2\nsymbol x -> a\nsymbol F -> b\nI\nx\nT\nx\nF\nx.x\n"


def test_parse_names_the_line_of_a_symbol_named_like_a_header():
    with pytest.raises(sk.ParseError,
                       match="^line 4: symbol named like a section header: 'F'$"):
        sk.parse_decomposition(HEADER_SYMBOL_DEC)


@pytest.mark.parametrize("command", ["verify", "decode"])
def test_cli_refuses_a_symbol_named_like_a_header(tmp_path, capsys, command):
    (tmp_path / "aplus.nfa").write_text(corpus_text("aplus"))
    dec_path = tmp_path / "header.dec"
    dec_path.write_text(HEADER_SYMBOL_DEC)
    argv = {"verify": ["--nfa", str(tmp_path / "aplus.nfa")], "decode": ["--word", "x"]}
    assert main([command, "--dec", str(dec_path), *argv[command]]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: line 4: symbol named like a section header: 'F'\n"
