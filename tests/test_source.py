"""Each machine object is prepared once: its first build, encoding or check
trims and fingerprints it, and every later one reuses the
:class:`sltkit.Source` kept on the machine."""

import gc
import random
import weakref
from collections import Counter

import pytest

import sltkit as sk
from sltkit import construction

from conftest import corpus_text, random_member


@pytest.fixture
def calls(monkeypatch) -> Counter:
    """Counts of the calls made to ``trim`` and ``nfa_fingerprint`` through
    the construction module, which is where ``prepare`` looks them up."""
    counts: Counter = Counter()

    def counting(name, original):
        def call(m):
            counts[name] += 1
            return original(m)
        return call

    for name in ("trim", "nfa_fingerprint"):
        monkeypatch.setattr(construction, name, counting(name, getattr(construction, name)))
    return counts


def test_repeated_encodings_prepare_the_machine_once(calls):
    machine = sk.parse_nfa(corpus_text("nondet"))
    dec = sk.medvedev_main(machine, 2)
    rng = random.Random(14)
    words = []
    while len(words) < 200:
        word = random_member(machine, rng.randrange(3 * dec.m, 8 * dec.m), rng)
        if word is not None:
            words.append(word)
    for word in words:
        assert sk.encode_word(machine, dec, word) is not None
    assert sk.verify_decomposition(machine, dec).ok
    assert calls == {"trim": 1, "nfa_fingerprint": 1}


def test_corpus_run_prepares_each_machine_once(calls, tmp_path):
    machine = sk.parse_nfa(corpus_text("needs_sink"))
    (tmp_path / "needs_sink.nfa").write_text(corpus_text("needs_sink"))
    (tmp_path / "needs_sink.h2.dec").write_text(
        sk.serialize_decomposition(sk.medvedev_main(machine, 2)))
    calls.clear()
    report = sk.run_corpus(str(tmp_path), ratios=(2, 3))
    assert report.ok and len(report.entries) == 6
    assert calls == {"trim": 1, "nfa_fingerprint": 1}


def test_build_verify_and_encode_share_one_source():
    machine = sk.totalize(sk.parse_nfa(corpus_text("abplus")))
    source = sk.prepare(machine)
    assert sk.prepare(machine) is source
    assert source.machine is not machine and source.machine == sk.trim(machine)
    assert source.code(3) is source.code(3)
    dec = sk.medvedev_main(machine, 3)
    assert sk.prepare(machine) is source
    assert (dec.source_fingerprint, dec.m) == (source.fingerprint, source.code(3).m)


@pytest.mark.parametrize("name", ["aplus", "abplus", "nondet"])
def test_totalizing_keeps_the_fingerprint(name):
    machine = sk.parse_nfa(corpus_text(name))
    assert sk.prepare(sk.totalize(machine)).fingerprint == sk.prepare(machine).fingerprint
    assert sk.prepare(machine).fingerprint == sk.nfa_fingerprint(sk.trim(machine))


@pytest.mark.parametrize("total", [False, True], ids=["trim", "totalized"])
def test_the_source_dies_with_its_machine(total):
    machine = sk.parse_nfa(corpus_text("abplus"))
    if total:
        machine = sk.totalize(machine)
    source = sk.prepare(machine)
    assert (source.machine is machine) is not total
    ref = weakref.ref(source)
    del source
    gc.collect()
    assert ref() is sk.prepare(machine)
    del machine
    gc.collect()
    assert ref() is None
