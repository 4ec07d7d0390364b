"""Pinned ``serialize_decomposition`` output and CLI stdout.

The build digests were computed before local words became index strings
inside the spec; the serialized form must not change with the
representation.  The random machines are the ``total-dfa`` benchmark's,
drawn by the benchmark's own generator.  The CLI digests were computed
before verification compiled the spec straight onto source letters; what
``sltkit corpus`` and ``sltkit verify`` print must not change with how the
claimed language is searched.
"""

import hashlib
import importlib.util
import pathlib
import random

import pytest

import sltkit as sk
from sltkit.cli import main

from conftest import CORPUS_NAMES, corpus_text
from test_verification_reference import mutate

GEN_PATH = pathlib.Path(__file__).resolve().parents[1] / "bench" / "gen.py"

CORPUS_DIGESTS = {
    ("abbplus", "width2"): "b137cbef503e6ce66f66072d27b8f40781bf238b27f80c9e5eb77d4952d1c154",
    ("abbplus", 2): "b757273ff51745788ba604a136a022069bbbe43c77165b4bb9fe9e9016e45e86",
    ("abbplus", 3): "55ac40800022840e4a91b331e82ec058ba8a72a48766c376f0095471c8010f95",
    ("abplus", "width2"): "4e4a6cd045e22697de89216f51ac18d000e28cdad1d26999f052b179d11343d7",
    ("abplus", 2): "847ef5c5e8c50ace4b536086e04bfeb6f517bdf81ba0d89251128020ca749a97",
    ("abplus", 3): "85663d9c9b7fbe21bca401c49a3cd8252160ec2ed18826b8efeb3ee016834806",
    ("aplus", "width2"): "ae91026572366b3d32e9dbad237504236880fe60a62903c7a6cc61647b1f00e5",
    ("aplus", 2): "788883a4ba6e104c1b01a0581c95a2fa66d7f7227e4d112c6e7d2b2373648cfc",
    ("aplus", 3): "a2ea78f750bac963dec42949df5e522e34ffc7fdd220a56508a7d31498c1845c",
    ("evens", "width2"): "6f63e22e6c202fc3061350bff1a7d744906dad61670aefa9ee61873ea93218cf",
    ("evens", 2): "e899e13e52162cc383bfb6339c731f12a082a5d996f8886c805f695becf2a47d",
    ("evens", 3): "ebc53b1f5ee0feb350bebd268f830c8b4ceb2ce8488904079a1af9ba2948b684",
    ("needs_sink", "width2"): "ed384a344620048debab8c0a1233a9a9133b2dd996c4aabd366b3d950b710e25",
    ("needs_sink", 2): "601e73d79e8c29f080578d7922d46ca193a526783be6307a38e03f05e9877bc1",
    ("needs_sink", 3): "2d81cfcbce4ff8d510602e58e8a164fbaf344fdab3559aa8e1a27c94969ed26a",
    ("nondet", "width2"): "09b5c0005474541cca72d0c4f10970b1f44e94373d8c89c3894660908be2aa8f",
    ("nondet", 2): "412b1fbec27f0c3ae10274f29fe3d0af424ce5ef930de11e1a9222991875bfe0",
    ("nondet", 3): "715293686d6d7049f34ddc06b182d81925bfb69aec055b521caf5420f4737eea",
}

# (seed, states, ratio) -> digest; per seed the machines are drawn in this order
RANDOM_DFA_CASES = ((8, 4), (16, 4), (32, 4), (8, 9))
RANDOM_DFA_DIGESTS = {
    (1, 8, 4): "7474d475429a500d63d9e7c7be6337799a1fbb51356b833f627cb70c4b1eff42",
    (1, 16, 4): "9268ea893dedd0187f450aad19e5c8a5ada2e793bf9276d9ced05c42faaef154",
    (1, 32, 4): "92aa402b42d4fb27a2b7d9561871bc13fe1e6101ee6e101890e7191ec1dc11b5",
    (1, 8, 9): "ba9f657e809c46c648f38d4ce96bbbdb80d8f3790910bfe48ff2fa9ce05ec055",
    (2, 8, 4): "087c5d558a8154249d2063bee5d9dd8b51c766224b3633d8e21e81a27fb39894",
    (2, 16, 4): "d3a098571ff9cca1674c792e252a35ef712c69d24d6cfffeb41190e5505d2bf6",
    (2, 32, 4): "147dc1bb7d7fa0cb5b13e9a8ef056019c03ae2020cff8a42aec0c430f7986e11",
    (2, 8, 9): "0043ec23f847d44ae7c7db7685a2f4b89facd6d202300d72c616bf186d6d5460",
}


def digest(dec: sk.Decomposition) -> str:
    return hashlib.sha256(sk.serialize_decomposition(dec).encode()).hexdigest()


def random_total_dfa_text():
    spec = importlib.util.spec_from_file_location("bench_gen", GEN_PATH)
    gen = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(gen)
    return gen.random_total_dfa_text


@pytest.mark.parametrize("kind", ["width2", 2, 3])
@pytest.mark.parametrize("name", CORPUS_NAMES)
def test_corpus_builds_are_pinned(machines, build_main, name, kind):
    dec = sk.medvedev_width2(machines[name]) if kind == "width2" else build_main(name, kind)
    assert digest(dec) == CORPUS_DIGESTS[(name, kind)]


@pytest.mark.parametrize("seed", [1, 2])
def test_random_total_dfa_builds_are_pinned(seed):
    draw = random_total_dfa_text()
    rng = random.Random(seed)
    for n, h in RANDOM_DFA_CASES:
        dec = sk.medvedev_main(sk.parse_nfa(draw(rng, n)), h)
        assert digest(dec) == RANDOM_DFA_DIGESTS[(seed, n, h)], (seed, n, h)


# sha256 of stdout (with the exit status of each run) of `sltkit corpus` on
# the bundled directory, and of `sltkit verify` on the 18 corpus builds and
# on one mutation of each, per mode.  The mutation digests were recomputed
# when the compiled spec started to accept short words below k-1 that
# nothing extends: the abbplus h=3 mutation adds one such short word,
# b|0.a|0.b|0.a|0.b|1.b|1, whose image b.a.b.a.b.b is not in the machine's
# language, and its verdict changed from a wrong pass to that extra word.
CLI_DIGESTS = {
    ("corpus", "exact"):
        "0306a8a1c2863ddafc882ccc0d324b6d324e193528a6f2c6ffb23070674c69b6",
    ("corpus", "bounded"):
        "ce26fdabd48bfe187464e4a7c7f9bd43112266178266d7d909755df16b21d2db",
    ("verify builds", "exact"):
        "933299045cb43c5fabf0d725e353541a4376babadad911ad88c8ba0506c1bb1d",
    ("verify builds", "bounded"):
        "1dd4fe342d04f0596ca6fdba0b80ef53171828edfb834e936814b49da8bfcc05",
    ("verify mutations", "exact"):
        "52a75226c52abb44e2cb8a432c9fed1439e3578f7c303ac78f18a425c91a47c3",
    ("verify mutations", "bounded"):
        "35728ea7fcde7ad46d2fcddb3fcca16fa2fc921d0aec73f8965c3683e5eea814",
}


def cli_stdout(capsys, *argv) -> str:
    status = main([str(a) for a in argv])
    return capsys.readouterr().out + f"status={status}\n"


def verify_stdout(capsys, tmp_path, machines, decs, mode) -> str:
    out = []
    for (name, kind), dec in decs:
        nfa_path, dec_path = tmp_path / f"{name}.nfa", tmp_path / f"{name}.{kind}.dec"
        nfa_path.write_text(corpus_text(name))
        dec_path.write_text(sk.serialize_decomposition(dec))
        out.append(f"{name} {kind}\n")
        out.append(cli_stdout(capsys, "verify", "--nfa", nfa_path, "--dec", dec_path,
                              "--mode", mode))
    return "".join(out)


def corpus_builds(machines, build_main):
    return [((name, kind), sk.medvedev_width2(machines[name]) if kind == "width2"
             else build_main(name, kind))
            for name in CORPUS_NAMES for kind in ("width2", 2, 3)]


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("mode", ["exact", "bounded"])
def test_corpus_cli_stdout_is_pinned(capsys, mode):
    out = cli_stdout(capsys, "corpus", "--dir", sk.corpus_dir(), "--ratio", "2,3",
                     "--mode", mode)
    assert sha256(out) == CLI_DIGESTS[("corpus", mode)]


@pytest.mark.parametrize("mode", ["exact", "bounded"])
def test_verify_cli_stdout_is_pinned(capsys, tmp_path, machines, build_main, mode):
    out = verify_stdout(capsys, tmp_path, machines, corpus_builds(machines, build_main), mode)
    assert sha256(out) == CLI_DIGESTS[("verify builds", mode)]


@pytest.mark.parametrize("mode", ["exact", "bounded"])
def test_verify_cli_stdout_on_mutations_is_pinned(capsys, tmp_path, machines, build_main,
                                                  mode):
    decs = [(key, mutate(dec, random.Random(f"golden {key}")))
            for key, dec in corpus_builds(machines, build_main)]
    out = verify_stdout(capsys, tmp_path, machines, decs, mode)
    assert sha256(out) == CLI_DIGESTS[("verify mutations", mode)]
