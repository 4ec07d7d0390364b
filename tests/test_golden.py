"""Pinned ``serialize_decomposition`` output and CLI stdout.

The width-2 digests were computed before local words became index strings
inside the spec; the serialized form must not change with the
representation.  The main digests were recomputed when the source words
shorter than 2m became block-encoded short words in place of a residual of
the words shorter than 3m, and again when the window narrowed from 2m to
2m-2, with the short words below 2m-2; each of those builds verifies
exactly and has no residual.  The random machines are
the ``total-dfa`` benchmark's, drawn by the benchmark's own generator.
The ``corpus`` digests were computed before verification compiled the
spec straight onto source letters; what ``sltkit corpus`` and ``sltkit
verify`` print must not change with how the claimed language is searched.
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
    ("abbplus", 2): "c8c3ac267a0a042d9b6af13e2f30e1bf38718c578c8d2531b99c58306e042667",
    ("abbplus", 3): "d1ab845fa2d74e877739f2d860cd93be80204de9d786dca62cefec5c5bd6daa2",
    ("abplus", "width2"): "4e4a6cd045e22697de89216f51ac18d000e28cdad1d26999f052b179d11343d7",
    ("abplus", 2): "7bf6db3f251d09750a5047da8acf75cd8ec22a634699c4a601ee843b17f107c8",
    ("abplus", 3): "5e067945034749f9e0c49d9124d4ad5b0135c3aff28d295020b0fb82d2d60eac",
    ("aplus", "width2"): "ae91026572366b3d32e9dbad237504236880fe60a62903c7a6cc61647b1f00e5",
    ("aplus", 2): "023f0e4805da5449fe7de8d753d81ea14bc58bb57b867f6845441beeb1c9f217",
    ("aplus", 3): "af7b7e2af5fa0a8fe4deed79aaa7e41b30b30ab93f2c15c1ee7cc33b175d8c4b",
    ("evens", "width2"): "6f63e22e6c202fc3061350bff1a7d744906dad61670aefa9ee61873ea93218cf",
    ("evens", 2): "de3712f1c04e2b133716a9ccb46b905a047b6ba3008e34e1deedcaaaeaf83c14",
    ("evens", 3): "c0bd031396b374483eba1567c73a761988bb5d9ac9cc67055df0941107b38c16",
    ("needs_sink", "width2"): "ed384a344620048debab8c0a1233a9a9133b2dd996c4aabd366b3d950b710e25",
    ("needs_sink", 2): "d9e3287f3873e65760edadd2506ef714af15a0f4abbde7a464b34ec1fb3e328e",
    ("needs_sink", 3): "74ddbf1e3815b72c1c5772d1aa1922e1c00ad52b30925c26c50dc405f3f29d36",
    ("nondet", "width2"): "09b5c0005474541cca72d0c4f10970b1f44e94373d8c89c3894660908be2aa8f",
    ("nondet", 2): "409a01018211904d84e71ae498f508c8d05d658e73592f2c8e3b7a5415283e24",
    ("nondet", 3): "fb893490ad015092df0adf7b6ed6b588abd96ee36cf680b18c76e8b23c0a56a9",
}

# (seed, states, ratio) -> digest; per seed the machines are drawn in this order
RANDOM_DFA_CASES = ((8, 4), (16, 4), (32, 4), (8, 9))
RANDOM_DFA_DIGESTS = {
    (1, 8, 4): "663773360a6aaa5de41f8322094f97a750838786ab809bf55b1e208b46de893f",
    (1, 16, 4): "339757aab877492bf4c28d2eaa8f240acb1a7d1593c61099eeeb5d48c4faf192",
    (1, 32, 4): "bcf6df3215aa660ee7dd1a3b8c24adbdbb0d94f1a8ec85583293c31c731e27c6",
    (1, 8, 9): "ac834588dea6b79cc29d575c067a12738714d239cd0a6cd24c62081813904b1f",
    (2, 8, 4): "e1f98e92d00334a7d3b7e1d51a6c2f85576ab66af6d2960aa1459c8959e86cc8",
    (2, 16, 4): "7456ab29d7f7c0b7b8975188f0063e854366c2643cc2b3c334d7c79d2f529396",
    (2, 32, 4): "d38fcb52292723c0a12dd51575b77063a113601bfef5cab2ec37656bbec43f25",
    (2, 8, 9): "c3337f7ae1cacad07caab066fb6f76356f5cfcf6a697c945d8fdf9215c9e8975",
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


def random_dfa_builds(seed: int):
    """The pinned random machines of one seed, keyed (seed, states, ratio),
    each with its main build."""
    draw = random_total_dfa_text()
    rng = random.Random(seed)
    for n, h in RANDOM_DFA_CASES:
        machine = sk.parse_nfa(draw(rng, n))
        yield (seed, n, h), machine, sk.medvedev_main(machine, h)


def test_pinned_main_builds_verify_exactly_without_residual(machines, build_main):
    builds = [((name, h), machines[name], build_main(name, h))
              for name in CORPUS_NAMES for h in (2, 3)]
    builds += [build for seed in (1, 2) for build in random_dfa_builds(seed)]
    for key, machine, dec in builds:
        assert dec.residual == (), key
        report = sk.verify_decomposition(machine, dec, mode="exact")
        assert report.ok and report.mode == "exact", key


@pytest.mark.parametrize("seed", [1, 2])
def test_random_total_dfa_builds_are_pinned(seed):
    for key, _, dec in random_dfa_builds(seed):
        assert digest(dec) == RANDOM_DFA_DIGESTS[key], key


# sha256 of stdout (with the exit status of each run) of `sltkit corpus` on
# the bundled directory, and of `sltkit verify` on the 18 corpus builds and
# on one mutation of each, per mode.  The mutation digests were recomputed
# when the compiled spec started to accept short words below k-1 that
# nothing extends: the abbplus h=3 mutation adds one such short word,
# b|0.a|0.b|0.a|0.b|1.b|1, whose image b.a.b.a.b.b is not in the machine's
# language, and its verdict changed from a wrong pass to that extra word.
# The `verify` digests were recomputed again when main builds moved their
# short members from the residual into the short words: on the builds only
# the size_short and size_residual lines changed, and the mutations, drawn
# from the new sets, each give the report of the reference verifier.  All
# but the exact `corpus` digest were recomputed when the window narrowed to
# 2m-2: the sizes and the default horizon 2k+4 shrink, every build still
# passes in both modes, and the mutations are drawn from the new sets.
CLI_DIGESTS = {
    ("corpus", "exact"):
        "0306a8a1c2863ddafc882ccc0d324b6d324e193528a6f2c6ffb23070674c69b6",
    ("corpus", "bounded"):
        "2e020ec2d07abfa57c5d172b93692e04a2d6ca60278dd2fda150e42034b3cb66",
    ("verify builds", "exact"):
        "a6cd87382b6119197afe462fb8e497e74b7c4f331a78828a16c969529615e66c",
    ("verify builds", "bounded"):
        "674c810b644e5b0ac010470da33e1eca2d86205bcfd82a2f0c9f55d103608662",
    ("verify mutations", "exact"):
        "b880fee9c43f4d683e67d2dda48363db79489eab58409e697cd0bf6b830d8207",
    ("verify mutations", "bounded"):
        "dc628cc5b8725540719181a620822a93e3e285c287faba51809d9c7dc9d72b90",
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
