"""Pinned ``serialize_decomposition`` output and CLI stdout.

The width-2 digests were computed before local words became index strings
inside the spec; the serialized form must not change with the
representation.  The main digests were recomputed when the source words
shorter than 2m became block-encoded short words in place of a residual of
the words shorter than 3m; each of those builds has the same window sets
as before, verifies exactly and has no residual.  The random machines are
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
    ("abbplus", 2): "e4070fd3ce2ea38aea0ad45009a14888937586630c8ae54b1df5158bcbe8d839",
    ("abbplus", 3): "c556e1c6d050302fe51fe03d18815f4bb040b603a9d91971bbea6d2b9ae3a4e7",
    ("abplus", "width2"): "4e4a6cd045e22697de89216f51ac18d000e28cdad1d26999f052b179d11343d7",
    ("abplus", 2): "057b1e3093a85d64121fcd1e4bb51547793e3dd319d16f3b541daa99b2b79e37",
    ("abplus", 3): "4e2ddd0f93d2f50848834a84a5cb830612c732854211c4b0658782e966a245dc",
    ("aplus", "width2"): "ae91026572366b3d32e9dbad237504236880fe60a62903c7a6cc61647b1f00e5",
    ("aplus", 2): "ebf8b9595f47bc8d4115ec7d1cbb6603011c181243b2a25f634e786d2009e3bc",
    ("aplus", 3): "7b6f35be46ee7b3444dc0a764d8e8c043a300af737058f25d87e046d5e88171e",
    ("evens", "width2"): "6f63e22e6c202fc3061350bff1a7d744906dad61670aefa9ee61873ea93218cf",
    ("evens", 2): "c2907d7efae7869cb8dba556b62469b933631016bb6c12a6dc69a18cec95aabf",
    ("evens", 3): "990f9c753e5a799fc1304743091eefbc952e6d1f199b561a812311819b1e5e8f",
    ("needs_sink", "width2"): "ed384a344620048debab8c0a1233a9a9133b2dd996c4aabd366b3d950b710e25",
    ("needs_sink", 2): "881f5c2248f64fba33a95354429f4e405e0adf4c32d623116a823591d16a2161",
    ("needs_sink", 3): "631dd35bd0b415d805d81e77b48c11585a8465f73d92d24e234aaf6d2d46f497",
    ("nondet", "width2"): "09b5c0005474541cca72d0c4f10970b1f44e94373d8c89c3894660908be2aa8f",
    ("nondet", 2): "030ec87694b3ce566232bb6381ccead64c212e2ad3001edb4d743d0d337b8386",
    ("nondet", 3): "a07ba6ecd733c51052387ebd352f11b068855c9c115839f58e26ccd3ed50a974",
}

# (seed, states, ratio) -> digest; per seed the machines are drawn in this order
RANDOM_DFA_CASES = ((8, 4), (16, 4), (32, 4), (8, 9))
RANDOM_DFA_DIGESTS = {
    (1, 8, 4): "993e7feea9e7c5fd5ea570af81f7d28012be5e760d1755e60316ecf26ac139cc",
    (1, 16, 4): "5e908206acbedb505744369acd9f1c9ee8946e67557d646278f4ae62d9e73e8d",
    (1, 32, 4): "ba3dade9c27e52e9ddab07162028ce747bba9449ba18e1e4e2f8cf652eaffb7c",
    (1, 8, 9): "3a06bb4a709c57f5df6e05257d9698a471caf24efb4226892e9720a838de1a14",
    (2, 8, 4): "bd5cb47ba46c74ccc0f0f82c8dc0a02c3f6f6b8caff4e3035f09d8a5d766078b",
    (2, 16, 4): "df3f630bcea8f2dd1a9b09ee51b386278ce83a4e4dc9af749c1693187c1b8c8c",
    (2, 32, 4): "9d010b3c69cb7ca4a237ba8622834ae7c0af0720dd58668b7ea8964ba83e99f4",
    (2, 8, 9): "e2f5e8f247a64805086e6939f76aee493f939b93914370f50ffd442139820847",
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
# from the new sets, each give the report of the reference verifier.
CLI_DIGESTS = {
    ("corpus", "exact"):
        "0306a8a1c2863ddafc882ccc0d324b6d324e193528a6f2c6ffb23070674c69b6",
    ("corpus", "bounded"):
        "ce26fdabd48bfe187464e4a7c7f9bd43112266178266d7d909755df16b21d2db",
    ("verify builds", "exact"):
        "6a99a4b9ce6e8e3316007aa749a3121d9fd6ebefb7c6bb96bfa95ce7050cd164",
    ("verify builds", "bounded"):
        "fc10eb7b586ee5ef2d21553ea4bc302d253f754a43889373ea336a9765194c35",
    ("verify mutations", "exact"):
        "538fd4204517dba0ec821d69fc9f11d7ae2b43a3c1463016525abffe2253733c",
    ("verify mutations", "bounded"):
        "a773e09f62cc718012ddaf48044741699ece41b6913c5b89500af96ff3de611f",
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
