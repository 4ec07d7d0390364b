"""The four workloads: their set-up, one pass over their ops, the output
checks, and the end-to-end figures each one reports.

Every workload is a closed loop with one client: each call starts when the
previous one has returned.  Set-up makes the inputs from the seed; a pass
runs every op once on them.
"""

from __future__ import annotations

import random
import statistics
from pathlib import Path
from typing import Any

from sltkit import (
    StreamRecognizer,
    accepts,
    build_code,
    count_S,
    decode_word,
    encode_word,
    medvedev_main,
    medvedev_width2,
    parse_decomposition,
    parse_nfa,
    serialize_decomposition,
    slt_membership,
    totalize,
    verify_decomposition,
    verify_factor_decodable,
)

import gen
import replay
from recorder import PassStats, Recorder

Figures = list[tuple[str, float, str]]


def _median(passes: list[PassStats], fn) -> float:
    return statistics.median(fn(p) for p in passes)


def _category(passes: list[PassStats], cat: str) -> float:
    return _median(passes, lambda p: p.category_s.get(cat, 0.0))


def _record_sizes(rec: Recorder, dec) -> None:
    rec.count("construction.prefixes", len(dec.slt.prefixes))
    rec.count("construction.suffixes", len(dec.slt.suffixes))
    rec.count("construction.factors", len(dec.slt.factors))
    rec.count("construction.residual", len(dec.residual))
    if dec.m is not None:
        rec.peak("codes.block_length_m", dec.m)


def _build_main(rec: Recorder, machine, h: int):
    dec = rec.call("construction.medvedev_main", medvedev_main, machine, h, cat="build")
    if rec.tracing:
        replay.medvedev_main(rec, rec.last_span, machine, h, dec)
    _record_sizes(rec, dec)
    return dec


def _verify(rec: Recorder, machine, dec, mode: str):
    report = rec.call("verification.verify_decomposition", verify_decomposition,
                      machine, dec, mode=mode, cat=f"verify_{mode}")
    if rec.tracing:
        replay.verify_decomposition(rec, rec.last_span, machine, dec, mode)
    rec.check(report.ok and report.mode == mode, "verification",
              f"{mode} verdict not ok: mode={report.mode} missing={report.missing} "
              f"extra={report.extra} notice={report.notice}")
    return report


def _round_trip(rec: Recorder, dec):
    """serialize -> parse -> serialize; returns the parsed decomposition."""
    text = rec.call("construction.serialize_decomposition", serialize_decomposition, dec,
                    cat="roundtrip")
    parsed = rec.call("construction.parse_decomposition", parse_decomposition, text,
                      cat="roundtrip")
    if rec.tracing:
        replay.parse_decomposition(rec, rec.last_span, parsed)
    again = rec.call("construction.serialize_decomposition", serialize_decomposition,
                     parsed, cat="roundtrip")
    rec.check(again == text, "construction",
              "serialize -> parse -> serialize is not byte-identical")
    rec.count("dec_bytes", len(text))
    return parsed


def _common(passes: list[PassStats]) -> Figures:
    return [("pass_s", _median(passes, lambda p: p.pass_s), "s")]


class Corpus:
    """The six bundled machines, through build, round trip and bounded verify.

    The inputs are the bundled files, so the seed changes nothing here.
    """

    name = "corpus"
    why = ("the bundled machines along the user's build-then-verify path, "
           "including the totalized evens h=2 baseline and five partial machines")
    setup_reps = 5
    ratios = (2, 3)

    def setup(self, rec: Recorder, root: Path, seed: int) -> Any:
        files = sorted((root / "src" / "sltkit" / "corpus").glob("*.nfa"))
        return [(p.stem, rec.call("automata.parse_nfa", parse_nfa, p.read_text()))
                for p in files]

    def run_pass(self, rec: Recorder, machines: Any) -> None:
        for name, machine in machines:
            with rec.op(f"{name} totalize") as op:
                total = rec.call("automata.totalize", totalize, machine, cat="build")
                rec.check(total.total and total.finals == machine.finals
                          and total.n - machine.n in (0, 1),
                          "automata", "totalize did not give a total machine")
            if not op.ok:
                continue
            for h in (None,) + self.ratios:
                label = f"{name} " + ("width2" if h is None else f"main h={h}")
                rec.settle()
                with rec.op(f"{label} build") as op:
                    if h is None:
                        dec = rec.call("construction.medvedev_width2", medvedev_width2,
                                       total, cat="build")
                        _record_sizes(rec, dec)
                    else:
                        dec = _build_main(rec, total, h)
                if not op.ok:
                    continue
                with rec.op(f"{label} round trip") as op:
                    parsed = _round_trip(rec, dec)
                del dec
                if not op.ok:
                    continue
                rec.settle()
                with rec.op(f"{label} bounded verify"):
                    _verify(rec, machine, parsed, "bounded")
                del parsed

    def figures(self, passes: list[PassStats]) -> Figures:
        return _common(passes) + [
            ("build_s", _category(passes, "build"), "s"),
            ("roundtrip_s", _category(passes, "roundtrip"), "s"),
            ("verify_bounded_s", _category(passes, "verify_bounded"), "s"),
            ("dec_bytes", _median(passes, lambda p: p.counts["dec_bytes"]), "bytes"),
        ]


class TotalDfa:
    """Seeded random total DFAs that trimming leaves unchanged."""

    name = "total-dfa"
    why = ("random total trim DFAs, where trimming has nothing to remove and large "
           "window sets stress the sweep, spec, slt_to_nfa and the subset product")
    setup_reps = 5
    # (states, ratio); every machine gets exact verify, h=9 also bounded
    cases = ((8, 4), (16, 4), (32, 4), (8, 9))
    bounded_ratio = 9

    def setup(self, rec: Recorder, root: Path, seed: int) -> Any:
        rng = random.Random(seed)
        machines = []
        for n, h in self.cases:
            text = gen.random_total_dfa_text(rng, n)
            machine = rec.call("automata.parse_nfa", parse_nfa, text)
            gen.require_trim_total(machine)
            machines.append((f"n={n} h={h}", machine, h))
        return machines

    def run_pass(self, rec: Recorder, machines: Any) -> None:
        for label, machine, h in machines:
            rec.settle()
            with rec.op(f"{label} build") as op:
                dec = _build_main(rec, machine, h)
            if not op.ok:
                continue
            with rec.harness():
                rec.count("dec_bytes", len(serialize_decomposition(dec)))
            rec.settle()
            with rec.op(f"{label} exact verify"):
                _verify(rec, machine, dec, "exact")
            if h == self.bounded_ratio:
                rec.settle()
                with rec.op(f"{label} bounded verify"):
                    _verify(rec, machine, dec, "bounded")
            del dec

    def figures(self, passes: list[PassStats]) -> Figures:
        return _common(passes) + [
            ("build_s", _category(passes, "build"), "s"),
            ("verify_exact_s", _category(passes, "verify_exact"), "s"),
            ("verify_bounded_s", _category(passes, "verify_bounded"), "s"),
            ("dec_bytes", _median(passes, lambda p: p.counts["dec_bytes"]), "bytes"),
        ]


def _stream_decide(spec, word) -> bool:
    recognizer = StreamRecognizer(spec)
    for symbol in word:
        recognizer.feed(symbol)
    return recognizer.finish()


class Recognize:
    """Queries against a built and reloaded ``nondet`` h=2 decomposition."""

    name = "recognize"
    why = ("the read side: encode, batch and streaming recognition and decode "
           "against a built nondet h=2 spec, where building is only set-up")
    setup_reps = 3
    words = 2000
    max_len = 400

    def setup(self, rec: Recorder, root: Path, seed: int) -> Any:
        text = (root / "src" / "sltkit" / "corpus" / "nondet.nfa").read_text()
        machine = rec.call("automata.parse_nfa", parse_nfa, text)
        total = rec.call("automata.totalize", totalize, machine)
        built = rec.call("construction.medvedev_main", medvedev_main, total, 2)
        if rec.tracing:
            replay.medvedev_main(rec, rec.last_span, total, 2, built)
        _record_sizes(rec, built)
        dec_text = rec.call("construction.serialize_decomposition",
                            serialize_decomposition, built)
        del built
        dec = rec.call("construction.parse_decomposition", parse_decomposition, dec_text)
        if rec.tracing:
            replay.parse_decomposition(rec, rec.last_span, dec)
        rng = random.Random(seed)
        members = gen.member_words(rng, machine, self.words, 3 * dec.m, self.max_len)
        symbols = dec.slt.alphabet
        edits = [(rng.randrange(len(w)), rng.randrange(len(symbols) - 1)) for w in members]
        return machine, dec, members, edits

    def run_pass(self, rec: Recorder, inputs: Any) -> None:
        machine, dec, members, edits = inputs
        spec = dec.slt
        encoded = []
        for word in members:
            with rec.op("encode") as op:
                local = rec.call("construction.encode_word", encode_word, machine, dec, word,
                                 cat="encode")
                if rec.tracing:
                    replay.encode_word(rec, rec.last_span, machine, dec)
                rec.check(local is not None and len(local) == len(word), "construction",
                          "encode_word gave no local word of the same length")
            encoded.append(local if op.ok else None)
        rec.count("encoded", sum(z is not None for z in encoded))
        for local, (position, pick) in zip(encoded, edits):
            if local is None:
                continue
            with rec.harness():
                mutant = gen.mutate(local, position, pick, spec.alphabet)
            verdicts = {}
            for kind, word in (("member", local), ("mutant", mutant)):
                with rec.op(f"batch {kind}"):
                    verdict = rec.call("slt.slt_membership", slt_membership, spec, word,
                                       cat="batch")
                    verdicts[kind] = verdict
                    rec.sample("word_us", rec.last_s * 1e6)
                    rec.count("batch_symbols", len(word))
                    rec.check(verdict or kind == "mutant", "construction",
                              "an encoded member is rejected")
                with rec.op(f"stream {kind}"):
                    streamed = rec.call("slt.StreamRecognizer", _stream_decide, spec, word,
                                        cat="stream")
                    rec.count("stream_symbols", len(word))
                    rec.check(streamed == verdict, "slt", "batch and stream verdicts differ")
            if verdicts.get("mutant"):
                with rec.harness():
                    projected = accepts(machine, dec.pi(mutant))
                rec.count("accepted_mutants", 1)
                with rec.op("accepted mutant"):
                    rec.check(projected, "construction",
                              "an accepted mutant projects outside L(machine)")
        for word, local in zip(members, encoded):
            if local is None:
                continue
            with rec.op("decode"):
                back = rec.call("construction.decode_word", decode_word, dec, local,
                                cat="decode")
                rec.check(back == word, "construction", "decode(encode(w)) != w")

    def figures(self, passes: list[PassStats]) -> Figures:
        samples = sorted(us for p in passes for us in p.samples["word_us"])
        cuts = statistics.quantiles(samples, n=100)
        return _common(passes) + [
            ("encode_words_per_s",
             _median(passes, lambda p: p.counts["encoded"] / p.category_s["encode"]), "1/s"),
            ("recognize_batch_symbols_per_s",
             _median(passes, lambda p: p.counts["batch_symbols"] / p.category_s["batch"]),
             "1/s"),
            ("recognize_stream_symbols_per_s",
             _median(passes, lambda p: p.counts["stream_symbols"] / p.category_s["stream"]),
             "1/s"),
            ("recognize_word_p50_us", statistics.median(samples), "us"),
            ("recognize_word_p99_us", cuts[98], "us"),
            ("recognize_word_samples", len(samples), "count"),
            ("accepted_mutants", _median(passes, lambda p: p.counts["accepted_mutants"]),
             "count"),
        ]


class Codes:
    """State codes far larger than any machine elsewhere needs."""

    name = "codes"
    why = ("build_code up to n=10^6 and factor-decodability checks: the codes "
           "layer does all the work here and almost none elsewhere")
    setup_reps = 5
    builds = ((10**3, 2), (10**3, 3), (10**4, 2), (10**4, 3), (10**5, 2), (10**5, 3),
              (10**6, 2))
    checks = ((50, 2), (100, 2))

    def setup(self, rec: Recorder, root: Path, seed: int) -> Any:
        return [rec.call("codes.build_code", build_code, n, h) for n, h in self.checks]

    def run_pass(self, rec: Recorder, check_codes: Any) -> None:
        for n, h in self.builds:
            rec.settle()
            with rec.op(f"build_code n={n} h={h}"):
                code = rec.call("codes.build_code", build_code, n, h, cat="code_build")
                rec.peak("codes.block_length_m", code.m)
                self._check_code(rec, code, n)
            code = None  # release it before the next build
        for code in check_codes:
            with rec.op(f"verify_factor_decodable n={code.n} h={code.h}"):
                result = rec.call("codes.verify_factor_decodable", verify_factor_decodable,
                                  code, cat="code_check")
                rec.count("codes.windows_checked", result.windows_checked)
                rec.check(result.ok, "codes", f"window not decodable: {result.witness}")
                self._check_code(rec, code, code.n)

    @staticmethod
    def _check_code(rec: Recorder, code, n: int) -> None:
        with rec.harness():
            distinct = len(set(code.codewords)) == n
        rec.check(code.n == n and distinct and count_S(code.h, code.m) >= n, "codes",
                  "codewords are not n distinct words of a large enough pool")

    def figures(self, passes: list[PassStats]) -> Figures:
        return _common(passes) + [
            ("code_build_s", _category(passes, "code_build"), "s"),
            ("code_check_s", _category(passes, "code_check"), "s"),
        ]


WORKLOADS = {w.name: w for w in (Corpus(), TotalDfa(), Recognize(), Codes())}
