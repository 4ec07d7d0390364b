"""Replays of composite calls and the per-layer numbers of a traced run.

Spans are recorded only around public calls the benchmark makes, so a
composite call such as ``verify_decomposition`` is one span.  In a traced
run each composite is followed by calls to its public pieces on the same
inputs; what the pieces do not cover is the composite's derived own time.
The replayed ``SltSpec`` for ``medvedev_main`` gets the canonical (sorted)
sets, so it is a lower bound on the canonicalisation inside the build.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Iterable

from sltkit import (
    Decomposition,
    Nfa,
    SltSpec,
    Word,
    build_code,
    default_horizon,
    enumerate_language,
    nfa_equivalent,
    relabel,
    slt_to_nfa,
    totalize,
    union_nfa,
    word_set_nfa,
)

from recorder import MODULES, PassStats, Recorder, Span


def _spec_again(spec: SltSpec) -> SltSpec:
    return SltSpec(width=spec.width, alphabet=spec.alphabet, prefixes=spec.prefixes,
                   suffixes=spec.suffixes, factors=spec.factors,
                   short_words=spec.short_words)


def _enumerate(rec: Recorder, span: Span, m: Nfa, max_len: int) -> list[Word]:
    words = rec.replay(span, "automata.enumerate_language", enumerate_language, m, max_len)
    rec.count("automata.words_enumerated", len(words))
    return words


def medvedev_main(rec: Recorder, span: Span, m: Nfa, h: int, dec: Decomposition) -> None:
    """Pieces of ``medvedev_main``: the state code, the spec and the residual."""
    rec.replay(span, "codes.build_code", build_code, m.n, h)
    rec.replay(span, "slt.SltSpec", _spec_again, dec.slt)
    assert dec.m is not None
    _enumerate(rec, span, m, 3 * dec.m - 1)


def parse_decomposition(rec: Recorder, span: Span, dec: Decomposition) -> None:
    """Piece of ``parse_decomposition``: the spec built from the file's sets."""
    rec.replay(span, "slt.SltSpec", _spec_again, dec.slt)


def encode_word(rec: Recorder, span: Span, m: Nfa, dec: Decomposition) -> None:
    """Pieces of ``encode_word``: it totalizes the machine and rebuilds the code."""
    total = rec.replay(span, "automata.totalize", totalize, m)
    rec.replay(span, "codes.build_code", build_code, total.n, dec.h)


def verify_decomposition(rec: Recorder, span: Span, m: Nfa, dec: Decomposition,
                         mode: str) -> None:
    """Pieces of ``verify_decomposition`` in the given mode."""
    compiled = rec.replay(span, "slt.slt_to_nfa", slt_to_nfa, dec.slt)
    rec.count("slt.compiled_states", compiled.n)
    if mode == "bounded":
        horizon = default_horizon(dec)
        _enumerate(rec, span, m, horizon)
        _enumerate(rec, span, compiled, horizon)
        return
    candidate = rec.replay(span, "automata.relabel", relabel, compiled,
                           dict(dec.pi.pairs), m.alphabet)
    if dec.residual:
        finite = rec.replay(span, "automata.word_set_nfa", word_set_nfa, dec.residual,
                            m.alphabet)
        candidate = rec.replay(span, "automata.union_nfa", union_nfa, candidate, finite)
    rec.replay(span, "automata.nfa_equivalent", nfa_equivalent, candidate, m, mode="exact")


# per-layer time metric -> span names it sums (direct calls and replays)
SPAN_METRICS = {
    "automata.parse_nfa_s": ("automata.parse_nfa",),
    "automata.totalize_s": ("automata.totalize",),
    "automata.enumerate_language_s": ("automata.enumerate_language",),
    "automata.nfa_equivalent_s": ("automata.nfa_equivalent",),
    "automata.relabel_union_s": ("automata.relabel", "automata.word_set_nfa",
                                 "automata.union_nfa"),
    "codes.build_code_s": ("codes.build_code",),
    "codes.verify_factor_decodable_s": ("codes.verify_factor_decodable",),
    "construction.medvedev_main_s": ("construction.medvedev_main",),
    "construction.medvedev_width2_s": ("construction.medvedev_width2",),
    "construction.serialize_s": ("construction.serialize_decomposition",),
    "construction.parse_decomposition_s": ("construction.parse_decomposition",),
    "construction.encode_word_s": ("construction.encode_word",),
    "construction.decode_word_s": ("construction.decode_word",),
    "slt.spec_canon_s": ("slt.SltSpec",),
    "slt.slt_to_nfa_s": ("slt.slt_to_nfa",),
    "slt.slt_membership_s": ("slt.slt_membership",),
    "slt.stream_recognizer_s": ("slt.StreamRecognizer",),
    "verification.verify_decomposition_s": ("verification.verify_decomposition",),
}

# composite span -> (derived own-time metric, replay coverage metric)
COMPOSITES = {
    "construction.medvedev_main": ("construction.sweep_s", "trace.medvedev_main_coverage"),
    "construction.parse_decomposition": ("construction.parse_text_s",
                                         "trace.parse_decomposition_coverage"),
    "construction.encode_word": ("construction.encode_path_s",
                                 "trace.encode_word_coverage"),
    "verification.verify_decomposition": ("verification.remainder_s",
                                          "trace.verify_coverage"),
}

# counts the passes record; block_length_m is the largest m, the rest are sums
COUNT_METRICS = {
    "automata.words_enumerated": "count", "codes.windows_checked": "count",
    "codes.block_length_m": "digits", "construction.prefixes": "count",
    "construction.suffixes": "count", "construction.factors": "count",
    "construction.residual": "count", "slt.compiled_states": "count",
}

PER_LAYER_UNITS = {
    **{name: "s" for name in SPAN_METRICS},
    **{own: "s" for own, _ in COMPOSITES.values()},
    **{cov: "ratio" for _, cov in COMPOSITES.values()},
    **COUNT_METRICS,
    **{f"{module}.failed": "count" for module in MODULES},
    "trace.overhead_s": "s", "trace.untraced_pass_s": "s", "trace.traced_pass_s": "s",
    "trace.spans": "count", "fail_rate": "ratio",
}


def layer_metrics(spans: Iterable[Span], stats: Iterable[PassStats]) -> dict[str, float]:
    """Per-layer totals, derived own times and replay coverage from the spans
    of a traced run, plus the counts its passes recorded."""
    spans = list(spans)
    by_name: dict[str, float] = defaultdict(float)
    replayed: dict[int, float] = defaultdict(float)
    for s in spans:
        by_name[s.name] += s.duration
        if s.replay and s.parent is not None:
            replayed[s.parent] += s.duration
    out: dict[str, float] = {}
    for metric, names in SPAN_METRICS.items():
        out[metric] = sum(by_name[n] for n in names)
    for name, (own, coverage) in COMPOSITES.items():
        total = sum(s.duration for s in spans if s.name == name and not s.replay)
        pieces = sum(replayed[s.id] for s in spans if s.name == name and not s.replay)
        out[own] = total - pieces
        out[coverage] = pieces / total if total else 0.0
    for key in COUNT_METRICS:
        values = [p.counts.get(key, 0) for p in stats]
        out[key] = max(values) if key == "codes.block_length_m" else sum(values)
    return out
