"""sltkit: homomorphic characterisations of regular languages by strictly
locally testable languages over small local alphabets."""

from importlib import resources

from .automata import (
    CapacityError,
    EquivalenceResult,
    Nfa,
    ParseError,
    Word,
    accepts,
    enumerate_language,
    format_word,
    nfa_equivalent,
    parse_nfa,
    parse_word,
    relabel,
    totalize,
    trim,
    union_nfa,
    word_set_nfa,
)
from .codes import (
    Code,
    CodeCheck,
    build_code,
    choose_m,
    closed_form_m,
    count_S,
    enumerate_S,
    f_value,
    factor_decode,
    g_value,
    g_value_printed,
    verify_factor_decodable,
)
from .construction import (
    Decomposition,
    Homomorphism,
    Source,
    decode_word,
    encode_word,
    medvedev_main,
    medvedev_width2,
    min_slt_width,
    nfa_fingerprint,
    parse_decomposition,
    prepare,
    serialize_decomposition,
)
from .slt import (
    SltSpec,
    StreamRecognizer,
    slt_membership,
    slt_to_nfa,
    window_ops,
    word_encoder,
)
from .verification import (
    CorpusEntry,
    CorpusReport,
    FgValues,
    RefutationResult,
    VerificationReport,
    default_horizon,
    fg_values,
    refute_small_ratio,
    run_corpus,
    verify_decomposition,
)

__version__ = "0.1.0"


def corpus_dir() -> str:
    """Directory holding the bundled example machines."""
    return str(resources.files(__name__) / "corpus")
