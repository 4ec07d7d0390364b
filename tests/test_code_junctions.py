"""verify_factor_decodable's junction test against the window sweep it replaces.

``reference_factor_decodable`` sweeps every (2m-1)-window over codeword
triples; the junction test must reach the same verdict, count the same
windows on every code that passes, and on a broken code return a window of
that sweep that holds two codeword occurrences.
"""

import pytest
from hypothesis import given, settings, strategies as st

import sltkit as sk
from sltkit import CapacityError, Code

from conftest import reference_factor_decodable

ORACLE_CAP = 10**7


def swept_windows(code: Code) -> set[str]:
    """Every window the reference sweep checks."""
    m, words = code.m, list(code.codewords)
    prefixes = [{w[:i] for w in words} for i in range(m)]
    suffixes = [set()] + [{w[-i:] for w in words} for i in range(1, m)]
    aligned = {w + p for w in words for p in prefixes[m - 1]}
    return aligned | {s + w + p for offset in range(1, m) for s in suffixes[m - offset]
                      for w in words for p in prefixes[offset - 1]}


def occurrences(code: Code, window: str) -> int:
    words = set(code.codewords)
    return sum(window[j:j + code.m] in words for j in range(code.m))


@st.composite
def hand_built_codes(draw):
    """Codes of 1..10 distinct words ending in two zeros; most are broken."""
    h, m = draw(st.integers(2, 4)), draw(st.integers(2, 7))
    body = st.lists(st.integers(0, h - 1), min_size=m - 2, max_size=m - 2)
    words = draw(st.lists(body.map(lambda ds: "".join(map(chr, ds)) + "\0\0"),
                          min_size=1, max_size=10, unique=True))
    return Code(h=h, m=m, codewords=tuple(words))


@settings(max_examples=400, deadline=None)
@given(code=hand_built_codes())
def test_hand_built_codes_match_the_sweep(code):
    check = sk.verify_factor_decodable(code)
    reference = reference_factor_decodable(code, cap=ORACLE_CAP)
    assert check.ok == reference.ok
    if check.ok:
        assert check == reference
    else:
        witness = check.witness
        assert len(witness) == 2 * code.m - 1
        assert witness in swept_windows(code)
        assert occurrences(code, witness) >= 2
        assert sk.factor_decode(code, witness) is None


def _sampled_sizes(h: int) -> list[int]:
    """n = 2..40 and the first and last n of each block length up to 100;
    the full range n = 2..200 takes the sweep minutes."""
    edges = {n for m in range(3, 20) for n in (sk.count_S(h, m - 1) + 1, sk.count_S(h, m))}
    return sorted(set(range(2, 41)) | {n for n in edges if 2 <= n <= 100})


@pytest.mark.parametrize("h", [2, 3, 4])
def test_generated_codes_match_the_sweep(h):
    for n in _sampled_sizes(h):
        code = sk.build_code(n, h)
        assert sk.verify_factor_decodable(code) == reference_factor_decodable(code, cap=ORACLE_CAP)


def test_broken_code_witness():
    broken = Code(h=2, m=4, codewords=("\0\0\0\0", "\1\1\0\0"))
    check = sk.verify_factor_decodable(broken)
    # "0000" splits at s = 1 into "0", which ends "0000", and "000", which
    # starts it; the least codeword prefix of length 2 is "00"
    assert check == sk.CodeCheck(False, "\0" + "\0\0\0\0" + "\0\0", 16)
    # the sweep counts distinct windows, and this code repeats some
    assert reference_factor_decodable(broken).windows_checked == 13


class TestReach:
    def test_past_a_million_windows(self):
        check = sk.verify_factor_decodable(sk.build_code(1000, 3))
        assert check.ok and check.windows_checked == 6_140_000

    def test_ten_thousand_states(self):
        assert sk.verify_factor_decodable(sk.build_code(10**4, 2)).ok

    def test_cap_bounds_codewords_not_windows(self):
        # 113,000 windows under a cap of 1,000: no window set is held
        check = sk.verify_factor_decodable(sk.build_code(100, 2), cap=1000)
        assert check.ok and check.windows_checked == 113_000

    def test_cap_message(self):
        with pytest.raises(CapacityError, match="holds 10 codewords, over the cap of 5"):
            sk.verify_factor_decodable(sk.build_code(10, 2), cap=5)
