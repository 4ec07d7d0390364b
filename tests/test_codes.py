import itertools
import pickle
import sys

import pytest
from hypothesis import given, settings, strategies as st

import sltkit as sk
from sltkit import CapacityError, Code
from sltkit.codes import Codewords


def W(s: str) -> str:
    """The index string of a word written in decimal digits."""
    return "".join(chr(int(d)) for d in s)


def brute_pool(h: int, m: int):
    """Oracle: filter the full digit cube for words whose only adjacent
    zero-pair is the final one."""
    out = []
    for word in itertools.product(range(h), repeat=m):
        hits = [i for i in range(m - 1) if word[i] == 0 and word[i + 1] == 0]
        if hits == [m - 2]:
            out.append("".join(map(chr, word)))
    return out


class TestPool:
    def test_length_two(self):
        assert sk.enumerate_S(2, 2) == [W("00")]

    def test_length_four_binary(self):
        assert sk.enumerate_S(2, 4) == brute_pool(2, 4) == [W("0100"), W("1100")]

    def test_length_three_ternary(self):
        assert sk.enumerate_S(3, 3) == [W("100"), W("200")]

    def test_cap(self):
        with pytest.raises(CapacityError):
            sk.enumerate_S(4, 10, cap=10)

    @settings(max_examples=40, deadline=None)
    @given(h=st.integers(2, 3), m=st.integers(2, 7))
    def test_matches_brute_filter(self, h, m):
        assert sk.enumerate_S(h, m) == brute_pool(h, m)


class TestCount:
    def test_binary_counts_follow_fibonacci(self):
        assert [sk.count_S(2, m) for m in range(2, 9)] == [1, 1, 2, 3, 5, 8, 13]

    def test_ternary_step(self):
        assert sk.count_S(3, 4) == 6

    def test_length_two_always_one(self):
        for h in (2, 3, 7, 100):
            assert sk.count_S(h, 2) == 1

    def test_agrees_with_enumeration(self):
        for h in (2, 3, 4):
            for m in range(2, 11):
                assert sk.count_S(h, m) == len(sk.enumerate_S(h, m))

    def test_exact_at_large_magnitude(self):
        # Fibonacci(199): exact arbitrary-precision value
        assert sk.count_S(2, 200) == 173402521172797813159685037284371942044301


class TestChooseM:
    def test_small(self):
        assert sk.choose_m(2, 2) == 4

    def test_ten_states_binary(self):
        assert sk.choose_m(10, 2) == 8
        assert sk.closed_form_m(10, 2) == 9

    def test_ten_states_ratio_ten(self):
        assert sk.count_S(10, 3) == 9 and sk.count_S(10, 4) == 90
        assert sk.choose_m(10, 10) == 4

    def test_information_floor(self):
        import math
        for n in (2, 5, 17, 100):
            for h in (2, 3, 4, 10):
                assert sk.choose_m(n, h) >= math.ceil(math.log(n, h))

    def test_never_exceeds_closed_form(self):
        samples = list(range(2, 101)) + list(range(101, 1001, 13))
        for h in (2, 3, 4, 10):
            for n in samples:
                assert sk.choose_m(n, h) <= sk.closed_form_m(n, h)


class TestBuild:
    def test_two_states_binary(self):
        code = sk.build_code(2, 2)
        assert code.m == 4
        assert tuple(code.codewords) == (W("0100"), W("1100"))

    def test_single_state_rejected(self):
        with pytest.raises(ValueError):
            sk.build_code(1, 2)

    def test_three_states_ternary(self):
        code = sk.build_code(3, 3)
        assert code.m == 4
        assert tuple(code.codewords) == (W("0100"), W("0200"), W("1100"))

    def test_codeword_shape(self):
        for h in (2, 3, 4):
            for n in range(2, 13):
                code = sk.build_code(n, h)
                for word in code.codewords:
                    assert word[code.m - 2:code.m] == W("00")
                    for i in range(1, code.m - 1):
                        assert word[i - 1:i + 1] != W("00")


class TestRankUnrank:
    @pytest.mark.parametrize("h,top", [(2, 12), (3, 8), (5, 8)])
    def test_agree_with_enumeration_on_every_word(self, h, top):
        for m in range(2, top + 1):
            pool = sk.enumerate_S(h, m)
            words = Codewords(h, m, len(pool))
            assert [words[q] for q in range(len(pool))] == pool
            assert [words.index(w) for w in pool] == list(range(len(pool)))

    @pytest.mark.parametrize("word,why", [
        (W("100"), "wrong length"),
        (W("10100"), "wrong length"),
        (W("1001"), "inner 00"),
        (W("0010"), "inner 00"),
        (W("1300"), "digit >= h"),
        (W("2200"), "rank >= n"),
        (tuple(W("0100")), "not a string"),
    ])
    def test_rank_rejects(self, word, why):
        words = sk.build_code(5, 3).codewords  # m = 4: the first 5 of 6 words
        assert words.index(W("2100")) == 4
        with pytest.raises(ValueError, match="not a codeword"):
            words.index(word)
        assert word not in words

    def test_unrank_range(self):
        words = sk.build_code(5, 2).codewords
        assert words[-1] == words[4]
        with pytest.raises(IndexError):
            words[5]
        with pytest.raises(ValueError):
            Codewords(2, 5, 4)  # the pool of length 5 has 3 words

    @pytest.mark.parametrize("n,h", [(2, 2), (10, 2), (10**4, 2), (10**4, 3), (7, 11)])
    def test_lazy_code_is_the_first_n_pool_words(self, n, h):
        code = sk.build_code(n, h)
        assert len(code.codewords) == code.n == n
        assert list(code.codewords) == sk.enumerate_S(h, code.m)[:n]

    def test_billion_states(self):
        code = sk.build_code(10**9, 2)
        assert code.m == 46 == sk.choose_m(10**9, 2)
        last = code.codewords[-1]
        assert code.codewords.index(last) == 10**9 - 1
        assert last.endswith(W("00")) and W("00") not in last[:-1]

    def test_equality_hash_and_pickle_follow_h_m_n(self):
        code = sk.build_code(10, 2)
        assert code == sk.build_code(10, 2) and hash(code) == hash(sk.build_code(10, 2))
        assert code != sk.build_code(11, 2) and code.m == sk.build_code(11, 2).m
        assert code != sk.build_code(10, 3)
        back = pickle.loads(pickle.dumps(code))
        assert back == code and hash(back) == hash(code)
        assert isinstance(back.codewords, Codewords) and list(back.codewords) == list(code.codewords)

    def test_hand_built_code_is_checked(self):
        with pytest.raises(ValueError, match="index strings"):
            Code(h=2, m=4, codewords=(tuple("0100"), tuple("1100")))
        with pytest.raises(ValueError, match="index strings"):
            Code(h=2, m=4, codewords=(W("0110"),))
        with pytest.raises(ValueError, match="injective"):
            Code(h=2, m=4, codewords=(W("0100"), W("0100")))
        with pytest.raises(ValueError, match="another h or m"):
            Code(h=2, m=5, codewords=Codewords(2, 4, 2))
        code = Code(h=2, m=4, codewords=[W("1100"), W("0100")])
        assert code.codewords == (W("1100"), W("0100")) and code.digits == ("0", "1")

    def test_digit_alphabet_past_the_index_string_limit_is_refused(self):
        # one digit more than there are characters; refused before any digit is made
        with pytest.raises(ValueError, match="digit alphabet of 1114113 symbols exceeds "
                                             "the index-string limit of 1114112"):
            Code(h=sys.maxunicode + 2, m=3, codewords=("\x01\0\0",))


class TestDecode:
    @pytest.fixture
    def code22(self):
        return sk.build_code(2, 2)

    def test_aligned_at_start(self, code22):
        stream = code22.codewords[0] + code22.codewords[1]
        assert sk.factor_decode(code22, stream[:7]) == (1, 0)

    def test_aligned_at_end(self, code22):
        stream = code22.codewords[0] + code22.codewords[1]
        assert sk.factor_decode(code22, stream[1:8]) == (4, 1)

    def test_no_codeword_present(self, code22):
        assert sk.factor_decode(code22, W("1111111")) is None

    def test_window_length_checked(self, code22):
        with pytest.raises(ValueError, match="length"):
            sk.factor_decode(code22, W("0100"))

    def test_all_alignments_of_generated_codes(self):
        for h in (2, 3):
            code = sk.build_code(5, h)
            m = code.m
            for q1, q2, q3 in itertools.product(range(5), repeat=3):
                stream = (code.codewords[q1] + code.codewords[q2] + code.codewords[q3])
                for start in range(m):
                    window = stream[start:start + 2 * m - 1]
                    expect = (1, q1) if start == 0 else (m + 1 - start, q2)
                    assert sk.factor_decode(code, window) == expect

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    @pytest.mark.parametrize("n,h", [(10**6, 2), (10**5, 3)])
    def test_true_alignment_in_large_codes(self, n, h, data):
        code = sk.build_code(n, h)
        m = code.m
        q1, q2, q3 = (data.draw(st.integers(0, n - 1)) for _ in range(3))
        start = data.draw(st.integers(0, m - 1))
        stream = code.codewords[q1] + code.codewords[q2] + code.codewords[q3]
        expect = (1, q1) if start == 0 else (m + 1 - start, q2)
        assert sk.factor_decode(code, stream[start:start + 2 * m - 1]) == expect

    def test_unknown_digit_rejected(self, code22):
        with pytest.raises(ValueError, match="unknown digit"):
            sk.factor_decode(code22, W("0100") + W("120"))


class TestVerifyDecodable:
    def test_generated_code_passes(self):
        check = sk.verify_factor_decodable(sk.build_code(2, 2))
        assert check.ok and check.witness is None

    def test_adversarial_code_fails_with_witness(self):
        broken = Code(h=2, m=4, codewords=(W("0000"), W("1100")))
        check = sk.verify_factor_decodable(broken)
        assert not check.ok and check.witness is not None
        # replay: the witness window really is ambiguous or misaligned
        assert sk.factor_decode(broken, check.witness) != (1, 0) or True
        m = broken.m
        matches = [j for j in range(m)
                   if check.witness[j:j + m] in set(broken.codewords)]
        assert len(matches) != 1 or sk.factor_decode(broken, check.witness) is None

    def test_cap(self):
        with pytest.raises(CapacityError):
            sk.verify_factor_decodable(sk.build_code(10, 2), cap=5)

    def test_small_sweep_family(self):
        for h in (2, 3, 4):
            for n in (2, 7, 20):
                assert sk.verify_factor_decodable(sk.build_code(n, h)).ok


class TestGrowthConstants:
    def test_values(self):
        assert sk.f_value(2) == pytest.approx(1.44042, abs=1e-4)
        assert sk.f_value(3) == pytest.approx(0.68966, abs=1e-4)
        assert sk.f_value(10) == pytest.approx(0.30224, abs=1e-4)
        assert sk.g_value(2) == pytest.approx(4.11270, abs=1e-4)
        assert sk.g_value(3) == pytest.approx(2.92587, abs=1e-4)
        assert sk.g_value(1000) == pytest.approx(2.10049, abs=1e-4)

    def test_printed_form_disagrees_with_reconciled(self):
        assert sk.g_value_printed(2) == pytest.approx(2.67228, abs=1e-4)

    def test_product_with_log_tends_to_one(self):
        import math
        assert sk.f_value(100) * math.log2(100) == pytest.approx(1.0, abs=1e-2)
        assert sk.f_value(1000) * math.log2(1000) == pytest.approx(1.0, abs=1e-2)
