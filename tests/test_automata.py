import random

import pytest
from hypothesis import given, settings, strategies as st

import sltkit as sk
from sltkit import CapacityError, Nfa, ParseError

from conftest import CORPUS_NAMES, Path, corpus_text, enumerate_m_paths, word_key
from test_random_machines import random_machines

APLUS_TEXT = """\
# two-state machine for a+
alphabet a
states 2
initial 0
final 1
trans 0 a 1
trans 1 a 1
"""


def brute_accepts(m: Nfa, word) -> bool:
    """Independent oracle: explicit search over all labelled paths."""
    def walk(state, remaining):
        if not remaining:
            return state in m.finals
        return any(walk(dst, remaining[1:])
                   for src, a, dst in m.transitions
                   if src == state and a == remaining[0])
    return bool(word) and walk(m.initial, tuple(word))


@pytest.fixture
def aplus():
    return sk.parse_nfa(APLUS_TEXT)


@pytest.fixture
def evens():
    return sk.parse_nfa(corpus_text("evens"))


class TestParse:
    def test_round_trip_against_hand_built(self, aplus):
        by_hand = Nfa(n=2, alphabet=("a",), transitions=((0, "a", 1), (1, "a", 1)),
                      initial=0, finals=frozenset({1}))
        assert aplus == by_hand
        assert aplus.n == 2
        assert aplus.total

    def test_initial_cannot_be_final(self):
        text = APLUS_TEXT.replace("final 1", "final 0")
        with pytest.raises(ParseError, match="initial state cannot be final"):
            sk.parse_nfa(text)

    def test_unknown_letter(self):
        text = APLUS_TEXT + "trans 0 c 1\n"
        with pytest.raises(ParseError, match="unknown letter"):
            sk.parse_nfa(text)

    def test_unknown_state(self):
        with pytest.raises(ParseError, match="unknown state"):
            sk.parse_nfa(APLUS_TEXT + "trans 0 a 7\n")

    def test_duplicate_transitions_ignored(self, aplus):
        again = sk.parse_nfa(APLUS_TEXT + "trans 0 a 1\n")
        assert again == aplus

    def test_quoted_letter_tokens(self):
        m = sk.parse_nfa("alphabet 'aa' b\nstates 2\ninitial 0\nfinal 1\ntrans 0 'aa' 1\n")
        assert m.alphabet == ("aa", "b")
        assert sk.accepts(m, ("aa",))

    def test_line_numbers_in_errors(self):
        with pytest.raises(ParseError, match="line 2"):
            sk.parse_nfa("alphabet a\nstates zero\n")


class TestTotalize:
    def test_adds_sink_for_missing_pairs(self):
        m = Nfa(n=2, alphabet=("a", "b"),
                transitions=((0, "a", 1), (0, "b", 1), (1, "a", 1)),
                initial=0, finals=frozenset({1}))
        t = sk.totalize(m)
        assert t.n == 3 and t.total
        added = set(t.transitions) - set(m.transitions)
        assert added == {(1, "b", 2), (2, "a", 2), (2, "b", 2)}
        assert 2 not in t.finals

    def test_idempotent(self, aplus):
        assert sk.totalize(aplus) is aplus

    def test_degenerate_single_state(self):
        m = Nfa(n=1, alphabet=("a",), transitions=(), initial=0, finals=frozenset())
        t = sk.totalize(m)
        assert t.n == 2
        assert set(t.transitions) == {(0, "a", 1), (1, "a", 1)}

    @pytest.mark.parametrize("name", CORPUS_NAMES)
    def test_language_preserved(self, name, machines):
        m = machines[name]
        t = sk.totalize(m)
        for max_len in (4, 8, 12):
            assert sk.enumerate_language(m, max_len) == sk.enumerate_language(t, max_len)


class TestTrim:
    # state 0 is unreachable, 3 is dead, 4 is unreachable and dead
    NON_TRIM = Nfa(n=5, alphabet=("a", "b"),
                   transitions=((0, "a", 1), (1, "a", 2), (1, "b", 3), (2, "b", 1),
                                (3, "a", 3), (4, "b", 2)),
                   initial=1, finals=frozenset({2}))

    def test_removes_useless_states_in_order(self):
        t = sk.trim(self.NON_TRIM)
        assert t == Nfa(n=2, alphabet=("a", "b"), transitions=((0, "a", 1), (1, "b", 0)),
                        initial=0, finals=frozenset({1}))

    @pytest.mark.parametrize("name", CORPUS_NAMES)
    def test_totalized_machine_trims_alike(self, name, machines):
        m = machines[name]
        assert sk.trim(sk.totalize(m)) == sk.trim(m)
        for max_len in (4, 8):
            assert sk.enumerate_language(sk.trim(m), max_len) == sk.enumerate_language(m, max_len)

    def test_idempotent(self, machines):
        for m in (*machines.values(), self.NON_TRIM):
            t = sk.trim(m)
            assert sk.trim(t) is t

    def test_trim_machine_returned_unchanged(self, machines, aplus):
        assert sk.trim(aplus) is aplus
        assert sk.trim(machines["evens"]) is machines["evens"]

    def test_keeps_initial_state_and_order(self):
        # initial state 2 sits between a dead state and two useful ones
        m = Nfa(n=4, alphabet=("a",), transitions=((2, "a", 0), (2, "a", 3), (3, "a", 0)),
                initial=2, finals=frozenset({0}))
        t = sk.trim(m)
        assert t == Nfa(n=3, alphabet=("a",), transitions=((1, "a", 0), (1, "a", 2), (2, "a", 0)),
                        initial=1, finals=frozenset({0}))

    def test_empty_language_keeps_initial_state_alone(self):
        m = Nfa(n=3, alphabet=("a", "b"), transitions=((1, "a", 1), (1, "b", 0)),
                initial=1, finals=frozenset({2}))
        for machine in (m, sk.totalize(m)):
            t = sk.trim(machine)
            assert t == Nfa(n=1, alphabet=("a", "b"), transitions=(), initial=0,
                            finals=frozenset())
            assert sk.trim(t) is t


class TestAccepts:
    def test_basic(self, aplus):
        assert sk.accepts(aplus, tuple("aaa"))
        assert not sk.accepts(aplus, ())

    def test_unknown_letter(self, aplus):
        with pytest.raises(ValueError, match="unknown letter"):
            sk.accepts(aplus, tuple("ab"))

    def test_against_brute_force_path_search(self, evens):
        words = [()]
        for _ in range(5):
            words = [w + (a,) for w in words for a in "ab"] + words
        for w in set(words):
            assert sk.accepts(evens, w) == brute_accepts(evens, w)
        assert not sk.accepts(evens, tuple("aab"))


class TestEnumerate:
    def test_aplus(self, aplus):
        assert sk.enumerate_language(aplus, 3) == [("a",), ("a", "a"), ("a", "a", "a")]

    def test_evens_brute_force_cross_check(self, evens):
        got = sk.enumerate_language(evens, 4)
        assert got == [tuple("aa"), tuple("bb"), tuple("aaaa"), tuple("bbbb")]
        # oracle: filter the full cube of words up to length 4
        all_words = [()]
        expected = []
        for _ in range(4):
            all_words = [w + (a,) for w in all_words for a in "ab"]
            expected.extend(w for w in all_words if brute_accepts(evens, w))
        assert sorted(got, key=word_key(evens)) == sorted(expected, key=word_key(evens))

    def test_empty_language(self):
        m = Nfa(n=1, alphabet=("a",), transitions=((0, "a", 0),), initial=0,
                finals=frozenset())
        assert sk.enumerate_language(m, 5) == []

    def test_cap(self, evens):
        with pytest.raises(CapacityError):
            sk.enumerate_language(evens, 12, cap=3)

    @pytest.mark.parametrize("name", CORPUS_NAMES)
    def test_agrees_with_accepts(self, name, machines):
        m = machines[name]
        accepted = set(sk.enumerate_language(m, 10))
        words = [()]
        for _ in range(10):
            words = [w + (a,) for w in words for a in m.alphabet]
            for w in words:
                assert (w in accepted) == sk.accepts(m, w)


class TestEquivalence:
    def test_unreachable_state_is_irrelevant(self, aplus):
        padded = Nfa(n=3, alphabet=("a",), transitions=aplus.transitions + ((2, "a", 2),),
                     initial=0, finals=frozenset({1}))
        assert sk.nfa_equivalent(aplus, padded).equivalent

    def test_shortest_witness(self, aplus):
        doubled = Nfa(n=3, alphabet=("a",),
                      transitions=((0, "a", 1), (1, "a", 2), (2, "a", 1)),
                      initial=0, finals=frozenset({2}))
        verdict = sk.nfa_equivalent(aplus, doubled)
        assert not verdict.equivalent and verdict.witness == ("a",)
        bounded = sk.nfa_equivalent(aplus, doubled, mode="bounded", max_len=6)
        assert bounded.witness == ("a",)

    def test_distinct_machines_same_language(self):
        one = Nfa(n=3, alphabet=("a", "b"),
                  transitions=((0, "a", 1), (1, "b", 2), (2, "a", 1)),
                  initial=0, finals=frozenset({2}))
        two = Nfa(n=3, alphabet=("a", "b"),
                  transitions=((0, "a", 2), (2, "b", 1), (1, "a", 2)),
                  initial=0, finals=frozenset({1}))
        assert sk.nfa_equivalent(one, two, mode="bounded", max_len=8).equivalent
        assert sk.nfa_equivalent(one, two).equivalent

    @pytest.mark.parametrize("name", CORPUS_NAMES)
    def test_reflexive(self, name, machines):
        assert sk.nfa_equivalent(machines[name], machines[name]).equivalent

    def test_state_cap(self, evens):
        with pytest.raises(CapacityError):
            sk.nfa_equivalent(evens, evens, cap=2)
        with pytest.raises(CapacityError):  # the same cap in bounded mode
            sk.nfa_equivalent(evens, evens, mode="bounded", max_len=4, cap=2)

    def test_alphabet_mismatch(self, aplus, evens):
        with pytest.raises(ValueError):
            sk.nfa_equivalent(aplus, evens)


class TestPaths:
    def test_two_step_paths(self, aplus):
        paths = enumerate_m_paths(aplus, 0, 2)
        assert paths == [Path(0, ((0, "a", 1), (1, "a", 1)))]

    def test_zero_length_is_empty_path(self, evens):
        assert enumerate_m_paths(evens, 3, 0) == [Path(3)]

    def test_sink_self_loop(self, aplus):
        t = sk.totalize(Nfa(n=1, alphabet=("a",), transitions=(), initial=0,
                            finals=frozenset()))
        paths = enumerate_m_paths(t, 1, 1)
        assert paths == [Path(1, ((1, "a", 1),))]

    def test_inconsistent_transitions_rejected(self):
        with pytest.raises(ValueError, match="consecutive"):
            Path(0, ((0, "a", 1), (2, "a", 0)))

    @pytest.mark.parametrize("name", CORPUS_NAMES)
    def test_labels_have_requested_length(self, name, machines):
        m = machines[name]
        for t in (0, 1, 3):
            for path in enumerate_m_paths(m, m.initial, t):
                assert len(path.label) == t
                assert path.origin == m.initial


class TestTable:
    @settings(max_examples=150, deadline=None)
    @given(drawn=random_machines(), data=st.data())
    def test_rows_index_the_transitions_given_in_any_order(self, drawn, data):
        for machine in (drawn, sk.totalize(drawn)):
            # every transition twice, in a random order
            given_order = data.draw(st.permutations(machine.transitions * 2))
            m = Nfa(n=machine.n, alphabet=machine.alphabet, transitions=tuple(given_order),
                    initial=machine.initial, finals=machine.finals)
            assert m == machine and m.transitions == machine.transitions
            expected = {(q, a): tuple(sorted({d for s, b, d in given_order if (s, b) == (q, a)}))
                        for q in range(m.n) for a in m.alphabet}
            assert m.table.n == m.n
            assert all(m.table.targets(q, i) == expected[q, a]
                       for q in range(m.n) for i, a in enumerate(m.alphabet))
            assert m.total == all(expected.values())
            assert all(m.step(q, a) == targets for (q, a), targets in expected.items())
            with pytest.raises(ValueError, match="unknown letter: 'zz'"):
                m.step(m.initial, "zz")

    def test_entries_with_several_successors_name_their_tuples(self):
        rng = random.Random(7)
        expected = {(q, a): tuple(sorted(rng.sample(range(6), rng.choice((0, 1, 2, 3, 6)))))
                    for q in range(6) for a in range(2)}
        moves = [(q, "ab"[a], dst) for (q, a), targets in expected.items() for dst in targets]
        rng.shuffle(moves)
        m = Nfa(n=6, alphabet=("a", "b"), transitions=tuple(moves + moves[::2]), initial=0,
                finals=frozenset({5}))
        t = m.table
        assert t.n == m.n and [col.typecode for col in t.succ] == ["i", "i"]
        assert t.sets[0] == () and all(len(targets) > 1 for targets in t.sets[1:])
        for (q, a), targets in expected.items():
            entry = t.succ[a][q]
            assert t.targets(q, a) == targets == m.step(q, "ab"[a])
            assert (entry == -1) == (not targets) and (entry >= 0) == (len(targets) == 1)
        assert m.total == all(expected.values())
        assert sorted({(q, "ab"[a], d) for (q, a), ts in expected.items() for d in ts}) == list(
            m.transitions)

    def test_an_id_past_the_entry_range_raises(self, aplus):
        # 4-byte entries; the array refuses an id it cannot hold instead of wrapping it
        col = aplus.table.succ[0][:]
        assert col.itemsize == 4
        with pytest.raises(OverflowError):
            col.append(2**31)

    def test_step_rejects_an_unknown_state(self, aplus):
        assert aplus.step(1, "a") == (1,)
        for state in (-1, 2):
            with pytest.raises(ValueError, match=f"unknown state: {state}"):
                aplus.step(state, "a")


class TestHelpers:
    def test_relabel_projects_language(self, evens):
        mapping = {"a": "x", "b": "x"}
        image = sk.relabel(evens, mapping, ("x",))
        words = sk.enumerate_language(image, 6)
        assert words == [tuple("xx"), tuple("xxxx"), tuple("xxxxxx")]

    def test_word_set_nfa(self):
        words = [tuple("ab"), tuple("a"), tuple("abb")]
        m = sk.word_set_nfa(words, ("a", "b"))
        assert sk.enumerate_language(m, 5) == sorted(words, key=word_key(m))

    def test_union(self, aplus):
        other = Nfa(n=2, alphabet=("a",), transitions=((0, "a", 1), (1, "a", 0)),
                    initial=0, finals=frozenset({1}))  # odd-length runs
        u = sk.union_nfa(aplus, other)
        assert sk.enumerate_language(u, 3) == sk.enumerate_language(aplus, 3)
