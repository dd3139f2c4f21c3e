import pytest

from omegacont import fixtures as fx
from omegacont.buchi import BuchiAutomaton
from omegacont.oneway import Transducer
from omegacont.textio import (
    FIXTURE_NAMES, MachineFile, ParseError, ValidationError, fixture_path,
    format_up, format_word, kind_of, parse_spec, parse_up, parse_word,
    serialize,
)
from omegacont.twoway import TwoWayPLA, TwoWayTransducer
from omegacont.words import up_word

ALL_FIXTURES = [
    fx.branch_switch(), fx.prefix_doubler(), fx.tail_classifier(),
    fx.block_doubler(), fx.stem_doubler(), fx.tail_classifier_2way(),
    fx.prefix_doubler_2way(), fx.p_suffix_shape(),
]


class TestWords:
    def test_parse_up(self):
        assert parse_up("ab(ba)") == up_word("ab", "ba")
        assert parse_up("(b)") == up_word("", "b")
        assert parse_up("_(b)") == up_word("", "b")

    def test_parse_up_errors(self):
        for bad in ("abc", "a()", "a(b", ""):
            with pytest.raises(ValueError):
                parse_up(bad)

    def test_format_up_round_trip(self):
        for x in (up_word("ab", "ba"), up_word("", "b"), up_word("a", "cd")):
            assert parse_up(format_up(x)) == x

    def test_words(self):
        assert parse_word("_") == ()
        assert parse_word("ab") == ("a", "b")
        assert format_word(()) == "_"
        assert format_word(("a", "b")) == "ab"


class TestRoundTrip:
    def test_all_machine_kinds(self):
        for m in ALL_FIXTURES:
            text = serialize(m)
            mf = parse_spec(text)
            assert mf.machine == m
            assert mf.kind == kind_of(m)
            # byte-identical re-serialization
            assert serialize(mf.machine) == text

    def test_shipped_files_parse(self):
        kinds = {"t_nc": Transducer, "t_c": Transducer, "t_inf": Transducer,
                 "f_inf": TwoWayPLA, "j": TwoWayPLA,
                 "dbl": TwoWayTransducer, "t_c_2way": TwoWayPLA}
        for name in FIXTURE_NAMES:
            with open(fixture_path(name), encoding="utf-8") as f:
                text = f.read()
            mf = parse_spec(text)
            assert isinstance(mf.machine, kinds[name])
            assert serialize(mf.machine) == text

    def test_unknown_fixture_name(self):
        with pytest.raises(ValueError):
            fixture_path("nope")


class TestParseErrors:
    def test_missing_output_in_nft(self):
        text = ("type: nft\nalphabet: a\noutputs: b\nstates: q0 q1\n"
                "initial: q0\nfinal: q1\ntrans: q0 a q1\n")
        with pytest.raises(ParseError) as e:
            parse_spec(text)
        assert e.value.line == 7

    def test_unknown_directive(self):
        with pytest.raises(ParseError):
            parse_spec("type: buchi\ncolors: red\n")

    def test_unknown_kind(self):
        with pytest.raises(ParseError):
            parse_spec("type: moore\n")

    def test_type_must_come_first(self):
        with pytest.raises(ParseError):
            parse_spec("alphabet: a\ntype: buchi\n")

    def test_duplicate_directive(self):
        with pytest.raises(ParseError):
            parse_spec("type: buchi\nstates: q\nstates: q\n")

    def test_missing_directive(self):
        with pytest.raises(ParseError):
            parse_spec("type: buchi\nstates: q\ninitial: q\nfinal: q\n")

    def test_unquoted_output(self):
        with pytest.raises(ParseError):
            parse_spec("type: nft\nalphabet: a\noutputs: a\nstates: q\n"
                       "initial: q\nfinal: q\ntrans: q a q ab\n")

    def test_comment_and_blank_lines(self):
        mf = parse_spec("# a comment\n\ntype: buchi\nalphabet: a\n"
                        "states: q\ninitial: q\nfinal: q\ntrans: q a q\n")
        assert isinstance(mf.machine, BuchiAutomaton)


class TestValidation:
    def test_nondeterministic_2dbt(self):
        text = ("type: 2dbt\nalphabet: a\noutputs: a\nstates: q r\n"
                "initial: q\nfinal: q\n"
                'trans: q a q "a" +1\ntrans: q a r "a" +1\n')
        with pytest.raises(ValidationError, match="nondeterministic"):
            parse_spec(text)

    def test_unknown_state_in_transition(self):
        with pytest.raises(ValidationError):
            parse_spec("type: buchi\nalphabet: a\nstates: q\n"
                       "initial: q\nfinal: q\ntrans: q a r\n")

    def test_pla_needs_lookahead_block(self):
        text = ("type: 2dft-pla\nalphabet: a\noutputs: a\nstates: q\n"
                "initial: q\n")
        with pytest.raises(ParseError, match="lookahead"):
            parse_spec(text)

    def test_pla_unknown_lookahead_state(self):
        text = ("type: 2dft-pla\nalphabet: a\noutputs: a\nstates: q\n"
                "initial: q\n"
                "lookahead:\n  alphabet: ^ a\n  states: p\n"
                "  initial: p\n  final: p\n  trans: p a p\n"
                'trans: q a bogus q "a" +1\n')
        with pytest.raises(ValidationError, match="bogus"):
            parse_spec(text)

    def test_2dbt_single_initial(self):
        text = ("type: 2dbt\nalphabet: a\noutputs: a\nstates: q r\n"
                "initial: q r\nfinal: q\n")
        with pytest.raises(ValidationError):
            parse_spec(text)
