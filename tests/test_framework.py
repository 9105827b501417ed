import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from argstable import (
    ArgumentationFramework,
    ParseError,
    UnknownArgumentError,
    parse_apx,
    parse_tgf,
)
from tests.common import EMPTY, CHAIN, SELF_ATTACK


class TestParseApx:
    def test_basic(self):
        text = "arg(a). arg(b). arg(c). att(a,b). att(b,c)."
        assert parse_apx(text) == CHAIN

    def test_empty_input(self):
        assert parse_apx("") == EMPTY

    def test_comments_and_whitespace(self):
        text = "% header\narg(a).\n  arg( b ).%inline\n\natt( a , b ).\n% tail"
        af = parse_apx(text)
        assert af.arguments == {"a", "b"}
        assert af.attacks == {("a", "b")}

    def test_duplicate_declarations_tolerated(self):
        af = parse_apx("arg(a). arg(a). att(a,a). att(a,a).")
        assert af == SELF_ATTACK

    def test_attack_before_declaration(self):
        af = parse_apx("att(a,b). arg(a). arg(b).")
        assert af.attacks == {("a", "b")}

    def test_undeclared_attack_is_error(self):
        with pytest.raises(ParseError) as exc:
            parse_apx("arg(a). att(a,b).")
        assert "b" in str(exc.value)

    def test_syntax_error_position(self):
        with pytest.raises(ParseError) as exc:
            parse_apx("arg(a).\n  bogus")
        assert exc.value.line == 2
        assert exc.value.column == 3

    def test_unknown_predicate(self):
        with pytest.raises(ParseError):
            parse_apx("node(a).")

    @pytest.mark.parametrize("text", ["arg(a,b).", "att(a).", "arg().", "arg(a)"])
    def test_malformed_fact(self, text):
        with pytest.raises(ParseError):
            parse_apx(text)

    def test_invalid_name_rejected(self):
        with pytest.raises(ParseError):
            parse_apx("arg(1a).")

    def test_case_sensitive_names(self):
        af = parse_apx("arg(A). arg(a).")
        assert af.arguments == {"A", "a"}


class TestParseTgf:
    def test_basic(self):
        assert parse_tgf("a\nb\nc\n#\na b\nb c\n") == CHAIN

    def test_self_attack(self):
        assert parse_tgf("a\n#\na a\n") == SELF_ATTACK

    def test_no_edges(self):
        af = parse_tgf("a\nb\n#\n")
        assert af.arguments == {"a", "b"}
        assert af.attacks == frozenset()

    def test_blank_lines_skipped(self):
        af = parse_tgf("\na\n\nb\n#\n\na b\n\n")
        assert af.attacks == {("a", "b")}

    def test_missing_separator(self):
        with pytest.raises(ParseError):
            parse_tgf("a\nb\n")

    def test_bad_node_line(self):
        with pytest.raises(ParseError) as exc:
            parse_tgf("a extra\n#\n")
        assert exc.value.line == 1

    def test_bad_edge_line(self):
        with pytest.raises(ParseError) as exc:
            parse_tgf("a\n#\na\n")
        assert exc.value.line == 3

    def test_undeclared_endpoint(self):
        with pytest.raises(ParseError):
            parse_tgf("a\n#\na b\n")


class TestConstruction:
    def test_attack_endpoints_must_be_declared(self):
        with pytest.raises(ValueError):
            ArgumentationFramework({"a"}, {("a", "b")})

    def test_invalid_argument_name(self):
        with pytest.raises(ValueError):
            ArgumentationFramework({"not ok"}, frozenset())

    def test_values_are_frozen(self):
        af = ArgumentationFramework(["a", "a", "b"], [("a", "b")])
        assert isinstance(af.arguments, frozenset)
        assert isinstance(af.attacks, frozenset)

    def test_named_tuple_fields(self):
        af = ArgumentationFramework(["a", "b"], [("a", "b")])
        assert af == (frozenset({"a", "b"}), frozenset({("a", "b")}))
        assert repr(af).startswith("ArgumentationFramework(arguments=frozenset(")
        with pytest.raises(AttributeError):
            af.attacks = frozenset()
        assert af._replace(attacks=[["b", "a"]]).attacks == {("b", "a")}
        with pytest.raises(ValueError):
            af._replace(attacks={("a", "z")})


class TestPredicates:
    def test_attackers(self):
        assert CHAIN.attackers("b") == {"a"}
        assert CHAIN.attackers("a") == frozenset()
        assert SELF_ATTACK.attackers("a") == {"a"}

    def test_attackers_unknown(self):
        with pytest.raises(UnknownArgumentError):
            CHAIN.attackers("z")

    def test_conflict_free(self):
        assert CHAIN.is_conflict_free({"a", "c"})
        assert not CHAIN.is_conflict_free({"a", "b"})
        assert CHAIN.is_conflict_free(frozenset())
        assert not SELF_ATTACK.is_conflict_free({"a"})

    def test_conflict_free_stray_member(self):
        with pytest.raises(UnknownArgumentError):
            CHAIN.is_conflict_free({"z"})

    def test_acceptable(self):
        assert CHAIN.is_acceptable("c", {"a"})
        assert not CHAIN.is_acceptable("b", {"b"})
        assert CHAIN.is_acceptable("a", frozenset())

    def test_admissible(self):
        assert CHAIN.is_admissible(frozenset())
        assert CHAIN.is_admissible({"a"})
        assert CHAIN.is_admissible({"a", "c"})
        assert not CHAIN.is_admissible({"b"})
        assert not CHAIN.is_admissible({"c"})


class TestSerialization:
    def test_apx_canonical(self):
        assert CHAIN.to_apx() == "arg(a).\narg(b).\narg(c).\natt(a,b).\natt(b,c).\n"

    def test_tgf_canonical(self):
        assert CHAIN.to_tgf() == "a\nb\nc\n#\na b\nb c\n"

    def test_empty_round_trip(self):
        assert parse_apx(EMPTY.to_apx()) == EMPTY
        assert parse_tgf(EMPTY.to_tgf()) == EMPTY


_names = st.sampled_from(["a", "b", "c", "d", "e", "f_1", "G2"])


@st.composite
def frameworks(draw):
    args = draw(st.frozensets(_names, max_size=6))
    pairs = [(x, y) for x in sorted(args) for y in sorted(args)]
    attacks = draw(st.frozensets(st.sampled_from(pairs))) if pairs else frozenset()
    return ArgumentationFramework(args, attacks)


@settings(deadline=None, max_examples=80)
@given(frameworks())
def test_round_trip_both_formats(af):
    assert parse_apx(af.to_apx()) == af
    assert parse_tgf(af.to_tgf()) == af


@settings(deadline=None, max_examples=80)
@given(frameworks(), st.data())
def test_admissible_implies_conflict_free(af, data):
    members = data.draw(st.frozensets(st.sampled_from(sorted(af.arguments))) if af.arguments
                        else st.just(frozenset()))
    if af.is_admissible(members):
        assert af.is_conflict_free(members)


@settings(deadline=None, max_examples=80)
@given(frameworks())
def test_unattacked_arguments_acceptable_wrt_empty_set(af):
    for x in af.arguments:
        if not af.attackers(x):
            assert af.is_acceptable(x, frozenset())


@settings(deadline=None, max_examples=80)
@given(frameworks())
def test_attacker_index_matches_attacks(af):
    for x in af.arguments:
        expected = {s for s, t in af.attacks if t == x}
        assert af.attackers(x) == expected
        assert af.attacker_index[x] == tuple(sorted(expected))
