from contextlib import contextmanager
from unittest import mock

import pytest
from hypothesis import example, given, settings
import hypothesis.strategies as st

from argstable import (
    ArgumentationFramework,
    ParseError,
    UnknownArgumentError,
    framework,
    parse_apx,
    parse_tgf,
)
from tests.common import (
    EMPTY,
    CHAIN,
    KNOT,
    SELF_ATTACK,
    attack_chain,
    defeat_frameworks,
    odd_cycles,
    recursion_headroom,
    subsets_of,
)
from tests.reference_parsers import reference_parse_apx, reference_parse_tgf


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


_README_KNOT = (
    "arg(a). arg(b). arg(c). arg(d). arg(e).\n"
    "att(a,b). att(b,a). att(b,c). att(c,d). att(d,e). att(e,c).\n"
)


@contextmanager
def _counting_apx_errors():
    """The texts `parse_apx` hands to its error scanner, while in the block."""
    calls = []
    diagnose = framework._apx_error

    def counted(text, declared):
        calls.append(text)
        return diagnose(text, declared)

    with mock.patch.object(framework, "_apx_error", counted):
        yield calls


class TestConstruction:
    def test_attack_endpoints_must_be_declared(self):
        with pytest.raises(ValueError):
            ArgumentationFramework({"a"}, {("a", "b")})

    def test_invalid_argument_name(self):
        with pytest.raises(ValueError):
            ArgumentationFramework({"not ok"}, frozenset())

    def test_parsers_skip_the_validating_constructor(self, monkeypatch):
        # the parsers admit only valid names and reject an undeclared
        # endpoint, so a parsed framework is not checked again
        built = []
        validating = ArgumentationFramework.__new__

        def counted(cls, *args):
            built.append(args)
            return validating(cls, *args)

        monkeypatch.setattr(ArgumentationFramework, "__new__", staticmethod(counted))
        assert parse_apx(KNOT.to_apx()) == KNOT
        assert parse_tgf(KNOT.to_tgf()) == KNOT
        assert built == []
        ArgumentationFramework(["a"], [])
        assert len(built) == 1

    def test_valid_apx_is_accepted_without_the_error_scanner(self):
        # valid text is accepted by one split; only rejected text is read
        # again, for its error's line and column
        texts = [
            _README_KNOT,
            "% head\r\narg(a).  \t arg(b).\r\n\r\n%c\r\natt(a,b).\t\t% tail\r\n  ",
        ]
        with _counting_apx_errors() as calls:
            for text in texts:
                assert parse_apx(text) == reference_parse_apx(text)
        assert calls == []
        with _counting_apx_errors() as calls:
            with pytest.raises(ParseError):
                parse_apx("arg(a).\n  bogus")
        assert len(calls) == 1

    @settings(max_examples=40)
    @given(st.data())
    def test_serialized_apx_is_accepted_without_the_error_scanner(self, data):
        af = data.draw(defeat_frameworks())
        with _counting_apx_errors() as calls:
            assert parse_apx(af.to_apx()) == af
        assert calls == []

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


@settings(max_examples=80)
@given(defeat_frameworks())
def test_round_trip_both_formats(af):
    assert parse_apx(af.to_apx()) == af
    assert parse_tgf(af.to_tgf()) == af


@settings(max_examples=80)
@given(defeat_frameworks(), st.data())
def test_admissible_implies_conflict_free(af, data):
    members = data.draw(st.frozensets(st.sampled_from(sorted(af.arguments))) if af.arguments
                        else st.just(frozenset()))
    if af.is_admissible(members):
        assert af.is_conflict_free(members)


@settings(max_examples=80)
@given(defeat_frameworks())
def test_unattacked_arguments_acceptable_wrt_empty_set(af):
    for x in af.arguments:
        if not af.attackers(x):
            assert af.is_acceptable(x, frozenset())


@settings(max_examples=80)
@given(defeat_frameworks())
def test_attackers_match_attacks(af):
    for x in af.arguments:
        expected = {s for s, t in af.attacks if t == x}
        assert af.attackers(x) == expected


def _admissible_by_definition(af, s):
    """No member attacks a member, and every attacker of a member is
    attacked by some member, read straight off the attack pairs."""
    conflict_free = not any(x in s and y in s for x, y in af.attacks)
    defended = all(
        any((d, x) in af.attacks for d in s) for x, y in af.attacks if y in s
    )
    return conflict_free and defended


@settings(max_examples=80)
@given(defeat_frameworks())
@example(EMPTY)
@example(SELF_ATTACK)
@example(KNOT)
def test_admissible_matches_definition(af):
    for s in subsets_of(af.arguments):
        assert af.is_admissible(s) == _admissible_by_definition(af, s), sorted(s)


def _grounded_by_definition(af):
    """The least fixed point of the characteristic function, iterated from
    the empty set: S goes to the arguments whose every attacker S attacks."""
    s = None
    step = frozenset()
    while step != s:
        s = step
        attacked = {y for x, y in af.attacks if x in s}
        step = frozenset(
            x for x in af.arguments if all(b in attacked for b, a in af.attacks if a == x)
        )
    return s


@settings(max_examples=200)
@given(defeat_frameworks())
@example(EMPTY)
@example(CHAIN)
@example(SELF_ATTACK)
@example(KNOT)
@example(ArgumentationFramework("abcd", {("a", "b"), ("b", "c"), ("c", "d"), ("d", "c")}))
def test_grounded_is_the_least_fixed_point_and_what_it_attacks(af):
    accepted, rejected = af.grounded()
    assert accepted == _grounded_by_definition(af)
    assert rejected == {y for x, y in af.attacks if x in accepted}
    assert type(accepted) is type(rejected) is frozenset


@settings(max_examples=100)
@given(defeat_frameworks(), st.data())
def test_restrict_keeps_the_members_and_the_attacks_between_them(af, data):
    members = data.draw(st.frozensets(st.sampled_from(sorted(af.arguments))) if af.arguments
                        else st.just(frozenset()))
    restricted = af.restrict(iter(members))
    assert type(restricted) is ArgumentationFramework
    assert restricted.arguments == members
    assert restricted.attacks == {(x, y) for x, y in af.attacks if x in members and y in members}
    with pytest.raises(UnknownArgumentError, match="unknown arguments: \\['zz'\\]"):
        af.restrict(members | {"zz"})


# The labelling keeps a worklist, not a recursion: a chain is labelled one
# argument after another, and the sources below decide a thousand 3-cycles.
def test_grounded_and_restrict_need_no_recursion():
    chain = attack_chain(5000)
    cycles = odd_cycles(1000)
    fed = ArgumentationFramework(
        cycles.arguments | {"s"}, cycles.attacks | {("s", f"a{i}") for i in range(1000)}
    )
    names = sorted(chain.arguments)
    with recursion_headroom(50):
        assert chain.grounded() == (frozenset(names[::2]), frozenset(names[1::2]))
        assert cycles.grounded() == (frozenset(), frozenset())
        accepted, rejected = fed.grounded()
        assert chain.restrict(names[1:]).attacks == chain.attacks - {(names[0], names[1])}
        assert cycles.restrict(cycles.arguments) == cycles
    assert accepted == {"s"} | {f"b{i}" for i in range(1000)}
    assert rejected == {f"{x}{i}" for i in range(1000) for x in "ac"}


# Text in either format, well formed or not, for the differential property
# below: names in mixed case, line ends and blanks that `str.splitlines` and
# `str.split` treat differently, comments without a final newline, and
# undeclared endpoints, unknown predicates and wrong arities.
_TEXT_NAMES = ["a", "b", "Ab", "x_1", "Z9"]
_BREAKS = ["\n", "\r\n", "\r", "\x0c", "\x1c", "\x85", "\u2028"]
_BLANKS = [" ", "\t", "\xa0", "\x1f", "  "]
_NOISE = st.sampled_from(_BREAKS + _BLANKS + [
    "%", "#", "(", ")", ",", ".", "1", "_", "a", "q", "arg", "att", "arg(", "zz",
])


@st.composite
def _mutated(draw, text):
    """`text` with a few characters dropped or pieces inserted."""
    for _ in range(draw(st.integers(0, 3))):
        pos = draw(st.integers(0, len(text)))
        if pos < len(text) and draw(st.booleans()):
            text = text[:pos] + text[pos + 1:]
        else:
            text = text[:pos] + draw(_NOISE) + text[pos:]
    return text


@st.composite
def apx_texts(draw):
    names = draw(st.lists(st.sampled_from(_TEXT_NAMES), unique=True, max_size=5))
    pick = st.sampled_from(names + ["zz"])  # zz is never declared
    facts = [f"arg({x})." for x in names]
    facts += [f"att({x},{y})." for x, y in draw(st.lists(st.tuples(pick, pick), max_size=5))]
    facts += draw(st.lists(st.sampled_from(
        ["node(a).", "arg(a,b).", "att(a).", "arg( Ab ) .", "att( a ,\tb ) ."]), max_size=2))
    facts = draw(st.permutations(facts))
    gap = st.sampled_from(_BREAKS + _BLANKS + ["% note\n", "%c\r\n", ""])
    text = "".join(draw(gap) + fact for fact in facts) + draw(gap)
    if draw(st.booleans()):
        text += "% a comment with no final newline"
    return draw(_mutated(text))


@st.composite
def tgf_texts(draw):
    names = draw(st.lists(st.sampled_from(_TEXT_NAMES), unique=True, max_size=5))
    pick = st.sampled_from(names + ["zz"])
    blank = st.sampled_from(_BLANKS + [""])
    lines = [draw(blank) + x + draw(blank) for x in names]
    lines += [draw(blank) + "#"]
    lines += [f"{x}{draw(st.sampled_from(_BLANKS))}{y}{draw(blank)}"
              for x, y in draw(st.lists(st.tuples(pick, pick), max_size=5))]
    lines += draw(st.lists(st.sampled_from(["", "a b c", "1x", "# #", "a"]), max_size=2))
    text = "".join(line + draw(st.sampled_from(_BREAKS)) for line in lines)
    return draw(_mutated(text))


def _outcome(parse, text):
    """The framework `parse` returns, or the type, message, line and column
    of its `ParseError`."""
    try:
        return parse(text)
    except ParseError as exc:
        return type(exc), str(exc), exc.line, exc.column


_APX_CASE = (parse_apx, reference_parse_apx)
_TGF_CASE = (parse_tgf, reference_parse_tgf)


@settings(max_examples=400)
@given(st.one_of(
    st.tuples(st.just(_APX_CASE), apx_texts()),
    st.tuples(st.just(_TGF_CASE), tgf_texts()),
))
# the traps of accepting APX by a split: a fact inside a comment, a comment
# or a letter inside or before a fact, facts with nothing between them,
# breaks inside a fact, a last fact with no dot and an undeclared endpoint
@example((_APX_CASE, "% att(a,z).\narg(a)."))
@example((_APX_CASE, "arg(a%\n)."))
@example((_APX_CASE, "xarg(a)."))
@example((_APX_CASE, "arg(a).arg(b)."))
@example((_APX_CASE, "arg(\na\n)\n."))
@example((_APX_CASE, "arg(a).\natt(a,a)"))
@example((_APX_CASE, "att(z,a).\narg(a)."))
# the traps of finding the error between the split's matches: a piece that
# starts inside a bad word, bad text after the last piece, and a comment
# inside a fact shape
@example((_APX_CASE, "1arg(a)."))
@example((_APX_CASE, "xatt(a,b)."))
@example((_APX_CASE, "arg(a). att(a"))
@example((_APX_CASE, "arg(a).\n  bogus"))
@example((_APX_CASE, "arg(a,b)%\n."))
# blanks that `str.split` splits at but `str.splitlines` does not end a line
# at, `#` between blanks, and a second `#` after the separator
@example((_TGF_CASE, "a\x1f\n\xa0b\n#\na\x1fb\nb\xa0a\n"))
@example((_TGF_CASE, "a\x1fb\n#\n"))
@example((_TGF_CASE, "a\n \t#\xa0\na a\n"))
@example((_TGF_CASE, "a\n#\na a\n#\n"))
def test_parsers_agree_with_the_reference_parsers(case):
    (parse, reference), text = case
    assert _outcome(parse, text) == _outcome(reference, text)
