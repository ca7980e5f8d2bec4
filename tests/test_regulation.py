"""Regulation language: parser, expansion, runnable SQL, budgets."""

import pickle
import sqlite3
from contextlib import closing
from dataclasses import replace
from itertools import product

import pytest
from hypothesis import given, strategies as st

from crowdreg.errors import (
    ConfigError,
    EmptyRegistryError,
    NoEnforceableRegulationError,
    RegulationSyntaxError,
    ThresholdRangeError,
    UnexpandedForAllError,
    UnknownParticipantError,
)
from crowdreg.regulation import (
    FORALL,
    ROLES,
    STAR,
    U_TABLE,
    ParticipantRegistry,
    Regulation,
    RegulationKind,
    TriplePattern,
    applicable,
    compute_budget,
    expand_all,
    expand_forall,
    parse_regulation,
    to_sql,
)


def reg(text):
    return parse_regulation(text)


REGISTRY = ParticipantRegistry(
    workers=("w1", "w2"), platforms=("p1", "p2"), requesters=("r1", "r2")
)


class TestParse:
    def test_weekly_limit_example(self):
        r = reg("((forall, *, *), <, 40)")
        assert r.pattern == TriplePattern("forall", "*", "*")
        assert r.threshold == 40
        assert r.kind == RegulationKind.ENFORCEABLE

    def test_insurance_example(self):
        r = reg("((w, *, *), >, 5)")
        assert r.pattern == TriplePattern("w", "*", "*")
        assert r.kind == RegulationKind.VERIFIABLE

    def test_zero_threshold_all_star(self):
        r = reg("((*, *, *), <, 0)")
        assert r.threshold == 0
        assert len(r.pattern.targets()) == 0

    def test_whitespace_insensitive(self):
        assert reg("(( w1 ,p , r ),<, 7 )") == reg("((w1,p,r),<,7)")

    def test_identifiers_verbatim(self):
        r = reg("((Alice_9, pltfrm, Req2), <, 3)")
        assert r.pattern.entries() == ("Alice_9", "pltfrm", "Req2")

    @pytest.mark.parametrize(
        "bad",
        [
            "",
            "((a, b), <, 3)",
            "((a, b, c, d), <, 3)",
            "((a, b, c), <=, 3)",
            "((a, b, c), <, x)",
            "(a, b, c), <, 3",
            "((a b, c, d), <, 3)",
        ],
    )
    def test_syntax_errors(self, bad):
        with pytest.raises(RegulationSyntaxError):
            reg(bad)

    def test_negative_threshold(self):
        with pytest.raises(ThresholdRangeError):
            reg("((a, b, c), <, -1)")


IDENT = st.from_regex(r"[A-Za-z][A-Za-z0-9_]{0,6}", fullmatch=True).filter(
    lambda s: s != "forall"
)
ENTRY = st.one_of(st.just("*"), st.just("forall"), IDENT)


@given(
    w=ENTRY,
    p=ENTRY,
    r=ENTRY,
    kind=st.sampled_from(RegulationKind),
    theta=st.integers(min_value=0, max_value=10**6),
)
def test_parse_render_round_trip(w, p, r, kind, theta):
    original = Regulation(TriplePattern(w, p, r), kind, theta)
    assert parse_regulation(original.render()) == original


class TestExpand:
    def test_forall_worker(self):
        out = expand_forall(reg("((forall, *, *), <, 40)"), REGISTRY)
        assert out == [reg("((w1, *, *), <, 40)"), reg("((w2, *, *), <, 40)")]

    def test_identity_without_forall(self):
        r = reg("((w1, p1, r1), <, 5)")
        assert expand_forall(r, REGISTRY) == [r]

    def test_triple_forall_is_full_product(self):
        out = expand_forall(reg("((forall, forall, forall), <, 1)"), REGISTRY)
        assert len(out) == 8
        # worker-major order, registry order inside each position
        assert out[0].pattern.entries() == ("w1", "p1", "r1")
        assert out[1].pattern.entries() == ("w1", "p1", "r2")
        assert out[-1].pattern.entries() == ("w2", "p2", "r2")

    def test_empty_registry_position(self):
        empty = ParticipantRegistry(workers=(), platforms=("p1",), requesters=("r1",))
        with pytest.raises(EmptyRegistryError):
            expand_forall(reg("((forall, *, *), <, 2)"), empty)

    @given(
        n_w=st.integers(min_value=1, max_value=4),
        n_p=st.integers(min_value=1, max_value=4),
        n_r=st.integers(min_value=1, max_value=4),
        mask=st.tuples(st.booleans(), st.booleans(), st.booleans()),
    )
    def test_expansion_length_is_product_of_forall_sizes(self, n_w, n_p, n_r, mask):
        registry = ParticipantRegistry(
            workers=tuple(f"w{i}" for i in range(n_w)),
            platforms=tuple(f"p{i}" for i in range(n_p)),
            requesters=tuple(f"r{i}" for i in range(n_r)),
        )
        entries = [
            "forall" if mask[0] else "a",
            "forall" if mask[1] else "b",
            "forall" if mask[2] else "*",
        ]
        r = Regulation(TriplePattern(*entries), RegulationKind.ENFORCEABLE, 2)
        expected = (n_w if mask[0] else 1) * (n_p if mask[1] else 1) * (n_r if mask[2] else 1)
        out = expand_forall(r, registry)
        assert len(out) == expected
        assert not any(x.pattern.has_forall() for x in out)


class TestSql:
    @pytest.mark.parametrize(
        "text, query",
        [
            (
                "((w, p, r), <, 26)",
                ("SELECT COUNT(*) < ? FROM u WHERE worker = ? AND platform = ? AND requester = ?", (26, "w", "p", "r")),
            ),
            ("((*, p, *), >, 5)", ("SELECT COUNT(*) > ? FROM u WHERE platform = ?", (5, "p"))),
            ("((*, *, *), <, 1)", ("SELECT COUNT(*) < ? FROM u", (1,))),
        ],
        ids=["three-targets", "verifiable", "all-star"],
    )
    def test_a_query_counts_the_rows_whose_columns_the_pattern_fixes(self, text, query):
        assert to_sql(reg(text)) == query

    def test_unexpanded_forall_rejected(self):
        with pytest.raises(UnexpandedForAllError):
            to_sql(reg("((forall, *, *), <, 2)"))

    @given(
        entries=st.tuples(*(st.sampled_from(REGISTRY.group(role) + (STAR,)) for role in ROLES)),
        kind=st.sampled_from(RegulationKind),
        threshold=st.integers(min_value=0, max_value=8),
        rows=st.lists(st.sampled_from(list(REGISTRY.tuples())), max_size=12),
    )
    def test_sqlite_agrees_with_the_token_paths_matcher(self, entries, kind, threshold, rows):
        """An expanded regulation holds over `rows` in sqlite exactly when
        the rows `matches` takes number fewer than, or more than, T."""
        r = Regulation(TriplePattern(*entries), kind, threshold)
        count = sum(r.pattern.matches(t) for t in rows)
        holds = count < threshold if kind == RegulationKind.ENFORCEABLE else count > threshold
        with closing(sqlite3.connect(":memory:")) as db:
            db.execute(U_TABLE)
            db.executemany("INSERT INTO u VALUES (?, ?, ?)", rows)
            assert db.execute(*to_sql(r)).fetchall() == [(int(holds),)]


class TestBudget:
    def test_threshold_26_gives_25_tokens(self):
        plan = compute_budget([reg("((w1, p1, r1), <, 26)")], REGISTRY)
        assert dict(plan.etokens)[TriplePattern("w1", "p1", "r1")] == 25

    def test_threshold_1_gives_zero_tokens(self):
        plan = compute_budget([reg("((w1, p1, r1), <, 1)")], REGISTRY)
        assert dict(plan.etokens)[TriplePattern("w1", "p1", "r1")] == 0

    def test_theta_min_is_the_smallest_enforceable_budget(self):
        one = ParticipantRegistry(workers=("w",), platforms=("p",), requesters=("r",))
        plan = compute_budget(
            [reg("((w, *, *), <, 3)"), reg("((*, p, *), <, 5)")], one
        )
        assert plan.theta_min == 2

    def test_forall_budget_sums_to_workers_times_theta(self):
        theta = 4
        regs = expand_all([reg(f"((forall, *, *), <, {theta + 1})")], REGISTRY)
        plan = compute_budget(regs, REGISTRY)
        assert sum(dict(plan.etokens).values()) == len(REGISTRY.workers) * theta

    def test_requires_an_enforceable_regulation(self):
        with pytest.raises(NoEnforceableRegulationError):
            compute_budget([reg("((w1, *, *), >, 5)")], REGISTRY)

    def test_rejects_unexpanded(self):
        with pytest.raises(UnexpandedForAllError):
            compute_budget([reg("((forall, *, *), <, 2)")], REGISTRY)

    def test_duplicate_patterns_take_tightest_count(self):
        plan = compute_budget(
            [reg("((w1, *, *), <, 9)"), reg("((w1, *, *), <, 4)")], REGISTRY
        )
        assert dict(plan.etokens)[TriplePattern("w1", "*", "*")] == 3

    def test_verifiable_regs_do_not_get_etokens(self):
        plan = compute_budget(
            [reg("((w1, *, *), <, 3)"), reg("((w2, *, *), >, 5)")], REGISTRY
        )
        assert TriplePattern("w2", "*", "*") not in dict(plan.etokens)


class TestMatching:
    def test_applicable_filters_by_pattern(self):
        regs = [reg("((w1, *, *), <, 3)"), reg("((*, p2, *), <, 4)"), reg("((w1, p1, r1), >, 1)")]
        got = applicable(regs, ("w1", "p1", "r1"))
        assert got == [regs[0], regs[2]]
        assert applicable(regs, ("w2", "p1", "r2")) == []

    def test_matches_equals_the_entrywise_rule(self):
        """Every pattern over {id, *, forall} per position against every
        concrete tuple of the registry."""
        choices = [REGISTRY.group(role)[:1] + (STAR, FORALL) for role in ROLES]
        tuples = list(REGISTRY.tuples())
        for entries in product(*choices):
            pattern = TriplePattern(*entries)
            for tup in tuples:
                expected = all(e == STAR or e == v for e, v in zip(entries, tup))
                assert pattern.matches(tup) == expected
        assert sum(TriplePattern("w1", STAR, "r2").matches(t) for t in tuples) == 2

    def test_targets_equal_the_entrywise_rule(self):
        """Every pattern over {id, *, forall} per position, as built, copied
        and rebuilt by `replace`; the targets, derived once, take no part in
        equality, ordering, hashing or repr."""
        choices = [REGISTRY.group(role)[:1] + (STAR, FORALL) for role in ROLES]
        patterns = [TriplePattern(*entries) for entries in product(*choices)]
        assert len(patterns) == 27

        def entrywise(entries):
            return tuple((role, e) for role, e in zip(ROLES, entries) if e not in (STAR, FORALL))

        for pattern in patterns:
            assert pattern.targets() == entrywise(pattern.entries())
            assert pickle.loads(pickle.dumps(pattern)).targets() == pattern.targets()
            for role, entry in product(ROLES, ("x", STAR, FORALL)):
                edited = replace(pattern, **{role: entry})
                assert edited.targets() == entrywise(edited.entries())
        assert sorted(patterns) == sorted(patterns, key=TriplePattern.entries)
        assert sorted(patterns, reverse=True) == sorted(patterns, key=TriplePattern.entries, reverse=True)
        assert [hash(p) for p in patterns] == [hash(p.entries()) for p in patterns]
        assert len(set(patterns)) == 27 and TriplePattern("w1", STAR, FORALL) in set(patterns)
        assert repr(TriplePattern("w1", STAR, "r1")) == "TriplePattern(worker='w1', platform='*', requester='r1')"

    def test_role_of_an_unlisted_id_is_a_typed_error(self):
        assert [REGISTRY.role_of(pid) for pid in ("w2", "p1", "r2")] == ["worker", "platform", "requester"]
        with pytest.raises(UnknownParticipantError):
            REGISTRY.role_of("w3")

    @pytest.mark.parametrize(
        "first, second",
        [(0, 0), (1, 1), (2, 2), (0, 1), (0, 2), (1, 2)],
        ids=["w-w", "p-p", "r-r", "w-p", "w-r", "p-r"],
    )
    def test_an_id_listed_twice_is_a_config_error(self, first, second):
        """In one role or in two."""
        groups = [("w1",), ("p1",), ("r1",)]
        groups[second] += groups[first]
        with pytest.raises(ConfigError, match=r"duplicate ids \['"):
            ParticipantRegistry(*groups)

    @pytest.mark.parametrize(
        "group",
        [["r1"], ("r1", 3), "r1", ("r1", None), None],
        ids=["a-list", "an-int-id", "a-str", "a-none-id", "none"],
    )
    def test_a_group_that_is_not_a_tuple_of_str_is_a_config_error(self, group):
        """Before, a list group raised a bare TypeError and `("r1", 3)` was taken."""
        with pytest.raises(ConfigError, match="not a tuple of str ids"):
            ParticipantRegistry(("w1",), ("p1",), group)
