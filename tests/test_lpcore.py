"""Solver tests.

The random suites compare the solver against an exhaustive checker written
here from scratch: every subset of atoms is tested for stability with an
independent reduct + least-model computation.  They also count the
candidates the search hands to `Program.is_answer_set`: with unfounded sets
propagated, the certifier should never reject one.
"""

import gc
import random
import weakref
from collections import Counter
from contextlib import contextmanager
from functools import wraps
from itertools import combinations, islice, product

import pytest

from almc.errors import BudgetExceeded
from almc.lpcore import FALSE, TRUE, Budget, Program, _Search


def build(n, rules, choice=(), atmost=(), cr=()):
    prog = Program()
    for a in range(n):
        prog.atom(a)
    for a in choice:
        prog.add_choice(a)
    for head, pos, neg in rules:
        prog.add_rule(head, pos, neg)
    for members, k in atmost:
        prog.add_atmost(members, k)
    for head, pos, neg in cr:
        prog.add_cr_rule(head, pos, neg)
    return prog


def solve(prog):
    return set(prog.answer_sets())


def never_rejected(test):
    """Runs `test` counting the candidates the search hands to
    `is_answer_set`, and fails if the certifier rejected any of them: with
    unfounded sets propagated, every candidate should be an answer set.

    A decorator, not a fixture, so that the acceptance gate can still call
    the suites without arguments.
    """
    @wraps(test)
    def counted():
        log = Counter()
        certify = Program.is_answer_set

        def counting(self, *args, **kwargs):
            ok = certify(self, *args, **kwargs)
            log["rejected" if not ok else "accepted"] += 1
            return ok

        Program.is_answer_set = counting
        try:
            test()
        finally:
            Program.is_answer_set = certify
        assert log["accepted"] > 0
        assert log["rejected"] == 0, log

    return counted


# ------------------------------------------------------- exhaustive oracle

def stable(n, rules, choice, M):
    """Is M a stable model?  Independent reduct + least-model computation."""
    reduct = []
    for head, pos, neg in rules:
        if set(neg) & M:
            continue
        if head is None:
            if set(pos) <= M:
                return False  # violated constraint
        else:
            reduct.append((head, set(pos)))
    least = set(a for a in choice if a in M)
    changed = True
    while changed:
        changed = False
        for h, pos in reduct:
            if h not in least and pos <= least:
                least.add(h)
                changed = True
    return least == M


def oracle(n, rules, choice, atmost=()):
    out = set()
    for bits in range(1 << n):
        M = {a for a in range(n) if bits >> a & 1}
        if any(len(M & set(g)) > k for g, k in atmost):
            continue
        if stable(n, rules, choice, M):
            out.add(frozenset(M))
    return out


# ------------------------------------------------------- pinned small cases

def test_fact_and_chain():
    prog = build(3, [(0, (), ()), (1, (0,), ()), (2, (1,), ())])
    assert solve(prog) == {frozenset({0, 1, 2})}


def test_even_loop_two_models():
    prog = build(2, [(0, (), (1,)), (1, (), (0,))])
    assert solve(prog) == {frozenset({0}), frozenset({1})}


def test_odd_loop_no_model():
    prog = build(1, [(0, (), (0,))])
    assert solve(prog) == set()


def test_positive_loop_is_unfounded():
    # p :- q.  q :- p.  No external support: only the empty model.
    prog = build(2, [(0, (1,), ()), (1, (0,), ())])
    assert solve(prog) == {frozenset()}


@never_rejected
def test_loop_with_external_support_from_a_choice():
    # p :- q.  q :- p.  p :- c.  {c}.  The loop holds only when c does.
    p, q, c = 0, 1, 2
    prog = build(3, [(p, (q,), ()), (q, (p,), ()), (p, (c,), ())],
                 choice=[c])
    assert solve(prog) == {frozenset(), frozenset({c, p, q})}


@never_rejected
def test_self_loop_is_unfounded():
    # p :- p.  q :- not p.  The self-supporting p never holds.
    prog = build(2, [(0, (0,), ()), (1, (), (0,))])
    assert solve(prog) == {frozenset({1})}
    assert prog.loop_atoms() == [0]


def test_tight_program_has_no_loop_atoms():
    # a chain and a loop through a choice atom are both tight
    prog = build(3, [(1, (0,), ()), (2, (1,), ()), (0, (2,), ())],
                 choice=[0])
    assert prog.loop_atoms() == []


def test_choice_atoms_are_free():
    prog = build(2, [(1, (0,), ())], choice=[0])
    assert solve(prog) == {frozenset(), frozenset({0, 1})}


def test_constraint_prunes():
    prog = build(2, [(None, (0, 1), ())], choice=[0, 1])
    assert solve(prog) == {frozenset(), frozenset({0}), frozenset({1})}


def test_atmost_group():
    prog = build(3, [], choice=[0, 1, 2], atmost=[((0, 1, 2), 1)])
    assert solve(prog) == {frozenset(), frozenset({0}), frozenset({1}),
                           frozenset({2})}


def test_negation_through_chain():
    # a. b :- a, not c. c :- d. (d unsupported)
    prog = build(4, [(0, (), ()), (1, (0,), (2,)), (2, (3,), ())])
    assert solve(prog) == {frozenset({0, 1})}


def test_budget_is_enforced():
    n = 20
    rules = [(a, (), (a + 1,)) for a in range(0, n, 2)] + \
            [(a + 1, (), (a,)) for a in range(0, n, 2)]
    prog = build(n, rules)
    with pytest.raises(BudgetExceeded):
        list(prog.answer_sets(budget=Budget(max_decisions=3)))


def test_budget_is_one_total_over_searches():
    # each search alone stays within the limit, the two together do not
    prog = build(4, [(0, (), (1,)), (1, (), (0,)), (2, (), (3,)),
                     (3, (), (2,))])
    alone = Budget()
    assert len(list(prog.answer_sets(budget=alone))) == 4
    budget = Budget(max_decisions=alone.decisions)
    list(prog.answer_sets(budget=budget))
    with pytest.raises(BudgetExceeded):
        list(prog.answer_sets(budget=budget))


def test_models_are_certified():
    # every reported model passes the solver's own reduct check
    prog = build(4, [(0, (), (1,)), (1, (), (0,)), (2, (0,), ()),
                     (None, (2, 3), ())], choice=[3])
    for m in prog.answer_sets():
        ids = {prog.atom(k) for k in m}
        assert prog.is_answer_set(ids)


# ------------------------------------------------------- random programs

def random_program(rng, n):
    rules = []
    for _ in range(rng.randrange(1, 2 * n)):
        kind = rng.random()
        head = None if kind < 0.15 else rng.randrange(n)
        body = rng.sample(range(n), k=min(n, rng.randrange(0, 4)))
        cut = rng.randrange(len(body) + 1)
        rules.append((head, tuple(body[:cut]), tuple(body[cut:])))
    choice = rng.sample(range(n), k=rng.randrange(0, n // 2 + 1))
    atmost = []
    if rng.random() < 0.3:
        members = tuple(rng.sample(range(n), k=rng.randrange(2, n + 1)))
        atmost.append((members, rng.randrange(0, len(members))))
    return rules, choice, atmost


def in_branch_order(n, choice, models):
    """`models` sorted as the search branches: over the sorted choice atoms,
    then the other atoms, each false before true."""
    order = sorted(choice) + [a for a in range(n) if a not in choice]
    return sorted(models, key=lambda m: [a in m for a in order])


@never_rejected
def test_500_random_programs_match_exhaustive_oracle():
    # the models, and their order: backtracking is chronological over a
    # fixed branch order, and propagation only cuts subtrees without models
    rng = random.Random(20240817)
    for trial in range(500):
        n = rng.randrange(2, 13)
        rules, choice, atmost = random_program(rng, n)
        prog = build(n, rules, choice, atmost)
        got = list(prog.answer_sets())
        want = oracle(n, rules, choice, atmost)
        assert got == in_branch_order(n, choice, want), \
            (trial, n, rules, choice, atmost)


def random_loop_program(rng, n):
    """Mostly positive bodies, so that the rules form positive loops."""
    rules = []
    for _ in range(rng.randrange(n, 3 * n)):
        head = None if rng.random() < 0.1 else rng.randrange(n)
        pos = tuple(rng.sample(range(n), k=rng.randrange(0, 3)))
        neg = (rng.randrange(n),) if rng.random() < 0.2 else ()
        rules.append((head, pos, neg))
    choice = rng.sample(range(n), k=rng.randrange(0, n // 3 + 1))
    atmost = []
    if rng.random() < 0.4:
        members = tuple(rng.sample(range(n), k=rng.randrange(2, n + 1)))
        atmost.append((members, rng.randrange(0, len(members))))
    return rules, choice, atmost


@never_rejected
def test_200_random_loop_programs_match_exhaustive_oracle():
    rng = random.Random(5150)
    loops = 0
    for trial in range(200):
        n = rng.randrange(2, 13)
        rules, choice, atmost = random_loop_program(rng, n)
        prog = build(n, rules, choice, atmost)
        loops += bool(prog.loop_atoms())
        got = list(prog.answer_sets())
        want = oracle(n, rules, choice, atmost)
        assert got == in_branch_order(n, choice, want), \
            (trial, n, rules, choice, atmost)
    assert loops > 150  # the suite exercises the unfounded-set check


def cyclic_atoms(n, rules, choice):
    """The non-choice atoms that reach themselves over the edges from a
    non-choice head to each non-choice atom of its positive body, by a
    search from every atom."""
    succ = [set() for _ in range(n)]
    for head, pos, _ in rules:
        if head is not None and head not in choice:
            succ[head].update(b for b in pos if b not in choice)
    cyclic = set()
    for a in range(n):
        seen, stack = set(), list(succ[a])
        while stack:
            b = stack.pop()
            if b not in seen:
                seen.add(b)
                stack.extend(succ[b])
        if a in seen:
            cyclic.add(a)
    return cyclic


def test_solver_set_up_matches_its_definitions():
    """`loop_atoms` lists each atom on a positive cycle once, and the rule
    columns, watch lists and counters of `_Search` are their definitions,
    read off the rules one by one, constraints included.  A third of the
    programs repeat atoms in positive bodies, which `lwatch` lists a rule
    for once per occurrence."""
    rng = random.Random(6174)
    looped = constraints = 0
    for trial in range(3000):
        n = rng.randrange(2, 14)
        make = (random_program, random_loop_program,
                random_repeating_program)[trial % 3]
        rules, choice, atmost = make(rng, n)
        prog = build(n, rules, choice, atmost)
        loops = prog.loop_atoms()
        assert len(loops) == len(set(loops)), (trial, rules, choice)
        assert set(loops) == cyclic_atoms(n, rules, set(choice)), \
            (trial, rules, choice)
        looped += bool(loops)
        s = _Search(prog)
        heads = [-1 if h is None else h for h, _, _ in rules]
        assert list(zip(s.rhead, s.rpos, s.rneg)) == \
            [(h, pos, neg) for h, (_, pos, neg) in zip(heads, rules)]
        for a in range(n):
            assert s.posw[a] == tuple(r for r, (_, pos, _) in enumerate(rules)
                                      for b in pos if b == a)
            assert s.negw[a] == tuple(r for r, (_, _, neg) in enumerate(rules)
                                      for b in neg if b == a)
            assert s.headw[a] == tuple(r for r, h in enumerate(heads)
                                       if h == a)
            assert s.support[a] == heads.count(a)
            assert sorted(s.lwatch[a]) == [
                r for r, (h, pos, _) in enumerate(rules) if h in loops
                for b in pos if b == a and a in loops]
            assert s.src[a] == (-1 if a in loops else -2)
        assert s.need == [len(pos) + len(neg) for _, pos, neg in rules]
        constraints += heads.count(-1)
    assert looped > 1000 and constraints > 1000


def random_repeating_program(rng, n):
    """Loop programs whose positive bodies may repeat an atom (drawn with
    replacement), with a few self-loops `a :- a, ...` besides."""
    rules = []
    for _ in range(rng.randrange(n, 3 * n)):
        head = None if rng.random() < 0.1 else rng.randrange(n)
        pos = tuple(rng.choices(range(n), k=rng.randrange(0, 4)))
        neg = (rng.randrange(n),) if rng.random() < 0.2 else ()
        rules.append((head, pos, neg))
    for a in rng.sample(range(n), k=rng.randrange(0, 3)):
        more = rng.choices(range(n), k=rng.randrange(2))
        rules.append((a, (a, *more), ()))
    choice = rng.sample(range(n), k=rng.randrange(0, n // 3 + 1))
    atmost = []
    if rng.random() < 0.3:
        members = tuple(rng.sample(range(n), k=rng.randrange(2, n + 1)))
        atmost.append((members, rng.randrange(0, len(members))))
    return rules, choice, atmost


def greatest_unfounded_set(status, rules, cyclic):
    """The greatest set U of cyclic atoms that are not false such that every
    rule with its head in U has a false body literal or a positive body
    atom in U: from all of them, drop an atom with a rule that has neither
    until none is left to drop."""
    unfounded = {a for a in cyclic if status[a] != FALSE}
    dropped = True
    while dropped:
        dropped = False
        for head, pos, neg in rules:
            if head in unfounded \
                    and all(status[b] != FALSE for b in pos) \
                    and all(status[b] != TRUE for b in neg) \
                    and not unfounded.intersection(pos):
                unfounded.discard(head)
                dropped = True
    return unfounded


def test_every_unfounded_set_is_the_greatest_by_its_definition(monkeypatch):
    # a spy recomputes the greatest unfounded set at every check from the
    # assignment and the rules (each external's `a :- x_a` included), on
    # loop programs that repeat atoms in a body and have self-loops, solved
    # several times with facts that declare new externals between runs
    rng = random.Random(1729)
    current = {}
    checks = Counter()
    unfounded = _Search._unfounded

    def spying(search):
        rules = current["rules"] + [(a, (x,), ())
                                    for a, x in search.externals.items()]
        want = greatest_unfounded_set(search.status, rules, current["cyclic"])
        got = unfounded(search)
        assert len(got) == len(set(got)) and set(got) == want, \
            (current, search.status, got, want)
        checks["found" if got else "empty"] += 1
        return got

    monkeypatch.setattr(_Search, "_unfounded", spying)
    for trial in range(300):
        n = rng.randrange(2, 10)
        rules, choice, atmost = random_repeating_program(rng, n)
        prog = build(n, rules, choice, atmost)
        current.update(rules=rules, cyclic=cyclic_atoms(n, rules, set(choice)),
                       trial=trial)
        declared: set[int] = set()
        for run in range(4):
            facts = rng.sample(range(n), k=rng.randrange(0, 3))
            checks["new externals"] += bool(run and set(facts) - declared)
            declared.update(facts)
            got = list(prog.answer_sets(facts=facts))
            want = oracle(n, rules + [(f, (), ()) for f in facts], choice,
                          atmost)
            assert got == in_branch_order(n, choice, want), (trial, facts)
    assert checks["found"] > 300 and checks["empty"] > 800, checks
    assert checks["new externals"] > 300, checks


def test_certifier_matches_exhaustive_oracle_on_every_subset():
    # `is_answer_set` against `stable` on every subset of the atoms, most
    # of which are no answer set; the facts go to the oracle as bodyless
    # rules.  Each program is certified, then gets a rule with `add_rule`
    # and is certified again, so the certifier's cached index is rebuilt
    rng = random.Random(8128)
    verdicts = Counter()
    for trial in range(200):
        n = rng.randrange(2, 10)
        make = random_loop_program if trial % 2 else random_program
        rules, choice, _ = make(rng, n)
        prog = build(n, rules, choice)
        for _ in range(2):
            facts = rng.sample(range(n), k=rng.randrange(0, 3))
            with_facts = rules + [(f, (), ()) for f in facts]
            for bits in range(1 << n):
                M = {a for a in range(n) if bits >> a & 1}
                got = prog.is_answer_set(M, facts)
                assert got == stable(n, with_facts, choice, M), \
                    (trial, rules, choice, facts, M)
                verdicts[got] += 1
            head = None if rng.random() < 0.2 else rng.randrange(n)
            body = rng.sample(range(n), k=rng.randrange(0, 3))
            cut = rng.randrange(len(body) + 1)
            rule = (head, tuple(body[:cut]), tuple(body[cut:]))
            prog.add_rule(*rule)
            rules = rules + [rule]
    assert verdicts[True] > 200 and verdicts[False] > 20000, verdicts


@never_rejected
def test_300_random_programs_solved_with_facts():
    # facts given to one call act like add_fact on a copy, including keys
    # the program never mentions and repeated keys, and leave it unchanged
    rng = random.Random(31337)
    for trial in range(300):
        n = rng.randrange(2, 11)
        rules, choice, atmost = random_program(rng, n)
        prog = build(n, rules, choice, atmost)
        facts = [rng.randrange(n + 2) for _ in range(rng.randrange(0, 4))]
        size = (len(prog.keys), len(prog.rules))
        got = set(prog.answer_sets(facts=facts))
        extended = prog.copy()
        for k in facts:
            extended.add_fact(k)
        want = oracle(n + 2, rules + [(k, (), ()) for k in facts], choice,
                      atmost)
        assert got == solve(extended) == want, (trial, n, rules, facts)
        assert (len(prog.keys), len(prog.rules)) == size


@never_rejected
def test_one_program_solved_again_and_again_matches_fresh_copies():
    # one program, one search state, many fact sets: each call returns the
    # models of a copy extended with add_fact and solved alone, in the same
    # order, also after a call cut by max_models, stopped by a budget, or
    # left suspended while another call runs
    rng = random.Random(60606)
    cuts = Counter()
    for trial in range(240):
        n = rng.randrange(2, 11)
        make = random_loop_program if trial % 2 else random_program
        rules, choice, atmost = make(rng, n)
        prog = build(n, rules, choice, atmost)
        for _ in range(6):
            facts = [rng.randrange(n + 2) for _ in range(rng.randrange(0, 5))]
            extended = prog.copy()
            for k in facts:
                extended.add_fact(k)
            want = list(extended.answer_sets())
            how = rng.randrange(4)
            if how == 1:
                got = list(prog.answer_sets(max_models=1, facts=facts))
                assert got == want[:1], (trial, facts)
            elif how == 2:
                try:
                    got = list(prog.answer_sets(budget=Budget(max_decisions=0),
                                                facts=facts))
                    assert got == want, (trial, facts)
                except BudgetExceeded:
                    cuts["budget"] += 1
            elif how == 3 and want:
                pending = prog.answer_sets(facts=facts)
                assert next(pending) == want[0]
                other = [rng.randrange(n) for _ in range(2)]
                alone = prog.copy()
                for k in other:
                    alone.add_fact(k)
                assert list(prog.answer_sets(facts=other)) == \
                    list(alone.answer_sets()), (trial, other)
                assert list(pending) == want[1:], (trial, facts)
                cuts["suspended"] += 1
            cuts[how] += 1
            assert list(prog.answer_sets(facts=facts)) == want, (trial, facts)
    assert cuts["budget"] > 50 and cuts["suspended"] > 50, cuts


@never_rejected
def test_runs_reuse_the_switches_they_share():
    # each call's facts are the last call's with one external flipped, so
    # the first switch that differs falls at every position of the sorted
    # externals, or the last call's again, so that none differs; each call
    # returns the models of a copy extended with add_fact and solved alone,
    # in the same order, also after a call cut at its first model or
    # stopped by a budget, when two switches conflict, and after a new
    # external is declared mid-sequence
    rng = random.Random(292929)
    seen = Counter()
    for trial in range(300):
        k = 3 + trial % 9  # externals, and one more declared mid-sequence
        n = k + rng.randrange(2, 8)
        make = random_loop_program if trial % 2 else random_program
        # most random programs of this size have no model at all; all but
        # every tenth are drawn again until they have one without facts
        while True:
            rules, choice, atmost = make(rng, n)
            if trial % 10 == 0 or any(build(n, rules, choice,
                                            atmost).answer_sets()):
                break
        atoms = rng.sample(range(n), k=k + 1)
        pool, extra = sorted(atoms[1:]), atoms[0]
        if trial % 3 == 0:  # these two switches conflict when both are on
            rules = rules + [(None, tuple(rng.sample(pool, 2)), ())]
        prog = build(n, rules, choice, atmost)
        # the first call declares every external, the second switches a
        # random half of them on, the seventh declares one more, and each
        # other one flips one or, a quarter of them, none
        facts = set(pool)
        stopped = False
        for call in range(11):
            if call == 1:
                facts = {a for a in pool if rng.random() < 0.5}
            elif call == 6:
                pool = sorted(pool + [extra])
                facts.add(extra)
            elif call and rng.random() < 0.25:
                seen["repeated"] += 1
            elif call:
                flip = rng.choice(pool)
                facts ^= {flip}
                seen[pool.index(flip), len(pool)] += 1
            extended = prog.copy()
            for key in sorted(facts):
                extended.add_fact(key)
            want = list(extended.answer_sets())
            seen["no model" if not want else "models"] += 1
            after, stopped = stopped, False
            how = 0 if after else rng.randrange(3)
            if how == 1:
                got = list(prog.answer_sets(max_models=1, facts=facts))
                assert got == want[:1], (trial, call, sorted(facts))
                stopped = len(want) > 1
            elif how == 2:
                try:
                    got = list(prog.answer_sets(
                        budget=Budget(max_decisions=1), facts=facts))
                except BudgetExceeded:
                    stopped = True
                    seen["budget"] += 1
                else:
                    assert got == want, (trial, call, sorted(facts))
            else:
                got = list(prog.answer_sets(facts=facts))
                assert got == want, (trial, call, sorted(facts))
                seen["after a stop" if after else "plain"] += 1
            # the search keeps the call's switches, up to the first that
            # met a conflict, and no more of the trail
            search = prog._search[1]
            assert len(search.externals) == len(pool)
            assert [a for a, _ in search.switches] == pool
            values = [(x, TRUE if a in facts else FALSE)
                      for a, x in search.switches]
            assert [(x, v) for x, v, _ in search.kept] == \
                values[:len(search.kept)]
            assert len(search.trail) == search.switched
            seen["switch conflict"] += len(search.kept) < len(values)
    # every position among 3 to 12 switches is the first that differs
    for k in range(3, 13):
        assert all(seen[i, k] for i in range(k)), (k, seen)
    assert seen["models"] > 1500 and seen["no model"] > 1000, seen
    assert seen["budget"] > 80 and seen["after a stop"] > 250, seen
    assert seen["switch conflict"] > 800 and seen["repeated"] > 500, seen


def test_a_solved_program_is_freed_by_reference_counting():
    # the program holds its search and its certifier index, and neither
    # refers back to it, so no cycle keeps dead tables alive
    prog = build(3, [(0, (1,), ()), (1, (0,), ()), (2, (), (0,))],
                 choice=[1])
    assert len(list(prog.answer_sets(facts=[0]))) == 1
    dead = weakref.ref(prog)
    gc.disable()
    try:
        del prog
        assert dead() is None
    finally:
        gc.enable()


@never_rejected
def test_200_random_cr_programs():
    rng = random.Random(987654)
    for trial in range(200):
        n = rng.randrange(2, 9)
        rules, choice, _ = random_program(rng, n)
        n_cr = rng.randrange(1, 4)
        cr = []
        for _ in range(n_cr):
            head = rng.randrange(n)
            body = tuple(rng.sample(range(n), k=rng.randrange(0, 2)))
            cr.append((head, body, ()))
        prog = build(n, rules, choice, cr=cr)
        got = prog.solve_cr()

        def with_applied(applied):
            extra = [(h, p + tuple(), ng) for i, (h, p, ng) in enumerate(cr)
                     if i in applied]
            return oracle(n, rules + extra, choice)

        regular = with_applied(frozenset())
        if regular:
            assert {m for m, a in got} == regular
            assert all(a == frozenset() for _, a in got)
            continue
        sizes = [k for k in range(1, n_cr + 1)
                 if any(with_applied(frozenset(c))
                        for c in combinations(range(n_cr), k))]
        if not sizes:
            assert got == []
            continue
        kmin = sizes[0]
        assert got, (trial, rules, cr)
        for model, applied in got:
            assert len(applied) == kmin
            assert model in with_applied(applied)
        # every minimal-cardinality repair that works is reported
        want_models = set()
        for c in combinations(range(n_cr), kmin):
            want_models |= with_applied(frozenset(c))
        assert {m for m, _ in got} == want_models


def counters_from_status(search):
    """`need`, `bad`, `support` and `gcount` recomputed from `status`."""
    status = search.status
    need, bad = [], []
    for pos, neg in zip(search.rpos, search.rneg):
        need.append(sum(status[b] != TRUE for b in pos)
                    + sum(status[b] != FALSE for b in neg))
        bad.append(sum(status[b] == FALSE for b in pos)
                   + sum(status[b] == TRUE for b in neg))
    support = [0] * search.n
    for r, h in enumerate(search.rhead):
        if h >= 0 and bad[r] == 0:
            support[h] += 1
    gcount = [sum(status[m] == TRUE for m in members)
              for members in search.gmembers]
    return need, bad, support, gcount


def test_search_counters_are_functions_of_the_assignment():
    # at every model the counters equal those recomputed from the
    # assignment; once a run is exhausted, the trail keeps level 0 and the
    # run's switches, and the assignment and counters equal those of a
    # fresh search right after its level-0 propagation and those switches,
    # so the next run keeps what it shares with this one
    rng = random.Random(8080)
    models = 0
    for trial in range(360):
        n = rng.randrange(2, 11)
        make = random_loop_program if trial % 2 else random_program
        rules, choice, atmost = make(rng, n)
        prog = build(n, rules, choice, atmost)
        # a third of the programs get the switches that `solve_cr` adds:
        # choice atoms, each in the body of one rule, in a last at-most
        # group whose bound is their number
        if trial % 3 == 0:
            switches = [("applied", i) for i in range(rng.randrange(1, 3))]
            for key in switches:
                prog.add_rule(rng.randrange(n), (prog.add_choice(key),))
            prog.add_atmost(switches, len(switches))
        # half of them get external atoms, switched differently per run
        externals = rng.sample(range(n), k=rng.randrange(1, n + 1)) \
            if trial % 4 < 2 else []

        def fresh_search():
            fresh = _Search(prog)
            if externals:
                fresh.declare(externals)
            fresh._start()
            return fresh

        search = _Search(prog)
        if externals:
            search.declare(externals)
        level0 = fresh_search().trail
        for _ in range(3):
            facts = rng.sample(externals, k=rng.randrange(len(externals) + 1))
            for model in search.run(
                    None, lambda m: prog.is_answer_set(m, facts), facts):
                models += 1
                assert model == {a for a in range(search.n_model)
                                 if search.status[a] == TRUE}
                assert (search.need, search.bad, search.support,
                        search.gcount) == counters_from_status(search), trial
            assert search.queue == []
            assert search.base == len(level0)
            assert search.trail[:search.base] == level0
            assumed = fresh_search()
            if assumed.base_ok:
                assumed._assume(facts)
            assert search.status == assumed.status, trial
            counters = (search.need, search.bad, search.support,
                        search.gcount)
            assert counters == (assumed.need, assumed.bad, assumed.support,
                                assumed.gcount), trial
            assert counters == counters_from_status(search), trial
    assert models > 300


def reference_solve_cr(prog, max_models=None):
    """`solve_cr(minimality="card")` as one search per bound: the regular
    answer sets if there are any, else the models of the first bound
    k = 1..n under which the program extended with the applied atoms has
    any.  Applied atoms and rules are added in `solve_cr`'s order, so the
    searches branch in the same order."""
    regular = list(prog.answer_sets(max_models))
    if regular:
        return [(m, frozenset()) for m in regular]
    n = len(prog.cr_rules)
    switches = [("applied", i) for i in range(n)]
    for k in range(1, n + 1):
        ext = prog.copy()
        for key, (head, pos, neg) in zip(switches, prog.cr_rules):
            ext.add_rule(head, pos + (ext.add_choice(key),), neg)
        ext.add_atmost(switches, k)
        found = [(m.difference(switches),
                  frozenset(i for i, key in enumerate(switches) if key in m))
                 for m in islice(ext.answer_sets(), max_models)]
        if found:
            return found
    return []


@never_rejected
def test_300_random_cr_programs_match_bound_by_bound_search():
    # branch-and-bound returns the lists of the k-by-k search, order and
    # `max_models` cut included; the optimum is often above 1, so the
    # bound is lowered more than once within a search
    rng = random.Random(424242)
    optima = Counter()
    for trial in range(300):
        n = rng.randrange(3, 10)
        rules, choice, atmost = random_program(rng, n)
        # the only constraints are `:- not d`, which restoring rules for d
        # can repair
        demands = rng.sample(range(n), k=rng.randrange(0, 4))
        rules = [r for r in rules if r[0] is not None] + \
            [(None, (), (d,)) for d in demands]
        cr = []
        for _ in range(rng.randrange(1, 7)):
            head = rng.choice(demands) if demands and rng.random() < 0.7 \
                else rng.randrange(n)
            body = rng.sample(range(n), k=rng.randrange(0, 2))
            cut = rng.randrange(len(body) + 1)
            cr.append((head, tuple(body[:cut]), tuple(body[cut:])))
        prog = build(n, rules, choice, atmost, cr)
        for max_models in (None, 1, 2):
            got = prog.solve_cr(max_models=max_models)
            want = reference_solve_cr(prog, max_models)
            assert got == want, (trial, max_models, rules, choice, atmost,
                                 cr)
        optima[len(got[0][1]) if got else None] += 1
    assert optima[0] > 30 and optima[1] > 30 and optima[2] > 5, optima
    assert optima[None] > 30, optima


def test_branch_and_bound_certifies_only_models_it_keeps(monkeypatch):
    # restoring rules for 0, 1 and 2, one of which must hold, and an even
    # loop over 3 and 4 that doubles each repair: once a model is held
    # under max_models=1, the search prunes the twin it would find next
    prog = build(5, [(None, (), (0, 1, 2)), (3, (), (4,)), (4, (), (3,))],
                 cr=[(0, (), ()), (1, (), ()), (2, (), ())])
    certified = []
    certify = Program.is_answer_set

    def counting(self, *args):
        certified.append(args[0])
        return certify(self, *args)

    monkeypatch.setattr(Program, "is_answer_set", counting)
    assert len(prog.solve_cr()) == len(certified) == 6
    certified.clear()
    assert prog.solve_cr(max_models=1) == \
        [(frozenset({2, 4}), frozenset({2}))]
    assert len(certified) == 1


def test_cr_set_minimality_holds_under_max_models():
    # {x}; a and b are restoring; :- not a.  :- not b, not x.
    # the only subset-minimal repair applies a alone (with x true), but a
    # search cut after one model would first meet {a, b}
    x, a, b = range(3)
    prog = build(3, [(None, (), (a,)), (None, (), (b, x))], choice=[x],
                 cr=[(a, (), ()), (b, (), ())])
    assert prog.solve_cr(minimality="set") == \
        [(frozenset({x, a}), frozenset({0}))]
    assert prog.solve_cr(max_models=1, minimality="set") == \
        [(frozenset({x, a}), frozenset({0}))]


def test_solve_cr_is_blind_to_keys_like_its_switches():
    # the caller names its atoms ("applied", i), as the switches of the
    # consistency-restoring rules might be named; the results are those of
    # the same program under other keys
    rng = random.Random(1618)
    for trial in range(100):
        n = rng.randrange(2, 9)
        rules, choice, atmost = random_program(rng, n)
        cr = [(rng.randrange(n), tuple(rng.sample(range(n), k=rng.randrange(
            0, 2))), ()) for _ in range(rng.randrange(1, 4))]
        plain = build(n, rules, choice, atmost, cr)
        named = Program()
        for a in range(n):
            named.atom(("applied", a))
        named.choice = set(plain.choice)
        named.rules, named.cr_rules = plain.rules, plain.cr_rules
        named.atmost = plain.atmost
        for max_models, minimality in product((None, 1), ("card", "set")):
            want = [(frozenset(("applied", a) for a in m), applied)
                    for m, applied in plain.solve_cr(max_models,
                                                     minimality=minimality)]
            assert named.solve_cr(max_models, minimality=minimality) == want, \
                (trial, rules, choice, atmost, cr)


def test_cr_set_minimality():
    # one big repair vs two independent small ones
    prog = build(3, [(None, (), (0,)), (None, (), (1,))],
                 cr=[(0, (), ()), (1, (), ()), (2, (), ())])
    prog.add_rule(0, (2,), ())
    prog.add_rule(1, (2,), ())
    card = prog.solve_cr(minimality="card")
    assert {a for _, a in card} == {frozenset({2})}
    subset = prog.solve_cr(minimality="set")
    assert frozenset({0, 1}) in {a for _, a in subset}
    assert frozenset({2}) in {a for _, a in subset}


# ------------------------------------------------------- nogood learning

@contextmanager
def spy_learn():
    """Record what each conflict analysis returns."""
    learned = []
    learn = _Search._learn

    def spying(self, *args):
        nogood = learn(self, *args)
        learned.append(None if nogood is None else list(nogood))
        return nogood

    _Search._learn = spying
    try:
        yield learned
    finally:
        _Search._learn = learn


def test_a_learned_nogood_of_one_literal_holds_for_the_whole_run():
    # {a}. {b}. {c}. :- not c.  Branching c false is the only conflict; it
    # leaves the nogood {c false}, which makes c true after every later
    # undo too, so c is decided once instead of once per (a, b)
    a, b, c = range(3)
    prog = build(3, [(None, (), (c,))], choice=[a, b, c])
    budget = Budget()
    with spy_learn() as learned:
        models = list(prog.answer_sets(budget=budget))
    assert models == [
        frozenset({c}), frozenset({b, c}), frozenset({a, c}),
        frozenset({a, b, c})]
    assert learned == [[2 * c + FALSE - 1]]
    assert budget.decisions == 4  # a, b, c, and b again; 7 without learning


def test_resolution_goes_past_the_flipped_decision():
    # {a}. {b}. u :- not b. u :- a. x :- u, not a. y :- u, not a. :- x, y.
    # :- not u, b.  Under a false, b false derives u, x and y; the conflict
    # leaves {u, a false}, which makes u false before b is flipped, in b's
    # level.  b true then violates the last rule.  Stopping at the flipped
    # b would learn {b} and lose the model {a, b, u}; resolving u too
    # learns {b, a false}
    a, b, u, x, y = range(5)
    prog = build(5, [(u, (), (b,)), (u, (a,), ()), (x, (u,), (a,)),
                     (y, (u,), (a,)), (None, (x, y), ()),
                     (None, (b,), (u,))], choice=[a, b])
    with spy_learn() as learned:
        models = list(prog.answer_sets())
    assert models == [frozenset({a, u}), frozenset({a, b, u})]
    assert learned == [[2 * u + TRUE - 1, 2 * a + FALSE - 1],
                       [2 * b + TRUE - 1, 2 * a + FALSE - 1]]


def test_a_conflict_below_the_current_level_learns_nothing():
    # p :- not q.  q :- not p.  :- not r.  r is restored by its rule.  The
    # applied atom is forced at level 1 (the learned nogood {r false} makes
    # r true before the decision is flipped); the first model fills
    # max_models=1, so the bound falls to 0, and flipping p at level 2
    # violates it with no literal of level 2
    r, p, q = range(3)
    prog = build(3, [(p, (), (q,)), (q, (), (p,)), (None, (), (r,))],
                 cr=[(r, (), ())])
    with spy_learn() as learned:
        found = prog.solve_cr(max_models=1)
    assert found == [(frozenset({r, q}), frozenset({0}))]
    assert learned == [[2 * r + FALSE - 1], None]


@never_rejected
def test_nogoods_learned_in_one_run_are_dropped_before_the_next():
    # runs that learn nogoods leave none behind: the same search, with
    # other facts and after `declare` brings new external atoms, gives the
    # models of a fresh copy extended with add_fact, in the same order
    rng = random.Random(7477)
    after = Counter()
    with spy_learn() as learned:
        for trial in range(300):
            n = rng.randrange(3, 13)
            make = random_loop_program if trial % 2 else random_program
            rules, choice, atmost = make(rng, n)
            prog = build(n, rules, choice, atmost)
            learning = False
            for _ in range(6):
                facts = rng.sample(range(n), k=rng.randrange(0, 3))
                extended = prog.copy()
                for k in facts:
                    extended.add_fact(k)
                want = list(extended.answer_sets())
                externals = len(prog._search[1].externals) \
                    if prog._search else 0
                del learned[:]
                assert list(prog.answer_sets(facts=facts)) == want, \
                    (trial, facts)
                search = prog._search[1]
                assert not search.watches and not search.implied
                if learning:
                    after["declared" if len(search.externals) > externals
                          else "same"] += 1
                learning = any(learned)
    assert after["declared"] > 30 and after["same"] > 30, after


def random_dense_program(rng, n):
    """About n rules of one to three body literals, a tenth of them
    constraints, over n atoms of which half are choice atoms: enough
    conflicts reach back past a flipped decision to test `_learn`."""
    rules = []
    for _ in range(n):
        head = None if rng.random() < 0.1 else rng.randrange(n)
        body = rng.sample(range(n), k=rng.randrange(1, 4))
        cut = rng.randrange(len(body) + 1)
        rules.append((head, tuple(body[:cut]), tuple(body[cut:])))
    return rules, rng.sample(range(n), k=n // 2)


def test_no_answer_set_violates_a_learned_nogood(monkeypatch):
    # each nogood learned while solving a random program holds in no answer
    # set; the answer sets come from a copy solved without learning, and
    # the search that learns finds them too, in the same order
    rng = random.Random(3)
    checked = 0
    for trial in range(150):
        n = rng.randrange(14, 30)
        rules, choice = random_dense_program(rng, n)
        with monkeypatch.context() as patch:
            patch.setattr(_Search, "_learn", lambda self, lo, cur: None)
            want = list(build(n, rules, choice).answer_sets())
        with spy_learn() as learned:
            assert list(build(n, rules, choice).answer_sets()) == want, trial
        for nogood in filter(None, learned):
            checked += 1
            for model in want:
                assert not all((lit >> 1 in model) == (lit % 2 == 0)
                               for lit in nogood), (trial, nogood, model)
    assert checked > 300, checked
