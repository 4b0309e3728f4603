"""The benchmark's independent correctness check (it must not trust Re2)."""

import os
import sys

import pytest

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

import check  # noqa: E402
import workloads  # noqa: E402
from repro.benchsuite.definitions import benchmark_by_key  # noqa: E402

APPEND = (
    "(fix appendLists \\xs ys . (match xs with Nil -> ys "
    "| Cons x0 xs0 -> (Cons x0 (appendLists xs0 ys))))"
)


@pytest.mark.parametrize(
    "text",
    [
        APPEND,
        "(fix dropN \\n xs . (if (leq n 0) then xs else (match xs with Nil -> impossible "
        "| Cons x0 xs0 -> (dropN (dec n) xs0))))",
        "(fix triple \\l . (append2 (append2 l l) l))",
        "(fix f \\x . (let y = (inc -1) in (tick 2 (Node Leaf y Leaf))))",
        "(fix g \\t . (match t with Leaf -> 0 | Node l v r -> v))",
        "(\\x y . True)",
    ],
)
def test_parser_round_trips_printed_programs(text):
    assert str(check.parse_program(text)) == text


def test_parser_rejects_garbage():
    with pytest.raises(check.ParseError):
        check.parse_program("(fix f \\x . (Cons x")


def test_correct_append_passes():
    bench = benchmark_by_key("t1_append")
    verdict = check.check_program(
        bench.goal, check.parse_program(APPEND), seed=3, input_maker=bench.input_maker
    )
    assert verdict.ok, verdict.failures
    assert verdict.inputs >= 10


def test_wrong_append_is_rejected():
    bench = benchmark_by_key("t1_append")
    wrong = check.parse_program("(fix appendLists \\xs ys . ys)")
    verdict = check.check_program(bench.goal, wrong, seed=3, input_maker=bench.input_maker)
    assert not verdict.ok
    assert "fail the spec" in verdict.reason


def test_preconditions_filter_inputs():
    bench = benchmark_by_key("take")
    assert check.precondition_holds(bench.goal, (2, (1, 2, 3)))
    assert not check.precondition_holds(bench.goal, (4, (1, 2, 3)))


def test_pbe_goal_is_checked_on_its_examples():
    pool = workloads.pool("serve-mix", workloads.load_specs())
    item = next(i for i in pool if i.key == "pbe_max")
    goal, input_maker, _ = workloads.goal_for(item)
    good = check.parse_program("(fix pbeMax \\x y . (if (leq x y) then y else x))")
    bad = check.parse_program("(fix pbeMax \\x y . x)")
    assert check.check_program(goal, good, seed=1, input_maker=input_maker).ok
    assert not check.check_program(goal, bad, seed=1, input_maker=input_maker).ok


def test_vacuous_specs_are_flagged_not_hidden():
    bench = benchmark_by_key("compress")
    identity = check.parse_program("(fix compress \\xs . xs)")
    verdict = check.check_program(bench.goal, identity, seed=1, key="compress")
    assert verdict.ok and verdict.vacuous


def test_cost_units_ignore_the_seed():
    bench = benchmark_by_key("t1_append")
    program = check.parse_program(APPEND)
    assert check.cost_units(bench.goal, program, bench.input_maker) > 0
    assert check.cost_units(bench.goal, program, bench.input_maker) == check.cost_units(
        bench.goal, program, bench.input_maker
    )
