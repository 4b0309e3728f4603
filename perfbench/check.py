"""Independent correctness check and cost measure for synthesized programs.

Nothing here trusts the Re2 type checker that produced a program.  A program
is re-read from its printed text (the only form the HTTP server returns),
run in :mod:`repro.semantics.interpreter` on concrete inputs, and its result
is tested against the goal's result refinement with
:func:`repro.semantics.refinements.holds`.  PBE goals are also run on their
own examples, whose outputs must match exactly.

Inputs come from three places: the benchmark row's ``input_maker`` (sizes
0..8), random inputs drawn from the goal's parameter types with the run's
seed, and the examples of PBE goals.  Inputs that violate a parameter's
refinement (e.g. ``take`` needs ``len xs >= n``) are discarded, since the
goal promises nothing for them.

Known weak specs are recorded, not hidden: :data:`VACUOUS_SPECS` lists goals
whose refinement admits programs a reader would call wrong, so a pass on
them says little.
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.lang import syntax as s
from repro.semantics.interpreter import EvaluationError, OutOfFuel, run_on_inputs
from repro.semantics.refinements import RefinementEvalError, holds
from repro.semantics.values import VTree, tree_from_sorted
from repro.typing.types import (
    NU_NAME,
    ArrowType,
    BoolBase,
    IntBase,
    ListBase,
    RType,
    TreeBase,
    TypeVarBase,
)

#: Goals whose result refinement is too weak to pin down the intended
#: function.  Their programs pass the check, but the pass is recorded as
#: vacuous so nobody mistakes it for a strong guarantee.
VACUOUS_SPECS = {
    "compress": "spec only requires elems v = elems xs; the identity \\xs . xs passes",
    "replicate": "spec only fixes len v = n; a list of n copies of n passes",
}

#: Input sizes handed to a benchmark row's ``input_maker``.
MAKER_SIZES = tuple(range(0, 9))
#: Seeded random inputs: this many per size, drawn from the parameter types.
RANDOM_PER_SIZE = 8
RANDOM_SIZES = (2, 5, 9)
#: Input sizes used for ``cost_units``; drawn with a fixed seed so the cost
#: of a program does not depend on the run's seed.
COST_SIZES = (4, 8, 16)
COST_SEED = 1

# ---------------------------------------------------------------------------
# Program text -> AST
# ---------------------------------------------------------------------------

_TOKEN = re.compile(r"\s*(\(|\)|\\|\.(?=\s)|->|\||=|-?\d+|[^\s()\\|]+)")


class ParseError(ValueError):
    """The program text is not in the printed form of :mod:`repro.lang.syntax`."""


def _tokens(text: str) -> List[str]:
    tokens, pos = [], 0
    text = text.strip()
    while pos < len(text):
        match = _TOKEN.match(text, pos)
        if match is None:
            raise ParseError(f"cannot tokenize {text[pos:pos + 20]!r}")
        tokens.append(match.group(1))
        pos = match.end()
    return tokens


class _Parser:
    def __init__(self, text: str) -> None:
        self.tokens = _tokens(text)
        self.pos = 0

    def peek(self) -> str:
        if self.pos >= len(self.tokens):
            raise ParseError("unexpected end of program text")
        return self.tokens[self.pos]

    def take(self, expected: Optional[str] = None) -> str:
        token = self.peek()
        if expected is not None and token != expected:
            raise ParseError(f"expected {expected!r}, got {token!r}")
        self.pos += 1
        return token

    def names_until_dot(self) -> Tuple[str, ...]:
        names = []
        while self.peek() != ".":
            names.append(self.take())
        self.take(".")
        return tuple(names)

    def expr(self) -> s.Expr:
        token = self.take()
        if token != "(":
            return self.atom(token)
        head = self.take()
        if head == "fix":
            name = self.take()
            self.take("\\")
            params = self.names_until_dot()
            node: s.Expr = s.Fix(name, params, self.expr())
        elif head == "\\":
            params = self.names_until_dot()
            node = s.Lambda(params, self.expr())
        elif head == "if":
            cond = self.expr()
            self.take("then")
            then_branch = self.expr()
            self.take("else")
            node = s.If(cond, then_branch, self.expr())
        elif head == "match":
            node = self.match()
        elif head == "let":
            name = self.take()
            self.take("=")
            rhs = self.expr()
            self.take("in")
            node = s.Let(name, rhs, self.expr())
        elif head == "tick":
            node = s.Tick(int(self.take()), self.expr())
        elif head == "Cons":
            node = s.Cons(self.expr(), self.expr())
        elif head == "Node":
            node = s.Node(self.expr(), self.expr(), self.expr())
        else:
            args = []
            while self.peek() != ")":
                args.append(self.expr())
            node = s.App(head, tuple(args))
        self.take(")")
        return node

    def match(self) -> s.Expr:
        scrutinee = self.expr()
        self.take("with")
        if self.take() == "Nil":
            self.take("->")
            nil_branch = self.expr()
            self.take("|")
            self.take("Cons")
            head, tail = self.take(), self.take()
            self.take("->")
            return s.MatchList(scrutinee, nil_branch, head, tail, self.expr())
        self.take("->")
        leaf_branch = self.expr()
        self.take("|")
        self.take("Node")
        left, value, right = self.take(), self.take(), self.take()
        self.take("->")
        return s.MatchTree(scrutinee, leaf_branch, left, value, right, self.expr())

    def atom(self, token: str) -> s.Expr:
        if token in ("True", "False"):
            return s.BoolLit(token == "True")
        if re.fullmatch(r"-?\d+", token):
            return s.IntLit(int(token))
        if token == "Nil":
            return s.Nil()
        if token == "Leaf":
            return s.Leaf()
        if token == "impossible":
            return s.Impossible()
        if token in ("(", ")", "\\", ".", "->", "|", "="):
            raise ParseError(f"unexpected {token!r}")
        return s.Var(token)


def parse_program(text: str) -> s.Expr:
    """Rebuild the AST of a program from its printed text."""
    parser = _Parser(text)
    program = parser.expr()
    if parser.pos != len(parser.tokens):
        raise ParseError(f"trailing text after program: {parser.tokens[parser.pos:]}")
    return program


# ---------------------------------------------------------------------------
# Inputs
# ---------------------------------------------------------------------------


def _random_value(rtype, size: int, rng: random.Random):
    base = rtype.base
    if isinstance(base, BoolBase):
        return rng.random() < 0.5
    if isinstance(base, (IntBase, TypeVarBase)):
        return rng.randrange(0, max(size, 1) + 1)
    if isinstance(base, ListBase):
        items = [_random_value(base.elem, size, rng) for _ in range(rng.randrange(0, size + 1))]
        return tuple(sorted(items) if base.sorted else items)
    if isinstance(base, TreeBase):
        count = rng.randrange(size + 1)
        return tree_from_sorted(sorted({_random_value(base.elem, size, rng) for _ in range(count)}))
    raise TypeError(f"no input generator for {base}")


def _params(goal) -> Tuple[Tuple[str, RType], ...]:
    body = goal.schema.body
    if not isinstance(body, ArrowType):
        raise TypeError(f"goal {goal.name} is not a function")
    return body.params()


def precondition_holds(goal, args: Sequence) -> bool:
    """Whether ``args`` satisfy every parameter refinement of ``goal``."""
    env: Dict[str, object] = {}
    for (name, ptype), value in zip(_params(goal), args):
        if not isinstance(ptype, RType):
            return False
        if not _value_fits(ptype, value):
            return False
        env[NU_NAME] = value
        try:
            if not holds(ptype.refinement, env):
                return False
        except RefinementEvalError:
            return False
        del env[NU_NAME]
        env[name] = value
    return True


def _value_fits(rtype: RType, value) -> bool:
    base = rtype.base
    if isinstance(base, ListBase):
        return isinstance(value, tuple) and all(_value_fits(base.elem, v) for v in value)
    if isinstance(base, TreeBase):
        return isinstance(value, VTree)
    if isinstance(base, BoolBase):
        return isinstance(value, bool)
    return isinstance(value, int) and not isinstance(value, bool)


def random_inputs(goal, seed: int, count: int, sizes: Sequence[int]) -> List[tuple]:
    """``count`` seeded inputs per size that meet the goal's preconditions."""
    rng = random.Random(f"{goal.name}:{seed}")
    params = _params(goal)
    found: List[tuple] = []
    for size in sizes:
        kept = 0
        for _ in range(count * 20):
            args = tuple(_random_value(ptype, size, rng) for _, ptype in params)
            if precondition_holds(goal, args):
                found.append(args)
                kept += 1
                if kept == count:
                    break
    return found


# ---------------------------------------------------------------------------
# The check
# ---------------------------------------------------------------------------


@dataclass
class Verdict:
    """Outcome of checking one program against its goal."""

    ok: bool
    inputs: int = 0
    reason: str = ""
    vacuous: bool = False
    failures: List[str] = field(default_factory=list)


def _run(goal, program: s.Expr, args: tuple):
    return run_on_inputs(program, args, env=dict(goal.component_builtins()))


def check_program(
    goal,
    program: s.Expr,
    seed: int,
    input_maker: Optional[Callable[[int], tuple]] = None,
    key: str = "",
) -> Verdict:
    """Run ``program`` on seeded inputs and test the goal's refinements."""
    inputs: List[tuple] = []
    if input_maker is not None:
        inputs.extend(input_maker(size) for size in MAKER_SIZES)
    inputs.extend(random_inputs(goal, seed, RANDOM_PER_SIZE, RANDOM_SIZES))
    inputs = [args for args in inputs if precondition_holds(goal, args)]
    examples = list(getattr(goal, "examples", ()) or ())
    refinement = goal.schema.body.final_result().refinement
    names = [name for name, _ in _params(goal)]
    verdict = Verdict(ok=True, vacuous=(key or goal.name) in VACUOUS_SPECS)
    for args in inputs:
        verdict.inputs += 1
        try:
            value = _run(goal, program, args).value
            env = dict(zip(names, args))
            env[NU_NAME] = value
            good = holds(refinement, env)
        except (EvaluationError, OutOfFuel, RefinementEvalError) as err:
            good, value = False, f"error: {err}"
        if not good:
            verdict.failures.append(f"{args!r} -> {value!r}")
    from repro.pbe.examples import values_equal

    for example in examples:
        verdict.inputs += 1
        try:
            value = _run(goal, program, tuple(example.inputs)).value
            good = values_equal(value, example.output)
        except (EvaluationError, OutOfFuel) as err:
            good, value = False, f"error: {err}"
        if not good:
            verdict.failures.append(f"example {example}: got {value!r}")
    if verdict.inputs == 0:
        verdict.ok, verdict.reason = False, "no input met the goal's preconditions"
    elif verdict.failures:
        verdict.ok = False
        verdict.reason = f"{len(verdict.failures)} of {verdict.inputs} inputs fail the spec"
    return verdict


def cost_units(goal, program: s.Expr, input_maker) -> int:
    """Total interpreter cost of ``program`` on fixed inputs (seed-independent)."""
    inputs = random_inputs(goal, COST_SEED, 4, COST_SIZES)
    if input_maker is not None:
        inputs.extend(input_maker(size) for size in COST_SIZES)
    inputs = [args for args in inputs if precondition_holds(goal, args)]
    total = 0
    for args in inputs:
        total += _run(goal, program, args).cost
    return total
