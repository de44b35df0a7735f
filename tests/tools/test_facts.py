"""Phase-1 fact extraction: calls, nondet sources, taint tokens."""

from __future__ import annotations

import ast

from tools.reprolint.facts import (
    extract_facts,
    facts_from_dict,
    facts_to_dict,
    split_arg_token,
)


def _facts(source: str, path: str = "src/repro/mod.py", module: str | None = "repro.mod"):
    return extract_facts(
        path=path, module=module, tree=ast.parse(source), suppressions=()
    )


def _func(facts, qualname):
    for func in facts.functions:
        if func.qualname == qualname:
            return func
    raise AssertionError(f"{qualname} not extracted: {[f.qualname for f in facts.functions]}")


class TestNondetSources:
    def test_clock_and_rng_calls(self):
        facts = _facts(
            "import random, time\n"
            "def f():\n"
            "    return time.perf_counter() + random.random()\n"
        )
        kinds = {use.kind for use in _func(facts, "f").nondet}
        assert kinds == {"clock", "rng"}

    def test_seeded_random_is_not_a_source(self):
        facts = _facts(
            "import random\n"
            "def f(seed):\n"
            "    return random.Random(seed).random()\n"
        )
        assert _func(facts, "f").nondet == ()

    def test_environ_id_and_set_iteration(self):
        facts = _facts(
            "import os\n"
            "def f(x):\n"
            "    s = {1, 2}\n"
            "    for item in s:\n"
            "        pass\n"
            "    return os.environ.get('K'), id(x)\n"
        )
        kinds = {use.kind for use in _func(facts, "f").nondet}
        assert kinds == {"environ", "id", "set-iter"}


class TestTaintTokens:
    def test_field_projection_does_not_smear(self):
        facts = _facts(
            "def f(report):\n"
            "    return report.queries\n"
        )
        assert _func(facts, "f").return_tokens == ("attr:queries",)

    def test_local_substitution(self):
        facts = _facts(
            "import time\n"
            "def f():\n"
            "    t = time.perf_counter()\n"
            "    u = t\n"
            "    return u\n"
        )
        assert "nondet" in _func(facts, "f").return_tokens

    def test_call_arguments_are_tagged(self):
        facts = _facts(
            "def f(report):\n"
            "    return digestify(report.wall_seconds)\n"
        )
        tokens = _func(facts, "f").return_tokens
        assert "call:digestify" in tokens
        assert "arg:digestify:attr:wall_seconds" in tokens

    def test_split_arg_token_round_trip(self):
        callees, base = split_arg_token("arg:f:arg:g:attr:x")
        assert callees == ("f", "g")
        assert base == "attr:x"
        assert split_arg_token("attr:x") == ((), "attr:x")

    def test_attr_assignment_records_field_taint(self):
        facts = _facts(
            "import time\n"
            "class C:\n"
            "    def f(self):\n"
            "        self.wall_seconds = time.perf_counter()\n"
        )
        (taint,) = _func(facts, "C.f").attr_taints
        assert taint[0] == "wall_seconds"
        assert "nondet" in taint[1]

    def test_constructor_keyword_taint(self):
        facts = _facts(
            "import time\n"
            "def f():\n"
            "    return Report(wall=time.perf_counter(), n=3)\n"
        )
        keywords = {kw.keyword: kw.tokens for kw in _func(facts, "f").kw_taints}
        assert "nondet" in keywords["wall"]
        assert "nondet" not in keywords["n"]

    def test_nested_dict_values_stay_per_key(self):
        facts = _facts(
            "import time\n"
            "def f():\n"
            "    return {'outer': [{'wall_seconds': time.perf_counter()}]}\n",
            path="benchmarks/test_bench_x.py",
            module=None,
        )
        taints = {d.key: d.tokens for d in _func(facts, "f").dict_taints}
        assert "nondet" in taints["wall_seconds"]
        assert "nondet" not in taints["outer"]


class TestRoundTrip:
    SOURCE = (
        "import time\n"
        "class C:\n"
        "    def __init__(self):\n"
        "        self._x = 0\n"
        "    def tick(self):\n"
        "        with open('f') as handle:\n"
        "            self._x = time.perf_counter()\n"
        "        return {'wall_seconds': self._x, 'n': len(handle.name)}\n"
    )

    def test_facts_survive_json_round_trip(self):
        facts = _facts(self.SOURCE)
        assert facts_from_dict(facts_to_dict(facts)) == facts
