"""Tests for tools.checkcov — the stdlib coverage measurer."""

import threading

from tools.checkcov import LineCollector, executable_lines, measure_tree
from tools.checkcov.entry import Function, never_entered


class TestExecutableLines:
    def test_counts_statements_not_blanks_or_comments(self):
        source = (
            "x = 1\n"          # line 1: executable
            "\n"               # line 2: blank
            "# comment\n"      # line 3: comment
            "y = x + 1\n"      # line 4: executable
        )
        assert executable_lines(source) == {1, 4}

    def test_recurses_into_nested_code_objects(self):
        source = (
            "def outer():\n"
            "    def inner():\n"
            "        return 1\n"
            "    return inner\n"
        )
        lines = executable_lines(source)
        assert {1, 2, 3, 4} <= lines


class TestLineCollector:
    def test_records_only_files_under_root(self, tmp_path):
        target = tmp_path / "mod.py"
        target.write_text("a = 1\nb = 2\n", encoding="utf-8")
        collector = LineCollector(tmp_path)
        collector.install()
        try:
            code = compile(
                target.read_text(encoding="utf-8"),
                str(target.resolve()),
                "exec",
            )
            exec(code, {})
            # This very frame is outside tmp_path, so it is pruned.
        finally:
            collector.uninstall()
        assert collector.hits == {str(target.resolve()): {1, 2}}

    def test_traces_worker_threads(self, tmp_path):
        target = tmp_path / "threaded.py"
        target.write_text("value = 40 + 2\n", encoding="utf-8")
        code = compile(
            target.read_text(encoding="utf-8"),
            str(target.resolve()),
            "exec",
        )
        collector = LineCollector(tmp_path)
        collector.install()
        try:
            worker = threading.Thread(target=exec, args=(code, {}))
            worker.start()
            worker.join()
        finally:
            collector.uninstall()
        assert collector.hits == {str(target.resolve()): {1}}


class TestMeasureTree:
    def test_unexecuted_files_count_as_zero(self, tmp_path):
        ran = tmp_path / "ran.py"
        ran.write_text("a = 1\nb = 2\n", encoding="utf-8")
        skipped = tmp_path / "skipped.py"
        skipped.write_text("c = 3\n", encoding="utf-8")
        hits = {str(ran.resolve()): {1}}
        report = measure_tree(tmp_path, hits)
        assert report[str(ran.resolve())] == (1, 2)
        assert report[str(skipped.resolve())] == (0, 1)

    def test_spurious_hits_do_not_inflate_coverage(self, tmp_path):
        mod = tmp_path / "mod.py"
        mod.write_text("a = 1\n", encoding="utf-8")
        hits = {str(mod.resolve()): {1, 99}}  # 99 is not executable
        assert measure_tree(tmp_path, hits)[str(mod.resolve())] == (1, 1)


class TestNeverEntered:
    SOURCE = (
        "def used():\n"                    # 1
        "    return 1\n"                   # 2
        "\n"                               # 3
        "\n"                               # 4
        "def unused(x):\n"                 # 5
        "    y = x + 1\n"                  # 6
        "    return y\n"                   # 7
        "\n"                               # 8
        "\n"                               # 9
        "class Box:\n"                     # 10
        "    def method(self):\n"          # 11
        "        return 2\n"               # 12
        "\n"                               # 13
        "    @property\n"                  # 14
        "    def prop(self):\n"            # 15
        "        def inner():\n"           # 16
        "            return 3\n"           # 17
        "        return inner()\n"         # 18
        "\n"                               # 19
        "    def stub(self):\n"            # 20
        '        """Protocol member."""\n'  # 21
        "        ...\n"                    # 22
        "\n"                               # 23
        "\n"                               # 24
        "def outer():\n"                   # 25
        "    def helper():\n"              # 26
        "        return 4\n"               # 27
        "    return 5\n"                   # 28
        "\n"                               # 29
        "\n"                               # 30
        "used()\n"                         # 31
        "outer()\n"                        # 32
    )
    EXPECTED = [
        Function("unused", 5, 3, 2),
        Function("Box.method", 11, 2, 1),
        # Decorator line counted; the nested `inner` is part of prop.
        Function("Box.prop", 15, 5, 3),
        Function("outer.<locals>.helper", 26, 2, 1),
    ]

    def test_synthetic_hit_set(self):
        # What running the module and calling used() and outer() fires.
        hits = {1, 2, 5, 10, 11, 14, 15, 20, 25, 26, 28, 31, 32}
        assert never_entered(self.SOURCE, "<src>", hits) == self.EXPECTED

    def test_traced_module(self, tmp_path):
        """The def line fires when the enclosing scope runs; that alone
        does not count as entering the function."""
        target = tmp_path / "mod.py"
        target.write_text(self.SOURCE, encoding="utf-8")
        name = str(target.resolve())
        collector = LineCollector(tmp_path)
        collector.install()
        try:
            exec(compile(self.SOURCE, name, "exec"), {})
        finally:
            collector.uninstall()
        hits = collector.hits[name]
        assert never_entered(self.SOURCE, name, hits) == self.EXPECTED

    def test_everything_entered(self):
        assert never_entered(self.SOURCE, "<src>", set(range(1, 33))) == []
