"""Rule-by-rule tests for the source linter (SRC2xx)."""

import textwrap

from repro.analyze import analyze_source


def lint(source):
    return analyze_source("<test>", text=textwrap.dedent(source))


class TestParseFailure:
    def test_src000_on_syntax_error(self):
        report = lint("def broken(:\n")
        (diag,) = report.by_rule("SRC000")
        assert diag.severity.value == "error"
        assert not report.ok()


class TestGlobalRandom:
    def test_src201_unseeded_module_call(self):
        report = lint("""
            import random

            def behavior(fn):
                yield from fn.execute(random.randint(1, 10))
        """)
        (diag,) = report.by_rule("SRC201")
        assert "random.randint" in diag.message
        assert "no random.seed" in diag.message

    def test_src201_through_alias_and_from_import(self):
        report = lint("""
            import random as rnd
            from random import shuffle

            def behavior(fn):
                rnd.random()
                shuffle([1, 2])
                yield
        """)
        assert len(report.by_rule("SRC201")) == 2

    def test_src201_module_level_call_not_flagged(self):
        # A module-level draw runs once at import: not flagged; only
        # calls inside function bodies repeat per run.
        report = lint("""
            import random

            JITTER = random.random()
        """)
        assert not report.by_rule("SRC201")

    def test_local_random_instance_not_flagged(self):
        report = lint("""
            import random

            def behavior(fn, seed):
                rng = random.Random(seed)
                yield from fn.execute(rng.randint(1, 10))
        """)
        assert not report.by_rule("SRC201")


class TestWallClock:
    def test_src202_time_time(self):
        report = lint("""
            import time

            def stamp():
                return time.time()
        """)
        (diag,) = report.by_rule("SRC202")
        assert "time.time()" in diag.message

    def test_src202_datetime_now_via_from_import(self):
        report = lint("""
            from datetime import datetime

            def stamp():
                return datetime.now()
        """)
        assert report.by_rule("SRC202")

    def test_src202_datetime_module_double_hop(self):
        report = lint("""
            import datetime

            def stamp():
                return datetime.datetime.utcnow()
        """)
        assert report.by_rule("SRC202")

    def test_perf_counter_is_fine(self):
        report = lint("""
            import time

            def measure():
                return time.perf_counter() - time.monotonic()
        """)
        assert not report.by_rule("SRC202")


class TestPicklability:
    def test_src210_lambda_argument(self):
        for call, where in (
                ("ExperimentSpec(run=lambda params: {})", "argument 'run'"),
                ('ExperimentSpec("x", lambda params: {})',
                 "positional argument")):
            report = lint(f"""
                def main():
                    spec = {call}
            """)
            (diag,) = report.by_rule("SRC210")
            assert f"a lambda as {where}" in diag.message
            assert "workers > 1" in diag.message

    def test_src210_nested_function(self):
        report = lint("""
            def main():
                def runner(request):
                    return {}

                monte_carlo(runner, runs=4)
        """)
        (diag,) = report.by_rule("SRC210")
        assert "'runner'" in diag.message

    def test_module_level_function_is_fine(self):
        report = lint("""
            def runner(request):
                return {}

            def main():
                monte_carlo(runner, runs=4)
        """)
        assert not report.by_rule("SRC210")


class TestPragmas:
    def test_trailing_pragma_suppresses_one_line(self):
        report = lint("""
            import time

            def stamp():
                a = time.time()  # pyrtos: disable=SRC202
                b = time.time()
                return a + b
        """)
        assert len(report.by_rule("SRC202")) == 1
        assert len(report.suppressed) == 1
        assert report.suppressed[0].rule == "SRC202"

    def test_standalone_pragma_suppresses_whole_file(self):
        report = lint("""
            # pyrtos: disable=SRC201, SRC202
            import time
            import random

            def stamp():
                return time.time() + random.random()
        """)
        assert not report.diagnostics
        assert len(report.suppressed) == 2
