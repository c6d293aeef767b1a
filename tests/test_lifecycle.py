"""Resource-lifecycle typestate engine: planted-leak fixtures, the
no-false-positive corpus, and the tree-clean gate for the real source.

Each planted fixture is a tiny module with exactly one acquire/release
slip over the simulator's paired-resource APIs (pool allocate/free,
ledger reserve/settle, cache lock/unlock); the RES passes must catch
each with its distinct ``RES0xx`` code and stay silent on correct
try/finally, context-manager, ownership-escape, and planner shapes.
"""

import textwrap

import pytest

from repro.analysis import AnalysisContext, analyze_lifecycle, code_owners
from repro.analysis.lifecycle import (
    PROTOCOLS,
    STATIC_PROTOCOLS,
    LifecycleProgram,
    analyze_tree,
)


def _analyze(tmp_path, source, name="mod.py"):
    (tmp_path / name).write_text(textwrap.dedent(source))
    return analyze_tree(tmp_path)


def _codes(findings):
    return [f.code for f in findings]


# ---------------------------------------------------------------------------
# Protocol table sanity
# ---------------------------------------------------------------------------

class TestProtocolTable:
    def test_every_static_protocol_pairs_acquire_release(self):
        for protocol in STATIC_PROTOCOLS:
            assert protocol.acquires, protocol.name
            assert protocol.releases, protocol.name

    def test_runtime_only_protocols_are_marked(self):
        static_names = {p.name for p in STATIC_PROTOCOLS}
        assert "flow-epoch" not in static_names
        assert "trace-span" not in static_names
        all_names = {p.name for p in PROTOCOLS}
        assert {"memory-pool", "ledger-reservation", "cache-lock",
                "flow-epoch", "trace-span"} <= all_names

    def test_res_codes_are_owned(self):
        owners = code_owners()
        for code in ("RES001", "RES002", "RES003", "RES004", "RES005",
                     "RES006", "RES010"):
            assert owners[code] == "res-typestate", code
        for code in ("RES007", "RES008", "RES009"):
            assert owners[code] == "leak-sanitizer", code


# ---------------------------------------------------------------------------
# Planted leaks: one distinct RES code each
# ---------------------------------------------------------------------------

class TestPlantedLeaks:
    def test_res001_token_never_released(self, tmp_path):
        findings = _analyze(tmp_path, """
            def leak(ledger, n):
                r = ledger.reserve(n)
                return n * 2
            """)
        assert _codes(findings) == ["RES001"]
        assert "ledger-reservation" in findings[0].message

    def test_res001_label_leaks_when_sibling_freed(self, tmp_path):
        # The intent rule: the function frees *some* pool label, so a
        # label it allocated and never freed is a leak, not a planner.
        findings = _analyze(tmp_path, """
            def swap(pool, n):
                pool.allocate("scratch", n)
                pool.free("other")
            """)
        assert _codes(findings) == ["RES001"]
        assert "scratch" in findings[0].message

    def test_res002_exception_path_skips_release(self, tmp_path):
        findings = _analyze(tmp_path, """
            def charge(ledger, n, sink):
                r = ledger.reserve(n)
                sink.push(n)
                ledger.settle(r)
            """)
        assert _codes(findings) == ["RES002"]
        assert findings[0].subject == "charge"

    def test_res003_double_release(self, tmp_path):
        findings = _analyze(tmp_path, """
            def twice(ledger, n):
                r = ledger.reserve(n)
                ledger.settle(r)
                ledger.settle(r)
            """)
        assert _codes(findings) == ["RES003"]

    def test_res003_interprocedural_through_helper(self, tmp_path):
        # The double release is only visible through the helper's
        # inferred releases-its-parameter summary.
        findings = _analyze(tmp_path, """
            def helper(ledger, r):
                ledger.settle(r)

            def caller(ledger, n):
                r = ledger.reserve(n)
                helper(ledger, r)
                ledger.settle(r)
            """)
        assert "RES003" in _codes(findings)
        double = [f for f in findings if f.code == "RES003"]
        assert double[0].subject == "caller"

    def test_res004_use_after_release(self, tmp_path):
        findings = _analyze(tmp_path, """
            def consume(reservation):
                return reservation

            def stale(ledger, n):
                r = ledger.reserve(n)
                ledger.settle(r)
                consume(r)
            """)
        assert _codes(findings) == ["RES004"]

    def test_res005_release_of_non_handle(self, tmp_path):
        findings = _analyze(tmp_path, """
            def bogus(ledger):
                y = 5
                ledger.settle(y)
            """)
        assert _codes(findings) == ["RES005"]

    def test_res005_free_never_allocated_on_local_pool(self, tmp_path):
        findings = _analyze(tmp_path, """
            def ghost():
                pool = MemoryPool(100)
                pool.free("ghost")
            """)
        assert _codes(findings) == ["RES005"]
        assert "ghost" in findings[0].message

    def test_res006_handle_escapes_with_scope(self, tmp_path):
        findings = _analyze(tmp_path, """
            def sneak(pool, n):
                with pool.lease("slab", n) as scope:
                    r = scope.reserve(5)
                    return r
            """)
        assert _codes(findings) == ["RES006"]

    def test_res010_acquire_result_discarded(self, tmp_path):
        findings = _analyze(tmp_path, """
            def drop(ledger, n):
                ledger.reserve(n)
            """)
        assert _codes(findings) == ["RES010"]

    def test_cache_lock_protocol_is_checked(self, tmp_path):
        findings = _analyze(tmp_path, """
            def hold(cache, key):
                token = cache.lock(key)
                return 1
            """)
        assert _codes(findings) == ["RES001"]
        assert "cache-lock" in findings[0].message


# ---------------------------------------------------------------------------
# No-false-positive corpus: correct lifecycle shapes must stay silent
# ---------------------------------------------------------------------------

class TestNoFalsePositives:
    CORRECT_CORPUS = """
        class Owner:
            def park(self, ledger, n):
                # ownership escape: stored on self, settled elsewhere
                self.pending = ledger.reserve(n)

        def guarded(ledger, n, sink):
            r = ledger.reserve(n)
            try:
                sink.push(n)
            finally:
                ledger.settle(r)

        def scoped(ledger, n, sink):
            with ledger.reserving(n) as r:
                sink.push(n)

        def leased(pool, n, sink):
            with pool.lease("scratch", n):
                sink.push(n)

        def planner(pool, plan):
            # allocate-only planner: frees nothing, so unmatched labels
            # are intent, not leaks (apply_memory_plan's shape)
            for label, size in plan.items():
                pool.allocate(label, size)

        def balanced(pool, n):
            pool.allocate("a", n)
            pool.free("a")

        def rebalance(pool, n):
            # free-then-reacquire of the same label is a legal epoch
            pool.free("a")
            pool.allocate("a", n)
            pool.free("a")

        def maybe(ledger, n, cond):
            r = ledger.reserve(n)
            if cond:
                ledger.settle(r)

        def early_exit(ledger, n):
            if n <= 0:
                return None
            r = ledger.reserve(n)
            ledger.settle(r)
            return n

        def handed_off(ledger, n, registry):
            # appended into a container: ownership moved
            registry.append(ledger.reserve(n))

        def produced(ledger, n):
            r = ledger.reserve(n)
            return r

        def lenient(pool):
            # the documented sentinel path is not a protocol violation
            return pool.free("maybe-there", missing_ok=True)

        def unrelated(names, label):
            # same-named unrelated method, wrong arity: not our settle
            names.settle()
            return len(names)
    """

    def test_correct_corpus_is_silent(self, tmp_path):
        findings = _analyze(tmp_path, self.CORRECT_CORPUS)
        assert findings == [], [
            f"{f.code} {f.location}: {f.message}" for f in findings
        ]


# ---------------------------------------------------------------------------
# The shared program core: resolution, fixpoint, branch exits
# ---------------------------------------------------------------------------

def _analyze_modules(tmp_path, sources):
    for name, source in sources.items():
        (tmp_path / name).write_text(textwrap.dedent(source))
    return analyze_tree(tmp_path)


class TestProgramCore:
    @pytest.mark.parametrize("b_body,flagged", [
        ("pass", False),              # disagree: the call resolves to nothing
        ("ledger.settle(r)", True),   # agree: the second settle is double
    ])
    def test_same_name_resolves_only_when_summaries_agree(
            self, tmp_path, b_body, flagged):
        findings = _analyze_modules(tmp_path, {
            "a.py": """
                def helper(ledger, r):
                    ledger.settle(r)
                """,
            "b.py": f"""
                def helper(ledger, r):
                    {b_body}
                """,
            "c.py": """
                def use(ledger, n):
                    r = ledger.reserve(n)
                    helper(ledger, r)
                    ledger.settle(r)
                """,
        })
        assert ("RES003" in _codes(findings)) is flagged

    def test_summaries_reach_callers_two_calls_away(self, tmp_path):
        # Callers come first in scan order, so outer() learns that inner()
        # settles its argument only in the fixpoint's second round.
        findings = _analyze_modules(tmp_path, {
            "a.py": """
                def use(ledger, n):
                    r = ledger.reserve(n)
                    outer(ledger, r)
                    ledger.settle(r)
                """,
            "b.py": """
                def outer(ledger, r):
                    inner(ledger, r)
                """,
            "c.py": """
                def inner(ledger, r):
                    ledger.settle(r)
                """,
        })
        assert [(f.code, f.subject) for f in findings
                if f.code == "RES003"] == [("RES003", "use")]

    def test_branch_that_returns_does_not_reach_the_join(self, tmp_path):
        findings = _analyze(tmp_path, """
            def guarded(ledger, n, bad):
                r = ledger.reserve(n)
                if bad:
                    ledger.settle(r)
                    return
                ledger.settle(r)
                ledger.settle(r)
            """)
        assert [(f.code, f.location) for f in findings] == [
            ("RES003", "mod.py:8")]


# ---------------------------------------------------------------------------
# The real tree
# ---------------------------------------------------------------------------

class TestOwnTree:
    def test_own_tree_is_clean(self):
        # No baseline waivers: the simulator's own source must conform
        # to its lifecycle protocols outright.
        report = analyze_lifecycle()
        assert "res-typestate" in report.passes_run
        assert report.findings == [], [
            f"{f.code} {f.location}: {f.message}" for f in report.findings
        ]

    def test_analyze_accepts_alternate_root(self, tmp_path):
        (tmp_path / "mod.py").write_text(textwrap.dedent("""
            def leak(ledger, n):
                r = ledger.reserve(n)
                return n
            """))
        report = analyze_lifecycle(root=tmp_path)
        assert _codes(report.findings) == ["RES001"]

    def test_hot_summaries_are_inferred(self):
        # The real acquire/release helpers must be inside the checked
        # universe: spot-check inferred summaries instead of trusting
        # silence.
        program = LifecycleProgram.over(AnalysisContext())
        by_name = program.by_name
        assert "apply_memory_plan" in by_name
        assert "release_memory_plan" in by_name
        names = {fn.qualname for module in program.modules
                 for fn in module.functions.values()}
        assert any("MemoryPool.lease" in q for q in names)
        assert any("BandwidthLedger.reserving" in q for q in names)
