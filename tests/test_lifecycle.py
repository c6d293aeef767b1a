"""Resource-lifecycle typestate engine: planted-leak fixtures, the
no-false-positive corpus, and the tree-clean gate for the real source.

Each planted fixture is a tiny module with exactly one acquire/release
slip over the simulator's paired-resource APIs (pool allocate/free,
cache lock/unlock); the RES passes must catch each with its distinct
``RES0xx`` code and stay silent on correct try/finally, context-manager,
ownership-escape, and planner shapes.
"""

import textwrap

import pytest

from repro.analysis import AnalysisContext, analyze_lifecycle, code_owners
from repro.analysis.lifecycle import (
    PROTOCOLS,
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
        assert {p.name for p in PROTOCOLS} == {"memory-pool", "cache-lock"}
        for protocol in PROTOCOLS:
            assert protocol.acquires, protocol.name
            assert protocol.releases, protocol.name

    def test_res_codes_are_owned(self):
        owners = code_owners()
        for code in ("RES001", "RES002", "RES003", "RES004", "RES005",
                     "RES006", "RES010"):
            assert owners[code] == "res-typestate", code
        for code in ("RES007", "RES009"):
            assert owners[code] == "leak-sanitizer", code


# ---------------------------------------------------------------------------
# Planted leaks: one distinct RES code each
# ---------------------------------------------------------------------------

class TestPlantedLeaks:
    def test_res001_token_never_released(self, tmp_path):
        findings = _analyze(tmp_path, """
            def leak(cache, n):
                r = cache.lock(n)
                return n * 2
            """)
        assert _codes(findings) == ["RES001"]
        assert "cache-lock" in findings[0].message

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
            def charge(cache, n, sink):
                r = cache.lock(n)
                sink.push(n)
                cache.unlock(r)
            """)
        assert _codes(findings) == ["RES002"]
        assert findings[0].subject == "charge"

    def test_res003_double_release(self, tmp_path):
        findings = _analyze(tmp_path, """
            def twice(cache, n):
                r = cache.lock(n)
                cache.unlock(r)
                cache.unlock(r)
            """)
        assert _codes(findings) == ["RES003"]

    def test_res003_interprocedural_through_helper(self, tmp_path):
        # The double release is only visible through the helper's
        # inferred releases-its-parameter summary.
        findings = _analyze(tmp_path, """
            def helper(cache, r):
                cache.unlock(r)

            def caller(cache, n):
                r = cache.lock(n)
                helper(cache, r)
                cache.unlock(r)
            """)
        assert "RES003" in _codes(findings)
        double = [f for f in findings if f.code == "RES003"]
        assert double[0].subject == "caller"

    def test_res004_use_after_release(self, tmp_path):
        findings = _analyze(tmp_path, """
            def consume(lock):
                return lock

            def stale(cache, n):
                r = cache.lock(n)
                cache.unlock(r)
                consume(r)
            """)
        assert _codes(findings) == ["RES004"]

    def test_res005_release_of_non_handle(self, tmp_path):
        findings = _analyze(tmp_path, """
            def bogus(cache):
                y = 5
                cache.unlock(y)
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
                    r = scope.lock(5)
                    return r
            """)
        assert _codes(findings) == ["RES006"]

    def test_res010_acquire_result_discarded(self, tmp_path):
        findings = _analyze(tmp_path, """
            def drop(cache, n):
                cache.lock(n)
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
            def park(self, cache, n):
                # ownership escape: stored on self, unlocked elsewhere
                self.pending = cache.lock(n)

        def guarded(cache, n, sink):
            r = cache.lock(n)
            try:
                sink.push(n)
            finally:
                cache.unlock(r)

        def scoped(cache, n, sink):
            with cache.locked(n) as r:
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

        def maybe(cache, n, cond):
            r = cache.lock(n)
            if cond:
                cache.unlock(r)

        def early_exit(cache, n):
            if n <= 0:
                return None
            r = cache.lock(n)
            cache.unlock(r)
            return n

        def handed_off(cache, n, registry):
            # appended into a container: ownership moved
            registry.append(cache.lock(n))

        def produced(cache, n):
            r = cache.lock(n)
            return r

        def lenient(pool):
            # the documented sentinel path is not a protocol violation
            return pool.free("maybe-there", missing_ok=True)

        def unrelated(names, label):
            # same-named unrelated method, wrong arity: not our unlock
            names.unlock()
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
        ("cache.unlock(r)", True),    # agree: the second unlock is double
    ])
    def test_same_name_resolves_only_when_summaries_agree(
            self, tmp_path, b_body, flagged):
        findings = _analyze_modules(tmp_path, {
            "a.py": """
                def helper(cache, r):
                    cache.unlock(r)
                """,
            "b.py": f"""
                def helper(cache, r):
                    {b_body}
                """,
            "c.py": """
                def use(cache, n):
                    r = cache.lock(n)
                    helper(cache, r)
                    cache.unlock(r)
                """,
        })
        assert ("RES003" in _codes(findings)) is flagged

    def test_summaries_reach_callers_two_calls_away(self, tmp_path):
        # Callers come first in scan order, so outer() learns that inner()
        # unlocks its argument only in the fixpoint's second round.
        findings = _analyze_modules(tmp_path, {
            "a.py": """
                def use(cache, n):
                    r = cache.lock(n)
                    outer(cache, r)
                    cache.unlock(r)
                """,
            "b.py": """
                def outer(cache, r):
                    inner(cache, r)
                """,
            "c.py": """
                def inner(cache, r):
                    cache.unlock(r)
                """,
        })
        assert [(f.code, f.subject) for f in findings
                if f.code == "RES003"] == [("RES003", "use")]

    def test_branch_that_returns_does_not_reach_the_join(self, tmp_path):
        findings = _analyze(tmp_path, """
            def guarded(cache, n, bad):
                r = cache.lock(n)
                if bad:
                    cache.unlock(r)
                    return
                cache.unlock(r)
                cache.unlock(r)
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
            def leak(cache, n):
                r = cache.lock(n)
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
        assert any("ResultCache.locked" in q for q in names)
