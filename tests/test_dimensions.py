"""Dimensional-analysis engine: lattice algebra, planted-bug fixtures,
no-false-positive corpus, and the tree-clean gate for the real source.

Each planted-bug fixture is a tiny module with exactly one unit slip the
paper's bandwidth math could realistically suffer (ms added to seconds,
GB-vs-GiB capacity, bytes compared to bytes/s, ...); the engine must
catch each with its distinct ``DIM0xx`` code and stay silent on the
correct-code corpus.
"""

import textwrap
from pathlib import Path

import pytest

from repro.analysis import (
    AnalysisContext,
    analyze_dimensions,
    code_owners,
    load_baseline,
)
from repro.analysis.dimensions import (
    BYTES,
    BYTES_PER_S,
    DIMENSIONLESS,
    TIME,
    UNKNOWN,
    Dim,
    UnitsProgram,
    analyze_tree,
)
from repro.analysis.dimensions.lattice import (
    BYTES_BINARY,
    BYTES_DECIMAL,
    parse_dim,
)


def _analyze(tmp_path, source, name="mod.py"):
    (tmp_path / name).write_text(textwrap.dedent(source))
    return analyze_tree(tmp_path)


def _codes(findings):
    return [f.code for f in findings]


# ---------------------------------------------------------------------------
# Lattice algebra
# ---------------------------------------------------------------------------

class TestLattice:
    def test_mul_div_compose_exponents(self):
        assert BYTES.div(TIME) == BYTES_PER_S
        assert BYTES_PER_S.mul(TIME) == BYTES
        assert BYTES.div(BYTES) == DIMENSIONLESS

    def test_unknown_absorbs(self):
        assert BYTES.mul(UNKNOWN) == UNKNOWN
        assert UNKNOWN.div(TIME) == UNKNOWN
        assert BYTES.join(UNKNOWN) == UNKNOWN

    def test_join_widens_on_mismatch(self):
        assert BYTES.join(TIME) == UNKNOWN
        assert BYTES.join(BYTES) == BYTES

    def test_compatibility_is_exponent_equality(self):
        assert BYTES.compatible(BYTES_DECIMAL)
        assert not BYTES.compatible(TIME)
        # unknown is compatible with everything: never a finding
        assert UNKNOWN.compatible(BYTES)

    def test_scale_conflict_only_between_flavors(self):
        assert BYTES_DECIMAL.scale_conflict(BYTES_BINARY)
        assert not BYTES_DECIMAL.scale_conflict(BYTES)
        assert not BYTES_DECIMAL.scale_conflict(BYTES_DECIMAL)

    def test_rescale_cancels_flavor(self):
        # x * GB / GIB is a legitimate conversion, not a conflict.
        rescaled = DIMENSIONLESS.mul(BYTES_DECIMAL).div(BYTES_BINARY)
        assert rescaled == DIMENSIONLESS
        assert not rescaled.scale_conflict(BYTES_BINARY)

    def test_pow_scales_exponents(self):
        assert TIME.pow(2) == Dim((0, 2, 0))
        assert BYTES_PER_S.pow(-1) == Dim((-1, 1, 0))

    def test_str_rendering(self):
        assert str(BYTES_PER_S) == "bytes/s"
        assert str(TIME) == "s"
        assert str(UNKNOWN) == "unknown"
        assert str(DIMENSIONLESS) == "dimensionless"

    def test_parse_dim_roundtrip(self):
        for dim in (BYTES, TIME, BYTES_PER_S, DIMENSIONLESS, UNKNOWN):
            assert parse_dim(str(dim)) == dim


# ---------------------------------------------------------------------------
# Planted-bug fixtures: one distinct DIM code each
# ---------------------------------------------------------------------------

class TestPlantedBugs:
    def test_dim001_ms_added_to_bytes(self, tmp_path):
        findings = _analyze(tmp_path, """
            from repro.units import MS, Bytes

            def budget(num_bytes: Bytes) -> float:
                return num_bytes + 5 * MS
            """)
        assert _codes(findings) == ["DIM001"]
        assert "bytes" in findings[0].message and "s" in findings[0].message

    def test_dim001_interprocedural_through_helper(self, tmp_path):
        # The ms-vs-s slip only becomes visible through the *inferred*
        # return dimension of an unannotated helper.
        findings = _analyze(tmp_path, """
            from repro.units import MS, Bytes, Seconds

            def checkpoint_pause():
                return 30 * MS

            def total(num_bytes: Bytes):
                return num_bytes + checkpoint_pause()
            """)
        assert _codes(findings) == ["DIM001"]
        assert findings[0].subject == "total"

    def test_dim002_bytes_compared_to_rate(self, tmp_path):
        findings = _analyze(tmp_path, """
            from repro.units import Bytes, BytesPerSecond

            def saturated(num_bytes: Bytes, bw: BytesPerSecond) -> bool:
                return num_bytes > bw
            """)
        assert _codes(findings) == ["DIM002"]

    def test_dim003_gb_vs_gib_capacity(self, tmp_path):
        findings = _analyze(tmp_path, """
            from repro.units import GB, GIB

            def fits() -> bool:
                capacity = 40 * GB   # A100 marketing capacity, decimal
                resident = 38 * GIB  # allocator numbers, binary
                return resident < capacity
            """)
        assert _codes(findings) == ["DIM003"]
        assert "7 %" in findings[0].message

    def test_dim004_bytes_into_gbps_helper(self, tmp_path):
        findings = _analyze(tmp_path, """
            from repro.units import Bytes, gbps

            def rate(num_bytes: Bytes) -> float:
                return gbps(num_bytes)
            """)
        assert _codes(findings) == ["DIM004"]

    def test_dim004_annotated_callee_argument(self, tmp_path):
        findings = _analyze(tmp_path, """
            from repro.units import Bytes, Seconds

            def stream_time(num_bytes: Bytes, window: Seconds) -> Seconds:
                return window

            def caller(duration: Seconds):
                return stream_time(duration, duration)
            """)
        assert _codes(findings) == ["DIM004"]
        assert "num_bytes" in findings[0].message

    def test_dim005_return_contradicts_annotation(self, tmp_path):
        findings = _analyze(tmp_path, """
            from repro.units import Bytes, Seconds

            def transfer_time(num_bytes: Bytes) -> Seconds:
                return num_bytes
            """)
        assert _codes(findings) == ["DIM005"]

    def test_dim006_ledger_charge_with_bytes_as_end(self, tmp_path):
        findings = _analyze(tmp_path, """
            from repro.units import Bytes, Seconds

            def charge(ledger, start: Seconds, num_bytes: Bytes):
                ledger.record(start, num_bytes, num_bytes)
            """)
        assert _codes(findings) == ["DIM006"]

    def test_dim006_schedule_at_with_bytes(self, tmp_path):
        findings = _analyze(tmp_path, """
            from repro.units import Bytes

            def kick(engine, num_bytes: Bytes):
                engine.schedule_at(num_bytes, None)
            """)
        assert _codes(findings) == ["DIM006"]

    def test_dim006_counter_track_vocabulary(self, tmp_path):
        findings = _analyze(tmp_path, """
            def track(CounterTrack):
                return CounterTrack(name="hbm", unit="gigabytes")
            """)
        assert _codes(findings) == ["DIM006"]
        assert "gigabytes" in findings[0].message

    def test_each_planted_code_is_distinct_and_owned(self, tmp_path):
        owners = code_owners()
        for code in ("DIM001", "DIM002", "DIM003", "DIM004", "DIM005",
                     "DIM006"):
            assert owners[code] == "dim-flow", code
        for code in ("DIM010", "DIM011"):
            assert owners[code] == "dim-vocabulary", code


# ---------------------------------------------------------------------------
# Flow sensitivity and propagation mechanics
# ---------------------------------------------------------------------------

class TestPropagation:
    def test_division_composes_bandwidth(self, tmp_path):
        # bytes / (bytes/s) = s: accepted against the Seconds annotation.
        findings = _analyze(tmp_path, """
            from repro.units import Bytes, BytesPerSecond, Seconds

            def transfer_time(num_bytes: Bytes,
                              bw: BytesPerSecond) -> Seconds:
                return num_bytes / bw
            """)
        assert findings == []

    def test_branch_join_widens_to_unknown(self, tmp_path):
        # x is bytes on one path, seconds on the other: the merge is
        # UNKNOWN, and using it afterwards must NOT flag.
        findings = _analyze(tmp_path, """
            from repro.units import GB, MS, Seconds

            def weird(flag, t: Seconds):
                x = 1 * GB if flag else 5 * MS
                return x + t
            """)
        assert findings == []

    def test_augmented_assignment_checked(self, tmp_path):
        findings = _analyze(tmp_path, """
            from repro.units import MS, Bytes

            def accumulate(num_bytes: Bytes):
                total = num_bytes
                total += 5 * MS
                return total
            """)
        assert _codes(findings) == ["DIM001"]

    def test_annotated_instance_attribute_propagates(self, tmp_path):
        findings = _analyze(tmp_path, """
            from repro.units import Bytes, Seconds

            class Clock:
                def __init__(self):
                    self.now: Seconds = 0.0

            def bad(clock, num_bytes: Bytes):
                return clock.now + num_bytes
            """)
        assert _codes(findings) == ["DIM001"]

    def test_units_module_alias_spelling(self, tmp_path):
        findings = _analyze(tmp_path, """
            from repro import units

            def bad():
                return 2 * units.GB + 3 * units.MS
            """)
        assert _codes(findings) == ["DIM001"]


# ---------------------------------------------------------------------------
# The shared program core: tuple binding, resolution, fixpoint, branches
# ---------------------------------------------------------------------------

def _analyze_modules(tmp_path, sources):
    for name, source in sources.items():
        (tmp_path / name).write_text(textwrap.dedent(source))
    return analyze_tree(tmp_path)


class TestProgramCore:
    def test_tuple_unpacking_binds_each_element(self, tmp_path):
        # Each target is bound from its own element's evaluation, however
        # many expressions the process interpreted before.
        fixture = "from repro.units import Bytes, Scalar, Seconds\n" + "".join(
            f"\ndef mix{k}(n: Bytes, t: Seconds) -> Scalar:\n"
            f"    a, b = n, t\n"
            f"    total = a + b\n"
            f"    return 1\n"
            for k in range(5000))
        (tmp_path / "mix.py").write_text(fixture)
        assert _codes(analyze_tree(tmp_path)) == ["DIM001"] * 5000

    @pytest.mark.parametrize("b_returns,flagged", [
        ("Seconds", False),  # disagree: the call resolves to nothing
        ("Bytes", True),     # agree: bytes + seconds is flagged
    ])
    def test_same_name_resolves_only_when_summaries_agree(
            self, tmp_path, b_returns, flagged):
        findings = _analyze_modules(tmp_path, {
            "a.py": """
                from repro.units import Bytes

                def helper() -> Bytes:
                    return 1
                """,
            "b.py": f"""
                from repro.units import Bytes, Seconds

                def helper() -> {b_returns}:
                    return 1
                """,
            "c.py": """
                from repro.units import Seconds

                def use(t: Seconds):
                    return helper() + t
                """,
        })
        assert _codes(findings) == (["DIM001"] if flagged else [])

    def test_summaries_reach_callers_two_calls_away(self, tmp_path):
        # Callers come first in scan order and the leaf's return is
        # inferred, so mid() learns it only in the fixpoint's second round.
        findings = _analyze_modules(tmp_path, {
            "a.py": """
                from repro.units import Bytes, Seconds

                def top(n: Bytes, t: Seconds):
                    return mid(n) + t
                """,
            "b.py": """
                def mid(n):
                    return leaf(n)
                """,
            "c.py": """
                from repro.units import Bytes

                def leaf(n: Bytes):
                    return n
                """,
        })
        assert [(f.code, f.subject) for f in findings] == [("DIM001", "top")]

    def test_branch_that_returns_does_not_reach_the_join(self, tmp_path):
        findings = _analyze(tmp_path, """
            from repro.units import Bytes, Seconds

            def pick(c, n: Bytes, t: Seconds):
                x = t
                if c:
                    x = n
                    return 0
                return x + n
            """)
        assert _codes(findings) == ["DIM001"]

    def test_else_branch_starts_from_the_state_before_the_if(self, tmp_path):
        findings = _analyze(tmp_path, """
            from repro.units import Bytes, Seconds

            def pick(c, n: Bytes, t: Seconds):
                x = t
                if c:
                    x = n
                else:
                    x = x + t
                return 0
            """)
        assert findings == []


# ---------------------------------------------------------------------------
# No-false-positive corpus: correct code must stay silent
# ---------------------------------------------------------------------------

class TestNoFalsePositives:
    CORRECT_CORPUS = """
        from repro.units import (
            GB, GIB, MS, SECOND, Bytes, BytesPerSecond, Scalar, Seconds,
            gbps, to_gbps, to_gb,
        )

        def transfer_time(num_bytes: Bytes, bw: BytesPerSecond,
                          latency: Seconds) -> Seconds:
            return latency + num_bytes / bw

        def effective_rate(num_bytes: Bytes, elapsed: Seconds,
                           efficiency: Scalar) -> BytesPerSecond:
            return num_bytes / elapsed * efficiency

        def report(bw: BytesPerSecond) -> float:
            return to_gbps(bw)

        def rescale(capacity_gb: Scalar) -> float:
            # decimal -> binary conversion: flavors cancel, no conflict
            return capacity_gb * GB / GIB

        def settle(ledger, start: Seconds, end: Seconds,
                   num_bytes: Bytes) -> None:
            ledger.record(start, end, num_bytes)

        def pace(engine, delay: Seconds):
            engine.timeout(delay)
            engine.schedule_at(engine.now + delay, None)

        def thresholds(t: Seconds) -> bool:
            # comparisons against bare literals are never unit errors
            return t > 0 and t < 100

        def mixed_arith(num_bytes: Bytes) -> Bytes:
            return max(num_bytes, 0.0) * 2 + num_bytes / 4

        def string_handling(label, names):
            # receivers with same-named unrelated methods stay silent:
            # record(name, passed) has 2 positional args, outside the
            # ledger contract's arity window.
            names.record(label, True)
            return len(names)
    """

    def test_correct_corpus_is_silent(self, tmp_path):
        findings = _analyze(tmp_path, self.CORRECT_CORPUS)
        assert findings == [], [
            f"{f.code} {f.location}: {f.message}" for f in findings
        ]

    def test_method_resolves_only_where_the_arguments_bind(self, tmp_path):
        # ``sizes.append(num_bytes)`` is a list's append: one argument
        # cannot bind to Log.append's four parameters.  A call that does
        # bind still checks against Log.append.
        findings = _analyze(tmp_path, """
            from repro.units import Bytes, Seconds

            class Log:
                def append(self, start: Seconds, end: Seconds,
                           num_bytes: Bytes, key: int) -> None:
                    pass

            def fill(sizes: list, num_bytes: Bytes) -> None:
                sizes.append(num_bytes)

            def charge(log: Log, n: Bytes) -> None:
                log.append(n, n, n, 1)
            """)
        assert _codes(findings) == ["DIM004", "DIM004"]
        assert {f.subject for f in findings} == {"charge"}

    def test_unannotated_code_is_silent(self, tmp_path):
        # Plain untyped arithmetic must never flag, whatever it mixes.
        findings = _analyze(tmp_path, """
            def mystery(a, b, c):
                return a + b * c - a / b
            """)
        assert findings == []


# ---------------------------------------------------------------------------
# The real tree
# ---------------------------------------------------------------------------

class TestOwnTree:
    def test_own_tree_is_clean_modulo_baseline(self):
        report = analyze_dimensions()
        baseline = load_baseline(
            Path(__file__).parent.parent / "analysis-baseline.json")
        kept = [
            f for f in report.findings
            if not any(entry.matches(f) for entry in baseline)
        ]
        assert kept == [], [
            f"{f.code} {f.location}: {f.message}" for f in kept
        ]

    def test_legacy_baseline_codes_migrate(self, tmp_path):
        path = tmp_path / "baseline.json"
        path.write_text(
            '{"version": 1, "accepted": ['
            '{"code": "SRC001", "file": "a.py"},'
            '{"code": "SRC002", "file": "b.py"},'
            '{"code": "DET001", "file": "c.py"}]}'
        )
        entries = load_baseline(path)
        assert [e.code for e in entries] == ["DIM010", "DIM011", "DET001"]

    def test_hot_signatures_carry_dimensions(self):
        # The paper's bandwidth math must actually be inside the checked
        # universe: spot-check that the engine infers real dimensions
        # for the hot paths, rather than silently knowing nothing.
        program = UnitsProgram.over(AnalysisContext())
        by_name = program.by_name

        def return_dim(name):
            dims = {fn.summary.return_dim for fn in by_name[name]}
            assert len(dims) == 1, f"{name} resolves ambiguously"
            return dims.pop()

        assert return_dim("transfer_time") == TIME
        assert return_dim("gemm_time") == TIME
        assert return_dim("memory_bound_time") == TIME
        assert str(return_dim("bandwidth")) == "bytes/s"
        attr_dims = program.attr_dims
        assert attr_dims["now"] == TIME
        assert attr_dims["num_bytes"] == BYTES
        assert str(attr_dims["hbm_bandwidth"]) == "bytes/s"
