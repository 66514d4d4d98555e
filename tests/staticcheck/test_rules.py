"""Per-rule fixture checks: each bad fixture trips exactly its rule.

Fixtures live under ``fixtures/`` (a directory the walker skips, so
``repro lint tests/`` stays clean) and pin their logical location with
a ``# repro: path=...`` directive, which is how they enter the rules'
path scopes from outside ``src/``.
"""

from pathlib import Path

import pytest

from repro.staticcheck import check_file

FIXTURES = Path(__file__).parent / "fixtures"


def lines_for(rule_id, violations):
    return [v.line for v in violations if v.rule == rule_id]


def check_fixture(name):
    return check_file(str(FIXTURES / name))


@pytest.mark.parametrize(
    "name, rule_id, lines",
    [
        ("rc001_bad.py", "RC001", [10, 11, 12, 13]),
        ("rc001_service_bad.py", "RC001", [8, 9]),
        ("rc002_bad.py", "RC002", [9, 10]),
        ("rc002_service_bad.py", "RC002", [9, 11, 12]),
        ("rc002_obs_bad.py", "RC002", [8, 10, 10]),
        ("rc003_bad.py", "RC003", [6, 8]),
        ("rc004_bad.py", "RC004", [1, 2]),
        ("rc005_bad.py", "RC005", [10, 12, 12, 13]),
        ("rc005_cache_bad.py", "RC005", [16, 17, 21, 21, 22, 22]),
        ("rc005_packed_bad.py", "RC005", [10, 15, 17, 22, 23]),
        ("rc006_service_bad.py", "RC006", [8, 14]),
        ("rc007_spawn_bad.py", "RC007", [6, 16, 18, 18]),
        ("rc008_shared_bad.py", "RC008", [12]),
        ("rc006_super_bad.py", "RC006", [7]),
    ],
)
def test_bad_fixture_trips_rule(name, rule_id, lines):
    violations = check_fixture(name)
    assert lines_for(rule_id, violations) == lines


@pytest.mark.parametrize(
    "name",
    [
        "rc001_good.py",
        "rc001_service_good.py",
        "rc002_good.py",
        "rc002_service_good.py",
        "rc002_obs_good.py",
        "rc003_good.py",
        "rc004_good.py",
        "rc005_good.py",
        "rc005_cache_good.py",
        "rc005_packed_good.py",
        "rc006_service_good.py",
        "rc007_spawn_good.py",
        "rc008_shared_good.py",
    ],
)
def test_good_fixture_is_clean(name):
    assert check_fixture(name) == []


@pytest.mark.parametrize(
    "name",
    [
        "rc005_packed_noqa.py",
        "rc006_service_noqa.py",
        "rc007_spawn_noqa.py",
        "rc008_shared_noqa.py",
    ],
)
def test_project_rule_noqa_fixture_is_clean(name):
    """Project-wide violations merge into the per-file stream before
    suppression filtering, so `# repro: noqa[RC00x]` silences them and
    the suppression counts as used (no RC000)."""
    assert check_fixture(name) == []


def test_rc006_transitive_message_names_the_chain():
    messages = [
        v.message
        for v in check_fixture("rc006_service_bad.py")
        if v.rule == "RC006"
    ]
    assert any("builtin open()" in m for m in messages)
    assert any("subprocess.run()" in m for m in messages)


def test_rc007_spawn_messages_name_the_hazards():
    messages = [
        v.message
        for v in check_fixture("rc007_spawn_bad.py")
        if v.rule == "RC007"
    ]
    assert any("is a lambda" in m for m in messages)
    assert any("bound method" in m for m in messages)
    assert any("both sides of a spawn boundary" in m for m in messages)


def test_rc008_message_lists_contexts_and_registry():
    (violation,) = [
        v
        for v in check_fixture("rc008_shared_bad.py")
        if v.rule == "RC008"
    ]
    assert "event_loop, thread" in violation.message
    assert "SYNCHRONIZED_QUALNAMES" in violation.message


def test_violations_carry_positions_and_messages():
    violations = check_fixture("rc001_bad.py")
    assert violations, "expected RC001 violations"
    for violation in violations:
        assert violation.rule == "RC001"
        assert violation.line > 0 and violation.column > 0
        assert "spawn_random" in violation.message
        rendered = violation.render()
        assert rendered.startswith(
            f"{violation.path}:{violation.line}:{violation.column}: RC001"
        )


def test_rc005_flags_global_rng_and_mutation():
    messages = [
        v.message for v in check_fixture("rc005_bad.py") if v.rule == "RC005"
    ]
    assert any("global _CALLS" in m for m in messages)
    assert any("random.random" in m for m in messages)
    assert any(".append" in m for m in messages)
    assert any("writes through parameter" in m for m in messages)


def test_rc005_cache_surface_exempts_self_but_not_arguments():
    """The EngineCache surface may mutate its own state, nothing else."""
    messages = [
        v.message
        for v in check_fixture("rc005_cache_bad.py")
        if v.rule == "RC005"
    ]
    assert any("global _EPOCH" in m for m in messages)
    assert any("time.time" in m for m in messages)
    assert any("random.random" in m for m in messages)
    assert any(
        ".append" in m and "parameter `result`" in m for m in messages
    )
    assert any("writes through parameter `key`" in m for m in messages)
    # The compliant fixture mutates self._data freely: no violations.
    assert check_fixture("rc005_cache_good.py") == []


def test_rc005_packed_kernel_surface_is_covered():
    """Mutating a cache-keyed RunBatch/PackedRun argument is flagged."""
    messages = [
        v.message
        for v in check_fixture("rc005_packed_bad.py")
        if v.rule == "RC005"
    ]
    assert any("writes through parameter `batch`" in m for m in messages)
    assert any("writes through parameter `parent`" in m for m in messages)
    assert any(
        ".sort" in m and "parameter `runs`" in m for m in messages
    )


def test_select_and_ignore_filter_rules():
    from repro.staticcheck import check_paths

    path = str(FIXTURES / "rc005_bad.py")
    only_rc005, _ = check_paths([path], select=["RC005"])
    assert {v.rule for v in only_rc005} == {"RC005"}
    without_rc005, _ = check_paths([path], ignore=["RC005"])
    assert "RC005" not in {v.rule for v in without_rc005}
    assert "RC001" in {v.rule for v in without_rc005}
