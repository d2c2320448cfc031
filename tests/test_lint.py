"""Tests for the ``repro lint`` invariant checker.

Covers the four required surfaces: per-rule fixture twins (each rule
fires on its seeded violation and stays quiet on the compliant twin),
suppression parsing, the JSON report schema, and the tree-wide "zero
unsuppressed findings" gate that keeps the repo itself honest.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

from repro.lint import (
    Finding,
    SourceFile,
    all_rule_ids,
    default_rules,
    iter_python_files,
    run_lint,
)
from repro.lint.cli import main as lint_main
from repro.lint.model import parse_suppression_comment
from repro.lint.rules import (
    CacheVersionKeyRule,
    EnvMirrorRule,
    FloatFoldRule,
    JournalHookRule,
    KernelOwnershipRule,
    KnobFlowRule,
    KnobProtocolRule,
    RngDisciplineRule,
    SuppressionStaleRule,
)

REPO_ROOT = Path(__file__).resolve().parents[1]
FIXTURES = Path(__file__).resolve().parent / "fixtures" / "lint"

KNOWN = set(all_rule_ids())


def _lint_fixture(rules, twin_dir):
    """Run one or more rules over one fixture twin directory."""
    if not isinstance(rules, (list, tuple)):
        rules = [rules]
    report = run_lint([str(twin_dir)], rules=list(rules))
    return report


# ----------------------------------------------------------------------
# Per-rule fixture twins
# ----------------------------------------------------------------------
# Each entry: (fixture dir, rule whose findings are expected, the rule
# set to run — suppression-stale needs its partner rule active to judge
# which suppressions still absorb findings).  The fixture paths contain
# "tests" and "fixtures" components, which the project-scoped rules
# exclude by default — lift the exclusion here.
RULE_FIXTURES = [
    ("float_fold", "float-fold", lambda: [FloatFoldRule()]),
    ("rng_discipline", "rng-discipline", lambda: [RngDisciplineRule()]),
    ("env_mirror", "env-mirror", lambda: [EnvMirrorRule()]),
    ("kernel_ownership", "kernel-ownership", lambda: [KernelOwnershipRule()]),
    ("knob_protocol", "knob-protocol", lambda: [KnobProtocolRule(exclude_parts=())]),
    ("knob_flow", "knob-flow", lambda: [KnobFlowRule(exclude_parts=())]),
    (
        "cache_version_key",
        "cache-version-key",
        lambda: [CacheVersionKeyRule(exclude_parts=())],
    ),
    ("journal_hook", "journal-hook", lambda: [JournalHookRule(exclude_parts=())]),
    (
        "suppression_stale",
        "suppression-stale",
        lambda: [FloatFoldRule(), SuppressionStaleRule()],
    ),
]


class TestRuleFixtures:
    @pytest.mark.parametrize("name,rule_id,factory", RULE_FIXTURES)
    def test_fires_on_violation(self, name, rule_id, factory):
        report = _lint_fixture(factory(), FIXTURES / name / "violation")
        assert report.findings, f"{rule_id} missed its seeded violation"
        assert all(f.rule == rule_id for f in report.findings)

    @pytest.mark.parametrize("name,rule_id,factory", RULE_FIXTURES)
    def test_quiet_on_compliant(self, name, rule_id, factory):
        report = _lint_fixture(factory(), FIXTURES / name / "compliant")
        assert report.findings == [], [f.format() for f in report.findings]

    def test_float_fold_counts(self):
        report = _lint_fixture(FloatFoldRule(), FIXTURES / "float_fold" / "violation")
        # .sum(), np.sum, math.fsum, builtin sum — one finding each.
        assert len(report.findings) == 4

    def test_float_fold_compliant_suppression_is_recorded(self):
        report = _lint_fixture(FloatFoldRule(), FIXTURES / "float_fold" / "compliant")
        assert len(report.suppressed) == 1
        assert report.suppressed[0].rule == "float-fold"

    def test_env_mirror_flags_every_write_kind(self):
        report = _lint_fixture(EnvMirrorRule(), FIXTURES / "env_mirror" / "violation")
        # subscript assign, del, pop, update, putenv.
        assert len(report.findings) == 5

    def test_kernel_ownership_flags_import_loop_and_attribute(self):
        report = _lint_fixture(
            KernelOwnershipRule(), FIXTURES / "kernel_ownership" / "violation"
        )
        lines = sorted(f.line for f in report.findings)
        # private import, the while-frontier loop, and the attribute use.
        assert len(lines) == 3

    def test_knob_protocol_flags_each_read_around_the_table(self):
        report = _lint_fixture(
            KnobProtocolRule(exclude_parts=()),
            FIXTURES / "knob_protocol" / "violation",
        )
        messages = [f.message for f in sorted(report.findings, key=Finding.sort_key)]
        # The declaration, the literal read, the *_ENV_VAR-keyed read.
        assert len(messages) == 3
        assert messages[0].startswith("names REPRO_FROB outside the knob table")
        assert messages[1].startswith("names REPRO_FROB")
        assert messages[2].startswith("reads FROB_ENV_VAR")
        assert all("repro/knobs.py" in message for message in messages)

    def test_float_fold_ignores_non_kernel_modules(self):
        source = SourceFile("pkg/analysis.py", "total = values.sum()\n", KNOWN)
        assert FloatFoldRule().check_file(source) == []

    def test_knob_flow_names_caller_callee_and_knob(self):
        report = _lint_fixture(
            [KnobFlowRule(exclude_parts=())], FIXTURES / "knob_flow" / "violation"
        )
        assert len(report.findings) == 1
        message = report.findings[0].message
        assert "run_experiment()" in message
        assert "helper()" in message
        assert "forward frob=frob" in message

    def test_cache_version_key_flags_both_contract_halves(self):
        report = _lint_fixture(
            [CacheVersionKeyRule(exclude_parts=())],
            FIXTURES / "cache_version_key" / "violation",
        )
        messages = sorted(f.message for f in report.findings)
        # One unfenced Graph-keyed store, one backend-less key tuple.
        assert len(messages) == 2
        assert "never reads ._version" in messages[0]
        assert "omits its 'backend' parameter" in messages[1]

    def test_journal_hook_flags_each_protocol_miss(self):
        report = _lint_fixture(
            [JournalHookRule(exclude_parts=())],
            FIXTURES / "journal_hook" / "violation",
        )
        messages = [f.message for f in sorted(report.findings, key=Finding.sort_key)]
        # add_edge misses both halves, remove_edge only the journal,
        # sneak_edge mutates a foreign ._adj.
        assert len(messages) == 3
        assert "bump self._version" in messages[0]
        assert "bump self._version" not in messages[1]
        assert "self._journal.record" in messages[1]
        assert "another object's ._adj" in messages[2]

    def test_suppression_stale_quotes_the_audited_reason(self):
        report = _lint_fixture(
            [FloatFoldRule(), SuppressionStaleRule()],
            FIXTURES / "suppression_stale" / "violation",
        )
        assert len(report.findings) == 1
        assert "order-pinned float fold" in report.findings[0].message

    def test_suppression_stale_skips_rules_that_did_not_run(self):
        # Without float-fold active nothing judges the suppression, so
        # staleness must not be inferred.
        report = _lint_fixture(
            [SuppressionStaleRule()], FIXTURES / "suppression_stale" / "violation"
        )
        assert report.findings == []

    def test_live_suppression_is_recorded_not_stale(self):
        report = _lint_fixture(
            [FloatFoldRule(), SuppressionStaleRule()],
            FIXTURES / "suppression_stale" / "compliant",
        )
        assert report.findings == []
        assert [f.rule for f in report.suppressed] == ["float-fold"]


# ----------------------------------------------------------------------
# Suppression parsing
# ----------------------------------------------------------------------
class TestSuppressionParsing:
    @pytest.mark.parametrize(
        "comment",
        [
            "# repro-lint: disable=float-fold — audited reason",
            "# repro-lint: disable=float-fold -- audited reason",
            "# repro-lint: disable=float-fold: audited reason",
        ],
    )
    def test_separators(self, comment):
        suppression, bad = parse_suppression_comment("f.py", 3, comment, KNOWN)
        assert bad is None
        assert suppression.rules == ("float-fold",)
        assert suppression.reason == "audited reason"

    def test_multiple_rules(self):
        suppression, bad = parse_suppression_comment(
            "f.py", 1, "# repro-lint: disable=float-fold,rng-discipline — both", KNOWN
        )
        assert bad is None
        assert suppression.rules == ("float-fold", "rng-discipline")

    def test_ordinary_comment_is_ignored(self):
        suppression, bad = parse_suppression_comment("f.py", 1, "# just a note", KNOWN)
        assert suppression is None and bad is None

    @pytest.mark.parametrize(
        "comment,fragment",
        [
            ("# repro-lint: disable=float-fold", "reason"),
            ("# repro-lint: disable=float-fold — ", "reason"),
            ("# repro-lint: enable=float-fold — x", "malformed"),
            ("# repro-lint: disable=no-such-rule — x", "unknown rule"),
            ("# repro-lint: disable=bad-suppression — x", "cannot be suppressed"),
            ("# repro-lint: disable= — x", "no rule IDs"),
        ],
    )
    def test_malformed_suppressions(self, comment, fragment):
        suppression, bad = parse_suppression_comment("f.py", 2, comment, KNOWN)
        assert suppression is None
        assert bad is not None and bad.rule == "bad-suppression"
        assert fragment in bad.message

    def test_inline_suppression_covers_its_line(self):
        text = "total = data.sum()  # repro-lint: disable=float-fold — audited: ok\n"
        source = SourceFile("graphs/csr.py", text, KNOWN)
        findings = FloatFoldRule().check_file(source)
        assert len(findings) == 1
        assert source.is_suppressed(findings[0]) is not None

    def test_standalone_suppression_covers_next_line(self):
        text = (
            "# repro-lint: disable=float-fold — audited: ok\n"
            "total = data.sum()\n"
        )
        source = SourceFile("graphs/csr.py", text, KNOWN)
        findings = FloatFoldRule().check_file(source)
        assert len(findings) == 1
        assert source.is_suppressed(findings[0]) is not None

    def test_suppression_does_not_leak_to_other_lines(self):
        text = (
            "total = data.sum()  # repro-lint: disable=float-fold — audited: ok\n"
            "other = data.sum()\n"
        )
        source = SourceFile("graphs/csr.py", text, KNOWN)
        report_lines = {
            finding.line: source.is_suppressed(finding)
            for finding in FloatFoldRule().check_file(source)
        }
        assert report_lines[1] is not None
        assert report_lines[2] is None

    def test_suppression_only_covers_listed_rules(self):
        text = "total = data.sum()  # repro-lint: disable=rng-discipline — wrong rule\n"
        source = SourceFile("graphs/csr.py", text, KNOWN)
        findings = FloatFoldRule().check_file(source)
        assert source.is_suppressed(findings[0]) is None

    def test_bad_suppression_is_a_finding_and_unsuppressable(self):
        text = "x = 1  # repro-lint: disable=float-fold\n"
        source = SourceFile("f.py", text, KNOWN)
        assert len(source.meta_findings) == 1
        finding = source.meta_findings[0]
        assert finding.rule == "bad-suppression"
        assert source.is_suppressed(finding) is None

    def test_marker_inside_string_literal_is_ignored(self):
        text = 'doc = "# repro-lint: disable=float-fold"\n'
        source = SourceFile("f.py", text, KNOWN)
        assert source.meta_findings == []
        assert source.suppressions == {}


# ----------------------------------------------------------------------
# Engine, report schema, CLI
# ----------------------------------------------------------------------
class TestEngineAndReport:
    def test_parse_error_is_a_finding(self, tmp_path):
        bad = tmp_path / "broken.py"
        bad.write_text("def broken(:\n")
        report = run_lint([str(bad)])
        assert len(report.findings) == 1
        assert report.findings[0].rule == "parse-error"

    def test_missing_path_is_a_usage_error(self):
        from repro.lint import LintUsageError

        with pytest.raises(LintUsageError):
            iter_python_files(["no/such/path"])

    def test_walk_skips_fixture_directories(self, tmp_path):
        (tmp_path / "fixtures").mkdir()
        (tmp_path / "fixtures" / "seeded.py").write_text("x = 1\n")
        (tmp_path / "real.py").write_text("y = 2\n")
        files = iter_python_files([str(tmp_path)])
        assert [Path(f).name for f in files] == ["real.py"]

    def test_explicit_file_path_is_always_linted(self):
        target = FIXTURES / "rng_discipline" / "violation" / "sampler.py"
        report = run_lint([str(target)], rules=[RngDisciplineRule()])
        assert report.findings

    def test_json_schema(self):
        report = run_lint(
            [str(FIXTURES / "float_fold" / "violation")], rules=[FloatFoldRule()]
        )
        payload = report.to_dict()
        assert payload["version"] == 1
        summary = payload["summary"]
        assert set(summary) == {
            "files",
            "findings",
            "suppressed",
            "baselined",
            "stale_baseline",
            "rule_timings",
        }
        assert summary["files"] == 1
        assert summary["findings"] == len(report.findings)
        assert summary["suppressed"] == 0
        assert summary["baselined"] == 0
        assert summary["stale_baseline"] == 0
        assert [rule["id"] for rule in payload["rules"]] == ["float-fold"]
        for finding in payload["findings"]:
            assert set(finding) == {"rule", "path", "line", "col", "message"}
            assert isinstance(finding["line"], int)
            json.dumps(finding)  # every field is JSON-serialisable

    def test_json_summary_times_every_rule_that_ran(self):
        report = run_lint([str(FIXTURES / "float_fold" / "violation")])
        timings = report.to_dict()["summary"]["rule_timings"]
        assert set(timings) == {rule.rule_id for rule in default_rules()}
        assert all(
            isinstance(seconds, float) and seconds >= 0.0
            for seconds in timings.values()
        )

    def test_select_rules_filters_and_rejects_unknown(self):
        from repro.lint import LintUsageError, select_rules

        ids = [rule.rule_id for rule in select_rules(["float-fold", "knob-flow"])]
        assert ids == ["float-fold", "knob-flow"]
        assert len(select_rules(None)) == len(default_rules())
        with pytest.raises(LintUsageError, match="no-such-rule"):
            select_rules(["no-such-rule"])

    def test_filtered_run_keeps_foreign_suppressions_valid(self):
        # A --rules pass that skips float-fold must not reclassify the
        # fixture's float-fold suppression as an unknown-rule
        # bad-suppression.
        report = run_lint(
            [str(FIXTURES / "float_fold" / "compliant")],
            rules=[RngDisciplineRule()],
        )
        assert report.findings == []

    def test_findings_sorted_and_deterministic(self):
        paths = [str(FIXTURES / "env_mirror" / "violation")]
        first = run_lint(paths, rules=[EnvMirrorRule()])
        second = run_lint(paths, rules=[EnvMirrorRule()])
        keys = [f.sort_key() for f in first.findings]
        assert keys == sorted(keys)
        assert keys == [f.sort_key() for f in second.findings]

    def test_all_rule_ids_include_meta(self):
        ids = all_rule_ids()
        assert "parse-error" in ids and "bad-suppression" in ids
        for rule in default_rules():
            assert rule.rule_id in ids
            assert rule.description

    def test_finding_format(self):
        finding = Finding("float-fold", "a.py", 3, 7, "msg")
        assert finding.format() == "a.py:3:7: float-fold: msg"


# ----------------------------------------------------------------------
# The baseline ratchet
# ----------------------------------------------------------------------
class TestBaseline:
    def _violation_findings(self):
        report = run_lint(
            [str(FIXTURES / "float_fold" / "violation")], rules=[FloatFoldRule()]
        )
        return report.findings

    def test_roundtrip_baselines_known_findings(self, tmp_path):
        from repro.lint import load_baseline, save_baseline

        baseline_file = tmp_path / "baseline.json"
        save_baseline(str(baseline_file), self._violation_findings())
        entries = load_baseline(str(baseline_file))
        report = run_lint(
            [str(FIXTURES / "float_fold" / "violation")],
            rules=[FloatFoldRule()],
            baseline=entries,
        )
        assert report.findings == []
        assert len(report.baselined) == len(entries)
        assert report.stale_baseline == []

    def test_new_findings_are_not_absorbed(self):
        from repro.lint import finding_entry

        findings = self._violation_findings()
        entries = [finding_entry(f) for f in findings[:-1]]
        report = run_lint(
            [str(FIXTURES / "float_fold" / "violation")],
            rules=[FloatFoldRule()],
            baseline=entries,
        )
        assert len(report.findings) == 1
        assert not report.ok

    def test_fixed_findings_leave_stale_entries(self):
        from repro.lint import finding_entry

        entries = [finding_entry(f) for f in self._violation_findings()]
        report = run_lint(
            [str(FIXTURES / "float_fold" / "compliant")],
            rules=[FloatFoldRule()],
            baseline=entries,
        )
        assert report.findings == []
        assert len(report.stale_baseline) == len(entries)

    def test_matching_ignores_line_numbers(self):
        from repro.lint import finding_entry, partition_against_baseline

        finding = Finding("float-fold", "graphs/csr.py", 10, 4, "msg")
        moved = Finding("float-fold", "graphs/csr.py", 99, 0, "msg")
        new, baselined, stale = partition_against_baseline(
            [moved], [finding_entry(finding)]
        )
        assert new == [] and baselined == [moved] and stale == []

    def test_matching_is_multiset_aware(self):
        from repro.lint import finding_entry, partition_against_baseline

        finding = Finding("float-fold", "graphs/csr.py", 10, 4, "msg")
        twin = Finding("float-fold", "graphs/csr.py", 20, 4, "msg")
        # Two identical-keyed findings against one budgeted entry: one
        # absorbed, one new.
        new, baselined, stale = partition_against_baseline(
            [finding, twin], [finding_entry(finding)]
        )
        assert len(new) == 1 and len(baselined) == 1 and stale == []

    def test_load_rejects_malformed_files(self, tmp_path):
        from repro.lint import LintUsageError, load_baseline

        missing = tmp_path / "missing.json"
        with pytest.raises(LintUsageError, match="not found"):
            load_baseline(str(missing))
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        with pytest.raises(LintUsageError, match="not valid JSON"):
            load_baseline(str(bad))
        wrong = tmp_path / "wrong.json"
        wrong.write_text(json.dumps({"version": 2, "findings": []}))
        with pytest.raises(LintUsageError, match="version-1"):
            load_baseline(str(wrong))

    def test_committed_baseline_is_empty_and_loadable(self):
        from repro.lint import load_baseline

        assert load_baseline(str(REPO_ROOT / "lint-baseline.json")) == []


class TestCli:
    def test_exit_zero_on_clean_tree(self, capsys):
        code = lint_main([str(FIXTURES / "float_fold" / "compliant")])
        assert code == 0
        out = capsys.readouterr().out
        assert "0 finding(s), 1 suppressed" in out

    def test_exit_one_on_findings(self, capsys):
        code = lint_main([str(FIXTURES / "float_fold" / "violation")])
        assert code == 1
        out = capsys.readouterr().out
        assert "float-fold" in out

    def test_exit_two_on_bad_path(self, capsys):
        code = lint_main(["no/such/path"])
        assert code == 2
        assert "no such file" in capsys.readouterr().err

    def test_json_output(self, capsys):
        code = lint_main(
            ["--format", "json", str(FIXTURES / "rng_discipline" / "violation")]
        )
        assert code == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["version"] == 1
        assert payload["summary"]["findings"] == len(payload["findings"])
        assert {f["rule"] for f in payload["findings"]} == {"rng-discipline"}

    def test_list_rules(self, capsys):
        assert lint_main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule in default_rules():
            assert rule.rule_id in out

    def test_rules_filter_runs_only_selected(self, capsys):
        code = lint_main(
            [
                "--rules",
                "rng-discipline",
                "--format",
                "json",
                str(FIXTURES / "float_fold" / "violation"),
            ]
        )
        assert code == 0  # the float-fold violations are not judged
        payload = json.loads(capsys.readouterr().out)
        assert [rule["id"] for rule in payload["rules"]] == ["rng-discipline"]
        assert set(payload["summary"]["rule_timings"]) == {"rng-discipline"}

    def test_unknown_rule_filter_is_a_usage_error(self, capsys):
        code = lint_main(["--rules", "no-such-rule", str(FIXTURES)])
        assert code == 2
        err = capsys.readouterr().err
        assert "no-such-rule" in err and "known rules" in err

    def test_baseline_flow(self, tmp_path, capsys):
        violation = str(FIXTURES / "float_fold" / "violation")
        compliant = str(FIXTURES / "float_fold" / "compliant")
        baseline = str(tmp_path / "baseline.json")
        # 1. Capture the known findings.
        assert lint_main(
            ["--rules", "float-fold", "--baseline", baseline, "--update-baseline",
             violation]
        ) == 0
        capsys.readouterr()
        # 2. Same tree + baseline: known findings pass, reported as baselined.
        code = lint_main(["--rules", "float-fold", "--baseline", baseline, violation])
        assert code == 0
        assert "baselined" in capsys.readouterr().out
        # 3. Fixed tree: entries are stale — fine by default, fatal with
        #    the ratchet flag.
        assert lint_main(
            ["--rules", "float-fold", "--baseline", baseline, compliant]
        ) == 0
        capsys.readouterr()
        code = lint_main(
            ["--rules", "float-fold", "--baseline", baseline,
             "--fail-on-stale-baseline", compliant]
        )
        assert code == 1
        assert "stale" in capsys.readouterr().out

    def test_update_baseline_requires_a_file(self, capsys):
        code = lint_main(["--update-baseline", str(FIXTURES / "float_fold")])
        assert code == 2
        assert "--baseline" in capsys.readouterr().err

    def test_repro_lint_subcommand(self, capsys):
        from repro.cli import main as repro_main

        code = repro_main(["lint", str(FIXTURES / "float_fold" / "compliant")])
        assert code == 0

    def test_module_entry_point(self):
        result = subprocess.run(
            [
                sys.executable,
                "-m",
                "repro.lint",
                str(FIXTURES / "knob_protocol" / "violation"),
            ],
            capture_output=True,
            text=True,
            cwd=str(REPO_ROOT),
        )
        # The knob rule excludes these paths by default, but the meta
        # pass still runs — what matters here is the entry point works
        # and exits by the findings contract.
        assert result.returncode in (0, 1)
        assert "file(s) checked" in result.stdout


# ----------------------------------------------------------------------
# The repo gates on itself
# ----------------------------------------------------------------------
class TestTreeWideGate:
    def test_zero_unsuppressed_findings(self):
        report = run_lint(
            [
                str(REPO_ROOT / "src"),
                str(REPO_ROOT / "tests"),
                str(REPO_ROOT / "benchmarks"),
            ]
        )
        assert report.findings == [], "\n".join(
            finding.format() for finding in report.findings
        )

    def test_every_tree_suppression_carries_a_reason(self):
        # The parser enforces this (a reasonless marker is a
        # bad-suppression finding), so a clean gate implies reasons
        # exist; assert the suppressed set is non-empty and audited to
        # keep the contract visible.
        report = run_lint([str(REPO_ROOT / "src"), str(REPO_ROOT / "tests")])
        assert report.findings == []
        assert report.suppressed, "expected the audited float-fold/kernel sites"
