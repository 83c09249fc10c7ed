"""Tests for the repro.qa invariant linter (rules QA101..QA601).

Every rule id has a paired good/bad fixture tree under
``tests/qa_fixtures/``: the bad tree must produce at least one finding
of exactly that rule, the good tree none.  The shipped ``src`` tree
must lint clean end-to-end through the real CLI.
"""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from repro.qa import ALL_RULES, get_rule, lint_paths
from repro.qa.core import module_name_for

FIXTURES = Path(__file__).resolve().parent / "qa_fixtures"
REPO_ROOT = Path(__file__).resolve().parent.parent

RULE_IDS = ["QA101", "QA201", "QA301", "QA401", "QA501", "QA601", "QA701"]


def findings(path, rule_ids=None):
    return lint_paths([Path(path)], rule_ids)


def subprocess_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src")
    return env


class TestFixturePairs:
    """The core contract: every rule id is proven by a failing fixture."""

    @pytest.mark.parametrize("rule_id", RULE_IDS)
    def test_bad_fixture_fails_its_rule(self, rule_id):
        found = findings(FIXTURES / rule_id / "bad", [rule_id])
        assert found, f"bad fixture for {rule_id} produced no findings"
        assert {v.rule for v in found} == {rule_id}

    @pytest.mark.parametrize("rule_id", RULE_IDS)
    def test_good_fixture_passes_its_rule(self, rule_id):
        assert findings(FIXTURES / rule_id / "good", [rule_id]) == []

    @pytest.mark.parametrize("rule_id", RULE_IDS)
    def test_good_fixture_passes_all_rules(self, rule_id):
        assert findings(FIXTURES / rule_id / "good") == []


class TestRngDiscipline:
    def test_every_global_state_call_is_flagged(self):
        found = findings(FIXTURES / "QA101" / "bad", ["QA101"])
        assert len(found) == 4
        assert {v.line for v in found} == {10, 11, 12, 13}

    def test_aliased_from_import_resolves(self):
        # `from numpy.random import rand; rand(3)` must be caught even
        # though the call site never mentions numpy.
        found = findings(FIXTURES / "QA101" / "bad", ["QA101"])
        assert any(
            v.line == 13 and "numpy.random.rand" in v.message for v in found
        )

    def test_explicit_generators_are_allowed(self):
        assert findings(FIXTURES / "QA101" / "good", ["QA101"]) == []


class TestSuppression:
    def test_allow_comment_suppresses(self):
        assert findings(FIXTURES / "QA101" / "suppressed") == []

    def test_same_calls_fire_without_comment(self):
        # The suppressed fixture is meaningful only because identical
        # calls do fire in the bad fixture.
        assert findings(FIXTURES / "QA101" / "bad", ["QA101"])


class TestPrivacyBoundary:
    def test_top_level_and_function_local_imports(self):
        found = findings(FIXTURES / "QA201" / "bad", ["QA201"])
        assert len(found) == 2
        messages = " ".join(v.message for v in found)
        assert "repro.protocol.encoders" in messages
        assert "repro.core" in messages


    def test_ingest_module_is_server_tier(self, tmp_path):
        module = tmp_path / "src" / "repro" / "service" / "ingest.py"
        module.parent.mkdir(parents=True)
        module.write_text("from repro.protocol.encoders import Encoder\n")
        assert [v.line for v in findings(tmp_path, ["QA201"])] == [1]


class TestChargeAbsorbAtomicity:
    def test_await_inside_critical_section(self):
        found = findings(FIXTURES / "QA301" / "bad", ["QA301"])
        # The awaits between charge and absorb, between the server's
        # own absorb_shard and charge_batch, and between the ingest
        # admit and commit steps.
        assert sorted(v.line for v in found) == [7, 13, 19]

    def test_await_between_admit_and_commit(self):
        found = findings(FIXTURES / "QA301" / "bad", ["QA301"])
        [step] = [v for v in found if v.line == 19]
        assert "admit (line 18)" in step.message
        assert "commit (line 20)" in step.message

    def test_ingest_module_is_a_handler_module(self, tmp_path):
        bad = FIXTURES / "QA301" / "bad" / "src" / "repro" / "service"
        module = tmp_path / "src" / "repro" / "service" / "ingest.py"
        module.parent.mkdir(parents=True)
        module.write_text((bad / "server.py").read_text())
        found = findings(tmp_path, ["QA301"])
        assert sorted(v.line for v in found) == [7, 13, 19]

    def test_awaits_outside_critical_section_pass(self):
        assert findings(FIXTURES / "QA301" / "good", ["QA301"]) == []


class TestSnapshotCompleteness:
    def test_missing_method_and_dropped_statistic(self):
        found = findings(FIXTURES / "QA401" / "bad", ["QA401"])
        messages = [v.message for v in found]
        assert len(found) == 2
        assert any("load_state" in m for m in messages)
        assert any("_hidden" in m for m in messages)

    def test_inherited_surface_counts(self):
        # ScaledCounterAccumulator implements nothing itself; the
        # parent's _parse/_fold/merge/state_dict/load_state must
        # satisfy it.
        assert findings(FIXTURES / "QA401" / "good", ["QA401"]) == []

    def test_parse_and_fold_are_the_required_surface(self, tmp_path):
        # The root derives absorb from _parse/_fold, so an accumulator
        # without _fold is incomplete even though it defines absorb.
        good = FIXTURES / "QA401" / "good" / "accumulators.py"
        (tmp_path / "accumulators.py").write_text(
            good.read_text().replace("def _fold(", "def absorb(")
        )
        found = findings(tmp_path, ["QA401"])
        assert len(found) == 2  # both concrete classes lack _fold
        assert all("_fold()" in v.message for v in found)


class TestWireCodecExhaustiveness:
    def test_orphan_container_flagged_on_every_leg(self):
        found = findings(FIXTURES / "QA501" / "bad", ["QA501"])
        orphan = [v for v in found if "OrphanReports" in v.message]
        assert len(orphan) == 3
        joined = " ".join(v.message for v in orphan)
        assert "encode_reports" in joined
        assert "decode_reports" in joined
        assert "to_block" in joined

    def test_v1_only_container_flagged_on_columnar_path(self):
        # HalfWiredReports has v1 JSON entries but no to_block(): only
        # the conversion leg must flag it.
        found = findings(FIXTURES / "QA501" / "bad", ["QA501"])
        half = [v for v in found if "HalfWiredReports" in v.message]
        assert len(half) == 1
        assert "to_block" in half[0].message
        assert "encode_reports" not in half[0].message

    def test_container_outside_reports_module_is_found(self):
        # BlockOnlyReports lives in frequency/olh.py; its to_block()
        # makes it a container, so a missing v1 codec entry is flagged.
        found = findings(FIXTURES / "QA501" / "bad", ["QA501"])
        block_only = [v for v in found if "BlockOnlyReports" in v.message]
        assert len(block_only) == 2
        assert all(v.path.endswith("olh.py") for v in block_only)

    def test_conversion_must_dispatch_through_to_block(self, tmp_path):
        shutil.copytree(FIXTURES / "QA501" / "good", tmp_path / "tree")
        reports = tmp_path / "tree/src/repro/protocol/reports.py"
        reports.write_text(
            reports.read_text().replace(
                "return batch.to_block()", "return ColumnBlock()"
            )
        )
        found = findings(tmp_path / "tree", ["QA501"])
        assert len(found) == 1
        assert "no longer dispatches" in found[0].message

    def test_registered_container_passes(self):
        # The good tree also defines the ColumnBlock carrier, which is
        # exempt — it is the columnar wire form, not a container.
        assert findings(FIXTURES / "QA501" / "good", ["QA501"]) == []


class TestExceptionHygiene:
    def test_bare_and_swallowed_blanket(self):
        found = findings(FIXTURES / "QA601" / "bad", ["QA601"])
        assert len(found) == 2
        joined = " ".join(v.message for v in found)
        assert "bare except" in joined
        assert "blanket except" in joined

    def test_narrow_pass_and_handled_blanket_are_fine(self):
        assert findings(FIXTURES / "QA601" / "good", ["QA601"]) == []


class TestLoggingDiscipline:
    def test_print_and_basicconfig_flagged(self):
        found = findings(FIXTURES / "QA701" / "bad", ["QA701"])
        assert len(found) == 3
        joined = " ".join(v.message for v in found)
        assert "print()" in joined
        assert "basicConfig" in joined

    def test_guarded_script_and_dunder_main_are_exempt(self):
        # good/ holds a clean library module AND two entrypoint shapes
        # (an `if __name__ == "__main__"` script, a __main__.py) that
        # print and call basicConfig — exempt wholesale.
        assert findings(FIXTURES / "QA701" / "good", ["QA701"]) == []

    def test_good_tree_passes_every_rule(self):
        assert findings(FIXTURES / "QA701" / "good") == []

    def test_allow_comment_suppresses(self):
        assert findings(FIXTURES / "QA701" / "suppressed") == []


class TestModuleNames:
    def test_fixture_mini_tree_maps_like_the_real_tree(self):
        path = FIXTURES / "QA301" / "bad" / "src" / "repro" / "service" / "server.py"
        assert module_name_for(path) == "repro.service.server"

    def test_package_init_drops_the_suffix(self):
        assert (
            module_name_for(Path("src/repro/protocol/__init__.py"))
            == "repro.protocol"
        )

    def test_paths_without_src_or_repro_keep_their_shape(self):
        assert module_name_for(Path("scratch/foo.py")) == "scratch.foo"


class TestParseErrors:
    def test_unparseable_file_becomes_qa000(self, tmp_path):
        broken = tmp_path / "broken.py"
        broken.write_text("def broken(:\n")
        found = findings(tmp_path)
        assert len(found) == 1
        assert found[0].rule == "QA000"
        assert "could not parse" in found[0].message


class TestRegistry:
    def test_rule_ids_are_exactly_the_documented_set(self):
        assert [rule.id for rule in ALL_RULES] == RULE_IDS

    def test_get_rule_round_trips(self):
        for rule_id in RULE_IDS:
            assert get_rule(rule_id).id == rule_id

    def test_get_rule_unknown_id(self):
        with pytest.raises(KeyError):
            get_rule("QA999")


class TestCli:
    def run_cli(self, *args):
        return subprocess.run(
            [sys.executable, "-m", "repro.qa.lint", *args],
            cwd=REPO_ROOT,
            env=subprocess_env(),
            capture_output=True,
            text=True,
        )

    def test_bad_fixture_exits_nonzero(self):
        result = self.run_cli(str(FIXTURES / "QA101" / "bad"))
        assert result.returncode == 1
        assert "FAIL:" in result.stdout
        assert "QA101" in result.stdout

    def test_good_fixture_exits_zero(self):
        result = self.run_cli(str(FIXTURES / "QA101" / "good"))
        assert result.returncode == 0
        assert "OK: 0 violations" in result.stdout

    def test_rule_filter_restricts_the_run(self):
        result = self.run_cli(
            "--rule", "QA601", str(FIXTURES / "QA101" / "bad")
        )
        assert result.returncode == 0

    def test_unknown_rule_id_is_a_usage_error(self):
        result = self.run_cli("--rule", "QA999", "src")
        assert result.returncode == 2
        assert "unknown rule ids" in result.stderr

    def test_missing_path_is_a_usage_error(self):
        result = self.run_cli("does/not/exist")
        assert result.returncode == 2

    def test_list_rules(self):
        result = self.run_cli("--list-rules")
        assert result.returncode == 0
        for rule_id in RULE_IDS:
            assert rule_id in result.stdout

    def test_json_output_shape(self):
        result = self.run_cli(
            "--format", "json", str(FIXTURES / "QA101" / "bad")
        )
        assert result.returncode == 1
        payload = json.loads(result.stdout)
        assert payload["version"] == 1
        assert payload["checked_files"] == 1
        assert [r["id"] for r in payload["rules"]] == RULE_IDS
        assert payload["violations"]
        assert set(payload["violations"][0]) == {
            "rule", "path", "line", "col", "message",
        }

    def test_package_alias_entry_point(self):
        result = subprocess.run(
            [sys.executable, "-m", "repro.qa", "--list-rules"],
            cwd=REPO_ROOT,
            env=subprocess_env(),
            capture_output=True,
            text=True,
        )
        assert result.returncode == 0
        assert "QA101" in result.stdout


class TestShippedTree:
    def test_src_lints_clean(self):
        result = subprocess.run(
            [sys.executable, "-m", "repro.qa.lint", "src"],
            cwd=REPO_ROOT,
            env=subprocess_env(),
            capture_output=True,
            text=True,
        )
        assert result.returncode == 0, result.stdout + result.stderr
        assert "OK: 0 violations" in result.stdout

    def test_mypy_scoped_packages_clean(self):
        pytest.importorskip("mypy")
        result = subprocess.run(
            [
                sys.executable,
                "-m",
                "mypy",
                "--config-file",
                "mypy.ini",
                "-p",
                "repro.protocol",
                "-p",
                "repro.runtime",
            ],
            cwd=REPO_ROOT,
            env=subprocess_env(),
            capture_output=True,
            text=True,
        )
        assert result.returncode == 0, result.stdout + result.stderr
