"""Model registry: immutable store, lifecycle, integrity, guard, CLI.

Also hosts the artifact-integrity satellites: ``SupernovaPipeline.load``
naming the offending *file* on an architecture mismatch, the terminal
``cli.error`` event carrying that path, ``DriftBaseline.load`` raising
on malformed JSON, and the ``serve.no_drift_baseline`` warning.
"""

import json
import math
import os

import pytest

from repro import obs
from repro.cli import EXIT_BAD_INPUT, EXIT_CORRUPT_ARTIFACT, main
from repro.core import SupernovaPipeline
from repro.obs import EVENTS_FILE, read_events
from repro.obs.drift import BASELINE_FILE, DriftBaseline
from repro.registry import (
    GuardConfig,
    ModelRegistry,
    RegistryError,
    RollbackGuard,
    STATUS_PRODUCTION,
    STATUS_REGISTERED,
    STATUS_RETIRED,
    STATUS_ROLLED_BACK,
    STATUS_SHADOW,
)
from repro.runtime import CorruptArtifactError, atomic_write_json, file_sha256
from repro.serve import InferenceEngine

from .helpers import make_serve_engine

pytestmark = pytest.mark.registry


@pytest.fixture(scope="module")
def model_dir(tmp_path_factory):
    """One saved model directory, shared read-only by every test."""
    directory = tmp_path_factory.mktemp("model")
    make_serve_engine(seed=0).save(str(directory))
    return directory


@pytest.fixture()
def registry(tmp_path):
    return ModelRegistry(tmp_path / "registry")


def _corrupt(path) -> None:
    """Flip the leading bytes of a pinned file."""
    with open(path, "r+b") as handle:
        handle.write(b"\xde\xad\xbe\xef")


class TestAtomicIO:
    def test_atomic_write_json_replaces_whole_document(self, tmp_path):
        target = tmp_path / "state.json"
        atomic_write_json(target, {"a": 1})
        atomic_write_json(target, {"b": 2})
        assert json.loads(target.read_text()) == {"b": 2}
        # No stray temp files left behind.
        assert os.listdir(tmp_path) == ["state.json"]

    def test_file_sha256_matches_content(self, tmp_path):
        target = tmp_path / "blob"
        target.write_bytes(b"supernova")
        import hashlib

        assert file_sha256(target) == hashlib.sha256(b"supernova").hexdigest()


class TestStoreLifecycle:
    def test_register_assigns_versions_and_pins_checksums(self, registry, model_dir):
        assert registry.register(model_dir) == "v1"
        assert registry.register(model_dir, note="retrain") == "v2"
        state = registry.state()
        assert state["next_version"] == 3
        record = state["versions"]["v1"]
        assert record["status"] == STATUS_REGISTERED
        assert set(record["files"]) == set(os.listdir(registry.path("v1")))
        for name, digest in record["files"].items():
            assert file_sha256(os.path.join(registry.path("v1"), name)) == digest
        assert state["versions"]["v2"]["note"] == "retrain"
        assert [entry["action"] for entry in registry.history()] == [
            "register", "register",
        ]

    def test_register_refuses_non_model_directory(self, registry, tmp_path):
        empty = tmp_path / "not-a-model"
        empty.mkdir()
        with pytest.raises(RegistryError, match="manifest.json"):
            registry.register(empty)

    def test_promote_demotes_previous_production(self, registry, model_dir):
        registry.register(model_dir)
        registry.register(model_dir)
        assert registry.promote("v1") == (None, "v1")
        assert registry.promote("v2") == ("v1", "v2")
        state = registry.state()
        assert state["production"] == "v2"
        assert state["versions"]["v1"]["status"] == STATUS_RETIRED
        assert "retired_at" in state["versions"]["v1"]
        with pytest.raises(RegistryError, match="already production"):
            registry.promote("v2")

    def test_shadow_then_promote_clears_candidate(self, registry, model_dir):
        registry.register(model_dir)
        registry.register(model_dir)
        registry.promote("v1")
        assert registry.shadow("v2") == "v2"
        state = registry.state()
        assert state["candidate"] == "v2"
        assert state["versions"]["v2"]["status"] == STATUS_SHADOW
        with pytest.raises(RegistryError, match="already production"):
            registry.shadow("v1")
        registry.promote("v2")
        state = registry.state()
        assert state["candidate"] is None
        assert state["versions"]["v2"]["status"] == STATUS_PRODUCTION

    def test_rollback_quarantines_and_restores_last_good(self, registry, model_dir):
        for _ in range(3):
            registry.register(model_dir)
        registry.promote("v1")
        registry.promote("v2")
        registry.promote("v3")
        # v2 retired most recently: rollback must restore it, not v1.
        bad, restored = registry.rollback(reason="scores diverged")
        assert (bad, restored) == ("v3", "v2")
        state = registry.state()
        assert state["production"] == "v2"
        bad_record = state["versions"]["v3"]
        assert bad_record["status"] == STATUS_ROLLED_BACK
        assert bad_record["reason"] == "scores diverged"
        assert "rolled_back_at" in bad_record
        # The quarantined version is refused by promote without force...
        with pytest.raises(RegistryError, match="rolled back"):
            registry.promote("v3")
        with pytest.raises(RegistryError, match="rolled back"):
            registry.shadow("v3")
        # ...and accepted with it (operator override).
        assert registry.promote("v3", force=True) == ("v2", "v3")

    def test_rollback_without_history_is_refused(self, registry, model_dir):
        with pytest.raises(RegistryError, match="no production"):
            registry.rollback()
        registry.register(model_dir)
        registry.promote("v1")
        with pytest.raises(RegistryError, match="no previous good version"):
            registry.rollback()

    def test_rollback_of_an_unexpected_production_is_refused(
        self, registry, model_dir
    ):
        for _ in range(3):
            registry.register(model_dir)
        registry.promote("v1")
        registry.promote("v2")
        registry.promote("v3")
        with open(registry.state_path, "rb") as handle:
            before = handle.read()
        with pytest.raises(RegistryError, match="production is v3, not v2"):
            registry.rollback(reason="drift", expected="v2")
        with open(registry.state_path, "rb") as handle:
            assert handle.read() == before
        assert registry.rollback(expected="v3") == ("v3", "v2")

    def test_quarantine_candidate(self, registry, model_dir):
        registry.register(model_dir)
        registry.register(model_dir)
        registry.promote("v1")
        registry.shadow("v2")
        registry.quarantine("v2", "shadow divergence over budget")
        state = registry.state()
        assert state["candidate"] is None
        assert state["versions"]["v2"]["status"] == STATUS_ROLLED_BACK
        with pytest.raises(RegistryError, match="use rollback"):
            registry.quarantine("v1", "nope")

    def test_gc_removes_old_dirs_but_keeps_audit(self, registry, model_dir):
        for _ in range(4):
            registry.register(model_dir)
        for version in ("v1", "v2", "v3", "v4"):
            registry.promote(version)
        # v1..v3 retired; keep=1 collects the two oldest.
        assert registry.gc(keep=1) == ["v2", "v1"]
        state = registry.state()
        assert not os.path.isdir(registry.path("v1"))
        assert os.path.isdir(registry.path("v3"))
        assert state["versions"]["v1"]["removed"] is True
        with pytest.raises(RegistryError, match="garbage-collected"):
            registry.promote("v1", force=True)
        assert registry.gc(keep=1) == []


class TestIntegrity:
    def test_verify_names_the_corrupt_file(self, registry, model_dir):
        registry.register(model_dir)
        registry.verify("v1")
        target = os.path.join(registry.path("v1"), "classifier.npz")
        _corrupt(target)
        with pytest.raises(CorruptArtifactError, match="checksum mismatch") as info:
            registry.verify("v1")
        assert info.value.path == target

    def test_verify_names_the_missing_file(self, registry, model_dir):
        registry.register(model_dir)
        target = os.path.join(registry.path("v1"), "flux_cnn.npz")
        os.remove(target)
        with pytest.raises(CorruptArtifactError, match="missing") as info:
            registry.verify("v1")
        assert info.value.path == target

    def test_verify_flags_extra_files_as_immutability_breach(
        self, registry, model_dir
    ):
        registry.register(model_dir)
        with open(os.path.join(registry.path("v1"), "sneaky.txt"), "w") as handle:
            handle.write("mutated")
        with pytest.raises(CorruptArtifactError, match="sneaky.txt"):
            registry.verify("v1")

    def test_promote_refuses_corrupt_version(self, registry, model_dir):
        registry.register(model_dir)
        _corrupt(os.path.join(registry.path("v1"), "manifest.json"))
        with pytest.raises(CorruptArtifactError):
            registry.promote("v1")
        assert registry.production() is None

    def test_corrupt_state_file_raises(self, registry, model_dir):
        registry.register(model_dir)
        with open(registry.state_path, "w") as handle:
            handle.write("{not json")
        with pytest.raises(CorruptArtifactError, match="unreadable registry state"):
            registry.state()

    def test_unknown_format_version_raises(self, registry, model_dir):
        registry.register(model_dir)
        state = registry.state()
        state["format_version"] = 99
        atomic_write_json(registry.state_path, state)
        with pytest.raises(CorruptArtifactError, match="unsupported registry format"):
            registry.state()


class TestRollbackGuard:
    def test_drift_must_be_sustained(self):
        guard = RollbackGuard(GuardConfig(sustained_checks=3))
        assert not guard.note_drift(True)
        assert not guard.note_drift(True)
        # A clean check in between resets the streak.
        assert not guard.note_drift(False)
        assert not guard.note_drift(True)
        assert not guard.note_drift(True)
        assert guard.note_drift(True)

    def test_divergence_budget_needs_min_samples(self):
        guard = RollbackGuard(
            GuardConfig(divergence_budget=0.1, divergence_min_samples=4)
        )
        assert math.isnan(guard.divergence_mean())
        assert not guard.note_divergence([0.5, 0.5])
        assert guard.note_divergence([0.5, 0.5])
        assert guard.divergence_mean() == pytest.approx(0.5)
        guard.reset_divergence()
        assert guard.divergence_count() == 0
        # Small divergences never trip, however many samples arrive.
        assert not guard.note_divergence([0.01] * 50)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            GuardConfig(sustained_checks=0)
        with pytest.raises(ValueError):
            GuardConfig(divergence_budget=-1.0)


class TestModelsCLI:
    def test_register_promote_rollback_round_trip(self, tmp_path, model_dir, capsys):
        reg = str(tmp_path / "registry")
        assert main(["models", "register", "--registry", reg,
                     "--model", str(model_dir), "--promote"]) == 0
        assert main(["models", "register", "--registry", reg,
                     "--model", str(model_dir)]) == 0
        assert main(["models", "promote", "v2", "--registry", reg]) == 0
        assert main(["models", "rollback", "--registry", reg,
                     "--reason", "bad scores"]) == 0
        capsys.readouterr()
        assert main(["models", "list", "--registry", reg, "--json"]) == 0
        state = json.loads(capsys.readouterr().out)
        assert state["production"] == "v1"
        assert state["versions"]["v2"]["status"] == STATUS_ROLLED_BACK
        # Quarantined versions are refused without --force (exit 2)...
        assert main(["models", "promote", "v2", "--registry", reg]) == EXIT_BAD_INPUT
        # ...and promoted with it.
        assert main(["models", "promote", "v2", "--registry", reg, "--force"]) == 0

    def test_corrupt_version_exits_3_with_path_in_cli_error(
        self, tmp_path, model_dir, capsys
    ):
        """Satellite: the terminal ``cli.error`` event names the bad file."""
        reg = str(tmp_path / "registry")
        telemetry = tmp_path / "telemetry"
        assert main(["models", "register", "--registry", reg,
                     "--model", str(model_dir)]) == 0
        target = os.path.join(reg, "versions", "v1", "classifier.npz")
        _corrupt(target)
        assert main(
            ["models", "promote", "v1", "--registry", reg,
             "--telemetry", str(telemetry)]
        ) == EXIT_CORRUPT_ARTIFACT
        capsys.readouterr()
        errors = [
            record for record in read_events(telemetry / EVENTS_FILE)
            if record["event"] == "cli.error"
        ]
        assert len(errors) == 1
        assert errors[0]["exit_code"] == EXIT_CORRUPT_ARTIFACT
        assert errors[0]["path"] == target

    def test_gc_via_cli(self, tmp_path, model_dir):
        reg = str(tmp_path / "registry")
        for _ in range(3):
            assert main(["models", "register", "--registry", reg,
                         "--model", str(model_dir)]) == 0
        for version in ("v1", "v2", "v3"):
            assert main(["models", "promote", version, "--registry", reg]) == 0
        assert main(["models", "gc", "--registry", reg, "--keep", "1"]) == 0
        assert not os.path.isdir(os.path.join(reg, "versions", "v1"))

    def test_serve_requires_exactly_one_model_source(self):
        assert main(["serve", "--port", "0"]) == EXIT_BAD_INPUT
        assert main(["serve", "--port", "0", "--model", "m",
                     "--registry", "r"]) == EXIT_BAD_INPUT


class TestArtifactErrorsNameTheFile:
    """Satellite: per-file blame in ``SupernovaPipeline.load``."""

    def test_mismatched_classifier_weights_name_classifier_npz(self, tmp_path):
        directory = tmp_path / "model"
        pipe = SupernovaPipeline(input_size=36, units=8, epochs_used=1, seed=0)
        pipe.save(str(directory))
        # Swap in weights from a structurally different classifier: the
        # error must blame classifier.npz, not the whole directory.
        other = SupernovaPipeline(input_size=36, units=4, epochs_used=1, seed=0)
        from repro.nn.serialization import save_module

        save_module(other.classifier, str(directory / "classifier.npz"))
        with pytest.raises(CorruptArtifactError, match="classifier") as info:
            SupernovaPipeline.load(str(directory))
        assert info.value.path.endswith("classifier.npz")

    def test_mismatched_cnn_weights_name_flux_cnn_npz(self, tmp_path):
        directory = tmp_path / "model"
        pipe = SupernovaPipeline(input_size=36, units=8, epochs_used=1, seed=0)
        pipe.save(str(directory))
        other = SupernovaPipeline(input_size=44, units=8, epochs_used=1, seed=0)
        from repro.nn.serialization import save_module

        save_module(other.cnn, str(directory / "flux_cnn.npz"))
        with pytest.raises(CorruptArtifactError, match="flux CNN") as info:
            SupernovaPipeline.load(str(directory))
        assert info.value.path.endswith("flux_cnn.npz")


class TestDriftBaselineArtifacts:
    """Satellite: baseline integrity + the missing-baseline warning."""

    def test_malformed_baseline_json_raises_corrupt_artifact(self, tmp_path):
        (tmp_path / BASELINE_FILE).write_text("{truncated")
        with pytest.raises(CorruptArtifactError):
            DriftBaseline.load(tmp_path)

    def test_absent_baseline_returns_none(self, tmp_path):
        assert DriftBaseline.load(tmp_path) is None

    @pytest.mark.obs
    def test_from_directory_without_baseline_warns(self, tmp_path, model_dir):
        assert obs.active() is None
        telemetry = tmp_path / "telemetry"
        obs.start(telemetry, run_id="run-nobaseline")
        try:
            engine = InferenceEngine.from_directory(str(model_dir))
        finally:
            obs.stop()
        assert engine.drift_baseline is None
        warnings = [
            record for record in read_events(telemetry / EVENTS_FILE)
            if record["event"] == "serve.no_drift_baseline"
        ]
        assert len(warnings) == 1
        assert warnings[0]["level"] == "warning"
        assert warnings[0]["model_dir"] == str(model_dir)
